"""CLI contract: subcommands, exit codes, output schemas, determinism."""
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest

import helpers
from macfair import cli
from macfair.core import ChannelTrace


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs.setdefault(key.split()[-1], value)
    return pairs


def _ascii_env() -> dict:
    """The environment of a child whose stdout is ASCII: the C locale, with
    UTF-8 mode and locale coercion off."""
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("PYTHONIOENCODING", None)
    return env


class TestAnalytic:
    def test_aloha_optimum(self, capsys):
        code, out, _ = run(capsys, "analytic", "aloha", "--pa", "0.5", "--pb", "0.5")
        assert code == 0
        values = kv(out)
        assert float(values["psi_slots"]) == 8.0
        assert float(values["psi_us"]) == 160.0

    def test_csma_reference(self, capsys):
        code, out, _ = run(capsys, "analytic", "csma", "--mode", "rtscts",
                           "--pkt", "30")
        assert code == 0
        values = kv(out)
        assert float(values["psi_slots"]) == pytest.approx(135.0, abs=0.1)
        assert float(values["p_c"]) == pytest.approx(0.0542, abs=5e-4)
        assert "mu" in values and "part1_mean" in values

    def test_solver_diagnostics(self, capsys):
        # Printed when the fixed point is solved, not when --p-c is given.
        code, out, _ = run(capsys, "analytic", "csma", "--pkt", "30")
        assert code == 0
        values = kv(out)
        assert 0.0 <= float(values["p_c_residual"]) < 1e-12
        assert int(values["p_c_iterations"]) > 0
        code, out, _ = run(capsys, "analytic", "csma", "--pkt", "30",
                           "--p-c", "0.1")
        assert code == 0
        assert "p_c_residual" not in out and "p_c_iterations" not in out

    def test_window_with_root_below_1e_9(self, capsys):
        code, out, err = run(capsys, "analytic", "csma", "--pkt", "30",
                             "--cw-min", "2147483648", "--beta", "0")
        assert code == 0 and err == ""
        assert float(kv(out)["p_c_residual"]) < 1e-24

    def test_microsecond_durations(self, capsys):
        code, out, _ = run(capsys, "analytic", "csma", "--pkt", "600us",
                           "--difs", "80us")
        assert code == 0
        reference = kv(run(capsys, "analytic", "csma", "--pkt", "30")[1])
        assert kv(out)["psi_slots"] == reference["psi_slots"]

    def test_tdma(self, capsys):
        code, out, _ = run(capsys, "analytic", "tdma", "--lengths", "30,30")
        assert code == 0
        assert float(kv(out)["psi_slots"]) == 60.0

    def test_validation_error_is_exit_1(self, capsys):
        code, _, err = run(capsys, "analytic", "aloha", "--pa", "1.0", "--pb", "0.5")
        assert code == 1
        assert "error" in err

    def test_domain_error_is_exit_1(self, capsys):
        code, _, err = run(capsys, "analytic", "csma", "--pkt", "30",
                           "--p-ni0", "1.0")
        assert code == 1

    @pytest.mark.parametrize("flags,message", [
        (("--beta", "2000"), "does not fit in a float"),
        (("--cw-min", "1" + "0" * 400), "does not fit in a float"),
        (("--e-ni", "inf"), "e_ni=inf"),
        (("--e-ni", "nan"), "e_ni=nan"),
    ], ids=["beta-2000", "cw-min-1e400", "e-ni-inf", "e-ni-nan"])
    def test_unrepresentable_input_is_exit_1(self, capsys, flags, message):
        code, out, err = run(capsys, "analytic", "csma", "--pkt", "30", *flags)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    # A closed form names its point, so leaving out any part of it is a
    # usage error rather than a default.
    @pytest.mark.parametrize("argv", [
        pytest.param(["aloha", "--pa", "0.5"], id="aloha-without-pb"),
        pytest.param(["csma", "--mode", "basic"], id="csma-without-pkt"),
        pytest.param(["tdma"], id="tdma-without-lengths"),
    ])
    def test_usage_error_is_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analytic", *argv])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestSimulate:
    def test_writes_parseable_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "simulate", "--protocol", "aloha",
                           "--pa", "0.5", "--pb", "0.5", "--slots", "20000",
                           "--seed", "9", "--out", str(out_path))
        assert code == 0
        values = kv(out)
        assert values["psi_undefined"] == "false"
        tr = ChannelTrace.from_file(out_path)
        assert tr.horizon == 20000

    def test_deterministic_output_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "simulate", "--protocol", "csma-rtscts",
                             "--pkt", "30", "--slots", "30000", "--seed", "4",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_audit_log_written(self, tmp_path, capsys):
        audit_path = tmp_path / "audit.csv"
        code, out, _ = run(capsys, "simulate", "--protocol", "csma-basic",
                           "--pkt", "30", "--slots", "30000", "--seed", "4",
                           "--audit-out", str(audit_path))
        assert code == 0
        line = audit_path.read_text().splitlines()[0].split(",")
        assert len(line) == 6
        assert line[1] in ("A", "B", "collision")

    def test_tdma(self, capsys):
        code, out, _ = run(capsys, "simulate", "--protocol", "tdma",
                           "--lengths", "30,30", "--slots", "60000")
        assert code == 0
        assert float(kv(out)["psi_slots"]) == 60.0

    def test_label_ending_in_space_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code, out, err = run(capsys, "simulate", "--protocol", "tdma",
                             "--users", "A,B ", "--lengths", "3,3",
                             "--slots", "30", "--warmup", "0",
                             "--out", str(path))
        assert (code, out) == (1, "")
        assert err == "error: invalid user label 'B '\n"
        assert not path.exists()

    def test_label_utf8_cannot_encode_is_exit_1(self, tmp_path, capsys):
        # Python decodes a command-line byte that is not UTF-8, here 0xFF,
        # to a lone surrogate.
        path = tmp_path / "t.csv"
        code, out, err = run(capsys, "simulate", "--protocol", "tdma",
                             "--users", "A\udcff,B", "--lengths", "3,3",
                             "--slots", "30", "--warmup", "0",
                             "--out", str(path))
        assert (code, out) == (1, "")
        assert err == "error: invalid user label 'A\\udcff'\n"
        assert not path.exists()

    def test_failing_figure_leaves_no_file(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code, out, err = run(capsys, "simulate", "--protocol", "tdma",
                             "--lengths", "30", "--users", "A",
                             "--slots", "1000", "--out", str(path))
        assert (code, out) == (1, "")
        assert err == "error: channel cycle time needs at least two users\n"
        assert not path.exists()

    @pytest.mark.parametrize("spelling", ["same", "symlink", "hard-link"])
    def test_out_and_audit_out_same_file_is_exit_1(self, tmp_path, capsys,
                                                   spelling):
        # A symlink to a file not yet there is caught by its real path, a
        # hard link by `os.path.samefile`.
        path = tmp_path / "x.csv"
        other = path if spelling == "same" else tmp_path / "link.csv"
        if spelling == "symlink":
            os.symlink(path, other)
        elif spelling == "hard-link":
            path.write_text("keep\n")
            os.link(path, other)
        code, out, err = run(capsys, "simulate", "--protocol", "csma-rtscts",
                             "--slots", "20000", "--out", str(path),
                             "--audit-out", str(other))
        assert (code, out) == (1, "")
        assert err == "error: --out and --audit-out name the same file\n"
        # Rejected before simulating: nothing is written.
        assert path.exists() == (spelling == "hard-link")
        if spelling == "hard-link":
            assert path.read_text() == "keep\n"

    @pytest.mark.parametrize("existed", [False, True])
    def test_unwritable_audit_leaves_no_trace_file(self, tmp_path, capsys,
                                                   existed):
        # Only files the run created are removed.
        path = tmp_path / "t.csv"
        if existed:
            path.write_text("older\n")
        code, out, err = run(capsys, "simulate", "--protocol", "csma-rtscts",
                             "--slots", "20000", "--out", str(path),
                             "--audit-out",
                             str(tmp_path / "missing" / "a.csv"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "missing" in err
        assert path.exists() == existed

    def test_unwritable_trace_leaves_no_audit_file(self, tmp_path, capsys):
        audit_path = tmp_path / "a.csv"
        code, out, err = run(capsys, "simulate", "--protocol", "csma-basic",
                             "--slots", "20000", "--out", str(tmp_path),
                             "--audit-out", str(audit_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert not audit_path.exists()

    def test_bad_probability_is_exit_1(self, capsys):
        code, _, err = run(capsys, "simulate", "--protocol", "aloha",
                           "--pa", "1.5", "--slots", "1000")
        assert code == 1

    @pytest.mark.parametrize("protocol", ["aloha", "tdma"])
    def test_audit_out_rejected_without_csma(self, tmp_path, capsys, protocol):
        audit_path = tmp_path / "audit.csv"
        code, out, err = run(capsys, "simulate", "--protocol", protocol,
                             "--slots", "1000", "--audit-out", str(audit_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert not audit_path.exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_micros_per_slot_is_exit_1(self, capsys, value):
        code, out, err = run(capsys, "--micros-per-slot", value, "simulate",
                             "--protocol", "aloha", "--slots", "2000")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_earlier_run_leaves_defaults(self, capsys):
        # The parser is built once a process: a run with other flags must
        # leave the next run's defaults, and stdout, as in a fresh process.
        argv = ["simulate", "--protocol", "csma-rtscts", "--slots", "5000"]
        fresh = subprocess.run(
            [sys.executable, "-m", "macfair", *argv], capture_output=True,
            text=True, env={**os.environ,
                            "PYTHONPATH": os.pathsep.join(sys.path)})
        assert fresh.returncode == 0, fresh.stderr
        code, _, _ = run(capsys, "sweep", "--seed", "5", "--warmup", "7",
                         "--cw-min", "8", "--pkt", "40", "--p-ni0", "0.2",
                         "--protocols", "csma-basic", "--cw-range", "8:8:1",
                         "--slots", "2000", "--reps", "1")
        assert code == 0
        assert cli.build_parser() is cli.build_parser()
        assert vars(cli.build_parser().parse_args(argv)) == \
            vars(cli.build_parser.__wrapped__().parse_args(argv))
        assert run(capsys, *argv) == (0, fresh.stdout, "")

    def test_missing_slots_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--protocol", "aloha"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--pk", "40"], ["--cw", "3"]],
                             ids=["pk", "cw"])
    def test_abbreviated_flag_is_exit_2(self, capsys, flag):
        # Prefixes of --pkt and --cw-min are not taken as those flags.
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--protocol", "csma-rtscts", *flag,
                      "--slots", "20000"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("simulate", "--protocol", "aloha", "--slots", "100"),
    ("simulate", "--protocol", "tdma", "--slots", "100"),
    ("sweep", "--protocols", "aloha", "--pkt-range", "30:30:1",
     "--slots", "100"),
])
def test_negative_seed_is_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: seed must be non-negative\n"


class TestAnalyze:
    def test_reference_trace_report(self, tmp_path, capsys):
        path = tmp_path / "fig.csv"
        helpers.fig_trace().to_file(path)
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "user=A cycle_samples=7,4" in out
        assert "user=B cycle_samples=6,3" in out
        assert "user=C cycle_samples=3" in out
        assert "intertx_pmf=" in out
        assert "throughput=" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "fig.csv"
        helpers.fig_trace().to_file(path)
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["psi_undefined"] is False
        assert blob["users"][0]["cycle_samples"] == [7, 4]
        assert "intertx_pmf" in blob

    def test_closed_stdout_pipe_exits_quietly(self, tmp_path, capsys,
                                              monkeypatch):
        path = tmp_path / "fig.csv"
        helpers.fig_trace().to_file(path)
        sink = tmp_path / "stdout"

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        with open(sink, "w") as fp:
            fd = fp.fileno()
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = cli.main(["analyze", str(path), "--json"])
            monkeypatch.undo()
            os.write(fd, b"after")  # the descriptor now points at devnull
        assert code == 0
        assert capsys.readouterr().err == ""
        assert sink.read_bytes() == b""

    def test_missing_file_is_exit_1(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/trace.csv")
        assert code == 1
        assert "error" in err

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0,5,S,A\n5,9,Q,B\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "line 2" in err

    def test_bound_beyond_int64_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("0,99999999999999999999,S,A\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1: ")

    @pytest.mark.parametrize("text,line_no", [
        ("#users=" + "+".join(f"U{i}" for i in range(64)) + "\n0,1,S,U63\n", 1),
        ("".join(f"{i},{i + 1},S,U{i}\n" for i in range(64)), 64),
    ], ids=["header", "inferred"])
    def test_64th_user_is_exit_1(self, tmp_path, capsys, text, line_no):
        path = tmp_path / "wide.csv"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: line {line_no}: more than 63 users\n"

    def test_scaled_horizon_is_exit_0(self, tmp_path, capsys):
        path = tmp_path / "scaled.csv"
        path.write_text("#slots_per_unit=2\n#horizon=10\n0,5,S,A\n5,8,S,B\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "throughput=0.800000" in out  # 16 busy slots of a 20-slot horizon

    @pytest.mark.parametrize("body,message", [
        (b"#users=A+\xff\n0,5,S,A\n", "line 1: invalid user label '\\udcff'"),
        (b"0,5,S,A\n5,9,S,B\n9,12,S,\xff\n",
         "line 3: invalid user label '\\udcff'"),
        (b"0,5,S,A\n5,9,S,B\n9\xff,12,S,A\n",
         "line 3: bad slot bounds '9\\udcff','12'"),
        (b"0,5,S,A\n5,9,S,B\n9,12,\xff,A\n",
         "line 3: unknown event kind '\\udcff'"),
    ], ids=["header", "users", "bounds", "kind"])
    def test_byte_not_utf8_is_exit_1(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_invalid_trace_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "overlap.csv"
        path.write_text("0,5,S,A\n3,8,S,B\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (1, "")
        assert err == "error: events 0 and 1 overlap\n"

    def test_label_stdout_cannot_encode_is_exit_1(self, tmp_path):
        # Under the C locale, with UTF-8 mode and locale coercion off,
        # stdout is ASCII, so the text report cannot hold the label.
        path = tmp_path / "trace.csv"
        ChannelTrace(("\u00e9", "B"), [0, 3], [3, 5], [0, 0], [1, 2],
                     5).to_file(path)

        def analyze(*flags):
            return subprocess.run(
                [sys.executable, "-m", "macfair", "analyze", str(path),
                 *flags], env=_ascii_env(), capture_output=True, text=True)

        text = analyze()
        assert (text.returncode, text.stdout) == (1, "")
        assert "Traceback" not in text.stderr
        assert re.match("error: stdout encoding "
                        "'(ascii|ANSI_X3.4-1968|US-ASCII)' ", text.stderr)
        blob = analyze("--json")
        assert blob.returncode == 0, blob.stderr
        assert json.loads(blob.stdout)["users"][0]["user"] == "\u00e9"

    def test_label_audit_is_utf8_under_ascii_locale(self, tmp_path):
        # The label is an escape in ASCII source: under the C locale argv
        # bytes are not decoded as UTF-8.
        trace, audit = tmp_path / "trace.csv", tmp_path / "audit.csv"
        code = ("import sys; from macfair import cli; sys.exit(cli.main(["
                "'simulate', '--protocol', 'csma-rtscts', '--users', "
                "'\\u00e9,B', '--slots', '2000', '--out', sys.argv[1], "
                "'--audit-out', sys.argv[2]]))")
        proc = subprocess.run([sys.executable, "-c", code, str(trace),
                               str(audit)], env=_ascii_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        winners = {line.split(",")[1] for line in
                   audit.read_text(encoding="utf-8").splitlines()}
        assert "\u00e9" in winners

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_failing_figure_leaves_stdout_empty(self, tmp_path, capsys, flags):
        # No events: the cycle and inter-transmission reports exist, but
        # throughput has no positive horizon.
        path = tmp_path / "headers.csv"
        path.write_text("#users=A+B\n")
        code, out, err = run(capsys, "analyze", str(path), *flags)
        assert (code, out) == (1, "")
        assert err == "error: throughput needs a positive horizon\n"


class TestSweep:
    def test_shares_simulate_defaults(self):
        # Simulation and theory read one scenario, so every flag both
        # subcommands parse defaults alike.
        parser = cli.build_parser()
        sim = vars(parser.parse_args(["simulate", "--protocol", "aloha",
                                      "--slots", "1"]))
        sw = vars(parser.parse_args(["sweep", "--pkt-range", "1:1:1"]))
        shared = set(sim) & set(sw) - {"command", "func", "slots"}
        assert {"seed", "warmup", "pa", "pb", "slot", "pkt", "cw_min", "beta",
                "difs", "ack", "rts", "cts"} <= shared
        assert {k: sim[k] for k in shared} == {k: sw[k] for k in shared}

    def test_schema_and_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "sweep", "--protocols", "tdma,csma-rtscts",
                             "--pkt-range", "30:50:10", "--slots", "20000",
                             "--reps", "2", "--seed", "3", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == ("x,protocol,psi_analytic_slots,psi_sim_mean_slots,"
                            "psi_sim_ci95,n_ok")
        assert len(lines) == 1 + 3 * 2
        row = lines[1].split(",")
        assert row[0] == "30" and row[1] == "tdma"
        assert float(row[2]) == 60.0
        assert float(row[3]) == 60.0
        assert row[5] == "2"

    def test_single_point_agrees_with_analytic(self, capsys):
        code, out, _ = run(capsys, "sweep", "--protocols", "tdma",
                           "--pkt-range", "40:40:1", "--slots", "20000",
                           "--reps", "1")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[2] == row[3] == "80.000000"
        assert row[4] == "nan"  # one sample leaves the interval undefined

    def test_window_beyond_float_is_exit_1(self, capsys):
        cw = "1" + "0" * 400
        code, out, err = run(capsys, "sweep", "--protocols", "csma-rtscts",
                             "--cw-range", f"{cw}:{cw}:1", "--pkt", "30",
                             "--slots", "2000")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "does not fit in a float" in err

    @pytest.mark.parametrize("slots,aloha_row", [
        ("60", "10,aloha,80.000000,nan,nan,0"),
        ("200", "10,aloha,80.000000,107.500000,158.827559,2"),
    ])
    def test_undefined_reps_are_counted(self, capsys, slots, aloha_row):
        # Short horizons leave some Aloha reps without a cycle; n_ok shows
        # how many of the 4 reps the mean and the t interval rest on.
        code, out, _ = run(capsys, "sweep", "--protocols", "aloha,tdma",
                           "--pkt-range", "10:10:1", "--slots", slots,
                           "--reps", "4", "--seed", "1", "--warmup", "0")
        assert code == 0
        assert out.splitlines()[1:] == [aloha_row,
                                        "10,tdma,20.000000,20.000000,0.000000,4"]

    def test_modes_share_each_reps_rounds(self, capsys, monkeypatch):
        # One ContentionRounds per (point, rep), handed to both CSMA/CA
        # protocols, and dropped before the next is built; every protocol
        # still makes its own simulate_csma call.
        built, calls = [], []

        class Counted(cli.ContentionRounds):
            def __init__(self, *args):
                assert all(ref() is None for ref in built)
                super().__init__(*args)
                built.append(weakref.ref(self))

        def counted_simulate(*args, rounds=None, **kwargs):
            # The id only, so the record keeps no chain alive.
            calls.append((type(rounds), id(rounds)))
            return simulate(*args, rounds=rounds, **kwargs)

        simulate = cli.simulate_csma
        monkeypatch.setattr(cli, "ContentionRounds", Counted)
        monkeypatch.setattr(cli, "simulate_csma", counted_simulate)
        code, out, _ = run(capsys, "sweep", "--protocols",
                           "csma-rtscts,tdma,csma-basic", "--pkt-range",
                           "30:50:10", "--slots", "5000", "--reps", "2")
        assert code == 0 and len(out.splitlines()) == 1 + 3 * 3
        assert len(built) == 6 and len(calls) == 12
        assert {kind for kind, _ in calls} == {Counted}
        assert calls[0::2] == calls[1::2]

    def test_t_quantile_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        dfs = range(1, 1001)
        ours = [cli._t_quantile(0.975, df) for df in dfs]
        assert ours == pytest.approx(stats.t.ppf(0.975, dfs), rel=1e-12)

    def test_p_range_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--protocols", "aloha",
                           "--p-range", "0.4:0.6:0.1", "--slots", "30000",
                           "--reps", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 9  # 3x3 grid
        assert lines[1].split(",")[0] == "0.4/0.4"

    @pytest.mark.parametrize("axis,text,message", [
        ("--p-range", "0.4:0.6:0.1", "--p-range sweeps apply to aloha only"),
        ("--cw-range", "16:32:16", "--cw-range sweeps apply to CSMA only"),
    ], ids=["p-range", "cw-range"])
    def test_axis_limited_to_its_protocols(self, capsys, axis, text, message):
        code, out, err = run(capsys, "sweep", "--protocols", "tdma", axis,
                             text, "--slots", "1000")
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_no_axis_is_exit_1(self, capsys):
        code, _, err = run(capsys, "sweep", "--protocols", "tdma",
                           "--slots", "1000")
        assert code == 1

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_micros_per_slot_is_exit_1(self, capsys, value):
        code, out, err = run(capsys, "--micros-per-slot", value, "sweep",
                             "--protocols", "tdma", "--pkt-range", "30:30:1",
                             "--slots", "1000", "--reps", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_zero_reps_is_exit_1(self, capsys):
        code, out, err = run(capsys, "sweep", "--protocols", "aloha",
                             "--pkt-range", "30:30:1", "--slots", "1000",
                             "--reps", "0")
        assert code == 1
        assert out == ""
        assert "--reps" in err

    def test_two_axes_is_exit_1(self, capsys):
        code, out, err = run(capsys, "sweep", "--protocols", "aloha",
                             "--pkt-range", "30:30:1", "--p-range",
                             "0.4:0.6:0.1", "--slots", "1000")
        assert code == 1
        assert out == ""
        assert "exactly one of" in err

    @pytest.mark.parametrize("flags,message", [
        (("--pkt-range", "30-50-10"), "bad range '30-50-10'; use lo:hi:step"),
        (("--pkt-range", "30:100:0"), "bad range '30:100:0'; use lo:hi:step"),
        (("--protocols", "aloha", "--p-range", "0.2:0.8:-0.1"),
         "bad range '0.2:0.8:-0.1'; use lo:hi:step"),
        (("--protocols", "aloha", "--p-range", "0.2:0.8:nan"),
         "bad range '0.2:0.8:nan'; use lo:hi:step"),
        (("--protocols", "foo", "--pkt-range", "30:30:1"),
         "unknown protocol 'foo'"),
    ], ids=["separator", "zero-step", "negative-step", "nan-step",
            "unknown-protocol"])
    def test_bad_range_is_exit_1(self, capsys, flags, message):
        code, out, err = run(capsys, "sweep", *flags, "--slots", "1000")
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flags,message", [
        (("--pkt-range=-10:0:10",), "bad duration '-10'; use slots or <n>us"),
        # TDMA is the first default protocol, so it meets the point first.
        (("--pkt-range", "0:0:1"), "packet lengths must be at least 1 slot"),
        (("--protocols", "aloha", "--pkt-range", "0:0:1"),
         "slot length must be at least 1 tick"),
        (("--protocols", "csma-basic", "--pkt-range", "0:0:1"),
         "l_pkt must be at least 1 slot"),
        (("--protocols", "aloha", "--p-range", "0.5:1.5:0.5"),
         "cycle time needs both probabilities inside (0, 1)"),
        (("--protocols", "csma-basic", "--cw-range", "0:0:1"),
         "cw_min must be at least 1"),
        # Every protocol's params are built before any rep runs, so Aloha's
        # bad p_a is met before CSMA/CA's window is tried by the simulator.
        (("--protocols", "csma-rtscts,aloha", "--pkt-range", "30:30:1",
          "--beta", "28", "--pa", "1.5"), "p_a=1.5 outside [0, 1]"),
    ], ids=["negative-pkt", "zero-pkt-tdma", "zero-pkt-aloha",
            "zero-pkt-csma", "p-past-one", "zero-cw", "double-fault"])
    def test_bad_point_is_exit_1(self, capsys, flags, message):
        code, out, err = run(capsys, "sweep", *flags, "--slots", "1000")
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("protocols,axis,text", [
        ("aloha", "--pkt-range", "100:30:10"),
        ("aloha", "--p-range", "0.8:0.2:0.1"),
        ("csma-rtscts", "--cw-range", "64:4:8"),
    ])
    def test_empty_range_is_exit_1(self, tmp_path, capsys, protocols, axis,
                                   text):
        path = tmp_path / "sweep.csv"
        for extra in ((), ("--out", str(path))):
            code, out, err = run(capsys, "sweep", "--protocols", protocols,
                                 axis, text, *extra)
            assert code == 1
            assert out == ""
            assert err == f"error: range {text!r} has no values\n"
        assert not path.exists()


class TestCharacterization:
    """Full stdout of seeded runs, pinned so refactors keep the output exact."""

    CASES = [
        (["sweep", "--protocols", "csma-rtscts,csma-basic", "--cw-range",
          "8:40:16", "--pkt", "30", "--slots", "20000", "--reps", "2",
          "--seed", "5"],
         "x,protocol,psi_analytic_slots,psi_sim_mean_slots,psi_sim_ci95,n_ok\n"
         "8,csma-rtscts,118.404887,119.029503,76.789701,2\n"
         "8,csma-basic,120.412391,125.866932,92.595582,2\n"
         "24,csma-rtscts,129.277188,130.863912,30.902676,2\n"
         "24,csma-basic,126.562601,128.263276,20.687874,2\n"
         "40,csma-rtscts,140.817774,140.965013,39.080823,2\n"
         "40,csma-basic,136.921156,140.861426,12.747748,2\n"),
        (["--micros-per-slot", "10", "sweep", "--protocols", "tdma,csma-basic",
          "--pkt-range", "20:30:10", "--difs", "40us", "--slots", "20000",
          "--reps", "2", "--seed", "7"],
         "x,protocol,psi_analytic_slots,psi_sim_mean_slots,psi_sim_ci95,n_ok\n"
         "20,tdma,40.000000,40.000000,0.000000,2\n"
         "20,csma-basic,101.326883,102.653527,48.634982,2\n"
         "30,tdma,60.000000,60.000000,0.000000,2\n"
         "30,csma-basic,131.580361,129.340547,2.292400,2\n"),
        # Basic first and TDMA between the two CSMA/CA protocols, which share
        # each rep's contention rounds.
        (["sweep", "--protocols", "csma-basic,tdma,csma-rtscts",
          "--pkt-range", "30:100:35", "--slots", "20000", "--reps", "3",
          "--warmup", "0", "--seed", "9"],
         "x,protocol,psi_analytic_slots,psi_sim_mean_slots,psi_sim_ci95,n_ok\n"
         "30,csma-basic,131.580361,133.907666,14.061216,3\n"
         "30,tdma,60.000000,60.000000,0.000000,3\n"
         "30,csma-rtscts,135.021746,136.561788,12.918998,3\n"
         "65,csma-basic,237.467534,240.944257,22.341485,3\n"
         "65,tdma,130.000000,130.000000,0.000000,3\n"
         "65,csma-rtscts,237.962922,242.802451,17.930593,3\n"
         "100,csma-basic,343.354707,345.331889,40.474729,3\n"
         "100,tdma,200.000000,200.000000,0.000000,3\n"
         "100,csma-rtscts,340.904099,340.933679,36.110311,3\n"),
        (["analytic", "csma", "--pkt", "30", "--p-c", "0.1"],
         "psi_slots=138.561046\n"
         "psi_us=2771.220915\n"
         "mode=csma-rtscts\n"
         "p_c=0.100000\n"
         "mu=20.554844\n"
         "part1_mean=111.162688\n"
         "part2_mean=27.398358\n"
         "p_ni0=0.320000\n"
         "e_ni=1.000000\n"),
        (["simulate", "--protocol", "aloha", "--slot", "2", "--pa", "0.4",
          "--slots", "20000", "--seed", "3"],
         "psi_slots=16.013629\n"
         "psi_undefined=false\n"
         "psi_us=320.272577\n"
         "throughput=0.506900\n"
         "events=9132\n"),
    ]

    @pytest.mark.parametrize("argv,expected", CASES,
                             ids=["sweep-cw", "sweep-pkt-us",
                                  "sweep-pkt-basic-first", "analytic-p-c",
                                  "simulate-aloha-slot"])
    def test_stdout_pinned(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == expected


class TestDurationParsing:
    def test_slots_plain(self):
        assert cli.parse_duration("30", 20) == 30

    def test_microseconds(self):
        assert cli.parse_duration("600us", 20) == 30

    def test_lossy_rejected(self):
        from macfair.core import UnitError
        with pytest.raises(UnitError):
            cli.parse_duration("30us", 20)

    def test_garbage_rejected(self):
        from macfair.core import TraceError
        with pytest.raises(TraceError):
            cli.parse_duration("30ms", 20)


class TestAsciiIntegers:
    """CLI integers follow the trace file's rule: ASCII decimal digits, with
    an optional sign and surrounding spaces; digit group underscores and
    non-ASCII digits are errors."""

    ARABIC_30 = "\u0663\u0660"
    INT_FLAGS = ["--micros-per-slot", "--cw-min", "--beta", "--seed",
                 "--warmup", "--slots", "--reps"]

    @staticmethod
    def _argv(flag, text):
        if flag == "--micros-per-slot":
            return [flag, text, "analytic", "tdma", "--lengths", "3"]
        return ["sweep", flag, text]

    @pytest.mark.parametrize("argv,message", [
        (("analytic", "csma", "--pkt", ARABIC_30),
         f"bad duration {ARABIC_30!r}; use slots or <n>us"),
        (("simulate", "--protocol", "tdma", "--lengths", f"{ARABIC_30},30",
          "--slots", "100"), f"bad duration {ARABIC_30!r}; use slots or <n>us"),
        (("sweep", "--protocols", "tdma", "--pkt-range", "3_0:3_0:1",
          "--slots", "100"), "bad range '3_0:3_0:1'; use lo:hi:step"),
        (("sweep", "--protocols", "csma-basic", "--cw-range",
          f"8:{ARABIC_30}:8", "--slots", "100"),
         f"bad range '8:{ARABIC_30}:8'; use lo:hi:step"),
    ], ids=["analytic-pkt", "tdma-lengths", "pkt-range", "cw-range"])
    def test_bad_duration_or_range_is_exit_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", ["\u0663\u0662", "3_2", "3.0"])
    @pytest.mark.parametrize("flag", INT_FLAGS)
    def test_bad_int_flag_is_exit_2(self, capsys, flag, text):
        with pytest.raises(SystemExit) as exc:
            cli.main(self._argv(flag, text))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(
            f"error: argument {flag}: invalid int value: {text!r}\n")

    @pytest.mark.parametrize("text", ["32", " 32", "+32", "32 "])
    @pytest.mark.parametrize("flag", INT_FLAGS)
    def test_int_flag_parses(self, flag, text):
        args = cli.build_parser().parse_args(self._argv(flag, text))
        assert getattr(args, flag[2:].replace("-", "_")) == 32

    def test_range_bounds_parse(self):
        assert cli._parse_range(" 30:+32: 1", integer=True) == [30, 31, 32]


def _crossover_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "rtscts_crossover.py"
    spec = importlib.util.spec_from_file_location("rtscts_crossover", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCrossoverScript:
    """scripts/rtscts_crossover.py runs its sweep through cli.main."""

    @pytest.fixture
    def script(self, monkeypatch):
        module = _crossover_script()
        sweeps = []

        def fake_main(argv):
            sweeps.append(argv)
            return 1

        monkeypatch.setattr(module.cli, "main", fake_main)
        return module, sweeps

    def test_abbreviated_flag_is_exit_2(self, script, monkeypatch, tmp_path,
                                        capsys):
        module, sweeps = script
        out = tmp_path / "sweep.csv"
        monkeypatch.setattr(sys, "argv", ["rtscts_crossover.py", "--slot",
                                          "20000", "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            module.main()
        assert exc.value.code == 2
        assert "--slot" in capsys.readouterr().err
        assert sweeps == []
        assert not out.exists()

    def test_full_flag_reaches_sweep(self, script, monkeypatch, tmp_path):
        module, sweeps = script
        monkeypatch.setattr(sys, "argv", ["rtscts_crossover.py", "--slots",
                                          "20000", "--out",
                                          str(tmp_path / "sweep.csv")])
        assert module.main() == 1
        assert len(sweeps) == 1
        i = sweeps[0].index("--slots")
        assert sweeps[0][i + 1] == "20000"

    def test_analytic_point_follows_sweep_flags(self, monkeypatch, capsys):
        # The inflection and the crossover's ACK come from the point that
        # cli builds from the sweep's own flags, not from copied defaults.
        from macfair.analytic import (rtscts_basic_inflection,
                                      solve_collision_probability)
        from macfair.core import CsmaParams
        module = _crossover_script()
        point = CsmaParams(cw_min=16, beta=3, l_difs=4, l_pkt=30, l_ack=2)
        built = []

        def fake_main(argv):
            print("x,protocol,psi_sim_mean_slots\n48,csma-rtscts,10\n"
                  "48,csma-basic,12\n56,csma-rtscts,14\n56,csma-basic,13")
            return 0

        def fake_build(protocol, args):
            built.append((protocol, args.slots, args.pkt_range))
            return point

        monkeypatch.setattr(module.cli, "main", fake_main)
        monkeypatch.setattr(module.cli, "_build_params", fake_build)
        monkeypatch.setattr(sys, "argv", ["rtscts_crossover.py", "--slots",
                                          "20000", "--pkt-range", "48:56:8"])
        assert module.main() == 0
        assert built == [("csma-rtscts", 20000, "48:56:8")]
        p_c = solve_collision_probability(16, 3).p_c
        out = kv(capsys.readouterr().out)
        # The difference -2 at 48 and +1 at 56 changes sign at 48 + 16/3.
        assert out["sim_crossover_tran_slots"] == f"{48 + 16 / 3 + 2:.2f}"
        assert out["analytic_inflection_tran_slots"] == \
            f"{rtscts_basic_inflection(p_c, 2):.2f}"

    @pytest.mark.parametrize("fails", [False, True], ids=["ok", "failed"])
    def test_leaves_no_temp_file(self, monkeypatch, tmp_path, capsys, fails):
        module = _crossover_script()
        if fails:
            monkeypatch.setattr(module.cli, "main", lambda argv: 1)
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        out = tmp_path / "sweep.csv"
        argv = ["rtscts_crossover.py", "--slots", "20000", "--pkt-range",
                "48:56:8", "--reps", "1"]
        for extra in ([], ["--out", str(out)]):
            monkeypatch.setattr(sys, "argv", argv + extra)
            code = module.main()
            assert list(temp.iterdir()) == []
        printed = capsys.readouterr().out
        if fails:
            assert code == 1 and not out.exists()
        else:
            assert printed.count("pkt=48 rtscts_minus_basic=") == 2
            lines = out.read_text().splitlines()
            assert lines[0].startswith("x,protocol,") and len(lines) == 5

    def test_real_run_pinned(self, monkeypatch, capsys):
        module = _crossover_script()
        monkeypatch.setattr(sys, "argv", ["rtscts_crossover.py", "--slots",
                                          "200000", "--reps", "3"])
        assert module.main() == 0
        assert capsys.readouterr().out == (
            "pkt=48 rtscts_minus_basic=+1.2377\n"
            "pkt=56 rtscts_minus_basic=+1.3223\n"
            "pkt=64 rtscts_minus_basic=+0.6884\n"
            "pkt=72 rtscts_minus_basic=-0.4986\n"
            "pkt=80 rtscts_minus_basic=-0.3289\n"
            "pkt=88 rtscts_minus_basic=-2.8311\n"
            "pkt=96 rtscts_minus_basic=-2.3339\n"
            "sim_crossover_tran_slots=69.64\n"
            "analytic_inflection_tran_slots=71.89\n")

    @pytest.mark.parametrize("undefined", [[96], list(range(48, 104, 8))],
                             ids=["last-point", "every-point"])
    def test_undefined_psi_is_exit_1(self, monkeypatch, capsys, undefined):
        # Without the undefined points the difference is +100 everywhere, so
        # a nan counted as a sign change would be the only "flip".
        module = _crossover_script()

        def fake_main(argv):
            print("x,protocol,psi_analytic_slots,psi_sim_mean_slots,"
                  "psi_sim_ci95,n_ok")
            for pkt in range(48, 104, 8):
                for protocol, psi in (("csma-rtscts", 1000.0 + pkt),
                                      ("csma-basic", 900.0 + pkt)):
                    n_ok = 0 if pkt in undefined else 3
                    mean = float("nan") if n_ok == 0 else psi
                    print(f"{pkt},{protocol},{psi:.6f},{mean:.6f},1.0,{n_ok}")
            return 0

        monkeypatch.setattr(module.cli, "main", fake_main)
        monkeypatch.setattr(sys, "argv", ["rtscts_crossover.py"])
        assert module.main() == 1
        out = capsys.readouterr().out
        named = ", ".join(f"pkt={pkt} {protocol}" for pkt in undefined
                          for protocol in ("csma-rtscts", "csma-basic"))
        assert f"no defined psi at {named};" in out
        assert "crossover" not in out and "flips" not in out


def _readme_commands() -> list[str]:
    """Every `macfair ...` line of README's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    return [line for block in blocks
            for line in re.sub(r"\\\n\s*", " ", block).splitlines()
            if line.startswith("macfair ")]


class TestReadmeExamples:
    """README's CLI examples parse with the current flags; none is run."""

    def test_every_subcommand_shown(self):
        shown = {shlex.split(line)[1] for line in _readme_commands()}
        assert shown == {"simulate", "analyze", "analytic", "sweep"}

    @pytest.mark.parametrize("line", _readme_commands())
    def test_example_parses(self, line):
        argv = shlex.split(line, comments=True)
        assert argv[0] == "macfair"
        cli.build_parser().parse_args(argv[1:])


def test_runtime_needs_numpy_alone():
    # The package declares numpy as its one dependency: with the test
    # extras made unimportable, it still imports and runs.
    code = ("import sys\n"
            "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
            "import macfair\n"
            "from macfair.cli import main\n"
            "assert main(['simulate', '--protocol', 'aloha',"
            " '--slots', '2000']) == 0\n"
            "assert main(['analytic', 'csma', '--pkt', '30']) == 0\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ,
                                          "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
