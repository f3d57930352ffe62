"""Benchmark for macfair: three seeded workloads run in-process through the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one closed-loop caller, one thread; each pass starts after the
previous one ends, and every pass repeats the same generated inputs):

  simulate-aloha  `macfair simulate --protocol aloha` at 3e6 slots: the
                  large-array numpy path (simulate_aloha, validate_trace, the
                  two-user cycle search, throughput).
  sweep-pkt       `macfair sweep` over four protocols and three packet
                  lengths, 2 reps each: 24 small simulations, dominated by
                  the per-round Python loop of simulate_csma.
  analyze-nuser   a seeded synthetic 5-user trace written with
                  ChannelTrace.to_file, then `macfair analyze`: the only N>2
                  cycle search and the only trace file I/O.

--trace 0 times untraced passes and reports the end-to-end metrics.
Their timings are scaled to a reference machine speed: right after each
pass (and each set-up sample) the benchmark times a fixed reference kernel,
and the pass time is multiplied by REF_SECONDS over the kernel's time (the
mean of the kernels timed before and after the pass).  A shared 2-vCPU VM
(Xeon 2.1 GHz) switches between speed regimes that last from seconds to whole
runs, in which a fixed loop takes up to 1.6x longer; the scaled times cancel
most of that, while the raw wall times are still printed and kept in the run
record.  The
kernel matches the workload's dominant cost: "interp" (a pure-Python loop
and per-call numpy scalar draws) for sweep-pkt, analyze-nuser and set-up;
"array" (large-array numpy sort and cumsum) for simulate-aloha.
--trace 1 alternates untraced passes with passes that run under timing
wrappers around the public functions the CLI calls, and reports the self
time and counts of each layer. Every pass is checked for correctness. The
last line of stdout is one JSON object; the full run record (machine facts,
sizes, exact counts, spans) goes to bench/out/.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import (contextmanager, nullcontext, redirect_stderr,
                        redirect_stdout)
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
PINNED = Path(__file__).resolve().parent / "pinned_nuser.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ("simulate-aloha", "sweep-pkt", "analyze-nuser")
SIZES = {
    "full": {
        "simulate-aloha": {"slots": 3_000_000},
        "sweep-pkt": {"slots": 1_000_000, "reps": 2, "pkt_range": "30:100:35"},
        "analyze-nuser": {"events": 100_000, "users": 5},
    },
    # Seconds-long sizes for bench/selftest.py.
    "tiny": {
        "simulate-aloha": {"slots": 200_000},
        "sweep-pkt": {"slots": 400_000, "reps": 2, "pkt_range": "30:40:10"},
        "analyze-nuser": {"events": 20_000, "users": 5},
    },
}
SETUP_REPS = 15
REF_SECONDS = 0.1      # nominal time of one reference kernel; see the docstring
MIN_PASSES = 3
ALOHA_PSI = 8.0        # closed form at pa = pb = 0.5, slot length 1
ALOHA_TOL = 0.02
SWEEP_TOL = 0.05       # acceptance criterion 06's tolerance
PRINT_TOL = 5e-7       # the CLI prints six decimals
SETUP_CODE = ("import time; t = time.perf_counter(); import macfair.cli; "
              "macfair.cli.build_parser(); print(repr(time.perf_counter() - t))")


def _import_program():
    """Import macfair from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import macfair.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import macfair from {SRC}: {exc}")
    if SRC not in Path(macfair.cli.__file__).resolve().parents:
        sys.exit(f"bench: macfair imported from {macfair.cli.__file__}, "
                 f"not from {SRC}")
    return macfair


class CheckFailed(Exception):
    """A pass produced output that is not correct."""


# -- span recorder -------------------------------------------------------------

class SpanRecorder:
    """Spans kept in memory as [pass_id, name, start, end, parent_index].

    Span names are the per-layer metric names without the quantity suffix:
    the self time of spans named "sim.simulate_csma" is "sim.simulate_csma.s".
    """

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [self.pass_id, name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def self_times(self, pass_id: int) -> tuple[dict[str, float], Counter]:
        """Per-name self time (duration minus child durations) and span count."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (pid, name, start, end, _) in enumerate(self.spans):
            if pid == pass_id:
                self_s[name] += end - start - child[i]
                calls[name] += 1
        return self_s, calls


# Span name -> (defining module, function).  Every macfair module that holds
# the same function object gets the wrapper, so the CLI's own imports
# (`from .sim import simulate_csma`) are traced wherever they are called from.
FUNCTION_LAYERS = {
    "sim.simulate_aloha": ("macfair.sim", "simulate_aloha"),
    "sim.simulate_csma": ("macfair.sim", "simulate_csma"),
    "sim.simulate_tdma": ("macfair.sim", "simulate_tdma"),
    "core.validate_trace": ("macfair.core", "validate_trace"),
    "metrics.channel_cycle_time": ("macfair.metrics", "channel_cycle_time"),
    "metrics.inter_transmission_report":
        ("macfair.metrics", "inter_transmission_report"),
    "metrics.throughput": ("macfair.metrics", "throughput"),
    "analytic.csma_cct": ("macfair.analytic", "csma_cct"),
    "analytic.aloha_cct": ("macfair.analytic", "aloha_cct"),
    "analytic.tdma_cct": ("macfair.analytic", "tdma_cct"),
}
METHOD_LAYERS = {"core.write": "to_file", "core.read": "from_file"}
# Recorded for its result (iteration count) but not timed: it runs inside
# analytic.csma_cct, whose span already covers it.
FIXED_POINT = ("analytic.fixed_point", "macfair.analytic",
               "solve_collision_probability")


class Call(NamedTuple):
    """One wrapped call, reduced to its exact counts while the pass runs.

    The full result is kept only when the workload's checks need it, so the
    traced pass does not hold every simulated trace until it ends.
    """
    name: str
    counts: Counter
    row: list
    result: object


def digest(name: str, args: tuple, result) -> tuple[Counter, list]:
    """Exact counts and a record row of one call, from its arguments and result."""
    from macfair.core import COLLISION_CODE, SUCCESS_CODE
    c: Counter = Counter()
    row: list = [name]
    if name.startswith("sim."):
        trace = result[0] if isinstance(result, tuple) else result
        succ = int(np.count_nonzero(trace.kinds == SUCCESS_CODE))
        coll = int(np.count_nonzero(trace.kinds == COLLISION_CODE))
        c["sim.events_out"] += len(trace)
        c["slots"] += trace.horizon
        c["events"] += len(trace)
        if name != "sim.simulate_tdma":
            c["contention_rounds"] += succ + coll
            c["collisions"] += coll
        if name == "sim.simulate_csma":
            c["csma_rounds"] += succ + coll
        if name == "sim.simulate_aloha":
            c["aloha_slots"] += trace.horizon
        row += [len(trace), succ, coll]
    elif name == "core.validate_trace":
        c["validated_events"] += len(args[0])
    elif name == "core.write":
        size = os.path.getsize(args[1])
        c["write_bytes"] += size
        row += [len(args[0]), size]
    elif name == "core.read":
        c["read_events"] += len(result)
        c["slots"] += result.horizon
        c["events"] += len(result)
        row += [len(result)]
    elif name == "metrics.channel_cycle_time":
        c["cct_successes"] += int(np.count_nonzero(args[0].kinds == SUCCESS_CODE))
        per_user = [len(result.per_user_samples[u]) for u in result.users]
        c["cycles"] += sum(per_user)
        row += [repr(result.psi_slots), per_user]
    elif name == "metrics.inter_transmission_report":
        row += [repr(result.mean), len(result.pooled_pmf)]
    elif name == FIXED_POINT[0]:
        c["fixed_point_iterations"] += result.iterations
        row += [result.iterations]
    elif name.startswith("analytic."):
        psi = result if isinstance(result, float) else result.psi_slots
        row += [repr(psi)]
    return c, row


def _wrap(fn, name: str, calls: list, rec: SpanRecorder, timed: bool,
          keep: frozenset):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) if timed else nullcontext():
            result = fn(*args, **kwargs)
        # Harness work gets its own span, so it is not charged to the caller.
        with rec.span("trace.record"):
            calls.append(Call(name, *digest(name, args, result),
                              result if name in keep else None))
        return result
    return wrapper


@contextmanager
def instrumented(rec: SpanRecorder, calls: list, keep: frozenset):
    """Install timing wrappers on the layer functions; restore them on exit."""
    from macfair.core import ChannelTrace
    patches = []

    def patch_everywhere(modname, attr, name, timed):
        orig = getattr(sys.modules[modname], attr)
        new = _wrap(orig, name, calls, rec, timed, keep)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").split(".")[0] == "macfair"
                    and vars(mod).get(attr) is orig):
                patches.append((mod, attr, orig))
                setattr(mod, attr, new)

    for name, (modname, attr) in FUNCTION_LAYERS.items():
        patch_everywhere(modname, attr, name, timed=True)
    patch_everywhere(FIXED_POINT[1], FIXED_POINT[2], FIXED_POINT[0], timed=False)
    for name, attr in METHOD_LAYERS.items():
        raw = vars(ChannelTrace)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(raw.__func__, name, calls, rec, True, keep))
        else:
            new = _wrap(raw, name, calls, rec, True, keep)
        patches.append((ChannelTrace, attr, raw))
        setattr(ChannelTrace, attr, new)
    try:
        yield
    finally:
        for obj, attr, orig in reversed(patches):
            setattr(obj, attr, orig)


def pass_counts(calls: list[Call]) -> tuple[Counter, list]:
    """Exact counts of one pass, and one record row per call."""
    total: Counter = Counter()
    for call in calls:
        total.update(call.counts)
    return total, [call.row for call in calls]


def layer_metrics(self_s: dict, spans: Counter, c: Counter,
                  cli_output_bytes: int) -> dict[str, float]:
    def rate(num, secs):
        return num / secs if secs > 0 else 0.0

    s = {name: self_s.get(name, 0.0)
         for name in list(FUNCTION_LAYERS) + list(METHOD_LAYERS)}
    return {
        "sim.simulate_csma.s": s["sim.simulate_csma"],
        "sim.simulate_csma.calls": spans["sim.simulate_csma"],
        "sim.simulate_csma.rounds": c["csma_rounds"],
        "sim.simulate_csma.rounds_per_s": rate(c["csma_rounds"],
                                               s["sim.simulate_csma"]),
        "sim.simulate_aloha.s": s["sim.simulate_aloha"],
        "sim.simulate_aloha.slots_per_s": rate(c["aloha_slots"],
                                               s["sim.simulate_aloha"]),
        "sim.simulate_tdma.s": s["sim.simulate_tdma"],
        "sim.events_out": c["sim.events_out"],
        "sim.collision_frac": rate(c["collisions"], c["contention_rounds"]),
        "core.validate_trace.s": s["core.validate_trace"],
        "core.validate_trace.events_per_s": rate(c["validated_events"],
                                                 s["core.validate_trace"]),
        "core.write.s": s["core.write"],
        "core.write.mb_per_s": rate(c["write_bytes"] / 1e6, s["core.write"]),
        "core.read.s": s["core.read"],
        "core.read.events_per_s": rate(c["read_events"], s["core.read"]),
        "core.file_mb": c["write_bytes"] / 1e6,
        "metrics.channel_cycle_time.s": s["metrics.channel_cycle_time"],
        "metrics.channel_cycle_time.successes_per_s":
            rate(c["cct_successes"], s["metrics.channel_cycle_time"]),
        "metrics.cycles": c["cycles"],
        "metrics.inter_transmission_report.s":
            s["metrics.inter_transmission_report"],
        "metrics.throughput.s": s["metrics.throughput"],
        "analytic.csma_cct.s": s["analytic.csma_cct"],
        "analytic.aloha_cct.s": s["analytic.aloha_cct"],
        "analytic.tdma_cct.s": s["analytic.tdma_cct"],
        "analytic.calls": sum(n for name, n in spans.items()
                              if name.startswith("analytic.")),
        "analytic.fixed_point_iterations": c["fixed_point_iterations"],
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.output_bytes": cli_output_bytes,
    }


# -- reference kernels --------------------------------------------------------

def interp_kernel() -> float:
    """Pure-Python arithmetic, then numpy scalar draws one call at a time."""
    s = 0
    for i in range(800_000):
        s += i * i % 7
    rng = np.random.default_rng(1)
    a = 0.0
    for _ in range(20_000):
        a += float(rng.random()) + np.minimum(1, 2)
    return s + a


def array_kernel() -> float:
    """Large-array numpy work: sorts and cumulative sums of 2e6 floats.

    The array is made and freed inside the kernel, so it never adds to the
    program's peak memory.
    """
    x = np.random.default_rng(0).random(2_000_000)
    t = 0.0
    for _ in range(9):
        t += np.sort(x[:700_000])[-1] + np.cumsum(x)[-1]
    return t


KERNELS = {"interp": interp_kernel, "array": array_kernel}


def kernel_time(kernel: Callable[[], float]) -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def scaled(raw: list[float], ref: list[float]) -> list[float]:
    """raw[i] at reference speed; ref[i] and ref[i+1] were timed around it."""
    return [r * REF_SECONDS / ((a + b) / 2) for r, a, b in zip(raw, ref, ref[1:])]


# -- workloads -----------------------------------------------------------------

@dataclass
class Workload:
    argv: list[str]
    check: Callable[[str], None]          # raises CheckFailed on wrong output
    before_cli: Callable[[], None] = lambda: None   # per-pass work outside the CLI
    verify_calls: Callable[[list], None] = lambda calls: None
    cleanup: Callable[[], None] = lambda: None
    keep: frozenset = frozenset()   # layers whose full results verify_calls reads
    kernel: str = "interp"          # reference kernel that scales its timings


def _kv(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key:
            pairs.setdefault(key, value)
    return pairs


def _close(text: str, value: float) -> bool:
    return abs(float(text) - value) <= PRINT_TOL


def make_simulate_aloha(seed: int, size: dict) -> Workload:
    argv = ["simulate", "--protocol", "aloha", "--pa", "0.5", "--pb", "0.5",
            "--slots", str(size["slots"]), "--seed", str(seed)]
    ref = {}

    def verify_calls(calls):
        sims = [c for c in calls if c.name == "sim.simulate_aloha"]
        ccts = [c for c in calls if c.name == "metrics.channel_cycle_time"]
        if len(sims) != 1 or len(ccts) != 1:
            raise CheckFailed("expected one simulate_aloha and one cycle search")
        ref["events"] = sims[0].counts["events"]
        ref["psi"] = float(ccts[0].row[1])

    def check(out):
        kv = _kv(out)
        if kv.get("psi_undefined") != "false" or "psi_slots" not in kv:
            raise CheckFailed("psi undefined")
        psi = float(kv["psi_slots"])
        if abs(psi - ALOHA_PSI) / ALOHA_PSI > ALOHA_TOL:
            raise CheckFailed(f"psi {psi} not within 2% of {ALOHA_PSI}")
        if ref and (int(kv["events"]) != ref["events"]
                    or not _close(kv["psi_slots"], ref["psi"])):
            raise CheckFailed("printed events/psi differ from the traced run")

    return Workload(argv, check, verify_calls=verify_calls, kernel="array")


def make_sweep_pkt(seed: int, size: dict) -> Workload:
    argv = ["sweep", "--protocols", "tdma,csma-rtscts,csma-basic,aloha",
            "--pkt-range", size["pkt_range"], "--reps", str(size["reps"]),
            "--slots", str(size["slots"]), "--seed", str(seed)]
    lo, hi, step = (int(x) for x in size["pkt_range"].split(":"))
    n_rows = 4 * len(range(lo, hi + 1, step))

    def verify_calls(calls):
        n_sims = sum(1 for c in calls if c.name.startswith("sim."))
        n_cct = sum(1 for c in calls if c.name == "metrics.channel_cycle_time")
        if n_sims != n_rows * size["reps"] or n_cct != n_sims:
            raise CheckFailed(f"{n_sims} simulations, {n_cct} cycle searches; "
                              f"expected {n_rows * size['reps']}")

    def check(out):
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != n_rows:
            raise CheckFailed(f"{len(rows)} sweep rows, expected {n_rows}")
        for row in rows:
            ana = float(row["psi_analytic_slots"])
            sim = float(row["psi_sim_mean_slots"])
            where = f"row x={row['x']} {row['protocol']}"
            if math.isnan(sim) or math.isnan(ana):
                raise CheckFailed(f"{where}: nan")
            if row["protocol"] == "tdma" and sim != ana:
                raise CheckFailed(f"{where}: tdma {sim} != {ana}")
            if abs(sim - ana) / ana > SWEEP_TOL:
                raise CheckFailed(f"{where}: {sim} not within 5% of {ana}")

    return Workload(argv, check, verify_calls=verify_calls)


def nuser_trace(seed: int, n_events: int, n_users: int):
    """Seeded synthetic trace: contiguous success/collision/idle events.

    Success shares are unequal, so a frequent user's cycles skip refresh
    moments while waiting for the rare users.
    """
    from macfair.core import (COLLISION_CODE, IDLE_CODE, SUCCESS_CODE,
                              ChannelTrace)
    rng = np.random.default_rng(seed)
    share = np.array([0.4, 0.25, 0.17, 0.11, 0.07][:n_users])
    share = share / share.sum()
    kinds = rng.choice(np.array([SUCCESS_CODE, COLLISION_CODE, IDLE_CODE],
                                np.int8), size=n_events, p=[0.6, 0.1, 0.3])
    winner = rng.choice(n_users, size=n_events, p=share)
    first = rng.integers(0, n_users, n_events)
    second = (first + rng.integers(1, n_users, n_events)) % n_users
    masks = np.where(kinds == SUCCESS_CODE, 1 << winner,
                     np.where(kinds == COLLISION_CODE,
                              (1 << first) | (1 << second), 0))
    lengths = np.where(kinds == SUCCESS_CODE, rng.integers(20, 41, n_events),
                       np.where(kinds == COLLISION_CODE,
                                rng.integers(5, 16, n_events),
                                rng.integers(1, 21, n_events)))
    ends = np.cumsum(lengths)
    users = tuple("U" + str(i) for i in range(n_users))
    return ChannelTrace(users, ends - lengths, ends, kinds, masks, int(ends[-1]))


def nuser_oracle(trace) -> dict:
    """Cycle samples, psi and pooled inter-transmission pmf, computed here.

    Cycle rule: from refresh position g of user u, take each other user's
    next success after g; the cycle closes at u's first refresh position
    beyond the latest of those.  This is a different algorithm from the
    program's sliding window, so agreement is a real check.
    """
    from macfair.core import SUCCESS_CODE
    hit = trace.kinds == SUCCESS_CODE
    ends = trace.ends[hit]
    who = np.log2(trace.masks[hit]).astype(np.int64)
    n = len(trace.users)
    samples, gaps = [], []
    for u in range(n):
        pos = np.flatnonzero((who[:-1] == u) & (who[1:] != u))
        q = np.full(len(pos), -1, np.int64)
        ok = np.ones(len(pos), bool)
        for v in range(n):
            if v == u:
                continue
            occ = np.flatnonzero(who == v)
            if len(occ) == 0:
                ok[:] = False
                continue
            k = np.searchsorted(occ, pos, "right")
            ok &= k < len(occ)
            q = np.maximum(q, occ[np.minimum(k, len(occ) - 1)])
        close = np.searchsorted(pos, q, "right")
        ok &= close < len(pos)
        samples.append(ends[pos[close[ok]]] - ends[pos[ok]])
        mine = np.flatnonzero(who == u)
        gaps.append(np.diff(mine) - 1 if len(mine) >= 2
                    else np.empty(0, np.int64))
    pooled = np.concatenate(gaps)
    freq = np.bincount(pooled)
    pmf = {int(k): float(c) / len(pooled) for k, c in enumerate(freq) if c}
    psi = float(np.mean([s.mean() for s in samples]))
    return {"samples": samples, "psi": psi, "pmf": pmf}


def make_analyze_nuser(seed: int, size: dict, pinned: dict | None) -> Workload:
    trace = nuser_trace(seed, size["events"], size["users"])
    want = nuser_oracle(trace)
    if pinned is not None and (want["psi"] != pinned["psi"] or want["pmf"] != {
            int(k): v for k, v in pinned["intertx_pmf"].items()}):
        raise CheckFailed("generator or oracle no longer gives the pinned "
                          "psi and pmf for this seed")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"nuser-{seed}-{os.getpid()}.csv"
    users = trace.users

    def verify_calls(calls):
        def results(name):
            return [c.result for c in calls if c.name == name]
        reads = results("core.read")
        ccts = results("metrics.channel_cycle_time")
        inters = results("metrics.inter_transmission_report")
        if len(reads) != 1 or reads[0] != trace:
            raise CheckFailed("read-back trace differs from the written one")
        if len(ccts) != 1 or ccts[0].psi_slots != want["psi"]:
            raise CheckFailed("psi differs from the oracle")
        for u, s in zip(users, want["samples"]):
            if not np.array_equal(ccts[0].per_user_samples[u], s):
                raise CheckFailed(f"cycle samples of {u} differ from the oracle")
        if len(inters) != 1 or inters[0].pooled_pmf != want["pmf"]:
            raise CheckFailed("inter-transmission pmf differs from the oracle")

    def check(out):
        kv = _kv(out)
        if not _close(kv["psi_slots"], want["psi"]):
            raise CheckFailed(f"psi {kv['psi_slots']} != {want['psi']}")
        printed = {}
        for line in out.splitlines():
            if line.startswith("user="):
                label, _, rest = line[len("user="):].partition(" cycle_samples=")
                printed[label] = rest
        for u, s in zip(users, want["samples"]):
            got = printed.get(u)
            if got is None or not np.array_equal(
                    np.array(got.split(",") if got else [], np.int64), s):
                raise CheckFailed(f"printed cycle samples of {u} are wrong")
        pmf = dict(item.split(":") for item in kv["intertx_pmf"].split(","))
        if (sorted(int(k) for k in pmf) != sorted(want["pmf"])
                or not all(_close(v, want["pmf"][int(k)])
                           for k, v in pmf.items())):
            raise CheckFailed("printed inter-transmission pmf is wrong")

    return Workload(["analyze", str(path)], check,
                    before_cli=lambda: trace.to_file(str(path)),
                    verify_calls=verify_calls,
                    cleanup=lambda: path.unlink(missing_ok=True),
                    keep=frozenset({"core.read", "metrics.channel_cycle_time",
                                    "metrics.inter_transmission_report"}))


# -- running passes ------------------------------------------------------------

@dataclass
class PassResult:
    wall: float
    out: str
    error: str | None


def run_pass(macfair, wl: Workload, rec: SpanRecorder | None = None) -> PassResult:
    """One closed-loop operation: optional pre-CLI work, then `macfair main`."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if rec is None:
                wl.before_cli()
                code = macfair.cli.main(wl.argv)
            else:
                with rec.span("pass"):
                    wl.before_cli()
                    with rec.span("cli"):
                        code = macfair.cli.main(wl.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed operation is counted, not fatal
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[:300]}"
    return PassResult(wall, out.getvalue(), error)


class Runner:
    def __init__(self, macfair, wl: Workload):
        self.macfair = macfair
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []
        self.first_out: str | None = None

    def judge(self, res: PassResult, extra: Callable[[], None] = lambda: None) -> bool:
        self.attempted += 1
        error = res.error
        if error is None:
            try:
                extra()
                self.wl.check(res.out)
                if self.first_out is not None and res.out != self.first_out:
                    raise CheckFailed("output differs from the first pass")
            except (CheckFailed, KeyError, ValueError) as exc:
                error = f"wrong result: {exc}"
        if error is not None:
            self.failures.append(error)
            return False
        if self.first_out is None:
            self.first_out = res.out
        return True

    def plain(self) -> PassResult:
        res = run_pass(self.macfair, self.wl)
        self.judge(res)
        return res

    def traced(self, rec: SpanRecorder, expect: tuple[Counter, list] | None = None
               ) -> tuple[PassResult, Counter, list]:
        calls: list[Call] = []
        with instrumented(rec, calls, self.wl.keep):
            res = run_pass(self.macfair, self.wl, rec)
        counts, record = pass_counts(calls)

        def verify():
            self.wl.verify_calls(calls)
            if expect is not None and (counts, record) != expect:
                raise CheckFailed("exact counts differ from the first pass")
        self.judge(res, verify)
        return res, counts, record


def setup_once() -> float:
    """Fresh-process `import macfair` plus building the CLI parser, in seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    k = len(values) - 10
    if k < 1:
        return None
    return math.floor(100 * k / len(values)), sorted(values)[k - 1]


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, macfair) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "macfair": getattr(macfair, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": SIZES[args.size],
    }


def make_workload(name: str, seed: int, size_name: str) -> Workload:
    size = SIZES[size_name][name]
    if name == "simulate-aloha":
        return make_simulate_aloha(seed, size)
    if name == "sweep-pkt":
        return make_sweep_pkt(seed, size)
    pinned = None
    if size_name == "full" and PINNED.exists():
        pinned = json.loads(PINNED.read_text()).get(str(seed))
    return make_analyze_nuser(seed, size, pinned)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)
    spec = json.loads(SPEC_FILE.read_text())
    macfair = _import_program()
    wl = make_workload(args.workload, args.seed, args.size)
    runner = Runner(macfair, wl)
    rec = SpanRecorder()
    kernel = KERNELS[wl.kernel]
    setup: list[float] = []
    setup_ref: list[float] = []
    plain_walls: list[float] = []
    pass_ref: list[float] = []
    traced_walls: list[float] = []
    per_pass_layers: list[dict] = []
    layer_sums: list[float] = []
    try:
        # The first pass runs traced: it warms up and yields the exact counts
        # (events, slots, psi, ...) that every later pass must reproduce.
        rec.pass_id = 0
        first, counts, exact = runner.traced(rec)
        start = time.perf_counter()
        deadline = start + args.seconds
        if args.trace == 0:
            # Fresh-process set-up samples, each between two kernel timings.
            kernel_time(interp_kernel)
            setup_ref.append(kernel_time(interp_kernel))
            for _ in range(SETUP_REPS):
                setup.append(setup_once())
                setup_ref.append(kernel_time(interp_kernel))
            kernel_time(kernel)
            pass_ref.append(kernel_time(kernel))
        last = first.wall
        while True:
            n_done = len(plain_walls) + len(traced_walls)
            if (n_done >= MIN_PASSES * (1 + args.trace)
                    and time.perf_counter() + last > deadline):
                break
            t_iter = time.perf_counter()
            if args.trace and len(traced_walls) < len(plain_walls):
                rec.pass_id += 1
                res, c, _ = runner.traced(rec, expect=(counts, exact))
                self_s, spans = rec.self_times(rec.pass_id)
                per_pass_layers.append(layer_metrics(
                    self_s, spans, c, len(res.out.encode())))
                layer_sums.append(sum(v for k, v in self_s.items() if k != "pass"))
                traced_walls.append(res.wall)
            else:
                plain_walls.append(runner.plain().wall)
                if args.trace == 0:
                    pass_ref.append(kernel_time(kernel))
            last = time.perf_counter() - t_iter
    finally:
        wl.cleanup()

    failed = len(runner.failures)
    record = run_record(args, macfair)
    record.update(attempted=runner.attempted,
                  failed=failed, failures=runner.failures[:20],
                  exact_counts=dict(counts), exact_calls=exact,
                  plain_walls=plain_walls, traced_walls=traced_walls)
    lines = []
    if args.trace == 0:
        walls = scaled(plain_walls, pass_ref)
        setups = scaled(setup, setup_ref)
        rates = {key: [counts[key] / w for w in walls]
                 for key in ("slots", "events")}
        values = {
            "wall_s": statistics.median(walls),
            "slots_per_s": statistics.median(rates["slots"]),
            "events_per_s": statistics.median(rates["events"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            * 1024 / 1e6,
        }
        record.update(kernel=wl.kernel, ref_seconds=REF_SECONDS,
                      pass_kernel_s=pass_ref, scaled_walls=walls,
                      setup_samples=setup, setup_kernel_s=setup_ref,
                      scaled_setup_samples=setups)
        for name, samples in (("wall_s", walls), ("raw wall", plain_walls),
                              ("setup_s", setups), ("raw setup", setup)):
            t = tail(samples)
            lines.append(f"{name}: median {statistics.median(samples):.6g} s, "
                         + (f"p{t[0]} {t[1]:.6g} s, " if t else
                            "no percentile with 10 samples beyond it, ")
                         + f"n={len(samples)}")
        lines.append(f"{wl.kernel} kernel: median "
                     f"{statistics.median(pass_ref):.6g} s (nominal "
                     f"{REF_SECONDS} s); interp kernel around set-up: median "
                     f"{statistics.median(setup_ref):.6g} s")
    else:
        values = {key: statistics.median(p[key] for p in per_pass_layers)
                  for key in per_pass_layers[0]}
        overhead = (statistics.median(traced_walls)
                    - statistics.median(plain_walls))
        values["trace.overhead_s"] = overhead
        record.update(traced_wall_s=statistics.median(traced_walls),
                      layer_self_sum_s=statistics.median(layer_sums),
                      per_pass_layers=per_pass_layers, spans=rec.spans)
        lines.append(f"traced wall_s {record['traced_wall_s']:.6g} s, layer "
                     f"self times + cli.self_s {record['layer_self_sum_s']:.6g} s,"
                     f" trace.overhead_s {overhead:.6g} s")
    # Exactly the metrics BENCHMARK.json names, in its order and units.
    record["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]}
    lines.append(f"failed_frac: {failed / runner.attempted:.6g} "
                 f"({failed}/{runner.attempted})")
    for msg in runner.failures[:5]:
        lines.append(f"FAILED: {msg}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
