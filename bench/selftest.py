"""Self-test for the benchmark harness, at tiny sizes (a few seconds per run).

    python3 bench/selftest.py

Runs every workload once untraced and once traced and checks that:
  - the last stdout line is the result object, every pass was correct
    (failed_frac 0) and every metric BENCHMARK.json names is emitted with
    its unit;
  - in the traced run, every layer the workload is known to call has spans,
    cli.self_s is at most a quarter of the CLI span (so the layers, not the
    CLI remainder, hold the time), and the layer self times plus cli.self_s
    add up to the traced wall time, within trace.overhead_s (or 1 ms,
    whichever is larger: the overhead is a difference of two noisy medians);
  - in a directory that holds only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.
Not collected by pytest: it is a harness check, not a test of the program.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The layer functions each workload's CLI command calls.
EXPECTED_SPANS = {
    "simulate-aloha": {"sim.simulate_aloha", "core.validate_trace",
                       "metrics.channel_cycle_time", "metrics.throughput"},
    "sweep-pkt": {"sim.simulate_csma", "sim.simulate_aloha", "sim.simulate_tdma",
                  "metrics.channel_cycle_time", "analytic.csma_cct",
                  "analytic.aloha_cct", "analytic.tdma_cct"},
    "analyze-nuser": {"core.write", "core.read", "core.validate_trace",
                      "metrics.channel_cycle_time",
                      "metrics.inter_transmission_report", "metrics.throughput"},
}
CLI_SELF_SHARE = 0.25


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: failed_frac {result['failed']}/"
                      f"{result['attempted']}: " + "; ".join(
                          l for l in lines if l.startswith("FAILED")))
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        errors.append(f"{where}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        entry = got.get(m["name"])
        if entry is not None and (entry.get("unit") != m["unit"]
                                  or not isinstance(entry.get("value"),
                                                    (int, float))):
            errors.append(f"{where}: {m['name']} = {entry}, unit {m['unit']}")
    if trace:
        record_line = next(l for l in lines if l.startswith("record: "))
        record = json.loads((ROOT / record_line[len("record: "):]).read_text())
        spans = [sp for sp in record["spans"] if sp[0] == 1]
        missing = EXPECTED_SPANS[workload] - {sp[1] for sp in spans}
        if missing:
            errors.append(f"{where}: no spans for {sorted(missing)}")
        cli_span = sum(sp[3] - sp[2] for sp in spans if sp[1] == "cli")
        cli_self = sum(p["cli.self_s"] for p in record["per_pass_layers"][:1])
        if not 0 < cli_self <= CLI_SELF_SHARE * cli_span:
            errors.append(f"{where}: cli.self_s {cli_self:.6f} s of a "
                          f"{cli_span:.6f} s CLI span")
        gap = abs(record["traced_wall_s"] - record["layer_self_sum_s"])
        allowed = max(abs(got["trace.overhead_s"]["value"]), 1e-3)
        if gap > allowed:
            errors.append(f"{where}: layer self times miss the traced wall "
                          f"time by {gap:.6f} s (allowed {allowed:.6f} s)")
    return errors


def check_bare() -> list[str]:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    try:
        proc = run(bare, "simulate-aloha", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the benchmark did not fail"]
    return []


def main() -> int:
    errors = []
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            errors += check_run(w["name"], trace)
    errors += check_bare()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
