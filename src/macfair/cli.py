"""Command-line front end: simulate traces, analyze trace files, evaluate the
closed forms, and sweep a parameter axis comparing simulation against theory.

Exit codes: 0 success, 1 validation or domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import analytic, metrics
from .core import (
    MICROS_PER_SLOT,
    AlohaParams,
    ChannelTrace,
    CsmaMode,
    CsmaParams,
    TraceError,
    UnitError,
    slots_to_us,
    us_to_slots,
)
from .sim import SimConfig, simulate_aloha, simulate_csma, simulate_tdma, write_audit

_DURATION_RE = re.compile(r"^(\d+)(us)?$")


def parse_duration(text: str, micros_per_slot: int) -> int:
    """A duration flag: plain slots, or microseconds with a `us` suffix."""
    m = _DURATION_RE.match(text.strip())
    if not m:
        raise TraceError(f"bad duration {text!r}; use slots or <n>us")
    value = int(m.group(1))
    if m.group(2):
        return us_to_slots(value, micros_per_slot)
    return value


_CSMA_MODES = {"csma-rtscts": CsmaMode.RTS_CTS, "csma-basic": CsmaMode.BASIC}
_PROTOCOLS = ("aloha", *_CSMA_MODES, "tdma")


def _build_params(protocol: str, args):
    """One protocol's parameters from the flags: AlohaParams, CsmaParams, or
    the list of TDMA packet lengths."""
    mps = args.micros_per_slot
    if protocol == "aloha":
        return AlohaParams(args.pa, args.pb, parse_duration(args.slot, mps))
    if protocol == "tdma":
        return [parse_duration(part, mps) for part in args.lengths.split(",")]
    return CsmaParams(
        cw_min=args.cw_min,
        beta=args.beta,
        l_difs=parse_duration(args.difs, mps),
        l_pkt=parse_duration(args.pkt, mps),
        l_ack=parse_duration(args.ack, mps),
        l_rts=parse_duration(args.rts, mps),
        l_cts=parse_duration(args.cts, mps),
    )


def _simulate(protocol: str, params, config: SimConfig, audit: bool = False):
    """Run the protocol's simulator: (trace, CSMA audit log or None)."""
    if protocol == "aloha":
        return simulate_aloha(params, config), None
    if protocol == "tdma":
        return simulate_tdma(params, config), None
    result = simulate_csma(params, config, _CSMA_MODES[protocol], audit=audit)
    return result if audit else (result, None)


def _predict(protocol: str, params, args) -> analytic.AnalyticCct:
    """The protocol's closed-form cycle time."""
    if protocol == "aloha":
        return analytic.aloha_cct(params)
    if protocol == "tdma":
        return analytic.AnalyticCct(analytic.tdma_cct(params),
                                    analytic.CctMode.TDMA_ROUND_ROBIN,
                                    analytic.CctComponents())
    return analytic.csma_cct(params, p_ni0=args.p_ni0, e_ni=args.e_ni,
                             mode=_CSMA_MODES[protocol], p_c=args.p_c)


def _add_csma_flags(sp, require_pkt: bool = True) -> None:
    sp.add_argument("--cw-min", type=int, default=32)
    sp.add_argument("--beta", type=int, default=5)
    sp.add_argument("--difs", default="4", help="slots or <n>us")
    if require_pkt:
        sp.add_argument("--pkt", required=True, help="slots or <n>us")
    sp.add_argument("--ack", default="1")
    sp.add_argument("--rts", default="1")
    sp.add_argument("--cts", default="1")


def cmd_simulate(args) -> int:
    mps = args.micros_per_slot
    if args.audit_out and args.protocol not in _CSMA_MODES:
        raise TraceError("--audit-out applies to CSMA only")
    users = tuple(args.users.split(","))
    config = SimConfig(seed=args.seed, horizon=args.slots, users=users,
                       warmup=args.warmup)
    params = _build_params(args.protocol, args)
    trace, audit_rec = _simulate(args.protocol, params, config,
                                 audit=bool(args.audit_out))
    # Every figure before any file or output, so that an error leaves none.
    report = metrics.channel_cycle_time(trace)
    busy = metrics.throughput(trace)
    if args.out:
        trace.to_file(args.out)
    if audit_rec is not None:
        with open(args.audit_out, "w") as fp:
            write_audit(audit_rec, fp)
    psi = "nan" if report.psi_slots is None else f"{report.psi_slots:.6f}"
    psi_us = "nan" if report.psi_slots is None \
        else f"{report.psi_slots * mps:.6f}"
    print(f"psi_slots={psi}")
    print(f"psi_undefined={'true' if report.psi_undefined else 'false'}")
    print(f"psi_us={psi_us}")
    print(f"throughput={busy:.6f}")
    print(f"events={len(trace)}")
    if args.out:
        print(f"trace={args.out}")
    if args.audit_out:
        print(f"audit={args.audit_out}")
    return 0


def cmd_analyze(args) -> int:
    trace = ChannelTrace.from_file(args.trace)
    cycles = metrics.channel_cycle_time(trace)
    intertx = metrics.inter_transmission_report(trace)
    # Every figure before any output, so that an error leaves stdout empty.
    busy = metrics.throughput(trace)
    if args.json:
        blob = cycles.as_dict()
        inter = intertx.as_dict()
        blob["intertx_pmf"] = inter["intertx_pmf"]
        blob["intertx_mean"] = inter["intertx_mean"]
        blob["intertx_users"] = inter["users"]
        blob["throughput"] = busy
        print(json.dumps(blob, indent=2, sort_keys=True))
        return 0
    # One write: stdout encodes the whole text before it writes any of it,
    # so a label its encoding cannot hold leaves stdout empty.
    sys.stdout.write(f"{cycles.to_text()}{intertx.to_text()}"
                     f"throughput={busy:.6f}\n")
    return 0


def cmd_analytic(args) -> int:
    protocol = f"csma-{args.mode}" if args.family == "csma" else args.family
    result = _predict(protocol, _build_params(protocol, args), args)
    psi_us = slots_to_us(1, args.micros_per_slot) * result.psi_slots
    print(f"psi_slots={result.psi_slots:.6f}")
    print(f"psi_us={psi_us:.6f}")
    print(f"mode={result.mode.value}")
    c = result.components
    for name in ("p_c", "mu", "part1_mean", "part2_mean", "p_ni0", "e_ni"):
        value = getattr(c, name)
        if value is not None:
            print(f"{name}={value:.6f}")
    if c.p_c_iterations is not None:  # the fixed point was solved here
        print(f"p_c_residual={c.p_c_residual:.3e}")
        print(f"p_c_iterations={c.p_c_iterations}")
    return 0


def _parse_range(text: str, integer: bool) -> list:
    try:
        lo_s, hi_s, step_s = text.split(":")
        if integer:
            lo, hi, step = int(lo_s), int(hi_s), int(step_s)
            if step <= 0:
                raise ValueError
            values = list(range(lo, hi + 1, step))
        else:
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
            if step <= 0:
                raise ValueError
            values = [float(v) for v in
                      np.round(np.arange(lo, hi + step / 2, step), 10)]
    except ValueError:
        raise TraceError(f"bad range {text!r}; use lo:hi:step") from None
    if not values:
        raise TraceError(f"range {text!r} has no values")
    return values


def _t_coverage(theta: float, df: int) -> float:
    """P(|T| <= sqrt(df) tan(theta)) for Student's t with integer df >= 1:
    the finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df)."""
    if df == 1:
        return 2.0 * theta / math.pi
    c2 = math.cos(theta) ** 2
    term = total = 1.0
    if df % 2:
        for k in range(1, (df - 1) // 2):
            term *= c2 * (2 * k) / (2 * k + 1)
            total += term
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)
    for k in range(1, df // 2):
        term *= c2 * (2 * k - 1) / (2 * k)
        total += term
    return math.sin(theta) * total


def _t_quantile(q: float, df: int) -> float:
    """Quantile q in [0.5, 1) of Student's t with integer df >= 1.

    Newton's method on theta = atan(t / sqrt(df)) over `_t_coverage`, whose
    derivative is 2 Gamma((df+1)/2) / (sqrt(pi) Gamma(df/2)) cos(theta)^(df-1).
    The coverage is concave in theta, so the iterates rise to the root from
    theta = 0 without overshooting.
    """
    target = 2.0 * q - 1.0
    scale = 2.0 * math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) \
        / math.sqrt(math.pi)
    theta = 0.0
    for _ in range(200):
        step = ((target - _t_coverage(theta, df))
                / (scale * math.cos(theta) ** (df - 1)))
        theta += step
        if step <= 1e-15 * theta:
            break
    return math.sqrt(df) * math.tan(theta)


def _run_seed(base: int, point: int, rep: int) -> int:
    ss = np.random.SeedSequence(entropy=(base, point, rep))
    return int(ss.generate_state(1, np.uint64)[0])


def cmd_sweep(args) -> int:
    protocols = args.protocols.split(",")
    for p in protocols:
        if p not in _PROTOCOLS:
            raise TraceError(f"unknown protocol {p!r}")
    if args.reps < 1:
        raise TraceError("--reps must be at least 1")
    if args.seed < 0:
        raise TraceError("seed must be non-negative")
    if sum(bool(a) for a in (args.pkt_range, args.p_range, args.cw_range)) != 1:
        raise TraceError("exactly one of --pkt-range, --p-range, --cw-range "
                         "is required")
    # Each point overrides flag values: a packet length is the Aloha slot, the
    # CSMA packet and both TDMA lengths.
    if args.pkt_range:
        points = [(str(v), {"slot": str(v), "pkt": str(v),
                            "lengths": f"{v},{v}"})
                  for v in _parse_range(args.pkt_range, integer=True)]
    elif args.p_range:
        if set(protocols) - {"aloha"}:
            raise TraceError("--p-range sweeps apply to aloha only")
        grid = _parse_range(args.p_range, integer=False)
        points = [(f"{pa:g}/{pb:g}", {"pa": pa, "pb": pb})
                  for pa in grid for pb in grid]
    else:
        if set(protocols) - set(_CSMA_MODES):
            raise TraceError("--cw-range sweeps apply to CSMA only")
        points = [(str(v), {"cw_min": v})
                  for v in _parse_range(args.cw_range, integer=True)]
    rows = ["x,protocol,psi_analytic_slots,psi_sim_mean_slots,psi_sim_ci95,"
            "n_ok"]
    for pi, (label, flags) in enumerate(points):
        point_args = argparse.Namespace(**{**vars(args), **flags})
        for protocol in protocols:
            params = _build_params(protocol, point_args)
            psi_a = _predict(protocol, params, args).psi_slots
            samples = []
            for rep in range(args.reps):
                config = SimConfig(seed=_run_seed(args.seed, pi, rep),
                                   horizon=args.slots, warmup=args.warmup)
                # No name holds the trace, so it is freed before the next rep.
                psi = metrics.channel_cycle_time(
                    _simulate(protocol, params, config)[0]).psi_slots
                if psi is not None:
                    samples.append(psi)
            n = len(samples)
            # np.mean of no samples warns, so nan is set here instead.
            mean = float(np.mean(samples)) if n else math.nan
            # Student-t half-width: the reps' own spread, n - 1 d.o.f.
            ci = (_t_quantile(0.975, n - 1)
                  * float(np.std(samples, ddof=1)) / math.sqrt(n)
                  if n > 1 else math.nan)
            rows.append(f"{label},{protocol},{psi_a:.6f},{mean:.6f},"
                        f"{ci:.6f},{n}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text)
        print(f"sweep={args.out} points={len(points)} protocols={len(protocols)}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macfair", allow_abbrev=False,
        description="Short-term fairness lab: cycle-time metrics, closed forms, "
                    "and slot-level MAC simulators.")
    parser.add_argument("--micros-per-slot", type=int, default=MICROS_PER_SLOT)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", allow_abbrev=False,
                         help="run a simulator and report cycle times")
    sim.add_argument("--protocol", required=True, choices=_PROTOCOLS)
    sim.add_argument("--slots", type=int, required=True, help="trace horizon")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--warmup", type=int, default=1000)
    sim.add_argument("--users", default="A,B")
    sim.add_argument("--out", help="write the trace to this file")
    sim.add_argument("--audit-out", help="write the CSMA round audit log")
    sim.add_argument("--pa", type=float, default=0.5)
    sim.add_argument("--pb", type=float, default=0.5)
    sim.add_argument("--slot", default="1", help="Aloha slot length")
    sim.add_argument("--lengths", default="30,30", help="TDMA packet lengths")
    _add_csma_flags(sim, require_pkt=False)
    sim.add_argument("--pkt", default="30", help="slots or <n>us")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", allow_abbrev=False,
                         help="report metrics for a trace file")
    ana.add_argument("trace")
    ana.add_argument("--json", action="store_true")
    ana.set_defaults(func=cmd_analyze)

    an = sub.add_parser("analytic", allow_abbrev=False,
                        help="evaluate a closed-form cycle time")
    fam = an.add_subparsers(dest="family", required=True)
    al = fam.add_parser("aloha", allow_abbrev=False)
    al.add_argument("--pa", type=float, required=True)
    al.add_argument("--pb", type=float, required=True)
    al.add_argument("--slot", default="1")
    cs = fam.add_parser("csma", allow_abbrev=False)
    cs.add_argument("--mode", choices=sorted(m.value for m in CsmaMode),
                    default="rtscts")
    cs.add_argument("--p-ni0", type=float, default=analytic.DEFAULT_P_NI0)
    cs.add_argument("--e-ni", type=float, default=1.0)
    cs.add_argument("--p-c", type=float, default=None,
                    help="override the fixed-point collision probability")
    _add_csma_flags(cs)
    td = fam.add_parser("tdma", allow_abbrev=False)
    td.add_argument("--lengths", required=True)
    an.set_defaults(func=cmd_analytic)

    sw = sub.add_parser("sweep", allow_abbrev=False,
                        help="simulation vs theory along one axis")
    sw.add_argument("--protocols", default="tdma,csma-rtscts,csma-basic,aloha")
    sw.add_argument("--pkt-range", help="lo:hi:step in slots")
    sw.add_argument("--p-range", help="lo:hi:step transmit probability grid")
    sw.add_argument("--cw-range", help="lo:hi:step contention windows")
    sw.add_argument("--slots", type=int, default=200_000)
    sw.add_argument("--reps", type=int, default=3)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--warmup", type=int, default=1000)
    sw.add_argument("--out", help="write CSV here instead of stdout")
    sw.add_argument("--pa", type=float, default=0.5)
    sw.add_argument("--pb", type=float, default=0.5)
    sw.add_argument("--slot", default="1")
    sw.add_argument("--p-ni0", type=float, default=analytic.DEFAULT_P_NI0)
    sw.add_argument("--e-ni", type=float, default=1.0)
    _add_csma_flags(sw, require_pkt=False)
    sw.add_argument("--pkt", default="30")
    # No --p-c here: every sweep point solves the fixed point.
    sw.set_defaults(func=cmd_sweep, p_c=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.micros_per_slot <= 0:
            raise UnitError("micros_per_slot must be positive")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`macfair analyze t.csv | head`); the flush
        # above brings that out before exit.  Point the descriptor at devnull
        # so the interpreter's own flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except UnicodeEncodeError as exc:
        print(f"error: stdout encoding {sys.stdout.encoding!r} cannot write "
              f"the output: {exc}", file=sys.stderr)
        return 1
    except (TraceError, analytic.AnalyticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
