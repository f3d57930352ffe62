"""Slot-level simulators for two-user slotted Aloha, two-user CSMA/CA, and
round-robin TDMA, all emitting validated channel traces.

Determinism contract: identical parameters and SimConfig produce bit-identical
traces.  Each user draws from its own child stream of the run seed, so one
user's consumption never perturbs another's.  CSMA/CA backoffs are taken from
blocks of raw 32-bit words and mapped exactly as `Generator.integers(1, cw + 1)`
maps them, so every backoff equals the value of one such call per draw.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from . import metrics
from .core import (
    COLLISION_CODE,
    IDLE_CODE,
    SUCCESS_CODE,
    AlohaParams,
    ChannelTrace,
    CsmaMode,
    CsmaParams,
    TraceError,
)

COLLISION_OUTCOME = -1

# Backoff draws are served from blocks of this many raw 32-bit words per user.
BLOCK = 1024
_WORD = 1 << 32


def _backoff_draw(rng: np.random.Generator):
    """Return draw(cw), giving what `rng.integers(1, cw + 1)` would, call by call.

    numpy draws a window of cw <= 2**32 from 32-bit words with Lemire's
    multiply-shift map, `1 + (x * cw >> 32)`, rejecting a word whose low half
    falls below `(2**32 - cw) % cw`, and spends no word when cw is 1.  That
    call and the block fill `integers(0, 2**32, BLOCK, dtype=np.uint64)` read
    the same buffered 32-bit stream, so taking words in blocks changes no value
    drawn.  This leans on numpy's bounded-integer algorithm, which
    tests/test_sim.py::TestBackoffDraw checks against the numpy in use.
    """
    words: list[int] = []
    pos = 0

    def draw(cw: int) -> int:
        nonlocal words, pos
        if cw == 1:
            return 1
        reject = (_WORD - cw) % cw
        while True:
            if pos == len(words):
                words = rng.integers(0, _WORD, BLOCK, dtype=np.uint64).tolist()
                pos = 0
            m = words[pos] * cw
            pos += 1
            if m & 0xFFFFFFFF >= reject:
                return 1 + (m >> 32)

    return draw


@dataclass(frozen=True)
class SimConfig:
    """Run-level knobs shared by all simulators.

    `horizon` is the length of the emitted trace in ticks; `warmup` ticks are
    simulated first and discarded, so recorded state is past the cold start.
    Events straddling either boundary are dropped, never clipped.
    """

    seed: int
    horizon: int
    users: tuple[str, ...] = ("A", "B")
    warmup: int = 1000

    def __post_init__(self):
        if self.horizon < 1:
            raise TraceError("horizon must be at least 1 tick")
        if self.warmup < 0:
            raise TraceError("warmup must be non-negative")
        object.__setattr__(self, "users", tuple(self.users))


def _user_streams(config: SimConfig) -> list[np.random.Generator]:
    root = np.random.SeedSequence(config.seed)
    return [np.random.default_rng(child) for child in root.spawn(len(config.users))]


def _window_trace(users, starts, ends, kinds, masks, warmup: int,
                  horizon: int) -> ChannelTrace:
    """Keep events fully inside [warmup, warmup+horizon) and rebase to 0."""
    starts = np.asarray(starts, np.int64)
    ends = np.asarray(ends, np.int64)
    kinds = np.asarray(kinds, np.int8)
    masks = np.asarray(masks, np.int64)
    keep = (starts >= warmup) & (ends <= warmup + horizon)
    return ChannelTrace(users, starts[keep] - warmup, ends[keep] - warmup,
                        kinds[keep], masks[keep], horizon)


def simulate_aloha(params: AlohaParams, config: SimConfig) -> ChannelTrace:
    """Two-user slotted Aloha: each slot, each user transmits independently.

    A slot with exactly one transmitter is a Success of that user, with both a
    Collision; consecutive empty slots coalesce into one Idle event.  Slots are
    `params.slot` ticks long, so event times sit on that coarser grid.
    """
    if len(config.users) != 2:
        raise TraceError("slotted Aloha simulation is two-user")
    slot = params.slot
    total_ticks = config.warmup + config.horizon
    n_slots = -(-total_ticks // slot)
    rng_a, rng_b = _user_streams(config)
    tx_a = rng_a.random(n_slots) < params.p_a
    tx_b = rng_b.random(n_slots) < params.p_b
    busy = tx_a | tx_b
    # Segment the slot axis: every busy slot stands alone, idle runs merge.
    new_seg = np.empty(n_slots, bool)
    new_seg[0] = True
    new_seg[1:] = busy[1:] | busy[:-1]
    seg_start = np.flatnonzero(new_seg)
    seg_end = np.append(seg_start[1:], n_slots)
    first_a = tx_a[seg_start]
    first_b = tx_b[seg_start]
    kinds = np.full(len(seg_start), IDLE_CODE, np.int8)
    masks = np.zeros(len(seg_start), np.int64)
    only_a = first_a & ~first_b
    only_b = first_b & ~first_a
    both = first_a & first_b
    kinds[only_a | only_b] = SUCCESS_CODE
    kinds[both] = COLLISION_CODE
    masks[only_a] = 1
    masks[only_b] = 2
    masks[both] = 3
    return _window_trace(config.users, seg_start * slot, seg_end * slot,
                         kinds, masks, config.warmup, config.horizon)


@dataclass(frozen=True)
class CsmaAudit:
    """Round-by-round record of a CSMA/CA run, aligned with the emitted trace.

    One row per contention round: start and end tick, outcome (user index of
    the winner, or -1 for a collision), both users' retry stages at the round
    start, counter values after any fresh draw at the round start, and whether
    each counter was freshly drawn in that round.  Only rounds fully inside the
    recorded window are kept, so round k's end equals round k+1's start.
    """

    users: tuple[str, ...]
    t: np.ndarray        # round start tick
    end: np.ndarray      # round end tick (end of the busy period)
    outcome: np.ndarray  # winner index or COLLISION_OUTCOME
    stage: np.ndarray    # (rounds, 2) retry stages
    counter: np.ndarray  # (rounds, 2) backoff counters at round start
    fresh: np.ndarray    # (rounds, 2) counter drawn this round?

    def __len__(self) -> int:
        return len(self.t)


def simulate_csma(params: CsmaParams, config: SimConfig,
                  mode: CsmaMode = CsmaMode.RTS_CTS,
                  audit: bool = False):
    """Two-user saturated CSMA/CA with binary exponential backoff.

    Every round: a DIFS, then both counters count down over shared idle slots
    until the smaller one expires and its owner transmits.  A tie is a
    collision (both escalate their stage and redraw); a sole winner resets to
    stage zero and redraws, while the loser freezes for the winner's exchange
    and its counter ticks down exactly once during it.  A success and a
    collision hold the channel for `params.busy_slots(mode)`.

    Returns the trace, or (trace, CsmaAudit) when `audit` is true.
    """
    if len(config.users) != 2:
        raise TraceError("CSMA/CA simulation is two-user")
    if params.cw_max > _WORD:
        # numpy draws wider windows from 64-bit words, which _backoff_draw
        # does not reproduce.
        raise TraceError(f"cw_max={params.cw_max} above 2**32 is not "
                         "supported by the CSMA/CA simulator")
    succ_len, coll_len = params.busy_slots(mode)
    draw0, draw1 = (_backoff_draw(rng) for rng in _user_streams(config))
    cws = [params.cw(s) for s in range(params.beta + 1)]
    beta = params.beta
    l_difs = params.l_difs
    cutoff = config.warmup + config.horizon
    # Per round: the backoff slots m before the busy period and the
    # outcome; every event time follows from them.
    rec_m: list[int] = []
    rec_out: list[int] = []
    au_rows: list[tuple] = []
    s0 = s1 = c0 = c1 = 0
    f0 = f1 = True
    t = 0
    while t < cutoff:
        if f0:
            c0 = draw0(cws[s0])
        if f1:
            c1 = draw1(cws[s1])
        if audit:
            au_rows.append((s0, s1, c0, c1, f0, f1))
        if c0 < c1:
            # The loser defers for the exchange; its counter expires one slot
            # of backoff while the channel is held.
            m, out = c0, 0
            c1 -= c0 + 1
            s0 = 0
            f0, f1 = True, False
            t += l_difs + m + succ_len
        elif c1 < c0:
            m, out = c1, 1
            c0 -= c1 + 1
            s1 = 0
            f0, f1 = False, True
            t += l_difs + m + succ_len
        else:
            m, out = c0, COLLISION_OUTCOME
            s0 = min(s0 + 1, beta)
            s1 = min(s1 + 1, beta)
            f0 = f1 = True
            t += l_difs + m + coll_len
        rec_m.append(m)
        rec_out.append(out)
    outcome = np.asarray(rec_out, np.int64)
    coll = outcome == COLLISION_OUTCOME
    busy_start = np.asarray(rec_m, np.int64) + l_difs
    r_end = busy_start + np.where(coll, coll_len, succ_len)
    np.cumsum(r_end, out=r_end)
    r_start = np.zeros_like(r_end)
    r_start[1:] = r_end[:-1]
    busy_start += r_start
    # Each round is an idle event followed by its busy event.
    n = len(outcome)
    starts = np.column_stack((r_start, busy_start)).ravel()
    ends = np.column_stack((busy_start, r_end)).ravel()
    kinds = np.full(2 * n, IDLE_CODE, np.int8)
    kinds[1::2] = np.where(coll, COLLISION_CODE, SUCCESS_CODE)
    masks = np.zeros(2 * n, np.int64)
    masks[1::2] = np.where(coll, 3, outcome + 1)  # winner u has mask 1 << u
    trace = _window_trace(config.users, starts, ends, kinds, masks,
                          config.warmup, config.horizon)
    if not audit:
        return trace
    keep = (r_start >= config.warmup) & (r_end <= cutoff)
    rows = np.asarray(au_rows, np.int64)[keep]
    rec = CsmaAudit(
        users=config.users,
        t=r_start[keep] - config.warmup,
        end=r_end[keep] - config.warmup,
        outcome=outcome[keep],
        stage=rows[:, 0:2],
        counter=rows[:, 2:4],
        fresh=rows[:, 4:6].astype(bool),
    )
    return trace, rec


def simulate_tdma(packet_lengths, config: SimConfig) -> ChannelTrace:
    """Deterministic round-robin TDMA: users transmit back to back, in order.

    `packet_lengths` aligns with `config.users`.  The seed is unused; the
    trace is periodic with period sum(packet_lengths), truncated to whole
    packets at both window edges.
    """
    lengths = [int(l) for l in packet_lengths]
    if len(lengths) != len(config.users) or not lengths:
        raise TraceError("need one packet length per user")
    if any(l < 1 for l in lengths):
        raise TraceError("packet lengths must be at least 1 slot")
    n_users = len(lengths)
    period = sum(lengths)
    total = config.warmup + config.horizon
    n_rounds = total // period + 1
    offsets = np.cumsum([0] + lengths[:-1])
    base = np.arange(n_rounds, dtype=np.int64) * period
    starts = (base[:, None] + offsets[None, :]).ravel()
    ends = starts + np.tile(np.asarray(lengths, np.int64), n_rounds)
    kinds = np.full(len(starts), SUCCESS_CODE, np.int8)
    masks = np.tile(np.left_shift(1, np.arange(n_users, dtype=np.int64)),
                    n_rounds)
    return _window_trace(config.users, starts, ends, kinds, masks,
                         config.warmup, config.horizon)


# -- audit utilities ---------------------------------------------------------

def write_audit(audit_rec: CsmaAudit, fp: TextIO) -> None:
    """One line per round: t,winner|collision,stage_a,stage_b,lambda_a,lambda_b."""
    # COLLISION_OUTCOME is -1, so it indexes the trailing "collision" label.
    labels = (*audit_rec.users, "collision")
    who = [labels[o] for o in audit_rec.outcome.tolist()]
    stage_a, stage_b = audit_rec.stage.T.tolist()
    lam_a, lam_b = audit_rec.counter.T.tolist()
    fp.writelines([f"{t},{w},{sa},{sb},{la},{lb}\n" for t, w, sa, sb, la, lb
                   in zip(audit_rec.t.tolist(), who, stage_a, stage_b,
                          lam_a, lam_b)])


def empirical_collision_probability(audit_rec: CsmaAudit) -> float:
    """Per-attempt collision fraction: 2C / (2C + S).

    A collision consumes one attempt from each station while a success
    consumes only the winner's, so attempts weight collisions twice.
    """
    n_coll = int(np.sum(audit_rec.outcome == COLLISION_OUTCOME))
    n_succ = len(audit_rec) - n_coll
    attempts = 2 * n_coll + n_succ
    if attempts == 0:
        raise TraceError("empty audit")
    return 2.0 * n_coll / attempts


@dataclass(frozen=True)
class PartReconstruction:
    """Audit-based replay of each cycle's two parts next to the trace-measured truth.

    All arrays align with metrics.part_decomposition(trace, user): recon_*
    rebuild the durations from round outcomes and fresh backoff draws alone,
    measured_* read them off the trace timestamps.
    """

    recon_part1: np.ndarray
    recon_part2: np.ndarray
    measured_part1: np.ndarray
    measured_part2: np.ndarray
    n_b: np.ndarray
    n_a_prime: np.ndarray


def reconstruct_parts(trace: ChannelTrace, audit_rec: CsmaAudit,
                      params: CsmaParams, mode: CsmaMode,
                      user: str) -> PartReconstruction:
    """Rebuild every cycle's part durations from the audit log.

    Part 1 of a cycle (refresh moment to the end of the owner's first success)
    must equal n_b deferrals plus the owner's own attempts; part 2 is the
    owner's run of further successes.  In RTS/CTS mode:

        part1 = n_b (l_difs + l_nav) + l_tran
                + (rho1 + 1)(l_difs + l_rcts) + sum of fresh lambdas
        part2 = n_a' l_tran + (rho2 + n_a')(l_difs + l_rcts) + sum of fresh lambdas

    and in basic mode (l_tran - 1 freeze per deferral, l_tran per collision):

        part1 = n_b (l_difs + l_tran - 1) + (rho1 + 1)(l_difs + l_tran) + sum
        part2 = (rho2 + n_a')(l_difs + l_tran) + sum

    where rho counts collisions inside the part and the lambda sums range over
    the owner's fresh draws in it.  Slot-exact equality with the trace-measured
    durations is the conservation check on the whole chain.
    """
    u = trace.user_index(user)
    other = 1 - u
    if len(trace.users) != 2:
        raise TraceError("part reconstruction is two-user")
    iv = metrics.cycle_intervals(trace, user)
    n_cycles = len(iv)
    empty = np.empty(0, np.int64)
    if n_cycles == 0:
        return PartReconstruction(empty, empty, empty, empty, empty, empty)
    t0 = iv[:, 0]
    t1 = iv[:, 1]
    # Locate each cycle's rounds.  Rounds tile the window, so the round
    # starting at a refresh moment exists whenever the cycle lies inside it.
    i0 = np.searchsorted(audit_rec.t, t0)
    i1 = np.searchsorted(audit_rec.end, t1)
    if (np.any(i0 >= len(audit_rec)) or np.any(audit_rec.t[i0] != t0)
            or np.any(i1 >= len(audit_rec)) or np.any(audit_rec.end[i1] != t1)):
        raise TraceError("audit does not cover the trace's cycles")
    # Split index: first round the owner wins at or after i0.
    wins = np.flatnonzero(audit_rec.outcome == u)
    s = wins[np.searchsorted(wins, i0)]
    # Prefix sums over rounds for vectorised per-cycle tallies.
    coll = (audit_rec.outcome == COLLISION_OUTCOME).astype(np.int64)
    other_win = (audit_rec.outcome == other).astype(np.int64)
    own_win = (audit_rec.outcome == u).astype(np.int64)
    fresh_u = audit_rec.fresh[:, u].astype(np.int64)
    fresh_lam = fresh_u * audit_rec.counter[:, u]
    p_coll = _prefix(coll)
    p_other = _prefix(other_win)
    p_own = _prefix(own_win)
    p_fresh = _prefix(fresh_u)
    p_lam = _prefix(fresh_lam)
    # Part 1 spans rounds [i0, s]; part 2 spans [s+1, i1].
    n_b = p_other[s] - p_other[i0]
    rho1 = p_coll[s] - p_coll[i0]
    lam1 = p_lam[s + 1] - p_lam[i0]
    k1 = p_fresh[s + 1] - p_fresh[i0]
    n_a = p_own[i1 + 1] - p_own[s + 1]
    rho2 = p_coll[i1 + 1] - p_coll[s + 1]
    lam2 = p_lam[i1 + 1] - p_lam[s + 1]
    k2 = p_fresh[i1 + 1] - p_fresh[s + 1]
    if np.any(p_other[i1 + 1] - p_other[s + 1] != 0):
        raise TraceError("other user's success inside part 2 of a cycle")
    if np.any(k1 != rho1 + 1) or np.any(k2 != rho2 + n_a):
        raise TraceError("fresh-draw counts do not match round outcomes")
    ld = params.l_difs
    if mode is CsmaMode.RTS_CTS:
        defer = ld + params.l_nav
        attempt = ld + params.l_rcts
        recon1 = n_b * defer + params.l_tran + (rho1 + 1) * attempt + lam1
        recon2 = n_a * params.l_tran + (rho2 + n_a) * attempt + lam2
    else:
        defer = ld + params.l_tran - 1
        attempt = ld + params.l_tran
        recon1 = n_b * defer + (rho1 + 1) * attempt + lam1
        recon2 = (rho2 + n_a) * attempt + lam2
    measured1 = audit_rec.end[s] - t0
    measured2 = t1 - audit_rec.end[s]
    return PartReconstruction(recon1, recon2, measured1, measured2, n_b, n_a)


def _prefix(x: np.ndarray) -> np.ndarray:
    out = np.zeros(len(x) + 1, np.int64)
    np.cumsum(x, out=out[1:])
    return out
