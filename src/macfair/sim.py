"""Slot-level simulators for two-user slotted Aloha, two-user CSMA/CA, and
round-robin TDMA, all emitting validated channel traces.

Determinism contract: identical parameters and SimConfig produce bit-identical
traces.  Each user draws from its own child stream of the run seed, so one
user's consumption never perturbs another's.  CSMA/CA backoffs are taken from
blocks of raw 32-bit words and mapped exactly as `Generator.integers(1, cw + 1)`
maps them, so every backoff equals the value of one such call per draw.  A
CSMA/CA user draws its next backoff as soon as a round ends in its win or in a
collision, not when the next round starts; as no other user reads its stream,
it draws the same values in the same order, and what it draws after the last
round is never recorded.

Every simulator emits its events sorted and tiling the channel from tick 0,
each event starting where the previous one ends, so one non-decreasing
boundary array `edge` describes them all: event i spans [edge[i], edge[i+1]).
The warm-up and horizon window then keeps one contiguous run of events, which
`_window_trace` finds by binary search and slices instead of filtering.
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

# Kind of an Aloha slot indexed by its participant mask.
_ALOHA_KIND = np.array([IDLE_CODE, SUCCESS_CODE, SUCCESS_CODE, COLLISION_CODE],
                       np.int8)


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
        if self.seed < 0:
            raise TraceError("seed must be non-negative")
        if self.horizon < 1:
            raise TraceError("horizon must be at least 1 tick")
        if self.warmup < 0:
            raise TraceError("warmup must be non-negative")
        object.__setattr__(self, "users", tuple(self.users))


def _user_streams(config: SimConfig) -> list[np.random.Generator]:
    root = np.random.SeedSequence(config.seed)
    return [np.random.default_rng(child) for child in root.spawn(len(config.users))]


def _span(edge: np.ndarray, warmup: int, horizon: int) -> tuple[int, int]:
    """Event index range [lo, hi) of the events inside [warmup, warmup+horizon).

    Event i spans [edge[i], edge[i+1]); `edge` must be non-decreasing, so the
    events inside the window form one contiguous run.  lo is the first event
    starting at or after `warmup`, hi the first ending after the window's end,
    and hi == lo when no event fits.
    """
    lo = int(np.searchsorted(edge, warmup))
    hi = int(np.searchsorted(edge, warmup + horizon, "right")) - 1
    return lo, max(lo, hi)


def _window_trace(users, edge, kinds, masks, warmup: int,
                  horizon: int) -> ChannelTrace:
    """Keep events fully inside [warmup, warmup+horizon) and rebase to 0.

    Event i spans [edge[i], edge[i+1]) and has kinds[i], masks[i].  The
    events must be sorted and tile the channel (`edge` non-decreasing), so
    the kept events are one slice of them; the trace's starts and ends are
    two views of one rebased copy of its boundaries.
    """
    lo, hi = _span(edge, warmup, horizon)
    e = edge[lo:hi + 1] - warmup
    return ChannelTrace(users, e[:-1], e[1:], kinds[lo:hi], masks[lo:hi],
                        horizon)


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
    # Each slot's participant mask: bit 0 for A, bit 1 for B.
    code = tx_b.view(np.uint8) << 1
    code |= tx_a.view(np.uint8)
    # Segment the slot axis: every busy slot stands alone, idle runs merge.
    # The flag past the last slot makes the end of the run the final boundary.
    new_seg = np.empty(n_slots + 1, bool)
    new_seg[0] = new_seg[n_slots] = True
    np.logical_or(code[1:], code[:-1], out=new_seg[1:n_slots])
    edge = np.flatnonzero(new_seg)
    masks = code.take(edge[:-1])
    if slot != 1:
        edge *= slot
    return _window_trace(config.users, edge, _ALOHA_KIND.take(masks), masks,
                         config.warmup, config.horizon)


@dataclass(frozen=True)
class CsmaAudit:
    """Round-by-round record of a CSMA/CA run, aligned with the emitted trace.

    One row per contention round: start and end tick, outcome (user index of
    the winner, or -1 for a collision), both users' retry stages at the round
    start, both pending backoff counters at the round start, and whether each
    counter was freshly drawn for that round.  The simulator records only the
    counters; outcome, stage and fresh follow from them.  A user's stage is
    the number of collisions since its last win, capped at beta, and its
    counter is fresh unless it lost the previous round.  Only rounds fully
    inside the recorded window are kept, so round k's end equals round k+1's
    start.
    """

    users: tuple[str, ...]
    t: np.ndarray        # round start tick
    end: np.ndarray      # round end tick (end of the busy period)
    outcome: np.ndarray  # winner index or COLLISION_OUTCOME
    stage: np.ndarray    # (rounds, 2) retry stages
    counter: np.ndarray  # (rounds, 2) backoff counters at round start
    fresh: np.ndarray    # (rounds, 2) counter drawn for this round?

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
    succ_round = params.l_difs + succ_len
    coll_round = params.l_difs + coll_len
    cutoff = config.warmup + config.horizon
    # Both counters at every round start; all else follows from them.
    rec0: list[int] = []
    rec1: list[int] = []
    s0 = s1 = 0
    c0, c1 = draw0(cws[0]), draw1(cws[0])
    t = 0
    while t < cutoff:
        rec0.append(c0)
        rec1.append(c1)
        if c0 < c1:
            # The loser defers for the exchange; its counter expires one slot
            # of backoff while the channel is held.
            t += succ_round + c0
            c1 -= c0 + 1
            s0 = 0
            c0 = draw0(cws[0])
        elif c1 < c0:
            t += succ_round + c1
            c0 -= c1 + 1
            s1 = 0
            c1 = draw1(cws[0])
        else:
            t += coll_round + c0
            s0 = min(s0 + 1, beta)
            s1 = min(s1 + 1, beta)
            c0 = draw0(cws[s0])
            c1 = draw1(cws[s1])
    counter = np.array((rec0, rec1), np.int64)
    outcome = (counter[1] < counter[0]).astype(np.int64)
    coll = counter[0] == counter[1]
    outcome[coll] = COLLISION_OUTCOME
    # Each round is an idle event (DIFS and backoff) followed by its busy
    # event; edge holds every event boundary.
    n = len(outcome)
    length = np.empty(2 * n, np.int64)
    length[0::2] = counter.min(axis=0) + params.l_difs
    length[1::2] = np.where(coll, coll_len, succ_len)
    edge = np.zeros(2 * n + 1, np.int64)
    np.cumsum(length, out=edge[1:])
    kinds = np.full(2 * n, IDLE_CODE, np.int8)
    kinds[1::2] = np.where(coll, COLLISION_CODE, SUCCESS_CODE)
    masks = np.zeros(2 * n, np.int64)
    masks[1::2] = np.where(coll, 3, outcome + 1)  # winner u has mask 1 << u
    trace = _window_trace(config.users, edge, kinds, masks,
                          config.warmup, config.horizon)
    if not audit:
        return trace
    # Stage and fresh as defined in CsmaAudit.
    n_coll = _prefix(coll)
    at_win = np.where(outcome[:, None] == (0, 1), n_coll[1:, None], 0)
    stage = np.repeat(n_coll[:-1, None], 2, axis=1)
    stage[1:] -= np.maximum.accumulate(at_win[:-1])
    np.minimum(stage, beta, out=stage)
    fresh = np.ones((n, 2), bool)
    fresh[1:] = outcome[:-1, None] != (1, 0)
    # Rounds tile the channel too, so the audit keeps rounds by the same rule.
    rounds = edge[::2]  # round k spans [rounds[k], rounds[k+1])
    lo, hi = _span(rounds, config.warmup, config.horizon)
    return trace, CsmaAudit(
        users=config.users,
        t=rounds[lo:hi] - config.warmup,
        end=rounds[lo + 1:hi + 1] - config.warmup,
        outcome=outcome[lo:hi],
        stage=stage[lo:hi],
        counter=np.ascontiguousarray(counter.T[lo:hi]),
        fresh=fresh[lo:hi],
    )


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
    n_rounds = (config.warmup + config.horizon) // sum(lengths) + 1
    edge = np.zeros(n_rounds * len(lengths) + 1, np.int64)
    np.cumsum(np.tile(np.asarray(lengths, np.int64), n_rounds), out=edge[1:])
    kinds = np.full(len(edge) - 1, SUCCESS_CODE, np.int8)
    masks = np.tile(np.left_shift(1, np.arange(len(lengths), dtype=np.int64)),
                    n_rounds)
    return _window_trace(config.users, edge, kinds, masks,
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
    owner's run of further successes.  With the terms of
    `params.round_terms(mode)`, which `csma_cct` also uses,

        part1 = n_b defer + payload + (rho1 + 1) attempt + sum of fresh lambdas
        part2 = n_a' payload + (rho2 + n_a') attempt + sum of fresh lambdas

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
    defer, attempt, payload = params.round_terms(mode)
    recon1 = n_b * defer + payload + (rho1 + 1) * attempt + lam1
    recon2 = n_a * payload + (rho2 + n_a) * attempt + lam2
    measured1 = audit_rec.end[s] - t0
    measured2 = t1 - audit_rec.end[s]
    return PartReconstruction(recon1, recon2, measured1, measured2, n_b, n_a)


def _prefix(x: np.ndarray) -> np.ndarray:
    out = np.zeros(len(x) + 1, np.int64)
    np.cumsum(x, out=out[1:])
    return out
