"""Slot-level simulators for two-user slotted Aloha, two-user CSMA/CA, and
round-robin TDMA, all emitting validated channel traces.

Determinism contract: identical parameters and SimConfig produce bit-identical
traces.  Each user draws from its own child stream of the run seed, so one
user's consumption never perturbs another's.  Slotted Aloha draws each
user's slots in turn, in blocks of `core._BLOCK` through one reused buffer;
`Generator.random` in blocks gives the values of one whole-array call.
CSMA/CA backoffs are taken from blocks of raw 32-bit words and mapped exactly
as `Generator.integers(1, cw + 1)` maps them, so every backoff equals the
value of one such call per draw.  A block is mapped once, by numpy, for
the stage-0 window when it is drawn, a word numpy would reject reading 0;
the simulator reads stage-0 draws from that row inline, and a retry stage
maps the words it reads one at a time.  A CSMA/CA user draws its next
backoff as soon as a round ends in its win or in a collision, not when the
next round starts; as no other user reads its stream, it draws the same
values in the same order, and what it draws after the last round is never
recorded.  So the counters at every round start depend only on the seed, the
users and the window schedule; the mode and the packet length only time the
rounds.  A `ContentionRounds` holds a run's counters and serves every mode
and packet length with that seed, users and windows.  Its round loop draws
counters only, packed into int64 rows by `_int64_rows`; `upto` times them
for the caller's mode and, while they end before its cutoff, asks for as
many more as the mean round so far needs to reach it.  `simulate_csma`
takes every event boundary from their end ticks.

Every simulator emits its events sorted and tiling the channel from tick 0,
each event starting where the previous one ends, so one non-decreasing
boundary array `edge` describes them all: event i spans [edge[i], edge[i+1]).
A simulator hands over these boundaries and each event's participant mask
only; an event's kind follows from its mask, and `ChannelTrace.kinds`
derives it only when read.  The warm-up and horizon window then keeps one
contiguous run of events, which `_window_trace` finds by binary search and
slices instead of filtering.  The trace's starts and ends are two views of
that slice of `edge`, one element apart, so `validate_trace` knows from
their memory alone that no two events overlap.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from . import metrics
from .core import (
    _BLOCK,
    AlohaParams,
    ChannelTrace,
    CsmaMode,
    CsmaParams,
    TraceError,
    _count,
    mask_dtype,
)

COLLISION_OUTCOME = -1

# Backoff draws are served from blocks of this many raw 32-bit words per user.
BLOCK = 1024
_WORD = 1 << 32


def _window_row(words: np.ndarray, cw: int) -> list[int]:
    """The draws of window cw from each word of a block, 0 where numpy would
    reject the word, plus a trailing 0 that marks the block's end.

    numpy draws a window of cw <= 2**32 from 32-bit words with Lemire's
    multiply-shift map, `1 + (x * cw >> 32)`, rejecting a word whose low half
    falls below `(2**32 - cw) % cw`; a window of 1 rejects none.
    """
    m = words * np.uint64(cw)
    row = (m >> np.uint64(32)) + np.uint64(1)
    reject = (_WORD - cw) % cw
    if reject:
        row[(m & np.uint64(0xFFFFFFFF)) < reject] = 0
    row = row.tolist()
    row.append(0)
    return row


def _backoff_stream(rng: np.random.Generator, cws: list[int]):
    """Return draw(stage, pos), giving what `rng.integers(1, cws[stage] + 1)`
    would, call by call.

    Words come in blocks of BLOCK from `integers(0, 2**32, BLOCK,
    dtype=np.uint64)`, which reads the same buffered 32-bit stream as the
    bounded call, so taking words in blocks changes no value drawn.  A block
    is mapped once, for the stage-0 window, when it is drawn (`_window_row`);
    draw maps the words it reads one at a time, by the same rule.  `pos` is
    the index of the caller's next word in the block, BLOCK before the first
    draw.  draw returns the backoff, the index of the next word, and the
    block's stage-0 row, which the caller may read itself: a non-zero
    `row[pos]` is the next stage-0 backoff, after which the next word is
    pos + 1, or pos for a window of 1, which spends no word; a 0 (a rejected
    word or the block's end) means calling draw(0, pos) instead.  A window
    of 1 drawn at a block's end takes the next block early, which changes no
    value, as no one else reads the stream.  This leans on numpy's
    bounded-integer algorithm, which tests/test_sim.py::TestBackoffDraw
    checks against the numpy in use.
    """
    rejects = [(_WORD - cw) % cw for cw in cws]
    words = row0 = None

    def draw(stage: int, pos: int):
        nonlocal words, row0
        cw, reject = cws[stage], rejects[stage]
        while True:
            if pos == BLOCK:
                words = rng.integers(0, _WORD, BLOCK, dtype=np.uint64)
                row0 = _window_row(words, cws[0])
                pos = 0
            m = int(words[pos]) * cw
            if m & 0xFFFFFFFF >= reject:
                return 1 + (m >> 32), pos + (cw > 1), row0
            pos += 1

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
        for name, least, unit in (("seed", 0, ""), ("horizon", 1, " tick"),
                                  ("warmup", 0, "")):
            value = _count(name, getattr(self, name), least, unit)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "users", tuple(self.users))


def _user_streams(config: SimConfig) -> list[np.random.Generator]:
    root = np.random.SeedSequence(config.seed)
    return [np.random.default_rng(child) for child in root.spawn(len(config.users))]


def _span(edge: np.ndarray, horizon: int) -> tuple[int, int]:
    """Event index range [lo, hi) of the events inside [0, horizon).

    Event i spans [edge[i], edge[i+1]); `edge` must be non-decreasing, so the
    events inside the window form one contiguous run.  lo is the first event
    starting at or after 0, hi the first ending after the window's end, and
    hi == lo when no event fits.
    """
    lo = int(np.searchsorted(edge, 0))
    hi = int(np.searchsorted(edge, horizon, "right")) - 1
    return lo, max(lo, hi)


def _window_trace(users, edge, masks, warmup: int,
                  horizon: int) -> ChannelTrace:
    """Keep events fully inside [warmup, warmup+horizon) and rebase to 0.

    Event i spans [edge[i], edge[i+1]) and has participant mask masks[i],
    which gives its kind.  The events must be sorted and tile the channel
    (`edge` non-decreasing), so the kept events are one slice of them.
    `edge` is rebased in place, by `warmup` ticks, and the trace's starts
    and ends are two views of it.
    """
    edge -= warmup
    lo, hi = _span(edge, horizon)
    e = edge[lo:hi + 1]
    masks = masks[lo:hi]
    return ChannelTrace(users, e[:-1], e[1:], masks=masks, horizon=horizon)


# Aloha slots drawn `_BLOCK` at a time per user: one float64 buffer of one
# block's slots, reused, instead of one float per slot of the run.
def _draw_tx(rng: np.random.Generator, p: float, out: np.ndarray) -> None:
    """Fill the bool row `out` with `rng.random(len(out)) < p`, block by
    block; `Generator.random` in blocks gives the values of one call."""
    buf = np.empty(min(len(out), _BLOCK))
    for lo in range(0, len(out), _BLOCK):
        row = out[lo:lo + _BLOCK]
        draws = buf[:len(row)]
        rng.random(out=draws)
        np.less(draws, p, out=row)


def simulate_aloha(params: AlohaParams, config: SimConfig) -> ChannelTrace:
    """Two-user slotted Aloha: each slot, each user transmits independently.

    A slot with exactly one transmitter is a Success of that user, with both a
    Collision; consecutive empty slots coalesce into one Idle event.  Slots are
    `params.slot` ticks long, so event times sit on that coarser grid.

    User u transmits in slot i when draw i of its child stream is below its
    p.  A's slots are drawn, then B's, each in blocks of `core._BLOCK`
    through one reused buffer, with the values of one whole-array draw.
    """
    if len(config.users) != 2:
        raise TraceError("slotted Aloha simulation is two-user")
    slot = params.slot
    total_ticks = config.warmup + config.horizon
    n_slots = -(-total_ticks // slot)
    rng_a, rng_b = _user_streams(config)
    tx = np.empty((2, n_slots), bool)
    _draw_tx(rng_a, params.p_a, tx[0])
    _draw_tx(rng_b, params.p_b, tx[1])
    # Each slot's participant mask, built in B's row: bit 0 for A, bit 1 for B.
    a_bits, code = tx.view(np.uint8)
    code <<= 1
    code |= a_bits
    # Segment the slot axis: every busy slot stands alone, idle runs merge.
    # The flag past the last slot makes the end of the run the final boundary.
    new_seg = np.empty(n_slots + 1, bool)
    new_seg[0] = new_seg[n_slots] = True
    np.logical_or(code[1:], code[:-1], out=new_seg[1:n_slots])
    edge = np.flatnonzero(new_seg)
    masks = code.take(edge[:-1])
    if slot != 1:
        edge *= slot
    return _window_trace(config.users, edge, masks, config.warmup,
                         config.horizon)


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


def _rounds_key(params: CsmaParams, config: SimConfig) -> tuple:
    """What a CSMA/CA run's contention rounds depend on: the seed, the users
    and every stage's window.  Raises TraceError for a run the simulator does
    not support."""
    if len(config.users) != 2:
        raise TraceError("CSMA/CA simulation is two-user")
    if params.cw_max > _WORD:
        # numpy draws wider windows from 64-bit words, which _backoff_stream
        # does not reproduce.
        raise TraceError(f"cw_max={params.cw_max} above 2**32 is not "
                         "supported by the CSMA/CA simulator")
    cws = tuple(params.cw(s) for s in range(params.beta + 1))
    return config.seed, config.users, cws


class ContentionRounds:
    """The contention chain of a two-user CSMA/CA run: both users' backoff
    counters at each round start, drawn as far as a run needs them.

    A round's counters depend on the earlier rounds' counters and on each
    user's stream alone, never on time, so they are the same for every mode
    and packet length with the same seed, users and windows (`_rounds_key`).
    One instance serves every such `simulate_csma` call.  `upto` is the one
    place a round is timed: it times the rounds drawn for the caller's mode
    and, while they end before a call's cutoff, has the round loop draw as
    many more as the mean round so far needs to reach it, so a chain may
    hold a few rounds past its longest call.  `simulate_csma` takes every
    event boundary from the busy lengths and end ticks it returns.
    """

    def __init__(self, params: CsmaParams, config: SimConfig):
        self.key = _rounds_key(params, config)
        cws = list(self.key[2])
        self._draw = [_backoff_stream(rng, cws) for rng in _user_streams(config)]
        self._beta = params.beta
        # A stage-0 draw spends a word unless the window is 1.
        self._step = int(cws[0] > 1)
        # The loop's state: both pending counters, each user's next word in
        # its block and the block's stage-0 row, and both retry stages.
        self._state = (*self._draw[0](0, BLOCK), *self._draw[1](0, BLOCK),
                       0, 0)
        # Both counters at every round start drawn so far.
        self.counter = np.empty((2, 0), np.int64)

    def upto(self, params: CsmaParams, mode: CsmaMode, cutoff: int):
        """(counter, busy, ends) of the rounds starting before tick `cutoff`,
        timed by `params.busy_slots(mode)`: both counters at each round start
        as a (2, n) array, each round's busy slots and its end tick."""
        succ_len, coll_len = params.busy_slots(mode)
        while True:
            # Each round: a DIFS, the smaller backoff, then a success's busy
            # period, or a collision's when the counters tie.  Round k spans
            # [edge[k], edge[k + 1]).
            c0, c1 = self.counter
            busy = np.where(c0 == c1, coll_len, succ_len)
            edge = np.zeros(len(busy) + 1, np.int64)
            np.cumsum(np.minimum(c0, c1) + busy + params.l_difs, out=edge[1:])
            if edge[-1] >= cutoff:
                n = int(np.searchsorted(edge, cutoff))
                return self.counter[:, :n], busy[:n], edge[1:n + 1]
            # Draw enough rounds to reach the cutoff at the mean round so
            # far, or at a stage-0 round's before any is drawn.
            mean = (edge[-1] / len(busy) if len(busy) else
                    params.l_difs + succ_len + (params.cw_min + 1) / 2)
            self._extend(int((cutoff - edge[-1]) / mean) + 1)

    def _extend(self, n: int) -> None:
        """Draw the next n rounds' counters with the round loop of
        `simulate_csma`, as two lists of Python ints that `_int64_rows`
        packs onto `counter`; `upto` times them."""
        draw0, draw1 = self._draw
        beta, step = self._beta, self._step
        c0, p0, row0, c1, p1, row1, s0, s1 = self._state
        rec0: list[int] = []
        rec1: list[int] = []
        push0, push1 = rec0.append, rec1.append
        for _ in range(n):
            push0(c0)
            push1(c1)
            if c0 < c1:
                # The loser defers for the exchange; its counter expires one
                # slot of backoff while the channel is held.
                c1 -= c0 + 1
                s0 = 0
                c0 = row0[p0]
                if c0:
                    p0 += step
                else:
                    c0, p0, row0 = draw0(0, p0)
            elif c1 < c0:
                c0 -= c1 + 1
                s1 = 0
                c1 = row1[p1]
                if c1:
                    p1 += step
                else:
                    c1, p1, row1 = draw1(0, p1)
            else:
                if s0 < beta:
                    s0 += 1
                if s1 < beta:
                    s1 += 1
                c0, p0, row0 = draw0(s0, p0)
                c1, p1, row1 = draw1(s1, p1)
        self._state = (c0, p0, row0, c1, p1, row1, s0, s1)
        self.counter = np.concatenate(
            (self.counter, _int64_rows((rec0, rec1))), axis=1)


def _int64_rows(rows) -> np.ndarray:
    """Equal-length lists of Python ints as one int64 array, a row each.

    `struct` packs each list into its row's buffer as 8-byte `q` integers,
    at most `core._BLOCK` of them per call, which beats numpy's generic
    conversion of nested sequences; besides the result it holds one block's
    argument list and tuple at a time.  Every value must fit 64 bits: the
    round loop's counters are at most cw_max <= 2**32 (`_rounds_key`).
    """
    n = len(rows[0])
    out = np.empty((len(rows), n), np.int64)
    for row, ints in zip(out, rows):
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            struct.pack_into(f"{hi - lo}q", row, 8 * lo, *ints[lo:hi])
    return out


def simulate_csma(params: CsmaParams, config: SimConfig,
                  mode: CsmaMode = CsmaMode.RTS_CTS,
                  audit: bool = False, *,
                  rounds: ContentionRounds | None = None):
    """Two-user saturated CSMA/CA with binary exponential backoff.

    Every round: a DIFS, then both counters count down over shared idle slots
    until the smaller one expires and its owner transmits.  A tie is a
    collision (both escalate their stage and redraw); a sole winner resets to
    stage zero and redraws, while the loser freezes for the winner's exchange
    and its counter ticks down exactly once during it.  A success and a
    collision hold the channel for `params.busy_slots(mode)`.

    Backoffs come from `_backoff_stream`, which maps each block of a user's
    words once for the stage-0 window, a rejected word reading 0.  A win's
    stage-0 redraw reads that row inline; the stream is called when the read
    finds 0 (a block's end or a rejected word) and for a collision's
    redraws, and maps the words it reads one at a time.

    The rounds' counters and times come from `rounds`, a `ContentionRounds`
    built for the same seed, users and windows, which may hold the rounds of
    another mode or packet length already; a fresh one is built when None.
    Either way the trace and audit are the same.  A `rounds` drawn for
    another seed, users or window schedule raises TraceError.

    Returns the trace, or (trace, CsmaAudit) when `audit` is true.
    """
    if rounds is None:
        rounds = ContentionRounds(params, config)
    elif rounds.key != _rounds_key(params, config):
        raise TraceError("contention rounds drawn for another seed, users "
                         "or window schedule")
    counter, busy, ends = rounds.upto(params, mode,
                                      config.warmup + config.horizon)
    outcome = (counter[1] < counter[0]).astype(np.int64)
    coll = counter[0] == counter[1]
    outcome[coll] = COLLISION_OUTCOME
    # Each round is an idle event (DIFS and backoff) followed by its busy
    # event; edge holds every event boundary.
    n = len(outcome)
    edge = np.zeros(2 * n + 1, np.int64)
    edge[2::2] = ends
    np.subtract(ends, busy, out=edge[1::2])
    masks = np.zeros(2 * n, np.uint8)
    masks[1::2] = np.where(coll, 3, outcome + 1)  # winner u has mask 1 << u
    trace = _window_trace(config.users, edge, masks, config.warmup,
                          config.horizon)
    if not audit:
        return trace
    # Stage and fresh as defined in CsmaAudit.
    n_coll = _prefix(coll)
    at_win = np.where(outcome[:, None] == (0, 1), n_coll[1:, None], 0)
    stage = np.repeat(n_coll[:-1, None], 2, axis=1)
    stage[1:] -= np.maximum.accumulate(at_win[:-1])
    np.minimum(stage, params.beta, out=stage)
    fresh = np.ones((n, 2), bool)
    fresh[1:] = outcome[:-1, None] != (1, 0)
    # Rounds tile the channel too, so the audit keeps rounds by the same
    # rule.  `edge` is rebased already; t and end are copies of it, so no
    # audit array shares the trace's boundary buffer, and counter is a copy,
    # so none shares the rounds' buffer either.
    starts = edge[::2]  # round k spans [starts[k], starts[k+1])
    lo, hi = _span(starts, config.horizon)
    return trace, CsmaAudit(
        users=config.users,
        t=starts[lo:hi].copy(),
        end=starts[lo + 1:hi + 1].copy(),
        outcome=outcome[lo:hi],
        stage=stage[lo:hi],
        counter=counter.T[lo:hi].copy(),
        fresh=fresh[lo:hi],
    )


def simulate_tdma(packet_lengths, config: SimConfig) -> ChannelTrace:
    """Deterministic round-robin TDMA: users transmit back to back, in order.

    `packet_lengths` aligns with `config.users`.  The seed is unused; the
    trace is periodic with period sum(packet_lengths), truncated to whole
    packets at both window edges.
    """
    lengths = list(packet_lengths)
    if len(lengths) != len(config.users) or not lengths:
        raise TraceError("need one packet length per user")
    lengths = [_count("packet lengths", l, 1, " slot") for l in lengths]
    n_rounds = (config.warmup + config.horizon) // sum(lengths) + 1
    edge = np.zeros(n_rounds * len(lengths) + 1, np.int64)
    np.cumsum(np.tile(np.asarray(lengths, np.int64), n_rounds), out=edge[1:])
    bits = np.arange(len(lengths), dtype=mask_dtype(len(lengths)))
    masks = np.tile(np.left_shift(1, bits), n_rounds)
    return _window_trace(config.users, edge, masks, config.warmup,
                         config.horizon)


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


def reconstruct_parts(trace: ChannelTrace, audit_rec: CsmaAudit,
                      params: CsmaParams, mode: CsmaMode,
                      user: str) -> list[metrics.PartSplit]:
    """Rebuild every cycle's two parts from the audit log alone.

    The cycles are those of `metrics.cycle_intervals`; each is split at the
    owner's first win in the audit rounds.  n_b counts the other user's wins
    before the split and n_a' the owner's wins after it.  Part 1 (refresh
    moment to the end of the owner's first success) is n_b deferrals plus the
    owner's own attempts; part 2 is the owner's run of further successes.
    With the terms of `params.round_terms(mode)`, which `csma_cct` also uses,

        part1 = n_b defer + payload + (rho1 + 1) attempt + sum of fresh lambdas
        part2 = n_a' payload + (rho2 + n_a') attempt + sum of fresh lambdas

    where rho counts collisions inside the part and the lambda sums range over
    the owner's fresh draws in it.  No round time enters the durations, so
    equality with `metrics.part_decomposition(trace, user)`, which reads the
    split off the trace, is the conservation check on the whole chain.
    """
    u = trace.user_index(user)
    other = 1 - u
    if len(trace.users) != 2:
        raise TraceError("part reconstruction is two-user")
    iv = metrics.cycle_intervals(trace, user)
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
    # Per-round tallies, summed over rounds [i0, s] for part 1 and [s+1, i1]
    # for part 2; round s is the owner's win, so it adds no n_b or rho1.
    fresh = audit_rec.fresh[:, u]
    tally = _prefix(np.column_stack([
        audit_rec.outcome == COLLISION_OUTCOME, audit_rec.outcome == other,
        audit_rec.outcome == u, fresh, fresh * audit_rec.counter[:, u]]))
    rho1, n_b, _, k1, lam1 = (tally[s + 1] - tally[i0]).T
    rho2, other2, n_a, k2, lam2 = (tally[i1 + 1] - tally[s + 1]).T
    if np.any(other2 != 0):
        raise TraceError("other user's success inside part 2 of a cycle")
    if np.any(k1 != rho1 + 1) or np.any(k2 != rho2 + n_a):
        raise TraceError("fresh-draw counts do not match round outcomes")
    defer, attempt, payload = params.round_terms(mode)
    part1 = n_b * defer + payload + (rho1 + 1) * attempt + lam1
    part2 = n_a * payload + (rho2 + n_a) * attempt + lam2
    return [metrics.PartSplit(*split) for split in zip(
        n_b.tolist(), n_a.tolist(), part1.tolist(), part2.tolist())]


def _prefix(x: np.ndarray) -> np.ndarray:
    """Running sums of x along its first axis, with a leading row of zeros."""
    out = np.zeros((len(x) + 1,) + x.shape[1:], np.int64)
    np.cumsum(x, axis=0, out=out[1:])
    return out
