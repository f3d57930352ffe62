"""Shared trace builders, literal-definition oracles, and hypothesis strategies.

The oracles re-implement the metric definitions as direct quadratic scans so
the production (vectorized) code can be checked against an independent source.
"""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from macfair import core
from macfair.core import (
    COLLISION_CODE,
    IDLE_CODE,
    SUCCESS_CODE,
    ChannelEvent,
    ChannelTrace,
    EventKind,
    OrderError,
    OverlapError,
    TraceError,
    UnknownUserError,
    collision,
    idle,
    success,
)
from macfair.metrics import PartSplit


def pattern_trace(pattern: str, lengths: dict[str, int] | None = None,
                  start: int = 0, tail_gap: int = 0) -> ChannelTrace:
    """Back-to-back Success events following a user-letter pattern like "ABAB"."""
    users = tuple(dict.fromkeys(pattern))
    lengths = lengths or {}
    events = []
    t = start
    for ch in pattern:
        l = lengths.get(ch, 1)
        events.append(success(t, t + l, ch))
        t += l
    return ChannelTrace.from_events(users, events, t + tail_gap)


def fig_trace() -> ChannelTrace:
    """Three-user example trace with slot-aligned end times 1..12.

    Layout: A[0,1], idle[1,2], then back-to-back unit successes B,B,C,C,B,A,
    C,B,C,A ending at 3..12, plus a trailing B[12,13] so the success at 12 has
    a successor.  Known answers: refresh moments A:{1,8,12}, B:{4,7,10},
    C:{6,9,11}; cycle times A:{7,4}, B:{6,3}, C:{3}.
    """
    events = [success(0, 1, "A"), idle(1, 2)]
    t = 2
    for ch in "BBCCBACBCA" + "B":
        events.append(success(t, t + 1, ch))
        t += 1
    return ChannelTrace.from_events(("A", "B", "C"), events, t)


def write_rows(trace: ChannelTrace, fp) -> None:
    """Trace file text from one f-string per event: the byte-for-byte
    reference for `ChannelTrace.write`."""
    char = {SUCCESS_CODE: "S", COLLISION_CODE: "C", IDLE_CODE: "I"}
    fp.write("#slots_per_unit=1\n")
    fp.write(f"#users={'+'.join(trace.users)}\n")
    fp.write(f"#horizon={trace.horizon}\n")
    label_of: dict[int, str] = {}
    rows = []
    for s, e, k, m in zip(trace.starts.tolist(), trace.ends.tolist(),
                          trace.kinds.tolist(), trace.masks.tolist()):
        who = label_of.get(m)
        if who is None:
            who = "+".join(u for b, u in enumerate(trace.users) if m >> b & 1)
            label_of[m] = who
        rows.append(f"{s},{e},{char[k]},{who}\n")
    fp.writelines(rows)


def read_rows(fp) -> ChannelTrace:
    """A whole file through the row parser, after a header pass of its own:
    the reference for `ChannelTrace.read`."""
    state = core._FileState()
    lines = fp.read().split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            state.header(line, line_no)
        elif line:
            body = "\n".join(lines[line_no - 1:])
            return state.trace(*core._parse_rows(body, state, line_no))
    return state.trace([], [], [], [])


def byte_matrix_keys(b: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray) -> np.ndarray:
    """Slot-table keys of the users fields b[lo:hi] built byte by byte:
    each field's bytes left-aligned in little-endian 64-bit words,
    zero-padded to the widest field's ceil(w / 8) words, one at least.  The
    reference for `core._users_keys`."""
    width = hi - lo
    w = int(width.max())
    rows = np.arange(w)[:, None]
    keys = np.zeros((len(lo), -(-w // 8) or 1), "<u8")
    keys.view(np.uint8)[:, :w] = (b.take(lo + rows, mode="clip")
                                  * (rows < width)).T
    return keys


def position_cycle_samples(trace: ChannelTrace) -> dict[str, np.ndarray]:
    """Per-user cycle samples by the search over single successes that the
    run search replaced: the bit-for-bit reference for `channel_cycle_time`.

    From each refresh position g of user u, q is the latest among every
    other user's first success after g (len(successes) when some user has
    none), and the cycle closes at u's first refresh position after q.
    """
    hit = np.flatnonzero(trace.kinds == SUCCESS_CODE)
    ends = trace.ends[hit]
    uidx = np.log2(trace.masks[hit].astype(np.float64)).astype(np.int64)
    samples = {}
    for i, user in enumerate(trace.users):
        pos = np.flatnonzero((uidx[:-1] == i) & (uidx[1:] != i))
        q = pos
        for v in range(len(trace.users)):
            if v != i:
                is_v = uidx == v
                occ = np.append(np.flatnonzero(is_v), len(uidx))
                q = np.maximum(q, occ[np.cumsum(is_v)[pos]])
        close = np.searchsorted(pos, q, "right")
        ok = close < len(pos)
        samples[user] = ends[pos[close[ok]]] - ends[pos[ok]]
    return samples


def handover_ends(trace: ChannelTrace, user: str) -> np.ndarray:
    """End times of the user's successes whose next success is another
    user's, straight from the trace's masks."""
    hit = trace.kinds == SUCCESS_CODE
    mine = trace.masks[hit] == 1 << trace.user_index(user)
    return trace.ends[hit][:-1][mine[:-1] & ~mine[1:]]


def nuser_trace(seed: int, n_events: int, n_users: int) -> ChannelTrace:
    """Seeded back-to-back success, collision and idle events with unequal
    success shares, so frequent users' cycles skip refresh moments."""
    rng = np.random.default_rng(seed)
    share = 0.6 ** np.arange(n_users)
    kinds = rng.choice(np.array([SUCCESS_CODE, COLLISION_CODE, IDLE_CODE],
                                np.int8), n_events, p=[0.6, 0.1, 0.3])
    winner = rng.choice(n_users, n_events, p=share / share.sum())
    one = rng.integers(0, n_users, n_events)
    other = (one + rng.integers(1, n_users, n_events)) % n_users
    masks = np.select([kinds == SUCCESS_CODE, kinds == COLLISION_CODE],
                      [1 << winner, (1 << one) | (1 << other)], 0)
    ends = np.cumsum(rng.integers(1, 40, n_events))
    starts = np.append(0, ends[:-1])
    return ChannelTrace(tuple(f"U{i}" for i in range(n_users)), starts, ends,
                        kinds, masks, int(ends[-1]))


def aloha_cycle_pmf(p_a: float, p_b: float, n_max: int) -> np.ndarray:
    """P(L = n) for n = 0..n_max, L one user's cycle time in two-user slotted
    Aloha with unit slots; both users' cycles follow this law.

    Success labels are i.i.d. (A with pi_A = s_a/s) and the gaps between
    success ends are i.i.d. Geom(s), s = s_a + s_b.  A cycle spans
    K = 2 + G_B + G_A successes, G_B ~ Geom0 stopping with pi_A and
    G_A ~ Geom0 stopping with pi_B, so
    P(L = n) = sum_k P(K = k) C(n-1, k-1) s^k (1-s)^(n-k).
    """
    s_a, s_b = p_a * (1 - p_b), p_b * (1 - p_a)
    s = s_a + s_b
    pi_a, pi_b = s_a / s, s_b / s
    m = np.arange(n_max + 1)
    p_k = np.zeros(n_max + 1)
    p_k[2:] = np.convolve(pi_a * pi_b ** m, pi_b * pi_a ** m)[:n_max - 1]
    # b[j] = P(j successes in the first n - 1 slots); the k-th success ends
    # slot n with probability s * b[k - 1].
    b = np.zeros(n_max + 1)
    b[0] = 1.0
    pmf = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        pmf[n] = s * (p_k[1:] @ b[:-1])
        b[1:] = b[1:] * (1 - s) + b[:-1] * s
        b[0] *= 1 - s
    return pmf


def reference_aloha_trace(params, config) -> ChannelTrace:
    """The two-user slotted Aloha trace of `sim.simulate_aloha` from one
    whole-array draw per user, `rng.random(n_slots) < p` on the user's own
    child stream of the run seed.  Every busy slot is one event and every
    maximal run of idle slots another; the events lying wholly inside
    [warmup, warmup + horizon) are kept and rebased to 0."""
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(2)]
    n = -(-(config.warmup + config.horizon) // params.slot)
    code = ((rngs[0].random(n) < params.p_a)
            + 2 * (rngs[1].random(n) < params.p_b).astype(np.int64))
    busy = code > 0
    first = np.flatnonzero(busy | np.r_[True, busy[:-1]])
    last = np.r_[first[1:], n]
    start = first * params.slot - config.warmup
    end = last * params.slot - config.warmup
    keep = (start >= 0) & (end <= config.horizon)
    masks = code[first][keep]
    kinds = np.array([IDLE_CODE, SUCCESS_CODE, SUCCESS_CODE,
                      COLLISION_CODE])[masks]
    return ChannelTrace(config.users, start[keep], end[keep], kinds, masks,
                        config.horizon)


def reference_csma_counters(params, config, mode) -> np.ndarray:
    """Both users' backoff counters at the start of every round of a two-user
    CSMA/CA run, from tick 0 until a round starts at or past warmup +
    horizon, as an (n, 2) array: the definitional loop for
    `sim.simulate_csma`.  Each backoff is one `rng.integers(1, cw + 1)` call
    on the user's own child stream of the run seed."""
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(2)]
    succ, coll = params.busy_slots(mode)
    stage = [0, 0]
    counter = [int(rng.integers(1, params.cw(0) + 1)) for rng in rngs]
    rows = []
    t = 0
    while t < config.warmup + config.horizon:
        rows.append(list(counter))
        low = min(counter)
        if counter[0] == counter[1]:
            t += params.l_difs + low + coll
            redraw = (0, 1)
            stage = [min(s + 1, params.beta) for s in stage]
        else:
            winner = counter.index(low)
            t += params.l_difs + low + succ
            counter[1 - winner] -= low + 1
            redraw = (winner,)
            stage[winner] = 0
        for u in redraw:
            counter[u] = int(rngs[u].integers(1, params.cw(stage[u]) + 1))
    return np.array(rows, np.int64)


def success_seq(trace: ChannelTrace) -> list[tuple[int, str]]:
    """(end, user) pairs of Success events, in trace order."""
    out = []
    for ev in trace.events():
        if ev.kind is EventKind.SUCCESS:
            out.append((ev.end, ev.user))
    return out


def brute_refresh_moments(trace: ChannelTrace, user: str) -> list[int]:
    """Definition scan: own success whose next success belongs to someone else."""
    seq = success_seq(trace)
    out = []
    for i in range(len(seq) - 1):
        if seq[i][1] == user and seq[i + 1][1] != user:
            out.append(seq[i][0])
    return out


def _m_counts(seq, t_lo: int, t_hi: int) -> dict[str, int]:
    """Successes per user with end time strictly inside (t_lo, t_hi)."""
    counts: dict[str, int] = {}
    for end, who in seq:
        if t_lo < end < t_hi:
            counts[who] = counts.get(who, 0) + 1
    return counts


def brute_cycle_times(trace: ChannelTrace, user: str) -> list[int]:
    """Literal quadratic scan over every ordered refresh-moment pair.

    A consecutive pair qualifies when every other user ends a success strictly
    inside it.  A nonconsecutive pair additionally requires that the interval
    up to the refresh moment closest to the right endpoint misses some user.
    """
    seq = success_seq(trace)
    refresh = brute_refresh_moments(trace, user)
    others = [u for u in trace.users if u != user]
    out = []
    for j, t0 in enumerate(refresh):
        for k in range(j + 1, len(refresh)):
            t1 = refresh[k]
            counts = _m_counts(seq, t0, t1)
            if not all(counts.get(u, 0) > 0 for u in others):
                continue
            if k > j + 1:
                t_prev = refresh[k - 1]
                inner = _m_counts(seq, t0, t_prev)
                if all(inner.get(u, 0) > 0 for u in others):
                    continue  # the witness interval is already covered
            out.append(t1 - t0)
    return out


def brute_cycle_intervals(trace: ChannelTrace, user: str) -> list[tuple[int, int]]:
    seq = success_seq(trace)
    refresh = brute_refresh_moments(trace, user)
    others = [u for u in trace.users if u != user]
    out = []
    for j, t0 in enumerate(refresh):
        for k in range(j + 1, len(refresh)):
            t1 = refresh[k]
            counts = _m_counts(seq, t0, t1)
            if not all(counts.get(u, 0) > 0 for u in others):
                continue
            if k > j + 1:
                inner = _m_counts(seq, t0, refresh[k - 1])
                if all(inner.get(u, 0) > 0 for u in others):
                    continue
            out.append((t0, t1))
    return out


def brute_part_splits(trace: ChannelTrace, user: str) -> list[PartSplit]:
    """Two-user split of each cycle (t0, t1) at the end of the owner's first
    success ending after t0: n_b counts the other user's successes ending
    strictly inside (t0, split), n_a' the owner's ending in (split, t1]."""
    seq = success_seq(trace)
    out = []
    for t0, t1 in brute_cycle_intervals(trace, user):
        split = min(end for end, who in seq if who == user and end > t0)
        n_b = sum(1 for end, who in seq if who != user and t0 < end < split)
        n_a = sum(1 for end, who in seq if who == user and split < end <= t1)
        out.append(PartSplit(n_b, n_a, split - t0, t1 - split))
    return out


def brute_success_time(trace: ChannelTrace) -> int:
    """Total length of the trace's Success events, summed event by event."""
    return sum(e - s for s, e, k in zip(trace.starts.tolist(),
                                        trace.ends.tolist(),
                                        trace.kinds.tolist())
               if k == SUCCESS_CODE)


def brute_inter_transmissions(trace: ChannelTrace, user: str) -> list[int]:
    seq = success_seq(trace)
    out = []
    since: int | None = None
    for _, who in seq:
        if who == user:
            if since is not None:
                out.append(since)
            since = 0
        elif since is not None:
            since += 1
    return out


@st.composite
def traces(draw, max_users: int = 3, max_events: int = 40,
           success_only: bool = False,
           labels: st.SearchStrategy[str] | None = None) -> ChannelTrace:
    """Random valid traces: sorted, disjoint events with legal participant
    sets, over users "A", "B", ... or distinct labels drawn from `labels`."""
    n_users = draw(st.integers(2, max_users))
    users = tuple("ABCDEF"[:n_users]) if labels is None else tuple(draw(
        st.lists(labels, min_size=n_users, max_size=n_users, unique=True)))
    n_events = draw(st.integers(0, max_events))
    events = []
    t = 0
    for _ in range(n_events):
        t += draw(st.integers(0, 3))  # gap; zero means back-to-back
        dur = draw(st.integers(1, 4))
        if success_only:
            kind = "S"
        else:
            kind = draw(st.sampled_from("SSSCI"))
        if kind == "S":
            events.append(success(t, t + dur, draw(st.sampled_from(users))))
        elif kind == "C":
            k = draw(st.integers(2, n_users))
            who = draw(st.permutations(list(users)))[:k]
            events.append(collision(t, t + dur, who))
        else:
            events.append(idle(t, t + dur))
        t += dur
    horizon = t + draw(st.integers(0, 3))
    return ChannelTrace.from_events(users, events, horizon)


# Labels `_check_label` accepts: a file's lines are stripped on reading, so a
# label may not end in whitespace, and files are UTF-8, so a label may hold no
# lone surrogate (category Cs).
_LABELS = st.text(st.characters(blacklist_categories=("Cs",),
                                blacklist_characters=",+\n\r#"),
                  min_size=1, max_size=4).filter(lambda s: s == s.rstrip())
_INT64 = st.integers(-2**63, 2**63 - 1)


@st.composite
def raw_traces(draw, max_events: int = 30) -> tuple:
    """`ChannelTrace` arguments straight from arrays, not necessarily valid:
    any int64 bounds (often near 2**62), kind codes (some of which int8
    would wrap) and masks, labels from any alphabet.  Two draws in three
    are instead a valid trace's arguments after up to three small edits,
    each aimed at one of the checks `validate_trace` makes, so that every
    check meets faults and valid traces occur too."""
    kind = st.one_of(st.integers(0, 2), st.integers(-128, 127), _INT64)
    if draw(st.integers(0, 2)) == 0:
        users = tuple(draw(st.lists(_LABELS, min_size=1, max_size=5,
                                    unique=True)))
        n = draw(st.integers(0, max_events))

        def column(values):
            return draw(st.lists(values, min_size=n, max_size=n))

        bound = st.one_of(st.integers(0, 10**6),
                          st.integers(2**62 - 99, 2**62 + 99), _INT64)
        mask = st.one_of(st.integers(0, 2**len(users) - 1), _INT64)
        return (users, column(bound), column(bound), column(kind),
                column(mask), draw(_INT64))
    tr = draw(traces(max_users=5, max_events=max_events))
    starts, ends, kinds, masks = (a.tolist() for a in
                                  (tr.starts, tr.ends, tr.kinds, tr.masks))
    horizon = tr.horizon
    mask = st.one_of(st.integers(0, 2**len(tr.users) - 1), _INT64)
    for _ in range(draw(st.integers(0, 3)) if len(tr) else 0):
        i = draw(st.integers(0, len(tr) - 1))
        edit = draw(st.sampled_from(["start", "end", "swap", "horizon",
                                     "kind", "mask"]))
        if edit == "start":  # before slot 0, or into the previous event
            starts[i] -= draw(st.integers(1, 4))
        elif edit == "end":  # empty, or into the next event or past the horizon
            ends[i] += draw(st.integers(-4, 4))
        elif edit == "swap" and i:  # out of order
            for col in (starts, ends, kinds, masks):
                col[i - 1], col[i] = col[i], col[i - 1]
        elif edit == "horizon":
            horizon += draw(st.integers(-3, 3))
        elif edit == "kind":
            kinds[i] = draw(kind)
        elif edit == "mask":
            masks[i] = draw(mask)
    return tr.users, starts, ends, kinds, masks, horizon


@st.composite
def wide_traces(draw, max_events: int = 30) -> ChannelTrace:
    """Valid traces whose bounds reach 2**63 - 1 (often near 2**62 or the
    top of int64), with any legal participant sets and labels from any
    alphabet."""
    users = tuple(draw(st.lists(_LABELS, min_size=1, max_size=5, unique=True)))
    n = draw(st.integers(0, max_events))
    bound = st.one_of(st.integers(0, 10**6), st.integers(2**62 - 99, 2**62 + 99),
                      st.integers(2**63 - 99, 2**63 - 1),
                      st.integers(0, 2**63 - 1))
    # 2n distinct values in order: event i spans the i-th pair.
    edges = sorted(draw(st.lists(bound, min_size=2 * n, max_size=2 * n,
                                 unique=True)))
    who = st.integers(0, len(users) - 1)
    kinds, masks = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(
            [SUCCESS_CODE, IDLE_CODE] + [COLLISION_CODE] * (len(users) > 1)))
        if kind == SUCCESS_CODE:
            mask = 1 << draw(who)
        elif kind == COLLISION_CODE:
            mask = sum(1 << b for b in draw(st.sets(who, min_size=2)))
        else:
            mask = 0
        kinds.append(kind)
        masks.append(mask)
    horizon = draw(st.integers(edges[-1] if n else 0, 2**63 - 1))
    return ChannelTrace(users, edges[0::2], edges[1::2], kinds, masks, horizon)


def validity_fault(users, starts, ends, kinds, masks, horizon):
    """(exception class, event) of the fault `validate_trace` reports on
    these `ChannelTrace` arguments, or None when they are valid: one scan
    over the events per check, the checks in `validate_trace`'s order.  The
    event is the one its message names first, None for a negative horizon
    with no events."""
    n = len(starts)
    if n == 0:
        return (TraceError, None) if horizon < 0 else None
    if starts[0] < 0:
        return TraceError, 0
    n_users = [bin(m).count("1") for m in masks]
    checks = [
        (TraceError, lambda i: ends[i] <= starts[i]),
        # Every event is non-empty here, so an order fault is also an overlap
        # fault, and is the one reported.
        (OrderError, lambda i: i > 0 and starts[i] < starts[i - 1]),
        (OverlapError, lambda i: i + 1 < n and starts[i + 1] < ends[i]),
        (TraceError, lambda i: ends[i] > horizon),
        (UnknownUserError, lambda i: masks[i] < 0 or masks[i] >> len(users)),
        (TraceError, lambda i: kinds[i] not in (0, 1, 2)),
        (TraceError, lambda i: kinds[i] == SUCCESS_CODE and n_users[i] != 1),
        (TraceError, lambda i: kinds[i] == COLLISION_CODE and n_users[i] < 2),
        (TraceError, lambda i: kinds[i] == IDLE_CODE and n_users[i] != 0),
    ]
    for error, fault in checks:
        for i in range(n):
            if fault(i):
                return error, i
    return None
