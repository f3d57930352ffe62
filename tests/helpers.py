"""Shared trace builders, literal-definition oracles, and hypothesis strategies.

The oracles re-implement the metric definitions as direct quadratic scans so
the production (vectorized) code can be checked against an independent source.
"""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from macfair.core import ChannelEvent, ChannelTrace, EventKind, collision, idle, success
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
           success_only: bool = False) -> ChannelTrace:
    """Random valid traces: sorted, disjoint events with legal participant sets."""
    n_users = draw(st.integers(2, max_users))
    users = tuple("ABCDEF"[:n_users])
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
