"""Short-term fairness metrics over channel traces.

The central quantity is the per-user cycle time: the span from a refresh
moment of a user to the earliest later refresh moment such that every other
user completed at least one successful transmission strictly inside the span.
Averaging per-user mean cycle times over the user set gives the channel cycle
time, a single figure for how long the channel takes to serve everybody once
more.

Cycles are found by the next-occurrence rule, one vectorized search for any
number of users.  Number the successes of the trace in order.  From each
refresh position g of user u, let q be the latest among every other user's
first success after g.  The cycle closes at u's first refresh position after
q; if some other user never succeeds after g, or u has no refresh position
after q, no cycle starts at g.

Cycles, and the two parts of a two-user cycle, are positions in this
success sequence; end times are gathered at those positions last.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SUCCESS_CODE,
    ChannelTrace,
    TraceError,
)


class TooFewUsersError(TraceError):
    """The metric needs more users than the trace provides."""


def _success_seq(trace: ChannelTrace) -> tuple[np.ndarray, np.ndarray]:
    """End times and user indices of all Success events, in trace order."""
    hit = np.flatnonzero(trace.kinds == SUCCESS_CODE)
    ends = trace.ends.take(hit)
    # Success masks are single-bit, so log2 recovers the user index exactly.
    uidx = np.log2(trace.masks.take(hit).astype(np.float64)).astype(np.int64)
    return ends, uidx


def _refresh_positions(uidx: np.ndarray, i: int) -> np.ndarray:
    """Success positions of user i whose next success belongs to someone else."""
    return np.flatnonzero((uidx[:-1] == i) & (uidx[1:] != i))


def refresh_moments(trace: ChannelTrace, user: str) -> np.ndarray:
    """End times of the user's successes whose next success belongs to someone else.

    A success followed by another success of the same user is not a refresh
    moment, and neither is the final success of the trace (it has no successor
    to hand the channel to).
    """
    i = trace.user_index(user)
    ends, uidx = _success_seq(trace)
    return ends[_refresh_positions(uidx, i)]


def cycle_intervals(trace: ChannelTrace, user: str) -> np.ndarray:
    """(start, end) refresh-moment pairs delimiting the user's cycles, shape (k, 2)."""
    i = trace.user_index(user)
    ends, uidx = _success_seq(trace)
    start, close = _cycle_positions(uidx, i, len(trace.users))
    return np.column_stack([ends[start], ends[close]])


def _cycle_positions(uidx: np.ndarray, i: int,
                     n_users: int) -> tuple[np.ndarray, np.ndarray]:
    """Success positions opening and closing user i's cycles, by the
    next-occurrence rule of the module docstring."""
    pos = _refresh_positions(uidx, i)
    q = pos
    for v in range(n_users):
        if v != i:
            is_v = uidx == v
            # Position of v's first success after each refresh position; the
            # sentinel len(uidx) marks "none", which no refresh position passes.
            occ = np.append(np.flatnonzero(is_v), len(uidx))
            q = np.maximum(q, occ[np.cumsum(is_v)[pos]])
    close = np.searchsorted(pos, q, "right")
    ok = close < len(pos)
    return pos[ok], pos[close[ok]]


def cycle_times(trace: ChannelTrace, user: str) -> np.ndarray:
    """Durations of the user's cycles, in slots."""
    iv = cycle_intervals(trace, user)
    return iv[:, 1] - iv[:, 0]


@dataclass(frozen=True)
class CycleTimeReport:
    """Per-user cycle samples plus the channel-wide average.

    psi_slots is the mean of per-user mean cycle times; it is None (and
    psi_undefined True) whenever some user contributed no cycle at all.
    """

    users: tuple[str, ...]
    per_user_samples: dict[str, np.ndarray]
    psi_slots: float | None
    psi_undefined: bool
    users_without_samples: tuple[str, ...]

    def per_user_mean(self) -> dict[str, float]:
        return {u: float(s.mean()) for u, s in self.per_user_samples.items()
                if len(s)}

    def as_dict(self) -> dict:
        return {
            "psi_slots": self.psi_slots,
            "psi_undefined": self.psi_undefined,
            "users": [
                {"user": u,
                 "cycle_samples": self.per_user_samples[u].tolist(),
                 "mean_slots": (float(self.per_user_samples[u].mean())
                                if len(self.per_user_samples[u]) else None)}
                for u in self.users
            ],
        }

    def to_text(self) -> str:
        lines = []
        psi = "nan" if self.psi_slots is None else f"{self.psi_slots:.6f}"
        lines.append(f"psi_slots={psi}")
        lines.append(f"psi_undefined={'true' if self.psi_undefined else 'false'}")
        for u in self.users:
            samples = ",".join(map(str, self.per_user_samples[u].tolist()))
            lines.append(f"user={u} cycle_samples={samples}")
        return "\n".join(lines) + "\n"


def channel_cycle_time(trace: ChannelTrace) -> CycleTimeReport:
    """Average the per-user mean cycle times into one channel-wide figure."""
    if len(trace.users) < 2:
        raise TooFewUsersError("channel cycle time needs at least two users")
    ends, uidx = _success_seq(trace)
    samples = {}
    for i, u in enumerate(trace.users):
        start, close = _cycle_positions(uidx, i, len(trace.users))
        samples[u] = ends[close] - ends[start]
    missing = tuple(u for u in trace.users if len(samples[u]) == 0)
    if missing:
        return CycleTimeReport(trace.users, samples, None, True, missing)
    psi = float(np.mean([samples[u].mean() for u in trace.users]))
    return CycleTimeReport(trace.users, samples, psi, False, ())


def inter_transmissions(trace: ChannelTrace, user: str) -> np.ndarray:
    """Counts of other users' successes between the user's consecutive successes."""
    i = trace.user_index(user)
    return _gaps(_success_seq(trace)[1], i)


def _gaps(uidx: np.ndarray, i: int) -> np.ndarray:
    """Other users' successes between user i's consecutive successes."""
    return np.diff(np.flatnonzero(uidx == i)) - 1


@dataclass(frozen=True)
class InterTxReport:
    """Pooled distribution of the per-gap counts of interleaving successes."""

    users: tuple[str, ...]
    per_user_counts: dict[str, np.ndarray]
    pooled_pmf: dict[int, float]
    mean: float | None

    def as_dict(self) -> dict:
        return {
            "intertx_pmf": {str(k): v for k, v in self.pooled_pmf.items()},
            "intertx_mean": self.mean,
            "users": [{"user": u, "counts": self.per_user_counts[u].tolist()}
                      for u in self.users],
        }

    def to_text(self) -> str:
        pmf = ",".join(f"{k}:{v:.6f}" for k, v in sorted(self.pooled_pmf.items()))
        mean = "nan" if self.mean is None else f"{self.mean:.6f}"
        return f"intertx_pmf={pmf}\nintertx_mean={mean}\n"


def inter_transmission_report(trace: ChannelTrace) -> InterTxReport:
    """Pool every user's inter-transmission counts into one empirical pmf."""
    if len(trace.users) < 2:
        raise TooFewUsersError("inter-transmission counts need at least two users")
    _, uidx = _success_seq(trace)
    counts = {u: _gaps(uidx, i) for i, u in enumerate(trace.users)}
    pooled = np.concatenate(list(counts.values()))
    if len(pooled) == 0:
        return InterTxReport(trace.users, counts, {}, None)
    freq = np.bincount(pooled)
    total = len(pooled)
    pmf = {int(k): float(c) / total for k, c in enumerate(freq) if c}
    return InterTxReport(trace.users, counts, pmf, float(pooled.mean()))


@dataclass(frozen=True)
class PartSplit:
    """One cycle of a two-user trace, split at the end of the owner's first success.

    n_b counts the other user's successes before the split, n_a_prime the
    owner's further successes after it; t_part1 + t_part2 is the cycle time.
    """

    n_b: int
    n_a_prime: int
    t_part1: int
    t_part2: int


def part_decomposition(trace: ChannelTrace, user: str) -> list[PartSplit]:
    """Split each of the user's cycles at the end of their first success inside it.

    With two users every success between a cycle's start and the split is the
    other user's, and every one after the split up to the close is the owner's.
    """
    if len(trace.users) != 2:
        raise TooFewUsersError("the two-part split is defined for two-user traces")
    i = trace.user_index(user)
    ends, uidx = _success_seq(trace)
    start, close = _cycle_positions(uidx, i, 2)
    own = np.flatnonzero(uidx == i)
    split = own[np.searchsorted(own, start, "right")]
    n_b = split - start - 1
    n_a_prime = close - split
    part1 = ends[split] - ends[start]
    part2 = ends[close] - ends[split]
    return [PartSplit(int(b), int(a), int(p1), int(p2))
            for b, a, p1, p2 in zip(n_b, n_a_prime, part1, part2)]


def throughput(trace: ChannelTrace) -> float:
    """Fraction of the horizon spent in successful transmissions."""
    if trace.horizon <= 0:
        raise TraceError("throughput needs a positive horizon")
    hit = np.flatnonzero(trace.kinds == SUCCESS_CODE)
    busy = int((trace.ends.take(hit) - trace.starts.take(hit)).sum())
    return busy / trace.horizon
