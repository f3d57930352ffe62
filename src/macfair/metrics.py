"""Short-term fairness metrics over channel traces.

The central quantity is the per-user cycle time: the span from a refresh
moment of a user to the earliest later refresh moment such that every other
user completed at least one successful transmission strictly inside the span.
Averaging per-user mean cycle times over the user set gives the channel cycle
time, a single figure for how long the channel takes to serve everybody once
more.

Cycles are found over success runs.  Collapse the trace's successes into
runs of one user's successes, numbered in order.  The last success of every
run but the final one is a refresh moment of the run's owner, and these are
all the refresh moments.

With two users the runs alternate between them, so the other user first
succeeds again at run k + 1 and the owner at k + 2: the cycle opened at
refresh run k closes at run k + 2, if that is not the final run.  Two-user
cycles are read off the run numbers by this rule, with no search: each
user's opening and closing runs are two stride-2 slices.

Any other user count takes one vectorized search that finds every user's
cycles at once; on two-user runs it gives the same cycles as the rule, so
every psi and cycle sample is the same whichever finds them.  From refresh
run k, let m be the latest first appearance over all users: the latest
among every user's first run after k, the owner's included.  The cycle
closes at the owner's first run at or after m.  If some user has no run
after k, or the owner's run at or after m is the final run or does not
exist, no cycle starts at k.  When the owner comes back last, m is that
return itself; otherwise the close is the owner's first refresh run after
every other user has succeeded.
m comes from next-run pointers: point every run at its owner's next run,
or at n past the owner's last.  A user with a run at or before k next
appears at the pointer of its last such run, the largest of its pointers
up to k, and a user with none first appears at its first run.  So m is the
running maximum of the pointers up to k, raised to the latest first run
over users.  Each owner's closes are then one binary search in its runs.

`refresh_moments`, `cycle_intervals` and `channel_cycle_time` read the runs
from `ChannelTrace.run_ends`: each run's user index and the end time of its
last success, decoded once per trace from the masks block by block, so they
build no array a success long.  `part_decomposition` and the
inter-transmission counts need every success, and read the success
sequence from `ChannelTrace.success_index`, decoded once per trace from the
masks.  `throughput` reads the masks itself, block by block.  No metric
reads `ChannelTrace.kinds`.  Cycles, and the two parts of a two-user cycle,
are found as run numbers; end times are gathered at those runs (through
the success positions, for the parts) last, and the two-user rule's slices
make each user's samples one subtraction of two views.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _BLOCK, ChannelTrace, TraceError, _int_list, _one_user


class TooFewUsersError(TraceError):
    """The metric needs more users than the trace provides."""


def _success_runs(trace: ChannelTrace) -> tuple[np.ndarray, ...]:
    """Trace indices of the successes, the success position ending each run
    of one user's successes, and each run's user index."""
    hit, uidx = trace.success_index
    edge = np.ones(len(uidx), bool)
    np.not_equal(uidx[1:], uidx[:-1], out=edge[:-1])
    last = np.flatnonzero(edge)
    return hit, last, uidx.take(last)


def _cycle_runs(label: np.ndarray, n_users: int) -> list[tuple]:
    """Runs opening and closing each user's cycles: one (start, close) pair
    a user, each an index into per-run arrays.

    Two users' runs alternate, so the cycle opened at run k closes at run
    k + 2 and is kept while k + 2 is before the final run, k <= n - 4: each
    user's starts and closes are two stride-2 slices.  Any other user count
    takes `_cycle_search`, whose pairs are arrays of run numbers.
    """
    if n_users != 2:
        return _cycle_search(label, n_users)
    n = len(label)
    stop = max(n - 3, 0)
    # The user owning run 0 opens at the even runs, the other at the odd.
    owner = int(label[0]) if n else 0
    return [(slice(v ^ owner, stop, 2), slice((v ^ owner) + 2, stop + 2, 2))
            for v in range(2)]


def _cycle_search(label: np.ndarray,
                  n_users: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Runs opening and closing each user's cycles, by the next-run rule of
    the module docstring, for any number of users."""
    n = len(label)
    # Each user's runs, closed by the sentinel n.
    runs = [np.append(np.flatnonzero(label == v), n) for v in range(n_users)]
    # Every run points at its owner's next run; then entry k becomes m.
    latest = np.empty(n, np.intp)
    for r in runs:
        latest[r[:-1]] = r[1:]
    np.maximum.accumulate(latest, out=latest)
    np.maximum(latest, max(int(r[0]) for r in runs), out=latest)
    cycles = []
    for r in runs:
        start = r[:np.searchsorted(r, n - 1)]  # every run but the final one
        close = r.take(np.searchsorted(r, latest.take(start)))
        # latest never decreases, so neither does close: the cycles that
        # close before the final run are a prefix.
        k = np.count_nonzero(close < n - 1)
        cycles.append((start[:k], close[:k]))
    return cycles


def refresh_moments(trace: ChannelTrace, user: str) -> np.ndarray:
    """End times of the user's successes whose next success belongs to someone else.

    A success followed by another success of the same user is not a refresh
    moment, and neither is the final success of the trace (it has no successor
    to hand the channel to).
    """
    i = trace.user_index(user)
    label, t = trace.run_ends
    return t[:-1][label[:-1] == i]


def cycle_intervals(trace: ChannelTrace, user: str) -> np.ndarray:
    """(start, end) refresh-moment pairs delimiting the user's cycles, shape (k, 2)."""
    i = trace.user_index(user)
    label, t = trace.run_ends
    start, close = _cycle_runs(label, len(trace.users))[i]
    return np.column_stack([t[start], t[close]])


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
        means = self.per_user_mean()
        return {
            "psi_slots": self.psi_slots,
            "psi_undefined": self.psi_undefined,
            "users": [
                {"user": u,
                 "cycle_samples": self.per_user_samples[u].tolist(),
                 "mean_slots": means.get(u)}
                for u in self.users
            ],
        }

    def to_text(self) -> str:
        lines = []
        psi = "nan" if self.psi_slots is None else f"{self.psi_slots:.6f}"
        lines.append(f"psi_slots={psi}")
        lines.append(f"psi_undefined={'true' if self.psi_undefined else 'false'}")
        for u in self.users:
            samples = _int_list(self.per_user_samples[u])
            lines.append(f"user={u} cycle_samples={samples}")
        return "\n".join(lines) + "\n"


def channel_cycle_time(trace: ChannelTrace) -> CycleTimeReport:
    """Average the per-user mean cycle times into one channel-wide figure."""
    if len(trace.users) < 2:
        raise TooFewUsersError("channel cycle time needs at least two users")
    label, t = trace.run_ends
    samples = {u: t[close] - t[start] for u, (start, close)
               in zip(trace.users, _cycle_runs(label, len(trace.users)))}
    missing = tuple(u for u in trace.users if len(samples[u]) == 0)
    if missing:
        return CycleTimeReport(trace.users, samples, None, True, missing)
    psi = float(np.mean([samples[u].mean() for u in trace.users]))
    return CycleTimeReport(trace.users, samples, psi, False, ())


def inter_transmissions(trace: ChannelTrace, user: str) -> np.ndarray:
    """Counts of other users' successes between the user's consecutive successes."""
    i = trace.user_index(user)
    return _gaps(trace.success_index[1], i)


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
            "intertx_users": [{"user": u,
                               "counts": self.per_user_counts[u].tolist()}
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
    _, uidx = trace.success_index
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
    hit, last, label = _success_runs(trace)
    opens, closes = _cycle_runs(label, 2)[i]
    # Runs alternate between the two users: the run after the start is the
    # other user's turn, the close is the run after that, and the success
    # right after the other user's run is the split.
    turns = slice(opens.start + 1, opens.stop + 1, 2)
    start, close = last[opens], last[closes]
    split = last[turns] + 1
    t0, t_split, t1 = (trace.ends.take(hit.take(p))
                       for p in (start, split, close))
    n_b = split - start - 1
    n_a_prime = close - split
    part1 = t_split - t0
    part2 = t1 - t_split
    return [PartSplit(*split) for split in zip(
        n_b.tolist(), n_a_prime.tolist(), part1.tolist(), part2.tolist())]


def throughput(trace: ChannelTrace) -> float:
    """Fraction of the horizon spent in successful transmissions."""
    if trace.horizon <= 0:
        raise TraceError("throughput needs a positive horizon")
    busy = 0
    for lo in range(0, len(trace), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        length = trace.ends[block] - trace.starts[block]
        length *= _one_user(trace.masks[block])
        busy += int(length.sum())
    return busy / trace.horizon
