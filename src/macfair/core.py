"""Shared vocabulary for slot-level MAC experiments: time units, protocol
parameters, and the channel trace record that simulators emit and metrics consume.

All durations are integer slot counts.  Conversion to physical time happens only
at the presentation edge (CLI output, file headers), never inside the math.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, TextIO

import numpy as np

Tick = int

MICROS_PER_SLOT = 20   # physical duration of one slot, in microseconds
_MAX_USERS = 63        # participant sets are stored as int64 bitmasks


class TraceError(ValueError):
    """Structural problem in a channel trace or its construction inputs."""


class OverlapError(TraceError):
    """Two events occupy overlapping slot ranges."""


class OrderError(TraceError):
    """Events are not sorted by start time."""


class UnknownUserError(TraceError):
    """A user label is not part of the trace's user set."""


class UnitError(TraceError):
    """A physical duration is not a whole number of slots."""


class TraceParseError(TraceError):
    """A trace file could not be parsed; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def us_to_slots(micros: int, micros_per_slot: int = MICROS_PER_SLOT) -> int:
    """Convert microseconds to slots.  Rejects amounts that would lose precision."""
    if micros_per_slot <= 0:
        raise UnitError("micros_per_slot must be positive")
    q, r = divmod(int(micros), int(micros_per_slot))
    if r:
        raise UnitError(
            f"{micros} us is not a whole number of {micros_per_slot} us slots"
        )
    return q


def slots_to_us(slots: int, micros_per_slot: int = MICROS_PER_SLOT) -> int:
    """Convert a slot count to microseconds."""
    if micros_per_slot <= 0:
        raise UnitError("micros_per_slot must be positive")
    return int(slots) * int(micros_per_slot)


class EventKind(Enum):
    SUCCESS = "S"
    COLLISION = "C"
    IDLE = "I"


# int8 codes used in ChannelTrace arrays
SUCCESS_CODE = 0
COLLISION_CODE = 1
IDLE_CODE = 2

_KIND_TO_CODE = {EventKind.SUCCESS: SUCCESS_CODE,
                 EventKind.COLLISION: COLLISION_CODE,
                 EventKind.IDLE: IDLE_CODE}
_CODE_TO_KIND = {c: k for k, c in _KIND_TO_CODE.items()}
_CHAR_TO_CODE = {k.value: c for k, c in _KIND_TO_CODE.items()}
_CODE_TO_CHAR = {c: k.value for k, c in _KIND_TO_CODE.items()}


@dataclass(frozen=True)
class ChannelEvent:
    """One contiguous stretch of channel time.

    Success events carry exactly one user, collisions at least two, idle none.
    `end` is exclusive: the event occupies slots [start, end).
    """

    start: int
    end: int
    kind: EventKind
    users: tuple[str, ...] = ()

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise TraceError(f"bad event bounds [{self.start}, {self.end})")
        n = len(self.users)
        if self.kind is EventKind.SUCCESS and n != 1:
            raise TraceError("a Success event names exactly one user")
        if self.kind is EventKind.COLLISION and n < 2:
            raise TraceError("a Collision event names at least two users")
        if self.kind is EventKind.IDLE and n != 0:
            raise TraceError("an Idle event names no users")

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def user(self) -> str:
        """Sole participant of a Success event."""
        if self.kind is not EventKind.SUCCESS:
            raise TraceError("only Success events have a single user")
        return self.users[0]


def success(start: int, end: int, user: str) -> ChannelEvent:
    return ChannelEvent(start, end, EventKind.SUCCESS, (user,))


def collision(start: int, end: int, users: Iterable[str]) -> ChannelEvent:
    return ChannelEvent(start, end, EventKind.COLLISION, tuple(users))


def idle(start: int, end: int) -> ChannelEvent:
    return ChannelEvent(start, end, EventKind.IDLE)


def _check_label(label: str) -> str:
    if not label or any(ch in label for ch in ",+\n\r") or label.startswith("#"):
        raise TraceError(f"invalid user label {label!r}")
    return label


@dataclass(frozen=True, eq=False)
class ChannelTrace:
    """Immutable, array-backed sequence of channel events.

    Events are stored as parallel numpy arrays so that ten-million-slot runs
    stay cheap to scan.  `masks` holds per-event participant sets as bitmasks
    over `users` (bit i set means users[i] took part).
    """

    users: tuple[str, ...]
    starts: np.ndarray
    ends: np.ndarray
    kinds: np.ndarray
    masks: np.ndarray
    horizon: int

    def __post_init__(self):
        users = tuple(_check_label(u) for u in self.users)
        if len(set(users)) != len(users):
            raise TraceError("duplicate user labels")
        if len(users) > _MAX_USERS:
            raise TraceError(f"at most {_MAX_USERS} users supported")
        object.__setattr__(self, "users", users)
        for name, dtype in (("starts", np.int64), ("ends", np.int64),
                            ("kinds", np.int8), ("masks", np.int64)):
            arr = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = len(self.starts)
        if not (len(self.ends) == len(self.kinds) == len(self.masks) == n):
            raise TraceError("event arrays have mismatched lengths")
        object.__setattr__(self, "horizon", int(self.horizon))

    @classmethod
    def from_events(cls, users: Iterable[str], events: Iterable[ChannelEvent],
                    horizon: int) -> "ChannelTrace":
        users = tuple(users)
        index = {u: i for i, u in enumerate(users)}
        starts, ends, kinds, masks = [], [], [], []
        for ev in events:
            mask = 0
            for u in ev.users:
                if u not in index:
                    raise UnknownUserError(f"event user {u!r} not in {users}")
                mask |= 1 << index[u]
            starts.append(ev.start)
            ends.append(ev.end)
            kinds.append(_KIND_TO_CODE[ev.kind])
            masks.append(mask)
        return cls(users, np.asarray(starts, np.int64), np.asarray(ends, np.int64),
                   np.asarray(kinds, np.int8), np.asarray(masks, np.int64),
                   horizon)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i: int) -> ChannelEvent:
        mask = int(self.masks[i])
        users = tuple(u for b, u in enumerate(self.users) if mask >> b & 1)
        return ChannelEvent(int(self.starts[i]), int(self.ends[i]),
                            _CODE_TO_KIND[int(self.kinds[i])], users)

    def events(self) -> Iterator[ChannelEvent]:
        for i in range(len(self)):
            yield self[i]

    def user_index(self, user: str) -> int:
        try:
            return self.users.index(user)
        except ValueError:
            raise UnknownUserError(f"unknown user {user!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChannelTrace):
            return NotImplemented
        return (self.users == other.users and self.horizon == other.horizon
                and np.array_equal(self.starts, other.starts)
                and np.array_equal(self.ends, other.ends)
                and np.array_equal(self.kinds, other.kinds)
                and np.array_equal(self.masks, other.masks))

    # -- file format ---------------------------------------------------------
    # One event per line: start,end,kind,users with kind in {S,C,I} and users
    # a +-joined list (empty for idle).  Lines starting with # are headers
    # (slots_per_unit, users, horizon) and must all precede the first event.

    def write(self, fp: TextIO) -> None:
        fp.write("#slots_per_unit=1\n")
        fp.write(f"#users={'+'.join(self.users)}\n")
        fp.write(f"#horizon={self.horizon}\n")
        label_of: dict[int, str] = {}
        rows = []
        for s, e, k, m in zip(self.starts.tolist(), self.ends.tolist(),
                              self.kinds.tolist(), self.masks.tolist()):
            who = label_of.get(m)
            if who is None:
                who = "+".join(u for b, u in enumerate(self.users) if m >> b & 1)
                label_of[m] = who
            rows.append(f"{s},{e},{_CODE_TO_CHAR[k]},{who}\n")
        fp.writelines(rows)

    def to_file(self, path) -> None:
        with open(path, "w") as fp:
            self.write(fp)

    @classmethod
    def read(cls, fp: TextIO) -> "ChannelTrace":
        scale = 1
        users: tuple[str, ...] | None = None
        horizon: int | None = None
        starts, ends, kinds, masks = [], [], [], []
        index: dict[str, int] = {}
        mask_of: dict[str, int] = {}  # users field -> its mask, once checked
        headers: set[str] = set()
        for line_no, raw in enumerate(fp, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if starts:
                    raise TraceParseError(line_no, "header after the first event")
                key, _, value = line[1:].partition("=")
                if key in headers:
                    raise TraceParseError(line_no, f"repeated header {key!r}")
                headers.add(key)
                if key == "slots_per_unit":
                    try:
                        scale = int(value)
                    except ValueError:
                        raise TraceParseError(line_no, f"bad slots_per_unit {value!r}")
                    if scale <= 0:
                        raise TraceParseError(line_no, "slots_per_unit must be positive")
                elif key == "users":
                    users = tuple(value.split("+")) if value else ()
                    index = {u: i for i, u in enumerate(users)}
                elif key == "horizon":
                    try:
                        horizon = int(value)
                    except ValueError:
                        raise TraceParseError(line_no, f"bad horizon {value!r}")
                else:
                    raise TraceParseError(line_no, f"unknown header {key!r}")
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise TraceParseError(line_no, "expected start,end,kind,users")
            s_str, e_str, kind_str, who = parts
            try:
                s, e = int(s_str), int(e_str)
            except ValueError:
                raise TraceParseError(line_no, f"bad slot bounds {s_str!r},{e_str!r}")
            code = _CHAR_TO_CODE.get(kind_str)
            if code is None:
                raise TraceParseError(line_no, f"unknown event kind {kind_str!r}")
            mask = mask_of.get(who)
            if mask is None:
                mask = 0
                if who:
                    for u in who.split("+"):
                        if u not in index:
                            if users is not None:
                                raise TraceParseError(line_no, f"unknown user {u!r}")
                            index[u] = len(index)
                        mask |= 1 << index[u]
                mask_of[who] = mask
            # Scaled per line: an int64 array scaled afterwards would wrap
            # silently on overflow.
            starts.append(s * scale)
            ends.append(e * scale)
            kinds.append(code)
            masks.append(mask)
        if users is None:
            users = tuple(index)
        ends_arr = np.asarray(ends, np.int64)
        if horizon is None:
            horizon = int(ends_arr.max(initial=0))
        return cls(users, np.asarray(starts, np.int64), ends_arr,
                   np.asarray(kinds, np.int8), np.asarray(masks, np.int64), horizon)

    @classmethod
    def from_file(cls, path) -> "ChannelTrace":
        with open(path) as fp:
            return cls.read(fp)


def validate_trace(trace: ChannelTrace) -> ChannelTrace:
    """Check structural invariants; returns the trace unchanged when sound.

    Events must be sorted by start, non-overlapping, zero-length free, inside
    [0, horizon], and each event's participant set must match its kind.
    """
    s, e, k, m = trace.starts, trace.ends, trace.kinds, trace.masks
    if len(s) == 0:
        if trace.horizon < 0:
            raise TraceError("negative horizon")
        return trace
    if int(s[0]) < 0:
        raise TraceError("event starts before slot 0")
    if np.any(e <= s):
        i = int(np.flatnonzero(e <= s)[0])
        raise TraceError(f"event {i} is empty or reversed")
    if np.any(s[1:] < s[:-1]):
        i = int(np.flatnonzero(s[1:] < s[:-1])[0])
        raise OrderError(f"event {i + 1} starts before event {i}")
    if np.any(s[1:] < e[:-1]):
        i = int(np.flatnonzero(s[1:] < e[:-1])[0])
        raise OverlapError(f"events {i} and {i + 1} overlap")
    if int(e[-1]) > trace.horizon:
        raise TraceError("event extends past the horizon")
    if np.any(m >> len(trace.users)):
        raise UnknownUserError("event mask uses bits beyond the user set")
    # Masks are non-negative here, so m & (m - 1) clears the lowest set bit
    # and is non-zero exactly when two or more users take part.
    multi = (m & (m - 1)) != 0
    if np.any((k == SUCCESS_CODE) & ((m == 0) | multi)):
        raise TraceError("Success events must name exactly one user")
    if np.any((k == COLLISION_CODE) & ~multi):
        raise TraceError("Collision events must name at least two users")
    if np.any((k == IDLE_CODE) & (m != 0)):
        raise TraceError("Idle events must name no users")
    return trace


def successes_of(trace: ChannelTrace, user: str) -> list[ChannelEvent]:
    """Ordered Success events of one user."""
    bit = 1 << trace.user_index(user)
    hit = np.flatnonzero((trace.kinds == SUCCESS_CODE) & (trace.masks & bit != 0))
    return [trace[int(i)] for i in hit]


@dataclass(frozen=True)
class AlohaParams:
    """Two-user slotted Aloha: per-slot transmit probabilities, slot length in ticks."""

    p_a: float
    p_b: float
    slot: int = 1

    def __post_init__(self):
        for name, p in (("p_a", self.p_a), ("p_b", self.p_b)):
            if not 0.0 <= p <= 1.0:
                raise TraceError(f"{name}={p} outside [0, 1]")
        if self.slot < 1:
            raise TraceError("slot length must be at least 1 tick")


class CsmaMode(Enum):
    RTS_CTS = "rtscts"
    BASIC = "basic"


@dataclass(frozen=True)
class CsmaParams:
    """Two-user CSMA/CA with binary exponential backoff.

    Windows double from cw_min over `beta` retry stages and then freeze, so the
    largest window is 2**beta * cw_min.  All frame durations are slot counts;
    the ACK is folded into the data exchange (l_tran = l_pkt + l_ack).
    """

    cw_min: int
    beta: int
    l_difs: int
    l_pkt: int
    l_ack: int = 1
    l_rts: int = 1
    l_cts: int = 1

    def __post_init__(self):
        if self.cw_min < 1:
            raise TraceError("cw_min must be at least 1")
        if self.beta < 0:
            raise TraceError("beta must be non-negative")
        for name in ("l_difs", "l_pkt", "l_ack", "l_rts", "l_cts"):
            if getattr(self, name) < 1:
                raise TraceError(f"{name} must be at least 1 slot")

    @property
    def cw_max(self) -> int:
        return (1 << self.beta) * self.cw_min

    def cw(self, stage: int) -> int:
        """Contention window at a given retry stage (capped at cw_max)."""
        if stage < 0:
            raise TraceError("stage must be non-negative")
        return min((1 << stage) * self.cw_min, self.cw_max)

    @property
    def l_tran(self) -> int:
        """Data exchange: packet plus ACK."""
        return self.l_pkt + self.l_ack

    @property
    def l_rcts(self) -> int:
        """Reservation exchange: RTS plus CTS."""
        return self.l_rts + self.l_cts

    @property
    def l_nav(self) -> int:
        """Slots a deferring station stays frozen after losing a reservation:
        the RTS/CTS-mode defer of `round_terms` less DIFS."""
        return self.l_tran + self.l_rcts - 1

    def busy_slots(self, mode: CsmaMode) -> tuple[int, int]:
        """Slots the channel stays busy after a success and after a collision.

        In RTS/CTS mode a success holds the reservation plus the data exchange
        and a collision only the reservation; in basic mode both hold the data
        exchange (colliders give up when no ACK arrives).
        """
        if mode is CsmaMode.RTS_CTS:
            return self.l_rcts + self.l_tran, self.l_rcts
        if mode is CsmaMode.BASIC:
            return self.l_tran, self.l_tran
        raise TraceError(f"unsupported CSMA mode {mode!r}")

    def round_terms(self, mode: CsmaMode) -> tuple[int, int, int]:
        """Slot costs (defer, attempt, payload) of the rounds a cycle is made
        of, from (succ, coll) = `busy_slots(mode)`.

        defer = l_difs + succ - 1 is a round the other station wins, less the
        one slot the loser's counter expires during the winner's exchange;
        attempt = l_difs + coll is paid by every try; payload = succ - coll is
        what a success adds to its attempt.
        """
        succ, coll = self.busy_slots(mode)
        return self.l_difs + succ - 1, self.l_difs + coll, succ - coll
