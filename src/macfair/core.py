"""Shared vocabulary for slot-level MAC experiments: time units, protocol
parameters, and the channel trace record that simulators emit and metrics consume.

All durations are integer slot counts.  Conversion to physical time happens only
at the presentation edge (CLI output, file headers), never inside the math.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, TextIO

import numpy as np

MICROS_PER_SLOT = 20   # physical duration of one slot, in microseconds
_MAX_USERS = 63        # participant sets are masks in mask_dtype, uint64 at most


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


def _one_user(masks: np.ndarray) -> np.ndarray:
    """Whether each non-negative participant mask names exactly one user,
    as a Success event's does."""
    return np.bitwise_count(masks) == 1


def _successes(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the Success events among `masks` and each one's user
    index, in order."""
    pos = np.flatnonzero(_one_user(masks))
    # A Success mask is 1 << i, and mask - 1 has exactly its i lowest
    # bits set: its bit count is the user index.
    below = masks.take(pos)
    below -= 1
    return pos, np.bitwise_count(below)


# Events a block of `metrics.throughput` and of `ChannelTrace.run_ends`, and
# Aloha slots a block of `sim._draw_tx`: their temporaries stay small instead
# of holding a value per event, success or slot of the run.
_BLOCK = 1 << 16


def _kind_codes(masks: np.ndarray) -> np.ndarray:
    """The int8 kind code of each non-negative participant mask: Idle for
    no user, Success for one, Collision for two or more."""
    # Success is 0, Collision 1 and Idle 2: (not one user) + (no user).
    codes = _one_user(masks).view(np.int8)
    codes ^= 1
    codes += masks == 0
    return codes


_KIND_TO_CODE = {EventKind.SUCCESS: SUCCESS_CODE,
                 EventKind.COLLISION: COLLISION_CODE,
                 EventKind.IDLE: IDLE_CODE}
_CODE_TO_KIND = {c: k for k, c in _KIND_TO_CODE.items()}


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


def _check_label(label: str, line_no: int | None = None) -> str:
    """The label, if it can stand in a trace file's users field; a file's
    labels are checked with the number of the line they are on."""
    # The reader strips each line, so trailing whitespace would not survive;
    # files are UTF-8, so a label must encode (a lone surrogate does not).
    if (not label or any(ch in label for ch in ",+\n\r")
            or label.startswith("#") or label != label.rstrip()
            or re.search("[\ud800-\udfff]", label)):
        message = f"invalid user label {label!r}"
        raise (TraceError(message) if line_no is None
               else TraceParseError(line_no, message))
    return label


_DECIMAL = re.compile(r"\s*[+-]?[0-9]+\s*\Z", re.ASCII)


def _decimal(text: str) -> int:
    """int(text) for ASCII decimal text only: ValueError also for the digit
    group underscores and non-ASCII digits that int() accepts."""
    if not _DECIMAL.match(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _count(name: str, value, least: int | None = None, unit: str = "") -> int:
    """`value` as an int, if it is a whole number (numpy integers and
    integral floats included) of at least `least`; TraceError otherwise."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise TraceError(f"{name} {value!r} is not an integer")
    if least is not None and value < least:
        raise TraceError(f"{name} must be non-negative" if least == 0
                         else f"{name} must be at least {least}{unit}")
    return int(value)


def mask_dtype(n_users: int) -> np.dtype:
    """The narrowest unsigned dtype that holds a bitmask over n_users users:
    uint8 up to 8 users, then uint16, uint32 and uint64."""
    if n_users > _MAX_USERS:
        raise TraceError(f"at most {_MAX_USERS} users supported")
    return np.min_scalar_type((1 << n_users) - 1)


@dataclass(frozen=True, eq=False, init=False)
class ChannelTrace:
    """Immutable, array-backed sequence of channel events.

    Events are stored as parallel numpy arrays so that ten-million-slot runs
    stay cheap to scan.  `masks` holds per-event participant sets as bitmasks
    over `users` (bit i set means users[i] took part), in `mask_dtype` of the
    user count; an event's kind follows from its mask, so `kinds` is derived
    from `masks` on first use.  Construction rejects columns that are not
    one-dimensional integers, and a horizon that is not a whole number, and
    runs `validate_trace` on the masks as given, narrowing them only then,
    so an out-of-range value fails with its event and never wraps.  Columns
    already contiguous in their dtype (int64 bounds, masks in `mask_dtype`)
    are kept without a copy and made read-only, which freezes the caller's
    own array too: pass a copy to keep yours writable.  Other columns are
    copied, leaving the caller's object as it was.  The `kinds` argument
    may be omitted; when given, it is checked against the masks after
    `validate_trace` and then dropped.  Every trace is valid.
    """

    users: tuple[str, ...]
    starts: np.ndarray
    ends: np.ndarray
    masks: np.ndarray
    horizon: int

    def __init__(self, users, starts, ends, kinds=None, masks=None,
                 horizon=None):
        users = tuple(_check_label(u) for u in users)
        if len(set(users)) != len(users):
            raise TraceError("duplicate user labels")
        dtype = mask_dtype(len(users))
        object.__setattr__(self, "users", users)
        columns = {"starts": starts, "ends": ends, "kinds": kinds,
                   "masks": masks}
        if kinds is None:
            del columns["kinds"]
        for name, arr in columns.items():
            try:
                arr = np.asarray(arr)
            except ValueError as exc:
                raise TraceError(
                    f"{name} must be one-dimensional: {exc}") from None
            if arr.ndim != 1:
                raise TraceError(f"{name} must be one-dimensional, "
                                 f"not of shape {arr.shape}")
            if arr.dtype.kind not in "biu" and arr.size:
                raise TraceError(f"{name} must be integers, not {arr.dtype}")
            if arr.dtype.kind not in "iu" or name in ("starts", "ends"):
                arr = np.ascontiguousarray(arr, np.int64)
            columns[name] = arr
        if any(len(arr) != len(columns["starts"]) for arr in columns.values()):
            raise TraceError("event arrays have mismatched lengths")
        kinds = columns.pop("kinds", None)
        for name, arr in columns.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "horizon", _count("horizon", horizon))
        validate_trace(self)
        if kinds is not None and len(kinds):
            _check_kinds(kinds, self.masks)
        for name, kind in (("starts", np.int64), ("ends", np.int64),
                           ("masks", dtype)):
            arr = np.ascontiguousarray(getattr(self, name), dtype=kind)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
        return cls(users, starts, ends, kinds, masks, horizon)

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

    @functools.cached_property
    def kinds(self) -> np.ndarray:
        """Each event's int8 kind code, derived from its mask on first use;
        read-only, and the same array on every later access."""
        kinds = _kind_codes(self.masks)
        kinds.setflags(write=False)
        return kinds

    @functools.cached_property
    def success_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Trace positions of the Success events and each one's user index,
        in trace order: decoded once per trace, both arrays read-only."""
        hit, uidx = _successes(self.masks)
        hit.setflags(write=False)
        uidx.setflags(write=False)
        return hit, uidx

    @functools.cached_property
    def run_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Each maximal run of one user's successes, in trace order: the
        run's user index and the end time of its last success.  Decoded
        once per trace, block by block, so no array a success long is
        built; both arrays read-only."""
        labels, times = [np.empty(0, np.uint8)], [np.empty(0, np.int64)]
        for lo in range(0, len(self), _BLOCK):
            pos, uidx = _successes(self.masks[lo:lo + _BLOCK])
            if not len(pos):
                continue
            # A block's last success is kept as a run end, and dropped here
            # if the next block's first success is the same user's.
            if len(labels[-1]) and labels[-1][-1] == uidx[0]:
                labels[-1], times[-1] = labels[-1][:-1], times[-1][:-1]
            last = np.ones(len(uidx), bool)
            np.not_equal(uidx[1:], uidx[:-1], out=last[:-1])
            last = np.flatnonzero(last)
            labels.append(uidx.take(last))
            times.append(self.ends[lo:lo + _BLOCK].take(pos.take(last)))
        label, t = np.concatenate(labels), np.concatenate(times)
        label.setflags(write=False)
        t.setflags(write=False)
        return label, t

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChannelTrace):
            return NotImplemented
        return (self.users == other.users and self.horizon == other.horizon
                and np.array_equal(self.starts, other.starts)
                and np.array_equal(self.ends, other.ends)
                and np.array_equal(self.masks, other.masks))

    def write(self, fp: TextIO) -> None:
        from . import traceio
        traceio.write(self, fp)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            self.write(fp)

    @classmethod
    def read(cls, fp: TextIO) -> "ChannelTrace":
        """Parse a trace file in one pass.

        Headers are read line by line, then the body in blocks of whole lines:
        a block in the plain form (ASCII digits, one-letter kinds, no spaces,
        `\\n` endings) in 8-byte words, any other by the row parser, which
        accepts the same inputs and gives every error its line number.  A
        plain block's bytes go between zero pads and are viewed, without a
        copy, as an unaligned little-endian `<u8` word at every byte offset;
        each bound is parsed from the words that end at it, each users field
        keyed by the words that start it.  Each block's four columns are
        kept as they are and joined once at the end, so no file size is
        needed and a pipe reads the same way.
        """
        from . import traceio
        return traceio.read(fp)

    @classmethod
    def from_file(cls, path) -> "ChannelTrace":
        """Read a UTF-8 trace file; a byte that is not UTF-8 fails its line."""
        with open(path, encoding="utf-8", errors="surrogateescape") as fp:
            return cls.read(fp)


def validate_trace(trace: ChannelTrace) -> ChannelTrace:
    """Check structural invariants; returns the trace unchanged when sound.

    Events must be sorted by start, non-overlapping, zero-length free, inside
    [0, horizon], and each event's participant set must lie in the user set.
    A fault names the first event that shows it.  `ChannelTrace` construction
    runs this check, then checks any `kinds` it was given against the masks,
    so every trace has passed both.
    """
    s, e, m = trace.starts, trace.ends, trace.masks
    if len(s) == 0:
        if trace.horizon < 0:
            raise TraceError("negative horizon")
        return trace
    if int(s[0]) < 0:
        raise TraceError("event 0: event starts before slot 0")
    if np.any(e <= s):
        i = int(np.flatnonzero(e <= s)[0])
        raise TraceError(f"event {i} is empty or reversed")
    # Ends that are the starts' own buffer one element on tile the channel:
    # each event starts where the previous one ends, so none overlaps.
    # Non-empty events that do not overlap are sorted, so the order pass
    # runs only to name an order fault ahead of the overlap it causes.
    tiled = (s.base is not None and s.base is e.base and s.strides == e.strides
             and e.ctypes.data - s.ctypes.data == s.strides[0])
    if not tiled and np.any(s[1:] < e[:-1]):
        if np.any(s[1:] < s[:-1]):
            i = int(np.flatnonzero(s[1:] < s[:-1])[0])
            raise OrderError(f"event {i + 1} starts before event {i}")
        i = int(np.flatnonzero(s[1:] < e[:-1])[0])
        raise OverlapError(f"events {i} and {i + 1} overlap")
    if int(e[-1]) > trace.horizon:
        i = int(np.flatnonzero(e > trace.horizon)[0])
        raise TraceError(f"event {i}: event extends past the horizon")
    n = len(trace.users)
    if int(m.min()) < 0 or int(m.max()) >> n:
        i = int(np.flatnonzero((m < 0) | (m >> n != 0))[0])
        raise UnknownUserError(
            f"event {i}: event mask uses bits beyond the user set")
    return trace


def _check_kinds(k: np.ndarray, m: np.ndarray) -> None:
    """Check kind codes given with a trace against its masks, which
    `validate_trace` has found non-negative."""
    if not 0 <= int(k.min()) <= int(k.max()) < 3:
        i = int(np.flatnonzero((k < 0) | (k > 2))[0])
        raise TraceError(f"event {i}: event kind codes must be 0, 1 or 2")
    bad = k != _kind_codes(m)
    if bad.any():
        for code, message in (
                (SUCCESS_CODE, "Success events must name exactly one user"),
                (COLLISION_CODE,
                 "Collision events must name at least two users"),
                (IDLE_CODE, "Idle events must name no users")):
            fault = bad & (k == code)
            if fault.any():
                raise TraceError(f"event {int(fault.argmax())}: {message}")


def successes_of(trace: ChannelTrace, user: str) -> list[ChannelEvent]:
    """Ordered Success events of one user."""
    i = trace.user_index(user)
    return [trace[k] for k in np.flatnonzero(trace.masks == 1 << i).tolist()]


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
        object.__setattr__(self, "slot",
                           _count("slot length", self.slot, 1, " tick"))


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
        checks = [("cw_min", 1, ""), ("beta", 0, "")]
        checks += [(name, 1, " slot")
                   for name in ("l_difs", "l_pkt", "l_ack", "l_rts", "l_cts")]
        for name, least, unit in checks:
            value = _count(name, getattr(self, name), least, unit)
            object.__setattr__(self, name, value)

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
