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
_MAX_USERS = 63        # participant sets are stored as int64 bitmasks
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


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


@dataclass(frozen=True, eq=False)
class ChannelTrace:
    """Immutable, array-backed sequence of channel events.

    Events are stored as parallel numpy arrays so that ten-million-slot runs
    stay cheap to scan.  `masks` holds per-event participant sets as bitmasks
    over `users` (bit i set means users[i] took part).  Construction runs
    `validate_trace`, so every ChannelTrace is valid.
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
        validate_trace(self)

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
    def success_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Trace positions of the Success events and each one's user index,
        in trace order: decoded once per trace, both arrays read-only."""
        hit = np.flatnonzero(self.kinds == SUCCESS_CODE)
        # A Success mask is 1 << i, and mask - 1 has exactly its i lowest
        # bits set: its bit count is the user index.
        below = self.masks.take(hit)
        below -= 1
        uidx = np.bitwise_count(below)
        hit.setflags(write=False)
        uidx.setflags(write=False)
        return hit, uidx

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
        # A block's byte matrix is as wide as its longest line, so the block
        # length follows from the widest line these users allow.
        widest = _WIDEST_BOUNDS + len("+".join(self.users).encode())
        step = max(1, _BLOCK_BYTES // widest)
        labels: dict[int, bytes] = {}
        for lo in range(0, len(self), step):
            block = slice(lo, lo + step)
            text = _render_events(self.starts[block], self.ends[block],
                                  self.kinds[block], self.masks[block],
                                  self.users, labels)
            fp.write(text.decode())

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            self.write(fp)

    @classmethod
    def read(cls, fp: TextIO) -> "ChannelTrace":
        """Parse a trace file in one pass.

        Headers are read line by line, then the body in blocks of whole lines:
        a block in the plain form (ASCII digits, one-letter kinds, no spaces,
        `\\n` endings) as byte columns, any other by the row parser, which
        accepts the same inputs and gives every error its line number.  Each
        block's values go straight into output columns that double in size
        when full, so no file size is needed and a pipe reads the same way.
        """
        state = _FileState()
        for line_no, raw in enumerate(iter(fp.readline, ""), start=1):
            line = raw.strip()
            if line.startswith("#"):
                state.header(line, line_no)
            elif line:
                break
        else:
            return state.trace([], [], [], [])
        columns = [np.empty(0, dtype) for dtype in _COLUMN_DTYPES]
        n = 0  # events so far
        pending = raw
        while True:
            chunk = fp.read(_BLOCK_BYTES)
            text = pending + chunk
            cut = text.rfind("\n") + 1 if chunk else len(text)
            if cut:
                block = text[:cut]
                try:
                    values = _parse_events(block, state, line_no)
                    lines = len(values[0])
                except _NotPlain:
                    values = _parse_rows(block, state, line_no)
                    lines = block.count("\n")
                k = len(values[0])
                if n + k > len(columns[0]):
                    size = max(2 * len(columns[0]), n + k)
                    for i in range(len(columns)):  # one old column at a time
                        columns[i] = _grown(columns[i], n, size)
                for c, v in zip(columns, values):
                    c[n:n + k] = v
                n += k
                line_no += lines
            pending = text[cut:]
            if not chunk:
                break
        return state.trace(*(c[:n] for c in columns))

    @classmethod
    def from_file(cls, path) -> "ChannelTrace":
        """Read a UTF-8 trace file; a byte that is not UTF-8 fails its line."""
        with open(path, encoding="utf-8", errors="surrogateescape") as fp:
            return cls.read(fp)


_COLUMN_DTYPES = (np.int64, np.int64, np.int8, np.int64)  # starts .. masks


def _grown(column: np.ndarray, n: int, size: int) -> np.ndarray:
    """A column of `size` slots holding the first n values of `column`.

    The slots past n are never written here, so the pages they span stay
    unused until filled.
    """
    out = np.empty(size, column.dtype)
    out[:n] = column[:n]
    return out


class _FileState:
    """Headers read so far, and the users-field masks they imply."""

    def __init__(self):
        self.scale = 1
        self.users: tuple[str, ...] | None = None
        self.horizon: int | None = None
        self.headers: set[str] = set()
        self.index: dict[str, int] = {}
        self.mask_of: dict[str, int] = {}  # users field -> its mask, once checked

    def header(self, line: str, line_no: int) -> None:
        key, _, value = line[1:].partition("=")
        if key in self.headers:
            raise TraceParseError(line_no, f"repeated header {key!r}")
        self.headers.add(key)
        if key == "slots_per_unit":
            try:
                self.scale = _decimal(value)
            except ValueError:
                raise TraceParseError(line_no, f"bad slots_per_unit {value!r}")
            if self.scale <= 0:
                raise TraceParseError(line_no, "slots_per_unit must be positive")
        elif key == "users":
            self.users = tuple(_check_label(u, line_no)
                               for u in value.split("+")) if value else ()
            if len(self.users) > _MAX_USERS:
                raise TraceParseError(line_no, f"more than {_MAX_USERS} users")
            if len(set(self.users)) != len(self.users):
                raise TraceParseError(line_no, "duplicate user labels")
            self.index = {u: i for i, u in enumerate(self.users)}
        elif key == "horizon":
            try:
                self.horizon = _decimal(value)
            except ValueError:
                raise TraceParseError(line_no, f"bad horizon {value!r}")
        else:
            raise TraceParseError(line_no, f"unknown header {key!r}")

    def mask(self, who: str, line_no: int) -> int:
        """Bitmask of a users field; without a `#users` header each new
        label takes the next bit, in order of first appearance."""
        mask = self.mask_of.get(who)
        if mask is None:
            mask = 0
            for u in who.split("+") if who else ():
                bit = self.index.get(u)
                if bit is None:
                    _check_label(u, line_no)
                    if self.users is not None:
                        raise TraceParseError(line_no, f"unknown user {u!r}")
                    if len(self.index) == _MAX_USERS:
                        raise TraceParseError(
                            line_no, f"more than {_MAX_USERS} users")
                    bit = self.index[u] = len(self.index)
                if mask >> bit & 1:
                    raise TraceParseError(line_no, f"user {u!r} named twice")
                mask |= 1 << bit
            self.mask_of[who] = mask
        return mask

    def trace(self, starts, ends, kinds, masks) -> ChannelTrace:
        users = tuple(self.index) if self.users is None else self.users
        ends = np.asarray(ends, np.int64)
        # Headers precede events, so the scale is final here whichever of
        # the two headers came first.
        horizon = (int(ends.max(initial=0)) if self.horizon is None
                   else self.horizon * self.scale)
        return ChannelTrace(users, starts, ends, kinds, masks, horizon)


def _parse_rows(text: str, state: _FileState,
                first_line: int) -> tuple[np.ndarray, ...]:
    """The row parser over body lines numbered from `first_line`, every error
    with its line number; the headers were read before the first event."""
    starts, ends, kinds, masks = [], [], [], []
    for line_no, raw in enumerate(text.split("\n"), start=first_line):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            raise TraceParseError(line_no, "header after the first event")
        parts = line.split(",")
        if len(parts) != 4:
            raise TraceParseError(line_no, "expected start,end,kind,users")
        s_str, e_str, kind_str, who = parts
        try:
            s, e = _decimal(s_str) * state.scale, _decimal(e_str) * state.scale
        except ValueError:
            raise TraceParseError(line_no, f"bad slot bounds {s_str!r},{e_str!r}")
        # Scaled and range-checked per line: an int64 array scaled
        # afterwards would wrap silently on overflow.
        if not (_INT64_MIN <= s <= _INT64_MAX and _INT64_MIN <= e <= _INT64_MAX):
            raise TraceParseError(
                line_no, f"slot bounds {s_str},{e_str} at slots_per_unit="
                f"{state.scale} do not fit in int64")
        code = _CHAR_TO_CODE.get(kind_str)
        if code is None:
            raise TraceParseError(line_no, f"unknown event kind {kind_str!r}")
        starts.append(s)
        ends.append(e)
        kinds.append(code)
        masks.append(state.mask(who, line_no))
    return (np.array(starts, np.int64), np.array(ends, np.int64),
            np.array(kinds, np.int8), np.array(masks, np.int64))


# -- trace file body as byte columns -------------------------------------------
# Both directions work through the body in blocks of about _BLOCK_BYTES, so
# that temporaries stay small whatever the file size.

_BLOCK_BYTES = 1 << 18
_MAX_DIGITS = 18          # every bound of at most 18 digits fits in int64
_WIDEST_BOUNDS = 45       # two 20-byte bounds, ",K,", "," and "\n"

_NL, _COMMA, _MINUS, _ZERO = (np.uint8(ord(c)) for c in "\n,-0")
_POW10 = np.array([10**j for j in range(20)], np.uint64)
_DIGIT_WEIGHT = _POW10[_MAX_DIGITS - 1::-1].astype(np.int64)  # 10**17 .. 1
_KIND_BYTES = np.array([ord(_CODE_TO_KIND[c].value) for c in range(3)],
                       np.uint8)
_KIND_OF_BYTE = np.full(256, -1, np.int8)
_KIND_OF_BYTE[_KIND_BYTES] = np.arange(3, dtype=np.int8)


class _NotPlain(Exception):
    """A block leaves the plain form; the row parser takes the block."""


def _int_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decimal text of int64 values, one column per value, right-aligned in
    a (width, n) byte matrix, and the mask of the bytes each number uses."""
    neg = values < 0
    mag = np.abs(values).view(np.uint64)  # abs wraps INT64_MIN to 2**63
    width = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1) + neg
    w = int(width.max())
    text = np.empty((w, len(values)), np.uint8)
    for row in text[::-1]:
        quot = mag // np.uint64(10)
        row[:] = mag - quot * np.uint64(10)
        mag = quot
    text += _ZERO
    first = w - width
    text[first[neg], np.flatnonzero(neg)] = _MINUS
    return text, np.arange(w)[:, None] >= first


def _int_list(values: np.ndarray) -> str:
    """int64 values in decimal joined by commas, as
    `",".join(map(str, values.tolist()))` writes them."""
    n = len(values)
    if n == 0:
        return ""
    text, keep = _int_rows(values)
    text = np.concatenate((text, np.full((1, n), _COMMA)))
    keep = np.concatenate((keep, np.ones((1, n), bool)))
    # Value by value, each followed by a comma; the last comma is dropped.
    return np.compress(keep.T.ravel(), text.T.ravel())[:-1].tobytes().decode()


def _render_events(starts, ends, kinds, masks, users, labels) -> bytes:
    """One block of event lines; `labels` caches each mask's users field."""
    n = len(starts)
    uniq, inv = np.unique(masks, return_inverse=True)
    names = []
    for m in uniq.tolist():
        if m not in labels:
            labels[m] = "+".join(u for b, u in enumerate(users)
                                 if m >> b & 1).encode()
        names.append(labels[m])
    lengths = np.array([len(x) for x in names], np.int64)
    table = np.zeros((int(lengths.max()), len(names)), np.uint8)
    for col, name in zip(table.T, names):
        col[:len(name)] = np.frombuffer(name, np.uint8)
    s_text, s_keep = _int_rows(starts)
    e_text, e_keep = _int_rows(ends)
    mid = np.empty((3, n), np.uint8)  # ",kind,"
    mid[0] = mid[2] = _COMMA
    mid[1] = _KIND_BYTES[kinds]
    ones = np.ones((3, n), bool)
    text = np.concatenate((s_text, np.full((1, n), _COMMA), e_text, mid,
                           table[:, inv], np.full((1, n), _NL)))
    keep = np.concatenate((s_keep, ones[:1], e_keep, ones,
                           np.arange(len(table))[:, None] < lengths[inv],
                           ones[:1]))
    # Line by line: the transposes read each event's bytes in order.
    return np.compress(keep.T.ravel(), text.T.ravel()).tobytes()


def _digit_field(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Values of the fields b[lo:hi], each 1 to 18 ASCII digits."""
    width = hi - lo
    w = int(width.max())
    if int(width.min()) < 1 or w > _MAX_DIGITS:
        raise _NotPlain
    rows = np.arange(w)[:, None]
    # Row j holds each field's j-th digit from the left, right-aligned; the
    # bytes before a shorter field are zeroed.
    digit = (b.take(hi + (rows - w), mode="clip") - _ZERO) * (rows >= w - width)
    if np.any(digit > np.uint8(9)):
        raise _NotPlain
    return _DIGIT_WEIGHT[-w:] @ digit


def _users_masks(b: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 state: _FileState, first_line: int) -> np.ndarray:
    """Masks of the users fields b[lo:hi]: each distinct field goes through
    `state.mask` once, in order of first appearance."""
    width = hi - lo
    w = int(width.max())
    if w * len(lo) > 8 * len(b):  # a field far longer than the block's lines
        raise _NotPlain
    rows = np.arange(w)[:, None]
    keys = np.zeros((len(lo), max(w, 8)), np.uint8)
    keys[:, :w] = (b.take(lo + rows, mode="clip") * (rows < width)).T
    keys = keys.view(np.uint64 if w <= 8 else f"S{w}").ravel()
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    table = np.empty(len(first), np.int64)
    for i in np.sort(first).tolist():
        who = b[lo[i]:hi[i]].tobytes().decode("ascii")
        table[inv[i]] = state.mask(who, first_line + i)
    return table[inv]


def _parse_events(text: str, state: _FileState, first_line: int):
    """(starts, ends, kinds, masks) of whole event lines in the plain form."""
    if not text.isascii():
        raise _NotPlain
    if not text.endswith("\n"):
        text += "\n"
    b = np.frombuffer(text.encode("ascii"), np.uint8)
    nl = np.flatnonzero(b == _NL)
    commas = np.flatnonzero(b == _COMMA)
    n = len(nl)
    # Plain: printable ASCII other than space, and "\n" (the one byte below "!").
    if (b.max() > np.uint8(0x7E) or len(commas) != 3 * n
            or np.count_nonzero(b < np.uint8(0x21)) != n):
        raise _NotPlain
    c0, c1, c2 = commas.reshape(n, 3).T
    # With both bounds non-empty, c0 follows the previous newline, so each
    # line holds exactly its own three commas.
    if np.any(c2 >= nl) or np.any(c2 - c1 != 2):
        raise _NotPlain
    bounds = []
    for lo, hi in ((np.concatenate(([0], nl[:-1] + 1)), c0), (c0 + 1, c1)):
        values = _digit_field(b, lo, hi)
        if state.scale != 1:
            if state.scale > _INT64_MAX // max(int(values.max()), 1):
                raise _NotPlain
            values *= np.int64(state.scale)
        bounds.append(values)
    kinds = _KIND_OF_BYTE[b[c1 + 1]]
    if np.any(kinds < 0):
        raise _NotPlain
    return (*bounds, kinds, _users_masks(b, c2 + 1, nl, state, first_line))


def validate_trace(trace: ChannelTrace) -> ChannelTrace:
    """Check structural invariants; returns the trace unchanged when sound.

    Events must be sorted by start, non-overlapping, zero-length free, inside
    [0, horizon], and each event's participant set must match its kind.  A
    fault names the first event that shows it.  `ChannelTrace` construction
    runs this check, so every trace has passed it.
    """
    s, e, k, m = trace.starts, trace.ends, trace.kinds, trace.masks
    if len(s) == 0:
        if trace.horizon < 0:
            raise TraceError("negative horizon")
        return trace
    if int(s[0]) < 0:
        raise TraceError("event 0: event starts before slot 0")
    if np.any(e <= s):
        i = int(np.flatnonzero(e <= s)[0])
        raise TraceError(f"event {i} is empty or reversed")
    # Non-empty events that do not overlap are sorted, so the order pass
    # runs only to name an order fault ahead of the overlap it causes.
    if np.any(s[1:] < e[:-1]):
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
    if not 0 <= int(k.min()) <= int(k.max()) < 3:
        i = int(np.flatnonzero((k < 0) | (k > 2))[0])
        raise TraceError(f"event {i}: event kind codes must be 0, 1 or 2")
    # Masks are non-negative here, so their bit counts are user counts.
    n_users = np.bitwise_count(m)
    for code, bad, message in (
            (SUCCESS_CODE, n_users != 1,
             "Success events must name exactly one user"),
            (COLLISION_CODE, n_users < 2,
             "Collision events must name at least two users"),
            (IDLE_CODE, n_users != 0, "Idle events must name no users")):
        fault = (k == code) & bad
        if fault.any():
            raise TraceError(f"event {int(fault.argmax())}: {message}")
    return trace


def successes_of(trace: ChannelTrace, user: str) -> list[ChannelEvent]:
    """Ordered Success events of one user."""
    i = trace.user_index(user)
    hit, uidx = trace.success_index
    return [trace[k] for k in hit[uidx == i].tolist()]


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
