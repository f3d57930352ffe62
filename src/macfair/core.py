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
        fields = _UsersFields(self.users)
        for lo in range(0, len(self), step):
            block = slice(lo, lo + step)
            text = _render_events(self.starts[block], self.ends[block],
                                  fields.rows(self.masks[block]))
            fp.write(text.decode())

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
        state = _FileState()
        for line_no, raw in enumerate(iter(fp.readline, ""), start=1):
            line = raw.strip()
            if line.startswith("#"):
                state.header(line, line_no)
            elif line:
                break
        else:
            return state.trace([], [], [], [])
        columns = [[], [], [], []]  # each block's starts, ends, kinds, masks
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
                for blocks, v in zip(columns, values):
                    blocks.append(v)
                line_no += lines
            pending = text[cut:]
            if not chunk:
                break
        # One column at a time, each column's blocks freed once it is joined.
        for i, blocks in enumerate(columns):
            columns[i] = np.concatenate(blocks)
            blocks.clear()
        return state.trace(*columns)

    @classmethod
    def from_file(cls, path) -> "ChannelTrace":
        """Read a UTF-8 trace file; a byte that is not UTF-8 fails its line."""
        with open(path, encoding="utf-8", errors="surrogateescape") as fp:
            return cls.read(fp)


class _FileState:
    """Headers read so far, and the users-field masks they imply."""

    def __init__(self):
        self.scale = 1
        self.users: tuple[str, ...] | None = None
        self.horizon: int | None = None
        self.headers: set[str] = set()
        self.index: dict[str, int] = {}
        self.mask_of: dict[str, int] = {}  # users field -> its mask, once checked
        self.table = _SlotTable()  # the same, keyed by the field's bytes

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
        # Each mask came from `mask`, inside the user set, so none wraps.
        masks = np.asarray(masks, mask_dtype(len(users)))
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


# -- trace file body in blocks ------------------------------------------------
# Both directions work through the body in blocks of about _BLOCK_BYTES, so
# that temporaries stay small whatever the file size.  An event line is its
# bounds, then its participant set's `kind,users` text.  Writing builds each
# block as byte columns; reading takes a block's fields as 8-byte words, each
# bound's digits combined by SWAR multiply-shift steps.  One _SlotTable per
# file maps a users field's bytes, of any width, to its mask when reading,
# and a mask to the span of its set's text when writing.  Both directions
# resolve the keys a table misses in the same way, `_SlotTable.resolve`:
# only those keys are sorted, and each distinct one takes the slow path once.

_BLOCK_BYTES = 1 << 18
_MAX_DIGITS = 18          # every bound of at most 18 digits fits in int64
_WIDEST_BOUNDS = 45       # two 20-byte bounds, ",K,", "," and "\n"

_NL, _COMMA, _MINUS, _ZERO = (np.uint8(ord(c)) for c in "\n,-0")
_PAD = np.uint8(0xFF)     # an unused byte when writing: no UTF-8 text holds it
_KIND_OF_BYTE = np.full(256, -1, np.int8)
_KIND_OF_BYTE[[ord(k.value) for k in _KIND_TO_CODE]] = \
    list(_KIND_TO_CODE.values())

# Reading takes a block's fields as little-endian 64-bit words, the word at
# byte offset i holding bytes i to i + 7, byte i in its lowest bits.  The
# zero pads around a block keep inside it every word a field reads: up to
# three back from a bound's end, and a users field's last, which may run up
# to 7 bytes past the field.  _KEEP_FIRST[m] keeps a word's first m bytes,
# _KEEP_LAST[m] its last m.
_FRONT_PAD, _BACK_PAD = bytes(24), bytes(8)
_EACH_BYTE = 0x0101010101010101
_ONES = 2**64 - 1
_KEEP_FIRST = np.array([(1 << 8 * m) - 1 for m in range(9)], np.uint64)
_KEEP_LAST = np.array([_ONES ^ (_ONES >> 8 * m) for m in range(9)], np.uint64)


class _NotPlain(Exception):
    """A block leaves the plain form; the row parser takes the block."""


class _SlotTable:
    """An exact map from keys, rows of uint64 words, to int64 values, in
    4096 slots.

    A key's slot hashes the sum of word j times 2j + 1 by Fibonacci
    multiply-shift (Knuth, TAOCP vol. 3, 6.4), so the zero words that pad
    keys to a common width move no key.  A slot holds one key, zero-padded
    to WORDS, and its width: the words up to its last non-zero one.  A key
    matches a slot when its own words equal the slot's first ones and the
    slot's width is no larger, so a lookup compares only as many words as
    it has.  A key whose slot is taken, or longer than WORDS, is never
    stored and stays a miss.  `resolve` is the one way in, for reading and
    writing alike: it finds each missed key's value once through the
    caller's slow path.  An all-ones first word marks a free slot: no ASCII
    field and no mask of 63 bits has it.
    """

    BITS = 12
    WORDS = _BLOCK_BYTES >> (BITS + 3)  # so the stored keys fill one block
    FREE = np.uint64(2**64 - 1)

    def __init__(self):
        # Row j holds word j of every slot's key.
        self.keys = np.zeros((self.WORDS, 1 << self.BITS), np.uint64)
        self.keys[0] = self.FREE
        self.width = np.zeros(1 << self.BITS, np.int8)
        self.values = np.zeros(1 << self.BITS, np.int64)

    @staticmethod
    def slots(keys: np.ndarray) -> np.ndarray:
        fold = sum((keys[:, j] * np.uint64(2 * j + 1)
                    for j in range(1, keys.shape[1])), keys[:, 0])
        slot = fold * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(64 - _SlotTable.BITS)
        return slot.astype(np.intp)

    def _fit(self, keys: np.ndarray) -> tuple[np.ndarray, ...]:
        """The keys cut to at most WORDS words, which of them fit that
        width, and their slots."""
        k = min(keys.shape[1], self.WORDS)
        return keys[:, :k], ~keys[:, k:].any(1), self.slots(keys[:, :k])

    def _same(self, keys: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Whether each key's own words are the first words of its slot."""
        return (self.keys[:keys.shape[1]].take(slot, 1) == keys.T).all(0)

    def get(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's value and whether the key was found; a missed key's
        value is meaningless."""
        keys, whole, slot = self._fit(keys)
        found = whole & (self.width.take(slot) <= keys.shape[1])
        return self.values.take(slot), found & self._same(keys, slot)

    def put(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Store distinct keys, none in the table yet, whose slots are free."""
        keys, whole, slot = self._fit(keys)
        free = whole & (self.keys[0].take(slot) == self.FREE)
        self.keys[:keys.shape[1], slot[free]] = keys[free].T
        # Of the keys that share a free slot, only the one written last holds it.
        stored = free & self._same(keys, slot)
        words = np.arange(1, keys.shape[1] + 1, dtype=np.int8)
        self.width[slot[stored]] = np.max((keys[stored] != 0) * words, 1,
                                          initial=0)
        self.values[slot[stored]] = values[stored]

    def resolve(self, keys: np.ndarray, value_of) -> np.ndarray:
        """Each key's value.  The keys the table misses are grouped, and
        `value_of(i)`, i the first row holding the key, is called once per
        distinct missed key, in order of first appearance; the values it
        gives are then stored where a slot is free."""
        values, hit = self.get(keys)
        miss = np.flatnonzero(~hit)
        if len(miss):
            order = miss[np.lexsort(keys[miss].T)]  # stable, so runs lead with first rows
            sort = keys[order]
            new = np.r_[True, (sort[1:] != sort[:-1]).any(1)]
            first = order[new]
            found = np.empty(len(first), np.int64)
            for g in np.argsort(first).tolist():
                found[g] = value_of(int(first[g]))
            values[order] = found[np.cumsum(new) - 1]
            self.put(sort[new], found)
        return values


class _UsersFields:
    """The `kind,users` texts of one `write` call: each participant set's
    text rendered once into one byte buffer, followed by one _PAD, and
    found by mask through a _SlotTable whose value is the text's span,
    `start << 32 | width`; masks whose slot is taken find their span in a
    dict."""

    def __init__(self, users: tuple[str, ...]):
        self.users = users
        self.clear()

    def clear(self) -> None:
        self.table, self.spans = _SlotTable(), {}
        self.text = bytearray()

    def rows(self, masks: np.ndarray) -> np.ndarray:
        """The masks' `kind,users` texts, one column per event in a byte
        matrix as wide as the widest of them, each padded with _PAD."""
        # Past a block's worth of text, start over: the buffer then stays
        # within about two blocks, so both halves of a span fit 32 bits.
        if len(self.text) > _BLOCK_BYTES:
            self.clear()
        spans = self.table.resolve(masks.astype(np.uint64)[:, None],
                                   lambda i: self._span(masks[i:i + 1]))
        width = spans & 0xFFFFFFFF
        rows = np.arange(int(width.max()))[:, None]
        # Past its own width, each column reads the pad after its text.
        text = np.frombuffer(self.text, np.uint8)
        return text.take(np.minimum(rows, width) + (spans >> 32))

    def _span(self, mask: np.ndarray) -> int:
        """The span of the text of `mask`, an array of one mask."""
        m = int(mask[0])
        span = self.spans.get(m)
        if span is None:
            kind = "S" if _one_user(mask)[0] else "C" if m else "I"
            users = "+".join(u for b, u in enumerate(self.users) if m >> b & 1)
            text = f"{kind},{users}".encode()
            span = self.spans[m] = len(self.text) << 32 | len(text)
            self.text += text + _PAD.tobytes()
        return span


def _int_rows(values: np.ndarray) -> np.ndarray:
    """Decimal text of int64 values, one column per value, right-aligned in
    a (width, n) byte matrix whose bytes before each number hold _PAD."""
    neg = np.flatnonzero(values < 0)
    mag = np.abs(values).view(np.uint64)  # abs wraps INT64_MIN to 2**63
    width = len(str(int(mag.max(initial=0)))) + (len(neg) > 0)
    text = np.empty((width, len(values)), np.uint8)
    for place, row in enumerate(text[::-1]):  # the units first
        quot = mag // np.uint64(10)
        np.subtract(mag, quot * np.uint64(10), out=row, casting="unsafe")
        row += _ZERO
        if place:  # a place whose quotient is zero is before the number
            row |= (mag == 0) * _PAD  # "0" | 0xFF is _PAD
        mag = quot
    if len(neg):  # each minus sign takes the last pad before its number
        text[np.count_nonzero(text[:, neg] == _PAD, 0) - 1, neg] = _MINUS
    return text


def _unpadded(text: np.ndarray) -> bytes:
    """A byte matrix's columns, one after another, with every _PAD dropped."""
    return text.T.tobytes().translate(None, _PAD.tobytes())


def _int_list(values: np.ndarray) -> str:
    """int64 values in decimal joined by commas, as
    `",".join(map(str, values.tolist()))` writes them."""
    # Value by value, each followed by a comma; the last comma is dropped.
    text = np.concatenate((_int_rows(values), np.full((1, len(values)), _COMMA)))
    return _unpadded(text)[:-1].decode()


def _render_events(starts, ends, who) -> bytes:
    """One block of event lines: the bounds, then the `kind,users` texts
    that `_UsersFields.rows` gives."""
    n = len(starts)
    # A tiled block's n + 1 boundaries are rendered once: its starts are the
    # first n, its ends the last n.  Otherwise starts, then ends.
    tiled = np.array_equal(starts[1:], ends[:-1])
    bounds = _int_rows(np.concatenate((starts, ends[-1:] if tiled else ends)))
    k = 1 if tiled else n
    comma = np.full((1, n), _COMMA)
    # Line by line: the transpose reads each event's bytes in order.
    return _unpadded(np.concatenate((bounds[:, :n], comma, bounds[:, k:k + n],
                                     comma, who, np.full((1, n), _NL))))


def _words(b: np.ndarray) -> np.ndarray:
    """The unaligned `<u8` word at every byte offset of `b`, without a copy."""
    return np.ndarray(len(b) - 7, "<u8", b, strides=(1,))


def _eight_digits(d: np.ndarray) -> np.ndarray:
    """In place, the number each word's eight digit values (0 to 9, the
    first in the lowest byte) spell, by three multiply-shift steps that
    each join neighbouring lanes (Langdale and Lemire, VLDB J. 2019)."""
    d *= np.uint64(10 << 8 | 1)            # byte 2i: digits 2i, 2i+1
    d >>= np.uint64(8)
    d &= np.uint64(0x00FF00FF00FF00FF)
    d *= np.uint64(100 << 16 | 1)          # 16 bits at 32i: digits 4i to 4i+3
    d >>= np.uint64(16)
    d &= np.uint64(0x0000FFFF0000FFFF)
    d *= np.uint64(10000 << 32 | 1)        # the low 32 bits: all eight
    d >>= np.uint64(32)
    return d


def _digit_field(words: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """Values of the fields at byte offsets lo to hi of `words`' block, each
    1 to 18 ASCII digits."""
    width = hi - lo
    w = int(width.max())
    if int(width.min()) < 1 or w > _MAX_DIGITS:
        raise _NotPlain
    # Column j is the word that ends 8j bytes before each field's end, so it
    # holds digits 8j+1 to 8j+8 from the right; the bytes before the field
    # are masked off and read as leading zeros.
    back = np.arange(0, w, 8)
    d = words[hi[:, None] - (back + 8)]
    d ^= np.uint64(0x30 * _EACH_BYTE)
    # Clipped into the table, a word's count of field bytes is 0 to 8.
    d &= _KEEP_LAST.take(width[:, None] - back, mode="clip")
    # Every byte is ASCII, so a byte over 9 here sets its top bit, and only
    # its own, when 0x76 is added.
    test = np.bitwise_or.reduce(d + np.uint64(0x76 * _EACH_BYTE), axis=None)
    if test & np.uint64(0x80 * _EACH_BYTE):
        raise _NotPlain
    d = _eight_digits(d)
    value = d[:, -1]
    for j in range(d.shape[1] - 2, -1, -1):
        value = value * np.uint64(10**8) + d[:, j]
    # A copy, not a view of d: a block's column is then one array.
    return value.astype(np.int64)


def _users_keys(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The fields b[lo:hi] as slot-table keys: each field's bytes in words
    of `_words(b)`, left-aligned, zero-padded to the widest field's
    ceil(w / 8) words, one at least."""
    width = hi - lo
    ahead = np.arange(0, max(int(width.max()), 1), 8)
    at = lo[:, None] + ahead
    # A word wholly past its field may run off the block; it is masked off.
    keys = _words(b)[np.minimum(at, len(b) - 8, out=at)]
    in_field = np.subtract(width[:, None], ahead, out=at)
    keys &= _KEEP_FIRST.take(in_field, mode="clip")
    return keys


def _users_masks(b: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 state: _FileState, first_line: int) -> np.ndarray:
    """Masks of the users fields b[lo:hi], looked up in the file's slot
    table by their `_users_keys`; each distinct field it misses goes through
    `state.mask` once, in order of first appearance."""
    # A field far longer than the block's lines; the pads do not count.
    if int((hi - lo).max()) * len(lo) > 8 * (len(b) - len(_FRONT_PAD + _BACK_PAD)):
        raise _NotPlain
    return state.table.resolve(_users_keys(b, lo, hi), lambda i: state.mask(
        b[lo[i]:hi[i]].tobytes().decode("ascii"), first_line + i))


def _parse_events(text: str, state: _FileState, first_line: int):
    """(starts, ends, kinds, masks) of whole event lines in the plain form."""
    if not text.isascii():
        raise _NotPlain
    if not text.endswith("\n"):
        text += "\n"
    b = np.frombuffer(b"".join((_FRONT_PAD, text.encode("ascii"), _BACK_PAD)),
                      np.uint8)
    body = b[len(_FRONT_PAD):-len(_BACK_PAD)]
    nl = np.flatnonzero(b == _NL)
    commas = np.flatnonzero(b == _COMMA)
    n = len(nl)
    # Plain: printable ASCII other than space, and "\n" (the one byte below "!").
    if (body.max() > np.uint8(0x7E) or len(commas) != 3 * n
            or np.count_nonzero(body < np.uint8(0x21)) != n):
        raise _NotPlain
    c0, c1, c2 = commas.reshape(n, 3).T
    # With both bounds non-empty, c0 follows the previous newline, so each
    # line holds exactly its own three commas.
    if np.any(c2 >= nl) or np.any(c2 - c1 != 2):
        raise _NotPlain
    words = _words(b)
    bounds = []
    for lo, hi in ((np.concatenate(([len(_FRONT_PAD)], nl[:-1] + 1)), c0),
                   (c0 + 1, c1)):
        values = _digit_field(words, lo, hi)
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
