"""The channel trace file format, which `ChannelTrace.write`, `read`,
`to_file` and `from_file` use: one event per line, start,end,kind,users with
kind in {S,C,I} and users a +-joined list (empty for idle).  Lines starting
with # are headers (slots_per_unit, users, horizon) and must all precede the
first event.

Both directions work through the body in blocks of about _BLOCK_BYTES, so
that temporaries stay small whatever the file size.  An event line is its
bounds, then its participant set's `kind,users` text.  Writing builds each
block as byte columns; reading takes a block's fields as 8-byte words, each
bound's digits combined by SWAR multiply-shift steps.  One _SlotTable per
file maps a users field's bytes, of any width, to its mask when reading,
and a mask to the row of its set's text when writing.  Both directions
resolve the keys a table misses in the same way, `_SlotTable.resolve`:
only those keys are sorted, and each distinct one takes the slow path once.

Reading takes a block's fields as little-endian 64-bit words, the word at
byte offset i holding bytes i to i + 7, byte i in its lowest bits.  The
zero pads around a block keep inside it every word a field reads: up to
three back from a bound's end, and a users field's last, which may run up
to 7 bytes past the field.  _KEEP_FIRST[m] keeps a word's first m bytes,
_KEEP_LAST[m] its last m.
"""
from __future__ import annotations

from typing import Iterator, TextIO

import numpy as np

from .core import (_KIND_TO_CODE, _MAX_USERS, ChannelTrace, TraceParseError,
                   _check_label, _decimal, _one_user, mask_dtype)

_BLOCK_BYTES = 1 << 18
_MAX_DIGITS = 18          # every bound of at most 18 digits fits in int64
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1

_NL, _COMMA, _MINUS, _ZERO = (np.uint8(ord(c)) for c in "\n,-0")
_PAD = np.uint8(0xFF)     # an unused byte when writing: no UTF-8 text holds it
_KIND_OF_BYTE = np.full(256, -1, np.int8)
_KIND_OF_BYTE[[ord(k.value) for k in _KIND_TO_CODE]] = \
    list(_KIND_TO_CODE.values())
_CHAR_TO_CODE = {k.value: c for k, c in _KIND_TO_CODE.items()}

_FRONT_PAD, _BACK_PAD = bytes(24), bytes(8)
_EACH_BYTE = 0x0101010101010101
_ONES = 2**64 - 1
_KEEP_FIRST = np.array([(1 << 8 * m) - 1 for m in range(9)], np.uint64)
_KEEP_LAST = np.array([_ONES ^ (_ONES >> 8 * m) for m in range(9)], np.uint64)


def write(trace: ChannelTrace, fp: TextIO) -> None:
    """`ChannelTrace.write`: the headers, then the body in blocks."""
    fp.write("#slots_per_unit=1\n")
    fp.write(f"#users={'+'.join(trace.users)}\n")
    fp.write(f"#horizon={trace.horizon}\n")
    # A block's byte matrix holds a column per line, as long as the
    # block's widest line, so blocks of _BLOCK_BYTES // _widest_line(trace)
    # lines keep every matrix within _BLOCK_BYTES.
    step = max(1, _BLOCK_BYTES // _widest_line(trace))
    fields = _UsersFields(trace.users)
    for lo in range(0, len(trace), step):
        block = slice(lo, lo + step)
        text = _render_events(trace.starts[block], trace.ends[block],
                              fields.rows(trace.masks[block]))
        fp.write(text.decode())


def read(fp: TextIO) -> ChannelTrace:
    """`ChannelTrace.read`: the blocks of `read_blocks`, joined at the end."""
    state = _FileState()
    columns = [[], [], [], []]  # each block's starts, ends, kinds, masks
    for values in read_blocks(fp, state):
        for blocks, v in zip(columns, values):
            blocks.append(v)
    # One column at a time, each column's blocks freed once it is joined.
    for i, blocks in enumerate(columns):
        columns[i] = np.concatenate(blocks) if blocks else []
        blocks.clear()
    return state.trace(*columns)


def read_blocks(fp: TextIO, state: _FileState) -> Iterator[tuple]:
    """The (starts, ends, kinds, masks) of each body block of whole lines,
    after the headers have been read into `state`; a file of headers only
    has no block.  A block in the plain form is parsed by `_parse_events`,
    any other by `_parse_rows`."""
    for line_no, raw in enumerate(iter(fp.readline, ""), start=1):
        line = raw.strip()
        if line.startswith("#"):
            state.header(line, line_no)
        elif line:
            break
    else:
        return
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
            yield values
            line_no += lines
        pending = text[cut:]
        if not chunk:
            break


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


def _widest_line(trace: ChannelTrace) -> int:
    """The bytes of the widest event line `trace` can write: its largest
    bound twice, `,K,`, `,` and `\\n`, and the text naming every user.  A
    trace's bounds are non-negative and its ends increase, so its largest
    bound is its last end."""
    largest = int(trace.ends[-1]) if len(trace) else 0
    return (2 * len(str(largest)) + len(",K,,\n")
            + len("+".join(trace.users).encode()))


class _Full(Exception):
    """Widening the users table would take it past _BLOCK_BYTES."""


class _UsersFields:
    """The `kind,users` texts of one `write` call: each participant set's
    text rendered once into a row of a byte table, padded with _PAD to the
    table's width, and found by mask through a _SlotTable whose value is
    the row; masks whose slot is taken find their row in a dict.  The rows
    and the width grow independently: a text wider than all before it
    widens the table and leaves the earlier rows as they are."""

    def __init__(self, users: tuple[str, ...]):
        self.users = users
        self.clear()

    def clear(self) -> None:
        self.table, self.row_of = _SlotTable(), {}
        self.text = np.full((16, 0), _PAD)
        self.widths = np.zeros(16, np.intp)
        self.used = 0

    def rows(self, masks: np.ndarray) -> np.ndarray:
        """The masks' `kind,users` texts, a row per event in a byte matrix
        as wide as the widest of them, each padded with _PAD."""
        # Past a block's worth of table, start over; a block whose new texts
        # would widen the table past that starts over too, and one block's
        # texts alone fit it: at most one row for each of its lines, none
        # wider than its widest line.
        keys = masks.astype(np.uint64)[:, None]

        def find(i: int) -> int:
            return self._row(masks[i:i + 1])

        if self.used * self.text.shape[1] > _BLOCK_BYTES:
            self.clear()
        try:
            row = self.table.resolve(keys, find)
        except _Full:
            self.clear()
            row = self.table.resolve(keys, find)
        return self.text.take(row, 0)[:, :self.widths.take(row).max()]

    def _row(self, mask: np.ndarray) -> int:
        """The row of the text of `mask`, an array of one mask."""
        m = int(mask[0])
        row = self.row_of.get(m)
        if row is None:
            kind = "S" if _one_user(mask)[0] else "C" if m else "I"
            users = "+".join(u for b, u in enumerate(self.users) if m >> b & 1)
            text = np.frombuffer(f"{kind},{users}".encode(), np.uint8)
            rows, width = self.text.shape
            if len(text) > width:
                if self.used and self.used * len(text) > _BLOCK_BYTES:
                    raise _Full
                wide = np.full((rows, len(text)), _PAD)
                wide[:, :width] = self.text
                self.text = wide
            if self.used == rows:
                self.text = np.concatenate((self.text,
                                            np.full_like(self.text, _PAD)))
                self.widths = np.concatenate((self.widths,
                                              np.zeros_like(self.widths)))
            row = self.row_of[m] = self.used
            self.text[row, :len(text)] = text
            self.widths[row] = len(text)
            self.used += 1
        return row


def _int_rows(values: np.ndarray) -> np.ndarray:
    """Decimal text of int64 values, one column per value, right-aligned in
    a (width, n) byte matrix whose bytes before each number hold _PAD."""
    neg = np.flatnonzero(values < 0)
    mag = np.abs(values).view(np.uint64)  # abs wraps INT64_MIN to 2**63
    top = int(mag.max(initial=0))
    width = len(str(top)) + (len(neg) > 0)
    if top < 2**32:  # the divisions run faster on narrower words
        mag = mag.astype(np.uint32)
    ten = mag.dtype.type(10)
    text = np.empty((width, len(values)), np.uint8)
    low = mag.astype(np.uint8)
    for place, row in enumerate(text[::-1]):  # the units first
        # A place whose quotient is zero is before the number.
        pad = (mag == 0).view(np.uint8) * _PAD if place else None
        mag //= ten
        high = mag.astype(np.uint8)
        # Modulo 256, a digit is the low byte less ten times the quotient's.
        np.multiply(high, np.uint8(10), out=row)
        np.subtract(low, row, out=row)
        row += _ZERO
        if place:
            row |= pad  # "0" | 0xFF is _PAD
        low = high
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
    that `_UsersFields.rows` gives, a row per line."""
    n = len(starts)
    # A tiled block's n + 1 boundaries are rendered once: its starts are the
    # first n, its ends the last n.  Otherwise starts, then ends.
    tiled = np.array_equal(starts[1:], ends[:-1])
    bounds = _int_rows(np.concatenate((starts, ends[-1:] if tiled else ends)))
    k = 1 if tiled else n
    comma = np.full((1, n), _COMMA)
    # Byte by byte, a column per line, whose transpose reads each line's
    # bytes in order: whole rows copy faster than lines of a few bytes.
    return _unpadded(np.concatenate((bounds[:, :n], comma, bounds[:, k:k + n],
                                     comma, who.T, np.full((1, n), _NL))))


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
