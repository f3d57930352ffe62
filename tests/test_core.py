"""Core types: events, traces, validation, unit conversion, file round-trips."""
import io
import itertools
import os
import re
import subprocess
import sys
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import macfair
from macfair import core
from macfair.core import (
    COLLISION_CODE,
    IDLE_CODE,
    SUCCESS_CODE,
    AlohaParams,
    ChannelEvent,
    ChannelTrace,
    CsmaParams,
    EventKind,
    OrderError,
    OverlapError,
    TraceError,
    TraceParseError,
    UnitError,
    UnknownUserError,
    collision,
    idle,
    slots_to_us,
    success,
    successes_of,
    us_to_slots,
    validate_trace,
)


class TestUnits:
    def test_exact_conversion(self):
        assert us_to_slots(600, 20) == 30
        assert slots_to_us(30, 20) == 600

    def test_round_trip_on_multiples(self):
        for us in range(0, 2000, 20):
            assert slots_to_us(us_to_slots(us, 20), 20) == us

    def test_non_multiple_rejected(self):
        with pytest.raises(UnitError):
            us_to_slots(30, 20)

    def test_bad_slot_size(self):
        with pytest.raises(UnitError):
            us_to_slots(40, 0)


class TestChannelEvent:
    def test_kinds_constrain_user_counts(self):
        with pytest.raises(TraceError):
            ChannelEvent(0, 1, EventKind.SUCCESS, ())
        with pytest.raises(TraceError):
            ChannelEvent(0, 1, EventKind.COLLISION, ("A",))
        with pytest.raises(TraceError):
            ChannelEvent(0, 1, EventKind.IDLE, ("A",))

    def test_empty_event_rejected(self):
        with pytest.raises(TraceError):
            success(5, 5, "A")
        with pytest.raises(TraceError):
            success(5, 4, "A")

    def test_duration_and_user(self):
        ev = success(120, 153, "A")
        assert ev.duration == 33
        assert ev.user == "A"
        with pytest.raises(TraceError):
            collision(200, 206, ("A", "B")).user


def _assert_matches_oracle(raw):
    """Construction raises the oracle's fault, naming its event, or builds a
    trace whose success index is the one an event scan gives."""
    fault = helpers.validity_fault(*raw)
    if fault is not None:
        error, event = fault
        with pytest.raises(TraceError) as err:
            ChannelTrace(*raw)
        assert type(err.value) is error
        if event is not None:
            assert re.match(rf"events? {event}\b", str(err.value))
        return
    tr = ChannelTrace(*raw)
    kinds, masks = raw[3], raw[4]
    hit = [k for k, kind in enumerate(kinds) if kind == SUCCESS_CODE]
    assert tr.success_index[0].tolist() == hit
    assert tr.success_index[1].tolist() == \
        [masks[k].bit_length() - 1 for k in hit]


class TestValidateTrace:
    def test_valid_trace_passes(self, fig_trace):
        assert validate_trace(fig_trace) is fig_trace

    def test_overlap_detected(self):
        with pytest.raises(OverlapError, match="events 0 and 1 overlap"):
            ChannelTrace.from_events(
                ("A", "B"), [success(0, 5, "A"), success(3, 8, "B")], 10)

    def test_order_detected(self):
        with pytest.raises(OrderError, match="event 1 starts before event 0"):
            ChannelTrace.from_events(
                ("A", "B"), [success(5, 8, "A"), success(0, 3, "B")], 10)

    def test_unknown_user_in_event(self):
        with pytest.raises(UnknownUserError):
            ChannelTrace.from_events(("A", "B"), [success(0, 1, "Z")], 2)

    def test_mask_bits_beyond_user_set(self):
        with pytest.raises(UnknownUserError,
                           match="event 0: event mask uses bits beyond"):
            ChannelTrace(("A", "B"), [0], [1], [0], [4], 2)

    @pytest.mark.parametrize("kind,mask,error,message", [
        (SUCCESS_CODE, 0, TraceError, "Success events must name exactly one"),
        (SUCCESS_CODE, 3, TraceError, "Success events must name exactly one"),
        (COLLISION_CODE, 1, TraceError, "Collision events must name at least"),
        (IDLE_CODE, 1, TraceError, "Idle events must name no users"),
        (SUCCESS_CODE, -1, UnknownUserError, "bits beyond the user set"),
    ], ids=["success-empty", "success-two", "collision-one", "idle-one",
            "negative-mask"])
    def test_kind_mask_mismatch(self, kind, mask, error, message):
        with pytest.raises(error, match=f"event 1: .*{message}"):
            ChannelTrace(("A", "B"), [0, 1], [1, 2], [SUCCESS_CODE, kind],
                         [1, mask], 2)

    @pytest.mark.parametrize("code", [7, 3, -1])
    def test_unknown_kind_code(self, code):
        with pytest.raises(TraceError,
                           match="event 1: event kind codes must be 0, 1 or 2"):
            ChannelTrace(("A", "B"), [0, 5], [5, 7],
                         np.array([IDLE_CODE, code], np.int8), [0, 0], 10)

    def test_order_fault_named_before_earlier_overlap(self):
        with pytest.raises(OrderError, match="event 3 starts before event 2"):
            ChannelTrace.from_events(
                ("A", "B"), [success(0, 5, "A"), success(3, 8, "B"),
                             success(10, 12, "A"), success(9, 10, "B")], 12)

    def test_horizon_violation(self):
        with pytest.raises(TraceError,
                           match="event 1: event extends past the horizon"):
            ChannelTrace.from_events(
                ("A", "B"), [success(0, 2, "A"), success(2, 5, "B")], 3)

    def test_start_before_slot_0_and_negative_horizon(self):
        with pytest.raises(TraceError,
                           match="event 0: event starts before slot 0"):
            ChannelTrace(("A",), [-1], [1], [SUCCESS_CODE], [1], 2)
        with pytest.raises(TraceError, match="negative horizon"):
            ChannelTrace(("A",), [], [], [], [], -1)

    def test_back_to_back_is_legal(self):
        tr = helpers.pattern_trace("ABAB")
        assert validate_trace(tr) is tr

    def test_empty_trace_is_legal(self):
        tr = ChannelTrace.from_events(("A", "B"), [], 100)
        assert validate_trace(tr) is tr

    @given(helpers.traces())
    @settings(max_examples=60, deadline=None)
    def test_generated_traces_are_valid(self, tr):
        assert validate_trace(tr) is tr

    def test_construction_calls_the_module_global(self):
        # Code that wraps `core.validate_trace` sees every construction.
        with mock.patch.object(core, "validate_trace",
                               wraps=validate_trace) as check:
            tr = helpers.pattern_trace("ABAB")
        check.assert_called_once_with(tr)

    @given(helpers.raw_traces())
    @settings(max_examples=200, deadline=None)
    def test_construction_matches_oracle(self, raw):
        _assert_matches_oracle(raw)

    def test_construction_matches_oracle_on_small_traces(self):
        # Every one- and two-event trace over a few values, so that each
        # check meets faults, alone and behind another one.
        users = ("A", "B")
        for s, e, k, m, h in itertools.product(
                [-1, 0, 1], [0, 1, 2], [-1, 0, 1, 2, 3], [-1, 0, 1, 2, 3, 4],
                [-1, 1, 2]):
            _assert_matches_oracle((users, [s], [e], [k], [m], h))
        for s0, e0, s1, e1, k0, k1, m0, m1, h in itertools.product(
                [0, 1], [1, 2], [0, 1, 2], [2, 3], *[[0, 1, 2, 3]] * 2,
                *[[0, 1, 3, 4]] * 2, [2, 3]):
            _assert_matches_oracle(
                (users, [s0, s1], [e0, e1], [k0, k1], [m0, m1], h))


class TestSuccessIndex:
    @given(helpers.traces(max_users=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_event_scan(self, tr):
        hit, uidx = tr.success_index
        events = list(tr.events())
        assert hit.tolist() == [k for k, ev in enumerate(events)
                                if ev.kind is EventKind.SUCCESS]
        assert uidx.tolist() == [int(tr.masks[k]).bit_length() - 1
                                 for k in hit.tolist()]

    def test_read_only_and_decoded_once(self, fig_trace):
        index = fig_trace.success_index
        assert fig_trace.success_index is index
        for arr in index:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[:1] = 0
        assert index[0].tolist() == [0] + list(range(2, 13))
        assert index[1].tolist() == [0, 1, 1, 2, 2, 1, 0, 2, 1, 2, 0, 1]

    @pytest.mark.parametrize("mask,error,message", [
        (3, TraceError, "Success events must name exactly one user"),
        (0, TraceError, "Success events must name exactly one user"),
        (4, UnknownUserError, "event mask uses bits beyond the user set"),
        (-1, UnknownUserError, "event mask uses bits beyond the user set"),
        (-2**63, UnknownUserError, "event mask uses bits beyond the user set"),
    ], ids=["two-bits", "zero", "beyond", "minus-1", "int64-min"])
    def test_bad_success_mask_raises(self, mask, error, message):
        # A Success mask that is not one user's bit fails construction, so
        # no trace that `success_index` decodes holds one.
        with pytest.raises(error, match=f"event 1: {message}"):
            ChannelTrace(("A", "B"), [0, 1, 2, 3, 4], [1, 2, 3, 4, 5],
                         [SUCCESS_CODE] * 5, [1, mask, 1, 2, 1], 5)


class TestSuccessesOf:
    def test_ordered_and_filtered(self, fig_trace):
        ends = [ev.end for ev in successes_of(fig_trace, "B")]
        assert ends == [3, 4, 7, 10, 13]

    def test_unknown_user(self, fig_trace):
        with pytest.raises(UnknownUserError):
            successes_of(fig_trace, "Z")

    @given(helpers.traces())
    @settings(max_examples=40, deadline=None)
    def test_matches_event_scan(self, tr):
        for user in tr.users:
            want = [ev for ev in tr.events()
                    if ev.kind is EventKind.SUCCESS and user in ev.users]
            got = successes_of(tr, user)
            assert [(e.start, e.end) for e in got] == \
                   [(e.start, e.end) for e in want]


class TestFileRoundTrip:
    def test_exact_lines(self):
        tr = ChannelTrace.from_events(
            ("A", "B"),
            [success(120, 153, "A"), idle(153, 200), collision(200, 206, ("A", "B"))],
            210)
        buf = io.StringIO()
        tr.write(buf)
        lines = buf.getvalue().splitlines()
        assert "120,153,S,A" in lines
        assert "153,200,I," in lines
        assert "200,206,C,A+B" in lines
        assert lines[0] == "#slots_per_unit=1"

    def test_round_trip_field_for_field(self, fig_trace):
        buf = io.StringIO()
        fig_trace.write(buf)
        back = ChannelTrace.read(io.StringIO(buf.getvalue()))
        assert back == fig_trace

    @given(helpers.traces())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, tr):
        buf = io.StringIO()
        tr.write(buf)
        back = ChannelTrace.read(io.StringIO(buf.getvalue()))
        assert back == tr

    def test_headerless_file_infers_users_and_horizon(self):
        text = "0,5,S,A\n5,9,S,B\n9,12,C,A+B\n"
        tr = ChannelTrace.read(io.StringIO(text))
        assert tr.users == ("A", "B")
        assert tr.horizon == 12
        assert len(tr) == 3

    @pytest.mark.parametrize("text,users,horizon,masks", [
        ("0,4,C,B+A\n4,9,S,A\n12,13,S,B\n", ("B", "A"), 13, [3, 2, 1]),
        ("#users=A+B\n", ("A", "B"), 0, []),
    ])
    def test_headerless_order_and_horizon(self, text, users, horizon, masks):
        tr = ChannelTrace.read(io.StringIO(text))
        assert tr.users == users
        assert tr.horizon == horizon
        assert tr.masks.tolist() == masks

    @pytest.mark.parametrize("text,error,message", [
        ("0,4,C,B+A\n4,9,S,A\n2,3,S,B\n", OrderError,
         "event 2 starts before event 1"),
        ("0,5,S,A\n4,9,S,B\n", OverlapError, "events 0 and 1 overlap"),
        ("#horizon=6\n0,5,S,A\n5,9,S,B\n", TraceError,
         "event 1: event extends past the horizon"),
        ("#users=A+B\n0,5,I,\n5,9,S,A+B\n", TraceError,
         "event 1: Success events must name exactly one user"),
    ], ids=["unsorted", "overlap", "past-horizon", "two-user-success"])
    def test_invalid_trace_fails_at_read(self, text, error, message):
        with pytest.raises(error, match=message):
            ChannelTrace.read(io.StringIO(text))

    def test_slots_per_unit_scales(self):
        text = "#slots_per_unit=3\n0,2,S,A\n2,4,S,B\n"
        tr = ChannelTrace.read(io.StringIO(text))
        assert tr.starts.tolist() == [0, 6]
        assert tr.ends.tolist() == [6, 12]

    @pytest.mark.parametrize("headers", [
        "#slots_per_unit=2\n#horizon=10\n",
        "#horizon=10\n#slots_per_unit=2\n",
    ], ids=["scale-first", "horizon-first"])
    def test_slots_per_unit_scales_horizon(self, headers):
        tr = ChannelTrace.read(io.StringIO(headers + "0,5,S,A\n5,8,S,B\n"))
        assert tr.ends.tolist() == [10, 16]
        assert tr.horizon == 20

    @pytest.mark.parametrize("text,line_no", [
        ("0,99999999999999999999,S,A\n", 1),
        ("#slots_per_unit=4\n0,4611686018427387904,S,A\n", 2),
        ("0,1,S,A\n-9223372036854775809,2,S,B\n", 2),
    ], ids=["raw", "scaled", "negative"])
    def test_bounds_beyond_int64_rejected(self, text, line_no):
        with pytest.raises(TraceParseError, match="int64") as err:
            ChannelTrace.read(io.StringIO(text))
        assert err.value.line_no == line_no

    def test_bounds_at_int64_edge_accepted(self):
        text = "#slots_per_unit=2\n0,4611686018427387903,S,A\n"
        assert ChannelTrace.read(io.StringIO(text)).ends.tolist() == [2**63 - 2]

    def test_parse_error_carries_line_number(self):
        bad = "0,5,S,A\nnot-a-line\n"
        with pytest.raises(TraceParseError) as err:
            ChannelTrace.read(io.StringIO(bad))
        assert err.value.line_no == 2

    def test_bad_kind_rejected(self):
        with pytest.raises(TraceParseError):
            ChannelTrace.read(io.StringIO("0,5,X,A\n"))

    @pytest.mark.parametrize("label", ["B ", "B\t", "\u00a0", "B\u2028"])
    def test_label_ending_in_whitespace_rejected(self, label):
        # The reader strips each line, so such a label would not read back.
        with pytest.raises(TraceError, match="invalid user label"):
            ChannelTrace(("A", label), [], [], [], [], 0)

    def test_unknown_user_against_header(self):
        text = "#users=A+B\n0,5,S,Z\n"
        with pytest.raises(TraceParseError):
            ChannelTrace.read(io.StringIO(text))

    @pytest.mark.parametrize("header", ["#users=B+A", "#slots_per_unit=2"])
    def test_header_after_first_event_rejected(self, header):
        text = f"#users=A+B\n0,5,S,A\n5,9,S,A\n{header}\n9,12,S,B\n"
        with pytest.raises(TraceParseError) as err:
            ChannelTrace.read(io.StringIO(text))
        assert err.value.line_no == 4

    def test_unknown_header_rejected(self):
        text = "#users=A+B\n#user=A\n0,5,S,A\n"
        with pytest.raises(TraceParseError) as err:
            ChannelTrace.read(io.StringIO(text))
        assert err.value.line_no == 2

    @pytest.mark.parametrize("first,again", [
        ("#slots_per_unit=2", "#slots_per_unit=3"),
        ("#users=A+B", "#users=B+A"),
        ("#horizon=100", "#horizon=100"),
    ])
    def test_repeated_header_rejected(self, first, again):
        text = f"{first}\n\n{again}\n0,1,S,A\n1,2,S,B\n"
        with pytest.raises(TraceParseError, match="repeated header") as err:
            ChannelTrace.read(io.StringIO(text))
        assert err.value.line_no == 3

    def test_file_io(self, tmp_path, fig_trace):
        path = tmp_path / "trace.csv"
        fig_trace.to_file(path)
        assert ChannelTrace.from_file(path) == fig_trace

    def test_file_is_utf8_whatever_the_locale(self, tmp_path):
        # Under the C locale, with UTF-8 mode and locale coercion off,
        # Python's default file encoding is ASCII.
        path = tmp_path / "trace.csv"
        code = ("import locale, sys\n"
                "from macfair.core import ChannelTrace\n"
                # The label as an escape: the C locale cannot pass an "é".
                "tr = ChannelTrace(('\\u00e9', 'B'), [0, 3], [3, 5], [0, 0],"
                " [1, 2], 5)\n"
                "tr.to_file(sys.argv[1])\n"
                "assert ChannelTrace.from_file(sys.argv[1]) == tr\n"
                "print(locale.getpreferredencoding(False))\n")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code, str(path)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() in ("ANSI_X3.4-1968", "ascii", "US-ASCII")
        assert path.read_bytes().splitlines()[1] == "#users=\u00e9+B".encode()


def _written(tr: ChannelTrace, writer) -> str:
    buf = io.StringIO()
    writer(tr, buf)
    return buf.getvalue()


def _block_trace(n: int, seed: int = 0) -> ChannelTrace:
    """A valid trace over several write and read blocks, with masks whose
    first appearances fall in different blocks."""
    rng = np.random.default_rng(seed)
    users = ("A", "B", "C", "D")
    kinds = rng.choice(np.array([SUCCESS_CODE, COLLISION_CODE, IDLE_CODE],
                                np.int8), n)
    masks = np.where(kinds == SUCCESS_CODE, 1 << rng.integers(0, 3, n),
                     np.where(kinds == COLLISION_CODE, 3, 0))
    kinds[n - 5], masks[n - 5] = SUCCESS_CODE, 8  # D's only success
    ends = np.cumsum(rng.integers(1, 10**9, n))
    return ChannelTrace(users, ends - 1, ends, kinds, masks, int(ends[-1]) + 3)


class TestColumnarWrite:
    """`write` emits the bytes of the f-string writer in `helpers`."""

    @given(helpers.wide_traces())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_writer(self, tr):
        assert _written(tr, ChannelTrace.write) == \
            _written(tr, helpers.write_rows)

    @pytest.mark.parametrize("tr", [
        ChannelTrace(("A", "B"), [], [], [], [], 0),
        ChannelTrace(("solo",), [0, 5], [5, 9], [SUCCESS_CODE, IDLE_CODE],
                     [1, 0], 9),
        ChannelTrace(("é", "日本", "A"), [0, 1, 2], [1, 2, 3],
                     [SUCCESS_CODE, COLLISION_CODE, SUCCESS_CODE], [2, 7, 1], 3),
        ChannelTrace(("A", "B"), [2**62 - 1, 2**62, 2**63 - 2],
                     [2**62, 2**62 + 1, 2**63 - 1],
                     [SUCCESS_CODE, SUCCESS_CODE, IDLE_CODE], [1, 2, 0], 2**63 - 1),
        _block_trace(3 * core._BLOCK_BYTES // core._WIDEST_BOUNDS),
        ChannelTrace(("L" * 300_000, "B"), np.arange(40), np.arange(1, 41),
                     np.tile([SUCCESS_CODE, SUCCESS_CODE, COLLISION_CODE,
                              IDLE_CODE], 10), np.tile([1, 2, 3, 0], 10), 40),
    ], ids=["empty", "one-user", "non-ascii", "near-2**62", "many-blocks",
            "long-label"])
    def test_edge_cases(self, tr):
        assert _written(tr, ChannelTrace.write) == \
            _written(tr, helpers.write_rows)


def _outcome(reader, text: str):
    """The trace a reader returns, or its error's type, message and line."""
    try:
        return reader(io.StringIO(text))
    except TraceError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


_USERS_64 = "+".join(f"U{i}" for i in range(64))

# Edits that take one event line out of the plain form or make it an error.
_EDITS = {
    "space": lambda line: line.replace(",", ", ", 1),
    "trailing-space": lambda line: line[:-1] + " \n",
    "cr": lambda line: line[:-1] + "\r\n",
    "plus": lambda line: "+" + line,
    "minus": lambda line: line.replace(",", ",-", 1),
    "header-before": lambda line: "#horizon=5\n" + line,
    "blank-before": lambda line: "\n" + line,
    "unknown-user": lambda line: line[:-1] + "+Z\n",
    "repeated-user": lambda line: line[:-1] + "+A\n",
    "19-digit-start": lambda line: "1" + "0" * 18 + line[line.index(","):],
    "20-digit-start": lambda line: "9" * 20 + line[line.index(","):],
}


# Inputs on which `read` must give what the row parser gives: the ways out
# of the plain form, the errors a plain body can hold, and edge cases.
_READ_CASES = {
    "non-ascii-label": "0,5,S,\u00c5\n5,9,S,B\n",
    "del-byte": "0,5,S,A\n5,9,S,B\x7f\n",
    "space-in-bound": "0, 5,S,A\n",
    "trailing-space": "0,5,S,A \n5,9,S,B\n",
    "crlf": "0,5,S,A\r\n5,9,S,B\r\n",
    "tab": "0,5,S,A\t\n",
    "tab-kind": "0,5,\tS,A\n",
    "plus-sign": "+0,5,S,A\n",
    "minus-sign": "0,-5,S,A\n",
    "negative-start": "0,5,S,A\n-3,9,S,B\n",
    "empty-start": ",5,S,A\n",
    "empty-end": "0,,S,A\n",
    "empty-kind": "0,5,,A\n",
    "19-digits": "0,1000000000000000000,S,A\n",
    "int64-max": "0,9223372036854775807,S,A\n",
    "20-digits": "0,99999999999999999999,S,A\n",
    "underscore": "0,1_000,S,A\n",
    "blank-line": "0,5,S,A\n\n5,9,S,B\n",
    "space-line": "0,5,S,A\n   \n5,9,S,B\n",
    "trailing-blank-line": "0,5,S,A\n\n",
    "unknown-kind": "0,5,X,A\n",
    "two-letter-kind": "0,5,SS,A\n",
    "lower-case-kind": "0,5,s,A\n",
    "unknown-user": "#users=A+B\n0,5,S,A\n5,9,S,Z\n",
    "unknown-user-in-collision": "#users=A+B\n0,5,C,A+Z\n",
    "three-fields": "0,5,S\n",
    "five-fields": "0,5,S,A,B\n",
    "header-after-event": "0,5,S,A\n#horizon=9\n",
    "users-header-last": "0,5,S,A\n5,9,S,B\n#users=A+B\n",
    "scale-beyond-int64-zero":
        "#slots_per_unit=9223372036854775808\n0,0,S,A\n",
    "scale-beyond-int64":
        "#slots_per_unit=9223372036854775808\n0,0,S,A\n0,1,S,B\n",
    "scaled-to-int64-edge": "#slots_per_unit=4\n0,2305843009213693951,S,A\n",
    "scaled-past-int64": "#slots_per_unit=4\n0,2305843009213693952,S,A\n",
    "18-digits-scaled-to-edge":
        "#slots_per_unit=10\n0,922337203685477580,S,A\n",
    "18-digits-scaled-past-int64":
        "#slots_per_unit=10\n0,5,S,A\n5,922337203685477581,S,B\n",
    "repeated-user": "0,5,S,A+A\n",
    "repeated-user-in-collision": "0,5,C,A+B+A\n",
    "empty-label": "0,5,C,A++B\n",
    "no-final-newline": "0,5,S,A\n5,9,S,B",
    "64-users-header": "#users=" + _USERS_64 + "\n0,1,S,U0\n",
    "64-users-inferred": "".join(f"{i},{i + 1},S,U{i}\n" for i in range(64)),
    "63-users-inferred": "".join(f"{i},{i + 1},S,U{i}\n" for i in range(63)),
    "arabic-indic-digit": "0,\u0665,S,A\n",
    "underscore-start": "1_0,20,S,A\n",
    "underscore-horizon": "#horizon=1_0\n0,5,S,A\n",
    "non-ascii-scale": "#slots_per_unit=\u0662\n0,5,S,A\n",
    "trailing-plus-label": "0,5,S,A\n5,9,C,A+\n",
    "trailing-plus-users-header": "#users=A+\n0,5,S,A\n",
    "hash-label": "0,5,S,A\n5,9,S,#B\n",
    "repeated-user-header": "#users=A+A\n0,5,S,A\n",
    "empty-file": "",
    "headers-only": "\n\n#users=A+B\n\n",
}


class TestColumnarRead:
    """`read` returns what the row parser returns, trace or error alike."""

    @pytest.mark.parametrize("text", list(_READ_CASES.values()),
                             ids=list(_READ_CASES))
    def test_matches_row_parser(self, text):
        assert _outcome(ChannelTrace.read, text) == \
            _outcome(helpers.read_rows, text)

    @pytest.mark.parametrize("text,line_no,message", [
        ("0,5,S,A+A\n", 1, "user 'A' named twice"),
        ("#users=A+B\n0,1,S,A\n1,5,C,A+B+A\n", 3, "user 'A' named twice"),
        ("#users=" + _USERS_64 + "\n0,1,S,U63\n", 1, "more than 63 users"),
        ("".join(f"{i},{i + 1},S,U{i}\n" for i in range(64)), 64,
         "more than 63 users"),
    ], ids=["success", "collision", "64-users-header", "64-users-inferred"])
    def test_users_field_errors(self, text, line_no, message):
        with pytest.raises(TraceParseError, match=message) as err:
            ChannelTrace.read(io.StringIO(text))
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("text,line_no,message", [
        ("0,1_000,S,A\n", 1, "bad slot bounds '0','1_000'"),
        ("0,5,S,A\n5,\u0665,S,B\n", 2, "bad slot bounds '5','\u0665'"),
        ("#horizon=1_0\n0,5,S,A\n", 1, "bad horizon '1_0'"),
        ("#slots_per_unit=\u0662\n", 1, "bad slots_per_unit"),
        ("0,5,S,A\n5,9,C,A+\n", 2, "invalid user label ''"),
        ("#users=A+\n", 1, "invalid user label ''"),
        ("0,5,S,A\n5,9,S,#B\n", 2, "invalid user label '#B'"),
        ("#users=A+A\n", 1, "duplicate user labels"),
        ("#horizon=9\n#users=A +B\n0,5,S,A\n", 2, "invalid user label 'A '"),
        ("0,5,S,A\n5,9,C,A +B\n", 2, "invalid user label 'A '"),
    ], ids=["underscore", "arabic-indic-digit", "underscore-horizon",
            "non-ascii-scale", "trailing-plus-label", "trailing-plus-header",
            "hash-label", "repeated-user-header", "space-before-plus-header",
            "space-before-plus-label"])
    def test_value_errors_name_their_line(self, text, line_no, message):
        with pytest.raises(TraceParseError, match=message) as err:
            ChannelTrace.read(io.StringIO(text))
        assert err.value.line_no == line_no

    def test_signed_and_spaced_bounds_accepted(self):
        tr = ChannelTrace.read(io.StringIO("+0, 5 ,S,A\n5,\t9,S,B\n"))
        assert tr.starts.tolist() == [0, 5] and tr.ends.tolist() == [5, 9]

    def test_plain_body_skips_row_parser(self, monkeypatch):
        tr = _block_trace(3 * core._BLOCK_BYTES // 30)
        text = _written(tr, ChannelTrace.write)
        assert len(text) > 2 * core._BLOCK_BYTES
        headerless = text.split("\n", 3)[3]
        long_line = "0,5,S," + "L" * (core._BLOCK_BYTES + 5) + "\n5,9,I,\n"
        texts = [text, headerless, "#slots_per_unit=3\n" + headerless,
                 long_line]
        want = [helpers.read_rows(io.StringIO(t)) for t in texts]
        assert want[0] == tr and want[1].users[-1] == "D"
        assert np.array_equal(want[2].ends, 3 * tr.ends)

        def no_rows(*args):
            raise AssertionError("plain block sent to the row parser")

        monkeypatch.setattr(core, "_parse_rows", no_rows)
        assert [ChannelTrace.read(io.StringIO(t)) for t in texts] == want

    def test_anomaly_sends_only_its_block_to_row_parser(self, monkeypatch):
        lines = _written(_block_trace(3 * core._BLOCK_BYTES // 30),
                         ChannelTrace.write).splitlines(keepends=True)
        i = len(lines) // 2
        lines[i] = lines[i].replace("\n", " \n")
        text = "".join(lines)
        want = helpers.read_rows(io.StringIO(text))
        calls = []
        rows = core._parse_rows

        def spy(block, state, first_line):
            calls.append((first_line, block.count("\n")))
            return rows(block, state, first_line)

        monkeypatch.setattr(core, "_parse_rows", spy)
        assert ChannelTrace.read(io.StringIO(text)) == want
        [(first_line, n_lines)] = calls
        assert first_line <= i + 1 < first_line + n_lines
        assert 4 < first_line and n_lines < len(lines) // 2

    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_anomaly_in_any_block(self, first):
        lines = _written(_block_trace(3 * core._BLOCK_BYTES // 30),
                         ChannelTrace.write).splitlines(keepends=True)
        i = 3 if first else len(lines) - 1  # after the three headers
        lines[i] = lines[i].replace(",", ",,", 1)
        text = "".join(lines)
        outcome = _outcome(ChannelTrace.read, text)
        assert outcome == _outcome(helpers.read_rows, text)
        assert outcome[2] == i + 1

    @given(helpers.traces(max_events=40),
           st.sampled_from(["keep", "drop", "scale"]),
           st.lists(st.tuples(st.integers(0, 99),
                              st.sampled_from(list(_EDITS))), max_size=4),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_small_blocks_match_row_parser(self, tr, headers, edits, cut_end):
        # Blocks of a few lines each, so that edited and plain blocks mix.
        lines = _written(tr, ChannelTrace.write).splitlines(keepends=True)
        head, body = lines[:3], lines[3:]
        if headers == "drop":
            head = []
        elif headers == "scale":
            head[0] = "#slots_per_unit=3\n"
        for pos, edit in edits:
            if body:
                body[pos % len(body)] = _EDITS[edit](body[pos % len(body)])
        text = "".join(head + body)
        if cut_end:
            text = text.removesuffix("\n")
        with mock.patch.object(core, "_BLOCK_BYTES", 48):
            got = _outcome(ChannelTrace.read, text)
        assert got == _outcome(helpers.read_rows, text)

    def test_long_field_among_short_lines(self):
        # Mixed into short lines, a long users field goes to the row parser
        # rather than widening every line's key to its length.
        text = "#users=" + "L" * 300_000 + "+B\n" + "".join(
            f"{i},{i + 1},S,{'B' if i % 100 else 'L' * 300_000}\n"
            for i in range(3000))
        assert _outcome(ChannelTrace.read, text) == \
            _outcome(helpers.read_rows, text)

    def test_unseekable_stream(self):
        class Pipe(io.StringIO):
            def tell(self):
                raise io.UnsupportedOperation("not seekable")

            def seek(self, *args):
                raise io.UnsupportedOperation("not seekable")

        lines = _written(_block_trace(3 * core._BLOCK_BYTES // 30),
                         ChannelTrace.write).splitlines(keepends=True)
        lines[-1] = lines[-1].replace("\n", " \n")
        for text in ("".join(lines), "#users=A+B\n0,5,S,A\n5,9,S,B \n"):
            assert ChannelTrace.read(Pipe(text)) == \
                _outcome(helpers.read_rows, text)


class TestParams:
    def test_aloha_bounds(self):
        AlohaParams(0.0, 1.0)
        with pytest.raises(TraceError):
            AlohaParams(-0.1, 0.5)
        with pytest.raises(TraceError):
            AlohaParams(0.5, 1.1)
        with pytest.raises(TraceError):
            AlohaParams(0.5, 0.5, slot=0)

    def test_csma_derived_lengths(self):
        p = CsmaParams(cw_min=32, beta=5, l_difs=4, l_pkt=30)
        assert p.l_tran == 31
        assert p.l_rcts == 2
        assert p.l_nav == 32
        assert p.cw_max == 1024

    def test_csma_window_ladder(self):
        p = CsmaParams(cw_min=32, beta=5, l_difs=4, l_pkt=30)
        assert [p.cw(s) for s in range(7)] == [32, 64, 128, 256, 512, 1024, 1024]

    def test_csma_validation(self):
        with pytest.raises(TraceError):
            CsmaParams(cw_min=0, beta=5, l_difs=4, l_pkt=30)
        with pytest.raises(TraceError):
            CsmaParams(cw_min=32, beta=-1, l_difs=4, l_pkt=30)
        with pytest.raises(TraceError):
            CsmaParams(cw_min=32, beta=5, l_difs=0, l_pkt=30)


def test_package_exports_no_modules():
    assert macfair.__all__
    for name in macfair.__all__:
        assert not isinstance(getattr(macfair, name), types.ModuleType), name
    assert {"ChannelTrace", "channel_cycle_time", "simulate_csma"} <= \
        set(macfair.__all__)
