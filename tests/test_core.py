"""Core types: events, traces, validation, unit conversion, file round-trips."""
import io

import numpy as np
import pytest
from hypothesis import given, settings

import helpers
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


class TestValidateTrace:
    def test_valid_trace_passes(self, fig_trace):
        assert validate_trace(fig_trace) is fig_trace

    def test_overlap_detected(self):
        tr = ChannelTrace.from_events(
            ("A", "B"), [success(0, 5, "A"), success(3, 8, "B")], 10)
        with pytest.raises(OverlapError):
            validate_trace(tr)

    def test_order_detected(self):
        tr = ChannelTrace.from_events(
            ("A", "B"), [success(5, 8, "A"), success(0, 3, "B")], 10)
        with pytest.raises(OrderError):
            validate_trace(tr)

    def test_unknown_user_in_event(self):
        with pytest.raises(UnknownUserError):
            ChannelTrace.from_events(("A", "B"), [success(0, 1, "Z")], 2)

    def test_mask_bits_beyond_user_set(self):
        tr = ChannelTrace(("A", "B"), [0], [1], [0], [4], 2)
        with pytest.raises(UnknownUserError):
            validate_trace(tr)

    @pytest.mark.parametrize("kind,mask,error,message", [
        (SUCCESS_CODE, 0, TraceError, "Success events must name exactly one"),
        (SUCCESS_CODE, 3, TraceError, "Success events must name exactly one"),
        (COLLISION_CODE, 1, TraceError, "Collision events must name at least"),
        (IDLE_CODE, 1, TraceError, "Idle events must name no users"),
        (SUCCESS_CODE, -1, UnknownUserError, "bits beyond the user set"),
    ], ids=["success-empty", "success-two", "collision-one", "idle-one",
            "negative-mask"])
    def test_kind_mask_mismatch(self, kind, mask, error, message):
        tr = ChannelTrace(("A", "B"), [0, 1], [1, 2], [SUCCESS_CODE, kind],
                          [1, mask], 2)
        with pytest.raises(error, match=message):
            validate_trace(tr)

    def test_horizon_violation(self):
        tr = ChannelTrace.from_events(("A", "B"), [success(0, 5, "A")], 3)
        with pytest.raises(TraceError):
            validate_trace(tr)

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
        ("0,4,C,B+A\n4,9,S,A\n2,3,S,B\n", ("B", "A"), 9, [3, 2, 1]),
        ("#users=A+B\n", ("A", "B"), 0, []),
    ])
    def test_headerless_order_and_horizon(self, text, users, horizon, masks):
        tr = ChannelTrace.read(io.StringIO(text))
        assert tr.users == users
        assert tr.horizon == horizon
        assert tr.masks.tolist() == masks

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
