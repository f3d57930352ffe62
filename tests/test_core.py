"""Core types: events, traces, validation, unit conversion, file round-trips."""
import dataclasses
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import macfair
from macfair import core, metrics
from macfair.core import (
    COLLISION_CODE,
    IDLE_CODE,
    SUCCESS_CODE,
    AlohaParams,
    ChannelEvent,
    ChannelTrace,
    CsmaMode,
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
from macfair.sim import SimConfig, simulate_aloha, simulate_csma, simulate_tdma


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


_KIND_MISMATCHES = [
    (SUCCESS_CODE, 0, TraceError, "Success events must name exactly one"),
    (SUCCESS_CODE, 3, TraceError, "Success events must name exactly one"),
    (COLLISION_CODE, 1, TraceError, "Collision events must name at least"),
    (IDLE_CODE, 1, TraceError, "Idle events must name no users"),
    (SUCCESS_CODE, -1, UnknownUserError, "bits beyond the user set"),
]
_KIND_MISMATCH_IDS = ["success-empty", "success-two", "collision-one",
                      "idle-one", "negative-mask"]


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

    @pytest.mark.parametrize("kind,mask,error,message", _KIND_MISMATCHES,
                             ids=_KIND_MISMATCH_IDS)
    def test_kind_mask_mismatch(self, kind, mask, error, message):
        with pytest.raises(error, match=f"event 1: .*{message}"):
            ChannelTrace(("A", "B"), [0, 1], [1, 2], [SUCCESS_CODE, kind],
                         [1, mask], 2)

    @pytest.mark.parametrize("kind,mask,error,message", _KIND_MISMATCHES,
                             ids=_KIND_MISMATCH_IDS)
    def test_kind_mask_mismatch_on_tiled_views(self, kind, mask, error,
                                               message):
        # Bounds that are one buffer skip the overlap pass, not the kinds.
        edge = np.arange(3)
        with pytest.raises(error, match=f"event 1: .*{message}"):
            ChannelTrace(("A", "B"), edge[:-1], edge[1:],
                         [SUCCESS_CODE, kind], [1, mask], 2)

    def test_one_buffer_one_apart_validates(self):
        edge = np.array([0, 3, 5, 9, 10])
        tr = ChannelTrace(("A", "B"), edge[:-1], edge[1:], masks=[1, 2, 0, 3],
                          horizon=10)
        assert validate_trace(tr) is tr
        assert np.shares_memory(tr.starts, tr.ends)
        assert tr == ChannelTrace(("A", "B"), edge[:-1].copy(),
                                  edge[1:].copy(), masks=[1, 2, 0, 3],
                                  horizon=10)

    @pytest.mark.parametrize("buf,layout,pair", [
        # One buffer, ends two apart: [0, 2), [1, 3), ... each overlaps.
        ([0, 1, 2, 3, 4], lambda b: (b[:-2], b[2:]), "0 and 1"),
        # One buffer, interleaved: [0, 5) and [3, 8) overlap.
        ([0, 5, 3, 8], lambda b: (b[0::2], b[1::2]), "0 and 1"),
        # Ends one element on but at twice the stride: [1, 3) and [2, 5).
        (range(8), lambda b: (b[:4], b[1::2]), "1 and 2"),
        ([0, 1, 2, 3, 4], lambda b: (b[:-2].copy(), b[2:].copy()), "0 and 1"),
    ], ids=["two-apart", "interleaved", "mixed-strides", "copies"])
    def test_other_layouts_still_compared(self, buf, layout, pair):
        starts, ends = layout(np.array(buf))
        masks = np.ones(len(starts), np.uint8)
        # Construction copies the strided views, so the namespace hands
        # them to the check as they are.
        for build in (ChannelTrace, types.SimpleNamespace):
            with pytest.raises(OverlapError, match=f"events {pair} overlap"):
                validate_trace(build(users=("A",), starts=starts, ends=ends,
                                     masks=masks, horizon=10))

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


class TestKindCodes:
    """The one kind rule: Idle for no user, Success for one, Collision for
    two or more, read off the participant mask."""

    @staticmethod
    def _expected(masks) -> list[int]:
        return [(IDLE_CODE, SUCCESS_CODE)[n] if n < 2 else COLLISION_CODE
                for n in (bin(int(m)).count("1") for m in masks)]

    def test_every_uint8_mask(self):
        masks = np.arange(256, dtype=np.uint8)
        got = core._kind_codes(masks)
        assert got.dtype == np.int8
        assert got.tolist() == self._expected(masks)

    @pytest.mark.parametrize("n_users", [8, 16, 32, 63])
    def test_every_width(self, n_users):
        dtype = core.mask_dtype(n_users)
        bits = min(8 * dtype.itemsize, 63)
        values = [0, *(1 << i for i in range(bits)),
                  *(1 << i | 1 << j
                    for i, j in itertools.combinations(range(bits), 2)),
                  (1 << bits) - 1]
        masks = np.array(values, dtype)
        got = core._kind_codes(masks)
        assert got.dtype == np.int8
        assert got.tolist() == self._expected(masks)


class TestKindsView:
    """`ChannelTrace.kinds` is derived from the masks on first read; the
    simulators, the metrics and the writer never derive it."""

    def test_pipeline_never_derives_kinds(self):
        cfg = SimConfig(seed=3, horizon=20_000)
        with mock.patch.object(core, "_kind_codes",
                               side_effect=AssertionError("kinds derived")):
            traces = [simulate_aloha(AlohaParams(0.5, 0.5), cfg),
                      simulate_csma(CsmaParams(32, 5, 4, 30), cfg),
                      simulate_tdma([3, 5], cfg)]
            for tr in traces:
                metrics.channel_cycle_time(tr)
                metrics.throughput(tr)
                metrics.inter_transmission_report(tr)
                tr.write(io.StringIO())
            with pytest.raises(AssertionError, match="kinds derived"):
                traces[0].kinds
        for tr in traces:
            assert np.array_equal(tr.kinds, core._kind_codes(tr.masks))

    def test_derived_once_and_read_only(self, fig_trace):
        kinds = fig_trace.kinds
        assert fig_trace.kinds is kinds
        assert kinds.dtype == np.int8
        assert np.array_equal(kinds, core._kind_codes(fig_trace.masks))
        assert not kinds.flags.writeable
        with pytest.raises(ValueError):
            kinds[0] = IDLE_CODE
        with pytest.raises(dataclasses.FrozenInstanceError):
            fig_trace.kinds = kinds
        with pytest.raises(dataclasses.FrozenInstanceError):
            del fig_trace.kinds

    def test_given_kinds_dropped_and_equality_ignores_them(self, fig_trace):
        given = ChannelTrace(fig_trace.users, fig_trace.starts, fig_trace.ends,
                             fig_trace.kinds, fig_trace.masks,
                             fig_trace.horizon)
        omitted = ChannelTrace(fig_trace.users, fig_trace.starts,
                               fig_trace.ends, masks=fig_trace.masks,
                               horizon=fig_trace.horizon)
        assert "kinds" not in vars(given) and "kinds" not in vars(omitted)
        # Equality compares the stored columns and derives no kinds.
        assert given == omitted == fig_trace
        assert "kinds" not in vars(given) and "kinds" not in vars(omitted)

    def test_fields_and_replace(self, fig_trace):
        assert [f.name for f in dataclasses.fields(ChannelTrace)] == \
            ["users", "starts", "ends", "masks", "horizon"]
        longer = dataclasses.replace(fig_trace, horizon=fig_trace.horizon + 5)
        assert longer.horizon == fig_trace.horizon + 5
        assert np.array_equal(longer.kinds, fig_trace.kinds)
        # A kinds change is checked against the masks like any given kinds.
        with pytest.raises(TraceError,
                           match="event 0: Idle events must name no users"):
            dataclasses.replace(fig_trace, kinds=[IDLE_CODE] * len(fig_trace))

    def test_round_trips_keep_kinds(self, fig_trace):
        events = list(fig_trace.events())
        built = ChannelTrace.from_events(fig_trace.users, events,
                                         fig_trace.horizon)
        fp = io.StringIO()
        fig_trace.write(fp)
        fp.seek(0)
        for tr in (built, ChannelTrace.read(fp)):
            assert tr == fig_trace
            assert tr.kinds.tolist() == fig_trace.kinds.tolist()
            assert list(tr.events()) == events


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


def _runs_reference(tr: ChannelTrace) -> tuple[np.ndarray, np.ndarray]:
    """Each run's user index and end time, from the whole success index:
    a success ends its run when the next success is another user's, and the
    final success always does."""
    hit, uidx = tr.success_index
    last = np.ones(len(uidx), bool)
    last[:-1] = uidx[1:] != uidx[:-1]
    return uidx[last], tr.ends[hit[last]]


def _letter_trace(letters: str) -> ChannelTrace:
    """Back-to-back unit events over users A and B: "A" and "B" succeed,
    "c" is their collision and "." is idle."""
    masks = [".ABc".index(ch) for ch in letters]
    n = len(letters)
    return ChannelTrace(("A", "B"), np.arange(n), np.arange(n) + 1,
                        masks=masks, horizon=n)


def _run_ends_at(tr: ChannelTrace, block: int | None):
    """`run_ends` of a fresh copy of `tr`, decoded in blocks of `block`
    events (the default when None)."""
    fresh = ChannelTrace(tr.users, tr.starts, tr.ends, masks=tr.masks,
                         horizon=tr.horizon)
    with mock.patch.object(core, "_BLOCK", block or core._BLOCK):
        return fresh.run_ends


class TestRunEnds:
    """`ChannelTrace.run_ends`, decoded block by block, against the runs
    read off the whole success index."""

    BLOCKS = [1, 2, 3, None]

    @given(helpers.traces(max_users=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, tr):
        want = _runs_reference(tr)
        for block in self.BLOCKS:
            got = _run_ends_at(tr, block)
            for g, w, dtype in zip(got, want, (np.uint8, np.int64)):
                assert g.dtype == dtype
                assert g.tolist() == w.tolist()

    @pytest.mark.parametrize("letters,labels,times", [
        ("BcAAAABc", [1, 0, 1], [1, 6, 7]),
        ("ABAAc..cAB..", [0, 1, 0, 1], [1, 2, 9, 10]),
        ("ABA.c..cB...", [0, 1, 0, 1], [1, 2, 3, 9]),
        ("", [], []),
        ("c..c.", [], []),
        ("..A", [0], [3]),
    ], ids=["run-spans-blocks", "run-spans-empty-block",
            "run-ends-before-empty-block", "empty-trace", "no-success",
            "one-success"])
    def test_named_cases(self, letters, labels, times):
        # In blocks of 4, the first case's run of A spans two blocks, and
        # the next two have a middle block of collisions and idles only.
        tr = _letter_trace(letters)
        for block in [4] + self.BLOCKS:
            got = _run_ends_at(tr, block)
            assert got[0].tolist() == labels
            assert got[1].tolist() == times
            assert (got[0].dtype, got[1].dtype) == (np.uint8, np.int64)

    @pytest.mark.parametrize("k,extra", [
        (1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1)])
    def test_lengths_near_block_multiples(self, k, extra):
        tr = helpers.nuser_trace(5, k * core._BLOCK + extra, 3)
        want = _runs_reference(tr)
        for got, w in zip(tr.run_ends, want):
            assert np.array_equal(got, w)

    def test_read_only_and_decoded_once(self, fig_trace):
        ends = fig_trace.run_ends
        assert fig_trace.run_ends is ends
        for arr in ends:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[:1] = 0
        assert ends[0].tolist() == [0, 1, 2, 1, 0, 2, 1, 2, 0, 1]
        assert ends[1].tolist() == [1, 4, 6, 7, 8, 9, 10, 11, 12, 13]

    @pytest.mark.parametrize("metric", [
        metrics.channel_cycle_time,
        lambda tr: metrics.cycle_intervals(tr, "U1"),
        lambda tr: metrics.refresh_moments(tr, "U2"),
    ], ids=["channel_cycle_time", "cycle_intervals", "refresh_moments"])
    def test_cycle_metrics_skip_success_index(self, metric):
        tr = helpers.nuser_trace(3, 200_000, 3)
        metric(tr)
        assert "success_index" not in vars(tr)
        assert "run_ends" in vars(tr)


class TestMaskDtype:
    """Masks are stored in the narrowest unsigned dtype over the user set,
    after validation at the width the caller gave."""

    WIDTHS = [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
              (17, np.uint32), (32, np.uint32), (33, np.uint64),
              (63, np.uint64)]

    @pytest.mark.parametrize("n,dtype", WIDTHS)
    def test_raw_from_events_and_read(self, n, dtype):
        users = tuple(f"U{i}" for i in range(n))
        # The last user's bit, and the widest mask the users allow.
        events = [success(0, 1, users[0]), idle(1, 2),
                  success(2, 3, users[-1])]
        if n > 1:
            events.append(collision(3, 4, users))
        masks = [1, 0, 1 << (n - 1), (1 << n) - 1][:len(events)]
        built = ChannelTrace.from_events(users, events, 4)
        raw = ChannelTrace(users, built.starts, built.ends, built.kinds,
                           np.array(masks, np.int64), 4)
        fp = io.StringIO()
        raw.write(fp)
        fp.seek(0)
        read = ChannelTrace.read(fp)
        for tr in (raw, built, read):
            assert tr.masks.dtype == dtype
            assert tr.masks.tolist() == masks
        assert raw == built == read

    @pytest.mark.parametrize("n,dtype", WIDTHS)
    def test_tdma(self, n, dtype):
        users = tuple(f"U{i}" for i in range(n))
        tr = simulate_tdma([1] * n, SimConfig(seed=0, horizon=2 * n,
                                              users=users, warmup=0))
        assert tr.masks.dtype == dtype
        assert tr.masks.tolist() == [1 << i for i in range(n)] * 2
        assert np.shares_memory(tr.starts, tr.ends)

    @pytest.mark.parametrize("simulate", [
        lambda cfg: simulate_aloha(AlohaParams(0.5, 0.5), cfg),
        lambda cfg: simulate_csma(CsmaParams(32, 5, 4, 30), cfg),
        lambda cfg: simulate_csma(CsmaParams(32, 5, 4, 30), cfg,
                                  CsmaMode.BASIC),
    ], ids=["aloha", "csma-rtscts", "csma-basic"])
    def test_two_user_simulators(self, simulate):
        tr = simulate(SimConfig(seed=1, horizon=20_000))
        assert tr.masks.dtype == np.uint8
        assert np.shares_memory(tr.starts, tr.ends)
        # The simulator's masks are kept; int64 ones are narrowed to them.
        assert ChannelTrace(tr.users, tr.starts, tr.ends, tr.kinds, tr.masks,
                            tr.horizon).masks is tr.masks
        wide = ChannelTrace(tr.users, tr.starts, tr.ends, tr.kinds,
                            tr.masks.astype(np.int64), tr.horizon)
        assert wide.masks.dtype == np.uint8
        assert wide == tr

    def test_columns_in_their_dtype_are_kept_and_frozen(self):
        # Int64 bounds and uint8 masks for two users are the trace's own
        # arrays, so the caller's arrays become read-only with them.
        s = np.array([0, 1, 2], np.int64)
        e = np.array([1, 2, 3], np.int64)
        m = np.array([1, 0, 2], np.uint8)
        tr = ChannelTrace(("A", "B"), s, e, masks=m, horizon=3)
        for given, kept in ((s, tr.starts), (e, tr.ends), (m, tr.masks)):
            assert kept is given
            assert not given.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                given[0] = 5

    def test_columns_in_another_dtype_are_copied(self):
        # A list, int32 bounds and int64 masks for two users are copied,
        # and the caller's objects stay writable and unchanged.
        s = [0, 1, 2]
        e = np.array([1, 2, 3], np.int32)
        m = np.array([1, 0, 2], np.int64)
        tr = ChannelTrace(("A", "B"), s, e, masks=m, horizon=3)
        assert (tr.starts.dtype, tr.ends.dtype, tr.masks.dtype) == (
            np.int64, np.int64, np.uint8)
        for arr in (tr.starts, tr.ends, tr.masks):
            assert not arr.flags.writeable
        assert not np.shares_memory(tr.ends, e)
        assert not np.shares_memory(tr.masks, m)
        s[0] = 5
        e[0] = 5
        m[0] = 5
        assert tr.starts.tolist() == [0, 1, 2]
        assert tr.ends.tolist() == [1, 2, 3]
        assert tr.masks.tolist() == [1, 0, 2]

    @pytest.mark.parametrize("n,mask", [
        (2, np.array([1, 257], np.int64)),  # would wrap to 1, a valid Success
        (2, np.array([1, 4], np.uint8)),
        (2, [1, -1]),
        (2, np.array([1, -1], np.int8)),
        (8, [1, 256]),                      # would wrap to 0
        (8, np.array([1, 256], np.uint16)),
    ], ids=["int64-257", "uint8-4", "minus-1", "int8-minus-1", "8-users-256",
            "uint16-256"])
    def test_validated_before_narrowing(self, n, mask):
        users = tuple(f"U{i}" for i in range(n))
        with pytest.raises(UnknownUserError, match="event 1: event mask uses "
                           "bits beyond the user set"):
            ChannelTrace(users, [0, 1], [1, 2], [SUCCESS_CODE] * 2, mask, 2)

    @pytest.mark.parametrize("kinds", [
        np.array([SUCCESS_CODE, 256]),       # would wrap to 0, a Success
        [SUCCESS_CODE, 256],
        np.array([SUCCESS_CODE, 2**63 + 1], np.uint64),
    ], ids=["int64-256", "list-256", "uint64-2**63+1"])
    def test_kinds_validated_before_narrowing(self, kinds):
        with pytest.raises(TraceError, match="event 1: event kind codes must"):
            ChannelTrace(("A", "B"), [0, 1], [1, 2], kinds, [1, 2], 2)

    @pytest.mark.parametrize("column", ["starts", "ends", "kinds", "masks"])
    @pytest.mark.parametrize("wrap", [list, np.array], ids=["list", "array"])
    def test_non_integer_columns_rejected(self, column, wrap):
        # Each would be cut to a valid trace: starts 0.9 -> 0, ends 2.5 -> 2,
        # kinds 0.7 -> 0 (Success), masks 1.9 -> 1.
        args = {"starts": [0, 1], "ends": [1, 2], "kinds": [SUCCESS_CODE] * 2,
                "masks": [1, 2]}
        args[column] = {"starts": [0.9, 1], "ends": [1, 2.5],
                        "kinds": [0.7, SUCCESS_CODE], "masks": [1.9, 2]}[column]
        columns = {name: wrap(values) for name, values in args.items()}
        with pytest.raises(TraceError, match=f"{column} must be integers"):
            ChannelTrace(("A", "B"), horizon=2, **columns)

    @pytest.mark.parametrize("horizon", [3.7, np.float64(2.5), "3"])
    def test_non_integral_horizon_rejected(self, horizon):
        with pytest.raises(TraceError, match="is not an integer"):
            ChannelTrace(("A", "B"), [0, 1], [1, 2], [SUCCESS_CODE] * 2,
                         [1, 2], horizon)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), None])
    def test_horizon_not_a_number_rejected(self, horizon):
        with pytest.raises(TraceError, match="is not an integer"):
            ChannelTrace(("A", "B"), [0, 1], [1, 2], [SUCCESS_CODE] * 2,
                         [1, 2], horizon)

    @pytest.mark.parametrize("column", ["starts", "ends", "kinds", "masks"])
    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), ()],
                             ids=["column", "row", "scalar"])
    def test_columns_not_one_dimensional_rejected(self, column, shape):
        # A valid 3-event trace, one of whose columns is reshaped.
        columns = {"starts": np.array([0, 1, 2]), "ends": np.array([1, 2, 3]),
                   "kinds": np.array([SUCCESS_CODE] * 3),
                   "masks": np.array([1, 2, 1])}
        columns[column] = (columns[column].reshape(shape) if shape
                           else columns[column][0])
        message = f"{column} must be one-dimensional, not of shape {shape}"
        with pytest.raises(TraceError, match=re.escape(message)):
            ChannelTrace(("A", "B"), horizon=3, **columns)

    @pytest.mark.parametrize("column", ["starts", "ends", "kinds", "masks"])
    def test_ragged_column_rejected(self, column):
        columns = {"starts": [0, 1], "ends": [1, 2],
                   "kinds": [SUCCESS_CODE] * 2, "masks": [1, 2]}
        columns[column] = [columns[column][0], [columns[column][1]] * 2]
        with pytest.raises(TraceError, match=f"{column} must be one-dim"):
            ChannelTrace(("A", "B"), horizon=2, **columns)

    def test_integral_horizon_and_bool_masks_accepted(self):
        tr = ChannelTrace(("A",), [0, 1], [1, 2], [SUCCESS_CODE, IDLE_CODE],
                          np.array([True, False]), np.float64(2.0))
        assert tr.horizon == 2 and type(tr.horizon) is int
        assert tr.masks.tolist() == [1, 0] and tr.masks.dtype == np.uint8


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


_WRITE_CASES = {
    "empty": ChannelTrace(("A", "B"), [], [], [], [], 0),
    "one-user": ChannelTrace(("solo",), [0, 5], [5, 9],
                             [SUCCESS_CODE, IDLE_CODE], [1, 0], 9),
    "non-ascii": ChannelTrace(("é", "日本", "A"), [0, 1, 2], [1, 2, 3],
                              [SUCCESS_CODE, COLLISION_CODE, SUCCESS_CODE],
                              [2, 7, 1], 3),
    "near-2**62": ChannelTrace(("A", "B"), [2**62 - 1, 2**62, 2**63 - 2],
                               [2**62, 2**62 + 1, 2**63 - 1],
                               [SUCCESS_CODE, SUCCESS_CODE, IDLE_CODE],
                               [1, 2, 0], 2**63 - 1),
    "many-blocks": _block_trace(3 * core._BLOCK_BYTES // core._WIDEST_BOUNDS),
    "long-label": ChannelTrace(("L" * 300_000, "B"), np.arange(40),
                               np.arange(1, 41),
                               np.tile([SUCCESS_CODE, SUCCESS_CODE,
                                        COLLISION_CODE, IDLE_CODE], 10),
                               np.tile([1, 2, 3, 0], 10), 40),
}


# Labels that hold control bytes and 2- and 4-byte UTF-8 characters, beside
# any legal ones: none of them may hold the writer's pad byte.
_ODD_LABELS = st.one_of(st.sampled_from(["\x00", "\x7f", "é", "\U0001F600",
                                         "a\x00é\U0001F600"]),
                        helpers._LABELS)

# Every 10**k and its two neighbours that fits in int64, with their negatives.
_DECADES = sorted({s * (10**k + d) for k in range(19) for d in (-1, 0, 1)
                   for s in (1, -1)})

_TILED_CASES = {
    "one-event": ChannelTrace(("A", "B"), [7], [12], masks=[1], horizon=12),
    "tiled": ChannelTrace(("A", "B"), [0, 3, 5, 9, 10, 14],
                          [3, 5, 9, 10, 14, 20], masks=[1, 3, 0, 2, 2, 1],
                          horizon=20),
    "gapped": ChannelTrace(("A", "B"), [0, 4, 6, 11], [3, 5, 9, 12],
                           masks=[1, 0, 3, 2], horizon=15),
    # Tiled pairs: at two lines a block, every block edge is at a gap.
    "gap-at-edges": ChannelTrace(("A", "B"), [0, 1, 4, 5, 8, 9],
                                 [1, 2, 5, 6, 9, 10], masks=[1, 2, 3, 0, 2, 1],
                                 horizon=10),
    # Events [10**k, 10**(k + 1)]: every boundary is a power of ten.
    "tiled-decades": ChannelTrace(("A", "B"), [10**k for k in range(18)],
                                  [10**k for k in range(1, 19)],
                                  masks=[1, 2] * 9, horizon=10**18),
    # Tiled pairs 10**k - 1, 10**k, 10**k + 1, gapped between.
    "decade-pairs": ChannelTrace(
        ("A", "B"), [10**k + d for k in range(1, 19) for d in (-1, 0)],
        [10**k + d for k in range(1, 19) for d in (0, 1)],
        masks=[3, 2] * 18, horizon=2**63 - 1),
    "odd-labels": ChannelTrace(("\x00", "\x7f", "é", "\U0001F600"),
                               [0, 2, 3, 5, 9, 10, 11], [2, 3, 5, 6, 10, 11, 12],
                               masks=[1, 2, 15, 4, 8, 0, 9], horizon=12),
}


class TestColumnarWrite:
    """`write` emits the bytes of the f-string writer in `helpers`."""

    @given(helpers.wide_traces())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_writer(self, tr):
        assert _written(tr, ChannelTrace.write) == \
            _written(tr, helpers.write_rows)

    @pytest.mark.parametrize("tr", list(_WRITE_CASES.values()),
                             ids=list(_WRITE_CASES))
    def test_edge_cases(self, tr):
        assert _written(tr, ChannelTrace.write) == \
            _written(tr, helpers.write_rows)

    @given(helpers.traces(max_users=4, max_events=30, labels=_ODD_LABELS),
           st.sampled_from([0] + [10**k - 7 for k in range(1, 19)]),
           st.integers(1, 400))
    @settings(max_examples=300, deadline=None)
    def test_small_blocks_match_row_writer(self, tr, offset, block_bytes):
        # Gaps are often zero, so blocks of one to eight events are tiled,
        # gapped or both; an offset of 10**k - 7 takes bounds across 10**k.
        tr = ChannelTrace(tr.users, tr.starts + offset, tr.ends + offset,
                          masks=tr.masks, horizon=tr.horizon + offset)
        with mock.patch.object(core, "_BLOCK_BYTES", block_bytes):
            assert _written(tr, ChannelTrace.write) == \
                _written(tr, helpers.write_rows)

    @pytest.mark.parametrize("tr", list(_TILED_CASES.values()),
                             ids=list(_TILED_CASES))
    @pytest.mark.parametrize("lines", [1, 2, 3, None],
                             ids=["1-line", "2-line", "3-line", "whole"])
    def test_tiled_edge_cases(self, tr, lines):
        widest = core._WIDEST_BOUNDS + len("+".join(tr.users).encode())
        size = core._BLOCK_BYTES if lines is None else lines * widest
        with mock.patch.object(core, "_BLOCK_BYTES", size):
            assert _written(tr, ChannelTrace.write) == \
                _written(tr, helpers.write_rows)


class TestIntList:
    """`_int_list` writes what `",".join(map(str, values))` writes."""

    @given(st.lists(st.one_of(helpers._INT64, st.sampled_from(_DECADES))))
    @example([])
    @example([0])
    @example([-2**63])
    @example([2**63 - 1])
    @example([-2**63, 2**63 - 1, 0])
    @example(_DECADES)
    @settings(max_examples=300, deadline=None)
    def test_matches_join(self, values):
        v = np.array(values, np.int64)
        assert core._int_list(v) == ",".join(map(str, v.tolist()))


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


# Printable ASCII other than the digits and the comma: in a bound, each
# keeps its line's three commas, so only the digit test can catch it.
_NON_DIGITS = [chr(c) for c in range(0x21, 0x7F) if chr(c) not in "0123456789,"]

# Plain-form labels of 1 to 12 characters.
_WORD_LABELS = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1,
                       max_size=12)

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
    # Three commas a line on average, but not on each line.
    "five-then-three-fields": "0,2,S,A,5\n7,S,B\n",
    "three-then-five-fields": "0,5,S\nA,7,9,S,B\n",
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

    @given(st.one_of(helpers.traces(max_events=40),
                     helpers.traces(max_events=40, labels=_WORD_LABELS)),
           st.sampled_from(["keep", "drop", "scale"]),
           st.lists(st.tuples(st.integers(0, 99),
                              st.sampled_from(list(_EDITS))), max_size=4),
           st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_small_blocks_match_row_parser(self, tr, headers, edits, cut_end):
        # Blocks of a few lines each, so that edited and plain blocks mix,
        # and with longer labels keys of one to five words, changing width
        # from block to block.
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

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_bounds_of_every_width(self, data):
        # Bounds shifted across 10**k, so every width from 1 to 19 digits
        # occurs, some zero-padded and some with one non-digit among the
        # digits of a field of 8, 9, 16, 17 or 18: each of a bound's three
        # words meets a bad byte in each of its places.  Blocks of a line or
        # a few, so an edited line is often the first of its block.
        tr = data.draw(helpers.traces(max_events=12))
        offset = data.draw(st.sampled_from(
            [0] + [10**k + d for k in range(1, 19) for d in range(-7, 2)]))
        tr = ChannelTrace(tr.users, tr.starts + offset, tr.ends + offset,
                          masks=tr.masks, horizon=tr.horizon + offset)
        lines = _written(tr, ChannelTrace.write).splitlines(keepends=True)
        for _ in range(data.draw(st.integers(0, 3)) if len(tr) else 0):
            i = data.draw(st.integers(3, len(lines) - 1))
            fields = lines[i].split(",", 2)
            f = data.draw(st.integers(0, 1))
            if data.draw(st.booleans()):
                fields[f] = fields[f].zfill(data.draw(st.integers(1, 20)))
            else:
                bound = fields[f].zfill(data.draw(
                    st.sampled_from([8, 9, 16, 17, 18])))
                p = data.draw(st.integers(0, len(bound) - 1))
                fields[f] = bound[:p] + data.draw(
                    st.sampled_from(_NON_DIGITS)) + bound[p + 1:]
            lines[i] = ",".join(fields)
        text = "".join(lines)
        if data.draw(st.booleans()):
            text = text.removesuffix("\n")
        with mock.patch.object(core, "_BLOCK_BYTES",
                               data.draw(st.integers(1, 100))):
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


def _trace_of_fields(users: tuple[str, ...], fields) -> ChannelTrace:
    """A trace of one-slot events with the given users fields, each a
    Success, Collision or Idle by the number of users it names."""
    bit = {u: 1 << i for i, u in enumerate(users)}
    masks = [sum(bit[u] for u in f.split("+")) if f else 0 for f in fields]
    kinds = [{0: IDLE_CODE, 1: SUCCESS_CODE}.get(f.count("+") + bool(f),
                                                COLLISION_CODE)
             for f in fields]
    n = len(fields)
    return ChannelTrace(users, np.arange(n), np.arange(1, n + 1), kinds,
                        masks, n)


_ABCD = ("ABCD", "EFG", "EFGH")
# Each of the first four labels joined to "EFG" or "EFGH" makes a field on
# either side of the 8-, 16-, 24- and 64-byte word edges, the two alike up
# to the edge; 64 bytes is the widest key a table stores.
_EDGE_USERS = ("ABCD", "L" * 12, "M" * 20, "N" * 60, "EFG", "EFGH")


def _edge_fields(*widths: int) -> list[str]:
    """The two-user field of each width, 8, 9, 16, 17, 24, 25, 64 or 65."""
    field = {len(f): f for u in _EDGE_USERS[:4]
             for f in (u + "+EFG", u + "+EFGH")}
    return [field[w] for w in widths]


class TestUsersFieldTable:
    """Users fields go through one slot table per file in each direction;
    the keys it misses take the slow path, with the same result."""

    @pytest.fixture
    def one_slot(self, monkeypatch):
        # Every key hashes to slot 0: one key is stored, all others miss.
        monkeypatch.setattr(core._SlotTable, "slots", staticmethod(
            lambda keys: np.zeros(len(keys), np.intp)))

    @pytest.mark.parametrize("text", list(_READ_CASES.values()),
                             ids=list(_READ_CASES))
    def test_misses_read_as_row_parser(self, one_slot, text):
        assert _outcome(ChannelTrace.read, text) == \
            _outcome(helpers.read_rows, text)

    def test_misses_over_blocks(self, one_slot):
        tr = _block_trace(3 * core._BLOCK_BYTES // 30)
        text = _written(tr, ChannelTrace.write)
        assert text == _written(tr, helpers.write_rows)
        for t in (text, text.split("\n", 3)[3]):
            assert ChannelTrace.read(io.StringIO(t)) == \
                helpers.read_rows(io.StringIO(t))

    @pytest.mark.parametrize("tr", list(_WRITE_CASES.values()),
                             ids=list(_WRITE_CASES))
    def test_misses_write_as_row_writer(self, one_slot, tr):
        assert _written(tr, ChannelTrace.write) == \
            _written(tr, helpers.write_rows)

    def test_one_field_per_mask(self, one_slot):
        # Masks that lose slot 0 are found again in the dict, not rendered
        # again: each set's text is in the buffer once, as first met, and
        # followed by one pad byte.
        fields = core._UsersFields(("A", "B", "C"))
        for masks in ([1, 2, 3], [3, 4, 1, 5], [5, 6, 2, 1]):
            fields.rows(np.array(masks, np.uint8))
        assert fields.text.split(b"\xff") == \
            [b"S,A", b"S,B", b"C,A+B", b"S,C", b"C,A+C", b"C,B+C", b""]

    def test_more_fields_than_slots(self):
        # 62 one-character users and 6000 distinct 2- and 3-user collisions,
        # in random order over several blocks each way: the tables overflow.
        users = tuple("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                      "0123456789")
        pool = list(itertools.combinations(range(62), 2)) + \
            list(itertools.combinations(range(62), 3))[::8]
        rng = np.random.default_rng(5)
        picks = rng.integers(0, len(pool), 40_000)
        masks = np.array([sum(1 << i for i in pool[j]) for j in picks],
                         np.uint64)
        assert len(np.unique(masks)) > 6000 > 1 << core._SlotTable.BITS
        ends = np.cumsum(rng.integers(1, 10**9, len(masks)))
        tr = ChannelTrace(users, ends - 1, ends,
                          np.full(len(masks), COLLISION_CODE), masks,
                          int(ends[-1]))
        text = _written(tr, ChannelTrace.write)
        assert len(text) > 3 * core._BLOCK_BYTES
        assert text == _written(tr, helpers.write_rows)
        for t in (text, text.split("\n", 3)[3]):
            got = ChannelTrace.read(io.StringIO(t))
            assert got == helpers.read_rows(io.StringIO(t))
        assert got.users != users and ChannelTrace.read(io.StringIO(text)) == tr

    def test_key_matches_on_its_own_words(self, one_slot):
        # With every key in slot 0, a stored key is found at any zero
        # padding, and a key that is a prefix of it is another key.
        table = core._SlotTable()
        table.put(np.array([[5, 7, 0]], np.uint64), np.array([1]))
        for words in ([5, 7], [5, 7, 0, 0, 0], [5, 7] + [0] * 8):
            values, hit = table.get(np.array([words], np.uint64))
            assert hit.tolist() == [True] and values.tolist() == [1]
        for words in ([5], [5, 0], [5, 0, 0], [5, 7, 1], [0, 7]):
            assert table.get(np.array([words], np.uint64))[1].tolist() == \
                [False]

    @pytest.mark.parametrize("headers", [True, False], ids=["headers", "bare"])
    @pytest.mark.parametrize("fault", [None, "U1+U1", "U1+"])
    def test_long_label_first_then_short(self, headers, fault):
        # A 64-byte label in event 0, then five short ones over many blocks:
        # the short fields read as the row parser reads them, errors too.
        tr = helpers.nuser_trace(1, 30_000, 5)
        users = tr.users + ("W" * 64,)
        tr = ChannelTrace(users, np.r_[0, tr.starts + 1], np.r_[1, tr.ends + 1],
                          np.r_[SUCCESS_CODE, tr.kinds], np.r_[32, tr.masks],
                          tr.horizon + 1)
        lines = _written(tr, ChannelTrace.write).splitlines(keepends=True)
        assert len(lines) == len(tr) + 3
        if fault:
            lines[-5] = lines[-5].rsplit(",", 1)[0] + f",{fault}\n"
        if not headers:
            lines = lines[3:]
        text = "".join(lines)
        assert len(text) > 2 * core._BLOCK_BYTES
        got = _outcome(ChannelTrace.read, text)
        assert got == _outcome(helpers.read_rows, text)
        assert (fault is None) == isinstance(got, ChannelTrace)
        assert not isinstance(got, ChannelTrace) or "W" * 64 in got.users

    def test_each_field_resolved_once(self):
        # Labels of 9 to 64 bytes, whose keys land in distinct slots, over
        # several blocks: each goes through `_FileState.mask` once a file,
        # also when it was stored before the table widened to a longer one.
        users = tuple(f"{n:02d}" + "x" * (n - 2) for n in range(9, 65))
        keys = np.zeros((len(users), 64), np.uint8)
        for i, u in enumerate(users):
            keys[i, :len(u)] = np.frombuffer(u.encode(), np.uint8)
        slots = core._SlotTable.slots(keys.view(np.uint64))
        assert len(set(slots.tolist())) == len(users)
        n = 16_000
        ends = np.arange(1, n + 1)
        who = np.random.default_rng(3).integers(0, len(users), n)
        who[:n // 2] %= 16  # labels of at most 24 bytes in the first blocks
        tr = ChannelTrace(users, ends - 1, ends, np.full(n, SUCCESS_CODE),
                          np.uint64(1) << who.astype(np.uint64), n)
        text = _written(tr, ChannelTrace.write)
        assert len(text) > 2 * core._BLOCK_BYTES
        calls, mask = [], core._FileState.mask

        def spy(state, field, line_no):
            calls.append(field)
            return mask(state, field, line_no)

        for t in (text, text.split("\n", 3)[3]):
            calls.clear()
            with mock.patch.object(core._FileState, "mask", spy):
                got = ChannelTrace.read(io.StringIO(t))
            assert got == helpers.read_rows(io.StringIO(t))
            assert sorted(calls) == sorted(users)

    @pytest.mark.parametrize("size", [48, 256, None],
                             ids=["48-bytes", "256-bytes", "whole"])
    def test_word_keys_match_byte_keys(self, size):
        # Users fields of every width from 0 to 70, then back down, and the
        # edge fields: one to a block, a few, or all in one, where the words
        # past the last, empty field run off its block.  Each block's keys
        # are the ones the byte-matrix build gives.
        users = tuple("u" * n for n in range(1, 36))
        field = {len(f): f for f in itertools.chain(
            [""], users, ("+".join(p) for p in itertools.combinations(users, 2)))}
        fields = [field[w] for w in range(71)]
        edges = _edge_fields(8, 9, 16, 17, 24, 25, 64, 65)
        words, calls = core._users_keys, []

        def spy(b, lo, hi):
            keys = words(b, lo, hi)
            want = helpers.byte_matrix_keys(b, lo, hi)
            calls.append(keys.dtype == want.dtype and np.array_equal(keys, want))
            return keys

        for tr in (_trace_of_fields(users, fields + fields[::-1]),
                   _trace_of_fields(_EDGE_USERS, edges + edges[::-1] + [""])):
            with mock.patch.object(core, "_BLOCK_BYTES",
                                   size or core._BLOCK_BYTES), \
                    mock.patch.object(core, "_users_keys", spy):
                assert ChannelTrace.read(
                    io.StringIO(_written(tr, ChannelTrace.write))) == tr
        assert calls and all(calls)

    @pytest.mark.parametrize("users, fields", [
        (_ABCD, ["ABCD+EFG", "ABCD+EFGH", "EFG", "ABCD+EFG", "ABCD+EFGH", "",
                 "EFGH"]),
        (_ABCD, ["ABCD+EFG"] * 4 + ["ABCD+EFGH"] * 4 + ["ABCD+EFG"] * 4),
        (_ABCD, ["ABCD+EFGH"] * 4 + ["", "ABCD+EFG", "EFG+EFGH"] * 3
         + ["ABCD"] * 4),
        (_EDGE_USERS, _edge_fields(9, 65, 16, 8, 25, 64, 17, 24) * 2
         + ["", "EFG"]),
        (_EDGE_USERS, _edge_fields(8, 16, 17, 24, 25, 64, 65, 65, 64, 25, 24,
                                   17, 16, 9, 8)),
        (_EDGE_USERS, _edge_fields(65, 65, 64, 64, 65, 17, 16, 65)),
    ], ids=["within-blocks", "8-then-9", "9-then-8", "all-edges-mixed",
            "widen-then-narrow", "65-then-64"])
    @pytest.mark.parametrize("headers", [True, False], ids=["headers", "bare"])
    def test_eight_and_nine_byte_fields(self, users, fields, headers):
        # Blocks of one to three lines at 48 bytes, more at 256: keys of one
        # to eight words, whose width changes from block to block, and
        # 65-byte fields, which no table stores.
        tr = _trace_of_fields(users, fields)
        for size in (48, 256):
            with mock.patch.object(core, "_BLOCK_BYTES", size):
                text = _written(tr, ChannelTrace.write)
                assert text == _written(tr, helpers.write_rows)
                if not headers:
                    text = text.split("\n", 3)[3]
                got = _outcome(ChannelTrace.read, text)
            assert got == _outcome(helpers.read_rows, text)
            assert not headers or got == tr


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


_CSMA = dict(cw_min=16, beta=3, l_difs=4, l_pkt=30, l_ack=2, l_rts=1, l_cts=3)
_ALOHA = dict(p_a=0.5, p_b=0.4, slot=3)
_CONFIG = dict(seed=7, horizon=3000, warmup=100)
# Each count: its class, valid arguments, the field and its name in messages.
_COUNT_FIELDS = ([(CsmaParams, _CSMA, name, name) for name in _CSMA]
                 + [(AlohaParams, _ALOHA, "slot", "slot length")]
                 + [(SimConfig, _CONFIG, name, name) for name in _CONFIG])


class TestCounts:
    """Counts and durations are whole numbers: an integral float or a numpy
    integer is taken as its int, a fraction is rejected, never truncated."""

    @pytest.mark.parametrize("cls, base, field, label", _COUNT_FIELDS,
                             ids=[f[2] for f in _COUNT_FIELDS])
    @pytest.mark.parametrize("fraction", [0.5, np.float64(0.25)],
                             ids=["float", "float64"])
    def test_fraction_rejected(self, cls, base, field, label, fraction):
        value = base[field] + fraction
        with pytest.raises(TraceError, match=re.escape(
                f"{label} {value!r} is not an integer")):
            cls(**{**base, field: value})

    @pytest.mark.parametrize("cls, base, field, label", _COUNT_FIELDS,
                             ids=[f[2] for f in _COUNT_FIELDS])
    @pytest.mark.parametrize("wrap", [float, np.float64, np.int32],
                             ids=["float", "float64", "int32"])
    def test_integral_value_is_its_int(self, cls, base, field, label, wrap):
        got = cls(**{**base, field: wrap(base[field])})
        assert got == cls(**base) and type(getattr(got, field)) is int

    @pytest.mark.parametrize("wrap", [float, np.float64])
    def test_integral_floats_give_the_same_traces(self, wrap):
        config = SimConfig(**{k: wrap(v) for k, v in _CONFIG.items()})
        csma = CsmaParams(**{k: wrap(v) for k, v in _CSMA.items()})
        aloha = AlohaParams(**{**_ALOHA, "slot": wrap(3)})
        want = SimConfig(**_CONFIG)
        for mode in CsmaMode:
            assert simulate_csma(csma, config, mode) == \
                simulate_csma(CsmaParams(**_CSMA), want, mode)
        assert simulate_aloha(aloha, config) == \
            simulate_aloha(AlohaParams(**_ALOHA), want)
        assert simulate_tdma([wrap(30), wrap(7)], config) == \
            simulate_tdma([30, 7], want)

    @pytest.mark.parametrize("lengths", [[30.7, 30], [30, np.float64(7.5)]])
    def test_tdma_fraction_rejected(self, lengths):
        with pytest.raises(TraceError, match="packet lengths .* is not an "
                           "integer"):
            simulate_tdma(lengths, SimConfig(seed=0, horizon=1000))

    @pytest.mark.parametrize("build, message", [
        (lambda: CsmaParams(0, 5, 4, 30), "cw_min must be at least 1"),
        (lambda: CsmaParams(32, -1, 4, 30), "beta must be non-negative"),
        (lambda: CsmaParams(32, 5, 4, 30, l_cts=0),
         "l_cts must be at least 1 slot"),
        (lambda: AlohaParams(0.5, 0.5, 0), "slot length must be at least 1 tick"),
        (lambda: SimConfig(seed=0, horizon=0), "horizon must be at least 1 tick"),
        (lambda: SimConfig(seed=0, horizon=9, warmup=-1),
         "warmup must be non-negative"),
        (lambda: simulate_tdma([30, 0], SimConfig(seed=0, horizon=9)),
         "packet lengths must be at least 1 slot"),
    ])
    def test_range_messages(self, build, message):
        with pytest.raises(TraceError) as exc:
            build()
        assert str(exc.value) == message


def test_package_exports_no_modules():
    assert macfair.__all__
    for name in macfair.__all__:
        assert not isinstance(getattr(macfair, name), types.ModuleType), name
    assert {"ChannelTrace", "channel_cycle_time", "simulate_csma"} <= \
        set(macfair.__all__)
