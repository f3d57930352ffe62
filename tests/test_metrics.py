"""Refresh moments, cycle times, channel cycle time, inter-transmissions,
and the two-part cycle split, checked against literal-definition oracles."""
import numpy as np
import pytest
from hypothesis import given, settings

import helpers
from macfair.core import ChannelTrace, UnknownUserError, idle, success
from macfair.metrics import (
    TooFewUsersError,
    channel_cycle_time,
    cycle_intervals,
    cycle_times,
    inter_transmission_report,
    inter_transmissions,
    part_decomposition,
    refresh_moments,
    throughput,
)


class TestRefreshMoments:
    def test_three_user_example(self, fig_trace):
        assert refresh_moments(fig_trace, "A").tolist() == [1, 8, 12]
        assert refresh_moments(fig_trace, "B").tolist() == [4, 7, 10]
        assert refresh_moments(fig_trace, "C").tolist() == [6, 9, 11]

    def test_final_success_not_refresh(self):
        tr = helpers.pattern_trace("AB")
        assert refresh_moments(tr, "A").tolist() == [1]
        assert refresh_moments(tr, "B").tolist() == []

    def test_same_user_run_not_refresh(self):
        tr = helpers.pattern_trace("AAB")
        assert refresh_moments(tr, "A").tolist() == [2]

    def test_solo_trace(self):
        tr = ChannelTrace.from_events(("A", "B"),
                                      [success(i, i + 1, "A") for i in range(5)], 5)
        assert refresh_moments(tr, "A").tolist() == []

    def test_unknown_user(self, fig_trace):
        with pytest.raises(UnknownUserError):
            refresh_moments(fig_trace, "Z")

    @given(helpers.traces())
    @settings(max_examples=120, deadline=None)
    def test_matches_literal_scan(self, tr):
        for user in tr.users:
            got = refresh_moments(tr, user).tolist()
            assert got == helpers.brute_refresh_moments(tr, user)


class TestCycleTimes:
    def test_three_user_example(self, fig_trace):
        assert cycle_times(fig_trace, "A").tolist() == [7, 4]
        assert cycle_times(fig_trace, "B").tolist() == [6, 3]
        assert cycle_times(fig_trace, "C").tolist() == [3]

    def test_excluded_pairs(self, fig_trace):
        # (4, 7) fails for B (no A success strictly inside) and (6, 11) is not
        # minimal for C, so 3 and 5 appear only via the qualifying pairs.
        b_iv = cycle_intervals(fig_trace, "B").tolist()
        assert [4, 7] not in b_iv
        c_iv = cycle_intervals(fig_trace, "C").tolist()
        assert [6, 11] not in c_iv

    def test_strict_alternation(self):
        tr = helpers.pattern_trace("ABABAB", lengths={"A": 5, "B": 5})
        assert cycle_times(tr, "A").tolist() == [10, 10]
        assert cycle_times(tr, "B").tolist() == [10]

    def test_other_user_never_succeeds(self):
        tr = ChannelTrace.from_events(
            ("A", "B"), [success(i, i + 1, "A") for i in range(6)], 6)
        assert cycle_times(tr, "A").tolist() == []
        assert cycle_times(tr, "B").tolist() == []

    def test_cycles_end_on_refresh_moments(self, fig_trace):
        for user in fig_trace.users:
            r = set(refresh_moments(fig_trace, user).tolist())
            for t0, t1 in cycle_intervals(fig_trace, user).tolist():
                assert t0 in r and t1 in r and t1 > t0

    # Each example draws one trace of 2-3 users and one of up to 6 users.
    @given(helpers.traces(), helpers.traces(max_users=6, max_events=60))
    @settings(max_examples=150, deadline=None)
    def test_matches_literal_scan(self, small, wide):
        for tr in (small, wide):
            for user in tr.users:
                got = cycle_intervals(tr, user).tolist()
                want = [list(p) for p in helpers.brute_cycle_intervals(tr, user)]
                assert got == want

    @given(helpers.traces())
    @settings(max_examples=100, deadline=None)
    def test_positive_and_refresh_anchored(self, tr):
        for user in tr.users:
            r = set(refresh_moments(tr, user).tolist())
            iv = cycle_intervals(tr, user)
            assert np.all(iv[:, 1] > iv[:, 0])
            for t0, t1 in iv.tolist():
                assert t0 in r and t1 in r

    @given(helpers.traces(), helpers.traces(max_users=6, max_events=60))
    @settings(max_examples=100, deadline=None)
    def test_nonconsecutive_witness_recheck(self, small, wide):
        # Every emitted nonconsecutive pair must have an uncovered inner
        # interval ending at the refresh moment closest to the right endpoint.
        for tr in (small, wide):
            seq = helpers.success_seq(tr)
            for user in tr.users:
                refresh = refresh_moments(tr, user).tolist()
                others = [u for u in tr.users if u != user]
                for t0, t1 in cycle_intervals(tr, user).tolist():
                    inner = [t for t in refresh if t0 < t < t1]
                    if not inner:
                        continue
                    witness = max(inner)
                    counts = helpers._m_counts(seq, t0, witness)
                    assert any(counts.get(u, 0) == 0 for u in others)


class TestChannelCycleTime:
    def test_three_user_example(self, fig_trace):
        rep = channel_cycle_time(fig_trace)
        assert not rep.psi_undefined
        assert rep.psi_slots == pytest.approx((5.5 + 4.5 + 3.0) / 3.0)

    def test_alternation_psi(self):
        tr = helpers.pattern_trace("ABABABAB", lengths={"A": 3, "B": 7})
        rep = channel_cycle_time(tr)
        assert rep.psi_slots == pytest.approx(10.0)

    def test_pairs_pattern_doubles_alternation(self):
        ab = helpers.pattern_trace("ABABABABABAB", lengths={"A": 4, "B": 4})
        aabb = helpers.pattern_trace("AABBAABBAABB", lengths={"A": 4, "B": 4})
        assert channel_cycle_time(aabb).psi_slots == \
            2 * channel_cycle_time(ab).psi_slots

    def test_round_robin_equals_period(self):
        tr = helpers.pattern_trace("ABCABCABC", lengths={"A": 2, "B": 3, "C": 5})
        rep = channel_cycle_time(tr)
        assert rep.psi_slots == pytest.approx(10.0)

    def test_undefined_when_user_silent(self):
        tr = ChannelTrace.from_events(
            ("A", "B"), [success(i, i + 1, "A") for i in range(4)], 4)
        rep = channel_cycle_time(tr)
        assert rep.psi_undefined
        assert rep.psi_slots is None
        assert rep.users_without_samples == ("A", "B")

    def test_needs_two_users(self):
        tr = ChannelTrace.from_events(("A",), [success(0, 1, "A")], 1)
        with pytest.raises(TooFewUsersError):
            channel_cycle_time(tr)

    def test_purity(self, fig_trace):
        a = channel_cycle_time(fig_trace)
        b = channel_cycle_time(fig_trace)
        assert a.psi_slots == b.psi_slots
        assert a.as_dict() == b.as_dict()

    def test_report_serialization_names(self, fig_trace):
        rep = channel_cycle_time(fig_trace)
        blob = rep.as_dict()
        assert set(blob) == {"psi_slots", "psi_undefined", "users"}
        assert {"user", "cycle_samples", "mean_slots"} <= set(blob["users"][0])
        text = rep.to_text()
        assert "psi_slots=" in text
        assert "psi_undefined=false" in text
        assert "user=A cycle_samples=7,4" in text


class TestInterTransmissions:
    def test_pattern_pooled_counts(self):
        tr = helpers.pattern_trace("ABCABBCBAC")
        assert inter_transmissions(tr, "A").tolist() == [2, 4]
        assert inter_transmissions(tr, "B").tolist() == [2, 0, 1]
        assert inter_transmissions(tr, "C").tolist() == [3, 2]

    def test_alternation(self):
        tr = helpers.pattern_trace("ABABAB")
        assert inter_transmissions(tr, "A").tolist() == [1, 1]
        assert inter_transmissions(tr, "B").tolist() == [1, 1]

    def test_report_pmf(self):
        tr = helpers.pattern_trace("ABCABBCBAC")
        rep = inter_transmission_report(tr)
        assert sum(rep.pooled_pmf.values()) == pytest.approx(1.0)
        assert rep.mean == pytest.approx((2 + 4 + 2 + 0 + 1 + 3 + 2) / 7)
        assert rep.pooled_pmf[2] == pytest.approx(3 / 7)
        assert "intertx_pmf=" in rep.to_text()
        assert "intertx_pmf" in rep.as_dict()

    def test_empty_report(self):
        tr = ChannelTrace.from_events(("A", "B"), [success(0, 1, "A")], 1)
        rep = inter_transmission_report(tr)
        assert rep.pooled_pmf == {}
        assert rep.mean is None

    @given(helpers.traces())
    @settings(max_examples=100, deadline=None)
    def test_matches_literal_scan(self, tr):
        for user in tr.users:
            got = inter_transmissions(tr, user).tolist()
            assert got == helpers.brute_inter_transmissions(tr, user)

    @given(helpers.traces())
    @settings(max_examples=60, deadline=None)
    def test_pmf_sums_to_one(self, tr):
        rep = inter_transmission_report(tr)
        if rep.pooled_pmf:
            assert sum(rep.pooled_pmf.values()) == pytest.approx(1.0)
            assert rep.mean == pytest.approx(
                sum(k * v for k, v in rep.pooled_pmf.items()))


class TestPartDecomposition:
    def test_single_cycle_pattern(self):
        # One cycle of A: refresh at the first A end, then B B B A A A, then a
        # closing A-then-B handoff providing the right refresh moment.
        tr = helpers.pattern_trace("ABBBAAAB")
        iv = cycle_intervals(tr, "A")
        assert iv.tolist() == [[1, 7]]
        parts = part_decomposition(tr, "A")
        assert len(parts) == 1
        p = parts[0]
        assert p.n_b == 3
        assert p.n_a_prime == 2
        assert p.t_part1 == 4  # three B slots plus A's first success
        assert p.t_part2 == 2
        assert p.t_part1 + p.t_part2 == 6

    def test_no_extra_successes(self):
        tr = helpers.pattern_trace("ABABAB")
        for p in part_decomposition(tr, "A"):
            assert p.n_a_prime == 0
            assert p.t_part2 == 0
            assert p.n_b == 1

    def test_two_user_only(self, fig_trace):
        with pytest.raises(TooFewUsersError):
            part_decomposition(fig_trace, "A")

    @given(helpers.traces(max_users=2))
    @settings(max_examples=120, deadline=None)
    def test_conservation(self, tr):
        for user in tr.users:
            samples = cycle_times(tr, user).tolist()
            parts = part_decomposition(tr, user)
            assert parts == helpers.brute_part_splits(tr, user)
            assert len(parts) == len(samples)
            for p, c in zip(parts, samples):
                assert p.t_part1 + p.t_part2 == c
                assert p.n_b >= 1
                assert p.n_a_prime >= 0
                assert p.t_part1 >= 1


class TestThroughput:
    def test_full_occupancy(self):
        tr = helpers.pattern_trace("ABAB")
        assert throughput(tr) == pytest.approx(1.0)

    def test_with_idle(self):
        tr = ChannelTrace.from_events(
            ("A", "B"),
            [success(0, 2, "A"), idle(2, 6), success(6, 8, "B")],
            10)
        assert throughput(tr) == pytest.approx(0.4)
