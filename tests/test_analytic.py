"""Closed forms: Aloha cycle time, the contention fixed point, backoff series,
CSMA cycle times, window optimum, and the RTS/CTS-vs-basic inflection."""
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macfair import analytic
from macfair.analytic import (
    CctMode,
    DegenerateError,
    DomainError,
    EmptyError,
    NoRootError,
    aloha_cct,
    aloha_mean_success_time,
    aloha_optimum,
    aloha_success_split,
    csma_cct,
    csma_cct_fixed_window,
    cw_min_optimal,
    expected_backoff_sum,
    part_count_means,
    rtscts_basic_inflection,
    solve_collision_probability,
    tdma_cct,
)
from macfair.core import AlohaParams, CsmaMode, CsmaParams

TABLE = dict(cw_min=32, beta=5, l_difs=4)


def table_params(l_pkt: int) -> CsmaParams:
    return CsmaParams(l_pkt=l_pkt, **TABLE)


class TestAlohaSplit:
    def test_symmetric(self):
        assert aloha_success_split(0.5, 0.5) == (0.5, 0.5)

    def test_asymmetric(self):
        a, b = aloha_success_split(0.5, 0.25)
        assert a == pytest.approx(0.75)
        assert b == pytest.approx(0.25)

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            aloha_success_split(1.0, 1.0)
        with pytest.raises(DegenerateError):
            aloha_success_split(0.0, 0.0)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, pa, pb):
        a, b = aloha_success_split(pa, pb)
        assert a + b == pytest.approx(1.0)
        assert 0.0 <= a <= 1.0

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(7)
        n = 400_000
        ta = rng.random(n) < 0.5
        tb = rng.random(n) < 0.25
        sa = ta & ~tb
        sb = tb & ~ta
        frac_a = sa.sum() / (sa.sum() + sb.sum())
        a, _ = aloha_success_split(0.5, 0.25)
        assert a == pytest.approx(frac_a, abs=3e-3)


class TestAlohaMeanSuccessTime:
    def test_symmetric_half(self):
        assert aloha_mean_success_time(AlohaParams(0.5, 0.5)) == pytest.approx(2.0)

    def test_deterministic_single(self):
        assert aloha_mean_success_time(AlohaParams(1.0, 0.0)) == pytest.approx(1.0)

    def test_asymmetric(self):
        # success probability = 0.5*0.8 + 0.5*0.2 ... (pa=0.2, pb=0.5)
        got = aloha_mean_success_time(AlohaParams(0.2, 0.5))
        assert got == pytest.approx(1.0 / (0.8 * 0.5 + 0.5 * 0.2))

    def test_geometric_series_oracle(self):
        p = (1 - 0.5) * 0.5 + (1 - 0.5) * 0.5
        series = sum(k * p * (1 - p) ** (k - 1) for k in range(1, 10_000))
        assert aloha_mean_success_time(AlohaParams(0.5, 0.5)) == \
            pytest.approx(series)

    def test_slot_scaling(self):
        assert aloha_mean_success_time(AlohaParams(0.5, 0.5, slot=30)) == \
            pytest.approx(60.0)


class TestAlohaCct:
    def test_optimum_value(self):
        assert aloha_cct(AlohaParams(0.5, 0.5)).psi_slots == pytest.approx(8.0)

    def test_asymmetric_value(self):
        # ((0.5*0.8 + 0.5*0.2) / (0.8*0.5*0.2*0.5)) = 0.5 / 0.04 = 12.5
        assert aloha_cct(AlohaParams(0.2, 0.5)).psi_slots == pytest.approx(12.5)

    def test_degenerate_edges(self):
        for pa, pb in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
            with pytest.raises(DegenerateError):
                aloha_cct(AlohaParams(pa, pb))

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, pa, pb):
        assert aloha_cct(AlohaParams(pa, pb)).psi_slots == \
            pytest.approx(aloha_cct(AlohaParams(pb, pa)).psi_slots)

    def test_slot_scaling(self):
        assert aloha_cct(AlohaParams(0.5, 0.5, slot=30)).psi_slots == \
            pytest.approx(240.0)

    def test_grid_minimum_at_half(self):
        grid = np.arange(0.01, 1.0, 0.01)
        best = None
        for pa in grid:
            for pb in grid:
                psi = aloha_cct(AlohaParams(float(pa), float(pb))).psi_slots
                if best is None or psi < best[0]:
                    best = (psi, float(pa), float(pb))
        assert best[1] == pytest.approx(0.5)
        assert best[2] == pytest.approx(0.5)
        assert best[0] == pytest.approx(8.0)

    def test_optimum_helper(self):
        pa, pb, psi = aloha_optimum()
        assert (pa, pb, psi) == (0.5, 0.5, 8.0)
        assert pa + pb == 1.0  # offered load at the optimum

    def test_tdma_lower_bound(self):
        # Two unit packets: no protocol beats serving both back to back.
        for pa in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert aloha_cct(AlohaParams(pa, pa)).psi_slots >= 2.0


def _exact_root(cw_min: int, beta: int) -> Fraction:
    """The contention fixed point's root by bisection of [0, 1/2] in exact
    rational arithmetic, to a width of 2**-60 of the upper end."""
    def f(p):
        q = 1 - 2 * p
        return p - 2 * q / (q * (cw_min + 3)
                            + p * cw_min * (1 - (2 * p) ** beta))

    lo, hi = Fraction(0), Fraction(1, 2)
    while hi - lo > hi / 2**60:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    return (lo + hi) / 2


class TestCollisionFixedPoint:
    def test_default_window(self):
        fp = solve_collision_probability(32, 5)
        assert fp.residual <= 1e-12
        assert fp.p_c == pytest.approx(0.0542, abs=5e-4)
        assert 0.0 < fp.p_c < 0.5

    def test_beta_zero_closed_form(self):
        for cw in (8, 16, 32, 64):
            fp = solve_collision_probability(cw, 0)
            assert abs(fp.p_c - 2.0 / (cw + 3.0)) <= 1e-12

    def test_degenerate_window(self):
        with pytest.raises(NoRootError):
            solve_collision_probability(1, 0)

    def test_smallest_window_with_escalation(self):
        fp = solve_collision_probability(1, 1)
        assert 0.0 < fp.p_c < 0.5
        assert fp.residual <= 1e-12

    @pytest.mark.parametrize("beta", [0, 1, 2, 3, 5, 8])
    def test_residual_across_grid(self, beta):
        for cw in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            fp = solve_collision_probability(cw, beta)
            assert fp.residual <= 1e-12

    @pytest.mark.parametrize("beta", [0, 2, 5])
    def test_monotone_in_window(self, beta):
        values = [solve_collision_probability(cw, beta).p_c
                  for cw in (2, 4, 8, 16, 32, 64, 128)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("cw,beta", [(32, 1019), (1, 1024), (1, 10**20),
                                         (10**400, 0)])
    def test_window_beyond_float_rejected(self, cw, beta):
        with pytest.raises(DomainError, match="does not fit in a float"):
            solve_collision_probability(cw, beta)
        with pytest.raises(DomainError, match="does not fit in a float"):
            expected_backoff_sum(0.1, cw, beta)

    def test_largest_float_window_accepted(self):
        # 32 * 2**1018 = 2**1023 is the largest power of two a float holds.
        assert 0.0 < solve_collision_probability(32, 1018).p_c < 0.5
        assert math.isfinite(expected_backoff_sum(0.0, 32, 1018))

    @pytest.mark.parametrize("cw", [1, 2, 3, 32, 1000, 10**6, 2**30])
    def test_bisection_ends_within_fifty_steps(self, cw):
        # The interval starts just under 1/2 wide and halves until it is
        # below 1e-15, which takes 49 steps for every window; the result is
        # that of an unbounded bisection, step for step.  2**30 is the
        # widest power-of-two window whose root lies above the bracket's
        # 1e-9 lower end.
        for beta in range(11):
            if (cw, beta) == (1, 0):
                continue  # no interior root
            fp = solve_collision_probability(cw, beta)

            def f(p):
                return p - analytic._fixed_point_rhs(p, cw, beta)

            lo, hi, steps = 1e-9, 0.5 - 1e-9, 0
            while hi - lo > 1e-15:
                steps += 1
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
            p = 0.5 * (lo + hi)
            assert fp.iterations == steps <= 50
            assert (fp.p_c, fp.residual) == (p, abs(f(p)))

    @pytest.mark.parametrize("cw", [2**31, 2**31 + 1, 3 * 2**31, 2**32,
                                    2**40, 10**15, 2**64, 2**100])
    def test_roots_below_the_bracket(self, cw):
        # f(1e-9) >= 0 from about 2**31 on, so the bracket starts at 0,
        # where f is -2/(cw_min + 3) < 0, and stops on a relative width.
        fp = solve_collision_probability(cw, 0)
        assert fp.p_c == pytest.approx(2 / (cw + 3), rel=1e-10)
        fp = solve_collision_probability(cw, 5)
        assert fp.p_c == pytest.approx(float(_exact_root(cw, 5)), rel=1e-10)
        assert fp.p_c < 1e-9

    def test_uniqueness_by_sign_scan(self):
        cw, beta = 32, 5
        grid = np.linspace(1e-6, 0.5 - 1e-6, 10_000)
        f = np.array([p - analytic._fixed_point_rhs(p, cw, beta) for p in grid])
        flips = int(np.sum(np.sign(f[:-1]) != np.sign(f[1:])))
        assert flips == 1


class TestExpectedBackoffSum:
    def test_no_collisions(self):
        assert expected_backoff_sum(0.0, 32, 5) == 16.5

    def test_fixed_window_value(self):
        # beta=0: mu = (1+cw)/2 / (1-p_c)
        assert expected_backoff_sum(0.5, 2, 0) == pytest.approx(3.0)

    def test_zero_collision_limit(self):
        for cw in (4, 16, 64):
            assert expected_backoff_sum(0.0, cw, 3) == pytest.approx((1 + cw) / 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            expected_backoff_sum(1.0, 32, 5)
        with pytest.raises(DomainError):
            expected_backoff_sum(-0.1, 32, 5)

    def test_monte_carlo_oracle(self):
        p_c, cw_min, beta = 0.0542, 32, 5
        rng = np.random.default_rng(123)
        n = 1_000_000
        n_coll = rng.geometric(1.0 - p_c, size=n) - 1
        total = np.zeros(n)
        for stage in range(int(n_coll.max()) + 1):
            active = n_coll >= stage
            cw = min((1 << stage) * cw_min, (1 << beta) * cw_min)
            total[active] += rng.integers(1, cw + 1, size=int(active.sum()))
        want = expected_backoff_sum(p_c, cw_min, beta)
        assert abs(total.mean() - want) / want <= 0.01


class TestPartCountMeans:
    def test_default_point(self):
        e_nb, e_na = part_count_means(0.32, 1.0)
        assert e_nb == pytest.approx(1.0 / 0.68)
        assert e_na == pytest.approx(0.32 / 0.68)

    def test_no_repeats(self):
        assert part_count_means(0.0, 1.0) == (1.0, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            part_count_means(1.0)
        with pytest.raises(DomainError):
            part_count_means(-0.01)
        for e_ni in (math.inf, math.nan, -1.0):
            with pytest.raises(DomainError, match="e_ni"):
                part_count_means(0.32, e_ni)

    def test_geometric_mean_identity(self):
        # E[n_a'] = sum k p^k (1-p) = p/(1-p)
        for p in (0.1, 0.32, 0.7):
            _, e_na = part_count_means(p)
            series = sum(k * p ** k * (1 - p) for k in range(1, 4000))
            assert abs(e_na - series) <= 1e-9


class TestCsmaCct:
    def test_reference_point(self):
        got = csma_cct(table_params(30)).psi_slots
        fp = solve_collision_probability(32, 5)
        mu = expected_backoff_sum(fp.p_c, 32, 5)
        want = (36 * 1.0 + 31 + 6 / (1 - fp.p_c) + mu) / 0.68
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(135.0, abs=0.1)

    def test_basic_reference_point(self):
        got = csma_cct(table_params(30), mode=CsmaMode.BASIC).psi_slots
        fp = solve_collision_probability(32, 5)
        mu = expected_backoff_sum(fp.p_c, 32, 5)
        want = (34 * 1.0 + 35 / (1 - fp.p_c) + mu) / 0.68
        assert got == pytest.approx(want, rel=1e-12)

    def test_decomposition_identity(self):
        for l_pkt in (30, 50, 70, 100):
            for mode in (CsmaMode.RTS_CTS, CsmaMode.BASIC):
                r = csma_cct(table_params(l_pkt), mode=mode)
                total = r.components.part1_mean + r.components.part2_mean
                assert abs(total - r.psi_slots) / r.psi_slots <= 1e-9

    @given(st.integers(2, 256), st.integers(0, 6), st.integers(1, 8),
           st.integers(2, 120), st.floats(0.05, 0.9), st.floats(0.2, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_decomposition_identity_random(self, cw, beta, difs, pkt, p0, e_ni):
        params = CsmaParams(cw_min=cw, beta=beta, l_difs=difs, l_pkt=pkt)
        for mode in (CsmaMode.RTS_CTS, CsmaMode.BASIC):
            r = csma_cct(params, p_ni0=p0, e_ni=e_ni, mode=mode)
            total = r.components.part1_mean + r.components.part2_mean
            assert abs(total - r.psi_slots) / r.psi_slots <= 1e-9

    def test_no_contention_limit(self):
        # Force p_c = 0 and let the interleaving vanish: one deferral, one
        # uncontended attempt, mean backoff (1+cw)/2.
        p = table_params(30)
        tiny = 1e-12
        got = csma_cct(p, p_ni0=tiny, e_ni=1.0, p_c=0.0).psi_slots
        want = (p.l_difs + p.l_nav) + p.l_tran + (p.l_difs + p.l_rcts) + 16.5
        assert got == pytest.approx(want, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            csma_cct(table_params(30), p_ni0=0.0)
        with pytest.raises(DomainError):
            csma_cct(table_params(30), p_ni0=1.0)
        for e_ni in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="e_ni"):
                csma_cct(table_params(30), e_ni=e_ni)
        with pytest.raises(DomainError):
            csma_cct(table_params(30), p_c=1.0)

    def test_mean_retry_count_is_geometric(self):
        # E[rho] = p_c/(1-p_c): embedded in the attempt term; check directly.
        p_c = 0.0542
        e_rho = p_c / (1 - p_c)
        series = sum(k * p_c ** k * (1 - p_c) for k in range(1, 2000))
        assert abs(e_rho - series) <= 1e-9

    def test_tdma_lower_bound(self):
        for l_pkt in (30, 50, 70, 100):
            psi = csma_cct(table_params(l_pkt)).psi_slots
            assert psi >= 2 * l_pkt

    def test_monotone_in_packet_length(self):
        values = [csma_cct(table_params(l)).psi_slots for l in range(30, 101, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestFixedWindowForm:
    def test_matches_general_form(self):
        for cw in (2, 4, 8, 16, 32):
            params = CsmaParams(cw_min=cw, beta=0, l_difs=4, l_pkt=30)
            full = csma_cct(params).psi_slots
            simplified = csma_cct_fixed_window(params)
            assert abs(full - simplified) / full <= 1e-9

    def test_requires_beta_zero(self):
        with pytest.raises(DomainError):
            csma_cct_fixed_window(table_params(30))


class TestCwOptimum:
    def test_reference_point(self):
        opt = cw_min_optimal(4, 2)
        assert opt.continuous == pytest.approx(2 * math.sqrt(6) - 1)
        assert opt.integer == 4

    def test_unit_overhead(self):
        opt = cw_min_optimal(1, 1)  # 2*sqrt(2)-1 = 1.828..., integer scan picks 2
        assert opt.continuous == pytest.approx(2 * math.sqrt(2) - 1)
        assert opt.integer in (1, 2)

    def test_integer_matches_exhaustive_scan(self):
        for l_difs in (1, 2, 4, 8, 16):
            for l_rcts in (1, 2, 4, 8):
                opt = cw_min_optimal(l_difs, l_rcts)
                def cost(cw):
                    return 2 * (l_difs + l_rcts) / (cw + 1) + (cw + 1) / 2
                best = min(range(1, 129), key=cost)
                assert cost(opt.integer) == pytest.approx(cost(best))

    def test_full_psi_scan_agrees(self):
        # The integer window minimising the complete fixed-window cycle time
        # must match the CW-dependent-term optimum.
        costs = {cw: csma_cct_fixed_window(
            CsmaParams(cw_min=cw, beta=0, l_difs=4, l_pkt=30))
            for cw in range(1, 65)}
        argmin = min(costs, key=costs.get)
        assert abs(argmin - cw_min_optimal(4, 2).integer) <= 1


class TestInflection:
    def test_reference_point(self):
        p_c = solve_collision_probability(32, 5).p_c
        l_tran_star = rtscts_basic_inflection(p_c, 2)
        assert l_tran_star == pytest.approx(71.885, abs=0.05)

    def test_trivial_point(self):
        assert rtscts_basic_inflection(1.0, 5) == pytest.approx(5.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            rtscts_basic_inflection(0.0, 2)
        with pytest.raises(DomainError):
            rtscts_basic_inflection(1.5, 2)

    def test_sign_change_in_closed_forms(self):
        # Below the inflection basic mode is cheaper, above it RTS/CTS wins.
        p_c = solve_collision_probability(32, 5).p_c
        star = rtscts_basic_inflection(p_c, 2)  # l_tran units
        for l_pkt in range(56, 89, 4):
            diff = (csma_cct(table_params(l_pkt)).psi_slots
                    - csma_cct(table_params(l_pkt), mode=CsmaMode.BASIC).psi_slots)
            l_tran = l_pkt + 1
            if l_tran < star - 1:
                assert diff > 0
            elif l_tran > star + 1:
                assert diff < 0


class TestTdma:
    def test_two_users(self):
        assert tdma_cct([30, 30]) == 60.0

    def test_single_user(self):
        assert tdma_cct([30]) == 30.0

    def test_heterogeneous(self):
        assert tdma_cct([10, 20, 30]) == 60.0

    def test_empty(self):
        with pytest.raises(EmptyError):
            tdma_cct([])

    def test_bad_length(self):
        with pytest.raises(DomainError):
            tdma_cct([30, 0])


class TestAnalyticCctType:
    def test_mode_enum_values(self):
        assert csma_cct(table_params(30)).mode is CctMode.CSMA_RTS_CTS
        assert csma_cct(table_params(30), mode=CsmaMode.BASIC).mode is \
            CctMode.CSMA_BASIC
        assert aloha_cct(AlohaParams(0.5, 0.5)).mode is CctMode.ALOHA_SLOTTED

    def test_components_reported(self):
        c = csma_cct(table_params(30)).components
        for field in ("part1_mean", "part2_mean", "mu", "p_c", "p_ni0", "e_ni"):
            assert getattr(c, field) is not None
        a = aloha_cct(AlohaParams(0.5, 0.5)).components
        assert a.p_c is None and a.mu is None

    @pytest.mark.parametrize("psi", [0.0, -1.0, math.inf, math.nan])
    def test_psi_positive_and_finite(self, psi):
        with pytest.raises(analytic.AnalyticError, match="and finite"):
            analytic.AnalyticCct(psi, CctMode.TDMA_ROUND_ROBIN,
                                 analytic.CctComponents())


def _pinned_lines():
    """`repr` of each closed-form result, or its exception type and message,
    over a fixed grid of inputs and edge values."""

    def out(fn, *args, **kwargs) -> str:
        try:
            return repr(fn(*args, **kwargs))
        except analytic.AnalyticError as exc:
            return f"{type(exc).__name__}: {exc}"

    probs = [i / 100 for i in range(101)]
    for p_a in probs:
        for p_b in probs:
            yield out(aloha_success_split, p_a, p_b)
            for slot in (1, 3, 30):
                params = AlohaParams(p_a, p_b, slot)
                yield out(aloha_mean_success_time, params)
                yield out(aloha_cct, params)
    for cw in (1, 2, 3, 8, 32, 64):
        for beta in (0, 1, 5):
            for difs in (1, 4, 40):
                for pkt in (1, 30, 100):
                    params = CsmaParams(cw_min=cw, beta=beta, l_difs=difs,
                                        l_pkt=pkt)
                    for mode in CsmaMode:
                        yield out(csma_cct, params, mode=mode)
                        yield out(csma_cct, params, p_ni0=0.2, e_ni=1.7,
                                  mode=mode)
                        for p_c in (0.1, 0.0, 1.0, -0.1):
                            yield out(csma_cct, params, mode=mode, p_c=p_c)
                    yield out(csma_cct_fixed_window, params)
    for l_difs in range(20):
        for l_rcts in range(10):
            yield out(cw_min_optimal, l_difs, l_rcts)


class TestPinned:
    def test_digest(self):
        # Generated from the closed forms before their shared terms were
        # factored out; any change in the last bit of a result shows here.
        digest = hashlib.sha256("\n".join(_pinned_lines()).encode()).hexdigest()
        assert digest == (
            "60200c73660f2d0d10d35fb1d26bb95af3313454c616fb5ddf849a7ad64361d5")
