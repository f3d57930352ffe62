"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line with its runtime.  Heavy simulation grids are shared through module-scoped
fixtures; every tolerance is stated inline next to its assert.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import helpers
from macfair.analytic import (
    _fixed_point_rhs,
    aloha_cct,
    csma_cct,
    csma_cct_fixed_window,
    expected_backoff_sum,
    rtscts_basic_inflection,
    solve_collision_probability,
    tdma_cct,
)
from macfair.core import AlohaParams, CsmaMode, CsmaParams
from macfair.metrics import (
    channel_cycle_time,
    cycle_intervals,
    inter_transmission_report,
    part_decomposition,
    refresh_moments,
)
from macfair.sim import (
    SimConfig,
    reconstruct_parts,
    simulate_aloha,
    simulate_csma,
    simulate_tdma,
)

TABLE_PKTS = (30, 50, 70, 100)


def table_params(l_pkt: int) -> CsmaParams:
    return CsmaParams(cw_min=32, beta=5, l_difs=4, l_pkt=l_pkt)


@contextmanager
def criterion(capsys, num: int, name: str):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.monotonic() - t0
        with capsys.disabled():
            print(f"criterion {num:02d} [{name}]: "
                  f"{'PASS' if ok else 'FAIL'} ({dt:.1f}s)")


@pytest.fixture(scope="module")
def table_runs():
    """RTS/CTS runs at the reference parameter table: 10 seeds x 1e7 slots
    per packet length, reduced to per-run psi, P(N_I=0), and E(N_I)."""
    out = {}
    t0 = time.monotonic()
    for pkt in TABLE_PKTS:
        params = table_params(pkt)
        psis, p0s, enis = [], [], []
        for s in range(10):
            trace = simulate_csma(params, SimConfig(seed=1000 + s,
                                                    horizon=10_000_000))
            psis.append(channel_cycle_time(trace).psi_slots)
            rep = inter_transmission_report(trace)
            p0s.append(rep.pooled_pmf.get(0, 0.0))
            enis.append(rep.mean)
        out[pkt] = {"psis": psis, "p0s": p0s, "enis": enis}
    out["elapsed"] = time.monotonic() - t0
    return out


def test_criterion_01_reference_trace_exact_sets(capsys):
    with criterion(capsys, 1, "reference trace: exact refresh and cycle sets"):
        t0 = time.monotonic()
        trace = helpers.fig_trace()
        assert refresh_moments(trace, "A").tolist() == [1, 8, 12]
        assert refresh_moments(trace, "B").tolist() == [4, 7, 10]
        assert refresh_moments(trace, "C").tolist() == [6, 9, 11]
        report = channel_cycle_time(trace)
        assert report.per_user_samples["A"].tolist() == [7, 4]
        assert report.per_user_samples["B"].tolist() == [6, 3]
        assert report.per_user_samples["C"].tolist() == [3]
        # The two candidate pairs without interior coverage must be absent.
        assert [4, 7] not in cycle_intervals(trace, "B").tolist()
        assert [6, 11] not in cycle_intervals(trace, "C").tolist()
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_aloha_optimum_within_2pct(capsys):
    with criterion(capsys, 2, "Aloha optimum: sim psi = 8 slots +-2%"):
        t0 = time.monotonic()
        psis = []
        for s in range(10):
            trace = simulate_aloha(AlohaParams(0.5, 0.5),
                                   SimConfig(seed=2000 + s, horizon=10_000_000))
            psis.append(channel_cycle_time(trace).psi_slots)
        mean = float(np.mean(psis))
        assert abs(mean - 8.0) / 8.0 <= 0.02
        assert time.monotonic() - t0 < 60.0


def test_criterion_03_aloha_grid_within_3pct(capsys):
    with criterion(capsys, 3, "Aloha 25-point grid: sim vs closed form +-3%"):
        t0 = time.monotonic()
        grid = (0.2, 0.35, 0.5, 0.65, 0.8)
        for i, (pa, pb) in enumerate((a, b) for a in grid for b in grid):
            params = AlohaParams(pa, pb)
            vals = []
            for s in range(3):
                trace = simulate_aloha(params, SimConfig(seed=3000 + 100 * i + s,
                                                         horizon=4_000_000))
                vals.append(channel_cycle_time(trace).psi_slots)
            want = aloha_cct(params).psi_slots
            assert abs(float(np.mean(vals)) - want) / want <= 0.03, (pa, pb)
        assert time.monotonic() - t0 < 600.0


def test_criterion_04_collision_fixed_point(capsys):
    with criterion(capsys, 4, "collision fixed point: residual, beta=0 form, "
                              "uniqueness"):
        sol = solve_collision_probability(32, 5)
        assert abs(sol.residual) <= 1e-12
        for cw in (8, 16, 32, 64):
            got = solve_collision_probability(cw, 0).p_c
            assert abs(got - 2.0 / (cw + 3)) <= 1e-12
        ps = np.linspace(1e-9, 0.5 - 1e-9, 10_000)
        f = np.array([_fixed_point_rhs(p, 32, 5) - p for p in ps])
        flips = int(np.sum(np.sign(f[:-1]) != np.sign(f[1:])))
        assert flips == 1


def test_criterion_05_backoff_series(capsys):
    with criterion(capsys, 5, "backoff series: exact zero-collision value and "
                              "Monte Carlo oracle +-1%"):
        assert expected_backoff_sum(0.0, 32, 5) == 16.5
        p_c, cw_min, beta = 0.0542, 32, 5
        rng = np.random.default_rng(55)
        n = 1_000_000
        n_coll = rng.geometric(1.0 - p_c, size=n) - 1
        total = np.zeros(n)
        for stage in range(int(n_coll.max()) + 1):
            active = n_coll >= stage
            cw = min((1 << stage) * cw_min, (1 << beta) * cw_min)
            total[active] += rng.integers(1, cw + 1, size=int(active.sum()))
        want = expected_backoff_sum(p_c, cw_min, beta)
        assert abs(float(total.mean()) - want) / want <= 0.01


def test_criterion_06_csma_closed_form_within_5pct(capsys, table_runs):
    with criterion(capsys, 6, "CSMA RTS/CTS closed form vs sim +-5%"):
        t0 = time.monotonic()
        for pkt in TABLE_PKTS:
            sim_mean = float(np.mean(table_runs[pkt]["psis"]))
            at_constant = csma_cct(table_params(pkt), p_ni0=0.32).psi_slots
            assert abs(sim_mean - at_constant) / at_constant <= 0.05, pkt
            p0_hat = float(np.mean(table_runs[pkt]["p0s"]))
            at_empirical = csma_cct(table_params(pkt), p_ni0=p0_hat).psi_slots
            assert abs(sim_mean - at_empirical) / at_empirical <= 0.05, pkt
        assert table_runs["elapsed"] + (time.monotonic() - t0) < 900.0


def test_criterion_07_intertx_constants(capsys, table_runs):
    with criterion(capsys, 7, "empirical P(N_I=0)=0.32+-0.03 and "
                              "E(N_I)=1.0+-0.05"):
        for pkt in TABLE_PKTS:
            p0_hat = float(np.mean(table_runs[pkt]["p0s"]))
            eni_hat = float(np.mean(table_runs[pkt]["enis"]))
            assert abs(p0_hat - 0.32) <= 0.03, pkt
            assert abs(eni_hat - 1.0) <= 0.05, pkt


def test_criterion_08_audit_reconstruction_exact(capsys):
    with criterion(capsys, 8, "audit reconstruction integer-exact on >=1e5 "
                              "cycles"):
        total = 0
        for pkt in (30, 100):
            params = table_params(pkt)
            trace, audit = simulate_csma(
                params, SimConfig(seed=400 + pkt, horizon=10_000_000),
                CsmaMode.RTS_CTS, audit=True)
            for user in ("A", "B"):
                parts = reconstruct_parts(trace, audit, params,
                                          CsmaMode.RTS_CTS, user)
                assert parts == part_decomposition(trace, user)
                total += len(parts)
        assert total >= 100_000


def test_criterion_09_protocol_ordering(capsys, table_runs):
    with criterion(capsys, 9, "ordering: TDMA < CSMA < Aloha at every packet "
                              "length, analytic and sim"):
        for pkt in TABLE_PKTS:
            tdma = tdma_cct([pkt, pkt])
            aloha = aloha_cct(AlohaParams(0.5, 0.5, slot=pkt)).psi_slots
            for mode in (CsmaMode.RTS_CTS, CsmaMode.BASIC):
                csma = csma_cct(table_params(pkt), mode=mode).psi_slots
                assert tdma < csma < aloha, (pkt, mode)
            # Simulation side, same ordering.
            tdma_sim = channel_cycle_time(simulate_tdma(
                [pkt, pkt], SimConfig(seed=11, horizon=400_000))).psi_slots
            csma_sim = float(np.mean(table_runs[pkt]["psis"]))
            aloha_sims = []
            for s in range(2):
                trace = simulate_aloha(
                    AlohaParams(0.5, 0.5, slot=pkt),
                    SimConfig(seed=900 + s, horizon=600_000 * pkt))
                aloha_sims.append(channel_cycle_time(trace).psi_slots)
            aloha_sim = float(np.mean(aloha_sims))
            assert tdma_sim < csma_sim < aloha_sim, pkt


def test_criterion_10_rtscts_basic_crossover(capsys):
    with criterion(capsys, 10, "RTS/CTS vs basic crossover near the "
                               "inflection point"):
        params0 = table_params(30)
        p_c = solve_collision_probability(32, 5).p_c
        # Inflection is stated on the payload+ack axis; grid sweeps payload.
        inflection = rtscts_basic_inflection(p_c, params0.l_rcts)

        def interp_zero(xs, ds):
            sign = np.sign(ds)
            flips = np.flatnonzero(sign[:-1] != sign[1:])
            assert len(flips) == 1, "expected a single sign change"
            i = int(flips[0])
            return xs[i] + (xs[i + 1] - xs[i]) * ds[i] / (ds[i] - ds[i + 1])

        pkts = np.arange(40, 111, dtype=float)
        diff_a = np.array([
            csma_cct(table_params(int(p)), mode=CsmaMode.RTS_CTS).psi_slots
            - csma_cct(table_params(int(p)), mode=CsmaMode.BASIC).psi_slots
            for p in pkts])
        x_analytic = interp_zero(pkts, diff_a) + params0.l_ack
        assert abs(x_analytic - inflection) <= 1.0

        step = 8
        grid = np.arange(48, 97, step, dtype=float)
        diff_s = []
        for pkt in grid:
            params = table_params(int(pkt))
            d = []
            for s in range(5):
                config = SimConfig(seed=7000 + s, horizon=4_000_000)
                rts = channel_cycle_time(
                    simulate_csma(params, config, CsmaMode.RTS_CTS)).psi_slots
                basic = channel_cycle_time(
                    simulate_csma(params, config, CsmaMode.BASIC)).psi_slots
                d.append(rts - basic)  # paired seeds: identical round structure
            diff_s.append(float(np.mean(d)))
        x_sim = interp_zero(grid, np.array(diff_s)) + params0.l_ack
        assert abs(x_sim - inflection) <= max(step, 0.10 * inflection)


def test_criterion_11_fixed_window_consistency(capsys):
    with criterion(capsys, 11, "beta=0 simplified form and optimal window"):
        for cw in range(2, 65):
            params = CsmaParams(cw_min=cw, beta=0, l_difs=4, l_pkt=30)
            general = csma_cct(params).psi_slots
            simplified = csma_cct_fixed_window(params)
            assert abs(general - simplified) / general <= 1e-9, cw
        scan = {cw: csma_cct_fixed_window(
                    CsmaParams(cw_min=cw, beta=0, l_difs=4, l_pkt=30))
                for cw in range(1, 65)}
        argmin = min(scan, key=scan.get)
        want = round(2 * math.sqrt(4 + 2) - 1)
        assert abs(argmin - want) <= 1


def test_criterion_12_pattern_doubling(capsys):
    with criterion(capsys, 12, "psi(AABB) = 2 * psi(ABAB) exactly"):
        lengths = {"A": 7, "B": 7}
        psi_abab = channel_cycle_time(
            helpers.pattern_trace("ABAB" * 30, lengths)).psi_slots
        psi_aabb = channel_cycle_time(
            helpers.pattern_trace("AABB" * 30, lengths)).psi_slots
        assert psi_aabb == 2.0 * psi_abab
