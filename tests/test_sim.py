"""Simulators: determinism, structural validity, known degenerate behaviours,
agreement with closed forms, and the audit-log conservation identities."""
import hashlib
import io

import numpy as np
import pytest
import scipy.stats

from macfair import analytic, metrics
from macfair.core import (
    AlohaParams,
    ChannelTrace,
    CsmaMode,
    CsmaParams,
    EventKind,
    TraceError,
    validate_trace,
)
from macfair.sim import (
    BLOCK,
    COLLISION_OUTCOME,
    SimConfig,
    _backoff_draw,
    empirical_collision_probability,
    reconstruct_parts,
    simulate_aloha,
    simulate_csma,
    simulate_tdma,
    write_audit,
)

TABLE = CsmaParams(cw_min=32, beta=5, l_difs=4, l_pkt=30)


@pytest.fixture(scope="module")
def long_csma_trace():
    return simulate_csma(TABLE, SimConfig(seed=29, horizon=8_000_000))


class TestDeterminism:
    def test_aloha_bit_identical(self):
        cfg = SimConfig(seed=42, horizon=50_000)
        a = simulate_aloha(AlohaParams(0.5, 0.5), cfg)
        b = simulate_aloha(AlohaParams(0.5, 0.5), cfg)
        assert a == b

    def test_csma_bit_identical_files(self, tmp_path):
        cfg = SimConfig(seed=42, horizon=50_000)
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        simulate_csma(TABLE, cfg).to_file(pa)
        simulate_csma(TABLE, cfg).to_file(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_trace(self):
        a = simulate_aloha(AlohaParams(0.5, 0.5), SimConfig(seed=1, horizon=10_000))
        b = simulate_aloha(AlohaParams(0.5, 0.5), SimConfig(seed=2, horizon=10_000))
        assert a != b

    def test_tdma_seed_irrelevant(self):
        a = simulate_tdma([30, 30], SimConfig(seed=1, horizon=10_000))
        b = simulate_tdma([30, 30], SimConfig(seed=9, horizon=10_000))
        assert a == b


class TestAloha:
    def test_valid_trace(self):
        tr = simulate_aloha(AlohaParams(0.5, 0.5), SimConfig(seed=3, horizon=100_000))
        validate_trace(tr)
        assert tr.horizon == 100_000

    def test_all_a_when_deterministic(self):
        tr = simulate_aloha(AlohaParams(1.0, 0.0), SimConfig(seed=0, horizon=1000))
        kinds = set(tr.kinds.tolist())
        assert kinds == {0}  # success events only
        assert set(tr.masks.tolist()) == {1}
        rep = metrics.channel_cycle_time(tr)
        assert rep.psi_undefined

    def test_always_collide(self):
        tr = simulate_aloha(AlohaParams(1.0, 1.0), SimConfig(seed=0, horizon=1000))
        assert set(tr.kinds.tolist()) == {1}

    def test_throughput_at_optimum(self):
        tr = simulate_aloha(AlohaParams(0.5, 0.5),
                            SimConfig(seed=11, horizon=1_000_000))
        assert metrics.throughput(tr) == pytest.approx(0.5, abs=0.003)

    def test_slot_scaling(self):
        tr = simulate_aloha(AlohaParams(0.5, 0.5, slot=30),
                            SimConfig(seed=5, horizon=60_000))
        validate_trace(tr)
        busy = tr.kinds != 2
        assert np.all((tr.ends - tr.starts)[busy] == 30)
        rep = metrics.channel_cycle_time(tr)
        assert rep.psi_slots == pytest.approx(240.0, rel=0.15)

    def test_events_inside_window(self):
        tr = simulate_aloha(AlohaParams(0.3, 0.7), SimConfig(seed=5, horizon=5000))
        assert tr.starts.min() >= 0
        assert tr.ends.max() <= 5000


class TestCsma:
    def test_valid_trace_both_modes(self):
        for mode in (CsmaMode.RTS_CTS, CsmaMode.BASIC):
            tr = simulate_csma(TABLE, SimConfig(seed=2, horizon=200_000), mode)
            validate_trace(tr)
            assert tr.horizon == 200_000

    def test_event_lengths_rtscts(self):
        tr = simulate_csma(TABLE, SimConfig(seed=2, horizon=100_000))
        succ = tr.kinds == 0
        coll = tr.kinds == 1
        assert np.all((tr.ends - tr.starts)[succ] == TABLE.l_rcts + TABLE.l_tran)
        assert np.all((tr.ends - tr.starts)[coll] == TABLE.l_rcts)

    def test_event_lengths_basic(self):
        tr = simulate_csma(TABLE, SimConfig(seed=2, horizon=100_000), CsmaMode.BASIC)
        busy = tr.kinds != 2
        assert np.all((tr.ends - tr.starts)[busy] == TABLE.l_tran)

    def test_unit_window_always_collides(self):
        params = CsmaParams(cw_min=1, beta=0, l_difs=2, l_pkt=5)
        tr = simulate_csma(params, SimConfig(seed=7, horizon=5000))
        kinds = set(tr.kinds.tolist())
        assert 0 not in kinds  # no successes, ever
        assert 1 in kinds

    def test_window_beyond_32_bits_rejected(self):
        params = CsmaParams(cw_min=3, beta=31, l_difs=1, l_pkt=1)
        assert params.cw_max > 2**32
        with pytest.raises(TraceError):
            simulate_csma(params, SimConfig(seed=0, horizon=100))
        assert analytic.csma_cct(params).psi_slots > 0

    def test_symmetry_mean_cycle_times(self):
        tr = simulate_csma(TABLE, SimConfig(seed=17, horizon=10_000_000))
        rep = metrics.channel_cycle_time(tr)
        means = rep.per_user_mean()
        gap = abs(means["A"] - means["B"]) / means["A"]
        assert gap < 0.02

    @pytest.mark.parametrize("cw_min", [16, 32, 64])
    def test_empirical_collision_probability(self, cw_min):
        params = CsmaParams(cw_min=cw_min, beta=5, l_difs=4, l_pkt=30)
        _, audit = simulate_csma(params, SimConfig(seed=23, horizon=2_000_000),
                                 audit=True)
        want = analytic.solve_collision_probability(cw_min, 5).p_c
        got = empirical_collision_probability(audit)
        assert abs(got - want) / want <= 0.10

    def test_extra_success_mean_matches_ratio(self, long_csma_trace):
        # E[n_a'] = P0/(1-P0) at the empirical P0; exact up to edge effects.
        report = metrics.inter_transmission_report(long_csma_trace)
        p0 = report.pooled_pmf[0]
        counts = np.concatenate([
            [p.n_a_prime for p in metrics.part_decomposition(long_csma_trace, u)]
            for u in long_csma_trace.users])
        assert counts.mean() == pytest.approx(p0 / (1 - p0), rel=0.05)
        assert np.all(counts >= 0)

    @pytest.mark.xfail(strict=True, reason=(
        "the run of extra same-user successes is not memoryless: its "
        "continuation probability varies with run position (about 0.35, 0.25, "
        "0.23, 0.27, ... at the reference window) because the losing station "
        "carries its backoff counter across rounds.  The geometric law is a "
        "modelling idealisation whose mean is exact but whose shape a "
        "chi-square test over 1e5 cycles rejects decisively"))
    def test_extra_success_run_is_geometric(self, long_csma_trace):
        # n_a' across cycles against a geometric law with parameter
        # P(N_I = 0); chi-square GOF at the 1% level.
        report = metrics.inter_transmission_report(long_csma_trace)
        p0 = report.pooled_pmf[0]
        counts = np.concatenate([
            [p.n_a_prime for p in metrics.part_decomposition(long_csma_trace, u)]
            for u in long_csma_trace.users])
        assert len(counts) >= 1e5
        kmax = 6
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        probs = np.array([(1 - p0) * p0 ** k for k in range(kmax)] +
                         [p0 ** kmax])
        chi = scipy.stats.chisquare(observed, probs * observed.sum(), ddof=1)
        assert chi.pvalue > 0.01


def _sim_digest(trace, audit) -> str:
    h = hashlib.sha256()
    for a in (trace.starts, trace.ends, trace.kinds, trace.masks, audit.t,
              audit.end, audit.outcome, audit.stage, audit.counter, audit.fresh):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestBackoffDraw:
    """The block draw must replay Generator.integers(1, cw + 1) exactly; a numpy
    release that changes its bounded-integer stream fails here first."""

    @staticmethod
    def _both(seed, cws):
        draw = _backoff_draw(np.random.default_rng(seed))
        ref = np.random.default_rng(seed)
        return ([draw(cw) for cw in cws],
                [int(ref.integers(1, cw + 1)) for cw in cws])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_windows(self, seed):
        windows = [1, 2, 3, 24, 32, 1024, 12345, 2**31 + 1, 2**32]
        pick = np.random.default_rng(1000 + seed)
        cws = [windows[i] for i in pick.integers(0, len(windows), 3 * BLOCK + 5)]
        got, want = self._both(seed, cws)
        assert got == want

    @pytest.mark.parametrize("cw", [3, 12345, 2**31 + 1, 3 * 2**30,
                                    2**32 - 1, 2**32])
    def test_rejection_heavy_windows(self, cw):
        got, want = self._both(7, [cw] * (2 * BLOCK + 3))
        assert got == want
        assert min(got) >= 1 and max(got) <= cw


class TestCsmaPinned:
    """Digests of full traces and audits for fixed seeds: any drift in the
    seed-to-trace mapping fails here."""

    PINNED = {
        (32, CsmaMode.RTS_CTS):
            "b6592f60d092dc6d23dee7165dbf06aebc644961531989adb440572a2542d052",
        (32, CsmaMode.BASIC):
            "044c54c68e0e2ba0694b56d57c20ad79b79fcb4a24f6d0fcd2c57afcee191230",
        (3, CsmaMode.RTS_CTS):
            "793c395488a44cc20ab499d582cf1453ed7780f7912c384c0b763d0226636432",
        (3, CsmaMode.BASIC):
            "c0e25d69b9b1e5b546bafc7d0b4f063b93d42de190facdff3753962ea286d98a",
    }
    CONFIGS = {
        32: (TABLE, SimConfig(seed=3, horizon=20_000)),
        3: (CsmaParams(cw_min=3, beta=2, l_difs=1, l_pkt=5),
            SimConfig(seed=4, horizon=5_000, warmup=0)),
    }

    @pytest.mark.parametrize("cw_min,mode", list(PINNED))
    def test_digest(self, cw_min, mode):
        params, cfg = self.CONFIGS[cw_min]
        trace, audit = simulate_csma(params, cfg, mode, audit=True)
        assert _sim_digest(trace, audit) == self.PINNED[cw_min, mode]
        # A pending counter never goes negative; a fresh draw is at least 1.
        assert np.all(audit.counter >= 0)
        assert np.all(audit.counter[audit.fresh] >= 1)


class TestCsmaAudit:
    def test_alignment_with_trace(self):
        tr, audit = simulate_csma(TABLE, SimConfig(seed=3, horizon=300_000),
                                  audit=True)
        # Rounds tile the window and every Success end appears as a round end.
        assert np.all(audit.t[1:] == audit.end[:-1])
        succ_ends = tr.ends[tr.kinds == 0]
        assert np.all(np.isin(succ_ends, audit.end))

    @pytest.mark.parametrize("params", [
        TABLE, CsmaParams(cw_min=2, beta=2, l_difs=1, l_pkt=3)],
        ids=["table", "capped"])
    def test_fresh_draw_bookkeeping(self, params):
        _, audit = simulate_csma(params, SimConfig(seed=3, horizon=100_000),
                                 audit=True)
        outcome = audit.outcome.tolist()
        stage = audit.stage.tolist()
        counter = audit.counter.tolist()
        fresh = audit.fresh.tolist()
        # Replay the protocol rule round by round against the derived columns.
        cap_hits = 0
        for i in range(len(audit)):
            for u in (0, 1):
                if fresh[i][u]:
                    assert 1 <= counter[i][u] <= params.cw(stage[i][u])
                if i == 0:
                    continue
                prev = outcome[i - 1]
                # A user redraws after a collision or its own win only.
                assert fresh[i][u] == (prev in (COLLISION_OUTCOME, u))
                if prev == u:
                    assert stage[i][u] == 0
                elif prev == COLLISION_OUTCOME:
                    assert stage[i][u] == min(stage[i - 1][u] + 1, params.beta)
                    cap_hits += stage[i - 1][u] == params.beta
                else:
                    # The loser keeps its stage and carries its counter less
                    # the winner's backoff and the one slot in the exchange.
                    assert stage[i][u] == stage[i - 1][u]
                    assert counter[i][u] == (counter[i - 1][u]
                                             - counter[i - 1][prev] - 1)
        assert cap_hits > 0 or params is TABLE

    @pytest.mark.parametrize("mode", [CsmaMode.RTS_CTS, CsmaMode.BASIC])
    def test_conservation_identities(self, mode):
        tr, audit = simulate_csma(TABLE, SimConfig(seed=5, horizon=1_000_000),
                                  mode, audit=True)
        for user in tr.users:
            rec = reconstruct_parts(tr, audit, TABLE, mode, user)
            assert len(rec.recon_part1) > 1000
            assert np.array_equal(rec.recon_part1, rec.measured_part1)
            assert np.array_equal(rec.recon_part2, rec.measured_part2)

    def test_conservation_matches_part_decomposition(self):
        tr, audit = simulate_csma(TABLE, SimConfig(seed=5, horizon=500_000),
                                  audit=True)
        for user in tr.users:
            rec = reconstruct_parts(tr, audit, TABLE, CsmaMode.RTS_CTS, user)
            parts = metrics.part_decomposition(tr, user)
            assert rec.n_b.tolist() == [p.n_b for p in parts]
            assert rec.n_a_prime.tolist() == [p.n_a_prime for p in parts]
            assert rec.measured_part1.tolist() == [p.t_part1 for p in parts]
            assert rec.measured_part2.tolist() == [p.t_part2 for p in parts]

    def test_audit_file_format(self):
        _, audit = simulate_csma(TABLE, SimConfig(seed=3, horizon=20_000),
                                 audit=True)
        buf = io.StringIO()
        write_audit(audit, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == len(audit)
        first = lines[0].split(",")
        assert len(first) == 6
        assert first[1] in ("A", "B", "collision")
        assert int(first[0]) == audit.t[0]

    def test_audit_file_matches_row_format(self):
        _, audit = simulate_csma(TABLE, SimConfig(seed=9, horizon=200_000),
                                 audit=True)
        assert np.any(audit.outcome == COLLISION_OUTCOME)
        want = io.StringIO()
        for i in range(len(audit)):
            out = audit.outcome[i]
            who = "collision" if out == COLLISION_OUTCOME else audit.users[out]
            want.write(f"{audit.t[i]},{who},"
                       f"{audit.stage[i, 0]},{audit.stage[i, 1]},"
                       f"{audit.counter[i, 0]},{audit.counter[i, 1]}\n")
        buf = io.StringIO()
        write_audit(audit, buf)
        assert buf.getvalue() == want.getvalue()


class TestTdma:
    def test_exact_cycle_time(self):
        tr = simulate_tdma([30, 30], SimConfig(seed=0, horizon=120_000))
        validate_trace(tr)
        rep = metrics.channel_cycle_time(tr)
        assert not rep.psi_undefined
        assert rep.psi_slots == 60.0
        assert set(np.unique(tr.ends - tr.starts).tolist()) == {30}

    def test_three_users(self):
        cfg = SimConfig(seed=0, horizon=60_000, users=("A", "B", "C"))
        tr = simulate_tdma([10, 20, 30], cfg)
        validate_trace(tr)
        assert metrics.channel_cycle_time(tr).psi_slots == 60.0

    def test_partial_round_truncated(self):
        tr = simulate_tdma([30, 30], SimConfig(seed=0, horizon=100, warmup=0))
        # 100 slots fit one full round plus one 30-slot packet.
        assert len(tr) == 3
        assert tr.ends.max() <= 100

    def test_length_user_mismatch(self):
        with pytest.raises(TraceError):
            simulate_tdma([30], SimConfig(seed=0, horizon=1000))


class TestWindowing:
    def test_warmup_shifts_origin(self):
        base = simulate_tdma([30, 30], SimConfig(seed=0, horizon=600, warmup=0))
        shifted = simulate_tdma([30, 30], SimConfig(seed=0, horizon=600, warmup=60))
        assert base == shifted  # one whole round of warm-up, same alignment

    def test_straddlers_dropped(self):
        tr = simulate_tdma([30, 30], SimConfig(seed=0, horizon=100, warmup=45))
        # Packets cover [45,60) partially: dropped; first kept starts at 60-45.
        assert tr.starts.min() == 15
        assert tr.ends.max() <= 100

    def test_bad_config(self):
        with pytest.raises(TraceError):
            SimConfig(seed=0, horizon=0)
        with pytest.raises(TraceError):
            SimConfig(seed=0, horizon=10, warmup=-1)


class TestAgainstClosedForms:
    def test_aloha_psi(self):
        psis = []
        for seed in range(3):
            tr = simulate_aloha(AlohaParams(0.5, 0.5),
                                SimConfig(seed=seed, horizon=2_000_000))
            psis.append(metrics.channel_cycle_time(tr).psi_slots)
        assert np.mean(psis) == pytest.approx(8.0, rel=0.02)

    def test_csma_psi_rtscts(self):
        tr = simulate_csma(TABLE, SimConfig(seed=31, horizon=4_000_000))
        got = metrics.channel_cycle_time(tr).psi_slots
        want = analytic.csma_cct(TABLE).psi_slots
        assert got == pytest.approx(want, rel=0.05)

    def test_csma_psi_basic(self):
        tr = simulate_csma(TABLE, SimConfig(seed=37, horizon=4_000_000),
                           CsmaMode.BASIC)
        got = metrics.channel_cycle_time(tr).psi_slots
        want = analytic.csma_cct(TABLE, mode=CsmaMode.BASIC).psi_slots
        assert got == pytest.approx(want, rel=0.05)

    def test_interleaving_statistics(self):
        tr = simulate_csma(TABLE, SimConfig(seed=41, horizon=4_000_000))
        rep = metrics.inter_transmission_report(tr)
        assert rep.pooled_pmf[0] == pytest.approx(0.32, abs=0.03)
        assert rep.mean == pytest.approx(1.0, abs=0.05)
