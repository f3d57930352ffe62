"""Simulators: determinism, structural validity, known degenerate behaviours,
agreement with closed forms, and the audit-log conservation identities."""
import hashlib
import io
import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from helpers import (aloha_cycle_pmf, nuser_trace, reference_aloha_trace,
                     reference_csma_counters)
from macfair import analytic, metrics, sim
from macfair.core import (
    _BLOCK,
    COLLISION_CODE,
    IDLE_CODE,
    SUCCESS_CODE,
    AlohaParams,
    ChannelTrace,
    CsmaMode,
    CsmaParams,
    EventKind,
    TraceError,
    collision,
    idle,
    success,
    validate_trace,
)
from macfair.sim import (
    BLOCK,
    COLLISION_OUTCOME,
    ContentionRounds,
    SimConfig,
    _backoff_stream,
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


@pytest.fixture(scope="module")
def long_aloha_trace():
    return simulate_aloha(AlohaParams(0.5, 0.5),
                          SimConfig(seed=11, horizon=2_000_000))


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

    @pytest.mark.parametrize("slot", [1, 3])
    @pytest.mark.parametrize("p_b", [0.0, 1.0, 0.5])
    @pytest.mark.parametrize("p_a", [0.0, 1.0, 0.5])
    def test_kind_follows_mask(self, p_a, p_b, slot):
        tr = simulate_aloha(AlohaParams(p_a, p_b, slot=slot),
                            SimConfig(seed=6, horizon=3000))
        by_mask = [IDLE_CODE, SUCCESS_CODE, SUCCESS_CODE, COLLISION_CODE]
        assert tr.kinds.dtype == np.int8
        assert tr.kinds.tolist() == [by_mask[m] for m in tr.masks.tolist()]

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


def _held_bytes(trace) -> int:
    """Bytes of the buffers a trace's stored columns keep alive, each
    counted once; `kinds` is derived on read, so it is not touched."""
    owners = {}
    for a in (trace.starts, trace.ends, trace.masks):
        owner = a if a.base is None else a.base
        owners[id(owner)] = owner.nbytes
    return sum(owners.values())


class TestAlohaMemory:
    """What a 1e6-slot Aloha run allocates, by tracemalloc.  The trace keeps
    one boundary buffer shared by starts and ends, and uint8 masks: 9 bytes
    an event plus the closing boundary.  With no warm-up every simulated
    event is kept, so nothing else may count."""

    SLOTS = 1_000_000

    def test_held_and_peak(self):
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            trace = simulate_aloha(AlohaParams(0.5, 0.5),
                                   SimConfig(seed=7, horizon=self.SLOTS,
                                             warmup=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _held_bytes(trace) <= 9 * len(trace) + 8
        assert "kinds" not in vars(trace)
        assert peak - base < 25 * self.SLOTS

    @pytest.mark.parametrize("n_slots", [3 * _BLOCK + 7, SLOTS])
    def test_draw_peak(self, n_slots):
        # The draws reuse one block's float64 buffer: a whole-array draw
        # would hold 8 bytes a slot of the row.
        rng, out = np.random.default_rng(7), np.empty(n_slots, bool)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            sim._draw_tx(rng, 0.5, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 8 * _BLOCK + 4096

    @staticmethod
    def _cycle_time_peak(trace) -> int:
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            metrics.channel_cycle_time(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - base

    def test_cycle_search_peak(self):
        # A cold call decodes the run ends block by block, with no array a
        # success long; the two-user rule slices the run end times and
        # builds no run-number array.
        trace = simulate_aloha(AlohaParams(0.5, 0.5),
                               SimConfig(seed=7, horizon=self.SLOTS, warmup=0))
        peak = self._cycle_time_peak(trace)
        assert peak < 14 * len(trace.success_index[0])

    def test_nuser_search_peak(self):
        # Five users take the next-run search: the run lists, `latest` and
        # each owner's starts and closes, as intp run numbers.
        trace = nuser_trace(7, 1_000_000, 5)
        peak = self._cycle_time_peak(trace)
        assert peak < 28 * len(trace.success_index[0])

    def test_throughput_peak(self):
        # At most an int64 length and a bool mask an event: the temporaries
        # of one pass over the whole trace.
        trace = simulate_aloha(AlohaParams(0.5, 0.5),
                               SimConfig(seed=7, horizon=self.SLOTS, warmup=0))
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            metrics.throughput(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 10 * len(trace)


class TestTraceFileMemory:
    """What writing and reading the 1e6-slot Aloha trace's file allocate,
    by tracemalloc.  Both directions work in blocks, so the writer's peak is
    flat in the trace's length and the reader's is its output columns."""

    SLOTS = 1_000_000

    @pytest.fixture(scope="class")
    def trace(self):
        return simulate_aloha(AlohaParams(0.5, 0.5),
                              SimConfig(seed=7, horizon=self.SLOTS, warmup=0))

    @staticmethod
    def _peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - base

    def test_write_peak(self, trace, tmp_path):
        assert self._peak(trace.to_file, tmp_path / "t.csv") < 3_000_000

    def test_write_peak_many_fields(self, tmp_path):
        # 20k distinct 83-byte users fields: the writer's columns must not
        # pile up over the blocks.
        users = tuple(f"{i:020d}" for i in range(63))
        masks = [sum(1 << b for b in c) for c in itertools.islice(
            itertools.combinations(range(63), 4), 20_000)]
        n = len(masks)
        trace = ChannelTrace(users, np.arange(n), np.arange(1, n + 1),
                             np.full(n, COLLISION_CODE), np.array(masks), n)
        assert self._peak(trace.to_file, tmp_path / "t.csv") < 3_000_000

    def test_read_peak(self, trace, tmp_path):
        path = tmp_path / "t.csv"
        trace.to_file(path)
        peak = self._peak(ChannelTrace.from_file, path)
        # The blocks' columns, 25 bytes an event, joined one column at a
        # time: at most one 8-byte column more.
        assert peak < 35 * len(trace)

    def test_read_peak_wide_fields(self, tmp_path):
        # 63 users with 200-character labels, every fourth event a collision
        # of all of them (a 12.6 KB users field): keys far wider than a slot
        # table stores must not widen its stored keys past one block.
        users = tuple(f"{i:02d}" + "L" * 198 for i in range(63))
        n = 400
        every = np.arange(n) % 4 == 3
        trace = ChannelTrace(users, np.arange(n), np.arange(1, n + 1),
                             np.where(every, COLLISION_CODE, SUCCESS_CODE),
                             np.where(every, 2**63 - 1,
                                      1 << (np.arange(n) % 63)), n)
        path = tmp_path / "t.csv"
        trace.to_file(path)
        size = path.stat().st_size
        assert size > 1_300_000
        assert self._peak(ChannelTrace.from_file, path) < 12 * size


class TestAlohaCycleLaw:
    """One user's whole cycle-time law in two-user Aloha, exact from
    `helpers.aloha_cycle_pmf`, against the closed form and the cycle search."""

    @pytest.mark.parametrize("p_a, p_b, mean, var", [
        (0.5, 0.5, 8.0, 24.0), (0.3, 0.6, 10.714, 64.40)])
    def test_moments(self, p_a, p_b, mean, var):
        pmf = aloha_cycle_pmf(p_a, p_b, 2000)
        n = np.arange(len(pmf))
        got_mean = n @ pmf
        got_var = (n - got_mean) ** 2 @ pmf
        s_a, s_b = p_a * (1 - p_b), p_b * (1 - p_a)
        s = s_a + s_b
        pi_a, pi_b = s_a / s, s_b / s
        e_k = 1 / (pi_a * pi_b)
        var_k = pi_b / pi_a ** 2 + pi_a / pi_b ** 2
        want = analytic.aloha_cct(AlohaParams(p_a, p_b)).psi_slots
        assert e_k / s == pytest.approx(want, rel=1e-12)
        assert got_mean == pytest.approx(want, rel=1e-12)
        assert got_var == pytest.approx(e_k * (1 - s) / s ** 2 + var_k / s ** 2,
                                        rel=1e-12)
        assert (round(got_mean, 3), round(got_var, 2)) == (mean, var)

    @pytest.mark.parametrize("p_a, p_b", [(0.5, 0.5), (0.3, 0.6)])
    def test_cycle_times_follow_the_law(self, p_a, p_b):
        # Chi-square GOF of each user's cycles at the 0.1% level; a user's
        # cycles are i.i.d. because hand-overs are regeneration points.
        trace = simulate_aloha(AlohaParams(p_a, p_b),
                               SimConfig(seed=11, horizon=2_000_000))
        pmf = aloha_cycle_pmf(p_a, p_b, 400)
        for user in trace.users:
            samples = metrics.cycle_times(trace, user)
            n = len(samples)
            # Bins 2..c and a tail above c: merge from the top until every
            # bin, the tail included, expects at least 5 cycles.
            c = len(pmf) - 1
            while n * (1 - pmf[:c + 1].sum()) < 5 or n * pmf[c] < 5:
                c -= 1
            expected = n * np.append(pmf[2:c + 1], 1 - pmf[:c + 1].sum())
            assert expected.min() >= 5
            observed = np.bincount(np.minimum(samples, c + 1))[2:]
            assert observed.sum() == n
            chi = scipy.stats.chisquare(observed, expected)
            assert chi.pvalue > 0.001, (user, chi)


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

    @pytest.mark.parametrize("trace_name", [
        pytest.param("long_csma_trace", marks=pytest.mark.xfail(
            strict=True, reason=(
                "the run of extra same-user successes is not memoryless: its "
                "continuation probability varies with run position (about "
                "0.35, 0.25, 0.23, 0.27, ... at the reference window) because "
                "the losing station carries its backoff counter across "
                "rounds.  The geometric law is a modelling idealisation whose "
                "mean is exact but whose shape a chi-square test over 1e5 "
                "cycles rejects decisively"))),
        # Aloha's success labels are i.i.d., so there the run is exactly
        # geometric: the CSMA/CA failure is not an artifact of the search.
        "long_aloha_trace",
    ])
    def test_extra_success_run_is_geometric(self, trace_name, request):
        # n_a' across cycles against a geometric law with parameter
        # P(N_I = 0); chi-square GOF at the 1% level.
        trace = request.getfixturevalue(trace_name)
        report = metrics.inter_transmission_report(trace)
        p0 = report.pooled_pmf[0]
        counts = np.concatenate([
            [p.n_a_prime for p in metrics.part_decomposition(trace, u)]
            for u in trace.users])
        assert len(counts) >= 1e5
        kmax = 6
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        probs = np.array([(1 - p0) * p0 ** k for k in range(kmax)] +
                         [p0 ** kmax])
        chi = scipy.stats.chisquare(observed, probs * observed.sum(), ddof=1)
        assert chi.pvalue > 0.01


def _sim_digest(trace, audit=None) -> str:
    # Masks widened to int64, so a pin follows the mask values and not the
    # narrow dtype they are stored in.
    arrays = [trace.starts, trace.ends, trace.kinds,
              trace.masks.astype(np.int64)]
    if audit is not None:
        arrays += [audit.t, audit.end, audit.outcome, audit.stage,
                   audit.counter, audit.fresh]
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestBackoffDraw:
    """The block draw must replay Generator.integers(1, cw + 1) exactly; a numpy
    release that changes its bounded-integer stream fails here first."""

    @staticmethod
    def _both(seed, windows, stages):
        """Draws at the given stages, reading stage 0 from the returned row
        as simulate_csma does, next to one Generator.integers call each."""
        draw = _backoff_stream(np.random.default_rng(seed), windows)
        ref = np.random.default_rng(seed)
        got = []
        c, pos, row0 = draw(stages[0], BLOCK)
        got.append(c)
        for stage in stages[1:]:
            c = row0[pos] if stage == 0 else 0
            if c:
                pos += windows[0] > 1
            else:
                c, pos, row0 = draw(stage, pos)
            got.append(c)
        return got, [int(ref.integers(1, windows[s] + 1)) for s in stages]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_windows(self, seed):
        windows = [1, 2, 3, 24, 32, 1024, 12345, 2**31 + 1, 2**32]
        pick = np.random.default_rng(1000 + seed)
        stages = pick.integers(0, len(windows), 3 * BLOCK + 5).tolist()
        got, want = self._both(seed, windows, stages)
        assert got == want

    HEAVY = [3, 12345, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]

    # Stage 0 reads the block's row; a retry stage maps word by word, and its
    # rejected words run across block ends too.
    @pytest.mark.parametrize("stage,cw", [
        *(pytest.param(0, cw, id=str(cw)) for cw in HEAVY),
        *(pytest.param(1, cw, id=f"retry-{cw}") for cw in HEAVY)])
    def test_rejection_heavy_windows(self, stage, cw):
        windows = [cw] if stage == 0 else [5, cw]
        got, want = self._both(7, windows, [stage] * (2 * BLOCK + 3))
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


class TestCsmaReference:
    """simulate_csma against tests/helpers.py::reference_csma_counters, which
    makes one Generator.integers call per backoff: the same counters, and so
    the same trace, whatever the windows and the rejection rate."""

    SETTINGS = [(cw_min, beta) for cw_min in (1, 3, 24, 32) for beta in (0, 5)]
    SETTINGS += [(1, 10),
                 (3 * 2**29, 1),  # rejects a quarter of the words at each stage
                 (2**27, 5)]      # top window 2**32

    @pytest.mark.parametrize("mode", list(CsmaMode))
    @pytest.mark.parametrize("cw_min,beta", SETTINGS)
    def test_counters_and_trace(self, cw_min, beta, mode):
        params = CsmaParams(cw_min=cw_min, beta=beta, l_difs=2, l_pkt=5)
        succ, coll = params.busy_slots(mode)
        # About 8 * BLOCK rounds, half of them won by each user.
        horizon = 8 * BLOCK * (params.l_difs + succ + cw_min // 3 + 1)
        config = SimConfig(seed=11, horizon=horizon)
        counters = reference_csma_counters(params, config, mode)
        trace, audit = simulate_csma(params, config, mode, audit=True)
        # Each round is an idle event then a busy one; the window keeps the
        # events, and the audit the rounds, lying wholly inside it.
        users = config.users
        events, kept, t = [], [], -config.warmup
        for k, (a, b) in enumerate(counters.tolist()):
            busy = t + params.l_difs + min(a, b)
            end = busy + (coll if a == b else succ)
            if t >= 0 and busy <= horizon:
                events.append(idle(t, busy))
            if busy >= 0 and end <= horizon:
                events.append(collision(busy, end, users) if a == b
                              else success(busy, end, users[int(b < a)]))
            if t >= 0 and end <= horizon:
                kept.append(k)
            t = end
        want = ChannelTrace.from_events(users, events, horizon)
        assert _sim_digest(trace) == _sim_digest(want)
        np.testing.assert_array_equal(audit.counter, counters[kept])
        # A draw from a window above 1 spends at least one word.  A window of
        # 1 spends none, and from cw_min 1 the users settle into rounds that
        # draw only from it, so those settings cross no block.
        if cw_min > 1:
            windows = np.array([params.cw(s) for s in range(beta + 1)])
            spent = np.sum(audit.fresh & (windows[audit.stage] > 1), axis=0)
            assert spent.min() >= 3 * BLOCK

    @pytest.mark.parametrize("beta", [5, 10])
    def test_unit_window_many_seeds(self, beta):
        """From cw_min 1 words are spent only until the users settle, and a
        collision right after a draw from the window of 1 comes in about one
        seed in twenty: many short runs from tick 0."""
        params = CsmaParams(cw_min=1, beta=beta, l_difs=2, l_pkt=5)
        for seed in range(60):
            config = SimConfig(seed=seed, horizon=3000, warmup=0)
            counters = reference_csma_counters(params, config, CsmaMode.BASIC)
            _, audit = simulate_csma(params, config, CsmaMode.BASIC, audit=True)
            np.testing.assert_array_equal(audit.counter,
                                          counters[:len(audit)])


class TestSharedRounds:
    """One ContentionRounds serving both modes gives each call the trace and
    audit of a call on its own, and holds the reference counters: the rounds
    are drawn once and only timed per mode."""

    ORDERS = [(CsmaMode.RTS_CTS, CsmaMode.BASIC),
              (CsmaMode.BASIC, CsmaMode.RTS_CTS)]

    @pytest.mark.parametrize("second", ["longer", "shorter"])
    @pytest.mark.parametrize("modes", ORDERS, ids=["rtscts-first",
                                                   "basic-first"])
    @pytest.mark.parametrize("cw_min,beta", TestCsmaReference.SETTINGS)
    def test_both_modes_from_one_chain(self, cw_min, beta, modes, second):
        params = CsmaParams(cw_min=cw_min, beta=beta, l_difs=2, l_pkt=5)
        # About 3 * BLOCK rounds first, so the second call resumes, or
        # stops, inside a block; the warm-ups differ between the calls.
        horizon = 3 * BLOCK * (params.l_difs + 12 + cw_min // 3 + 1)
        configs = [SimConfig(seed=11, horizon=horizon, warmup=500),
                   SimConfig(seed=11, horizon=horizon * 2 if second == "longer"
                             else horizon // 2, warmup=37)]
        rounds = ContentionRounds(params, configs[0])
        drawn = []
        for mode, config in zip(modes, configs):
            got = simulate_csma(params, config, mode, audit=True,
                                rounds=rounds)
            alone = simulate_csma(params, config, mode, audit=True)
            assert _sim_digest(*got) == _sim_digest(*alone)
            want = reference_csma_counters(params, config, mode)
            np.testing.assert_array_equal(rounds.counter.T[:len(want)], want)
            drawn.append(len(want))
        # The second call draws more rounds only when it needs them, and
        # then by the mean round so far, so few are drawn past the longer
        # call's.
        assert max(drawn) <= rounds.counter.shape[1] <= max(drawn) * 1.02 + 1
        assert (drawn[1] > drawn[0]) == (second == "longer")

    @pytest.mark.parametrize("first", [None, "shorter", "longer"])
    @pytest.mark.parametrize("mode", [CsmaMode.RTS_CTS, CsmaMode.BASIC])
    def test_upto_times_each_round(self, mode, first):
        # upto's busy lengths and end ticks are the scalar loop's, whether it
        # draws from scratch, counts off rounds drawn for the other mode's
        # longer cutoff, or resumes past the other mode's shorter one.
        params = CsmaParams(cw_min=8, beta=3, l_difs=2, l_pkt=5, l_rts=3)
        cutoff = 3 * BLOCK * 10 + 7

        def reference(mode, cutoff):
            counters = reference_csma_counters(
                params, SimConfig(seed=11, horizon=cutoff, warmup=0), mode)
            succ, coll = params.busy_slots(mode)
            busy = [coll if c0 == c1 else succ for c0, c1 in counters]
            ends = list(itertools.accumulate(
                params.l_difs + min(c) + b for c, b in zip(counters, busy)))
            return counters, busy, ends

        config = SimConfig(seed=11, horizon=cutoff)
        rounds = ContentionRounds(params, config)
        want = reference(mode, cutoff)
        drawn = want[0]
        if first is not None:
            other = (CsmaMode.BASIC if mode is CsmaMode.RTS_CTS
                     else CsmaMode.RTS_CTS)
            first_cutoff = cutoff // 2 if first == "shorter" else cutoff * 2
            rounds.upto(params, other, first_cutoff)
            other_drawn = reference(other, first_cutoff)[0]
            # A longer first call leaves rounds to count off; a shorter one
            # leaves the loop to resume.
            assert (len(other_drawn) > len(drawn)) == (first == "longer")
            drawn = max(drawn, other_drawn, key=len)
        counter, busy, ends = rounds.upto(params, mode, cutoff)
        np.testing.assert_array_equal(counter.T, want[0])
        np.testing.assert_array_equal(busy, want[1])
        np.testing.assert_array_equal(ends, want[2])
        assert ends[-1] >= cutoff
        assert ends[-1] - busy[-1] - params.l_difs - counter[:, -1].min() \
            < cutoff
        fresh = ContentionRounds(params, config).upto(params, mode, cutoff)
        for got, alone in zip((counter, busy, ends), fresh):
            np.testing.assert_array_equal(got, alone)
        held = rounds.counter.T
        np.testing.assert_array_equal(held[:len(drawn)], drawn)
        assert len(held) <= len(drawn) * 1.02 + 1

    def test_chain_of_another_run_rejected(self):
        params = CsmaParams(cw_min=8, beta=3, l_difs=2, l_pkt=5)
        config = SimConfig(seed=4, horizon=2000)
        rounds = ContentionRounds(params, config)
        for other_params, other_config in [
                (params, SimConfig(seed=5, horizon=2000)),
                (params, SimConfig(seed=4, horizon=2000, users=("A", "C"))),
                (CsmaParams(cw_min=16, beta=3, l_difs=2, l_pkt=5), config),
                (CsmaParams(cw_min=8, beta=4, l_difs=2, l_pkt=5), config)]:
            with pytest.raises(TraceError, match="contention rounds drawn "
                               "for another seed, users or window schedule"):
                simulate_csma(other_params, other_config, rounds=rounds)
        assert len(rounds.counter[0]) == 0
        # Timings, the mode and the window are not part of the rounds.
        other = CsmaParams(cw_min=8, beta=3, l_difs=7, l_pkt=50, l_rts=3)
        simulate_csma(other, SimConfig(seed=4, horizon=900, warmup=0),
                      CsmaMode.BASIC, rounds=rounds)

    @pytest.mark.parametrize("cw_min,beta", [(2**31, 1), (2**32, 0)])
    def test_counters_beyond_31_bits(self, cw_min, beta):
        # Windows up to 2**32 give counters past int32's range, which the
        # packed records must keep; the second call resumes the chain.
        params = CsmaParams(cw_min=cw_min, beta=beta, l_difs=2, l_pkt=5)
        rounds = ContentionRounds(params, SimConfig(seed=5, horizon=1))
        held = []
        for horizon in (300 * cw_min, 900 * cw_min):
            config = SimConfig(seed=5, horizon=horizon, warmup=0)
            simulate_csma(params, config, CsmaMode.BASIC, rounds=rounds)
            want = reference_csma_counters(params, config, CsmaMode.BASIC)
            np.testing.assert_array_equal(rounds.counter.T[:len(want)], want)
            held.append(rounds.counter.shape[1])
        assert held[0] < held[1]
        if cw_min == 2**32:
            assert rounds.counter.max() > 2**31
        assert rounds.counter.max() <= params.cw_max

    def test_window_beyond_32_bits_message(self):
        params = CsmaParams(cw_min=3, beta=31, l_difs=1, l_pkt=1)
        config = SimConfig(seed=0, horizon=100)
        message = (f"cw_max={params.cw_max} above 2**32 is not supported by "
                   "the CSMA/CA simulator")
        rounds = ContentionRounds(CsmaParams(cw_min=3, beta=2, l_difs=1,
                                             l_pkt=1), config)
        for build in (lambda: simulate_csma(params, config),
                      lambda: simulate_csma(params, config, rounds=rounds),
                      lambda: ContentionRounds(params, config)):
            with pytest.raises(TraceError) as exc:
                build()
            assert str(exc.value) == message


class TestRecordPacking:
    """`sim._int64_rows`, which packs the round loop's Python-int records."""

    def test_values(self):
        rows = [[0, 1, 2**31, 2**32, 2**63 - 1], [-1, -2**63, 5, 7, 2**31 - 1]]
        got = sim._int64_rows(rows)
        assert got.dtype == np.int64
        assert got.tolist() == rows

    @pytest.mark.parametrize("n", [3 * _BLOCK + 7, 1_000_000])
    def test_peak(self, n):
        # Besides the result, packing holds one block's argument list and
        # tuple, 8 bytes an int each; a whole-list pack would hold 16 bytes
        # a record.  Small ints are cached, so the rows allocate nothing
        # more.
        rows = [[i % 200 for i in range(n)], [i % 199 for i in range(n)]]
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            out = sim._int64_rows(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base - out.nbytes < 16 * _BLOCK + 4096
        np.testing.assert_array_equal(out, np.array(rows, np.int64))


class TestAlohaPinned:
    """Digests of Aloha traces for a fixed seed, with warm-ups on and off the
    slot grid: any drift in the seed-to-trace mapping fails here."""

    PINNED = {
        (0.5, 0.5, 1, 0):
            "b6dc9b2caa62197325e05079bfbf646321b8e4e9097f80df23292fdecf8bd651",
        (0.5, 0.5, 1, 1000):
            "e48d8f237ff9ee6d1a4d727e99c46bb7de1e5cedf0e28245e54647645c3ea144",
        (0.5, 0.5, 1, 1001):
            "49b74e4cc9b6a4ff723d81322503d9b84b8e47cba4485f33df7d6621cba354e1",
        (0.5, 0.5, 3, 0):
            "4aaeb0101a59e811271d400d38c7c58f7399b8b9adde9c41fd97846a95331a44",
        (0.5, 0.5, 3, 1000):
            "6b41aa94156273fa2ca35a44197c4dc3af8f8f378ba5dbb48f47dc3e5dafb37d",
        (0.5, 0.5, 3, 1001):
            "3e10d2b9f62cfb32037a4407d8adad2b19ad2005fb7351ebc89e26d702bc462d",
        (0.2, 0.8, 1, 0):
            "d4df5c22689f0bf19f452d847e5c2aa37e84d20526900663c0d7bd0a74669aec",
        (0.2, 0.8, 1, 1000):
            "f4981c1bdbeb1733c66963c6be7709bf2b079a7d839e6716a5c1bdd49260f8dd",
        (0.2, 0.8, 1, 1001):
            "d32fbba589eef020c0ebabfdec80f4d96b0d700807fb4046410827b6dca549bd",
        (0.2, 0.8, 3, 0):
            "7c24c1441e72973542a1278d3dcc3f67009f8e863616899070e95f8b8029fc7a",
        (0.2, 0.8, 3, 1000):
            "7405019b1264bf9c8f25622395ff4f25cbcdf2f7c50b6e234fec5fdaeca29a88",
        (0.2, 0.8, 3, 1001):
            "67b4e6e035a9206f3d51e8bda423a191ed999ffce62d8ec67c1793a8278bbc72",
    }

    @pytest.mark.parametrize("p_a,p_b,slot,warmup", list(PINNED))
    def test_digest(self, p_a, p_b, slot, warmup):
        trace = simulate_aloha(AlohaParams(p_a, p_b, slot=slot),
                               SimConfig(seed=7, horizon=20_000, warmup=warmup))
        assert _sim_digest(trace) == self.PINNED[p_a, p_b, slot, warmup]


class TestAlohaLanes:
    """Each user's slots are drawn in turn, in blocks of `core._BLOCK`
    through one reused buffer: the trace is the whole-array draw's of
    `helpers.reference_aloha_trace`, at every length around the blocks."""

    @pytest.mark.parametrize("p_a,p_b", [(0.5, 0.5), (0.2, 0.8), (0, 1)])
    @pytest.mark.parametrize("n_slots,slot,warmup", [
        (n, slot, warmup)
        for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)
        for slot in (1, 3) for warmup in (0, 1000, 1001)
        if n * slot > warmup])  # a run of one slot has no room for warm-up
    def test_matches_whole_array_draw(self, n_slots, slot, warmup, p_a, p_b):
        horizon = n_slots * slot - warmup
        params = AlohaParams(p_a, p_b, slot=slot)
        config = SimConfig(seed=13, horizon=horizon, warmup=warmup)
        trace = simulate_aloha(params, config)
        assert _sim_digest(trace) == \
            _sim_digest(reference_aloha_trace(params, config))

    # Computed with one whole-array draw per user, before the draws were
    # taken in blocks: 4.6 and 2.0 blocks of slots.
    PINNED = {
        (0.5, 0.5, 1, 1000):
            "e97850ba5e4c3c8c2de48fb63a6d30b748c86b889cc4a00dde2786a332fcf26b",
        (0.2, 0.8, 3, 1001):
            "e4db43cb384f66849eb01de021f20968510a8f03aa9f74711c7c25948c03830b",
    }

    @pytest.mark.parametrize("p_a,p_b,slot,warmup", list(PINNED))
    def test_digest_over_blocks(self, p_a, p_b, slot, warmup):
        trace = simulate_aloha(AlohaParams(p_a, p_b, slot=slot),
                               SimConfig(seed=7, horizon=400_000,
                                         warmup=warmup))
        assert _sim_digest(trace) == self.PINNED[p_a, p_b, slot, warmup]

    def test_no_thread_at_import(self):
        # Importing starts no thread, and a run of several blocks leaves
        # none behind.
        code = ("import threading, macfair, macfair.cli\n"
                "assert threading.active_count() == 1, threading.enumerate()\n"
                "macfair.simulate_aloha(macfair.AlohaParams(0.5, 0.5),\n"
                "    macfair.SimConfig(seed=1, horizon=3 * 65536 + 7))\n"
                "assert threading.active_count() == 1, threading.enumerate()\n")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr


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
            parts = reconstruct_parts(tr, audit, TABLE, mode, user)
            assert len(parts) > 1000
            assert parts == metrics.part_decomposition(tr, user)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_modes_share_the_round_structure(self, seed):
        # Mode and packet length only time the rounds: from tick 0 the two
        # modes' audits hold the same counters, up to the shorter one.
        for params in (TABLE, CsmaParams(cw_min=4, beta=3, l_difs=1,
                                         l_pkt=60, l_rts=5)):
            config = SimConfig(seed=seed, horizon=50_000, warmup=0)
            counters = [simulate_csma(params, config, mode, audit=True)[1]
                        .counter for mode in (CsmaMode.RTS_CTS, CsmaMode.BASIC)]
            n = min(map(len, counters))
            assert n > 100
            np.testing.assert_array_equal(counters[0][:n], counters[1][:n])

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

    SIMS = {
        "aloha": lambda cfg: simulate_aloha(AlohaParams(0.5, 0.5, slot=30), cfg),
        "csma": lambda cfg: simulate_csma(TABLE, cfg),
        "tdma": lambda cfg: simulate_tdma([30, 30], cfg),
    }

    @pytest.mark.parametrize("warmup", [0, 5, 1000])
    @pytest.mark.parametrize("sim", list(SIMS))
    def test_horizon_shorter_than_one_event(self, sim, warmup):
        # Every event these simulators emit is longer than 4 ticks.
        tr = self.SIMS[sim](SimConfig(seed=1, horizon=4, warmup=warmup))
        validate_trace(tr)
        assert len(tr) == 0 and tr.horizon == 4
        for a in (tr.starts, tr.ends, tr.kinds, tr.masks):
            assert a.shape == (0,)

    def test_short_horizon_empty_audit(self):
        tr, audit = simulate_csma(TABLE, SimConfig(seed=1, horizon=4, warmup=7),
                                  audit=True)
        assert len(tr) == 0 and len(audit) == 0
        assert audit.counter.shape == audit.stage.shape == (0, 2)

    def test_aloha_straddlers_dropped_off_grid(self):
        # warmup 1001 and warmup + horizon 1102 both fall inside a 3-tick
        # slot; with p = 1 every slot is its own Collision event, so the kept
        # events are exactly the slots [1002, 1005), ..., [1098, 1101).
        cfg = SimConfig(seed=0, horizon=101, warmup=1001)
        tr = simulate_aloha(AlohaParams(1.0, 1.0, slot=3), cfg)
        validate_trace(tr)
        assert tr.starts.tolist() == list(range(1, 98, 3))
        assert tr.ends.tolist() == list(range(4, 101, 3))

    @pytest.mark.parametrize("sim", list(SIMS))
    def test_starts_ends_read_only(self, sim):
        tr = self.SIMS[sim](SimConfig(seed=2, horizon=5000, warmup=7))
        assert len(tr) > 0
        assert np.shares_memory(tr.starts, tr.ends)
        for a in (tr.starts, tr.ends, tr.kinds, tr.masks):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1

    def test_bad_config(self):
        with pytest.raises(TraceError):
            SimConfig(seed=0, horizon=0)
        with pytest.raises(TraceError):
            SimConfig(seed=0, horizon=10, warmup=-1)
        with pytest.raises(TraceError, match="seed must be non-negative"):
            SimConfig(seed=-1, horizon=10)


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
