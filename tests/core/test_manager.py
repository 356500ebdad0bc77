import pytest

from repro.core import (
    Element,
    LoopProfile,
    LoopRuntime,
    MemoTable,
    QoSModel,
    RSkipConfig,
    RskipRuntime,
    SkipStats,
)
from repro.core.memoization import InputQuantizer
from repro.core.protocol import CkptLoopRuntime
from repro.runtime.errors import CoreDumpError


NAN = float("nan")


def make_runtime(ar=1.0, tp=0.5, rmw=False, profile=None, **cfg_kwargs):
    config = RSkipConfig(acceptable_range=ar, tuning_parameter=tp, **cfg_kwargs)
    return LoopRuntime("test:loop", config, profile, rmw=rmw)


def observe_series(runtime, values, addr_base=100):
    """Feed a value series; returns the total pending-queue growth."""
    runtime.enter()
    for i, v in enumerate(values):
        runtime.observe(Element(i, v, addr_base + i))
    runtime.flush()


class TestObservationPath:
    def test_linear_series_skips_interior(self):
        runtime = make_runtime()
        observe_series(runtime, [2.0 * i for i in range(20)])
        stats = runtime.stats
        assert stats.elements == 20
        assert stats.skipped_interp == 18
        assert len(runtime.queue) == 2  # the endpoints await re-computation

    def test_charges_returned(self):
        runtime = make_runtime()
        runtime.enter()
        _, charge = runtime.observe(Element(0, 1.0, 100))
        assert charge  # bookkeeping is never free

    def test_trend_break_produces_phases(self):
        runtime = make_runtime(tp=0.1)
        values = [float(i) for i in range(10)] + [50.0 - i for i in range(10)]
        observe_series(runtime, values)
        assert runtime.stats.phases >= 2

    def test_outlier_goes_to_queue(self):
        runtime = make_runtime(ar=0.05, tp=30.0)
        values = [float(i) for i in range(20)]
        values[10] = 9.0  # small dent: within TP 30 trend, outside AR 5%
        observe_series(runtime, values)
        queued = {e.index for e in runtime.queue}
        assert 10 in queued
        assert runtime.stats.interp_mispredictions >= 1


class TestRecomputeDrain:
    def drain_all(self, runtime, recompute_fn):
        fixed = {}
        while True:
            idx, _ = runtime.fetch()
            if idx < 0:
                break
            rv = recompute_fn(idx)
            value, _ = runtime.resolve(rv)
            need2, _ = runtime.need2()
            if need2:
                value, _ = runtime.resolve2(recompute_fn(idx))
            addr, _ = runtime.addr()
            fixed[idx] = (value, addr)
        return fixed

    def test_matching_recompute_confirms(self):
        runtime = make_runtime()
        observe_series(runtime, [2.0 * i for i in range(10)])
        fixed = self.drain_all(runtime, lambda i: 2.0 * i)
        assert set(fixed) == {0, 9}
        assert fixed[0] == (0.0, 100)
        assert runtime.stats.recompute_mismatches == 0

    def test_corrupted_original_is_voted_out(self):
        runtime = make_runtime(ar=0.1, tp=30.0)
        clean = [2.0 * i for i in range(10)]
        corrupted = list(clean)
        corrupted[9] = 999.0  # endpoint corrupted in the master copy
        observe_series(runtime, corrupted)
        fixed = self.drain_all(runtime, lambda i: clean[i])
        assert fixed[9][0] == clean[9]
        assert runtime.stats.corrected_master == 1
        assert runtime.stats.recompute_mismatches == 1

    def test_corrupted_redundant_copy_keeps_original(self):
        runtime = make_runtime()
        clean = [2.0 * i for i in range(10)]
        observe_series(runtime, clean)
        calls = {"n": 0}

        def recompute(i):
            calls["n"] += 1
            if calls["n"] == 1:
                return -1.0  # the first re-computation was itself corrupted
            return clean[i]

        fixed = self.drain_all(runtime, recompute)
        assert fixed[0][0] == clean[0]
        assert runtime.stats.corrected_shadow == 1

    @pytest.mark.parametrize("family", ["rskip", "ckpt"])
    @pytest.mark.parametrize("value,rv1,rv2,verdict", [
        (1.0, NAN, NAN, "corrected_master"),
        (NAN, 2.0, NAN, "corrected_shadow"),
    ])
    def test_vote_treats_nan_as_equal_to_itself(self, family, value, rv1,
                                                rv2, verdict):
        """Two agreeing NaN evaluations win the vote in both families."""
        if family == "rskip":
            runtime = make_runtime()
        else:
            runtime = CkptLoopRuntime("test:loop", 8)
        runtime.enter()
        runtime.current = Element(0, value, 8)
        runtime.resolve(rv1)
        assert runtime.need2()[0] == 1
        runtime.resolve2(rv2)
        stats = runtime.stats
        counts = (stats.corrected_master, stats.corrected_shadow,
                  stats.unresolved_votes)
        expected = tuple(int(name == verdict) for name in (
            "corrected_master", "corrected_shadow", "unresolved_votes"))
        assert counts == expected

    def test_fetch_without_queue(self):
        runtime = make_runtime()
        runtime.enter()
        idx, _ = runtime.fetch()
        assert idx == -1
        # a read before any fetch only happens under a fault: the trial
        # ends as a core dump instead of aborting the campaign
        with pytest.raises(CoreDumpError):
            runtime.orig()


class TestMemoIntegration:
    def make_memo(self):
        return MemoTable(
            [InputQuantizer([5.0])],
            [1],
            {(0,): 1.0, (1,): 10.0},
        )

    def test_memo_validates_endpoints(self):
        profile = LoopProfile(memo=self.make_memo())
        runtime = make_runtime(ar=0.2, profile=profile)
        runtime.enter()
        for i in range(10):
            runtime.observe(Element(i, 1.0 + 0.01 * i, 100 + i, args=(2.0,)))
        runtime.flush()
        # endpoints predicted ~1.0 by the table and within AR20 -> skipped
        assert runtime.stats.skipped_memo == 2
        assert len(runtime.queue) == 0

    def test_memo_miss_falls_back_to_recompute(self):
        profile = LoopProfile(memo=self.make_memo())
        runtime = make_runtime(ar=0.2, profile=profile)
        runtime.enter()
        for i in range(10):
            # memo predicts 10.0, actual ~60: outside AR -> recompute
            runtime.observe(Element(i, 60.0 + i, 100 + i, args=(7.0,)))
        runtime.flush()
        assert runtime.stats.memo_mispredictions >= 1
        assert len(runtime.queue) >= 1

    def test_memo_disabled_without_args(self):
        profile = LoopProfile(memo=self.make_memo())
        runtime = make_runtime(ar=0.2, profile=profile)
        observe_series(runtime, [1.0] * 10)  # no args recorded
        assert runtime.stats.skipped_memo == 0


class TestRunTimeManagement:
    def test_tp_adjustment_follows_qos(self):
        qos = QoSModel({}, default_tp=0.5)
        # every signature maps to a big TP
        profile = LoopProfile(qos=QoSModel({}, 0.5), default_tp=0.5)
        runtime = make_runtime(profile=profile, window=8)
        sig_tp = 9.9
        runtime.profile.qos.table = {s: sig_tp for s in _all_signatures(runtime)}
        runtime.enter()
        for i in range(30):
            runtime.observe(Element(i, float(i % 4), 100 + i))
        assert runtime.stats.tp_adjustments >= 1
        assert runtime.slicer.tp == sig_tp

    def test_select_and_disable(self):
        runtime = make_runtime()
        assert runtime.select() == 1
        runtime.disabled = True
        assert runtime.select() == 0
        assert runtime.stats.executions_pp == 1
        assert runtime.stats.executions_cp == 1

    def test_exit_disables_useless_interpolation(self):
        runtime = make_runtime(ar=0.0001, tp=0.01, window=4)
        # wildly alternating outputs: nothing is ever skipped
        observe_series(runtime, [(-1.0) ** i * (1 + i) for i in range(64)])
        runtime.queue.clear()
        runtime.exit()
        assert runtime.disabled

    def test_exit_disables_bad_memo(self):
        memo = MemoTable([InputQuantizer([5.0])], [1], {(0,): -99.0, (1,): -99.0})
        profile = LoopProfile(memo=memo)
        runtime = make_runtime(ar=0.01, tp=0.01, profile=profile)
        runtime.enter()
        for i in range(80):
            runtime.observe(Element(i, float(i * i % 37), 100 + i, args=(1.0,)))
        runtime.flush()
        runtime.queue.clear()
        runtime.exit()
        assert not runtime.memo_active

    def test_recording_mode(self):
        runtime = make_runtime()
        runtime.recording = []
        runtime.enter()
        runtime.observe(Element(0, 1.0, 100))
        runtime.enter()
        runtime.observe(Element(0, 2.0, 100))
        assert len(runtime.recording) == 2
        assert runtime.recording[0][0].value == 1.0
        assert runtime.recording[1][0].value == 2.0


class TestLifecycle:
    def make_dirty_runtime(self):
        """A runtime with every piece of mutable state visibly perturbed."""
        memo = MemoTable([InputQuantizer([5.0])], [1], {(0,): 1.0, (1,): 10.0})
        profile = LoopProfile(memo=memo, default_tp=0.25)
        runtime = make_runtime(ar=0.2, profile=profile, window=4)
        runtime.enter()
        for i in range(40):
            runtime.observe(Element(i, float(i % 7), 100 + i, args=(2.0,)))
        runtime.flush()
        runtime.exit()
        runtime.slicer.set_tp(9.9)
        runtime.disabled = True
        runtime.memo_active = False
        runtime.signatures.append("123")
        return runtime, profile

    def test_reset_restores_constructed_state(self):
        runtime, profile = self.make_dirty_runtime()
        runtime.reset()
        fresh = LoopRuntime(runtime.key, runtime.config, profile)
        assert runtime.stats == fresh.stats == SkipStats()
        assert runtime.slicer.tp == fresh.slicer.tp == 0.25
        assert len(runtime.slicer) == 0
        assert runtime.payloads == [] and not runtime.queue
        assert runtime.current is None
        assert runtime.disabled is False
        assert runtime.memo_active is True
        assert runtime.signatures == []
        assert runtime.recording is None
        assert runtime.stats.memo_lookups == 0

    def test_reset_isolates_runs(self):
        """Two identical runs after reset produce identical stats — nothing
        carries over from a previous (possibly fault-corrupted) run."""
        series = [float(i % 5) for i in range(30)]
        runtime, _ = self.make_dirty_runtime()
        runtime.reset()
        observe_series(runtime, series)
        first = runtime.stats.copy()
        runtime.reset()
        observe_series(runtime, series)
        assert runtime.stats == first

    def test_stats_copy_and_delta(self):
        s = SkipStats(elements=10, skipped_interp=4, recompute_mismatches=1)
        snap = s.copy()
        assert snap == s and snap is not s
        s.merge(SkipStats(elements=5, skipped_interp=2, recompute_mismatches=2))
        d = s.delta(snap)
        assert d.elements == 5
        assert d.skipped_interp == 2
        assert d.recompute_mismatches == 2

    def test_registry_reset_and_delta(self):
        registry = RskipRuntime(RSkipConfig())
        r0 = registry.add_loop(0, "a")
        observe_series(r0, [1.0 * i for i in range(10)])
        snap = registry.total_stats()
        observe_series(r0, [1.0 * i for i in range(6)])
        assert registry.stats_delta(snap).elements == 6
        registry.reset()
        assert registry.total_stats() == SkipStats()


class TestWindowedQoS:
    def test_long_good_history_does_not_mask_dead_predictor(self):
        """Once the recent executions show a useless predictor, it is
        disabled even though whole-life counters still look healthy."""
        runtime = make_runtime(ar=0.2, tp=0.5, window=4)
        good = [2.0 * i for i in range(64)]
        bad = [(-1.0) ** i * (1 + i) for i in range(64)]
        for _ in range(4):  # a long profitable history
            observe_series(runtime, good)
            runtime.queue.clear()
            runtime.exit()
        assert not runtime.disabled
        for _ in range(8):  # the predictor stops working for good
            observe_series(runtime, bad)
            runtime.queue.clear()
            runtime.exit()
        # cumulative skip rate is still far above the threshold...
        assert runtime.stats.skip_rate > runtime.config.interp_min_skip
        # ...but the recent window sees a dead predictor
        assert runtime.disabled

    def test_bad_warmup_does_not_condemn_settled_predictor(self):
        runtime = make_runtime(
            ar=0.2, tp=0.5, window=4, interp_min_skip=0.5
        )
        bad = [(-1.0) ** i * (1 + i) for i in range(64)]
        good = [2.0 * i for i in range(64)]
        observe_series(runtime, bad * 16)  # one long hostile warm-up run
        runtime.queue.clear()
        for _ in range(8):
            observe_series(runtime, good)
            runtime.queue.clear()
            runtime.exit()
        # cumulative skip rate sits below the threshold, the recent
        # executions above it: the settled predictor stays enabled
        assert runtime.stats.skip_rate < runtime.config.interp_min_skip
        assert not runtime.disabled


class TestStatsAndRegistry:
    def test_stats_merge(self):
        a = SkipStats(elements=10, skipped_interp=5)
        b = SkipStats(elements=6, skipped_memo=2)
        a.merge(b)
        assert a.elements == 16
        assert a.skipped == 7

    def test_skip_rate(self):
        s = SkipStats(elements=10, skipped_interp=6, skipped_memo=2)
        assert s.skip_rate == pytest.approx(0.8)
        assert SkipStats().skip_rate == 0.0

    def test_runtime_registry_and_totals(self):
        registry = RskipRuntime(RSkipConfig())
        r0 = registry.add_loop(0, "a")
        r1 = registry.add_loop(1, "b")
        observe_series(r0, [1.0 * i for i in range(10)])
        observe_series(r1, [2.0 * i for i in range(6)])
        total = registry.total_stats()
        assert total.elements == 16
        assert registry.loop(0) is r0

    def test_intrinsic_table_roundtrip(self):
        registry = RskipRuntime(RSkipConfig())
        registry.add_loop(0, "a")
        table = registry.intrinsics()
        table["rskip.enter"](None, (0,))
        pend, charge = table["rskip.observe"](None, (0, 0, 1.0, 100))
        assert pend == 0
        idx, _ = table["rskip.fetch"](None, (0,))
        assert idx == -1


class TestFork:
    """``RskipRuntime.fork`` gives each batch lane its own runtime."""

    SERIES = [float(i % 7) for i in range(40)]

    def build(self, profile):
        registry = RskipRuntime(RSkipConfig())
        registry.add_loop(3, "a", profile,
                          config=RSkipConfig(acceptable_range=0.2, window=4),
                          rmw=True)
        registry.add_loop(7, "b")
        return registry

    def profile(self):
        memo = MemoTable([InputQuantizer([5.0])], [1], {(0,): 1.0, (1,): 10.0})
        return LoopProfile(memo=memo, default_tp=0.25)

    def drive(self, registry):
        for runtime in registry.loops.values():
            observe_series(runtime, self.SERIES)
            runtime.exit()
        return registry.total_stats()

    def test_fork_of_used_runtime_behaves_like_fresh_build(self):
        profile = self.profile()
        source = self.build(profile)
        self.drive(source)
        source.loop(3).disabled = True
        source.loop(7).slicer.set_tp(9.9)
        fork = source.fork()
        fresh = self.build(profile)
        assert sorted(fork.loops) == [3, 7]
        for ctx_id, loop in fork.loops.items():
            built = fresh.loop(ctx_id)
            assert (loop.key, loop.config, loop.rmw) == (
                built.key, built.config, built.rmw)
            assert loop.slicer.tp == built.slicer.tp
            assert not loop.disabled
        assert fork.total_stats() == SkipStats()
        assert self.drive(fork) == self.drive(fresh) != SkipStats()

    def test_forks_share_no_mutable_state(self):
        source = self.build(self.profile())
        first, second = source.fork(), source.fork()
        self.drive(first)
        assert first.total_stats() != SkipStats()
        assert source.total_stats() == second.total_stats() == SkipStats()
        self.drive(source)
        assert second.total_stats() == SkipStats()
        for ctx_id, loop in first.loops.items():
            for other in (source.loop(ctx_id), second.loop(ctx_id)):
                assert loop is not other
                assert loop.queue is not other.queue
                assert loop.slicer is not other.slicer
                assert loop.stats is not other.stats

    def test_forks_share_profiles(self):
        profile = self.profile()
        source = self.build(profile)
        fork = source.fork()
        assert fork.loop(3).profile is profile
        assert fork.loop(7).profile is source.loop(7).profile


def _all_signatures(runtime):
    """Enumerate plausible signatures for the configured bins."""
    import itertools

    nbins = len(runtime.config.signature_bins) + 1
    return {
        "".join(str(d + 1) for d in perm)
        for perm in itertools.permutations(range(nbins))
    }
