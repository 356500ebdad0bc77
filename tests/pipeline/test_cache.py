"""The fingerprint-keyed artifact cache: LRU + disk tiers, byte-identity."""
import json
import os

import pytest

from repro.core.serialize import profiles_to_json
from repro.eval import Harness
from repro.ir.parser import parse_module
from repro.ir.printer import format_module
from repro.obs import MemorySink, sink_installed
from repro.pipeline import (
    ArtifactCache,
    get_cache,
    protect,
    reset_cache,
    selfcheck_byte_identity,
)
from repro.runtime import Interpreter
from repro.workloads import get_workload

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "difftest", "corpus"
)


def corpus_files():
    if not os.path.isdir(CORPUS_DIR):
        return []
    return sorted(f for f in os.listdir(CORPUS_DIR) if f.endswith(".ir"))


def corpus_text(filename):
    with open(os.path.join(CORPUS_DIR, filename), encoding="utf-8") as handle:
        return handle.read()


class TestArtifactCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ArtifactCache(capacity=0)

    def test_lru_evicts_least_recently_used(self):
        cache = ArtifactCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refresh a
        cache.put("c", {"v": 3})  # evicts b
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        assert cache.misses == 1 and cache.puts == 3

    def test_disk_round_trip_across_instances(self, tmp_path):
        writer = ArtifactCache(directory=str(tmp_path))
        writer.put("k1", {"kind": "demo", "n": 7})

        reader = ArtifactCache(directory=str(tmp_path))
        assert reader.get("k1") == {"kind": "demo", "n": 7}
        assert reader.disk_hits == 1
        # second read is served from memory, not disk
        assert reader.get("k1") == {"kind": "demo", "n": 7}
        assert reader.disk_hits == 1 and reader.hits == 2

    def test_corrupt_disk_entry_is_miss_and_removed(self, tmp_path):
        writer = ArtifactCache(directory=str(tmp_path))
        writer.put("k1", {"n": 1})
        path = writer._path("k1")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json{")

        reader = ArtifactCache(directory=str(tmp_path))
        assert reader.get("k1") is None
        assert not os.path.exists(path)

    def test_disk_entry_with_mismatched_key_rejected(self, tmp_path):
        writer = ArtifactCache(directory=str(tmp_path))
        writer.put("k1", {"n": 1})
        # an entry renamed onto another key must not resolve: the record
        # embeds its own key, so a moved/stale file is structurally invalid
        os.replace(writer._path("k1"), writer._path("k2"))
        reader = ArtifactCache(directory=str(tmp_path))
        assert reader.get("k2") is None
        assert not os.path.exists(writer._path("k2"))

    def test_disk_entry_with_old_version_rejected(self, tmp_path):
        cache = ArtifactCache(directory=str(tmp_path))
        record = {"version": 0, "key": "k1", "payload": {"n": 1}}
        with open(cache._path("k1"), "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        assert cache.get("k1") is None

    def test_stats_shape(self, tmp_path):
        cache = ArtifactCache(capacity=4, directory=str(tmp_path))
        cache.put("k", {"n": 1})
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["capacity"] == 4
        assert stats["directory"] == str(tmp_path)


class TestEnvironmentModes:
    def test_off_disables_caching(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        reset_cache()
        assert get_cache() is None

    def test_default_is_memory_tier(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        reset_cache()
        cache = get_cache()
        assert cache is not None and cache.directory is None
        assert get_cache() is cache  # stable instance per configuration

    def test_on_enables_disk_tier(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_cache()
        cache = get_cache()
        assert cache.directory == str(tmp_path)

    def test_configuration_change_rebuilds_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "mem")
        reset_cache()
        mem = get_cache()
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert get_cache() is not mem

    def test_bad_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "sometimes")
        reset_cache()
        with pytest.raises(ValueError, match="REPRO_CACHE"):
            get_cache()


class TestProtectCaching:
    TEXT = staticmethod(lambda: corpus_text("gen_s0_i0_elementwise.ir"))

    def test_hit_returns_byte_identical_module(self):
        text = self.TEXT()
        cache = ArtifactCache()
        cold = protect(parse_module(text), "SWIFT-R", optimize=True, cache=cache)
        warm = protect(parse_module(text), "SWIFT-R", optimize=True, cache=cache)
        assert not cold.cache_hit and warm.cache_hit
        assert cache.puts == 1 and cache.hits == 1
        assert format_module(warm.module) == format_module(cold.module)
        assert warm.optimizations == cold.optimizations
        assert [r.to_dict() for r in warm.pass_runs] == [
            r.to_dict() for r in cold.pass_runs
        ]

    @pytest.mark.parametrize("scheme", ["AR20", "REPLAY2", "CKPT4", "CKPT8FIX"])
    def test_rskip_hit_rebuilds_runtime_and_attrs(self, scheme):
        """A hit rebuilds the runtime the miss built, for every
        runtime-managed family (conv1d has target loops for each)."""
        workload = get_workload("conv1d")
        cache = ArtifactCache()
        cold = protect(workload.build(), scheme, cache=cache)
        warm = protect(workload.build(), scheme, cache=cache)

        def attrs_of(module):
            return {
                name: dict(func.attrs)
                for name, func in module.functions.items()
                if func.attrs
            }

        def constructor_state(loop):
            return (
                type(loop), loop.key, loop.rmw,
                getattr(loop, "config", None),
                getattr(loop, "sample_period", None),
                getattr(loop, "window", None),
                getattr(loop, "base_interval", None),
                getattr(loop, "signal", None) is not None,
            )

        assert not cold.cache_hit and warm.cache_hit
        assert format_module(warm.module) == format_module(cold.module)
        # attrs are not part of the textual IR; the payload must carry them
        assert attrs_of(cold.module)  # outlining recorded provenance
        assert attrs_of(warm.module) == attrs_of(cold.module)
        # the stateful runtime is never cached: rebuilt fresh
        assert warm.application is not cold.application
        assert set(warm.intrinsics) == set(cold.intrinsics)
        cold_rt, warm_rt = cold.application.runtime, warm.application.runtime
        assert cold_rt.loops, f"conv1d yields no {scheme} target loops"
        assert sorted(warm_rt.loops) == sorted(cold_rt.loops)
        for ctx_id, loop in cold_rt.loops.items():
            assert constructor_state(warm_rt.loop(ctx_id)) == \
                constructor_state(loop)

        inp = workload.test_inputs(1, seed=3, scale=0.35)[0]
        for program in (cold, warm):
            memory = workload.fresh_memory(program.module, inp)
            interp = Interpreter(program.module, memory=memory)
            interp.register_intrinsics(program.intrinsics)
            interp.run(workload.main, inp.args)
        assert cold_rt.total_stats().elements > 0
        assert warm_rt.total_stats() == cold_rt.total_stats()
        if scheme.startswith("CKPT"):
            assert cold_rt.commit_intervals()
            assert warm_rt.commit_intervals() == cold_rt.commit_intervals()

    def test_modified_module_misses(self):
        text = self.TEXT()
        cache = ArtifactCache()
        protect(parse_module(text), "SWIFT-R", cache=cache)
        modified = text.replace("0.309568", "0.309569", 1)
        assert modified != text
        again = protect(parse_module(modified), "SWIFT-R", cache=cache)
        assert not again.cache_hit
        assert cache.puts == 2 and cache.hits == 0

    def test_unsafe_has_no_passes_and_skips_cache(self):
        module = parse_module(self.TEXT())
        cache = ArtifactCache()
        program = protect(module, "UNSAFE", cache=cache)
        assert program.module is module and not program.cache_hit
        assert cache.puts == 0 and cache.hits == 0 and cache.misses == 0

    def test_pass_run_events_replayed_on_hit(self):
        text = self.TEXT()
        cache = ArtifactCache()

        def traced_protect():
            with sink_installed(MemorySink(capacity=1 << 12)) as sink:
                program = protect(
                    parse_module(text), "SWIFT-R", optimize=True, cache=cache
                )
            events = [
                (e.kind, e.payload) for e in sink.events if e.kind == "pass-run"
            ]
            return events, program

        cold_events, cold = traced_protect()
        warm_events, warm = traced_protect()
        assert not cold.cache_hit and warm.cache_hit
        # 4 cleanup passes + the protection pass, identical streams
        assert len(cold_events) == 5
        assert warm_events == cold_events


class TestCorpusByteIdentity:
    @pytest.mark.parametrize("filename", corpus_files())
    def test_cache_on_off_byte_identity(self, filename):
        problems = selfcheck_byte_identity(corpus_text(filename))
        assert problems == []


class TestTrainedProfileCaching:
    def test_profiles_cached_across_harnesses(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        reset_cache()
        workload = get_workload("blackscholes")
        first = Harness(workload, scale=0.3, timing=False, train_count=2)
        profiles = first.profiles_for(0.2)
        cache = get_cache()
        assert any(
            p.get("kind") == "trained-profiles" for p in cache._entries.values()
        )

        second = Harness(workload, scale=0.3, timing=False, train_count=2)
        hits_before = cache.hits
        again = second.profiles_for(0.2)
        assert cache.hits > hits_before
        assert second._traces is None  # the hit skipped re-training entirely
        assert profiles_to_json(again) == profiles_to_json(profiles)

    def test_traced_training_bypasses_profile_cache(self, monkeypatch):
        # a cache hit would elide the training event stream, so traced
        # runs must train for real and must not consume stored profiles
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        reset_cache()
        workload = get_workload("blackscholes")
        warmup = Harness(workload, scale=0.3, timing=False, train_count=2)
        warmup.profiles_for(0.2)

        traced = Harness(workload, scale=0.3, timing=False, train_count=2)
        with sink_installed(MemorySink(capacity=1 << 16)) as sink:
            traced.profiles_for(0.2)
        assert traced._traces is not None  # really trained
        assert any(e.kind == "train-loop" for e in sink.events)
