import pytest

from repro.runtime import Interpreter, Profile, TimingModel
from repro.runtime.scheduler import CORE_PRESETS

from ..conftest import build_call_module, build_dot_module, seed_memory


class TestProfiler:
    def run_profiled(self, module, args):
        mem = seed_memory(module)
        profile = Profile()
        interp = Interpreter(module, memory=mem, profile=profile)
        result = interp.run("main", args)
        return profile, result

    def test_inclusive_matches_total_steps(self):
        profile, result = self.run_profiled(build_call_module(), [6])
        assert profile.inclusive["main"] == result.steps

    def test_exclusive_sums_to_total(self):
        profile, result = self.run_profiled(build_call_module(), [6])
        assert sum(profile.exclusive.values()) == result.steps

    def test_callee_attribution(self):
        profile, _ = self.run_profiled(build_call_module(), [6])
        assert profile.calls["g"] == 6
        assert profile.exclusive["g"] > 0
        assert profile.inclusive["main"] > profile.exclusive["main"]
        assert profile.share("g") + profile.share("main") == pytest.approx(1.0)

    def test_no_callees_means_exclusive_equals_inclusive(self):
        profile, _ = self.run_profiled(build_dot_module(), [4, 8])
        assert profile.exclusive["main"] == profile.inclusive["main"]

    def test_profiling_off_by_default(self):
        interp = Interpreter(build_dot_module(), memory=seed_memory(build_dot_module()))
        assert interp.profile is None


class TestCorePresets:
    def test_presets_exist(self):
        assert set(CORE_PRESETS) == {"inorder-2", "ooo-4", "ooo-8"}

    def test_from_preset(self):
        tm = TimingModel.from_preset("inorder-2")
        assert tm.width == 2
        with pytest.raises(KeyError, match="unknown core preset"):
            TimingModel.from_preset("quantum-9000")

    def test_wider_core_is_faster_on_parallel_work(self):
        module = build_dot_module()

        def cycles(preset):
            tm = TimingModel.from_preset(preset)
            mem = seed_memory(module)
            Interpreter(module, memory=mem, timing=tm).run("main", [6, 8])
            return tm.cycles

        assert cycles("ooo-8") <= cycles("ooo-4") <= cycles("inorder-2")
