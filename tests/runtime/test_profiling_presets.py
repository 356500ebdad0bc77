import pytest

from repro.runtime import Interpreter, TimingModel
from repro.runtime.scheduler import CORE_PRESETS

from ..conftest import build_dot_module, seed_memory


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
