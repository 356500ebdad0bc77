import pytest

from repro.ir import Module
from repro.runtime import Memory, SegfaultError
from repro.runtime.batch import _LaneMem
from repro.runtime.prefix import _WriteLog


class TestBounds:
    def test_null_guard(self):
        mem = Memory(64)
        for addr in range(0, 8):
            with pytest.raises(SegfaultError):
                mem.load(addr)

    def test_out_of_range(self):
        mem = Memory(64)
        with pytest.raises(SegfaultError):
            mem.load(64)
        with pytest.raises(SegfaultError):
            mem.store(-1, 1.0)

    def test_float_addresses(self):
        mem = Memory(64)
        mem.store(10.0, 3.5)  # integral float address is fine
        assert mem.load(10) == 3.5
        with pytest.raises(SegfaultError, match="non-integer"):
            mem.load(10.5)

    def test_non_numeric_address(self):
        mem = Memory(64)
        with pytest.raises(SegfaultError, match="invalid address"):
            mem.load("x")

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Memory(0)


class TestOneAddressCheck:
    """The reference memory, the golden check's write log and a batch
    lane's memory view reject an address with the same segfault."""

    @pytest.mark.parametrize("addr", [10.5, "x", 7, 64])
    def test_every_memory_raises_the_same_segfault(self, addr):
        memories = [Memory(64), _WriteLog(Memory(64)),
                    _LaneMem([0.0] * 64, {}, 64, {}, {}, 8)]
        seen = set()
        for memory in memories:
            for access in (memory.load, lambda a: memory.store(a, 1.0)):
                with pytest.raises(SegfaultError) as info:
                    access(addr)
                seen.add((type(info.value), str(info.value), info.value.address))
        assert len(seen) == 1, seen


class TestAllocation:
    def test_bump_allocation_disjoint(self):
        mem = Memory(128)
        a = mem.allocate(16)
        b = mem.allocate(16)
        assert b >= a + 16

    def test_out_of_memory(self):
        mem = Memory(64)
        with pytest.raises(SegfaultError, match="out of memory"):
            mem.allocate(1000)

    def test_non_positive_allocation(self):
        mem = Memory(64)
        with pytest.raises(SegfaultError):
            mem.allocate(0)


class TestGlobals:
    def make_module(self):
        m = Module("m")
        m.add_global("a", 8, init=[1.0, 2.0])
        m.add_global("b", 4)
        return m

    def test_layout_and_init(self):
        mem = Memory(128)
        mem.load_globals(self.make_module())
        a = mem.global_addr("a")
        assert mem.load(a) == 1.0 and mem.load(a + 1) == 2.0
        assert mem.load(a + 2) == 0.0  # zero padded
        assert mem.global_addr("b") >= a + 8

    def test_unknown_global(self):
        mem = Memory(64)
        with pytest.raises(SegfaultError, match="unknown global"):
            mem.global_addr("ghost")

    def test_array_helpers(self):
        mem = Memory(128)
        mem.load_globals(self.make_module())
        mem.write_global("b", [4.0, 5.0])
        assert mem.read_global("b", 2) == [4.0, 5.0]
        assert mem.read_global("b", 1, offset=1) == [5.0]

    def test_array_bounds_checked(self):
        mem = Memory(64)
        with pytest.raises(SegfaultError):
            mem.write_array(60, [1.0] * 10)
        with pytest.raises(SegfaultError):
            mem.read_array(0, 4)
