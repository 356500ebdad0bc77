import math

import pytest

from repro.ir import Module
from repro.runtime import Memory, SegfaultError
from repro.runtime.batch import FLATTEN_AFTER, _LaneMem
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
    """The reference memory, the golden capture's write log and a batch
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


def positive_zero(value) -> bool:
    return type(value) is float and value == 0.0 and math.copysign(1.0, value) == 1.0


class TestHighWaterMark:
    """A memory holds its cells only up to a high-water mark, at least
    ``brk``: a cell above it reads a positive float ``0.0``, a store
    there grows the list with such zeros, and the address bound stays
    the memory's size."""

    @staticmethod
    def memories():
        memory = Memory(256)
        memory.allocate(8)  # brk 16
        log = _WriteLog(Memory(256))
        log.allocate(8)
        lane = _LaneMem([0.0] * 256, {}, 256, {}, {}, 16)
        for _ in range(FLATTEN_AFTER):
            lane.load(8)  # flattens [0, brk)
        return [memory, log, lane]

    @pytest.mark.parametrize("kind", ["memory", "write log", "lane"])
    def test_above_the_mark(self, kind):
        memory = self.memories()[["memory", "write log", "lane"].index(kind)]
        cells = memory.cells
        assert len(cells) == 16
        assert positive_zero(memory.load(100))
        memory.store(100, 2.5)
        assert memory.cells is cells and 100 < len(cells) <= memory.size
        assert memory.load(100) == 2.5
        assert all(positive_zero(cells[addr]) for addr in range(16, 100))
        got = memory.read_array(90, 30)
        assert len(got) == 30 and got[10] == 2.5
        assert all(positive_zero(v) for i, v in enumerate(got) if i != 10)
        for addr in (0, 7, 256, 1000):
            with pytest.raises(SegfaultError):
                memory.load(addr)
            with pytest.raises(SegfaultError):
                memory.store(addr, 1.0)
        if kind == "write log":
            assert memory.written == {100}

    def test_a_fresh_memory_holds_only_the_allocated_cells(self):
        memory = Memory()
        assert len(memory.cells) == 8 and memory.brk == 8
        memory.allocate(100)
        assert len(memory.cells) == 108
        assert memory.read_array(8, memory.size - 8) == [0.0] * (memory.size - 8)

    def test_array_writes_and_patches_grow_it(self):
        memory = Memory(256)
        memory.write_array(40, [1.0, 2.0])
        assert len(memory.cells) == 42 and memory.cells[40:] == [1.0, 2.0]
        assert positive_zero(memory.cells[39])
        memory.patch({200: 3.0, 50: 4.0}, 60)
        assert memory.brk == 60 and len(memory.cells) == 201
        assert (memory.load(200), memory.load(50)) == (3.0, 4.0)
        assert positive_zero(memory.cells[199])
        memory.patch({}, 230)
        assert len(memory.cells) == 230  # the mark is at least brk
