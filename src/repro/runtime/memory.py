"""Flat runtime memory.

A linear space of ``size`` numeric cells.  Address 0 is reserved (a
null guard), globals are laid out at load time and ``alloc`` bumps a
pointer — there is no free, matching the arena-style allocation of the
benchmark programs.  A :class:`Memory` holds its cells only up to a
high-water mark, at least ``brk``: a program touches a few thousand of
its 65,536 cells, so a trial's fresh image is that long, not the whole
space.  Every cell above the mark reads ``0.0``, and a store there first
extends the list with ``0.0``.  The address bound stays ``size``.

Per the paper's assumption memory is ECC-protected: the fault injector
never flips bits in memory cells at rest, only in register state.
"""
from __future__ import annotations

from typing import Dict, Sequence

from ..ir.module import Module
from .errors import SegfaultError

DEFAULT_SIZE = 1 << 16


def check_addr(addr, size: int) -> int:
    """The cell index of *addr* in a memory of *size* cells, or a
    :class:`SegfaultError`: an integral float is taken as its integer, any
    other non-integer is an invalid address, and the null guard
    ``[0, 8)`` and everything from *size* up are out of bounds.  Every
    load and store of every engine checks its address here."""
    if isinstance(addr, float):
        if not addr.is_integer():
            raise SegfaultError(addr, f"non-integer address {addr!r}")
        addr = int(addr)
    if not isinstance(addr, int):
        raise SegfaultError(addr, f"invalid address {addr!r}")
    if addr < 8 or addr >= size:
        raise SegfaultError(addr)
    return addr


def global_addr(layout: Dict[str, int], name: str) -> int:
    """The base address of global *name* in *layout* (name -> address),
    or a :class:`SegfaultError` for a global the layout lacks."""
    try:
        return layout[name]
    except KeyError:
        raise SegfaultError(None, f"unknown global @{name}") from None


class Memory:
    """Bounds-checked flat memory with global layout and bump allocation.

    ``cells`` runs up to the high-water mark (see the module docstring):
    code that indexes it directly reads a cell at or past ``len(cells)``
    as ``0.0``, as the compiled backend's fast path bounds its index by
    ``len(cells)``."""

    def __init__(self, size: int = DEFAULT_SIZE):
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self.cells = [0.0] * 8  # the null guard region
        self.globals: Dict[str, int] = {}
        self._brk = 8  # skip the null guard region

    # -- layout -----------------------------------------------------------
    def load_globals(self, module: Module) -> None:
        """Lay out and initialize the module's globals."""
        for gvar in module.globals.values():
            base = self.allocate(gvar.size)
            self.globals[gvar.name] = base
            if gvar.init is not None:
                for i, v in enumerate(gvar.init):
                    self.cells[base + i] = v

    def allocate(self, size: int) -> int:
        if size <= 0:
            raise SegfaultError(self._brk, f"allocation of non-positive size {size}")
        base = self._brk
        self._brk += int(size)
        if self._brk > self.size:
            raise SegfaultError(base, "out of memory")
        self._grow(self._brk)
        return base

    def _grow(self, stop: int) -> None:
        """Raise the high-water mark to *stop* (if below it)."""
        cells = self.cells
        if stop > len(cells):
            cells.extend([0.0] * (stop - len(cells)))

    @property
    def brk(self) -> int:
        """The allocation pointer: the first cell ``alloc`` hands out next."""
        return self._brk

    def patch(self, cells: Dict[int, object], brk: int) -> None:
        """Overwrite *cells* (address -> value) and move the allocation
        pointer to *brk*: a paused execution's memory over the initial
        image it started from."""
        self._grow(brk)
        store = self.cells
        for addr, value in cells.items():
            try:
                store[addr] = value
            except IndexError:
                self._grow(addr + 1)
                store[addr] = value
        self._brk = brk

    def global_addr(self, name: str) -> int:
        return global_addr(self.globals, name)

    # -- access -------------------------------------------------------------
    def load(self, addr) -> float:
        try:
            return self.cells[check_addr(addr, self.size)]
        except IndexError:  # above the high-water mark
            return 0.0

    def store(self, addr, value) -> None:
        idx = check_addr(addr, self.size)
        try:
            self.cells[idx] = value
        except IndexError:  # above the high-water mark
            self._grow(idx + 1)
            self.cells[idx] = value

    # -- convenience for harnesses ------------------------------------------
    def write_array(self, base: int, values: Sequence[float]) -> None:
        if base < 8 or base + len(values) > self.size:
            raise SegfaultError(base, "array write out of bounds")
        self._grow(base + len(values))
        self.cells[base : base + len(values)] = list(values)

    def read_array(self, base: int, count: int) -> list:
        if base < 8 or base + count > self.size:
            raise SegfaultError(base, "array read out of bounds")
        out = self.cells[base : base + count]
        if len(out) < count:
            out.extend([0.0] * (count - len(out)))
        return out

    def write_global(self, name: str, values: Sequence[float], offset: int = 0) -> None:
        self.write_array(self.global_addr(name) + offset, values)

    def read_global(self, name: str, count: int, offset: int = 0) -> list:
        return self.read_array(self.global_addr(name) + offset, count)
