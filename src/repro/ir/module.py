"""IR modules: a set of functions plus named global arrays."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .function import Function
from .types import Type


@dataclass
class GlobalVar:
    """A module-level array of ``size`` cells of element type ``elem_ty``.

    ``init`` optionally provides initial cell values (padded with zeros).
    The runtime assumes globals live in ECC-protected memory (paper
    assumption), so faults are never injected into them at rest.
    """

    name: str
    size: int
    elem_ty: Type = Type.F64
    init: Optional[List[float]] = field(default=None)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"global @{self.name} must have positive size")
        if self.init is not None and len(self.init) > self.size:
            raise ValueError(f"initializer for @{self.name} exceeds its size")


class Module:
    """A compilation unit: functions by name plus global arrays."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVar] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function @{func.name}")
        self.functions[func.name] = func
        return func

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function @{name} in module {self.name}") from None

    def add_global(
        self,
        name: str,
        size: int,
        elem_ty: Type = Type.F64,
        init: Optional[Sequence[float]] = None,
    ) -> GlobalVar:
        if name in self.globals:
            raise ValueError(f"duplicate global @{name}")
        gvar = GlobalVar(name, size, elem_ty, list(init) if init is not None else None)
        self.globals[name] = gvar
        return gvar

    def clone(self) -> "Module":
        """A structurally independent copy: transforms on the clone never
        touch the original.  Globals are shared (immutable after
        construction), so cloning costs one :meth:`Instr.copy` per
        instruction — much cheaper than a print/parse round trip, and
        prints byte-identically to the original."""
        module = Module(self.name)
        module.globals = dict(self.globals)
        for name, func in self.functions.items():
            module.functions[name] = func.clone()
        return module

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __repr__(self) -> str:
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
