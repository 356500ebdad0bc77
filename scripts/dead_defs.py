"""List ``src/repro`` definitions that nothing outside ``tests/`` uses.

A definition is a top-level function or class of a module under
``src/repro``, or a method defined in such a class's body (dunder
methods excluded).  It counts as used when its name appears in the code
of ``src/``, ``perfbench/``, ``benchmarks/``, ``scripts/`` or
``examples/`` as

* a loaded name or attribute (``foo(...)``, ``obj.foo``), or
* a string constant that is a dotted identifier (``"foo"``,
  ``"repro.mod.foo"``), the way wrap points and ``getattr`` name it,

and that appearance is not inside the definition itself.  Import
statements and ``__all__`` lists never count (a name imported ``as``
another counts where the other is used), so a name an ``__init__`` only
re-exports is unused; a real use in an ``__init__`` body (a
registry, say) counts.  Methods match by name alone, so any ``.foo``
keeps every method called ``foo`` alive: the scan errs towards missing
dead code.

Definitions in :data:`ALLOWED` are public API or have callers the scan
cannot see (generated code); each entry gives its reason.  The script
prints every unused definition that is not listed, and every listed
entry that is gone or now used, and exits 1 if there is any:

    python scripts/dead_defs.py
"""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "perfbench", "benchmarks", "scripts", "examples")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

_IR_API = "IR library API (README module map), for hand-built programs"

#: qualified name -> why it stays without a caller outside tests
ALLOWED: Dict[str, str] = {
    "repro.driver.compile_protected": "README's one-call protection API",
    "repro.driver.CompiledProgram.skip_stats":
        "README's one-call protection API reads it",
    "repro.eval.fault_campaign.CampaignResult.confidence_interval":
        "reported protection rates are to carry a Wilson interval",
    "repro.runtime.compiler.CompiledExecutor._hang":
        "called from the generated segment code (a string)",
    "repro.obs.events.sink_installed":
        "scoped install_sink/remove_sink for library users",
    "repro.ir.builder.IRBuilder.or_": "IRBuilder has one emitter per opcode",
    "repro.ir.function.Function.reorder_blocks": _IR_API,
    "repro.ir.instructions.Instr.is_sync_point": _IR_API,
    "repro.ir.types.Type.is_pointer": _IR_API,
    "repro.ir.values.Value.is_reg": _IR_API,
    "repro.ir.values.Value.is_const": _IR_API,
}


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def definitions(path: Path) -> Iterator[Tuple[str, str, int]]:
    """(qualified name, bare name, line) of each definition in *path*."""
    mod = module_name(path)
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        yield f"{mod}.{node.name}", node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield (f"{mod}.{node.name}.{item.name}", item.name,
                           item.lineno)


class _Uses(ast.NodeVisitor):
    """Collects the names a file uses, skipping a definition's own name
    inside its body and the strings of ``__all__``."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self.aliases: Dict[str, str] = {}
        self._inside: List[str] = []

    def _add(self, name: str) -> None:
        if name not in self._inside:
            self.names.add(self.aliases.get(name, name))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name

    def _scoped(self, node) -> None:
        for deco in node.decorator_list:
            self.visit(deco)
        self._inside.append(node.name)
        for child in ast.iter_child_nodes(node):
            if child not in node.decorator_list:
                self.visit(child)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(node.attr)
        self.visit(node.value)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and DOTTED.fullmatch(node.value):
            for part in node.value.split("."):
                self._add(part)

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in node.targets):
            return
        self.generic_visit(node)


def used_names() -> Set[str]:
    uses = _Uses()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != Path(__file__).resolve():
                uses.aliases = {}
                uses.visit(ast.parse(path.read_text(), str(path)))
    return uses.names


def main() -> int:
    used = used_names()
    unused, defined = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for qual, name, line in definitions(path):
            defined.add(qual)
            if name not in used and qual not in ALLOWED:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {qual}")
    stale = [f"allow-list entry {qual}: " + (
                 "now used; drop the entry" if qual in defined
                 else "no such definition")
             for qual in ALLOWED
             if qual not in defined or qual.rsplit(".", 1)[1] in used]
    for line in unused + stale:
        print(line)
    if unused or stale:
        print(f"{len(unused)} unused definition(s), {len(stale)} stale "
              "allow-list entr(ies): delete the code, give it a caller, "
              "or list it in scripts/dead_defs.py ALLOWED with a reason",
              file=sys.stderr)
        return 1
    print(f"dead-definition scan: {len(defined)} definitions, all used "
          f"or allow-listed ({len(ALLOWED)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
