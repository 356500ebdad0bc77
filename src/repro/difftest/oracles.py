"""Differential oracles over generated IR programs.

Six machine-checked properties:

* **O1 — pipeline equivalence** (:func:`check_pipeline`): any pipeline of
  cleanup passes ({dce, cse, licm, simplify, clone}) optionally followed
  by one protection transform ({swift, swift-r, rskip}) must leave the
  fault-free outputs (return value plus every global's final cells)
  bit-identical to the unmodified program, and ``verify_module`` must
  accept every intermediate module.

* **O2 — print/parse fixpoint** (:func:`check_roundtrip`): printing a
  module, parsing it back and printing again must reproduce the first
  text exactly, and the reparsed module must verify.

* **O4 — backend equivalence** (:func:`check_backend_equivalence`): the
  reference interpreter and the closure-compiled backend must agree on
  the full observable state of a clean run — return value (NaN-aware),
  architectural step count, per-opcode counts, and every global's final
  cells — and on trapping runs must raise the same exception type with
  the same message.  Checked on the plain program and again after a
  protection transform (fresh copies per backend, so runtime-stateful
  intrinsics like the RSkip predictor stay independent).

* **O5 — batch-lane equivalence** (:func:`check_batch_equivalence`): the
  lane-vectorized batch engine (:mod:`repro.runtime.batch`) must agree
  lane-for-lane with the reference interpreter — lane *i* of a batched
  chunk reproduces trial *i*'s outcome class, trap kind, detection flag,
  step and region-step counts, return value and final global memory.
  Checked on the plain program and again under a protection transform
  (per-lane module copies, so stateful intrinsics stay per-trial).

* **O6 — exhaustive single-skip model checking**
  (:func:`check_skip_exhaustive`): a counting pre-run names every
  in-region dynamic instruction of a bounded program; one skip plan per
  site then *proves* per-scheme skip coverage instead of sampling it —
  each site's detected/masked/sdc/trap/hang classification must be
  byte-identical between per-trial reference execution and one batched
  lane slab, and under the duplication schemes a skip whose victim is a
  shadow instruction must never be silent corruption (the instruction-
  skip analogue of O3's shadow-flip property).

* **O3 — fault metamorphic property** (:func:`check_fault_metamorphic`):
  a single bit flip injected into the *redundant* stream of a protected
  program is invisible or detected, never silent corruption.  Both the
  flip scope and the pass/fail contract are derived from the scheme's
  registered :class:`~repro.pipeline.registry.Protocol` — no scheme
  names appear in the contract logic.  ``flip_scope="shadow"`` targets
  live ``.sw1``/``.sw2`` registers (space/prediction redundancy);
  ``flip_scope="region"`` targets live float registers inside
  protocol-region frames (time redundancy: the outlined bodies both the
  main path and the re-execution run).  ``contract="detected-or-masked"``
  (recovery ``abort``) admits detections; ``contract="exactly-masked"``
  (recovery ``vote``/``rollback``) requires every run to stay exactly
  golden, aborts included.  ``verify_as`` redirects sampled family
  members (REPLAY<n>) to their full-coverage point.  For shadow-scope
  schemes a static coverage check additionally requires that protection
  actually replicated computation and inserted sync-point checkers, which
  catches "no-op" protection passes that dynamic shadow flips cannot see.

All checks are deterministic: randomness comes in only through the
caller-supplied fault plans, themselves derived from ``stable_seed``.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import RSkipConfig
from ..core.protocol import PROTOCOL_REGION_ATTR
from ..ir.function import Function
from ..ir.instructions import CmpPred, Opcode
from ..ir.module import Module
from ..ir.parser import ParseError, parse_module
from ..ir.printer import format_module
from ..ir.values import Reg
from ..ir.verifier import VerificationError, verify_module
from ..pipeline.passes import (
    CLEANUP_PASSES,
    PROTECTION_APPLIERS,
    PROTECTIONS,
    ProtectContext,
)
from ..pipeline.registry import get_scheme
from ..runtime.backend import make_executor
from ..runtime.errors import (
    TRIAL_TRAPS,
    FaultDetectedError,
    TrapError,
    classify_trap,
)
from ..runtime.faults import FaultPlan, Region, flip_value, random_plan
from ..runtime.interpreter import OPCODES, Interpreter
from ..runtime.memory import Memory
from ..runtime.outcomes import outputs_equal
from ..transforms.swift import DETECT_INTRINSIC
from ..workloads.base import stable_seed

DEFAULT_MAX_STEPS = 5_000_000

#: Lanes per O5 batch — more than the batch engine's small-group cutoff,
#: so the check exercises the lockstep machine, not just its scalar tail.
DEFAULT_BATCH_LANES = 8

#: Shadow-register suffixes of the duplication transforms.
_SHADOW_SUFFIXES = (".sw1", ".sw2")


@dataclass
class Violation:
    """One oracle failure, serializable for cross-process reporting."""

    oracle: str  # "o1" | "o2" | "o3" | "o4" | "o5" | "o6"
    detail: str
    pipeline: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "detail": self.detail,
                "pipeline": list(self.pipeline)}

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return cls(data["oracle"], data["detail"], tuple(data["pipeline"]))


# -- module plumbing ---------------------------------------------------------
def module_copy(module: Module) -> Module:
    """An independent deep copy via the textual form (also exercises O2's
    machinery on every oracle run)."""
    return parse_module(format_module(module))


def _swift_detect(interp, args):
    raise FaultDetectedError("swift detected a mismatch")


@dataclass
class ExecResult:
    value: object
    globals: Dict[str, List[float]]
    steps: int


def execute_module(
    module: Module,
    intrinsics: Optional[dict] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    entry: str = "main",
    backend: Optional[str] = None,
    args: Sequence = (),
    memory_factory: Optional[Callable[[], Memory]] = None,
) -> ExecResult:
    """Run *entry* fault-free and capture the full observable state.

    Clean runs dispatch through :func:`repro.runtime.make_executor`, so
    the process-wide default backend applies unless *backend* pins one.
    *args*/*memory_factory* let callers check workload modules whose
    entry takes arguments and reads initialized input memory.
    """
    memory = memory_factory() if memory_factory is not None else Memory()
    executor = make_executor(
        module, memory=memory, max_steps=max_steps, backend=backend)
    executor.register_intrinsics({DETECT_INTRINSIC: _swift_detect})
    if intrinsics:
        executor.register_intrinsics(intrinsics)
    result = executor.run(entry, list(args))
    final = {
        name: memory.read_global(name, gvar.size)
        for name, gvar in module.globals.items()
    }
    return ExecResult(result.value, final, result.steps)


def _values_equal(a: object, b: object) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _state_diff(base: ExecResult, other: ExecResult) -> Optional[str]:
    """First observable difference between two executions, or None."""
    if not _values_equal(base.value, other.value):
        return f"return value {base.value!r} != {other.value!r}"
    for name in base.globals:
        if name not in other.globals:
            return f"global @{name} disappeared"
        if not outputs_equal(base.globals[name], other.globals[name]):
            for idx, (g, o) in enumerate(zip(base.globals[name], other.globals[name])):
                if not _values_equal(g, o):
                    return f"@{name}[{idx}]: {g!r} != {o!r}"
            return f"@{name}: length changed"
    return None


# -- the pass tables ---------------------------------------------------------
# CLEANUP_PASSES and PROTECTIONS are re-exported verbatim from
# repro.pipeline.passes — the process-wide single source of truth for
# named passes.  O1 below resolves its pipeline stages through those
# tables, so a scheme registered there is automatically fuzzable here
# (and tests that monkeypatch a broken pass into the shared dict hit
# every consumer at once).


# -- O1: pipeline equivalence -------------------------------------------------
def check_pipeline(
    module: Module,
    pipeline: Sequence[str],
    roundtrip: bool = True,
) -> Tuple[List[Violation], Optional[Module], dict]:
    """Apply *pipeline* to a copy of *module* and compare observable state.

    Returns ``(violations, transformed_module, intrinsics)``; the
    transformed module is ``None`` when a stage failed structurally.
    """
    pipe = tuple(pipeline)
    violations: List[Violation] = []
    try:
        baseline = execute_module(module_copy(module))
    except TrapError as exc:
        return ([Violation("o1", f"baseline run trapped: {exc}", pipe)], None, {})

    work = module_copy(module)
    intrinsics: dict = {}
    for stage in pipe:
        fn = CLEANUP_PASSES.get(stage) or PROTECTIONS.get(stage)
        if fn is None:
            raise ValueError(f"unknown pipeline stage {stage!r}")
        try:
            produced = fn(work)
        except Exception as exc:  # a crashing pass is an oracle failure
            violations.append(Violation(
                "o1", f"pass {stage!r} raised {type(exc).__name__}: {exc}", pipe))
            return (violations, None, {})
        if isinstance(produced, dict):
            intrinsics.update(produced)
        try:
            verify_module(work)
        except VerificationError as exc:
            first = str(exc).splitlines()[1].strip() if "\n" in str(exc) else str(exc)
            violations.append(Violation(
                "o1", f"verifier rejected module after {stage!r}: {first}", pipe))
            return (violations, None, {})
        if roundtrip:
            violations.extend(check_roundtrip(work, context=f"after {stage!r}"))

    try:
        transformed = execute_module(work, intrinsics)
    except FaultDetectedError:
        violations.append(Violation(
            "o1", "fault-free run of protected module tripped a checker", pipe))
        return (violations, work, intrinsics)
    except TrapError as exc:
        violations.append(Violation(
            "o1", f"transformed module trapped: {type(exc).__name__}: {exc}", pipe))
        return (violations, work, intrinsics)

    diff = _state_diff(baseline, transformed)
    if diff is not None:
        violations.append(Violation("o1", f"output diverged: {diff}", pipe))
    return (violations, work, intrinsics)


# -- O2: print -> parse -> print fixpoint ------------------------------------
def check_roundtrip(module: Module, context: str = "") -> List[Violation]:
    """The textual form must be a fixpoint of print∘parse."""
    suffix = f" ({context})" if context else ""
    text = format_module(module)
    try:
        reparsed = parse_module(text)
    except ParseError as exc:
        return [Violation("o2", f"printed module failed to parse{suffix}: {exc}")]
    try:
        verify_module(reparsed)
    except VerificationError as exc:
        first = str(exc).splitlines()[1].strip() if "\n" in str(exc) else str(exc)
        return [Violation("o2", f"reparsed module failed verification{suffix}: {first}")]
    text2 = format_module(reparsed)
    if text2 != text:
        for line1, line2 in zip(text.splitlines(), text2.splitlines()):
            if line1 != line2:
                return [Violation(
                    "o2", f"print/parse not a fixpoint{suffix}: "
                          f"{line1!r} became {line2!r}")]
        return [Violation("o2", f"print/parse changed line count{suffix}")]
    return []


# -- O4: backend equivalence --------------------------------------------------
def _observe_backend(
    module: Module,
    protection: Optional[str],
    backend: str,
    max_steps: int,
) -> tuple:
    """One clean run on *backend*, reduced to a comparable tuple.

    Each call works on a fresh copy and (when *protection* is set)
    re-applies the transform, so backends never share module objects or
    intrinsic runtime state (the RSkip predictor is stateful across
    invocations of one intrinsics table).
    """
    work = module_copy(module)
    intrinsics = PROTECTIONS[protection](work) if protection else {}
    memory = Memory()
    executor = make_executor(
        work, memory=memory, max_steps=max_steps, backend=backend)
    executor.register_intrinsics({DETECT_INTRINSIC: _swift_detect})
    if intrinsics:
        executor.register_intrinsics(intrinsics)
    try:
        result = executor.run("main", [])
    except TrapError as exc:
        return ("trap", type(exc).__name__, str(exc))
    finals = {
        name: memory.read_global(name, gvar.size)
        for name, gvar in work.globals.items()
    }
    return ("ok", result.value, result.steps, dict(result.counts), finals)


def check_backend_equivalence(
    module: Module,
    protection: Optional[str] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[Violation]:
    """O4: the compiled backend must be observationally identical to the
    reference interpreter on clean runs.

    Compares the plain program and, when *protection* is given, the
    protected program too: identical return value (NaN-aware), step
    count, per-opcode counts and final global memory on success;
    identical exception type and message on a trap.
    """
    violations: List[Violation] = []
    for prot in [None] + ([protection] if protection else []):
        pipe = (prot,) if prot else ()
        label = prot or "plain"
        ref = _observe_backend(module, prot, "ref", max_steps)
        comp = _observe_backend(module, prot, "compiled", max_steps)
        if ref[0] != comp[0]:

            def _show(obs):
                return (f"{obs[1]}: {obs[2]}" if obs[0] == "trap"
                        else f"value {obs[1]!r}")

            violations.append(Violation(
                "o4", f"[{label}] ref run {ref[0]} ({_show(ref)}) but "
                      f"compiled run {comp[0]} ({_show(comp)})", pipe))
            continue
        if ref[0] == "trap":
            if ref[1:] != comp[1:]:
                violations.append(Violation(
                    "o4", f"[{label}] trap mismatch: ref raised "
                          f"{ref[1]}({ref[2]!r}) but compiled raised "
                          f"{comp[1]}({comp[2]!r})", pipe))
            continue
        _, r_value, r_steps, r_counts, r_globals = ref
        _, c_value, c_steps, c_counts, c_globals = comp
        if not _values_equal(r_value, c_value):
            violations.append(Violation(
                "o4", f"[{label}] return value {r_value!r} != {c_value!r}",
                pipe))
        if r_steps != c_steps:
            violations.append(Violation(
                "o4", f"[{label}] step count {r_steps} != {c_steps}", pipe))
        if r_counts != c_counts:
            diffs = sorted(
                f"{op.value}: {r_counts.get(op, 0)} != {c_counts.get(op, 0)}"
                for op in set(r_counts) | set(c_counts)
                if r_counts.get(op, 0) != c_counts.get(op, 0)
            )
            violations.append(Violation(
                "o4", f"[{label}] opcode counts diverged: "
                      + "; ".join(diffs[:4]), pipe))
        for name in r_globals:
            if not outputs_equal(r_globals[name], c_globals.get(name, [])):
                for idx, (g, o) in enumerate(
                        zip(r_globals[name], c_globals.get(name, []))):
                    if not _values_equal(g, o):
                        violations.append(Violation(
                            "o4", f"[{label}] @{name}[{idx}]: "
                                  f"{g!r} != {o!r}", pipe))
                        break
                else:
                    violations.append(Violation(
                        "o4", f"[{label}] @{name}: contents diverged", pipe))
                break
    return violations


# -- O5: batch-lane equivalence ----------------------------------------------
def _observe_ref_trial(
    module: Module,
    protection: Optional[str],
    plan: Optional[FaultPlan],
    region: Region,
    max_steps: int,
) -> tuple:
    """One (possibly faulted) reference-interpreter trial, reduced to a
    comparable tuple.  Fresh module copy and intrinsics per call, so
    stateful protection runtimes stay per-trial."""
    work = module_copy(module)
    intrinsics = PROTECTIONS[protection](work) if protection else {}
    memory = Memory()
    interp = Interpreter(
        work, memory=memory, max_steps=max_steps,
        fault_plan=plan, fault_region=region)
    interp.register_intrinsics({DETECT_INTRINSIC: _swift_detect})
    if intrinsics:
        interp.register_intrinsics(intrinsics)
    trap = None
    detected = False
    value = None
    try:
        value = interp.run("main", []).value
    except TRIAL_TRAPS as exc:
        trap, detected = classify_trap(exc)
    finals = {}
    if trap is None:
        finals = {name: memory.read_global(name, gvar.size)
                  for name, gvar in work.globals.items()}
    return (trap, detected, interp.steps, interp.region_steps, value, finals)


def check_batch_equivalence(
    module: Module,
    protection: Optional[str] = None,
    lanes: int = DEFAULT_BATCH_LANES,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[Violation]:
    """O5: the lane-vectorized batch engine must be observationally
    identical, lane for lane, to per-trial reference execution.

    Draws one fault plan per lane (over a region spanning the whole
    program), runs every plan once on the reference interpreter and once
    as a lane of a single batched run, and compares each lane's outcome:
    trap kind, detection flag, step and region-step counts, return value
    and final global memory.  Checked on the plain program and, when
    *protection* is given, on the protected program (per-lane module
    copies keep stateful intrinsic runtimes per-trial on both sides).
    """
    from ..runtime.batch import BatchExecutor

    violations: List[Violation] = []
    for prot in [None] + ([protection] if protection else []):
        pipe = (prot,) if prot else ()
        label = prot or "plain"
        region = Region(funcs=tuple(module.functions))
        # clean counting run: region steps for plan drawing, and a hang
        # budget so faulted lanes cannot run to the full fuzz limit
        _, _, clean_steps, region_steps, _, _ = _observe_ref_trial(
            module, prot, None, region, max_steps)
        budget = min(max_steps, max(clean_steps * 8, 10_000))
        plans: List[Optional[FaultPlan]] = []
        for lane in range(lanes):
            if region_steps > 0:
                rng = random.Random(stable_seed(seed, "difftest.batch", lane))
                plans.append(random_plan(rng, region_steps))
            else:
                plans.append(None)

        ref_rows = [
            _observe_ref_trial(module, prot, plan, region, budget)
            for plan in plans
        ]

        works = [module_copy(module) for _ in range(lanes)]
        tables = []
        for work in works:
            table = {DETECT_INTRINSIC: _swift_detect}
            if prot:
                table.update(PROTECTIONS[prot](work))
            tables.append(table)
        batch_module = works[0]
        template = Memory()
        template.load_globals(batch_module)
        executor = BatchExecutor(
            batch_module, template, lanes, fault_plans=plans,
            fault_region=region, max_steps=budget, intrinsics=tables)
        results = executor.run("main", [])

        for lane in range(lanes):
            trap_r, det_r, steps_r, rsteps_r, val_r, fin_r = ref_rows[lane]
            res = results[lane]
            got = (res.trap, res.detected, res.steps, res.region_steps)
            want = (trap_r, det_r, steps_r, rsteps_r)
            if got != want:
                violations.append(Violation(
                    "o5", f"[{label}] lane {lane}: ref (trap={trap_r}, "
                          f"detected={det_r}, steps={steps_r}, "
                          f"region_steps={rsteps_r}) but batch "
                          f"(trap={res.trap}, detected={res.detected}, "
                          f"steps={res.steps}, "
                          f"region_steps={res.region_steps})", pipe))
                continue
            if trap_r is not None:
                continue
            if not _values_equal(val_r, res.value):
                violations.append(Violation(
                    "o5", f"[{label}] lane {lane}: return value "
                          f"{val_r!r} != {res.value!r}", pipe))
                continue
            lane_mem = executor.lane_memory(lane)
            for name, gvar in batch_module.globals.items():
                if not outputs_equal(
                        fin_r.get(name, []),
                        lane_mem.read_global(name, gvar.size)):
                    violations.append(Violation(
                        "o5", f"[{label}] lane {lane}: @{name}: contents "
                              f"diverged from the reference trial", pipe))
                    break
    return violations


# -- O6: exhaustive single-skip model checking --------------------------------

#: Exhaustive-enumeration ceiling: a program whose region executes more
#: dynamic instructions than this gets stride-sampled instead, and the
#: resulting map is explicitly marked non-exhaustive.
SKIPMAP_SITE_CAP = 400

#: Duplication schemes whose shadow stream carries a provable skip
#: contract: the master stream is intact, so a skipped shadow instruction
#: must be caught by the checker (swift) or voted away (swift-r) — it can
#: trap early or hang, but never end as silent corruption.
_SKIP_CONTRACT_SCHEMES = ("swift", "swift-r")


@dataclass
class SkipSite:
    """One enumerated dynamic instruction and its skip outcome."""

    step: int            # region-step index (== ``FaultPlan.step``)
    opcode: str          # mnemonic of the instruction the skip drops
    dest: Optional[str]  # destination register name, if any
    outcome: str         # "detected" | "masked" | "sdc" | "trap" | "hang"


@dataclass
class SkipMap:
    """Per-scheme single-skip (or burst) vulnerability map of a program."""

    protection: Optional[str]
    total_sites: int   # counting pre-run total (every in-region instruction)
    exhaustive: bool   # True when every site was enumerated
    burst_len: int     # 1 for single skips, >1 for burst maps
    sites: List[SkipSite] = field(default_factory=list)

    def tally(self) -> Dict[str, int]:
        t: Dict[str, int] = {}
        for s in self.sites:
            t[s.outcome] = t.get(s.outcome, 0) + 1
        return t


def _count_skip_sites(
    module: Module,
    protection: Optional[str],
    region: Region,
    max_steps: int,
) -> tuple:
    """Counting pre-run: the clean observation tuple plus one
    ``(opcode index, dest name)`` entry per in-region dynamic
    instruction — entry *i* names exactly what a plan with ``step == i``
    will hit."""
    work = module_copy(module)
    intrinsics = PROTECTIONS[protection](work) if protection else {}
    memory = Memory()
    interp = Interpreter(
        work, memory=memory, max_steps=max_steps, fault_region=region)
    interp.register_intrinsics({DETECT_INTRINSIC: _swift_detect})
    if intrinsics:
        interp.register_intrinsics(intrinsics)
    trace: List[Tuple[int, Optional[str]]] = []
    interp.site_trace = trace
    value = interp.run("main", []).value
    finals = {name: memory.read_global(name, gvar.size)
              for name, gvar in work.globals.items()}
    golden = (None, False, interp.steps, interp.region_steps, value, finals)
    return golden, trace


def _classify_outcome(obs: tuple, golden: tuple) -> str:
    """Reduce an observation tuple to the campaign-style outcome label."""
    trap, detected, _steps, _rsteps, value, finals = obs
    if detected:
        return "detected"
    if trap == "hang":
        return "hang"
    if trap is not None:
        return "trap"
    if not _values_equal(golden[4], value):
        return "sdc"
    for name, cells in golden[5].items():
        if not outputs_equal(cells, finals.get(name, [])):
            return "sdc"
    return "masked"


def _enumerate_sites(total: int, site_cap: int) -> Tuple[List[int], bool]:
    """Every site when the program is small enough, else an even stride
    sample — with the exhaustiveness of the result made explicit."""
    if total <= site_cap:
        return list(range(total)), True
    stride = -(-total // site_cap)
    return list(range(0, total, stride)), False


def skip_site_map(
    module: Module,
    protection: Optional[str] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    site_cap: int = SKIPMAP_SITE_CAP,
    burst_len: int = 1,
) -> SkipMap:
    """Enumerate skip-injection sites on the reference interpreter and
    classify each one against the clean run.  The model-checking half of
    O6, reusable on its own (``repro skipmap`` and the vulnerability
    table build on it)."""
    region = Region(funcs=tuple(module.functions))
    golden, trace = _count_skip_sites(module, protection, region, max_steps)
    budget = min(max_steps, max(golden[2] * 8, 10_000))
    site_steps, exhaustive = _enumerate_sites(len(trace), site_cap)
    kind = "skip" if burst_len == 1 else "skip-burst"
    smap = SkipMap(protection, len(trace), exhaustive, burst_len)
    for s in site_steps:
        plan = FaultPlan(step=s, kind=kind, burst_len=burst_len)
        obs = _observe_ref_trial(module, protection, plan, region, budget)
        code, dest = trace[s]
        smap.sites.append(SkipSite(
            s, OPCODES[code].value, dest, _classify_outcome(obs, golden)))
    return smap


def check_skip_exhaustive(
    module: Module,
    protection: Optional[str] = None,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
    site_cap: int = SKIPMAP_SITE_CAP,
    burst: bool = False,
) -> List[Violation]:
    """O6: exhaustive single-skip model checking.

    For the plain program and (when given) the protected program:

    * a counting pre-run names every in-region dynamic instruction, and
      its site count must equal the clean run's region-step total — the
      enumeration provably covers the whole dynamic stream;
    * every site is injected once as a ``skip`` plan, per-trial on the
      reference interpreter and again as one lane of a single batched
      slab, and each lane's (trap kind, detection flag, step counts,
      return value, final globals) must be byte-identical;
    * under the duplication schemes (swift, swift-r) a skip whose victim
      is a *shadow* instruction must never classify as silent
      corruption — the master stream is intact, so the checker detects
      it, the vote masks it, or a poisoned shadow traps/hangs first.

    With *burst* set, every 2-instruction burst is checked the same way
    (reference==batch only: a burst can straddle master and checker
    instructions, so the shadow contract holds only for single skips).
    Programs larger than *site_cap* are stride-sampled.
    """
    del seed  # enumeration is deterministic; kept for runner uniformity
    from ..runtime.batch import BatchExecutor

    violations: List[Violation] = []
    for prot in [None] + ([protection] if protection else []):
        pipe = (prot,) if prot else ()
        label = prot or "plain"
        region = Region(funcs=tuple(module.functions))
        golden, trace = _count_skip_sites(module, prot, region, max_steps)
        if golden[3] != len(trace):
            violations.append(Violation(
                "o6", f"[{label}] counting pre-run named {len(trace)} "
                      f"sites but the clean run executed {golden[3]} "
                      f"region steps", pipe))
            continue
        budget = min(max_steps, max(golden[2] * 8, 10_000))
        site_steps, _exhaustive = _enumerate_sites(len(trace), site_cap)
        if not site_steps:
            continue
        for blen in ([1, 2] if burst else [1]):
            kind = "skip" if blen == 1 else "skip-burst"
            plans = [FaultPlan(step=s, kind=kind, burst_len=blen)
                     for s in site_steps]
            ref_rows = [
                _observe_ref_trial(module, prot, plan, region, budget)
                for plan in plans
            ]

            lanes = len(plans)
            works = [module_copy(module) for _ in range(lanes)]
            tables = []
            for work in works:
                table = {DETECT_INTRINSIC: _swift_detect}
                if prot:
                    table.update(PROTECTIONS[prot](work))
                tables.append(table)
            batch_module = works[0]
            template = Memory()
            template.load_globals(batch_module)
            executor = BatchExecutor(
                batch_module, template, lanes, fault_plans=plans,
                fault_region=region, max_steps=budget, intrinsics=tables)
            results = executor.run("main", [])

            for i, s in enumerate(site_steps):
                trap_r, det_r, steps_r, rsteps_r, val_r, fin_r = ref_rows[i]
                res = results[i]
                got = (res.trap, res.detected, res.steps, res.region_steps)
                want = (trap_r, det_r, steps_r, rsteps_r)
                where = f"[{label}] {kind}@{s}"
                if got != want:
                    violations.append(Violation(
                        "o6", f"{where}: ref (trap={trap_r}, "
                              f"detected={det_r}, steps={steps_r}, "
                              f"region_steps={rsteps_r}) but batch "
                              f"(trap={res.trap}, detected={res.detected}, "
                              f"steps={res.steps}, "
                              f"region_steps={res.region_steps})", pipe))
                    continue
                if trap_r is not None:
                    continue
                if not _values_equal(val_r, res.value):
                    violations.append(Violation(
                        "o6", f"{where}: return value "
                              f"{val_r!r} != {res.value!r}", pipe))
                    continue
                lane_mem = executor.lane_memory(i)
                for name, gvar in batch_module.globals.items():
                    if not outputs_equal(
                            fin_r.get(name, []),
                            lane_mem.read_global(name, gvar.size)):
                        violations.append(Violation(
                            "o6", f"{where}: @{name}: contents diverged "
                                  f"from the reference trial", pipe))
                        break

            if prot in _SKIP_CONTRACT_SCHEMES and blen == 1:
                for i, s in enumerate(site_steps):
                    code, dest = trace[s]
                    if dest is None or not _is_shadow(dest):
                        continue
                    outcome = _classify_outcome(ref_rows[i], golden)
                    if outcome == "sdc":
                        violations.append(Violation(
                            "o6",
                            f"[{label}] skipping shadow instruction "
                            f"{OPCODES[code].value} -> %{dest} at site {s} "
                            f"is silent corruption; the duplication "
                            f"contract requires detect/mask", pipe))
    return violations


# -- O3: fault metamorphic property ------------------------------------------
def _is_shadow(name: str) -> bool:
    return name.endswith(_SHADOW_SUFFIXES)


def o3_descriptor(protection: str):
    """The descriptor whose protocol O3 verifies for *protection* (any
    registry spelling), following ``verify_as`` redirection to the
    scheme's full-coverage point — REPLAY<n> re-executes only every
    *n*-th window, so its every-flip contract is provable at REPLAY1."""
    descriptor = get_scheme(protection)
    verify_as = descriptor.protocol.verify_as
    if verify_as and verify_as != descriptor.name:
        descriptor = get_scheme(verify_as)
    return descriptor


def _apply_o3(module: Module, descriptor) -> tuple:
    """Protect *module* in place per *descriptor* and return
    ``(intrinsics, application)`` — the application handle (when the
    family has one) lets the oracle reset stateful runtimes per trial."""
    pass_name = next(
        (p for p in descriptor.passes if p in PROTECTION_APPLIERS), None)
    if pass_name is None:
        raise ValueError(
            f"scheme {descriptor.name!r} has no protection pass to verify")
    config = None
    if descriptor.is_rskip:
        config = RSkipConfig().with_ar(descriptor.acceptable_range)
    ctx = ProtectContext(config=config, descriptor=descriptor)
    PROTECTION_APPLIERS[pass_name](module, ctx)
    return dict(ctx.intrinsics), ctx.application


class ShadowFlipInterpreter(Interpreter):
    """Interpreter whose injection targets only shadow-stream registers.

    The plan's ``pick`` selects among the live shadow slots of the whole
    frame stack at the chosen step; if none is live, the flip is absorbed
    (architectural masking), mirroring :meth:`Interpreter._inject`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.flipped: Optional[str] = None

    def _inject(self, regs):
        plan = self.fault_plan
        self._fault_pending = False
        slots = [
            (frame, name)
            for frame in self._frames
            for name in sorted(frame)
            if _is_shadow(name)
        ]
        if not slots:
            return
        frame, name = slots[int(plan.pick * len(slots)) % len(slots)]
        frame[name] = flip_value(frame[name], plan.bit)
        self.flipped = name


class RegionFlipInterpreter(Interpreter):
    """Interpreter whose injection targets the time-redundant stream:
    live *float* registers inside protocol-region frames (the outlined
    loop bodies that both the main path and the re-execution run).

    Float slots only — integer registers carry loop counters and
    addresses, which re-execution validates indirectly (a corrupted
    address yields a corrupted value) but whose direct upset models
    machine faults outside the value-recompute contract.  With no region
    frame live at the chosen step the flip is absorbed (architectural
    masking), mirroring :class:`ShadowFlipInterpreter`.
    """

    def __init__(self, *args, region_funcs=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.flipped: Optional[str] = None
        self._region_funcs = frozenset(region_funcs)

    def _inject(self, regs):
        plan = self.fault_plan
        self._fault_pending = False
        slots = [
            (frame, name)
            for frame, owner in zip(self._frames, self._frame_funcs)
            if owner in self._region_funcs
            for name in sorted(frame)
            if isinstance(frame[name], float)
        ]
        if not slots:
            return
        frame, name = slots[int(plan.pick * len(slots)) % len(slots)]
        frame[name] = flip_value(frame[name], plan.bit)
        self.flipped = name


def check_protection_coverage(module: Module, scheme: str) -> List[Violation]:
    """Static contract of the duplication transforms.

    Every function marked protected must (a) hold shadow registers if it
    holds replicable computation, and (b) guard its synchronization
    points: each store/cbr whose register operands have shadows must be
    preceded somewhere by an equality compare against the ``.sw1`` copy.
    """
    violations: List[Violation] = []
    for func in module.functions.values():
        if not func.attrs.get("protected"):
            continue
        shadows = {r for r in func.defined_regs() if _is_shadow(r)}
        replicable = sum(
            1 for instr in func.instructions()
            if instr.dest is not None and not _is_shadow(instr.dest.name)
            and instr.op not in (Opcode.CALL, Opcode.INTRIN, Opcode.LOAD, Opcode.ALLOC)
        )
        if replicable and not shadows:
            violations.append(Violation(
                "o3", f"@{func.name} is marked protected ({scheme}) but holds "
                      f"no shadow registers for {replicable} replicable instrs"))
            continue

        checked: set = set()
        for instr in func.instructions():
            if instr.op in (Opcode.ICMP, Opcode.FCMP) and instr.pred is CmpPred.EQ:
                if len(instr.args) == 2 and all(isinstance(a, Reg) for a in instr.args):
                    a, b = instr.args
                    if b.name == a.name + ".sw1":
                        checked.add(a.name)
        unguarded = []
        for instr in func.instructions():
            if instr.op not in (Opcode.STORE, Opcode.CBR):
                continue
            for reg in instr.uses():
                if _is_shadow(reg.name):
                    continue
                if reg.name + ".sw1" in {s for s in shadows}:
                    if reg.name not in checked:
                        unguarded.append((func.name, instr.op.value, reg.name))
        if unguarded:
            fname, op, reg = unguarded[0]
            violations.append(Violation(
                "o3", f"@{fname}: {len(unguarded)} unguarded sync operand(s) "
                      f"under {scheme}, e.g. %{reg} at a {op} is never "
                      f"compared against its shadow"))
    return violations


def _protected_region(module: Module) -> Region:
    return Region(funcs=set(module.functions))


def check_fault_metamorphic(
    module: Module,
    protection: str,
    samples: int = 12,
    seed: int = 0,
    prepared: Optional[Module] = None,
    intrinsics: Optional[dict] = None,
    stats: Optional[dict] = None,
    main_args: Sequence = (),
    memory_factory: Optional[Callable[[], Memory]] = None,
) -> List[Violation]:
    """Inject *samples* redundant-stream bit flips into a protected copy.

    The flip scope and the pass/fail contract both come from the
    scheme's registered :class:`~repro.pipeline.registry.Protocol`
    (via :func:`o3_descriptor`, which follows ``verify_as``
    redirection) — contract logic never names a scheme:

    * ``contract="detected-or-masked"`` (recovery ``abort``): every run
      ends detected or exactly golden;
    * ``contract="exactly-masked"`` (recovery ``vote``/``rollback``):
      every run is exactly golden, and an abort is itself a violation;
    * ``contract="none"``: vacuous, the check returns no violations.

    *stats*, if given, accumulates ``landed``/``detected`` counts so a
    caller can assert checker liveness across many programs —
    per-program zero detections is legitimate (a flip in a stale or
    already-validated slot is architecturally masked), an entire
    campaign without one is not.  The *prepared*/*intrinsics* override
    is for stateless schemes only (it carries no runtime handle to
    reset between trials).  *main_args*/*memory_factory* admit workload
    modules (argument-taking ``main``, initialized input memory) — the
    generated difftest corpus has no protocol target loops, so the
    protocol families' region contract is exercised on workloads.
    """
    descriptor = o3_descriptor(protection)
    proto = descriptor.protocol
    if proto.contract == "none" or proto.flip_scope == "none":
        return []
    violations: List[Violation] = []
    application = None
    if prepared is None:
        prepared = module_copy(module)
        intrinsics, application = _apply_o3(prepared, descriptor)
    intrinsics = intrinsics or {}

    if proto.flip_scope == "shadow":
        violations.extend(check_protection_coverage(prepared, protection))

    region = _protected_region(prepared)
    runtime = getattr(application, "runtime", None)
    if runtime is not None:
        runtime.reset()
    try:
        golden = execute_module(
            prepared, intrinsics, args=main_args,
            memory_factory=memory_factory)
    except TrapError as exc:
        violations.append(Violation(
            "o3", f"fault-free {protection} run trapped: {exc}", (protection,)))
        return violations
    region_steps = golden.steps
    max_steps = max(golden.steps * 8, 100_000)

    region_funcs = tuple(sorted(
        name for name, fn in prepared.functions.items()
        if fn.attrs.get(PROTOCOL_REGION_ATTR)))
    exact = proto.contract == "exactly-masked"
    scope = proto.flip_scope

    rng = random.Random(stable_seed(seed, "difftest.o3", protection, prepared.name))
    detections = 0
    landed = 0
    for trial in range(samples):
        plan = FaultPlan(
            step=rng.randrange(region_steps), kind="value",
            bit=rng.randrange(64), pick=rng.random(),
        )
        memory = memory_factory() if memory_factory is not None else Memory()
        if scope == "region":
            interp = RegionFlipInterpreter(
                prepared, memory=memory, max_steps=max_steps,
                fault_plan=plan, fault_region=region,
                region_funcs=region_funcs,
            )
        else:
            interp = ShadowFlipInterpreter(
                prepared, memory=memory, max_steps=max_steps,
                fault_plan=plan, fault_region=region,
            )
        interp.register_intrinsics({DETECT_INTRINSIC: _swift_detect})
        interp.register_intrinsics(intrinsics)
        if runtime is not None:
            runtime.reset()
        try:
            result = interp.run("main", list(main_args))
        except FaultDetectedError:
            detections += 1
            if exact:
                violations.append(Violation(
                    "o3", f"{protection} aborted on a {scope} flip it "
                          f"should have masked (trial {trial}, "
                          f"%{interp.flipped}, bit {plan.bit})",
                    (protection,)))
            continue
        except TrapError as exc:
            violations.append(Violation(
                "o3", f"{scope} flip crashed the {protection} run "
                      f"(trial {trial}, %{interp.flipped}): {exc}",
                (protection,)))
            continue
        if interp.flipped is not None:
            landed += 1
        observed = ExecResult(result.value, {
            name: memory.read_global(name, gvar.size)
            for name, gvar in prepared.globals.items()
        }, result.steps)
        diff = _state_diff(golden, observed)
        if diff is not None:
            violations.append(Violation(
                "o3", f"silent corruption under {protection} from a {scope} "
                      f"flip (trial {trial}, %{interp.flipped}, "
                      f"bit {plan.bit}): {diff}",
                (protection,)))
    if stats is not None:
        stats["landed"] = stats.get("landed", 0) + landed
        stats["detected"] = stats.get("detected", 0) + detections
    return violations


# -- O7: incremental campaign equivalence -------------------------------------

#: Stateless protections O7 campaigns under.  RSkip's compat transform
#: carries runtime state in intrinsic closures with no reset handle, so
#: per-trial isolation — which stratified tallies rely on — cannot be
#: guaranteed through this path; the campaign-level RSkip coverage lives
#: in the eval tests, which prepare through the full pipeline.
_INCREMENTAL_PROTECTIONS = ("swift", "swift-r")


class ModuleWorkload:
    """Adapter campaigning a self-contained module (constant loop bounds,
    inputs in global initializers, argument-free ``main``) as a
    :class:`~repro.workloads.base.Workload`."""

    domain = "difftest"
    description = "generated module"
    main = "main"
    memory_size = 1 << 16

    def __init__(self, module: Module):
        self._text = format_module(module)
        self.name = module.name
        out = module.globals.get("out")
        self._out = ("out", out.size if out is not None else 0)

    def build(self) -> Module:
        return parse_module(self._text)

    def make_input(self, rng=None, scale: float = 1.0):
        from ..workloads.base import WorkloadInput

        return WorkloadInput(
            arrays={}, args=[], output=self._out, loop_output=self._out)

    def test_inputs(self, count: int = 1, seed: int = 0, scale: float = 1.0):
        return [self.make_input() for _ in range(count)]

    def fresh_memory(self, module: Module, inp):
        from ..runtime.memory import Memory

        memory = Memory(self.memory_size)
        memory.load_globals(module)
        inp.apply(memory)
        return memory


def _observe_stratified(
    module: Module,
    protection: Optional[str],
    scheme: str,
    trials: int,
    seed: int,
    store,
    reuse: bool,
    backend: str,
):
    """One stratified campaign over *module*, protected in place like the
    other oracles do (fresh copy + intrinsics per run)."""
    from ..eval.incremental import run_campaign_stratified
    from ..eval.schemes import PreparedProgram

    work = module_copy(module)
    intrinsics = {DETECT_INTRINSIC: _swift_detect}
    if protection:
        intrinsics.update(PROTECTIONS[protection](work))
    prepared = PreparedProgram(
        scheme, work, intrinsics, None, [], "main",
        region_override=Region(funcs=tuple(work.functions)))
    workload = ModuleWorkload(module)
    return run_campaign_stratified(
        workload, scheme, trials, seed=seed, inp=workload.make_input(),
        prepared=prepared, store=store, reuse=reuse, backend=backend)


def check_incremental_equivalence(
    module: Module,
    protection: Optional[str] = None,
    trials: int = 24,
    seed: int = 0,
) -> List[Violation]:
    """O7: incremental campaigns must compose exactly.

    Runs a stratified campaign from scratch (populating a per-section
    store), mutates one function (a step-count-preserving semantic edit),
    then runs the mutated program both incrementally (reusing stored
    section tallies) and from scratch — the two must tally byte-
    identically, with the store serving exactly the sections whose
    fingerprint × step count × allocation survived the edit.  Checked on
    both the reference and batch backends.

    Sound on programs whose sections are genuinely independent — the
    generator's ``phased`` shape is built as that witness; on arbitrary
    programs cross-section data flow makes reuse an approximation, which
    is why incremental mode is opt-in for real workloads.
    """
    import os
    import tempfile

    from ..eval.incremental import SectionStore
    from ..pipeline.registry import canonical_scheme
    from .generator import _MUTATION_SWAPS, mutate_function

    prot = protection if protection in _INCREMENTAL_PROTECTIONS else None
    scheme = canonical_scheme(prot or "unsafe")
    pipe = (prot,) if prot else ()
    label = prot or "plain"

    victim = None
    for name in sorted(module.functions):
        if name == "main":
            continue
        func = module.get_function(name)
        if any(instr.op in _MUTATION_SWAPS
               for lab in func.block_order()
               for instr in func.blocks[lab].instrs):
            victim = name
            break
    if victim is None:
        victim = "main"
    try:
        mutated = mutate_function(module, victim, seed)
    except ValueError:
        return []  # nothing mutable anywhere: vacuous for this program

    violations: List[Violation] = []
    for backend in ("ref", "batch"):
        with tempfile.TemporaryDirectory(prefix="repro-o7-") as tmp:
            store = SectionStore(directory=os.path.join(tmp, "campaigns"))
            base = _observe_stratified(
                module, prot, scheme, trials, seed, store, False, backend)
            scratch = _observe_stratified(
                mutated, prot, scheme, trials, seed, None, False, backend)
            inc = _observe_stratified(
                mutated, prot, scheme, trials, seed, store, True, backend)

            if inc.result.to_dict() != scratch.result.to_dict():
                violations.append(Violation(
                    "o7", f"[{label}/{backend}] incremental tallies after "
                          f"mutating @{victim} differ from stratified "
                          f"from-scratch tallies", pipe))
                continue
            base_keys = {
                (r.fingerprint, r.step_count, r.trials)
                for r in base.sections if r.trials > 0
            }
            expected = sum(
                1 for r in inc.sections
                if r.trials > 0
                and (r.fingerprint, r.step_count, r.trials) in base_keys)
            if inc.reused_sections != expected:
                violations.append(Violation(
                    "o7", f"[{label}/{backend}] store served "
                          f"{inc.reused_sections} sections but "
                          f"{expected} carried unchanged keys", pipe))
            if expected == 0 and victim != "main" and len(module.functions) > 2:
                violations.append(Violation(
                    "o7", f"[{label}/{backend}] mutating @{victim} left no "
                          f"reusable section — incremental reuse is inert "
                          f"on a multi-function program", pipe))
    return violations
