"""Differential oracles over generated IR programs.

Seven machine-checked properties:

* **O1 — pipeline equivalence** (:func:`check_pipeline`): any pipeline of
  cleanup passes ({dce, cse, licm, simplify, clone}) optionally followed
  by one protection pass ({swift, swift-r, rskip, replay, ckpt}, applied
  through :func:`repro.pipeline.protect`) must leave the
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
  protection transform (protected once; the runtime is reset before
  each backend's run, so the RSkip predictor starts fresh on both).

* **O5 — batch-lane equivalence** (:func:`check_batch_equivalence`) and
  **O6 — exhaustive single-skip model checking**
  (:func:`check_skip_exhaustive`) run their trials through the
  campaign's own trial runner,
  :func:`repro.eval.fault_campaign.trial_rows`, once wholly on the
  reference interpreter and once handed off to the compiled backend
  (O5 also as one batched lane slab), and demand identical rows: trap kind,
  detection flag, caught validation mismatch, step and region-step
  counts, return value and final global memory.  The
  program is protected once and campaigned whole-program; reference
  trials reset its runtime and fast-forward from the golden prefix as
  campaign trials do, and batch lanes get one runtime fork each.  O5
  draws one random fault plan per lane.  O6 reads every in-region
  dynamic instruction off the golden run's segments and injects one
  skip plan per site, which *proves* per-scheme skip coverage instead of
  sampling it; under the duplication schemes a skip whose victim is a
  shadow instruction must also never be silent corruption (the
  instruction-skip analogue of O3's shadow-flip property).

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

* **O7 — incremental campaign equivalence**
  (:func:`check_incremental_equivalence`): after a one-function edit, a
  stratified campaign that reuses stored section tallies must tally
  byte-identically to one run from scratch, on both backends.

All checks are deterministic: randomness comes in only through the
caller-supplied fault plans, themselves derived from ``stable_seed``.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.rskip import PROTOCOL_REGION_ATTR
from ..eval.fault_campaign import HANG_FACTOR, CampaignContext, trial_rows
from ..eval.schemes import PreparedProgram, fault_region
from ..ir.instructions import CmpPred, Opcode
from ..ir.module import Module
from ..ir.parser import ParseError, parse_module
from ..ir.printer import format_module
from ..ir.values import Reg
from ..ir.verifier import VerificationError, verify_module
from ..pipeline.passes import CLEANUP_PASSES, PROTECTION_PASSES
from ..pipeline.protect import protect
from ..pipeline.registry import canonical_scheme, get_scheme
from ..runtime.backend import make_executor
from ..runtime.errors import FaultDetectedError, TrapError
from ..runtime.faults import FaultPlan, Region, flip_value, random_plan
from ..runtime.interpreter import OPCODES, DecodedProgram, Interpreter
from ..runtime.memory import Memory
from ..runtime.outcomes import outputs_equal
from ..runtime.prefix import capture
from ..workloads.base import stable_seed

DEFAULT_MAX_STEPS = 5_000_000

#: Lanes per O5 batch — more than the batch engine's small-group cutoff,
#: so the check exercises the lockstep machine, not just its tail.
DEFAULT_BATCH_LANES = 8

#: Shadow-register suffixes of the duplication transforms.
_SHADOW_SUFFIXES = (".sw1", ".sw2")


@dataclass
class Violation:
    """One oracle failure, serializable for cross-process reporting."""

    oracle: str  # "o1" | "o2" | ... | "o7"
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


def _prepared(module: Module, protection: Optional[str]) -> PreparedProgram:
    """A fresh copy of *module* under protection pass *protection* (None
    = plain), campaigned whole-program (the region spans every
    function).  Every oracle that runs a program more than once protects
    it here, once, and resets or forks its runtime per run."""
    work = module_copy(module)
    scheme = canonical_scheme(protection or "unsafe")
    intrinsics: dict = {}
    application = None
    if protection is not None:
        protected = protect(work, protection, use_cache=False)
        work, intrinsics = protected.module, protected.intrinsics
        application = protected.application
    return PreparedProgram(
        scheme, work, intrinsics, application, [], "main",
        region_override=Region(funcs=tuple(work.functions)))


@dataclass
class ExecResult:
    """The observable end state of one run: the one record every oracle
    compares (:func:`first_diff`)."""

    value: object
    globals: Dict[str, List[float]]
    steps: int
    counts: Dict[Opcode, int] = field(default_factory=dict)
    region_steps: int = 0
    #: a trial's trap kind, or an O4 run's ``"<error type>: <message>"``
    trap: Optional[str] = None
    detected: bool = False
    #: RSkip's exact validation flagged a mismatch during the trial
    caught: bool = False


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
    if intrinsics:
        executor.register_intrinsics(intrinsics)
    result = executor.run(entry, list(args))
    return ExecResult(result.value, _finals(module, memory), result.steps,
                      dict(result.counts))


def _finals(module: Module, memory) -> Dict[str, List[float]]:
    """Every global's final cells."""
    return {name: memory.read_global(name, gvar.size)
            for name, gvar in module.globals.items()}


def _values_equal(a: object, b: object) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _ending(obs: ExecResult) -> str:
    """How a run ended, for a violation message."""
    text = f"ok (value {obs.value!r}" if obs.trap is None else f"trap ({obs.trap}"
    return text + ", detected" * obs.detected + ", caught" * obs.caught + ")"


def first_diff(
    a: ExecResult,
    b: ExecResult,
    exact: bool = False,
    names: Tuple[str, str] = ("ref", "batch"),
) -> Optional[str]:
    """The first observable difference between runs *a* and *b*, or None.

    Compares how they ended (trap and detection), then the return value
    (NaN-aware) and every global of *a*, cell by cell.  With *exact* —
    two engines running the same trial — it also compares whether a
    validation mismatch was caught and the step, region-step and
    per-opcode counts.  *names* label the two runs in the message.
    """
    if (a.trap, a.detected) != (b.trap, b.detected) or (
            exact and a.caught != b.caught):
        return f"{names[0]} run {_ending(a)} but {names[1]} run {_ending(b)}"
    if exact:
        if a.steps != b.steps:
            return f"step count {a.steps} != {b.steps}"
        if a.region_steps != b.region_steps:
            return f"region-step count {a.region_steps} != {b.region_steps}"
        if a.counts != b.counts:
            diffs = sorted(
                f"{op.value}: {a.counts.get(op, 0)} != {b.counts.get(op, 0)}"
                for op in set(a.counts) | set(b.counts)
                if a.counts.get(op, 0) != b.counts.get(op, 0))
            return "opcode counts diverged: " + "; ".join(diffs[:4])
    if not _values_equal(a.value, b.value):
        return f"return value {a.value!r} != {b.value!r}"
    for name, cells in a.globals.items():
        other = b.globals.get(name)
        if other is None:
            return f"global @{name} disappeared"
        if not outputs_equal(cells, other):
            for idx, (g, o) in enumerate(zip(cells, other)):
                if not _values_equal(g, o):
                    return f"@{name}[{idx}]: {g!r} != {o!r}"
            return f"@{name}: length changed"
    return None


# -- the pass tables ---------------------------------------------------------
# CLEANUP_PASSES and PROTECTION_PASSES are re-exported verbatim from
# repro.pipeline.passes — the process-wide single source of truth for
# named passes.  O1 below runs cleanup stages straight from the cleanup
# table, and every oracle applies a protection stage the way every other
# layer does: protect(work, name, use_cache=False), which runs the
# pass's surgery and attaches its runtime through the pipeline's one
# runtime builder.  A scheme registered there is automatically fuzzable
# here (and tests that monkeypatch a broken pass into the shared dicts
# hit every consumer at once).


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
        cleanup = CLEANUP_PASSES.get(stage)
        if cleanup is None and stage not in PROTECTION_PASSES:
            raise ValueError(f"unknown pipeline stage {stage!r}")
        try:
            if cleanup is not None:
                cleanup(work)
            else:
                intrinsics.update(
                    protect(work, stage, use_cache=False).intrinsics)
        except Exception as exc:  # a crashing pass is an oracle failure
            violations.append(Violation(
                "o1", f"pass {stage!r} raised {type(exc).__name__}: {exc}", pipe))
            return (violations, None, {})
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

    diff = first_diff(baseline, transformed)
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
def check_backend_equivalence(
    module: Module,
    protection: Optional[str] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[Violation]:
    """O4: the compiled backend must be observationally identical to the
    reference interpreter on clean runs.

    Compares the plain program and, when *protection* is given, the
    protected program too (protected once; its runtime is reset before
    each backend's run): identical return value (NaN-aware), step
    count, per-opcode counts and final global memory on success;
    identical exception type and message on a trap.
    """
    violations: List[Violation] = []
    for prot in [None] + ([protection] if protection else []):
        prepared = _prepared(module, prot)
        runs = []
        for backend in ("ref", "compiled"):
            if prepared.runtime is not None:
                prepared.runtime.reset()
            try:
                runs.append(execute_module(
                    prepared.module, prepared.intrinsics, max_steps,
                    backend=backend))
            except TrapError as exc:
                runs.append(ExecResult(
                    None, {}, 0, trap=f"{type(exc).__name__}: {exc}"))
        diff = first_diff(*runs, exact=True, names=("ref", "compiled"))
        if diff is not None:
            violations.append(Violation(
                "o4", f"[{prot or 'plain'}] {diff}", (prot,) if prot else ()))
    return violations


# -- O5/O6: trials through the campaign's trial runner -------------------------
class _Trials:
    """One (program, protection) campaigned the way ``repro campaign``
    runs its trials: protected once (:func:`_prepared`), its golden run
    captured once (:func:`~repro.runtime.prefix.capture`), then trials
    through :func:`~repro.eval.fault_campaign.trial_rows` on either
    engine."""

    def __init__(self, module: Module, protection: Optional[str],
                 max_steps: int):
        self.prepared = prepared = _prepared(module, protection)
        self.workload = ModuleWorkload(module)
        self.inp = self.workload.make_input()
        # the golden run: the clean observation, the hang budget, the
        # prefix trials fast-forward from, and one (opcode index, dest
        # name) site per in-region dynamic instruction — site i names
        # what a plan with step == i hits
        region = fault_region(prepared)
        if prepared.runtime is not None:
            prepared.runtime.reset()
        memory = self.workload.fresh_memory(prepared.module, self.inp)
        decoded = DecodedProgram(prepared.module, region, memory)
        golden = capture(prepared.module, memory, prepared.intrinsics,
                         prepared.runtime, region, decoded, prepared.main,
                         self.inp.args, max_steps)
        run = golden.result
        self.sites: List[Tuple[int, Optional[str]]] = [
            instr[:2]
            for func, label, index, _start, length in golden.windows()
            for instr in decoded.funcs[func][1][label][index:index + length]]
        self.clean = ExecResult(run.value, _finals(prepared.module, memory),
                                run.steps, region_steps=run.region_steps)
        # oracles compare whole rows and never tally, so the context
        # carries no golden outputs; faulted trials get their own hang
        # budget so they cannot run to the full fuzz limit
        self.ctx = CampaignContext(
            region, [], [], run.region_steps,
            min(max_steps, max(run.steps * HANG_FACTOR, 10_000)), golden, decoded)

    def observe(self, plans: List[FaultPlan], backend: str) -> List[ExecResult]:
        """Each plan's trial on *backend* (one slab of ``len(plans)``
        lanes for the batch engine), reduced to its observation as soon
        as it finishes."""
        module = self.prepared.module
        return [
            ExecResult(row.value,
                       {} if row.trap is not None else _finals(module, row.memory),
                       row.steps, region_steps=row.region_steps,
                       trap=row.trap, detected=row.detected, caught=row.caught)
            for row in trial_rows(self.prepared, self.workload, self.inp,
                                  self.ctx, plans, backend, lanes=len(plans))
        ]

    def compare(
        self, plans: List[FaultPlan], oracle: str, wheres: List[str],
        pipe: Tuple[str, ...], backends: Tuple[str, ...],
    ) -> Tuple[List[ExecResult], List[Violation]]:
        """Run every plan on the reference engine and on each of
        *backends*; returns the reference observations and one *oracle*
        violation per diverging trial, located by ``wheres[i]``."""
        ref = self.observe(plans, "ref")
        violations = []
        for backend in backends:
            got = self.observe(plans, backend)
            for where, want, row in zip(wheres, ref, got):
                diff = first_diff(want, row, exact=True, names=("ref", backend))
                if diff is not None:
                    violations.append(Violation(
                        oracle, f"{where} ({backend}): {diff}", pipe))
        return ref, violations


def check_batch_equivalence(
    module: Module,
    protection: Optional[str] = None,
    lanes: int = DEFAULT_BATCH_LANES,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[Violation]:
    """O5: the lane-vectorized batch engine must be observationally
    identical, lane for lane, to per-trial reference execution, and so
    must trials handed off to the compiled backend.

    Draws one fault plan per lane (over a region spanning the whole
    program), runs every plan on the reference interpreter, on the batch
    backend (the value flips as lanes of a single batched run) and
    handed off, and compares each outcome:
    trap kind, detection flag, caught mismatch, step and region-step
    counts, return value and final global memory.  Checked on the plain
    program and, when *protection* is given, on the protected program.
    """
    violations: List[Violation] = []
    for prot in [None] + ([protection] if protection else []):
        label = prot or "plain"
        trials = _Trials(module, prot, max_steps)
        plans = [
            random_plan(random.Random(stable_seed(seed, "difftest.batch", lane)),
                        trials.ctx.region_steps)
            for lane in range(lanes)
        ]
        violations.extend(trials.compare(
            plans, "o5", [f"[{label}] lane {lane}" for lane in range(lanes)],
            (prot,) if prot else (), ("batch", "compiled"))[1])
    return violations


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
    total_sites: int   # golden-run total (every in-region instruction)
    exhaustive: bool   # True when every site was enumerated
    burst_len: int     # 1 for single skips, >1 for burst maps
    sites: List[SkipSite] = field(default_factory=list)

    def tally(self) -> Dict[str, int]:
        t: Dict[str, int] = {}
        for s in self.sites:
            t[s.outcome] = t.get(s.outcome, 0) + 1
        return t


def _classify_outcome(obs: ExecResult, clean: ExecResult) -> str:
    """The campaign-style outcome label of a trial against the clean run."""
    if obs.detected:
        return "detected"
    if obs.trap is not None:
        return "hang" if obs.trap == "hang" else "trap"
    return "masked" if first_diff(clean, obs) is None else "sdc"


def _enumerate_sites(total: int, site_cap: int) -> Tuple[List[int], bool]:
    """Every site when the program is small enough, else an even stride
    sample — with the exhaustiveness of the result made explicit."""
    if total <= site_cap:
        return list(range(total)), True
    stride = -(-total // site_cap)
    return list(range(0, total, stride)), False


def _skip_plans(site_steps: List[int], burst_len: int) -> List[FaultPlan]:
    kind = "skip" if burst_len == 1 else "skip-burst"
    return [FaultPlan(step=s, kind=kind, burst_len=burst_len)
            for s in site_steps]


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
    trials = _Trials(module, protection, max_steps)
    site_steps, exhaustive = _enumerate_sites(len(trials.sites), site_cap)
    smap = SkipMap(protection, len(trials.sites), exhaustive, burst_len)
    observed = trials.observe(_skip_plans(site_steps, burst_len), "ref")
    for s, obs in zip(site_steps, observed):
        code, dest = trials.sites[s]
        smap.sites.append(SkipSite(
            s, OPCODES[code].value, dest, _classify_outcome(obs, trials.clean)))
    return smap


def check_skip_exhaustive(
    module: Module,
    protection: Optional[str] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    site_cap: int = SKIPMAP_SITE_CAP,
    burst: bool = False,
) -> List[Violation]:
    """O6: exhaustive single-skip model checking.

    For the plain program and (when given) the protected program:

    * the golden run's segments name every in-region dynamic
      instruction, one site per region step — the enumeration covers
      the whole dynamic stream;
    * every site is injected once as a ``skip`` plan, per trial on the
      reference interpreter alone (fast-forwarded from the golden
      prefix, as campaign trials are) and again the way default-backend
      campaigns run it (handed off to the compiled backend, or ended at
      the golden run, once the skip has acted), and each pair's (trap
      kind, detection flag, step counts, return value, final globals)
      must be byte-identical;
    * under the duplication schemes (swift, swift-r) a skip whose victim
      is a *shadow* instruction must never classify as silent
      corruption — the master stream is intact, so the checker detects
      it, the vote masks it, or a poisoned shadow traps/hangs first.

    With *burst* set, every 2-instruction burst is checked the same way
    (reference==compiled only: a burst can straddle master and checker
    instructions, so the shadow contract holds only for single skips).
    Programs larger than *site_cap* are stride-sampled.
    """
    violations: List[Violation] = []
    for prot in [None] + ([protection] if protection else []):
        pipe = (prot,) if prot else ()
        label = prot or "plain"
        trials = _Trials(module, prot, max_steps)
        sites = trials.sites
        site_steps, _exhaustive = _enumerate_sites(len(sites), site_cap)
        if not site_steps:
            continue
        for blen in ([1, 2] if burst else [1]):
            kind = "skip" if blen == 1 else "skip-burst"
            ref, found = trials.compare(
                _skip_plans(site_steps, blen), "o6",
                [f"[{label}] {kind}@{s}" for s in site_steps], pipe,
                ("compiled",))
            violations.extend(found)

            if prot in _SKIP_CONTRACT_SCHEMES and blen == 1:
                for s, obs in zip(site_steps, ref):
                    code, dest = sites[s]
                    if dest is None or not _is_shadow(dest):
                        continue
                    if _classify_outcome(obs, trials.clean) == "sdc":
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


class SlotFlipInterpreter(Interpreter):
    """Interpreter whose injection targets only the register slots that
    ``victim(owner, name, value)`` accepts, *owner* being the function
    of the slot's frame.

    The plan's ``pick`` selects among the qualifying slots of the whole
    frame stack at the chosen step; if none is live, the flip is
    absorbed (architectural masking), mirroring
    :meth:`Interpreter._inject`.
    """

    def __init__(self, *args, victim, **kwargs):
        super().__init__(*args, **kwargs)
        self.flipped: Optional[str] = None
        self._victim = victim

    def _inject(self, regs):
        plan = self.fault_plan
        self._fault_pending = False
        slots = [
            (frame, name)
            for frame, owner in zip(self._frames, self._frame_funcs)
            for name in sorted(frame)
            if self._victim(owner, name, frame[name])
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
        # the application handle (when the family has one) lets the
        # oracle reset stateful runtimes per trial
        program = protect(module_copy(module), descriptor, use_cache=False)
        prepared, intrinsics = program.module, program.intrinsics
        application = program.application
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
    max_steps = max(golden.steps * HANG_FACTOR, 100_000)

    exact = proto.contract == "exactly-masked"
    scope = proto.flip_scope
    if scope == "region":
        # the time-redundant stream: live *float* registers inside
        # protocol-region frames (the outlined loop bodies both the main
        # path and the re-execution run).  Integer registers carry loop
        # counters and addresses, which re-execution validates only
        # indirectly; their direct upset models machine faults outside
        # the value-recompute contract.
        region_funcs = frozenset(
            name for name, fn in prepared.functions.items()
            if fn.attrs.get(PROTOCOL_REGION_ATTR))

        def victim(owner, _name, value):
            return owner in region_funcs and isinstance(value, float)
    else:
        def victim(_owner, name, _value):
            return _is_shadow(name)

    rng = random.Random(stable_seed(seed, "difftest.o3", protection, prepared.name))
    detections = 0
    landed = 0
    for trial in range(samples):
        plan = FaultPlan(
            step=rng.randrange(region_steps), kind="value",
            bit=rng.randrange(64), pick=rng.random(),
        )
        memory = memory_factory() if memory_factory is not None else Memory()
        interp = SlotFlipInterpreter(
            prepared, memory=memory, max_steps=max_steps,
            fault_plan=plan, fault_region=region, victim=victim,
        )
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
        diff = first_diff(golden, ExecResult(
            result.value, _finals(prepared, memory), result.steps))
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

#: Protections O7 campaigns under; any other falls back to the plain
#: program.  The protected-loop families find no target loop in a
#: generated program, so under them O7 would re-check SWIFT-R or the
#: plain program; their campaign-level coverage lives in the eval tests,
#: which prepare workloads through the full pipeline.
_STATELESS_PASSES = ("swift", "swift-r")


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
    trials: int,
    seed: int,
    store,
    reuse: bool,
    backend: str,
):
    """One stratified campaign over *module*, protected once like the
    other oracles' programs (:func:`_prepared`)."""
    from ..eval.incremental import run_campaign_stratified

    prepared = _prepared(module, protection)
    workload = ModuleWorkload(module)
    return run_campaign_stratified(
        workload, prepared.scheme, trials, seed=seed,
        inp=workload.make_input(), prepared=prepared, store=store,
        reuse=reuse, backend=backend)


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
    from .generator import _MUTATION_SWAPS, mutate_function

    prot = protection if protection in _STATELESS_PASSES else None
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
                module, prot, trials, seed, store, False, backend)
            scratch = _observe_stratified(
                mutated, prot, trials, seed, None, False, backend)
            inc = _observe_stratified(
                mutated, prot, trials, seed, store, True, backend)

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
