"""Lane semantics of the batch engine (`repro.runtime.batch`).

Every observable of a batched lane — return value, trap kind, step and
region-step counts, final memory — must match what the reference
interpreter produces for the same program and fault plan run alone.
The difftest O5 oracle fuzzes this property; these tests pin the named
divergence-handling cases: a lane trapping while the rest of the batch
runs on, every row of a register diverging at once, every lane hanging
against the step budget, and a single-lane batch degenerating to a
plain trial.
"""
import pytest

from repro.eval import Harness
from repro.eval.fault_campaign import (campaign_context, campaign_input,
                                       seeded_plans, trial_rows)
from repro.eval.schemes import prepare
from repro.ir.parser import parse_module
from repro.ir.verifier import verify_module
from repro.runtime import batch as batch_mod
from repro.runtime import prefix as prefix_mod
from repro.runtime.batch import SCALAR_CUTOFF, BatchExecutor
from repro.runtime.errors import CoreDumpError, HangError, SegfaultError
from repro.runtime.faults import FaultPlan, Region
from repro.runtime.compiler import CompiledExecutor, compile_module
from repro.runtime.interpreter import (DecodedProgram, Interpreter,
                                      MachineState, ResumeFrame)
from repro.runtime.memory import Memory
from repro.runtime.prefix import finish
from repro.workloads import get_workload

from .test_compiler import contents, same_value

LOOP_SUM = """
module batch_loop_sum

global @a 8 f64 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
global @out 8 f64

func @main() -> f64 {
entry:
  %ap = mov @a
  %op = mov @out
  %sum = mov 0.0:f64
  %i = mov 0:i64
  br head
head:
  %c = icmp lt %i, 8:i64
  cbr %c, body, exit
body:
  %addr = add %ap, %i
  %x = load %addr : f64
  %oaddr = add %op, %i
  store %x, %oaddr
  %nsum = fadd %sum, %x
  %sum = mov %nsum
  %ni = add %i, 1:i64
  %i = mov %ni
  br head
exit:
  ret %sum
}
"""

SPIN = """
module batch_spin

func @main() -> f64 {
entry:
  %i = mov 0:i64
  br head
head:
  %c = icmp lt %i, 1:i64
  cbr %c, head, exit
exit:
  ret 0.0:f64
}
"""


def _load(text):
    module = parse_module(text)
    verify_module(module)
    return module


def _region(module):
    return Region(funcs=tuple(module.functions))


def same_cells(a, b) -> bool:
    """Two memories' cells agree, a NaN matching a NaN."""
    return a == b or (len(a) == len(b) and all(map(same_value, a, b)))


def _ref_trial(module, plan, region, max_steps=100_000, args=()):
    """One reference-interpreter trial, reduced to the lane observables."""
    memory = Memory()
    interp = Interpreter(
        module, memory=memory, max_steps=max_steps,
        fault_plan=plan, fault_region=region)
    trap = None
    value = None
    try:
        value = interp.run("main", list(args)).value
    except SegfaultError:
        trap = "segfault"
    except HangError:
        trap = "hang"
    except CoreDumpError:
        trap = "coredump"
    return trap, value, interp.steps, interp.region_steps, memory


class TestCleanLanes:
    def test_all_lanes_reproduce_the_interpreter(self):
        module = _load(LOOP_SUM)
        _, value, steps, rsteps, memory = _ref_trial(
            module, None, _region(module))
        lanes = SCALAR_CUTOFF + 4  # force the lockstep path
        executor = BatchExecutor(module, Memory(), lanes,
                                 fault_region=_region(module))
        for res in executor.run("main", []):
            assert res.trap is None and not res.detected
            assert res.value == value == pytest.approx(36.0)
            assert (res.steps, res.region_steps) == (steps, rsteps)
            assert res.memory.read_global("out", 8) == \
                memory.read_global("out", 8)

    def test_single_lane_batch_is_a_plain_trial(self):
        module = _load(LOOP_SUM)
        region = _region(module)
        plan = FaultPlan(step=9, kind="value", bit=13, pick=0.4)
        trap, value, steps, rsteps, memory = _ref_trial(module, plan, region)
        executor = BatchExecutor(module, Memory(), 1, fault_plans=[plan],
                                 fault_region=region, max_steps=100_000)
        (res,) = executor.run("main", [])
        assert (res.trap, res.value, res.steps, res.region_steps) == \
            (trap, value, steps, rsteps)
        if trap is None:
            assert res.memory.read_global("out", 8) == \
                memory.read_global("out", 8)


class TestDivergence:
    def test_lane0_traps_while_the_rest_run_on(self, monkeypatch):
        """A value flip of a load's address register segfaults lane 0 in
        lockstep; the surviving lanes must retire it and still finish
        with the clean answer and step count."""
        module = _load(LOOP_SUM)
        region = _region(module)
        # step 8 is the first ``load %addr``; pick 0.0 lands on %addr (the
        # first live name) and bit 22 moves it far outside the template
        trap_plan = FaultPlan(step=8, kind="value", bit=22, pick=0.0)
        ref_rows = [_ref_trial(module, trap_plan, region),
                    _ref_trial(module, None, region)]
        assert ref_rows[0][0] == "segfault"

        tail_plans = []
        real_finish = batch_mod.finish

        def recording_finish(module, memory, plan, *args, **kw):
            tail_plans.append(plan)
            return real_finish(module, memory, plan, *args, **kw)

        monkeypatch.setattr(batch_mod, "finish", recording_finish)
        lanes = SCALAR_CUTOFF + 4
        plans = [trap_plan] + [None] * (lanes - 1)
        executor = BatchExecutor(module, Memory(), lanes, fault_plans=plans,
                                 fault_region=region, max_steps=100_000)
        results = executor.run("main", [])
        assert trap_plan not in tail_plans  # it retired in lockstep
        trap_r, _, steps_r, rsteps_r, _ = ref_rows[0]
        assert (results[0].trap, results[0].steps, results[0].region_steps) \
            == (trap_r, steps_r, rsteps_r)
        _, value_c, steps_c, rsteps_c, memory_c = ref_rows[1]
        for lane in range(1, lanes):
            res = results[lane]
            assert res.trap is None and not res.detected
            assert res.value == value_c
            assert (res.steps, res.region_steps) == (steps_c, rsteps_c)
            assert res.memory.read_global("out", 8) == \
                memory_c.read_global("out", 8)

    def test_every_row_diverges_then_some_trap(self):
        """Every lane flips a different bit of the same register at the
        same step, so no lane holds the column's base value (0) any more.
        Dividing by it traps on the base alone; the later ``srem`` traps
        on the lanes whose quotient hit 0 while the others reconverge."""
        module = _load(WIDE)
        region = _region(module)
        bits = [0, 1, 2, 3, 5, 8, 11, 12, 13, 20, 40, 63]
        assert len(bits) >= SCALAR_CUTOFF + 4
        plans = [FaultPlan(step=1, kind="value", pick=0.0, bit=b)
                 for b in bits]
        executor = BatchExecutor(module, Memory(), len(plans),
                                 fault_plans=plans, fault_region=region,
                                 max_steps=100_000)
        results = executor.run("main", [])
        assert {res.trap for res in results} == {None, "coredump"}
        for plan, res in zip(plans, results):
            trap, value, steps, rsteps, memory = _ref_trial(module, plan, region)
            assert (res.trap, res.value, res.steps, res.region_steps) == \
                (trap, value, steps, rsteps), f"bit {plan.bit}"
            assert res.memory.read_global("out", 1) == \
                memory.read_global("out", 1)

    def test_all_lanes_hang_against_the_step_budget(self):
        """A batch whose every lane spins must charge each lane exactly
        the hang budget — not multiply it by the lane count, and not run
        past it — mirroring the serial HANG_FACTOR cutoff per trial."""
        module = _load(SPIN)
        budget = 500
        trap, _, steps, _, _ = _ref_trial(module, None, _region(module),
                                          max_steps=budget)
        assert trap == "hang"

        lanes = SCALAR_CUTOFF + 4
        executor = BatchExecutor(module, Memory(), lanes,
                                 fault_region=_region(module),
                                 max_steps=budget)
        for res in executor.run("main", []):
            assert res.trap == "hang"
            assert res.steps == steps  # the interpreter's exact cutoff


WIDE = """
module batch_wide

global @a 8 i64 = [10, 11, 12, 13, 14, 15, 16, 17]
global @out 1 i64

func @main() -> i64 {
entry:
  %d = mov 0:i64
  %q = sdiv 4096:i64, %d
  %r = srem 7:i64, %q
  %i = and %r, 7:i64
  %p = add @a, %i
  %x = load %p : i64
  store %x, @out
  ret %x
}
"""

CALLER = """
module batch_caller

func @main() -> f64 {
entry:
  %a = mov 2.0:f64
  %r = call @f(%a) : f64
  %s = fadd %r, %a
  ret %s
}

func @f(%x: f64) -> f64 {
entry:
  %y = fmul %x, 3.0:f64
  %z = fadd %y, 1.0:f64
  ret %z
}
"""


class TestResume:
    """Both clean engines continue a paused two-frame execution: the
    callee from mid-block, then the caller after its pending call."""

    @pytest.mark.parametrize("engine", [Interpreter, CompiledExecutor])
    @pytest.mark.parametrize("region", [None, Region(funcs=("f",))],
                             ids=["everything", "callee"])
    def test_resume_inside_a_callee(self, engine, region):
        module = _load(CALLER)
        ref = Interpreter(module, memory=Memory(), fault_region=region)
        want = ref.run("main", [])
        # paused after @f's fmul: steps mov, call, fmul
        state = MachineState(
            [ResumeFrame("main", "entry", 2, {"a": 2.0}),
             ResumeFrame("f", "entry", 1, {"x": 2.0, "y": 6.0})],
            Memory(), steps=3, region_steps=3 if region is None else 1)
        got = engine(module, memory=state.memory,
                     fault_region=region).run("main", state=state)
        assert (got.value, got.steps, got.region_steps) == \
            (want.value, want.steps, want.region_steps) == \
            (9.0, 7, 7 if region is None else 3)


class TestLaneMemory:
    """A lane that leaves lockstep runs on a :class:`Memory` of its own
    (the template, its group's write layer, then its overlay) and ends
    with it: the cells its trial ends with on the reference interpreter,
    whether its flip was still pending when it left or had fired in
    lockstep."""

    @pytest.mark.parametrize("workload_name,scheme", [
        ("sgemm", "AR50"), ("blackscholes", "SWIFT")])
    def test_tail_lanes_end_on_the_reference_memory(self, monkeypatch,
                                                    workload_name, scheme):
        workload = get_workload(workload_name)
        profiles = None
        if scheme == "AR50":
            profiles = Harness(workload, scale=0.35,
                               timing=False).profiles_for(0.5)
        inp = campaign_input(workload, 1, 0.35)
        prepared = prepare(workload, scheme, None, profiles)
        ctx = campaign_context(prepared, workload, inp)
        plans = [plan for plan in seeded_plans(1, workload_name, scheme, 0,
                                               100, ctx.region_steps)
                 if plan.kind == "value"]
        tail = {}
        real_finish = batch_mod.finish

        def recording_finish(module, memory, plan, *args, **kw):
            tail[id(plan)] = (kw["state"].trigger is not None, memory)
            return real_finish(module, memory, plan, *args, **kw)

        monkeypatch.setattr(batch_mod, "finish", recording_finish)
        # 8-lane slabs: a group drops to the tail at its first divergence,
        # often before the flips of the lanes left in it have fired
        got = list(trial_rows(prepared, workload, inp, ctx, plans, "batch",
                              lanes=SCALAR_CUTOFF + 2))
        want = list(trial_rows(prepared, workload, inp, ctx, plans, "ref"))
        assert {pending for pending, _ in tail.values()} == {True, False}
        for plan, row, ref in zip(plans, got, want):
            if id(plan) not in tail:
                continue
            assert type(row.memory) is Memory
            assert row.memory is tail[id(plan)][1]
            assert (row.trap, row.steps, row.region_steps) == \
                (ref.trap, ref.steps, ref.region_steps)
            assert same_cells(contents(row.memory), contents(ref.memory))


ALLOC = """
module batch_alloc

global @out 2 i64

func @main(%a: i64) -> i64 {
entry:
  %b = alloc 3:i64
  %c = add %a, 0:i64
  br grab
grab:
  %p = alloc %c
  store %c, %p
  store %p, @out
  ret %p
}
"""


def _segfault(fn):
    """``fn()``'s segfault as (message, address)."""
    with pytest.raises(SegfaultError) as info:
        fn()
    return str(info.value), info.value.address


class TestAllocTraps:
    """An ``alloc`` whose size is non-positive or runs past the memory
    traps with the same message, address and step counts on every
    engine: the reference interpreter, the compiled backend, a uniform
    and a per-row lockstep group, and a lane in the tail (on the
    reference before its flip fires, on the compiled backend after)."""

    @staticmethod
    def record_traps(monkeypatch):
        """Every trial-ending exception the batch engine and ``finish``
        classify, in order."""
        seen = []
        for mod in (batch_mod, prefix_mod):
            def recording(exc, real=mod.classify_trap):
                seen.append(exc)
                return real(exc)
            monkeypatch.setattr(mod, "classify_trap", recording)
        return seen

    @staticmethod
    def reference(module, region, plan, size):
        interp = Interpreter(module, memory=Memory(), fault_plan=plan,
                             fault_region=region)
        trap = _segfault(lambda: interp.run("main", [size]))
        return trap, interp.steps, interp.region_steps

    def check_lanes(self, rows, seen, lanes, want):
        trap, steps, rsteps = want
        for lane in lanes:
            assert (rows[lane].trap, rows[lane].steps,
                    rows[lane].region_steps) == ("segfault", steps, rsteps)
        assert [(str(exc), exc.address) for exc in seen] == \
            [trap] * len(seen) and seen

    @pytest.mark.parametrize("size", [0, -5, 1 << 20])
    def test_a_uniform_size(self, monkeypatch, size):
        module = _load(ALLOC)
        region = _region(module)
        want = self.reference(module, region, None, size)
        assert ("out of memory" in want[0][0]) == (size > 0)
        compiled = CompiledExecutor(module, memory=Memory(),
                                    fault_region=region)
        trap = _segfault(lambda: compiled.run("main", [size]))
        assert (trap, compiled.steps, compiled.region_steps) == want
        seen = self.record_traps(monkeypatch)
        lanes = SCALAR_CUTOFF + 2
        rows = BatchExecutor(module, Memory(), lanes,
                             fault_region=region).run("main", [size])
        self.check_lanes(rows, seen, range(lanes), want)
        assert len(seen) == 1  # the whole group retired at once

    @pytest.mark.parametrize("bit", [2, 20, 63])  # 4 -> 0, 2**20 + 4, < 0
    def test_a_flipped_size(self, monkeypatch, bit):
        """The flip lands on the size's source ``%a`` in the entry block,
        so a reference trial hands off at ``grab`` and traps compiled."""
        module = _load(ALLOC)
        region = _region(module)
        plan = FaultPlan(step=1, kind="value", bit=bit, pick=0.0)
        want = self.reference(module, region, plan, 4)
        seen = self.record_traps(monkeypatch)
        handoffs = []
        real_compiled = prefix_mod.CompiledExecutor

        def counting(*args, **kw):
            handoffs.append(1)
            return real_compiled(*args, **kw)

        monkeypatch.setattr(prefix_mod, "CompiledExecutor", counting)
        row = finish(module, Memory(), plan, {}, region, 100_000, None,
                     compile_module(module), "main", [4], handoff=True)
        self.check_lanes([row], seen, [0], want)
        assert handoffs == [1]
        # a per-row group: three lanes trap, the rest run on in lockstep
        del seen[:]
        lanes = SCALAR_CUTOFF + 4
        plans = [plan] * 3 + [None] * (lanes - 3)
        rows = BatchExecutor(module, Memory(), lanes, fault_plans=plans,
                             fault_region=region).run("main", [4])
        self.check_lanes(rows, seen, range(3), want)
        assert len(seen) == 3 and handoffs == [1]
        assert {rows[lane].trap for lane in range(3, lanes)} == {None}
        # a lane alone in the tail: it hands off, as the trial did
        del seen[:]
        rows = BatchExecutor(module, Memory(), 1, fault_plans=[plan],
                             fault_region=region).run("main", [4])
        self.check_lanes(rows, seen, [0], want)
        assert handoffs == [1, 1]

    def test_a_tail_lane_traps_on_the_reference(self, monkeypatch):
        """A flip of ``%c`` just before the ``alloc``: the tail lane
        traps before any block entry could hand it off."""
        module = _load(ALLOC)
        region = _region(module)
        # slots a, b, c at step 3; pick 0.04 lands on the third
        plan = FaultPlan(step=3, kind="value", bit=2, pick=0.04)
        want = self.reference(module, region, plan, 4)
        seen = self.record_traps(monkeypatch)
        monkeypatch.setattr(prefix_mod, "CompiledExecutor", None)
        rows = BatchExecutor(module, Memory(), 1, fault_plans=[plan],
                             fault_region=region).run("main", [4])
        self.check_lanes(rows, seen, [0], want)


HIGH_LOADS = """
module batch_high_loads

global @g 4 i64

func @main(%o: i64) -> i64 {
entry:
  %u = add @g, 3000:i64
  %x = load %u : i64
  %a = add @g, %o
  %y = load %a : i64
  store %o, %u
  %z = load %u : i64
  store %a, %a
  %v = load %a : i64
  %gp = mov @g
  store %x, %gp
  %g1 = add %gp, 1:i64
  store %y, %g1
  %g2 = add %gp, 2:i64
  store %z, %g2
  %g3 = add %gp, 3:i64
  store %v, %g3
  ret %v
}
"""


class TestLoadsAboveTheMark:
    """The template ends at its high-water mark (just past ``@g``), and
    lockstep loads above it read ``0.0``: at a uniform address, at a
    column's base and exception rows, and (once one lane's address traps)
    row by row; a load there then reads back the group layer's and each
    overlay's store.  Every lane ends as its reference trial."""

    @pytest.mark.parametrize("trapping", [False, True],
                             ids=["column", "per-row"])
    def test_lanes_read_zero_and_their_stores(self, trapping):
        module = _load(HIGH_LOADS)
        region = _region(module)
        # the flip lands on %o before the first instruction
        plans = [FaultPlan(step=0, kind="value", bit=bit, pick=0.0)
                 for bit in (3, 4, 6, 7)] + [None] * (SCALAR_CUTOFF + 1)
        if trapping:
            plans[-1] = FaultPlan(step=0, kind="value", bit=40, pick=0.0)
        template = Memory()
        template.load_globals(module)
        assert len(template.cells) < 2008
        executor = BatchExecutor(module, template, len(plans),
                                 fault_plans=plans, fault_region=region)
        rows = executor.run("main", [2000])
        for lane, (plan, row) in enumerate(zip(plans, rows)):
            trap, value, steps, rsteps, memory = _ref_trial(
                module, plan, region, args=[2000])
            assert (row.trap, row.value, row.steps, row.region_steps) == \
                (trap, value, steps, rsteps)
            assert same_cells(contents(row.memory), contents(memory))
        assert rows[0].memory.read_global("g", 2) == [0.0, 0.0]
        assert (rows[-1].trap == "segfault") == trapping


class TestConstruction:
    def test_zero_lanes_rejected(self):
        module = _load(LOOP_SUM)
        with pytest.raises(ValueError, match="at least one lane"):
            BatchExecutor(module, Memory(), 0)

    def test_plan_count_must_match_lanes(self):
        module = _load(LOOP_SUM)
        with pytest.raises(ValueError, match="per lane"):
            BatchExecutor(module, Memory(), 4, fault_plans=[None] * 3)

    @pytest.mark.parametrize("kind", ["branch", "addr", "skip", "skip-burst",
                                      "cf"])
    def test_plans_other_than_value_flips_rejected(self, kind):
        module = _load(LOOP_SUM)
        plans = [FaultPlan(step=3, kind="value"), FaultPlan(step=5, kind=kind)]
        with pytest.raises(ValueError, match="value flips only"):
            BatchExecutor(module, Memory(), 2, fault_plans=plans)

    @pytest.mark.parametrize("other", ["module", "region", "layout"])
    def test_decoded_program_for_another_program_rejected(self, other):
        """Both engines refuse a shared decode built for another module,
        fault region or global layout (it holds their global addresses
        and region flags)."""
        module = _load(LOOP_SUM)
        region = _region(module)
        memory = Memory()
        memory.load_globals(module)
        decoded = DecodedProgram(module, region, memory)
        # the program it was built for fits
        Interpreter(module, memory=Memory(), fault_region=region, decoded=decoded)
        BatchExecutor(module, Memory(), 2, fault_region=region, decoded=decoded)
        memory = Memory()
        if other == "module":
            module = _load(LOOP_SUM)
        elif other == "region":
            region = Region(blocks=(("main", "body"),))
        else:
            memory.allocate(4)  # the globals land 4 cells higher
        with pytest.raises(ValueError, match="another module"):
            Interpreter(module, memory=memory, fault_region=region,
                        decoded=decoded)
        with pytest.raises(ValueError, match="another module"):
            BatchExecutor(module, memory, 2, fault_region=region,
                          decoded=decoded)
