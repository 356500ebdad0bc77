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

from repro.ir.parser import parse_module
from repro.ir.verifier import verify_module
from repro.runtime import batch as batch_mod
from repro.runtime.batch import SCALAR_CUTOFF, BatchExecutor
from repro.runtime.errors import CoreDumpError, HangError, SegfaultError
from repro.runtime.faults import FaultPlan, Region
from repro.runtime.compiler import CompiledExecutor
from repro.runtime.interpreter import (DecodedProgram, Interpreter,
                                      MachineState, ResumeFrame)
from repro.runtime.memory import Memory

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


def _ref_trial(module, plan, region, max_steps=100_000):
    """One reference-interpreter trial, reduced to the lane observables."""
    memory = Memory()
    interp = Interpreter(
        module, memory=memory, max_steps=max_steps,
        fault_plan=plan, fault_region=region)
    trap = None
    value = None
    try:
        value = interp.run("main", []).value
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
        for lane in range(lanes):
            assert executor.lane_memory(lane).read_global("out", 8) == \
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
            assert executor.lane_memory(0).read_global("out", 8) == \
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
            assert executor.lane_memory(lane).read_global("out", 8) == \
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
        for lane, (plan, res) in enumerate(zip(plans, results)):
            trap, value, steps, rsteps, memory = _ref_trial(module, plan, region)
            assert (res.trap, res.value, res.steps, res.region_steps) == \
                (trap, value, steps, rsteps), f"bit {plan.bit}"
            assert executor.lane_memory(lane).read_global("out", 1) == \
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
    """A tail lane's memory view flattens its allocated prefix into
    ``cells`` (the compiled backend's fast path) and then grows that same
    list on demand, so loads above the ``brk`` it flattened at read
    ``cells`` too."""

    def test_loads_above_brk_after_the_flatten_read_cells(self):
        template = [0.0] * 64
        template[40] = 4.0
        group = {30: 3.0, 45: 4.5}
        overlay = {20: 2.0, 45: 5.0}
        lane = batch_mod._LaneMem(template, {}, 64, group, overlay, 16)
        for _ in range(batch_mod.FLATTEN_AFTER):
            assert lane.load(12) == 0.0
        cells = lane.cells
        assert len(cells) == 16
        lane.allocate(32)  # the lane allocates past the flattened prefix
        assert lane.load(45) == 5.0 and lane.load(30) == 3.0
        # grown in place (code still holding the list sees the growth),
        # the layers folded in, the template beneath them
        assert lane.cells is cells and len(cells) == 46
        assert (cells[20], cells[30], cells[40], cells[45]) == \
            (2.0, 3.0, 4.0, 5.0)
        cells[30] = 7.0
        assert lane.load(30) == 7.0
        lane.store(50, 8.0)  # a store above the prefix grows it too
        assert len(cells) == 64 and lane.cells is cells and cells[50] == 8.0
        assert lane.read_array(44, 8) == [0.0, 5.0, 0.0, 0.0, 0.0, 0.0,
                                          8.0, 0.0]


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

    def test_unfinished_lane_memory_rejected(self):
        module = _load(LOOP_SUM)
        executor = BatchExecutor(module, Memory(), 2)
        with pytest.raises(ValueError, match="not finished"):
            executor.lane_memory(0)
