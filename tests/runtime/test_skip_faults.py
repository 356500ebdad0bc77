"""Instruction-skip and control-flow fault kinds, cross-engine.

The reference interpreter defines the semantics (a skipped instruction
is fetched and counted but its architectural effects are dropped; a
skipped terminator falls through in block-layout order; ``cf`` retargets
the next executed branch to a wrong-but-valid block).  A campaign on the
batch backend runs these trials one by one and hands each off to the
compiled backend once its fault has acted (value flips run as lanes);
it must reproduce them byte-identically — trap kind, step counts,
return value and final global memory — and a trial whose fault left a
live register unwritten must stay on the reference, which turns the
read into a core dump.
"""
from types import SimpleNamespace

import pytest

from repro.eval.fault_campaign import CampaignContext, trial_rows
from repro.eval.schemes import PreparedProgram
from repro.runtime import prefix

from repro.runtime import (
    CompiledExecutor,
    CoreDumpError,
    FaultDetectedError,
    FaultPlan,
    HangError,
    Interpreter,
    SegfaultError,
    TrapError,
)

from repro.ir import F64, I64, Function, IRBuilder, Module, Reg, verify_module
from repro.ir.parser import parse_module

from ..conftest import build_call_module, build_dot_module, seed_memory

MAX_STEPS = 200_000


def build_straightline_module() -> Module:
    """A single-block main: its RET has no layout successor to fall into."""
    m = Module("straight")
    m.add_global("out", 4)
    f = Function("main", [Reg("n", I64)], F64)
    m.add_function(f)
    b = IRBuilder(f)
    op = b.mov(b.global_addr("out"), hint="op")
    v = b.fadd(b.sitofp(f.params[0]), 1.5)
    b.store(v, op)
    b.ret(v)
    verify_module(m)
    return m


def _globals_snapshot(module, mem):
    return {name: mem.read_global(name, g.size)
            for name, g in module.globals.items()}


def _ref_run(build, args, plan):
    """(trap, detected, steps, region_steps, value, globals) on the
    reference interpreter."""
    module = build()
    mem = seed_memory(module)
    interp = Interpreter(module, memory=mem, fault_plan=plan,
                         max_steps=MAX_STEPS)
    trap, detected, value = None, False, None
    try:
        value = interp.run("main", args).value
    except FaultDetectedError:
        detected = True
    except SegfaultError:
        trap = "segfault"
    except HangError:
        trap = "hang"
    except (CoreDumpError, TrapError):
        trap = "coredump"
    finals = None if trap else _globals_snapshot(module, mem)
    return trap, detected, interp.steps, interp.region_steps, value, finals


def _campaign_run(build, args, plans, backend="batch"):
    """One observation tuple per plan from the campaign's trial runner on
    *backend*, every trial from scratch (a context without a golden
    prefix)."""
    module = build()
    workload = SimpleNamespace(fresh_memory=lambda module, inp: seed_memory(module))
    rows = []
    for res in trial_rows(PreparedProgram("UNSAFE", module), workload,
                          SimpleNamespace(args=list(args)),
                          CampaignContext(None, [], [], 0, MAX_STEPS), plans,
                          backend):
        finals = None
        if res.trap is None:
            finals = _globals_snapshot(module, res.memory)
        rows.append((res.trap, res.detected, res.steps, res.region_steps,
                     res.value, finals))
    return rows


def _count_steps(build, args):
    module = build()
    interp = Interpreter(module, memory=seed_memory(module),
                         max_steps=MAX_STEPS)
    interp.run("main", args)
    return interp.steps


class TestSkipSemantics:
    def test_skip_still_counts_the_step(self):
        """A skipped non-terminator drops its effects but not its slot in
        the dynamic stream: a completed run has the golden step count."""
        golden_steps = _count_steps(lambda: build_dot_module(4), [3, 4])
        trap, _, steps, _, _, finals = _ref_run(
            lambda: build_dot_module(4), [3, 4], FaultPlan(step=2, kind="skip"))
        if trap is None:
            assert steps == golden_steps
        assert trap is not None or finals is not None

    def test_skip_a_store_corrupts_exactly_that_output(self):
        """Skipping the final store of one outer iteration leaves that
        output cell at its seed value and every other cell golden."""
        build = lambda: build_dot_module(4)
        _, _, _, _, _, golden = _ref_run(build, [3, 4], None)
        module = build()
        seeded = _globals_snapshot(module, seed_memory(module))
        hit = 0
        for step in range(_count_steps(build, [3, 4])):
            trap, _, _, _, _, finals = _ref_run(
                build, [3, 4], FaultPlan(step=step, kind="skip"))
            if trap is not None or finals == golden:
                continue
            diff = [i for i in range(len(golden["out"]))
                    if finals["out"][i] != golden["out"][i]]
            if len(diff) == 1 and finals["out"][diff[0]] == seeded["out"][diff[0]]:
                hit += 1
        assert hit >= 3  # one skipped store per outer iteration

    def test_skipped_final_ret_falls_off_the_function(self):
        """A single-block main's RET has nowhere to fall through to;
        skipping it must coredump in both engines, not wedge."""
        build = build_straightline_module
        last = _count_steps(build, [2]) - 1
        plan = FaultPlan(step=last, kind="skip")
        trap, detected, _, _, _, _ = _ref_run(build, [2], plan)
        assert trap == "coredump"
        assert not detected
        _cross_check(build, [2], [plan])

    def test_burst_drops_consecutive_instructions(self):
        """A 3-burst at the same site diverges from the single skip —
        the extra dropped instructions are architecturally visible."""
        build = lambda: build_dot_module(4)
        single = _ref_run(build, [3, 4], FaultPlan(step=5, kind="skip"))
        burst = _ref_run(build, [3, 4],
                         FaultPlan(step=5, kind="skip-burst", burst_len=3))
        assert single != burst

    def test_cf_is_deterministic_in_pick(self):
        build = lambda: build_dot_module(4)
        a = _ref_run(build, [3, 4], FaultPlan(step=10, kind="cf", pick=0.3))
        b = _ref_run(build, [3, 4], FaultPlan(step=10, kind="cf", pick=0.3))
        assert a == b

    def test_cf_can_change_control_flow(self):
        build = lambda: build_dot_module(4)
        golden = _ref_run(build, [3, 4], None)
        diverged = 0
        for step in (5, 20, 40, 60):
            for pick in (0.0, 0.5, 0.99):
                out = _ref_run(build, [3, 4],
                               FaultPlan(step=step, kind="cf", pick=pick))
                if out[:1] != golden[:1] or out[5] != golden[5]:
                    diverged += 1
        assert diverged > 0


def _cross_check(build, args, plans):
    ref = [_ref_run(build, args, p) for p in plans]
    batch = _campaign_run(build, args, plans)
    for i, (r, b) in enumerate(zip(ref, batch)):
        assert r == b, f"trial {i} plan {plans[i]}: ref={r[:5]} batch={b[:5]}"


class TestCrossEngine:
    @pytest.mark.parametrize("kind", ["skip", "branch", "addr"])
    def test_skip_sites_byte_identical(self, kind):
        """A fault at every 3rd step of the dot kernel, ref vs the batch
        backend: triggers land on its ``cbr``, ``load`` and ``store``
        sites.  None of these trials runs as a lane: each fires its fault
        on the reference interpreter and is handed off once it has
        acted."""
        build = lambda: build_dot_module(4)
        total = _count_steps(build, [3, 4])
        plans = [FaultPlan(step=s, kind=kind) for s in range(0, total, 3)]
        _cross_check(build, [3, 4], plans)

    def test_bursts_and_cf_byte_identical(self):
        build = lambda: build_dot_module(4)
        total = _count_steps(build, [3, 4])
        plans = [FaultPlan(step=s, kind="skip-burst", burst_len=2)
                 for s in range(0, total, 7)]
        plans += [FaultPlan(step=s, kind="cf", pick=p)
                  for s in range(0, total, 11) for p in (0.0, 0.49, 0.99)]
        _cross_check(build, [3, 4], plans)

    def test_call_module_mixed_kinds_byte_identical(self):
        """Skips across a CALL boundary (dropped calls, skipped callee
        instructions, skipped RETs) plus classic kinds in the same slab
        (its value flip a lane)."""
        build = build_call_module
        total = _count_steps(build, [4])
        plans = [FaultPlan(step=s, kind="skip") for s in range(0, total, 5)]
        plans += [FaultPlan(step=s, kind="skip-burst", burst_len=3)
                  for s in range(2, total, 13)]
        plans += [FaultPlan(step=7, kind="cf", pick=0.6),
                  FaultPlan(step=3, kind="value", bit=40, pick=0.2),
                  FaultPlan(step=9, kind="branch", pick=0.0)]
        _cross_check(build, [4], plans)


#: ``%x`` is written in ``def`` alone and read in ``use``: a skip of its
#: definition, or a cf fault retargeting ``entry``'s branch past ``def``,
#: reaches ``use`` with a live register unwritten
UNDEF_READ = """
module undef_read

global @out 1 f64

func @main(%n: i64) -> f64 {
entry:
  %k = add %n, 1:i64
  br def
def:
  %x = sitofp %k
  br use
use:
  %y = fadd %x, 1.5:f64
  store %y, @out
  ret %y
}
"""


class TestLiveRegisterGuard:
    @pytest.mark.parametrize("plan", [
        FaultPlan(step=2, kind="skip"),
        FaultPlan(step=1, kind="cf", pick=0.99)], ids=["skip", "cf"])
    def test_trial_with_an_unwritten_live_register_stays_on_the_reference(
            self, monkeypatch, plan):
        """The fault has acted by the time ``use`` is entered, yet ``%x``,
        live there, was never written: the hand-off must not happen, and
        the trial core-dumps on the reference under both backends."""
        build = lambda: parse_module(UNDEF_READ)
        built = []

        class Recorded(CompiledExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(prefix, "CompiledExecutor", Recorded)
        ref = _campaign_run(build, [2], [plan], "ref")
        assert ref == [_ref_run(build, [2], plan)]
        assert ref[0][0] == "coredump"
        assert _campaign_run(build, [2], [plan], "compiled") == ref
        assert not built
        # a skipped ``br def`` falls through to ``def``: masked, and the
        # trial hands off as it enters that block
        masked = FaultPlan(step=1, kind="skip")
        assert _campaign_run(build, [2], [masked], "compiled") == \
            [_ref_run(build, [2], masked)]
        assert built
