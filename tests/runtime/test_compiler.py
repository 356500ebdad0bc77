"""Golden per-opcode tests for every execution engine.

Every case runs under the reference :class:`Interpreter` and the
:class:`CompiledExecutor` and asserts the full observable state matches:
return value (NaN-aware), step count, per-opcode counts, region steps
and final memory — or, on trap paths, the exact exception type and
message plus exact step and region-step counts.  Most cases also run on
the :class:`BatchExecutor`, both on its lockstep uniform path and as a
one-lane batch (whose tail resumes on the compiled backend).  Every
engine's inlined copy of a hot op is checked against the semantics
table's ``apply`` directly, value and type, over ints, wrap-sized ints,
floats, NaN, infinities and mixed types
(:func:`test_vector_path_matches_table`).  Plus compile-cache identity
and the backend dispatch rules.
"""
import math
import random

import pytest

from repro.ir import Opcode, parse_module
from repro.ir.printer import format_module
from repro.runtime import (
    BACKENDS,
    CompiledExecutor,
    CoreDumpError,
    HangError,
    Interpreter,
    Memory,
    SegfaultError,
    clear_compile_cache,
    compile_module,
    make_executor,
    module_fingerprint,
    set_default_backend,
)
from repro.runtime.batch import SCALAR_CUTOFF, BatchExecutor
from repro.eval.schemes import fault_region, prepare
from repro.runtime.faults import FaultPlan, Region
from repro.runtime.interpreter import MachineState, ResumeFrame
from repro.runtime.scheduler import TimingModel
from repro.runtime.semantics import CODE, OPCODES, PRED, apply
from repro.workloads import ALL_WORKLOADS

from ..conftest import (
    build_call_module,
    build_dot_module,
    build_rmw_module,
    seed_memory,
)

pytestmark = pytest.mark.backend


def module_of(body: str, ret_ty: str = "f64", params: str = ""):
    return parse_module(
        f"func @main({params}) -> {ret_ty} {{\nentry:\n{body}\n}}\n"
    )


def observe(cls, module, args=(), max_steps=1_000_000, intrinsics=None,
            seed=False):
    """One run reduced to a comparable tuple, plus the memory it used and
    the engine's final (steps, region steps) — exact on trap paths too."""
    mem = seed_memory(module) if seed else Memory()
    engine = cls(module, memory=mem, max_steps=max_steps)
    if intrinsics:
        engine.register_intrinsics(intrinsics)
    try:
        result = engine.run("main", list(args))
    except Exception as exc:  # noqa: BLE001 - traps are part of the contract
        counters = (engine.steps, getattr(engine, "region_steps", None))
        return ("raised", type(exc).__name__, str(exc), exc.args), mem, counters
    counters = (engine.steps, getattr(engine, "region_steps", None))
    return (
        "ok", result.value, result.steps, dict(result.counts),
        result.region_steps,
    ), mem, counters


def same_value(a, b) -> bool:
    return a == b or (
        isinstance(a, float) and isinstance(b, float)
        and math.isnan(a) and math.isnan(b)
    )


def assert_same_run(ref, other):
    """Observation tuples agree, a NaN return value matching a NaN."""
    if ref[0] == "ok" and isinstance(ref[1], float) and math.isnan(ref[1]):
        assert other[0] == "ok" and math.isnan(other[1])
        assert ref[2:] == other[2:]
    else:
        assert ref == other


def contents(memory):
    """Every addressable cell (8 and up) of *memory*, those above its
    high-water mark included."""
    return memory.read_array(8, memory.size - 8)


def assert_same_memory(ref_mem, cells):
    """Every addressable cell (8 and up) of *cells* matches *ref_mem*."""
    assert len(cells) == ref_mem.size - 8
    for i, (a, b) in enumerate(zip(contents(ref_mem), cells), start=8):
        assert same_value(a, b), f"memory cell {i}: {a!r} != {b!r}"


#: the trap kind a batch lane records for each reference exception
TRAP_KIND = {"CoreDumpError": "coredump", "SegfaultError": "segfault",
             "HangError": "hang"}


def assert_backends_agree(module, args=(), max_steps=1_000_000,
                          intrinsics_factory=None, seed=False,
                          every_engine=True):
    """Run *module* on the reference interpreter and the compiled backend
    and, with *every_engine*, on the batch engine with
    ``SCALAR_CUTOFF + 1`` clean lanes (uniform lockstep path) and with one
    lane (the tail, resumed on the compiled backend).  The compiled
    backend's steps and region steps must match on trap paths too.  The
    batch engine keeps no per-opcode counts and records a trap kind
    rather than an exception, so against it only the value, trap kind,
    steps, region steps and memory are compared."""
    def run(cls):
        return observe(cls, module, args, max_steps,
                       intrinsics_factory() if intrinsics_factory else None,
                       seed)

    ref, ref_mem, ref_counters = run(Interpreter)
    comp, comp_mem, comp_counters = run(CompiledExecutor)
    assert_same_run(ref, comp)
    assert comp_counters == ref_counters
    assert_same_memory(ref_mem, contents(comp_mem))
    if not every_engine:
        return ref

    for n_lanes in (SCALAR_CUTOFF + 1, 1):
        template = seed_memory(module) if seed else Memory()
        engine = BatchExecutor(
            module, template, n_lanes, max_steps=max_steps,
            intrinsics=intrinsics_factory() if intrinsics_factory else None)
        for res in engine.run("main", list(args)):
            if ref[0] == "ok":
                assert res.trap is None and not res.detected
                assert same_value(res.value, ref[1])
                assert (res.steps, res.region_steps) == (ref[2], ref[4])
            else:
                assert (res.trap, res.steps, res.region_steps) == \
                    (TRAP_KIND[ref[1]], *ref_counters)
            assert_same_memory(ref_mem, contents(res.memory))
    return ref


#: (id, body, expected return value) — one golden case per opcode family.
GOLDEN = [
    ("mov", "  %a = mov 7:i64\n  %f = sitofp %a\n  ret %f", 7.0),
    ("add", "  %a = add 40:i64, 2:i64\n  %f = sitofp %a\n  ret %f", 42.0),
    ("sub", "  %a = sub 40:i64, 2:i64\n  %f = sitofp %a\n  ret %f", 38.0),
    ("mul_wrap",
     "  %a = mul 123456789123:i64, 987654321987:i64\n"
     "  %b = mul %a, %a\n  %c = mul %b, %b\n  %d = srem %c, 1000:i64\n"
     "  %f = sitofp %d\n  ret %f", 449.0),
    ("sdiv", "  %a = sdiv -7:i64, 2:i64\n  %f = sitofp %a\n  ret %f", -3.0),
    ("srem", "  %a = srem -7:i64, 2:i64\n  %f = sitofp %a\n  ret %f", -1.0),
    ("fadd", "  %a = fadd 1.5:f64, 2.25:f64\n  ret %a", 3.75),
    ("fsub", "  %a = fsub 1.5:f64, 2.25:f64\n  ret %a", -0.75),
    ("fmul", "  %a = fmul 1.5:f64, 2.0:f64\n  ret %a", 3.0),
    ("fdiv", "  %a = fdiv 3.0:f64, 2.0:f64\n  ret %a", 1.5),
    ("fdiv_pole", "  %a = fdiv -1.0:f64, 0.0:f64\n  ret %a", -math.inf),
    ("fdiv_nan", "  %a = fdiv 0.0:f64, 0.0:f64\n  ret %a", math.nan),
    ("fneg", "  %a = fneg 1.5:f64\n  ret %a", -1.5),
    ("fabs", "  %a = fabs -1.5:f64\n  ret %a", 1.5),
    ("sqrt", "  %a = sqrt 2.25:f64\n  ret %a", 1.5),
    ("sqrt_neg", "  %a = sqrt -4.0:f64\n  ret %a", math.nan),
    ("exp", "  %a = exp 1.0:f64\n  ret %a", math.e),
    ("exp_sat", "  %a = exp 1000.0:f64\n  ret %a", math.inf),
    ("log", "  %a = log 1.0:f64\n  ret %a", 0.0),
    ("log_sat", "  %a = log -1.0:f64\n  ret %a", math.nan),
    ("log_zero", "  %a = log 0.0:f64\n  ret %a", math.nan),
    ("sin", "  %a = sin 0.5:f64\n  ret %a", math.sin(0.5)),
    ("sin_inf", "  %x = fdiv 1.0:f64, 0.0:f64\n  %a = sin %x\n  ret %a",
     math.nan),
    ("cos", "  %a = cos 0.5:f64\n  ret %a", math.cos(0.5)),
    ("cos_inf", "  %x = fdiv 1.0:f64, 0.0:f64\n  %a = cos %x\n  ret %a",
     math.nan),
    ("floor", "  %a = floor 2.75:f64\n  ret %a", 2.0),
    ("floor_inf", "  %x = fdiv 1.0:f64, 0.0:f64\n  %a = floor %x\n  ret %a",
     math.inf),
    ("floor_nan", "  %x = fdiv 0.0:f64, 0.0:f64\n  %a = floor %x\n  ret %a",
     math.nan),
    ("sitofp", "  %a = sitofp 3:i64\n  ret %a", 3.0),
    ("fptosi", "  %a = fptosi 3.9:f64\n  %f = sitofp %a\n  ret %f", 3.0),
    ("icmp", "  %a = icmp le 2:i64, 2:i64\n  %f = sitofp %a\n  ret %f", 1.0),
    ("fcmp_nan",
     "  %n = fdiv 0.0:f64, 0.0:f64\n  %a = fcmp lt %n, 1.0:f64\n"
     "  %f = sitofp %a\n  ret %f", 0.0),
    ("select",
     "  %a = select 1:i64, 10.0:f64, 20.0:f64\n  ret %a", 10.0),
    ("select_nan",
     "  %n = fdiv 0.0:f64, 0.0:f64\n"
     "  %a = select %n, 10.0:f64, 20.0:f64\n  ret %a", 20.0),
    ("and", "  %a = and 12:i64, 10:i64\n  %f = sitofp %a\n  ret %f", 8.0),
    ("or", "  %a = or 12:i64, 10:i64\n  %f = sitofp %a\n  ret %f", 14.0),
    ("xor", "  %a = xor 12:i64, 10:i64\n  %f = sitofp %a\n  ret %f", 6.0),
    ("shl", "  %a = shl 3:i64, 4:i64\n  %f = sitofp %a\n  ret %f", 48.0),
    ("shl_ge64", "  %a = shl 3:i64, 67:i64\n  %f = sitofp %a\n  ret %f", 24.0),
    ("shl_wrap",
     "  %a = shl 12345678901:i64, 60:i64\n  %b = shl %a, 60:i64\n"
     "  %c = shl %b, 60:i64\n  %d = srem %c, 1000:i64\n"
     "  %f = sitofp %d\n  ret %f", 0.0),
    ("lshr", "  %a = lshr -1:i64, 60:i64\n  %f = sitofp %a\n  ret %f", 15.0),
    ("alloc_store_load",
     "  %p = alloc 4:i64\n  %q = add %p, 2:i64\n"
     "  store 2.5:f64, %q\n  %v = load %q\n  ret %v", 2.5),
    ("br_cbr",
     "  %i = mov 0:i64\n  br head\nhead:\n"
     "  %i = add %i, 1:i64\n  %c = icmp lt %i, 5:i64\n"
     "  cbr %c, head, done\ndone:\n  %f = sitofp %i\n  ret %f", 5.0),
]


@pytest.mark.parametrize("body,expected",
                         [(c[1], c[2]) for c in GOLDEN],
                         ids=[c[0] for c in GOLDEN])
def test_golden_opcode(body, expected):
    obs = assert_backends_agree(module_of(body))
    assert obs[0] == "ok"
    if isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(obs[1])
    else:
        assert obs[1] == pytest.approx(expected)


TRAPS = [
    ("div_zero", "  %a = sdiv 1:i64, 0:i64\n  %f = sitofp %a\n  ret %f",
     CoreDumpError, "integer division by zero"),
    ("rem_zero", "  %a = srem 1:i64, 0:i64\n  %f = sitofp %a\n  ret %f",
     CoreDumpError, "integer remainder by zero"),
    ("fptosi_inf",
     "  %x = fdiv 1.0:f64, 0.0:f64\n  %a = fptosi %x\n"
     "  %f = sitofp %a\n  ret %f",
     CoreDumpError, "float-to-int conversion trap"),
    ("fptosi_neg_inf",
     "  %x = fdiv -1.0:f64, 0.0:f64\n  %a = fptosi %x\n"
     "  %f = sitofp %a\n  ret %f",
     CoreDumpError, "float-to-int conversion trap"),
    ("fptosi_nan",
     "  %x = fdiv 0.0:f64, 0.0:f64\n  %a = fptosi %x\n"
     "  %f = sitofp %a\n  ret %f",
     CoreDumpError, "float-to-int conversion trap"),
    ("load_oob", "  %v = load 3:i64\n  ret %v",
     SegfaultError, "segmentation fault at address 3"),
    ("store_oob", "  store 1.0:f64, 2:i64\n  ret 0.0:f64",
     SegfaultError, "segmentation fault at address 2"),
]


@pytest.mark.parametrize("body,exc_type,message",
                         [(c[1], c[2], c[3]) for c in TRAPS],
                         ids=[c[0] for c in TRAPS])
def test_trap_parity(body, exc_type, message):
    obs = assert_backends_agree(module_of(body))
    assert obs[0] == "raised"
    assert obs[1] == exc_type.__name__
    assert obs[2] == message


#: per-lane operand pairs that keep both operands divergent columns:
#: ints, wrap-sized ints, floats, NaN, infinities, mixed types
LANE_OPERANDS = [
    (3, 4), (-7, 2), (1 << 100, 1 << 60), (2.5, -0.5),
    (math.nan, 1.0), (math.inf, -math.inf), (0, 0.0), (1.5, 1.5),
]


@pytest.mark.parametrize("op", [
    "mov", "add", "sub", "mul", "fadd", "fsub", "fmul",
    "icmp eq", "icmp ne", "icmp lt", "icmp le", "fcmp gt", "fcmp ge",
])
def test_vector_path_matches_table(op):
    """Every engine's inlined copy of a hot op gives what ``apply`` gives,
    value and type, for each operand pair: the reference interpreter, the
    compiled backend, the batch engine's uniform path (identical lanes)
    and its column path (every lane its own operands, which golden runs
    never produce)."""
    args = "%a" if op == "mov" else "%a, %b"
    module = parse_module(
        "func @main() -> f64 {\nentry:\n"
        "  %a = intrin lane_a() : f64\n  %b = intrin lane_b() : f64\n"
        f"  %r = {op} {args}\n  ret %r\n}}\n")
    instr = module.get_function("main").entry.instrs[2]
    code = CODE[instr.op]
    extra = PRED[instr.pred] if instr.pred is not None else None

    def table(x, y):
        return {"lane_a": lambda _e, _v: (x, ()),
                "lane_b": lambda _e, _v: (y, ())}

    def check(got, x, y, engine):
        want = apply(code, extra, x, y)
        assert type(got) is type(want), (engine, op, x, y, got, want)
        assert same_value(got, want), (engine, op, x, y, got, want)

    for x, y in LANE_OPERANDS:
        for cls in (Interpreter, CompiledExecutor):
            engine = cls(module, memory=Memory())
            engine.register_intrinsics(table(x, y))
            check(engine.run("main", []).value, x, y, cls.__name__)
        uniform = BatchExecutor(module, Memory(), SCALAR_CUTOFF + 1,
                                intrinsics=table(x, y))
        for res in uniform.run("main"):
            assert res.trap is None and not res.detected
            check(res.value, x, y, "batch uniform")

    tables = [table(x, y) for x, y in LANE_OPERANDS]
    assert len(tables) > SCALAR_CUTOFF
    engine = BatchExecutor(module, Memory(), len(tables), intrinsics=tables)
    for res, (x, y) in zip(engine.run("main"), LANE_OPERANDS):
        assert res.trap is None and not res.detected
        check(res.value, x, y, "batch columns")


def test_opcode_code_is_its_count_index():
    """Every engine indexes its per-opcode counts by ``Opcode.code``
    (intrinsic charges) and by ``semantics.CODE`` (decoding): the two
    must agree with ``OPCODES`` order."""
    assert [op.code for op in OPCODES] == list(range(len(OPCODES)))
    assert all(CODE[op] == op.code for op in Opcode)


def test_hang_parity_exact_step():
    src = "func @main() -> f64 {\nentry:\n  br entry\n}\n"
    for budget in (1, 2, 100):
        obs = assert_backends_agree(parse_module(src), max_steps=budget)
        assert obs[1] == "HangError"
        assert obs[2] == (f"program exceeded step budget "
                          f"({budget + 1} dynamic instructions)")


def test_hang_parity_mid_block():
    # the hang lands inside a fused straight-line segment: the compiled
    # backend must replay and surface the same exact step count
    src = (
        "func @main() -> f64 {\nentry:\n  %i = mov 0:i64\n  br loop\n"
        "loop:\n  %i = add %i, 1:i64\n  %j = add %i, 2:i64\n"
        "  %k = add %j, 3:i64\n  br loop\n}\n"
    )
    for budget in range(100, 110):
        obs = assert_backends_agree(parse_module(src), max_steps=budget)
        assert obs[1] == "HangError"
        assert obs[2] == (f"program exceeded step budget "
                          f"({budget + 1} dynamic instructions)")


def test_trap_before_hang_in_same_segment():
    # div-by-zero one step before the budget runs out must still trap,
    # not hang, on both backends
    src = (
        "func @main() -> f64 {\nentry:\n  %i = mov 0:i64\n  br loop\n"
        "loop:\n  %i = add %i, 1:i64\n  %z = sub %i, %i\n"
        "  %q = sdiv %i, %z\n  br loop\n}\n"
    )
    # steps: mov=1 br=2 add=3 sub=4 sdiv=5; a budget of 5 lets the sdiv
    # execute (and trap) while a budget of 4 hangs one step earlier
    obs = assert_backends_agree(parse_module(src), max_steps=5)
    assert obs[1] == "CoreDumpError"
    assert obs[2] == "integer division by zero"
    obs = assert_backends_agree(parse_module(src), max_steps=4)
    assert obs[1] == "HangError"


def counters_in_region(cls, module, region, max_steps=1_000_000,
                       intrinsics=None, args=()):
    """(exception name, steps, region steps) of one run over *region*."""
    engine = cls(module, memory=Memory(), max_steps=max_steps,
                 fault_region=region)
    engine.register_intrinsics(intrinsics or {})
    try:
        engine.run("main", list(args))
        name = None
    except Exception as exc:  # noqa: BLE001 - traps are part of the contract
        name = type(exc).__name__
    return name, engine.steps, engine.region_steps


#: a segfault at the third instruction of a five-instruction fused
#: segment, reached from the middle of a caller block
NESTED_TRAP = (
    "func @main() -> f64 {\nentry:\n  %a = add 1:i64, 2:i64\n"
    "  %r = call @f(%a) : f64\n  %b = add %a, 3:i64\n  ret %r\n}\n"
    "func @f(%x: i64) -> f64 {\nentry:\n  %y = add %x, 4:i64\n"
    "  %z = mul %y, 100000:i64\n  %v = load %z : f64\n"
    "  %w = add %y, 1:i64\n  %q = add %w, 1:i64\n  ret %v\n}\n"
)


@pytest.mark.parametrize("funcs", [None, ("main",), ("f",), ("main", "f")],
                         ids=["everything", "caller", "callee", "both"])
def test_trap_counts_mid_segment(funcs):
    module = parse_module(NESTED_TRAP)
    region = None if funcs is None else Region(funcs=funcs)
    ref = counters_in_region(Interpreter, module, region)
    assert ref[0] == "SegfaultError"
    assert counters_in_region(CompiledExecutor, module, region) == ref


def test_region_overlay_is_built_once_per_module_and_region():
    """Executors of one compiled module share each function's region
    overlay; an equal region finds it, another region builds its own,
    and asking about a region again finds it once more."""
    module = parse_module(NESTED_TRAP)
    compiled = compile_module(module)
    cf = compiled.function("f")
    first = compiled.overlay(cf, Region(funcs=("f",)))
    assert first == tuple(cf.block_sizes)
    assert compiled.overlay(cf, Region(funcs=("f",))) is first
    other = Region(funcs=("main",))
    assert compiled.overlay(cf, other) == (0,) * len(first)
    assert compiled.overlay(cf, other) is compiled.overlay(cf, other)
    for _ in range(2):
        engine = CompiledExecutor(module, memory=Memory(),
                                  fault_region=Region(funcs=("f",)),
                                  compiled=compiled)
        with pytest.raises(SegfaultError):
            engine.run("main", [])
        assert compiled.overlay(cf, engine.fault_region) is first
        assert compiled.overlay(cf, other) is not first


@pytest.mark.parametrize("budget", range(1, 9))
def test_hang_counts_across_calls_and_intrinsics(budget):
    # the budget runs out at every position: inside segments, at the
    # call's and the intrinsic's own checks, and inside the callee
    module = parse_module(
        "func @main() -> f64 {\nentry:\n  %a = add 1:i64, 2:i64\n"
        "  %p = intrin probe(%a) : f64\n  %r = call @f(%a) : f64\n"
        "  ret %r\n}\n"
        "func @f(%x: i64) -> f64 {\nentry:\n  %y = add %x, 4:i64\n"
        "  %z = sitofp %y\n  ret %z\n}\n")
    probe = {"probe": lambda _e, args: (0.0, (Opcode.ADD,))}
    for funcs in (None, ("main",), ("f",)):
        region = None if funcs is None else Region(funcs=funcs)
        ref = counters_in_region(Interpreter, module, region, budget, probe)
        assert counters_in_region(
            CompiledExecutor, module, region, budget, probe) == ref


def test_call_depth_parity():
    src = (
        "func @main() -> f64 {\nentry:\n  %r = call @f() : f64\n  ret %r\n}\n"
        "func @f() -> f64 {\nentry:\n  %r = call @f() : f64\n  ret %r\n}\n"
    )
    obs = assert_backends_agree(parse_module(src))
    assert obs[1] == "CoreDumpError"
    assert obs[2] == "call depth exceeded in @f"


def test_unknown_callee_parity():
    src = "func @main() -> f64 {\nentry:\n  %r = call @g() : f64\n  ret %r\n}\n"
    obs = assert_backends_agree(parse_module(src))
    assert obs[2] == "call to unknown function @g"


def test_unknown_intrinsic_parity():
    src = "func @main() -> f64 {\nentry:\n  %r = intrin miss() : f64\n  ret %r\n}\n"
    obs = assert_backends_agree(parse_module(src))
    assert obs[2] == "unknown intrinsic 'miss'"


def test_intrinsic_charge_accounting():
    def probe(engine, args):
        # 3 charged predictor steps on top of the intrin itself
        return args[0] * 2.0, (Opcode.MUL, Opcode.ADD, Opcode.MOV)

    src = (
        "func @main() -> f64 {\nentry:\n  %r = intrin probe(2.5:f64) : f64\n"
        "  ret %r\n}\n"
    )
    obs = assert_backends_agree(
        parse_module(src), intrinsics_factory=lambda: {"probe": probe})
    assert obs[:3] == ("ok", 5.0, 5)
    assert obs[3][Opcode.MUL] == 1 and obs[3][Opcode.INTRIN] == 1


def test_arity_error_parity():
    src = "func @main(%x: i64) -> f64 {\nentry:\n  ret 0.0:f64\n}\n"
    # a batch run raises the caller's arity error rather than a lane trap
    obs = assert_backends_agree(parse_module(src), args=(), every_engine=False)
    assert obs[1] == "TypeError"
    assert obs[2] == "@main expects 1 arguments, got 0"


#: a three-block call-free loop (head, body, latch), run by the compiled
#: backend as one loop closure.  The body's middle instruction loads
#: ``@a + k * i``: with ``k`` = 20000 it leaves memory at ``i`` = 4.
LOOP3 = (
    "global @a 64 f64\n"
    "func @main(%n: i64, %k: i64) -> f64 {\nentry:\n  %i = mov 0:i64\n"
    "  %s = mov 0.0:f64\n  %ap = mov @a\n  br head\n"
    "head:\n  %c = icmp lt %i, %n\n  cbr %c, body, done\n"
    "body:\n  %o = mul %i, %k\n  %p = add %ap, %o\n  %v = load %p\n"
    "  %s = fadd %s, %v\n  store %s, %p\n  br latch\n"
    "latch:\n  %i = add %i, 1:i64\n  br head\n"
    "done:\n  ret %s\n}\n"
)

#: a call-free loop over cells *k* apart from @a: each iteration loads a
#: cell above the memory's high-water mark, stores to it and loads it back
ABOVE_MARK = (
    "global @a 4 f64\n"
    "func @main(%n: i64, %k: i64) -> f64 {\nentry:\n  %i = mov 0:i64\n"
    "  %s = mov 0.0:f64\n  %ap = mov @a\n  br head\n"
    "head:\n  %c = icmp lt %i, %n\n  cbr %c, body, done\n"
    "body:\n  %o = mul %i, %k\n  %p = add %ap, %o\n  %w = load %p\n"
    "  %t = fadd %w, 1.5:f64\n  store %t, %p\n  %v = load %p\n"
    "  %s = fadd %s, %v\n  br latch\n"
    "latch:\n  %i = add %i, 1:i64\n  br head\n"
    "done:\n  ret %s\n}\n"
)


class TestAboveTheMark:
    def test_a_loop_closure_stores_above_the_mark_and_loads_back(self):
        """The loop runs as one closure whose fast path bounds its index
        by the cells the memory holds: a load above them reads 0.0, a
        store grows them and the load after it reads the stored value,
        as on the reference."""
        module = parse_module(ABOVE_MARK)
        cf = compile_module(module).function("main")
        assert cf.loops[cf.labels.index("body")] is not None
        obs = assert_backends_agree(module, args=[20, 100])
        assert obs[:2] == ("ok", 30.0)
        memory = Memory()
        CompiledExecutor(module, memory=memory).run("main", [20, 100])
        assert len(memory.cells) == 8 + 19 * 100 + 1
        assert memory.load(8 + 19 * 100) == 1.5


#: the whole program, the loop's function, and one block of the loop only
LOOP3_REGIONS = [None, Region(funcs=("main",)),
                 Region(blocks=(("main", "body"),))]
LOOP3_REGION_IDS = ["everything", "function", "body-block"]


class TestLoopClosures:
    """A call-free loop runs as one generated closure that
    keeps its step and block-hit counters in locals: it must still stop
    exactly where the reference does and count exactly what it does."""

    def test_the_loop_compiles_to_one_closure(self):
        module = parse_module(LOOP3)
        cf = compile_module(module).function("main")
        head, body, latch = (cf.labels.index(lbl)
                             for lbl in ("head", "body", "latch"))
        loop = (head, body, latch)
        assert [cf.loops[b] for b in loop] == [loop] * 3
        assert cf.loops[cf.labels.index("entry")] is None
        assert cf.blocks[head] == (cf.blocks[head][0],)
        # every other block enters the same closure at itself
        assert cf.blocks[body][0].func is cf.blocks[head][0]
        assert cf.blocks[body][0].keywords == {"blk": body}

    def test_completed_run_counts_match(self):
        obs = assert_backends_agree(parse_module(LOOP3), args=[10, 1])
        assert obs[0] == "ok" and obs[3][Opcode.LOAD] == 10

    @pytest.mark.parametrize("region", LOOP3_REGIONS, ids=LOOP3_REGION_IDS)
    def test_hang_at_every_budget(self, region):
        # entry takes 4 steps and each iteration 10: the budget runs out
        # at every position of the first four iterations
        module = parse_module(LOOP3)
        for budget in range(1, 45):
            ref = counters_in_region(Interpreter, module, region, budget,
                                     args=(10 ** 6, 1))
            assert ref[0] == "HangError" and ref[1] == budget + 1
            assert counters_in_region(CompiledExecutor, module, region,
                                      budget, args=(10 ** 6, 1)) == ref

    @pytest.mark.parametrize("region", LOOP3_REGIONS, ids=LOOP3_REGION_IDS)
    def test_segfault_mid_block(self, region):
        module = parse_module(LOOP3)
        ref = counters_in_region(Interpreter, module, region,
                                 args=(10, 20000))
        # 4 entry steps, 4 full iterations, then head and the body up to
        # its load
        assert ref[:2] == ("SegfaultError", 4 + 4 * 10 + 2 + 3)
        assert counters_in_region(CompiledExecutor, module, region,
                                  args=(10, 20000)) == ref
        assert_backends_agree(module, args=[10, 20000])

    @pytest.mark.parametrize("region", LOOP3_REGIONS, ids=LOOP3_REGION_IDS)
    @pytest.mark.parametrize("label,index", [
        ("head", 0), ("head", 1), ("body", 0), ("body", 3), ("body", 5),
        ("latch", 0), ("latch", 1)])
    def test_resume_inside_the_loop(self, region, label, index):
        """``run(state=...)`` enters the loop at a block's first
        instruction (its header included) or in its middle, then runs
        on in the closure; everything matches the reference's resume."""
        module = parse_module(LOOP3)
        regs = {"n": 10, "k": 1, "i": 3, "s": 2.5, "ap": 8, "c": 1,
                "o": 3, "p": 11, "v": 0.5}

        def resumed(cls):
            memory = Memory()
            memory.load_globals(module)
            state = MachineState([ResumeFrame("main", label, index,
                                              dict(regs))],
                                 memory, steps=40, region_steps=30)
            engine = cls(module, memory=memory, fault_region=region)
            result = engine.run("main", state=state)
            return (result.value, result.steps, result.region_steps,
                    result.counts, contents(memory))

        assert resumed(CompiledExecutor) == resumed(Interpreter)


#: LOOP3 run three times by an outer call-free loop (ohead, init,
#: olatch): the whole nest is one loop closure.  With ``k`` = 20000 the
#: body leaves memory at ``i`` = 4 of the first outer iteration.
NEST = (
    "global @a 64 f64\n"
    "func @main(%n: i64, %k: i64) -> f64 {\nentry:\n  %j = mov 0:i64\n"
    "  %s = mov 0.0:f64\n  %ap = mov @a\n  br ohead\n"
    "ohead:\n  %oc = icmp lt %j, 3:i64\n  cbr %oc, init, done\n"
    "init:\n  %i = mov 0:i64\n  br head\n"
    "head:\n  %c = icmp lt %i, %n\n  cbr %c, body, olatch\n"
    "body:\n  %o = mul %i, %k\n  %p = add %ap, %o\n  %v = load %p\n"
    "  %s = fadd %s, %v\n  store %s, %p\n  br latch\n"
    "latch:\n  %i = add %i, 1:i64\n  br head\n"
    "olatch:\n  %j = add %j, 1:i64\n  br ohead\n"
    "done:\n  ret %s\n}\n"
)
NEST_REGIONS = [None, Region(funcs=("main",)),
                Region(blocks=(("main", "body"), ("main", "olatch")))]
NEST_REGION_IDS = ["everything", "function", "two-blocks"]


class TestLoopNestClosures:
    """A call-free loop nest runs as one loop closure, its innermost
    loop's blocks first in the dispatch; it stops and counts exactly
    where the reference does, as a single loop's closure does."""

    def test_the_nest_compiles_to_one_closure(self):
        cf = compile_module(parse_module(NEST)).function("main")
        at = {lbl: cf.labels.index(lbl) for lbl in cf.labels}
        nest = tuple(at[lbl] for lbl in ("head", "body", "latch", "ohead",
                                         "init", "olatch"))
        assert {cf.loops[b] for b in nest} == {nest}
        assert cf.loops[at["entry"]] is None and cf.loops[at["done"]] is None
        closure = cf.blocks[at["ohead"]][0]
        assert cf.blocks[at["head"]][0].func is closure
        assert cf.blocks[at["head"]][0].keywords == {"blk": at["head"]}

    def test_a_call_in_the_inner_loop_keeps_the_nest_apart(self):
        src = NEST.replace("  br latch\n", "  %x = call @f() : f64\n"
                           "  br latch\n") + (
            "func @f() -> f64 {\nentry:\n  ret 1.0:f64\n}\n")
        cf = compile_module(parse_module(src)).function("main")
        assert all(loop is None for loop in cf.loops)
        assert_backends_agree(parse_module(src), args=[4, 1])

    def test_completed_run_counts_match(self):
        obs = assert_backends_agree(parse_module(NEST), args=[10, 1])
        assert obs[0] == "ok" and obs[3][Opcode.LOAD] == 30

    @pytest.mark.parametrize("region", NEST_REGIONS, ids=NEST_REGION_IDS)
    def test_hang_at_every_budget(self, region):
        # entry 4 steps, ohead 2 and init 2 per outer iteration, 10 per
        # inner iteration, head's exit 2 and olatch 2: with n = 2 the
        # budget runs out at every position of the first two outer
        # iterations
        module = parse_module(NEST)
        for budget in range(1, 60):
            ref = counters_in_region(Interpreter, module, region, budget,
                                     args=(2, 1))
            assert ref[0] == "HangError" and ref[1] == budget + 1
            assert counters_in_region(CompiledExecutor, module, region,
                                      budget, args=(2, 1)) == ref

    @pytest.mark.parametrize("region", NEST_REGIONS, ids=NEST_REGION_IDS)
    def test_segfault_mid_block(self, region):
        module = parse_module(NEST)
        ref = counters_in_region(Interpreter, module, region,
                                 args=(10, 20000))
        # 4 entry steps, ohead and init, 4 full inner iterations, then
        # head and the body up to its load
        assert ref[:2] == ("SegfaultError", 4 + 4 + 4 * 10 + 2 + 3)
        assert counters_in_region(CompiledExecutor, module, region,
                                  args=(10, 20000)) == ref

    @pytest.mark.parametrize("region", NEST_REGIONS, ids=NEST_REGION_IDS)
    @pytest.mark.parametrize("label,index", [
        ("ohead", 0), ("ohead", 1), ("init", 0), ("head", 1), ("body", 3),
        ("latch", 0), ("olatch", 1)])
    def test_resume_inside_the_nest(self, region, label, index):
        module = parse_module(NEST)
        regs = {"n": 4, "k": 1, "i": 2, "j": 1, "s": 2.5, "ap": 8, "c": 1,
                "oc": 1, "o": 2, "p": 10, "v": 0.5}

        def resumed(cls):
            memory = Memory()
            memory.load_globals(module)
            state = MachineState([ResumeFrame("main", label, index,
                                              dict(regs))],
                                 memory, steps=40, region_steps=30)
            engine = cls(module, memory=memory, fault_region=region)
            result = engine.run("main", state=state)
            return (result.value, result.steps, result.region_steps,
                    result.counts, contents(memory))

        assert resumed(CompiledExecutor) == resumed(Interpreter)


#: the schemes whose per-opcode counts Fig. 7 reads, one per family
FIG7_SCHEMES = ("UNSAFE", "SWIFT-R", "AR50", "REPLAY2", "CKPT8")


@pytest.mark.parametrize("scheme", FIG7_SCHEMES)
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_workload_counts_match_the_reference(workload, scheme):
    """Block-hit accounting rebuilds the exact per-opcode counts: a clean
    run of every workload under every scheme family, with its fault
    region, counts what the reference interpreter counts."""
    prepared = prepare(workload, scheme)
    region = fault_region(prepared)
    inp = workload.test_inputs(1, seed=5, scale=0.2)[0]

    def run(cls):
        if prepared.runtime is not None:
            prepared.runtime.reset()
        engine = cls(prepared.module,
                     memory=workload.fresh_memory(prepared.module, inp),
                     fault_region=region)
        engine.register_intrinsics(prepared.intrinsics)
        result = engine.run(workload.main, inp.args)
        return (repr(result.value), result.steps, result.region_steps,
                result.counts)

    assert run(CompiledExecutor) == run(Interpreter)


def test_fold_matches_the_per_block_fold():
    """Folding block hits into per-opcode counts and region steps gives
    what multiplying them out block by block gives, on random hit
    vectors over every function of a protected workload (zeros
    included), with and without a fault region."""
    workload = next(w for w in ALL_WORKLOADS if w.name == "sgemm")
    prepared = prepare(workload, "AR50")
    module = prepared.module
    cm = compile_module(module)
    rng = random.Random(5)
    for region in (fault_region(prepared), None):
        for _ in range(20):
            engine = CompiledExecutor(module, fault_region=region, compiled=cm)
            want_counts, want_region = [0] * len(OPCODES), 0
            for name in module.functions:
                cf = cm.function(name)
                hits = [rng.choice([0, 0, 1, rng.randint(2, 10 ** 6)])
                        for _ in cf.labels]
                engine._hits[name] = hits
                for bi, n in enumerate(hits):
                    for code, k in cf.hist[bi]:
                        want_counts[code] += n * k
                    if region is not None and region.contains(name, cf.labels[bi]):
                        want_region += n * cf.block_sizes[bi]
            engine.region_steps = 7
            engine._fold()
            assert engine.counts == want_counts
            assert engine.region_steps == 7 + want_region
            assert engine._hits == {}


@pytest.mark.parametrize(
    "build,args",
    [(build_dot_module, [4, 8]), (build_call_module, [8]),
     (build_rmw_module, [4, 8])],
    ids=["dot", "call", "rmw"])
def test_workload_modules_agree(build, args):
    obs = assert_backends_agree(build(), args=args, seed=True)
    assert obs[0] == "ok"


# -- compile cache ------------------------------------------------------------
class TestCompileCache:
    def test_same_module_hits_cache(self):
        clear_compile_cache()
        m = module_of("  ret 1.0:f64")
        assert compile_module(m) is compile_module(m)

    def test_identical_text_shares_fingerprint(self):
        m1 = module_of("  ret 1.0:f64")
        m2 = parse_module(format_module(m1))
        assert module_fingerprint(m1) == module_fingerprint(m2)
        clear_compile_cache()
        assert compile_module(m1) is compile_module(m2)

    def test_transform_recompiles(self):
        clear_compile_cache()
        m = module_of("  %a = fadd 1.0:f64, 2.0:f64\n  ret %a")
        before = compile_module(m)
        m.functions["main"].blocks["entry"].instrs.pop(0)
        m.functions["main"].blocks["entry"].instrs.insert(
            0, parse_module(
                "func @t() -> f64 {\nentry:\n  %a = fadd 2.0:f64, 2.0:f64\n"
                "  ret %a\n}\n"
            ).functions["t"].blocks["entry"].instrs[0])
        after = compile_module(m)
        assert before is not after
        assert CompiledExecutor(m).run("main", []).value == 4.0


# -- backend dispatch ---------------------------------------------------------
class TestDispatch:
    def test_backends_tuple(self):
        assert BACKENDS == ("ref", "compiled", "batch")

    def test_batch_default_keeps_single_run_dispatch(self):
        """The batch backend applies at the campaign-chunk level; a
        single make_executor call behaves like compiled/ref dispatch."""
        m = module_of("  ret 1.0:f64")
        assert isinstance(
            make_executor(m, backend="batch"), CompiledExecutor)

    def test_clean_run_defaults_to_compiled(self):
        m = module_of("  ret 1.0:f64")
        assert isinstance(make_executor(m), CompiledExecutor)

    def test_ref_backend_forces_interpreter(self):
        m = module_of("  ret 1.0:f64")
        assert isinstance(make_executor(m, backend="ref"), Interpreter)

    def test_instrumented_run_always_ref(self):
        m = module_of("  ret 1.0:f64")
        for backend in BACKENDS:
            assert isinstance(make_executor(m, timing=TimingModel(),
                                            backend=backend), Interpreter)

    def test_env_default(self, monkeypatch):
        m = module_of("  ret 1.0:f64")
        monkeypatch.setenv("REPRO_BACKEND", "ref")
        assert isinstance(make_executor(m), Interpreter)

    def test_set_default_backend(self):
        m = module_of("  ret 1.0:f64")
        set_default_backend("ref")
        try:
            assert isinstance(make_executor(m), Interpreter)
        finally:
            set_default_backend(None)
        assert isinstance(make_executor(m), CompiledExecutor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            set_default_backend("jit")
        with pytest.raises(ValueError):
            make_executor(module_of("  ret 1.0:f64"), backend="jit")
