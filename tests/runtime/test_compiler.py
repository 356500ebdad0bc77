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
from repro.runtime.faults import FaultPlan, Region
from repro.runtime.semantics import CODE, PRED, apply

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


def assert_same_memory(ref_mem, cells):
    """Every addressable cell (8 and up) of *cells* matches *ref_mem*."""
    assert len(cells) == ref_mem.size - 8
    for i, (a, b) in enumerate(zip(ref_mem.cells[8:], cells), start=8):
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
    assert_same_memory(ref_mem, comp_mem.cells[8:])
    if not every_engine:
        return ref

    for n_lanes in (SCALAR_CUTOFF + 1, 1):
        template = seed_memory(module) if seed else Memory()
        engine = BatchExecutor(
            module, template, n_lanes, max_steps=max_steps,
            intrinsics=intrinsics_factory() if intrinsics_factory else None)
        for lane, res in enumerate(engine.run("main", list(args))):
            if ref[0] == "ok":
                assert res.trap is None and not res.detected
                assert same_value(res.value, ref[1])
                assert (res.steps, res.region_steps) == (ref[2], ref[4])
            else:
                assert (res.trap, res.steps, res.region_steps) == \
                    (TRAP_KIND[ref[1]], *ref_counters)
            assert_same_memory(
                ref_mem, engine.lane_memory(lane).read_array(8, ref_mem.size - 8))
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
                       intrinsics=None):
    """(exception name, steps, region steps) of one run over *region*."""
    engine = cls(module, memory=Memory(), max_steps=max_steps,
                 fault_region=region)
    engine.register_intrinsics(intrinsics or {})
    try:
        engine.run("main", [])
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
    overlay; an equal region finds it, another region builds its own."""
    module = parse_module(NESTED_TRAP)
    compiled = compile_module(module)
    cf = compiled.function("f")
    first = compiled.overlay(cf, Region(funcs=("f",)))
    assert first == tuple(cf.block_sizes)
    assert compiled.overlay(cf, Region(funcs=("f",))) is first
    assert compiled.overlay(cf, Region(funcs=("main",))) == (0,) * len(first)
    for _ in range(2):
        engine = CompiledExecutor(module, memory=Memory(),
                                  fault_region=Region(funcs=("f",)),
                                  compiled=compiled)
        with pytest.raises(SegfaultError):
            engine.run("main", [])
        assert engine._overlay(cf) is first


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
        plan = FaultPlan(step=0, kind="value", bit=1, pick=0.5)
        assert isinstance(
            make_executor(m, backend="batch", fault_plan=plan), Interpreter)

    def test_clean_run_defaults_to_compiled(self):
        m = module_of("  ret 1.0:f64")
        assert isinstance(make_executor(m), CompiledExecutor)

    def test_ref_backend_forces_interpreter(self):
        m = module_of("  ret 1.0:f64")
        assert isinstance(make_executor(m, backend="ref"), Interpreter)

    def test_instrumented_run_always_ref(self):
        m = module_of("  ret 1.0:f64")
        plan = FaultPlan(step=0, kind="value", bit=1, pick=0.5)
        assert isinstance(make_executor(m, fault_plan=plan), Interpreter)

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
