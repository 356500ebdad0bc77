"""Property-based IR checks: random straight-line programs survive
print -> parse -> print and execute identically."""
import math

from hypothesis import given, settings, strategies as st

from repro.ir import (
    F64,
    Function,
    I64,
    IRBuilder,
    Module,
    Reg,
    format_module,
    parse_module,
    verify_module,
)
from repro.runtime import Interpreter

# (emitter name, arity, float?)
_FLOAT_BINOPS = ["fadd", "fsub", "fmul"]
_FLOAT_UNOPS = ["fneg", "fabs", "sqrt", "exp", "sin", "cos", "floor"]
_INT_BINOPS = ["add", "sub", "mul", "and_", "or_", "xor"]

op_choice = st.lists(
    st.tuples(
        st.sampled_from(_FLOAT_BINOPS + _FLOAT_UNOPS + _INT_BINOPS),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=40,
)


def build_random_program(ops) -> Module:
    module = Module("rand")
    func = Function("main", [Reg("seed", F64)], F64)
    module.add_function(func)
    b = IRBuilder(func)
    fvals = [func.params[0], b.mov(1.25, hint="f0")]
    ivals = [b.mov(3, hint="i0"), b.mov(7, hint="i1")]
    for name, sel1, sel2 in ops:
        if name in _FLOAT_BINOPS:
            a = fvals[sel1 % len(fvals)]
            c = fvals[sel2 % len(fvals)]
            fvals.append(getattr(b, name)(a, c))
        elif name in _FLOAT_UNOPS:
            a = fvals[sel1 % len(fvals)]
            # keep magnitudes tame so exp cannot overflow to inf chains
            a = b.fmul(a, 0.125)
            fvals.append(getattr(b, name)(a))
        else:
            a = ivals[sel1 % len(ivals)]
            c = ivals[sel2 % len(ivals)]
            ivals.append(getattr(b, name)(a, c))
    total = fvals[0]
    for v in fvals[1:]:
        total = b.fadd(total, v)
    total = b.fadd(total, b.sitofp(ivals[-1]))
    b.ret(total)
    verify_module(module)
    return module


@settings(max_examples=50, deadline=None)
@given(op_choice)
def test_roundtrip_preserves_text(ops):
    module = build_random_program(ops)
    text = format_module(module)
    reparsed = parse_module(text)
    verify_module(reparsed)
    assert format_module(reparsed) == text


@settings(max_examples=50, deadline=None)
@given(op_choice, st.floats(min_value=-4.0, max_value=4.0))
def test_roundtrip_preserves_semantics(ops, seed):
    module = build_random_program(ops)
    reparsed = parse_module(format_module(module))
    v1 = Interpreter(module).run("main", [seed]).value
    v2 = Interpreter(reparsed).run("main", [seed]).value
    assert v1 == v2 or (math.isnan(v1) and math.isnan(v2))


@settings(max_examples=30, deadline=None)
@given(op_choice, st.floats(min_value=-4.0, max_value=4.0))
def test_simplify_and_dce_preserve_semantics(ops, seed):
    from repro.transforms import run_dce_module, run_simplify_module

    module = build_random_program(ops)
    reference = Interpreter(module).run("main", [seed]).value

    run_simplify_module(module)
    run_dce_module(module)
    verify_module(module)
    optimized = Interpreter(module).run("main", [seed]).value
    assert optimized == reference or (
        math.isnan(optimized) and math.isnan(reference)
    )


@settings(max_examples=25, deadline=None)
@given(op_choice, st.floats(min_value=-4.0, max_value=4.0))
def test_swift_r_preserves_semantics_on_random_programs(ops, seed):
    from repro.transforms import apply_swift_r

    module = build_random_program(ops)
    reference = Interpreter(module).run("main", [seed]).value

    apply_swift_r(module)
    verify_module(module)
    protected = Interpreter(module).run("main", [seed]).value
    assert protected == reference or (
        math.isnan(protected) and math.isnan(reference)
    )


@settings(max_examples=25, deadline=None)
@given(op_choice, st.floats(min_value=-4.0, max_value=4.0))
def test_cse_preserves_semantics_on_random_programs(ops, seed):
    from repro.transforms import run_cse_module, run_dce_module

    module = build_random_program(ops)
    reference = Interpreter(module).run("main", [seed]).value
    removed = run_cse_module(module)
    run_dce_module(module)
    verify_module(module)
    optimized = Interpreter(module).run("main", [seed]).value
    assert optimized == reference or (
        math.isnan(optimized) and math.isnan(reference)
    )


@settings(max_examples=25, deadline=None)
@given(op_choice, st.floats(min_value=-4.0, max_value=4.0))
def test_reference_interpreter_agrees_on_random_programs(ops, seed):
    from repro.runtime import CompiledExecutor

    module = build_random_program(ops)
    ref = Interpreter(module).run("main", [seed])
    fast = CompiledExecutor(module).run("main", [seed])
    assert fast.steps == ref.steps
    assert fast.value == ref.value or (
        math.isnan(fast.value) and math.isnan(ref.value))
