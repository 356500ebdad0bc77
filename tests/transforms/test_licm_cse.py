import pytest

from repro.ir import Opcode, parse_module, verify_module
from repro.runtime import Interpreter
from repro.transforms import (
    run_cse,
    run_cse_module,
    run_dce_module,
    run_licm,
    run_licm_module,
)

from ..conftest import build_dot_module, build_rmw_module, run_main


class TestLICM:
    def test_hoists_invariant_multiply(self):
        src = (
            "func @main(%n: i64, %a: i64, %b: i64) -> f64 {\n"
            "entry:\n"
            "  %i = mov 0:i64\n"
            "  %acc = mov 0:i64\n"
            "  br head\n"
            "head:\n"
            "  %c = icmp lt %i, %n\n"
            "  cbr %c, body, exit\n"
            "body:\n"
            "  %inv = mul %a, %b\n"
            "  %acc = add %acc, %inv\n"
            "  %i = add %i, 1:i64\n"
            "  br head\n"
            "exit:\n"
            "  %f = sitofp %acc\n"
            "  ret %f\n"
            "}\n"
        )
        module = parse_module(src)
        func = module.get_function("main")
        before = Interpreter(module).run("main", [10, 3, 4])
        hoisted = run_licm(func)
        verify_module(module)
        assert hoisted == 1
        after = Interpreter(parse_module_copy(module)).run("main", [10, 3, 4])
        assert after.value == before.value == 120.0
        assert after.steps < before.steps
        # the multiply now lives in the entry block
        entry_ops = [i.op for i in func.blocks["entry"].instrs]
        assert Opcode.MUL in entry_ops

    def test_does_not_hoist_loads(self):
        src = (
            "func @main(%n: i64, %p: ptr) -> f64 {\n"
            "entry:\n"
            "  %i = mov 0:i64\n"
            "  %acc = mov 0.0:f64\n"
            "  br head\n"
            "head:\n"
            "  %c = icmp lt %i, %n\n"
            "  cbr %c, body, exit\n"
            "body:\n"
            "  %v = load %p : f64\n"
            "  %acc = fadd %acc, %v\n"
            "  %vv = fmul %acc, 0.5:f64\n"
            "  store %vv, %p\n"
            "  %i = add %i, 1:i64\n"
            "  br head\n"
            "exit:\n"
            "  ret %acc\n"
            "}\n"
        )
        module = parse_module(src)
        func = module.get_function("main")
        run_licm(func)
        body_ops = [i.op for i in func.blocks["body"].instrs]
        assert Opcode.LOAD in body_ops  # memory ops stay put

    def test_does_not_hoist_conditional_code(self):
        src = (
            "func @main(%n: i64, %a: i64) -> f64 {\n"
            "entry:\n"
            "  %i = mov 0:i64\n"
            "  br head\n"
            "head:\n"
            "  %c = icmp lt %i, %n\n"
            "  cbr %c, body, exit\n"
            "body:\n"
            "  %odd = and %i, 1:i64\n"
            "  cbr %odd, take, skip\n"
            "take:\n"
            "  %inv = mul %a, %a\n"
            "  br skip\n"
            "skip:\n"
            "  %i = add %i, 1:i64\n"
            "  br head\n"
            "exit:\n"
            "  ret 0.0:f64\n"
            "}\n"
        )
        module = parse_module(src)
        func = module.get_function("main")
        run_licm(func)
        take_ops = [i.op for i in func.blocks["take"].instrs]
        assert Opcode.MUL in take_ops  # it does not dominate the latch

    def test_preserves_workload_semantics(self):
        for builder, args in ((build_dot_module, [6, 8]), (build_rmw_module, [6, 8])):
            reference = builder()
            _, mem_ref = run_main(reference, args)
            optimized = builder()
            run_licm_module(optimized)
            verify_module(optimized)
            _, mem_opt = run_main(optimized, args)
            assert mem_ref.read_global("out", 6) == mem_opt.read_global("out", 6)


class TestCSE:
    def test_eliminates_duplicate_expression(self):
        src = (
            "func @main(%a: i64, %b: i64) -> f64 {\n"
            "entry:\n"
            "  %x = add %a, %b\n"
            "  %y = add %a, %b\n"
            "  %z = add %x, %y\n"
            "  %f = sitofp %z\n"
            "  ret %f\n"
            "}\n"
        )
        module = parse_module(src)
        replaced = run_cse(module.get_function("main"))
        assert replaced == 1
        verify_module(module)
        assert Interpreter(module).run("main", [2, 3]).value == 10.0

    def test_commutativity(self):
        src = (
            "func @main(%a: i64, %b: i64) -> f64 {\n"
            "entry:\n"
            "  %x = add %a, %b\n"
            "  %y = add %b, %a\n"
            "  %z = add %x, %y\n"
            "  %f = sitofp %z\n"
            "  ret %f\n"
            "}\n"
        )
        module = parse_module(src)
        assert run_cse(module.get_function("main")) == 1
        assert Interpreter(module).run("main", [2, 3]).value == 10.0

    def test_noncommutative_not_merged(self):
        src = (
            "func @main(%a: i64, %b: i64) -> f64 {\n"
            "entry:\n"
            "  %x = sub %a, %b\n"
            "  %y = sub %b, %a\n"
            "  %z = add %x, %y\n"
            "  %f = sitofp %z\n"
            "  ret %f\n"
            "}\n"
        )
        module = parse_module(src)
        assert run_cse(module.get_function("main")) == 0

    def test_result_redefinition_invalidates(self):
        """The classic stale-table trap: %x = add; %x = mov w; add again."""
        src = (
            "func @main(%a: i64, %b: i64, %w: i64) -> f64 {\n"
            "entry:\n"
            "  %x = add %a, %b\n"
            "  %x = mov %w\n"
            "  %y = add %a, %b\n"
            "  %z = add %x, %y\n"
            "  %f = sitofp %z\n"
            "  ret %f\n"
            "}\n"
        )
        module = parse_module(src)
        run_cse(module.get_function("main"))
        verify_module(module)
        # %z must be w + (a+b) = 100 + 5
        assert Interpreter(module).run("main", [2, 3, 100]).value == 105.0

    def test_operand_redefinition_invalidates(self):
        src = (
            "func @main(%a: i64, %b: i64) -> f64 {\n"
            "entry:\n"
            "  %x = add %a, %b\n"
            "  %a = mov 50:i64\n"
            "  %y = add %a, %b\n"
            "  %z = add %x, %y\n"
            "  %f = sitofp %z\n"
            "  ret %f\n"
            "}\n"
        )
        module = parse_module(src)
        run_cse(module.get_function("main"))
        assert Interpreter(module).run("main", [2, 3]).value == (2 + 3) + (50 + 3)

    def test_redundant_loads_merged_until_store(self):
        src = (
            "func @main(%p: ptr) -> f64 {\n"
            "entry:\n"
            "  %v1 = load %p : f64\n"
            "  %v2 = load %p : f64\n"
            "  store 9.0:f64, %p\n"
            "  %v3 = load %p : f64\n"
            "  %s = fadd %v1, %v2\n"
            "  %t = fadd %s, %v3\n"
            "  ret %t\n"
            "}\n"
        )
        module = parse_module(src)
        replaced = run_cse(module.get_function("main"))
        assert replaced == 1  # v2 merged, v3 must re-load after the store
        interp = Interpreter(module)
        interp.memory.store(64, 2.0)
        assert interp.run("main", [64]).value == 2.0 + 2.0 + 9.0

    def test_preserves_workload_semantics(self):
        reference = build_dot_module()
        _, mem_ref = run_main(reference, [6, 8])
        optimized = build_dot_module()
        run_cse_module(optimized)
        run_dce_module(optimized)
        verify_module(optimized)
        _, mem_opt = run_main(optimized, [6, 8])
        assert mem_ref.read_global("out", 6) == mem_opt.read_global("out", 6)


def parse_module_copy(module):
    from repro.ir import format_module, parse_module as parse

    return parse(format_module(module))
