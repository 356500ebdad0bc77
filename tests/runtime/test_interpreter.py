import math

import pytest

from repro.ir import (
    CmpPred,
    F64,
    Function,
    I64,
    IRBuilder,
    Module,
    Opcode,
    Reg,
    VOID,
    parse_module,
    verify_module,
)
from repro.runtime import (
    CoreDumpError,
    HangError,
    Interpreter,
    Memory,
    SegfaultError,
)

from ..conftest import build_dot_module, run_main, seed_memory


def expr_module(body: str, ret_ty: str = "f64", params: str = "") -> Module:
    return parse_module(
        f"func @main({params}) -> {ret_ty} {{\nentry:\n{body}\n}}\n"
    )


class TestSemantics:
    def test_dot_product_value(self, dot_module):
        result, mem = run_main(dot_module, [4, 8])
        xs = mem.read_global("x", 8)
        ys = mem.read_global("y", 8)
        dot = sum(a * b for a, b in zip(xs, ys))
        outs = mem.read_global("out", 4)
        for i, v in enumerate(outs):
            assert v == pytest.approx(dot * (i + 1))

    def test_signed_division_truncates_toward_zero(self):
        m = expr_module("  %a = sdiv -7:i64, 2:i64\n  %f = sitofp %a\n  ret %f")
        assert Interpreter(m).run("main", []).value == -3.0

    def test_signed_remainder_sign(self):
        m = expr_module("  %a = srem -7:i64, 2:i64\n  %f = sitofp %a\n  ret %f")
        assert Interpreter(m).run("main", []).value == -1.0

    def test_fdiv_by_zero_is_ieee(self):
        m = expr_module("  %a = fdiv 1.0:f64, 0.0:f64\n  ret %a")
        assert Interpreter(m).run("main", []).value == math.inf
        m = expr_module("  %a = fdiv 0.0:f64, 0.0:f64\n  ret %a")
        assert math.isnan(Interpreter(m).run("main", []).value)

    def test_sqrt_negative_is_nan(self):
        m = expr_module("  %a = sqrt -4.0:f64\n  ret %a")
        assert math.isnan(Interpreter(m).run("main", []).value)

    def test_log_nonpositive_is_nan(self):
        m = expr_module("  %a = log -1.0:f64\n  ret %a")
        assert math.isnan(Interpreter(m).run("main", []).value)

    def test_exp_overflow_is_inf(self):
        m = expr_module("  %a = exp 1000.0:f64\n  ret %a")
        assert Interpreter(m).run("main", []).value == math.inf

    def test_nan_branch_falls_through(self):
        src = (
            "func @main() -> f64 {\n"
            "entry:\n"
            "  %nan = fdiv 0.0:f64, 0.0:f64\n"
            "  %c = fcmp lt %nan, 1.0:f64\n"
            "  cbr %c, yes, no\n"
            "yes:\n"
            "  ret 1.0:f64\n"
            "no:\n"
            "  ret 2.0:f64\n"
            "}\n"
        )
        assert Interpreter(parse_module(src)).run("main", []).value == 2.0


class TestTraps:
    def test_integer_division_by_zero(self):
        m = expr_module("  %a = sdiv 1:i64, 0:i64\n  %f = sitofp %a\n  ret %f")
        with pytest.raises(CoreDumpError):
            Interpreter(m).run("main", [])

    def test_fptosi_of_nan_traps(self):
        m = expr_module(
            "  %nan = fdiv 0.0:f64, 0.0:f64\n  %a = fptosi %nan\n  %f = sitofp %a\n  ret %f"
        )
        with pytest.raises(CoreDumpError):
            Interpreter(m).run("main", [])

    def test_load_out_of_bounds(self):
        m = expr_module("  %a = load 0:i64 : f64\n  ret %a")
        with pytest.raises(SegfaultError):
            Interpreter(m).run("main", [])

    def test_call_unknown_function(self):
        m = expr_module("  %a = call @ghost() : f64\n  ret %a")
        with pytest.raises(CoreDumpError, match="unknown function"):
            Interpreter(m).run("main", [])

    def test_unknown_intrinsic(self):
        m = expr_module("  %a = intrin ghost() : i64\n  %f = sitofp %a\n  ret %f")
        with pytest.raises(CoreDumpError, match="unknown intrinsic"):
            Interpreter(m).run("main", [])

    def test_hang_detection(self):
        src = "func @main() -> f64 {\nentry:\n  br entry\n}\n"
        with pytest.raises(HangError):
            Interpreter(parse_module(src), max_steps=1000).run("main", [])

    def test_call_depth_limit(self):
        src = (
            "func @main() -> f64 {\nentry:\n  %a = call @main() : f64\n  ret %a\n}\n"
        )
        with pytest.raises(CoreDumpError, match="call depth"):
            Interpreter(parse_module(src)).run("main", [])

    def test_wrong_arity_run(self, dot_module):
        with pytest.raises(TypeError):
            Interpreter(dot_module).run("main", [1])


class TestAccounting:
    def test_step_and_opcode_counts(self):
        m = expr_module("  %a = fadd 1.0:f64, 2.0:f64\n  ret %a")
        result = Interpreter(m).run("main", [])
        assert result.steps == 2
        assert result.counts[Opcode.FADD] == 1
        assert result.counts[Opcode.RET] == 1

    def test_counts_scale_with_trip_count(self, dot_module):
        r1, _ = run_main(build_dot_module(), [2, 8])
        r2, _ = run_main(build_dot_module(), [4, 8])
        assert r2.steps > r1.steps

    def test_intrinsic_charge_counted(self):
        m = expr_module("  %a = intrin probe() : i64\n  %f = sitofp %a\n  ret %f")
        interp = Interpreter(m)
        interp.register_intrinsics(
            {"probe": lambda interp, args: (7, [Opcode.FMUL, Opcode.FMUL, Opcode.LOAD])}
        )
        result = interp.run("main", [])
        assert result.value == 7.0
        assert result.counts[Opcode.FMUL] == 2
        assert result.counts[Opcode.LOAD] == 1
        assert result.counts[Opcode.INTRIN] == 1
        assert result.steps == 3 + 3  # intrin+sitofp+ret plus 3 charged

    def test_region_counting(self, dot_module):
        from repro.runtime import Region

        inner = {l for l in dot_module.get_function("main").blocks if l.startswith("inner")}
        region = Region(blocks={("main", l) for l in inner})
        mem = seed_memory(dot_module)
        interp = Interpreter(dot_module, memory=mem, fault_region=region)
        interp.run("main", [4, 8])
        assert 0 < interp.region_steps < interp.steps


class TestCalls:
    def test_return_value_flows(self, call_module):
        result, mem = run_main(call_module, [4])
        outs = mem.read_global("out", 4)
        a = mem.read_global("a", 4)
        b = mem.read_global("b", 4)

        def g(x, y):
            return (
                math.sqrt(x * x + y * y)
                + math.exp(-x * y)
                + math.log(abs(x) + 1.0)
            ) * (math.cos(y) + 2.0)

        for i in range(4):
            assert outs[i] == pytest.approx(g(a[i], b[i]))

    def test_void_function_call(self):
        src = (
            "func @side() -> void {\n"
            "entry:\n"
            "  ret\n"
            "}\n"
            "func @main() -> f64 {\n"
            "entry:\n"
            "  call @side()\n"
            "  ret 1.0:f64\n"
            "}\n"
        )
        assert Interpreter(parse_module(src)).run("main", []).value == 1.0
