import pytest

from repro.ir import (
    F64,
    Function,
    I64,
    IRBuilder,
    Module,
    Opcode,
    Reg,
    parse_module,
    verify_module,
)
from repro.pipeline.passes import (
    CLEANUP_PASSES,
    PassVerificationError,
    run_pipeline,
)
from repro.runtime import Interpreter
from repro.transforms import (
    clone_function,
    duplicate_into_module,
    rename_all_registers,
    run_constfold,
    run_dce,
    run_dce_module,
    run_simplify_module,
)

from ..conftest import build_dot_module, run_main, seed_memory


class TestClone:
    def test_clone_is_deep(self, dot_module):
        f = dot_module.get_function("main")
        clone = clone_function(f, "copy")
        clone.blocks[clone.block_order()[0]].instrs[0].dest = Reg("hijack", I64)
        assert f.blocks[f.block_order()[0]].instrs[0].dest.name != "hijack"

    def test_clone_preserves_behavior(self, dot_module):
        clone = clone_function(dot_module.get_function("main"), "copy")
        dot_module.add_function(clone)
        verify_module(dot_module)
        mem = seed_memory(dot_module)
        r1 = Interpreter(dot_module, memory=mem).run("main", [4, 8])
        mem2 = seed_memory(dot_module)
        r2 = Interpreter(dot_module, memory=mem2).run("copy", [4, 8])
        assert mem.read_global("out", 4) == mem2.read_global("out", 4)

    def test_rename_all_registers(self, dot_module):
        clone = clone_function(dot_module.get_function("main"), "copy")
        mapping = rename_all_registers(clone, ".d")
        assert all(r.name.endswith(".d") for r in clone.params)
        for instr in clone.instructions():
            for reg in instr.uses():
                assert reg.name.endswith(".d")
        assert mapping["n"].name == "n.d"

    def test_duplicate_into_module(self, dot_module):
        dup = duplicate_into_module(dot_module, "main", "main.dup")
        verify_module(dot_module)
        assert dup.name == "main.dup"
        mem = seed_memory(dot_module)
        Interpreter(dot_module, memory=mem).run("main.dup", [4, 8])


class TestDCE:
    def test_removes_dead_chain(self):
        src = (
            "func @main() -> f64 {\n"
            "entry:\n"
            "  %a = fadd 1.0:f64, 2.0:f64\n"
            "  %dead1 = fmul %a, 3.0:f64\n"
            "  %dead2 = fmul %dead1, 3.0:f64\n"
            "  ret %a\n"
            "}\n"
        )
        m = parse_module(src)
        removed = run_dce(m.get_function("main"))
        assert removed == 2
        assert Interpreter(m).run("main", []).value == 3.0

    def test_keeps_side_effects(self):
        src = (
            "func @main() -> f64 {\n"
            "entry:\n"
            "  %p = alloc 4:i64\n"
            "  store 1.0:f64, %p\n"
            "  ret 0.0:f64\n"
            "}\n"
        )
        m = parse_module(src)
        assert run_dce(m.get_function("main")) == 0

    def test_preserves_semantics_on_real_program(self, dot_module):
        before, mem_before = run_main(build_dot_module(), [4, 8])
        run_dce_module(dot_module)
        verify_module(dot_module)
        after, mem_after = run_main(dot_module, [4, 8])
        assert mem_before.read_global("out", 4) == mem_after.read_global("out", 4)
        assert after.steps <= before.steps


class TestConstFold:
    def test_folds_constants(self):
        src = (
            "func @main() -> f64 {\n"
            "entry:\n"
            "  %a = mov 2.0:f64\n"
            "  %b = fmul %a, 3.0:f64\n"
            "  %c = fadd %b, 1.0:f64\n"
            "  ret %c\n"
            "}\n"
        )
        m = parse_module(src)
        folds = run_constfold(m.get_function("main"))
        assert folds > 0
        assert Interpreter(m).run("main", []).value == 7.0
        ret = m.get_function("main").entry.instrs[-1]
        # the returned value should now be a constant-mov'd register
        assert Interpreter(m).run("main", []).steps == 4

    def test_identity_simplification(self):
        src = (
            "func @main(%x: i64) -> f64 {\n"
            "entry:\n"
            "  %a = add %x, 0:i64\n"
            "  %b = mul %a, 1:i64\n"
            "  %f = sitofp %b\n"
            "  ret %f\n"
            "}\n"
        )
        m = parse_module(src)
        run_constfold(m.get_function("main"))
        verify_module(m)
        assert Interpreter(m).run("main", [9]).value == 9.0

    def test_no_fold_across_redefinition(self):
        src = (
            "func @main(%x: i64) -> f64 {\n"
            "entry:\n"
            "  %a = mov 2:i64\n"
            "  %a = mov %x\n"
            "  %f = sitofp %a\n"
            "  ret %f\n"
            "}\n"
        )
        m = parse_module(src)
        run_constfold(m.get_function("main"))
        assert Interpreter(m).run("main", [5]).value == 5.0

    def test_cmp_folding(self):
        src = (
            "func @main() -> f64 {\n"
            "entry:\n"
            "  %c = icmp lt 1:i64, 2:i64\n"
            "  %f = sitofp %c\n"
            "  ret %f\n"
            "}\n"
        )
        m = parse_module(src)
        assert run_constfold(m.get_function("main")) > 0
        assert Interpreter(m).run("main", []).value == 1.0

    @pytest.mark.parametrize("body", [
        "  %y = mul %x, %x\n  %z = mul %y, %y\n",
        "  %y = mul %x, %x\n  %z = shl %y, 63:i64\n",
    ], ids=["mul_chain", "shl_chain"])
    def test_fold_keeps_lazy_wrap(self, body):
        # past 2**128 the engines fold integer results back to 64 bits;
        # a constant fold must produce the same value, not the raw product
        src = ("func @main() -> i64 {\nentry:\n  %x = shl 1:i64, 63:i64\n"
               + body + "  ret %z\n}\n")
        m = parse_module(src)
        before = Interpreter(m).run("main", []).value
        assert run_constfold(m.get_function("main")) > 0
        assert Interpreter(m).run("main", []).value == before

    def test_module_helper_and_semantics(self, dot_module):
        _, mem_before = run_main(build_dot_module(), [4, 8])
        run_simplify_module(dot_module)
        run_dce_module(dot_module)
        verify_module(dot_module)
        _, mem_after = run_main(dot_module, [4, 8])
        assert mem_before.read_global("out", 4) == mem_after.read_global("out", 4)


class TestPassManager:
    def test_runs_in_order_with_verification(self, dot_module):
        runs = run_pipeline(dot_module, ("simplify", "dce"), verify=True)
        assert [r.name for r in runs] == ["simplify", "dce"]

    def test_verification_failure_propagates(self, monkeypatch):
        m = Module("m")
        f = Function("broken", [], F64)
        m.add_function(f)

        monkeypatch.setitem(CLEANUP_PASSES, "noop", lambda module: None)
        with pytest.raises(PassVerificationError) as exc:
            run_pipeline(m, ("noop",), verify=True)
        assert exc.value.pass_name == "noop"
