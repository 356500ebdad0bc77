import pytest

from repro.ir import (
    CmpPred,
    Const,
    F64,
    Function,
    I64,
    Instr,
    IRBuilder,
    Module,
    Opcode,
    Reg,
    VerificationError,
    VOID,
    f64,
    i64,
    verify_function,
    verify_module,
)
from repro.ir.values import GlobalAddr


def empty_main(ret=F64):
    m = Module("m")
    f = Function("main", [Reg("n", I64)], ret)
    m.add_function(f)
    return m, f


def assert_error(module, pattern):
    with pytest.raises(VerificationError, match=pattern):
        verify_module(module)


class TestStructure:
    def test_function_without_blocks(self):
        m, f = empty_main()
        assert_error(m, "no blocks")

    def test_empty_block(self):
        m, f = empty_main()
        f.add_block("entry")
        assert_error(m, "empty block")

    def test_missing_terminator(self):
        m, f = empty_main()
        f.add_block("entry").append(Instr(Opcode.MOV, dest=Reg("a", I64), args=(i64(1),)))
        assert_error(m, "does not end in a terminator")

    def test_terminator_mid_block(self):
        m, f = empty_main()
        block = f.add_block("entry")
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert_error(m, "mid-block")

    def test_branch_to_unknown_block(self):
        m, f = empty_main()
        f.add_block("entry").append(Instr(Opcode.BR, labels=("nowhere",)))
        assert_error(m, "unknown block")

    def test_ret_type_mismatches(self):
        m, f = empty_main(VOID)
        f.add_block("entry").append(Instr(Opcode.RET, args=(f64(1.0),)))
        assert_error(m, "void function returns")

        m2, f2 = empty_main(F64)
        f2.add_block("entry").append(Instr(Opcode.RET))
        assert_error(m2, "missing return value")


class TestTypes:
    def test_integer_op_on_float(self):
        m, f = empty_main()
        block = f.add_block("entry")
        block.append(Instr(Opcode.ADD, dest=Reg("a", I64), args=(f64(1.0), i64(2))))
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert_error(m, "integer op on f64")

    def test_float_op_on_int(self):
        m, f = empty_main()
        block = f.add_block("entry")
        block.append(Instr(Opcode.FADD, dest=Reg("a", F64), args=(i64(1), f64(2.0))))
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert_error(m, "float op on i64")

    def test_cbr_condition_must_be_int(self):
        m, f = empty_main()
        block = f.add_block("entry")
        block.append(Instr(Opcode.CBR, args=(f64(1.0),), labels=("entry", "entry")))
        assert_error(m, "condition must be integer")

    def test_compare_without_predicate(self):
        m, f = empty_main()
        block = f.add_block("entry")
        block.append(Instr(Opcode.ICMP, dest=Reg("c", I64), args=(i64(1), i64(2))))
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert_error(m, "without predicate")

    def test_select_arm_types(self):
        m, f = empty_main()
        block = f.add_block("entry")
        block.append(
            Instr(Opcode.SELECT, dest=Reg("s", F64), args=(i64(1), f64(1.0), i64(2)))
        )
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert_error(m, "arm types differ")

    def test_mov_between_int_and_float(self):
        m, f = empty_main()
        block = f.add_block("entry")
        block.append(Instr(Opcode.MOV, dest=Reg("a", F64), args=(i64(1),)))
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert_error(m, "mov between")

    def test_operand_count(self):
        m, f = empty_main()
        block = f.add_block("entry")
        block.append(Instr(Opcode.FADD, dest=Reg("a", F64), args=(f64(1.0),)))
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert_error(m, "expected 2 operands")


class TestDataflowAndLinkage:
    def test_use_before_assignment(self):
        m, f = empty_main()
        block = f.add_block("entry")
        block.append(Instr(Opcode.ADD, dest=Reg("a", I64), args=(Reg("ghost", I64), i64(1))))
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert_error(m, "used before assignment")

    def test_one_armed_definition_flagged(self):
        """A register assigned on only one CBR arm may be unassigned at the join."""
        m, f = empty_main()
        entry = f.add_block("entry")
        then = f.add_block("then")
        join = f.add_block("join")
        entry.append(Instr(Opcode.CBR, args=(f.params[0],), labels=("then", "join")))
        then.append(Instr(Opcode.MOV, dest=Reg("v", F64), args=(f64(1.0),)))
        then.append(Instr(Opcode.BR, labels=("join",)))
        join.append(Instr(Opcode.RET, args=(Reg("v", F64),)))
        assert_error(m, "used before assignment")

    def test_loop_carried_register_accepted(self, dot_module):
        verify_module(dot_module)  # conftest loops re-assign their registers

    def test_unknown_callee(self):
        m, f = empty_main()
        block = f.add_block("entry")
        block.append(Instr(Opcode.CALL, dest=Reg("r", F64), args=(), callee="ghost"))
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert_error(m, "unknown function")

    def test_call_arity(self):
        m, f = empty_main()
        g = Function("g", [Reg("x", F64)], F64)
        gb = IRBuilder(g)
        gb.ret(0.0)
        m.add_function(g)
        block = f.add_block("entry")
        block.append(Instr(Opcode.CALL, dest=Reg("r", F64), args=(), callee="g"))
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert_error(m, "expected 1")

    def test_unknown_global(self):
        m, f = empty_main()
        block = f.add_block("entry")
        block.append(Instr(Opcode.LOAD, dest=Reg("v", F64), args=(GlobalAddr("ghost"),)))
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert_error(m, "unknown global")

    def test_verify_function_returns_error_list(self):
        m, f = empty_main()
        errors = verify_function(f, m)
        assert errors and "no blocks" in errors[0]


class TestMessages:
    """An instruction is printed only into a message about it."""

    def test_a_clean_module_prints_no_instruction(self, dot_module, monkeypatch):
        from repro.ir import printer

        def refuse(*args):
            raise AssertionError("an instruction was printed")

        monkeypatch.setattr(Instr, "__repr__", refuse)
        monkeypatch.setattr(printer, "format_instr", refuse)
        verify_module(dot_module)

    def test_each_type_error_names_its_instruction(self):
        m, f = empty_main()
        block = f.add_block("entry")
        bad = Instr(Opcode.ADD, dest=Reg("a", F64), args=(f64(1.0), i64(2)))
        block.append(bad)
        block.append(Instr(Opcode.RET, args=(f64(0.0),)))
        assert verify_function(f, m) == [
            f"@main: {bad!r}: integer op on f64 operand",
            f"@main: {bad!r}: integer op writes f64 register",
        ]
