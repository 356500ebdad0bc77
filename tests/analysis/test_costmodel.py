from repro.analysis import (
    DEFAULT_TRIP,
    LATENCY,
    estimate_function_cost,
    instr_cost,
)
from repro.ir import F64, Function, I64, IRBuilder, Instr, Module, Opcode, Reg


class TestLatencyTable:
    def test_covers_every_opcode(self):
        for op in Opcode:
            assert op in LATENCY

    def test_relative_ordering(self):
        assert LATENCY[Opcode.ADD] < LATENCY[Opcode.FMUL] < LATENCY[Opcode.FDIV]
        assert LATENCY[Opcode.EXP] > LATENCY[Opcode.FMUL]

    def test_instr_cost(self):
        add = Instr(Opcode.ADD, dest=Reg("a", I64), args=())
        assert instr_cost(add) == LATENCY[Opcode.ADD]


class TestFunctionCost:
    def build(self, loops: int):
        m = Module("m")
        f = Function("main", [Reg("n", I64)], F64)
        m.add_function(f)
        b = IRBuilder(f)
        if loops == 0:
            b.ret(b.fadd(1.0, 2.0))
        elif loops == 1:
            with b.loop(0, f.params[0]):
                b.fmul(1.0, 2.0)
            b.ret(0.0)
        else:
            with b.loop(0, f.params[0]):
                with b.loop(0, f.params[0]):
                    b.fmul(1.0, 2.0)
            b.ret(0.0)
        return m, f

    def test_loop_depth_scales_cost(self):
        _, flat = self.build(0)
        _, one = self.build(1)
        _, two = self.build(2)
        c0 = estimate_function_cost(flat)
        c1 = estimate_function_cost(one)
        c2 = estimate_function_cost(two)
        assert c0 < c1 < c2
        assert c2 > DEFAULT_TRIP * c1 / 4  # roughly a trip-count factor

    def test_call_includes_callee(self):
        m = Module("m")
        g = Function("g", [], F64)
        m.add_function(g)
        gb = IRBuilder(g)
        v = gb.mov(1.0)
        for _ in range(20):
            v = gb.exp(v)
        gb.ret(v)

        f = Function("main", [], F64)
        m.add_function(f)
        fb = IRBuilder(f)
        fb.ret(fb.call("g", []))

        without = estimate_function_cost(f)
        with_callee = estimate_function_cost(f, m)
        assert with_callee > without + 15 * 20

    def test_recursion_is_cut_off(self):
        m = Module("m")
        f = Function("main", [], F64)
        m.add_function(f)
        b = IRBuilder(f)
        b.ret(b.call("main", []))
        # must terminate and return a finite value
        assert estimate_function_cost(f, m) > 0
