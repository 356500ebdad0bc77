from repro.analysis import PatternKind, detect_target_loops
from repro.ir import F64, Function, I64, IRBuilder, Module, Reg, verify_module

from ..conftest import build_call_module, build_dot_module, build_rmw_module


class TestDetectionPositive:
    def test_reduction_loop(self, dot_module):
        targets = detect_target_loops(dot_module.get_function("main"), dot_module)
        assert len(targets) == 1
        t = targets[0]
        assert t.kind is PatternKind.REDUCTION_LOOP
        assert t.value_reg.ty.is_float
        assert not t.rmw_load_sites
        assert t.per_iter_cost >= 40

    def test_function_call(self, call_module):
        targets = detect_target_loops(call_module.get_function("main"), call_module)
        assert len(targets) == 1
        t = targets[0]
        assert t.kind is PatternKind.FUNCTION_CALL
        assert t.callee == "g"

    def test_rmw_detected(self, rmw_module):
        targets = detect_target_loops(rmw_module.get_function("main"), rmw_module)
        assert len(targets) == 1
        assert targets[0].rmw_load_sites

    def test_live_ins_are_outside_defs(self, dot_module):
        func = dot_module.get_function("main")
        (t,) = detect_target_loops(func, dot_module)
        loop_defs = {
            i.dest.name
            for l in t.loop.blocks
            for i in func.blocks[l].instrs
            if i.dest is not None
        }
        for reg in t.live_ins:
            assert reg.name not in loop_defs


class TestDetectionNegative:
    def _loop_module(self, body_fn):
        m = Module("m")
        m.add_global("out", 64)
        f = Function("main", [Reg("n", I64)], F64)
        m.add_function(f)
        b = IRBuilder(f)
        op = b.mov(b.global_addr("out"), hint="op")
        with b.loop(0, f.params[0], hint="L") as i:
            body_fn(b, i, op)
        b.ret(0.0)
        verify_module(m)
        return m, f

    def test_initialization_loop_rejected(self):
        # cheap store loop: no expensive computation to predict
        m, f = self._loop_module(lambda b, i, op: b.store(0.0, b.padd(op, i)))
        assert detect_target_loops(f, m) == []

    def test_integer_store_rejected(self):
        def body(b, i, op):
            acc = b.mov(0, hint="iacc")
            with b.loop(0, 16):
                b.mov(b.add(acc, 3), dest=acc)
            b.store(acc, b.padd(op, i))

        m, f = self._loop_module(body)
        assert detect_target_loops(f, m) == []

    def test_multiple_stores_rejected(self):
        def body(b, i, op):
            acc = b.mov(0.0, hint="acc")
            with b.loop(0, 16) as j:
                b.mov(b.fadd(acc, b.sitofp(j)), dest=acc)
            b.store(acc, b.padd(op, i))
            b.store(acc, b.padd(op, b.add(i, 32)))

        m, f = self._loop_module(body)
        assert detect_target_loops(f, m) == []

    def test_cheap_call_rejected(self):
        m = Module("m")
        m.add_global("out", 64)
        tiny = Function("tiny", [Reg("x", F64)], F64)
        m.add_function(tiny)
        tb = IRBuilder(tiny)
        tb.ret(tb.fadd(tiny.params[0], 1.0))
        f = Function("main", [Reg("n", I64)], F64)
        m.add_function(f)
        b = IRBuilder(f)
        op = b.mov(b.global_addr("out"), hint="op")
        with b.loop(0, f.params[0]) as i:
            v = b.call("tiny", [b.sitofp(i)])
            b.store(v, b.padd(op, i))
        b.ret(0.0)
        verify_module(m)
        assert detect_target_loops(f, m) == []


class TestClassification:
    def test_nested_reduction(self):
        m = Module("m")
        m.add_global("out", 64)
        f = Function("main", [Reg("n", I64)], F64)
        m.add_function(f)
        b = IRBuilder(f)
        op = b.mov(b.global_addr("out"), hint="op")
        with b.loop(0, f.params[0], hint="T") as i:
            acc = b.mov(0.0, hint="acc")
            with b.loop(0, 6):
                with b.loop(0, 6):
                    b.mov(b.fadd(acc, 1.5), dest=acc)
            b.store(acc, b.padd(op, i))
        b.ret(0.0)
        (t,) = detect_target_loops(f, m)
        assert t.kind is PatternKind.NESTED_REDUCTION

    def test_varying_trip_count(self):
        m = Module("m")
        m.add_global("out", 256)
        f = Function("main", [Reg("n", I64)], F64)
        m.add_function(f)
        b = IRBuilder(f)
        op = b.mov(b.global_addr("out"), hint="op")
        with b.loop(0, f.params[0], hint="outer") as i:
            with b.loop(0, f.params[0], hint="mid") as j:
                acc = b.mov(0.0, hint="acc")
                with b.loop(0, i, hint="red") as k:  # bound = enclosing ivar
                    b.mov(b.fadd(acc, b.sitofp(k)), dest=acc)
                b.store(acc, b.padd(op, b.add(b.mul(i, f.params[0]), j)))
        b.ret(0.0)
        verify_module(m)
        targets = detect_target_loops(f, m)
        assert len(targets) == 1
        assert targets[0].kind is PatternKind.REDUCTION_VARYING

    def test_location_flag(self, dot_module, call_module):
        (t1,) = detect_target_loops(dot_module.get_function("main"), dot_module)
        assert not t1.inside_outer_loop  # the dot loop is top level
        (t2,) = detect_target_loops(call_module.get_function("main"), call_module)
        assert not t2.inside_outer_loop

    def test_conditional_classification(self):
        from repro.ir import CmpPred

        m = Module("m")
        m.add_global("x", 64)
        m.add_global("out", 64)
        f = Function("main", [Reg("n", I64)], F64)
        m.add_function(f)
        b = IRBuilder(f)
        xp = b.mov(b.global_addr("x"), hint="xp")
        op = b.mov(b.global_addr("out"), hint="op")
        with b.loop(0, f.params[0], hint="T") as i:
            acc = b.mov(0.0, hint="acc")
            with b.loop(0, 16, hint="red") as j:
                v = b.load(b.padd(xp, j))
                big = b.fcmp(CmpPred.GT, v, 0.5)
                b.if_then_else(big, lambda bb, acc=acc, v=v: bb.mov(bb.fadd(acc, v), dest=acc))
            b.store(acc, b.padd(op, i))
        b.ret(0.0)
        verify_module(m)
        (t,) = detect_target_loops(f, m)
        assert t.kind is PatternKind.NESTED_REDUCTION_COND
