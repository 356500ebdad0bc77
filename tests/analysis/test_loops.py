from repro.analysis import CFG, find_induction, find_loops, loop_depth_map
from repro.ir import Const, F64, Function, I64, IRBuilder, Module, Reg

from ..conftest import build_dot_module


def nested_loops_func():
    m = Module("m")
    f = Function("main", [Reg("n", I64)], F64)
    m.add_function(f)
    b = IRBuilder(f)
    with b.loop(0, f.params[0], hint="A"):
        with b.loop(0, 8, hint="B"):
            pass
        with b.loop(2, f.params[0], step=2, hint="C"):
            pass
    b.ret(0.0)
    return f


class TestFindLoops:
    def test_counts_and_nesting(self):
        f = nested_loops_func()
        loops = find_loops(f)
        assert len(loops) == 3
        outer = [l for l in loops if l.header.startswith("A.head")][0]
        inner_b = [l for l in loops if l.header.startswith("B.head")][0]
        inner_c = [l for l in loops if l.header.startswith("C.head")][0]
        assert outer.depth == 1
        assert inner_b.depth == 2 and inner_b.parent is outer
        assert inner_c.depth == 2 and inner_c.parent is outer
        assert set(outer.children) == {inner_b, inner_c}

    def test_blocks_contain_header_and_latch(self):
        f = nested_loops_func()
        loops = find_loops(f)
        outer = [l for l in loops if l.header.startswith("A.head")][0]
        assert outer.header in outer.blocks
        for latch in outer.latches:
            assert latch in outer.blocks

    def test_depth_map(self):
        f = nested_loops_func()
        loops = find_loops(f)
        depth = loop_depth_map(loops)
        inner_b = [l for l in loops if l.header.startswith("B.head")][0]
        for label in inner_b.blocks:
            assert depth[label] == 2

    def test_no_loops_in_straightline(self):
        m = Module("m")
        f = Function("main", [], F64)
        m.add_function(f)
        b = IRBuilder(f)
        b.ret(b.fadd(1.0, 2.0))
        assert find_loops(f) == []


class TestInduction:
    def test_canonical_shape(self):
        f = nested_loops_func()
        cfg = CFG(f)
        loops = find_loops(f, cfg)
        outer = [l for l in loops if l.header.startswith("A.head")][0]
        ind = find_induction(f, outer, cfg)
        assert ind is not None
        assert isinstance(ind.start, Const) and ind.start.value == 0
        assert ind.bound.name == "n"
        assert isinstance(ind.step, Const) and ind.step.value == 1

    def test_nonunit_step_and_start(self):
        f = nested_loops_func()
        cfg = CFG(f)
        loops = find_loops(f, cfg)
        inner_c = [l for l in loops if l.header.startswith("C.head")][0]
        ind = find_induction(f, inner_c, cfg)
        assert ind is not None
        assert ind.start.value == 2
        assert ind.step.value == 2

    def test_irregular_loop_returns_none(self):
        # while-style loop with a float condition register is not canonical
        from repro.ir import CmpPred, Instr, Opcode, f64

        m = Module("m")
        f = Function("main", [], F64)
        m.add_function(f)
        b = IRBuilder(f)
        head = b.new_block("head")
        body = b.new_block("body")
        done = b.new_block("done")
        x = b.mov(0.0, hint="x")
        b.br(head)
        b.at_end(head)
        c = b.fcmp(CmpPred.LT, x, 10.0)
        b.cbr(c, body, done)
        b.at_end(body)
        b.mov(b.fadd(x, 1.0), dest=x)
        b.br(head)
        b.at_end(done)
        b.ret(x)
        cfg = CFG(f)
        loops = find_loops(f, cfg)
        assert len(loops) == 1
        assert find_induction(f, loops[0], cfg) is None

    def test_dot_module_inductions(self):
        f = build_dot_module().get_function("main")
        cfg = CFG(f)
        for loop in find_loops(f, cfg):
            assert find_induction(f, loop, cfg) is not None
