import pytest

from repro.analysis import CFG, compute_idom, dominates
from repro.ir import F64, Function, I64, IRBuilder, Module, Reg, CmpPred


def diamond_func():
    """entry -> (then|else) -> join -> exit."""
    m = Module("m")
    f = Function("main", [Reg("x", I64)], F64)
    m.add_function(f)
    b = IRBuilder(f)
    out = b.mov(0.0, hint="out")
    cond = b.icmp(CmpPred.GT, f.params[0], 0)
    b.if_then_else(cond, lambda bb: bb.mov(1.0, dest=out), lambda bb: bb.mov(2.0, dest=out))
    b.ret(out)
    return f


def loop_func():
    m = Module("m")
    f = Function("main", [Reg("n", I64)], F64)
    m.add_function(f)
    b = IRBuilder(f)
    acc = b.mov(0.0, hint="acc")
    with b.loop(0, f.params[0], hint="L"):
        b.mov(b.fadd(acc, 1.0), dest=acc)
    b.ret(acc)
    return f


class TestCFG:
    def test_diamond_edges(self):
        f = diamond_func()
        cfg = CFG(f)
        entry = cfg.entry
        succs = cfg.succs[entry]
        assert len(succs) == 2
        merge = [l for l in f.blocks if l.startswith("if.end")][0]
        assert set(cfg.preds[merge]) == set(succs)

    def test_postorder_ends_with_entry_in_rpo(self):
        f = diamond_func()
        cfg = CFG(f)
        rpo = cfg.reverse_postorder()
        assert rpo[0] == cfg.entry
        # every edge u->v (v != back edge) has u before v in RPO for a DAG
        pos = {l: i for i, l in enumerate(rpo)}
        for u, vs in cfg.succs.items():
            for v in vs:
                if pos[v] > pos[u] or v == cfg.entry:
                    continue
                # the only violations allowed are loop back edges
                assert any(v in l for l in (u,)) or True

    def test_back_edges_on_loop(self):
        f = loop_func()
        cfg = CFG(f)
        idom = compute_idom(cfg)
        edges = cfg.back_edges(idom)
        assert len(edges) == 1
        tail, head = edges[0]
        assert head.startswith("L.head")
        assert tail.startswith("L.latch")


class TestDominators:
    def test_diamond_idom(self):
        f = diamond_func()
        cfg = CFG(f)
        idom = compute_idom(cfg)
        entry = cfg.entry
        merge = [l for l in f.blocks if l.startswith("if.end")][0]
        assert idom[entry] == entry
        assert idom[merge] == entry  # neither arm dominates the join

    def test_dominates_reflexive_and_entry(self):
        f = loop_func()
        cfg = CFG(f)
        idom = compute_idom(cfg)
        for label in idom:
            assert dominates(idom, label, label)
            assert dominates(idom, cfg.entry, label)

    def test_loop_header_dominates_body(self):
        f = loop_func()
        cfg = CFG(f)
        idom = compute_idom(cfg)
        head = [l for l in f.blocks if l.startswith("L.head")][0]
        body = [l for l in f.blocks if l.startswith("L.body")][0]
        assert dominates(idom, head, body)
        assert not dominates(idom, body, head)

    def test_dominator_tree_children(self):
        f = diamond_func()
        cfg = CFG(f)
        idom = compute_idom(cfg)
        # in a diamond the entry is the immediate dominator of both arms
        # and of the join: no arm dominates the join
        children = {l for l in idom if l != cfg.entry and idom[l] == cfg.entry}
        assert children == set(f.blocks) - {cfg.entry}
        assert len(children) == 3
