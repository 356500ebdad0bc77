from repro.analysis import (
    CFG,
    Liveness,
    compute_chains,
    compute_slice,
    defining_instr,
)
from repro.ir import CmpPred, F64, Function, I64, IRBuilder, Module, Opcode, Reg

from ..conftest import build_dot_module


def straightline():
    m = Module("m")
    f = Function("main", [Reg("p", I64)], F64)
    m.add_function(f)
    b = IRBuilder(f)
    a = b.load(f.params[0], hint="a")
    c = b.fmul(a, 2.0)
    d = b.fadd(c, a)
    dead = b.fmul(a, 3.0)  # never used
    b.store(d, f.params[0])
    b.ret(d)
    return f, (a, c, d, dead)


class TestChains:
    def test_def_and_use_sites(self):
        f, (a, c, d, dead) = straightline()
        chains = compute_chains(f)
        assert len(chains.def_sites(a.name)) == 1
        assert len(chains.uses[a.name]) == 3  # c, d, dead
        assert len(chains.def_sites(c.name)) == 1

    def test_multi_def_register(self, dot_module):
        f = dot_module.get_function("main")
        chains = compute_chains(f)
        accs = [n for n in chains.defs if n.startswith("acc")]
        assert accs
        # the accumulator is written at init and in the loop body
        assert len(chains.def_sites(accs[0])) >= 2
        assert len(chains.def_sites(accs[0])) != 1

    def test_dead_detection(self):
        f, (a, c, d, dead) = straightline()
        chains = compute_chains(f)
        assert dead.name in chains.defs and not chains.uses.get(dead.name)
        assert chains.uses.get(d.name)

    def test_defining_instr(self):
        f, (a, c, d, dead) = straightline()
        chains = compute_chains(f)
        (site,) = chains.def_sites(c.name)
        assert defining_instr(f, site).op is Opcode.FMUL


class TestSlice:
    def test_slice_contains_transitive_deps(self):
        f, (a, c, d, dead) = straightline()
        sites = compute_slice(f, d)
        ops = [defining_instr(f, s).op for s in sites]
        assert Opcode.LOAD in ops and Opcode.FMUL in ops and Opcode.FADD in ops
        # the dead multiply is not in d's slice
        assert len([o for o in ops if o is Opcode.FMUL]) == 1

    def test_slice_respects_region(self, dot_module):
        f = dot_module.get_function("main")
        chains = compute_chains(f)
        store_site = next(
            (label, i)
            for label in f.block_order()
            for i, ins in enumerate(f.blocks[label].instrs)
            if ins.op is Opcode.STORE
        )
        value = defining_instr(f, store_site).args[0]
        inner_blocks = {l for l in f.blocks if l.startswith("inner")}
        region = inner_blocks | {store_site[0]}
        sites = compute_slice(f, value, region, chains)
        assert sites
        assert all(s[0] in region for s in sites)

    def test_slice_in_program_order(self):
        f, (a, c, d, dead) = straightline()
        sites = compute_slice(f, d)
        assert sites == sorted(sites, key=lambda s: s[1])


class TestLiveness:
    def test_dead_defs_found(self):
        f, (a, c, d, dead) = straightline()
        live = Liveness(f)
        dead_sites = live.dead_defs()
        names = {f.blocks[l].instrs[i].dest.name for l, i in dead_sites}
        assert dead.name in names
        assert d.name not in names

    def test_loop_carried_liveness(self, dot_module):
        f = dot_module.get_function("main")
        live = Liveness(f)
        head = [l for l in f.blocks if l.startswith("inner.head")][0]
        accs = {n for n in live.live_in[head] if n.startswith("acc")}
        assert accs  # the accumulator is live around the inner loop

    def test_live_at_point(self):
        f, (a, c, d, dead) = straightline()
        live = Liveness(f)
        entry = f.block_order()[0]
        # before the fadd, both a and c are live
        idx = next(i for i, ins in enumerate(f.blocks[entry].instrs) if ins.op.value == "fadd")
        at = live.live_at(entry, idx)
        assert a.name in at and c.name in at

    def test_params_live_in_entry(self):
        f, _ = straightline()
        live = Liveness(f)
        assert "p" in live.live_in[f.block_order()[0]]
