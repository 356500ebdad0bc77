"""The RSkip compiler transform (paper sections 3-4).

For every detected target loop the transform builds:

* **PP (prediction-based protection)** — the loop's expensive value
  computation is outlined into ``<f>.L<k>.body`` and its register-renamed
  redundant clone ``<f>.L<k>.body.dup``.  The loop itself calls ``body``
  once per iteration, feeds the result to the run-time predictor
  (``rskip.observe``), and only *drains* re-computations (calls to
  ``body.dup``) for elements the predictors could not validate.  Recovery
  is a majority vote over a second ``body.dup`` evaluation.
  For function-call targets (blackscholes) the callee itself plays the
  role of ``body`` and its arguments are buffered so the second-level
  memoization predictor can key on them.

* **CP (conventional protection)** — a clone of the whole loop in its own
  function, later protected with SWIFT-R.  ``rskip.select`` picks PP or CP
  at run time (run-time management may disable PP).

With ``kind="replay"``/``"ckpt"``, :func:`transform_loops` builds the
REPLAY/CKPT protocol loops (:mod:`repro.core.protocol`) from the same
skeleton with the spatial parts off: no ``.dup`` clone, no CP version,
no ``select`` — the drain re-executes ``body`` itself.

After the per-loop surgery, :func:`apply_rskip` runs SWIFT-R over the whole
module *except* the outlined body/dup functions: the loop skeleton
(induction, address computation, stores) gets conventional instruction
triplication — "we protect address calculation of memory instruction with
the conventional strategy" — while the expensive value computation is
protected by prediction alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.defuse import compute_chains, defining_instr
from ..analysis.patterns import PatternKind, TargetLoop, detect_target_loops
from ..ir.function import Function
from ..ir.instructions import CmpPred, Instr, Opcode
from ..ir.module import Module
from ..ir.types import F64, I64, PTR, VOID
from ..ir.values import Const, Reg, Value
from ..transforms.clone import clone_function, rename_all_registers
from ..transforms.swift import apply_swift_r
from .config import RSkipConfig
from .manager import LoopProfile, LoopRuntimes, RskipRuntime

ORIG_PARAM = "rskip.origval"

#: The protected-loop families this transform builds.  RSkip protects
#: spatially (a renamed ``.dup`` clone re-computes, a CP version stands
#: by); the REPLAY/CKPT protocols protect temporally (the drain
#: re-executes the *same* outlined body) and skip everything spatial.
RSKIP = "rskip"
PROTOCOL_KINDS = ("replay", "ckpt")

#: Intrinsic namespace shared by both protocol families (the per-loop
#: runtime object encodes replay-vs-ckpt semantics, not the name).
PROTOCOL_NS = "proto"

#: Function attribute marking outlined protocol bodies; the O3 oracle
#: derives its region flip scope from it (attrs round-trip through the
#: artifact cache, so a cache-hit module keeps its markers).
PROTOCOL_REGION_ATTR = "protocol-region"


@dataclass
class TargetLayout:
    """Everything the harness needs to know about one transformed loop."""

    key: str
    ctx_id: int
    mode: str  # 'reduction' or 'call'
    rmw: bool
    wrapper: str
    loop_labels: List[str]
    pp_labels: List[str] = field(default_factory=list)
    body: Optional[str] = None
    dup: Optional[str] = None
    callee: Optional[str] = None
    callee_dup: Optional[str] = None
    cp: Optional[str] = None
    n_args: int = 0
    kind: Optional[PatternKind] = None

    @property
    def unprotected_funcs(self) -> List[str]:
        out = []
        for name in (self.body, self.dup, self.callee, self.callee_dup):
            if name is not None:
                out.append(name)
        return out

    @property
    def region_funcs(self) -> List[str]:
        """Functions whose entire body counts as 'inside the detected loop'."""
        out = list(self.unprotected_funcs)
        if self.cp is not None:
            out.append(self.cp)
        return out

    def to_dict(self) -> dict:
        """JSON-safe form (the artifact cache stores layouts alongside the
        printed module, since layouts are not part of the textual IR)."""
        return {
            "key": self.key, "ctx_id": self.ctx_id, "mode": self.mode,
            "rmw": self.rmw, "wrapper": self.wrapper,
            "loop_labels": list(self.loop_labels),
            "pp_labels": list(self.pp_labels),
            "body": self.body, "dup": self.dup, "callee": self.callee,
            "callee_dup": self.callee_dup, "cp": self.cp,
            "n_args": self.n_args,
            "kind": self.kind.name if self.kind is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TargetLayout":
        kind = data.get("kind")
        return cls(
            key=data["key"], ctx_id=data["ctx_id"], mode=data["mode"],
            rmw=data["rmw"], wrapper=data["wrapper"],
            loop_labels=list(data["loop_labels"]),
            pp_labels=list(data.get("pp_labels", [])),
            body=data.get("body"), dup=data.get("dup"),
            callee=data.get("callee"), callee_dup=data.get("callee_dup"),
            cp=data.get("cp"), n_args=data.get("n_args", 0),
            kind=PatternKind[kind] if kind is not None else None,
        )


@dataclass
class RskipApplication:
    """Result of applying a protected-loop transform to a module — RSkip
    or a REPLAY/CKPT protocol: the transformed module, its target
    layouts and the (stateful) runtime serving its intrinsics."""

    module: Module
    layouts: List[TargetLayout]
    runtime: LoopRuntimes

    def intrinsics(self) -> Dict[str, object]:
        return self.runtime.intrinsics()

class RskipError(ValueError):
    """A detected target could not be transformed safely."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _provenance(func: Function) -> Dict[str, str]:
    return func.attrs.setdefault("provenance", {})


def _call_mode_info(func: Function, target: TargetLoop) -> Optional[Instr]:
    """Return the producing CALL instruction if this target qualifies for
    call mode (value stored is exactly the call result, all-float args,
    no read-modify-write)."""
    if target.kind is not PatternKind.FUNCTION_CALL or target.rmw_load_sites:
        return None
    chains = compute_chains(func)
    region = set(target.region_labels)
    sites = [s for s in chains.def_sites(target.value_reg.name) if s[0] in region]
    if len(sites) != 1:
        return None
    instr = defining_instr(func, sites[0])
    if instr.op is not Opcode.CALL or instr.callee != target.callee:
        return None
    if not all(a.ty.is_float for a in instr.args):
        return None
    return instr


def _clone_affine(
    func: Function,
    target: TargetLoop,
    out: List[Instr],
    suffix: str,
) -> Value:
    """Clone the address computation into *out* with fresh registers;
    returns the value to use as the store address."""
    if not target.addr_sites:
        return target.addr_value
    mapping: Dict[str, Reg] = {}
    for site in target.addr_sites:
        instr = defining_instr(func, site)
        new_dest = func.new_reg(instr.dest.ty, f"ppaddr{suffix}")
        cloned = instr.rename(mapping)
        cloned.dest = new_dest
        out.append(cloned)
        mapping[instr.dest.name] = new_dest
    assert isinstance(target.addr_value, Reg)
    return mapping[target.addr_value.name]


def _emit_drain(
    func: Function,
    prefix: str,
    ctx: Const,
    recompute_call: "RecomputeSpec",
    done_label: str,
) -> str:
    """Emit the re-computation drain loop against the spec's intrinsic
    namespace; returns its entry label."""
    ns = recompute_call.ns
    head = func.add_block(f"{prefix}.head")
    body = func.add_block(f"{prefix}.rc")
    second = func.add_block(f"{prefix}.second")
    commit = func.add_block(f"{prefix}.commit")

    pi = func.new_reg(I64, f"{prefix}.i")
    head.append(Instr(Opcode.INTRIN, dest=pi, args=(ctx,), callee=f"{ns}.fetch"))
    cond = func.new_reg(I64, f"{prefix}.more")
    head.append(Instr(Opcode.ICMP, dest=cond, args=(pi, Const(0, I64)), pred=CmpPred.GE))
    head.append(Instr(Opcode.CBR, args=(cond,), labels=(body.label, done_label)))

    call_instr, fx = recompute_call.emit(func, body, pi, ctx)
    need2 = func.new_reg(I64, f"{prefix}.need2")
    body.append(Instr(Opcode.INTRIN, dest=need2, args=(ctx,), callee=f"{ns}.need2"))
    body.append(Instr(Opcode.CBR, args=(need2,), labels=(second.label, commit.label)))

    _, _ = recompute_call.emit(func, second, pi, ctx, resolve2=True, fx=fx)
    second.append(Instr(Opcode.BR, labels=(commit.label,)))

    pa = func.new_reg(PTR, f"{prefix}.addr")
    commit.append(Instr(Opcode.INTRIN, dest=pa, args=(ctx,), callee=f"{ns}.addr"))
    commit.append(Instr(Opcode.STORE, args=(fx, pa)))
    commit.append(Instr(Opcode.BR, labels=(head.label,)))
    return head.label


@dataclass
class RecomputeSpec:
    """How the drain re-computes one element (reduction vs. call mode)."""

    dup_name: str
    live_ins: Tuple[Reg, ...] = ()
    rmw: bool = False
    n_args: int = 0  # call mode: number of buffered arguments
    ns: str = RSKIP  # intrinsic namespace: rskip.* or proto.*

    def emit(
        self,
        func: Function,
        block,
        pi: Reg,
        ctx: Const,
        resolve2: bool = False,
        fx: Optional[Reg] = None,
    ) -> Tuple[Instr, Reg]:
        args: List[Value] = []
        if self.n_args:
            for k in range(self.n_args):
                ak = func.new_reg(F64, f"rca{k}")
                block.append(
                    Instr(
                        Opcode.INTRIN,
                        dest=ak,
                        args=(ctx, Const(k, I64)),
                        callee=f"{self.ns}.arg",
                    )
                )
                args.append(ak)
        else:
            args.append(pi)
            args.extend(self.live_ins)
            if self.rmw:
                porig = func.new_reg(F64, "rcorig")
                block.append(
                    Instr(Opcode.INTRIN, dest=porig, args=(ctx,), callee=f"{self.ns}.orig")
                )
                args.append(porig)
        rv = func.new_reg(F64, "rcv")
        call = Instr(Opcode.CALL, dest=rv, args=tuple(args), callee=self.dup_name)
        block.append(call)
        if fx is None:
            fx = func.new_reg(F64, "rcfx")
        name = f"{self.ns}.resolve2" if resolve2 else f"{self.ns}.resolve"
        block.append(Instr(Opcode.INTRIN, dest=fx, args=(ctx, rv), callee=name))
        return call, fx


# ---------------------------------------------------------------------------
# CP version
# ---------------------------------------------------------------------------

def _loop_live_ins(func: Function, target: TargetLoop) -> List[Reg]:
    """Registers the whole loop reads but defines outside it (CP params)."""
    loop_blocks = target.loop.blocks
    defined: Set[str] = set()
    for label in loop_blocks:
        for instr in func.blocks[label].instrs:
            if instr.dest is not None:
                defined.add(instr.dest.name)
    ivar = target.ind.reg.name
    seen: Dict[str, Reg] = {}
    for label in loop_blocks:
        for instr in func.blocks[label].instrs:
            for reg in instr.uses():
                if reg.name == ivar or reg.name in defined:
                    continue
                seen.setdefault(reg.name, reg)
    return [seen[k] for k in sorted(seen)]


def _build_cp(
    module: Module,
    func: Function,
    target: TargetLoop,
    cp_name: str,
    callee_cp: Optional[Dict[str, str]] = None,
) -> Tuple[Function, List[Reg]]:
    """Clone the whole loop into a standalone function (the CP version)."""
    live = _loop_live_ins(func, target)
    ivar = target.ind.reg
    params = [Reg("cp.start", I64)] + [Reg(r.name, r.ty) for r in live]
    cp = Function(cp_name, params, VOID)

    entry = cp.add_block("cp.entry")
    entry.append(Instr(Opcode.MOV, dest=Reg(ivar.name, ivar.ty), args=(params[0],)))
    entry.append(Instr(Opcode.BR, labels=(target.loop.header,)))

    exit_targets: Set[str] = set()
    for label in func.block_order():
        if label not in target.loop.blocks:
            continue
        block = cp.add_block(label)
        for instr in func.blocks[label].instrs:
            copy = instr.copy()
            if copy.op is Opcode.CALL and callee_cp and copy.callee in callee_cp:
                copy.callee = callee_cp[copy.callee]
            if copy.labels:
                new_labels = []
                for t in copy.labels:
                    if t in target.loop.blocks:
                        new_labels.append(t)
                    else:
                        exit_targets.add(t)
                        new_labels.append("cp.ret")
                copy.labels = tuple(new_labels)
            block.append(copy)
    ret = cp.add_block("cp.ret")
    ret.append(Instr(Opcode.RET))
    cp._reg_counter = func._reg_counter
    module.add_function(cp)
    return cp, live


# ---------------------------------------------------------------------------
# body outlining (reduction mode)
# ---------------------------------------------------------------------------

def _outline_body(
    module: Module,
    func: Function,
    target: TargetLoop,
    body_name: str,
) -> Function:
    ivar = target.ind.reg
    params = [Reg(ivar.name, ivar.ty)] + [Reg(r.name, r.ty) for r in target.live_ins]
    if target.rmw_load_sites:
        params.append(Reg(ORIG_PARAM, F64))
    body = Function(body_name, params, F64)

    store_label, store_idx = target.store_site
    rmw = set(target.rmw_load_sites)
    for label in target.region_labels:
        block = body.add_block(label)
        for idx, instr in enumerate(func.blocks[label].instrs):
            site = (label, idx)
            if site == target.store_site:
                rest = func.blocks[label].instrs[idx + 1 :]
                if any(not i.is_terminator for i in rest):
                    raise RskipError(
                        f"{target.func_name}:{label}: instructions after the "
                        "target store; cannot outline"
                    )
                block.append(Instr(Opcode.RET, args=(target.value_reg,)))
                break
            if site in rmw:
                block.append(
                    Instr(Opcode.MOV, dest=instr.dest, args=(Reg(ORIG_PARAM, F64),))
                )
                continue
            copy = instr.copy()
            for t in copy.labels:
                if t not in set(target.region_labels):
                    raise RskipError(
                        f"{target.func_name}:{label}: branch to {t} leaves the "
                        "region through a non-store block; cannot outline"
                    )
            block.append(copy)
    body._reg_counter = func._reg_counter
    module.add_function(body)
    return body


# ---------------------------------------------------------------------------
# wrapper surgery
# ---------------------------------------------------------------------------

def _redirect_into_select(
    func: Function,
    target: TargetLoop,
    select_label: str,
    skip_labels: Set[str],
) -> None:
    """Route every loop entry edge through the version-selection block."""
    header = target.loop.header
    for label in func.block_order():
        if label in target.loop.blocks or label == select_label or label in skip_labels:
            continue
        for instr in func.blocks[label].instrs:
            if instr.labels and header in instr.labels:
                instr.labels = tuple(
                    select_label if t == header else t for t in instr.labels
                )


def _exit_label_of(func: Function, target: TargetLoop) -> str:
    """The unique loop-exit target (the header cbr's outside successor)."""
    term = func.blocks[target.loop.header].terminator
    outside = [t for t in term.labels if t not in target.loop.blocks]
    if len(outside) != 1:
        raise RskipError(
            f"{target.func_name}:{target.loop.header}: expected exactly one "
            f"loop exit from the header, found {outside}"
        )
    return outside[0]


def _loop_base(func: Function, ctx_id: int, kind: str) -> str:
    """Name stem of one transformed loop: ``<f>.L<k>`` for RSkip,
    ``<f>.P<k>`` for the protocols."""
    return f"{func.name}.{'L' if kind == RSKIP else 'P'}{ctx_id}"


class _LoopSurgery:
    """The wrapper surgery shared by every protected-loop transform.

    Every block it adds inherits the loop header's provenance and is
    listed in the layout's ``pp_labels``.  Names follow the family: RSkip
    builds ``<f>.L<k>.*`` blocks with ``pp*`` registers against
    ``rskip.*``; the protocols build ``<f>.P<k>.*`` with ``p*`` registers
    against ``proto.*``.
    """

    def __init__(self, func: Function, target: TargetLoop, ctx_id: int, kind: str):
        spatial = kind == RSKIP
        self.func = func
        self.target = target
        self.ns = RSKIP if spatial else PROTOCOL_NS
        self.reg = "pp" if spatial else "p"
        self.base = _loop_base(func, ctx_id, kind)
        self.ctx = Const(ctx_id, I64)
        self.exit_label = _exit_label_of(func, target)
        self.prov = _provenance(func)
        self.labels: List[str] = []

    def adopt(self, label: str) -> None:
        self.prov[label] = self.target.loop.header
        self.labels.append(label)

    def block(self, suffix: str):
        block = self.func.add_block(f"{self.base}.{suffix}")
        self.adopt(block.label)
        return block

    def _drain(self, name: str, spec: "RecomputeSpec", done_label: str) -> str:
        prefix = f"{self.base}.{name}"
        entry = _emit_drain(self.func, prefix, self.ctx, spec, done_label)
        for part in ("head", "rc", "second", "commit"):
            self.adopt(f"{prefix}.{part}")
        return entry

    def finish(
        self,
        spec: "RecomputeSpec",
        observe_block,
        observe_args: List[Value],
        cont_label: str,
        cp: Optional[Function] = None,
        cp_live: Sequence[Reg] = (),
    ) -> None:
        """The shared back half: observe + drain (then *cont_label*),
        flush + final drain at loop exit, the header's exit edge
        retargeted to the flush, and the prologue every loop entry goes
        through — ``enter`` alone, or the PP/CP ``select`` when a *cp*
        version exists."""
        func, target, ctx, ns = self.func, self.target, self.ctx, self.ns
        pend = func.new_reg(I64, f"{self.reg}pend")
        observe_block.append(
            Instr(Opcode.INTRIN, dest=pend, args=tuple(observe_args), callee=f"{ns}.observe")
        )
        drain_entry = self._drain("drain", spec, cont_label)
        observe_block.append(Instr(Opcode.CBR, args=(pend,), labels=(drain_entry, cont_label)))

        # flush path on loop exit
        flush_bb = self.block("flush")
        fpend = func.new_reg(I64, f"{self.reg}flush")
        flush_bb.append(Instr(Opcode.INTRIN, dest=fpend, args=(ctx,), callee=f"{ns}.flush"))
        exit_bb = self.block(f"{self.reg}exit")
        exit_bb.append(Instr(Opcode.INTRIN, args=(ctx,), callee=f"{ns}.exit"))
        exit_bb.append(Instr(Opcode.BR, labels=(self.exit_label,)))
        fdrain_entry = self._drain("fdrain", spec, exit_bb.label)
        flush_bb.append(Instr(Opcode.CBR, args=(fpend,), labels=(fdrain_entry, exit_bb.label)))

        header_term = func.blocks[target.loop.header].terminator
        header_term.labels = tuple(
            flush_bb.label if t == self.exit_label else t for t in header_term.labels
        )

        # the prologue: version selection (RSkip) or a bare runtime reset
        if cp is not None:
            entry_bb = self.block("select")
            enter_bb = self.block("enter")
            cp_bb = self.block("cpcall")
            sel = func.new_reg(I64, "ppsel")
            entry_bb.append(Instr(Opcode.INTRIN, dest=sel, args=(ctx,), callee=f"{ns}.select"))
            entry_bb.append(Instr(Opcode.CBR, args=(sel,), labels=(enter_bb.label, cp_bb.label)))
            cp_args: List[Value] = [target.ind.reg] + list(cp_live)
            cp_bb.append(Instr(Opcode.CALL, args=tuple(cp_args), callee=cp.name))
            cp_bb.append(Instr(Opcode.BR, labels=(self.exit_label,)))
        else:
            entry_bb = enter_bb = self.block("enter")
        enter_bb.append(Instr(Opcode.INTRIN, args=(ctx,), callee=f"{ns}.enter"))
        enter_bb.append(Instr(Opcode.BR, labels=(target.loop.header,)))
        _redirect_into_select(func, target, entry_bb.label, set(self.labels))


def _transform_reduction(
    module: Module,
    func: Function,
    target: TargetLoop,
    ctx_id: int,
    kind: str = RSKIP,
) -> TargetLayout:
    """Outline the target loop's body and wire it to the *kind* family's
    runtime.

    RSkip re-computes through a register-renamed ``.dup`` clone and
    builds a CP version behind ``select``.  The protocols re-execute the
    *same* body (temporal redundancy) and enter the loop directly; REPLAY
    still stores each result on the main path (detection only: memory
    always matches the unprotected run), while CKPT elides that store so
    every element reaches memory only through a checkpoint commit drain.
    """
    base = _loop_base(func, ctx_id, kind)
    body = _outline_body(module, func, target, f"{base}.body")
    dup = cp = None
    cp_live: List[Reg] = []
    if kind == RSKIP:
        dup = clone_function(body, f"{body.name}.dup")
        rename_all_registers(dup, ".d")
        module.add_function(dup)
        cp, cp_live = _build_cp(module, func, target, f"{base}.cp")
    else:
        body.attrs[PROTOCOL_REGION_ATTR] = kind

    surgery = _LoopSurgery(func, target, ctx_id, kind)
    store_block = func.blocks[target.store_site[0]]
    store_term = store_block.terminator
    if store_term is None or store_term.op is not Opcode.BR:
        raise RskipError(f"{target.func_name}: store block must end in 'br'")
    latch_label = store_term.labels[0]

    # clone the address computation before the region disappears
    addr_out: List[Instr] = []
    addr_val = _clone_affine(func, target, addr_out, "")

    # remove the region (it now lives in @body)
    region_entry = target.region_entry
    for label in target.region_labels:
        func.remove_block(label)

    # main PP block (keeps the region-entry label so the header is untouched)
    main = func.add_block(region_entry)
    surgery.adopt(region_entry)
    for instr in addr_out:
        main.append(instr)

    ivar = target.ind.reg
    call_args: List[Value] = [ivar] + list(target.live_ins)
    observe_args: List[Value] = [surgery.ctx, ivar]
    rmw = bool(target.rmw_load_sites)
    if rmw:
        orig = func.new_reg(F64, f"{surgery.reg}orig")
        main.append(Instr(Opcode.LOAD, dest=orig, args=(addr_val,)))
        call_args.append(orig)
    v = func.new_reg(F64, f"{surgery.reg}v")
    main.append(Instr(Opcode.CALL, dest=v, args=tuple(call_args), callee=body.name))
    observe_args.extend((v, addr_val))
    if rmw:
        observe_args.append(orig)

    store_bb = surgery.block("store")
    if kind != "ckpt":
        store_bb.append(Instr(Opcode.STORE, args=(v, addr_val)))
    store_bb.append(Instr(Opcode.BR, labels=(latch_label,)))

    spec = RecomputeSpec((dup or body).name, tuple(target.live_ins), rmw=rmw, ns=surgery.ns)
    surgery.finish(spec, main, observe_args, store_bb.label, cp, cp_live)

    return TargetLayout(
        key=f"{func.name}:{target.loop.header}",
        ctx_id=ctx_id,
        mode="reduction" if kind == RSKIP else kind,
        rmw=rmw,
        wrapper=func.name,
        loop_labels=sorted(target.loop.blocks),
        pp_labels=surgery.labels,
        body=body.name,
        dup=dup.name if dup is not None else None,
        cp=cp.name if cp is not None else None,
        kind=target.kind,
    )


def _transform_call(
    module: Module,
    func: Function,
    target: TargetLoop,
    call_instr: Instr,
    ctx_id: int,
) -> TargetLayout:
    callee = target.callee

    dup_name = f"{callee}.dup"
    if dup_name not in module.functions:
        g_dup = clone_function(module.get_function(callee), dup_name)
        rename_all_registers(g_dup, ".d")
        module.add_function(g_dup)
    cp_callee_name = f"{callee}.cp"
    if cp_callee_name not in module.functions:
        g_cp = clone_function(module.get_function(callee), cp_callee_name)
        module.add_function(g_cp)
    cp, cp_live = _build_cp(
        module, func, target, f"{_loop_base(func, ctx_id, RSKIP)}.cp",
        callee_cp={callee: cp_callee_name},
    )

    surgery = _LoopSurgery(func, target, ctx_id, RSKIP)
    store_label, store_idx = target.store_site
    store_block = func.blocks[store_label]
    store_instr = store_block.instrs[store_idx]
    value, addr = store_instr.args
    tail = store_block.instrs[store_idx + 1 :]
    store_block.instrs = store_block.instrs[:store_idx]

    cont = surgery.block("store")
    cont.append(store_instr)
    cont.instrs.extend(tail)

    n_args = len(call_instr.args)
    observe_args: List[Value] = [surgery.ctx, target.ind.reg, value, addr]
    observe_args.extend(call_instr.args)
    spec = RecomputeSpec(dup_name, n_args=n_args)
    surgery.finish(spec, store_block, observe_args, cont.label, cp, cp_live)

    return TargetLayout(
        key=f"{func.name}:{target.loop.header}",
        ctx_id=ctx_id,
        mode="call",
        rmw=False,
        wrapper=func.name,
        loop_labels=sorted(target.loop.blocks),
        pp_labels=surgery.labels,
        callee=callee,
        callee_dup=dup_name,
        cp=cp.name,
        n_args=n_args,
        kind=target.kind,
    )


def transform_loops(module: Module, kind: str = RSKIP) -> List[TargetLayout]:
    """Transform every detected target loop of *module* in place for the
    *kind* family (``"rskip"``, ``"replay"`` or ``"ckpt"``); returns the
    layouts in ctx-id order.  Only RSkip has a call mode: the protocols
    outline every target the same way."""
    layouts: List[TargetLayout] = []
    for func in list(module.functions.values()):
        for target in detect_target_loops(func, module):
            ctx_id = len(layouts)
            call_instr = _call_mode_info(func, target) if kind == RSKIP else None
            if call_instr is not None:
                layout = _transform_call(module, func, target, call_instr, ctx_id)
            else:
                layout = _transform_reduction(module, func, target, ctx_id, kind)
            layouts.append(layout)
    return layouts


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def apply_rskip(
    module: Module,
    config: Optional[RSkipConfig] = None,
    profiles: Optional[Dict[str, LoopProfile]] = None,
    protect: bool = True,
    ar_overrides: Optional[Dict[str, float]] = None,
) -> RskipApplication:
    """Transform the module in place; returns the application handle.

    *profiles* maps target keys (``"func:header"``) to trained
    :class:`LoopProfile` objects.  With ``protect=False`` the SWIFT-R pass
    over the loop skeleton is skipped (useful for isolating the predictor's
    own overhead in ablations).

    *ar_overrides* is the paper's pragma: per-loop acceptable ranges keyed
    by target key, with ``fnmatch`` wildcards (``{"main:*": 0.0}`` forces
    exact validation — the highest protection rate — on every loop of
    ``main``).  A function attribute ``attrs["rskip.acceptable_range"]``
    acts as the same pragma at function granularity.
    """
    layouts = transform_rskip(module, protect)
    return rebuild_application(module, layouts, config, profiles, ar_overrides)


def transform_rskip(module: Module, protect: bool = True) -> List[TargetLayout]:
    """The module surgery of :func:`apply_rskip` alone (the ``rskip``
    pass): transform every target loop, then SWIFT-R the loop skeleton
    unless *protect* is off; returns the layouts."""
    layouts = transform_loops(module)
    if protect:
        excluded: Set[str] = set()
        for layout in layouts:
            excluded.update(layout.unprotected_funcs)
        apply_swift_r(module, exclude_funcs=excluded)
    return layouts


def rebuild_application(
    module: Module,
    layouts: List[TargetLayout],
    config: Optional[RSkipConfig] = None,
    profiles: Optional[Dict[str, LoopProfile]] = None,
    ar_overrides: Optional[Dict[str, float]] = None,
) -> RskipApplication:
    """Construct a fresh runtime application over an already-transformed
    module.  The module surgery is a pure function of the input IR, so a
    cached transformed module plus its layouts is enough to rebuild the
    (stateful, never-cached) run-time manager with the caller's config,
    profiles and pragma overrides."""
    config = config or RSkipConfig()
    profiles = profiles or {}
    ar_overrides = ar_overrides or {}
    runtime = RskipRuntime(config)
    for layout in layouts:
        runtime.add_loop(
            layout.ctx_id,
            layout.key,
            profiles.get(layout.key),
            config=_loop_config(module, config, layout, ar_overrides),
            rmw=layout.rmw,
        )
    return RskipApplication(module, layouts, runtime)


def _loop_config(
    module: Module,
    config: RSkipConfig,
    layout: TargetLayout,
    ar_overrides: Dict[str, float],
) -> RSkipConfig:
    """Resolve the pragma chain: explicit key override > function attribute
    > the global configuration."""
    import fnmatch

    for pattern in sorted(ar_overrides):
        if fnmatch.fnmatch(layout.key, pattern):
            return config.with_ar(ar_overrides[pattern])
    func = module.functions.get(layout.wrapper)
    if func is not None:
        pragma = func.attrs.get("rskip.acceptable_range")
        if pragma is not None:
            return config.with_ar(float(pragma))
    return config
