"""Single-event-upset and instruction-skip fault models (paper section 7.2).

One fault per run, injected into the architectural state of the simulated
core at a uniformly random point of the (optionally restricted) dynamic
instruction stream.  The SEU kinds model where a bit-flip upset lands:

* ``value`` — a random bit of one slot of a ``REGISTER_FILE_SIZE``-slot
  register file (more slots when the stack holds more registers): the
  name-sorted registers of every frame on the stack, outermost first,
  live or stale, then the empty slots (:func:`victim_index`).  A flip
  that lands on an empty slot, or on a register not live where its
  frame is (an outer frame at its resume point, less its pending call's
  dest), leaves the run the golden one: on every backend but ``ref``
  such a trial settles as the golden row without running
  (``prefix.GoldenPrefix.masked``);
* ``branch`` — the next conditional branch takes the wrong direction
  (modelling the opcode-field flips the paper names as the residual
  failures of software-only schemes);
* ``addr`` — the next memory access uses a corrupted effective address
  (address-generation upset after validation).

The adversarial kinds model the instruction-skip / control-flow attacks
Moro et al. formally verify countermeasures against (clock/voltage
glitches that suppress or redirect instructions rather than flipping
stored bits):

* ``skip`` — the triggered dynamic instruction is fetched and counted but
  its architectural effects are dropped (no register write, no store, no
  call, no control transfer; a skipped terminator falls through to the
  next block in layout order);
* ``skip-burst`` — ``burst_len`` consecutive dynamic instructions are
  dropped, starting at the trigger;
* ``cf`` — the next executed branch (``br`` or either direction of a
  ``cbr``) is retargeted to a wrong-but-valid block of the same function,
  chosen by ``pick``.

Memory cells at rest are never touched: the paper assumes ECC DRAM/caches.
"""
from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

_INT_MASK = (1 << 64) - 1
_INT_SIGN = 1 << 63

#: Every fault kind the engines honor.
FAULT_KINDS = ("value", "branch", "addr", "skip", "skip-burst", "cf")

#: Kinds that drop instructions (and can therefore leave registers
#: unwritten).
SKIP_KINDS = ("skip", "skip-burst")

#: Kinds that corrupt the instruction stream itself rather than stored
#: bits.  Their dropped definitions and illegal control edges can reach
#: reads of unwritten registers, which the reference interpreter alone
#: turns into core dumps: a trial stays on it while a register live
#: where its frames resume is unwritten (``prefix.HandOff``).
CONTROL_KINDS = ("skip", "skip-burst", "cf")

#: Default mix of fault kinds: register-file upsets dominate; a small share
#: lands in control and address generation (paper: "no dedicated mechanism
#: to protect special registers").
DEFAULT_KIND_WEIGHTS = (("value", 0.90), ("branch", 0.05), ("addr", 0.05))

#: A mix that adds the Moro-style glitch attacks to the paper's SEU model —
#: the "adversarial" campaign table (skips dominate the non-SEU share the
#: way they dominate published glitch characterizations).
ADVERSARIAL_KIND_WEIGHTS = (
    ("value", 0.55), ("branch", 0.05), ("addr", 0.05),
    ("skip", 0.20), ("skip-burst", 0.10), ("cf", 0.05),
)


#: Physical register file modelled by the SEU injector: flips landing on
#: slots that hold no live program value are architecturally masked.
REGISTER_FILE_SIZE = 64


def victim_index(live: int, pick: float) -> Optional[int]:
    """Where a value flip with uniform *pick* lands among *live* register
    slots (the name-sorted registers of the whole frame stack), or
    ``None`` when it hits a slot of the ``REGISTER_FILE_SIZE``-slot file
    that holds no live program value: the flip is architecturally masked
    (the dominant effect in the paper's UNSAFE runs).  Both the reference
    interpreter and the batch lanes pick their victims here."""
    k = int(pick * max(REGISTER_FILE_SIZE, live))
    return k if k < live else None


def flip_int(value: int, bit: int) -> int:
    """Flip *bit* of a 64-bit two's-complement integer."""
    raw = value & _INT_MASK
    raw ^= 1 << (bit & 63)
    if raw & _INT_SIGN:
        return raw - (1 << 64)
    return raw


def flip_float(value: float, bit: int) -> float:
    """Flip *bit* of an IEEE-754 double.

    A value that cannot round-trip through a 64-bit double (e.g. a
    Python bignum reaching the float flipper) is returned unchanged —
    the flip is architecturally masked, like flips of non-numeric
    register state.  It must *not* be replaced by a zeroed bit pattern:
    that would turn a masked fault into a fabricated corruption that no
    modelled SEU could produce.
    """
    try:
        raw = struct.unpack("<Q", struct.pack("<d", value))[0]
    except (OverflowError, ValueError, struct.error):
        return value
    raw ^= 1 << (bit & 63)
    return struct.unpack("<d", struct.pack("<Q", raw))[0]


def flip_value(value, bit: int):
    if isinstance(value, int):
        return flip_int(value, bit)
    if isinstance(value, float):
        return flip_float(value, bit)
    return value  # non-numeric register state is not modelled


@dataclass
class FaultPlan:
    """A fully determined injection: where (dynamic step within the region),
    what kind, which bit, a uniform pick to choose the register (or the
    wrong branch target for ``cf``), and for ``skip-burst`` how many
    consecutive dynamic instructions to drop."""

    step: int
    kind: str = "value"
    bit: int = 0
    pick: float = 0.0
    burst_len: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.step < 0:
            raise ValueError("fault step must be non-negative")
        if self.burst_len < 1:
            raise ValueError(
                f"burst_len must be >= 1, got {self.burst_len}; a zero or "
                f"negative burst would arm a skip window that never closes")
        if self.burst_len != 1 and self.kind != "skip-burst":
            raise ValueError(
                f"burst_len applies to 'skip-burst' plans only "
                f"(kind={self.kind!r})")
        if not 0 <= self.bit < 64:
            raise ValueError(f"bit must be in [0, 64), got {self.bit}")
        if not 0.0 <= self.pick <= 1.0:
            raise ValueError(f"pick must be in [0.0, 1.0], got {self.pick!r}")


def random_plan(
    rng: random.Random,
    region_steps: int,
    kind_weights: Tuple = DEFAULT_KIND_WEIGHTS,
) -> FaultPlan:
    """Draw a uniformly random fault plan for a run whose restricted region
    executes *region_steps* dynamic instructions."""
    if region_steps <= 0:
        raise ValueError("region executes no instructions; nothing to inject into")
    total = 0.0
    for _name, w in kind_weights:
        if w <= 0:
            raise ValueError(
                f"kind_weights entries must be positive, got {_name}={w!r}")
        total += w
    if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(
            f"kind_weights must sum to 1.0, got {total!r}; a silent "
            f"renormalization would skew the drawn fault mix")
    x = rng.random()
    kind = kind_weights[-1][0]
    acc = 0.0
    for name, w in kind_weights:
        acc += w
        if x < acc:
            kind = name
            break
    # the step/bit/pick draw order predates the skip kinds; the burst
    # draw comes last so plans for the original kinds are byte-identical
    # to what older campaigns drew at the same seed
    step = rng.randrange(region_steps)
    bit = rng.randrange(64)
    pick = rng.random()
    burst = rng.randrange(2, 5) if kind == "skip-burst" else 1
    return FaultPlan(step=step, kind=kind, bit=bit, pick=pick, burst_len=burst)


class Region:
    """Restricts injection (and region-step counting) to parts of a module.

    ``funcs`` are matched by function name; ``blocks`` by (function, label)
    pairs.  An instruction is *in region* when its function matches or its
    specific block matches.  The paper injects faults "only into the
    detected loops"; the harness builds a Region from each scheme's
    detected-loop blocks (plus the outlined body functions for RSkip).
    """

    __slots__ = ("funcs", "blocks")

    def __init__(self, funcs=(), blocks=()):
        self.funcs: FrozenSet[str] = frozenset(funcs)
        self.blocks: FrozenSet[Tuple[str, str]] = frozenset(blocks)

    def contains(self, func_name: str, label: str) -> bool:
        return func_name in self.funcs or (func_name, label) in self.blocks

    def __bool__(self) -> bool:
        return bool(self.funcs or self.blocks)

    def __repr__(self) -> str:
        return f"<Region funcs={sorted(self.funcs)} blocks={len(self.blocks)}>"
