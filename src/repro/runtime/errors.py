"""Runtime trap hierarchy.

These map one-to-one onto the outcome classes of the paper's fault-injection
study (section 7.2): illegal memory accesses become *Segfault*, abnormal
terminations (arithmetic traps, corrupted control flow, stack overflow)
become *Core dump*, and exceeding the step budget becomes *Hang*.
"""
from __future__ import annotations

from typing import Optional, Tuple


class TrapError(Exception):
    """Base class of all runtime traps."""


class SegfaultError(TrapError):
    """Illegal memory access (out-of-bounds or non-integer address)."""

    def __init__(self, address, message: str = ""):
        super().__init__(message or f"segmentation fault at address {address!r}")
        self.address = address


class CoreDumpError(TrapError):
    """System crash / abnormal termination (arithmetic trap, bad call, ...)."""


class HangError(TrapError):
    """The program did not terminate within its step budget."""

    def __init__(self, steps: int):
        super().__init__(f"program exceeded step budget ({steps} dynamic instructions)")
        self.steps = steps


class FaultDetectedError(TrapError):
    """A protection scheme detected an uncorrectable fault (detection-only
    schemes like SWIFT raise this instead of recovering)."""


#: Every exception a faulted run can end with.  Anything else escaping an
#: execution is a bug in the program, not a trial outcome, and propagates.
TRIAL_TRAPS = (TrapError, OverflowError, MemoryError, RecursionError)


def classify_trap(exc: BaseException) -> Tuple[Optional[str], bool]:
    """``(trap kind, detected)`` of one of :data:`TRIAL_TRAPS`: the one
    exception → outcome table of every engine and oracle.  Any trap but
    a detection, segfault or hang is a core dump."""
    if isinstance(exc, FaultDetectedError):
        return None, True
    if isinstance(exc, SegfaultError):
        return "segfault", False
    if isinstance(exc, HangError):
        return "hang", False
    return "coredump", False
