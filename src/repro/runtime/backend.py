"""Execution-backend dispatch.

Three backends execute IR:

* ``ref`` — the reference :class:`~repro.runtime.interpreter.Interpreter`:
  tree-walking, instrumented (timing model, SEU fault injection).  The
  semantics oracle.  Every campaign's one golden run is captured on it
  (:mod:`repro.runtime.prefix`), on every backend; campaign trials off
  the batch backend start on it, fast-forwarded from that run's
  snapshots, and under ``ref`` it also finishes them (the default,
  ``compiled``, takes each over once its fault has fully acted).
* ``compiled`` — the closure-compiling backend of
  :mod:`repro.runtime.compiler`: clean mode only, observationally
  identical and several times faster.  Besides clean runs it continues
  (``run(..., state=...)``) faulted campaign trials and batch lanes
  whose fault has fully acted.
* ``batch`` — the lane-vectorized batch engine of
  :mod:`repro.runtime.batch`: runs the value flips of a whole block of
  fault-injection trials in lockstep over one instruction stream.  It
  applies at the campaign-chunk level (``repro.eval.fault_campaign``
  routes trial blocks through it when it is the default backend); the
  block's trials of every other fault kind, and lanes that leave
  lockstep, finish like ``compiled`` campaign trials (``prefix.finish``).
  A single :func:`make_executor` call cannot express "many trials", so
  here ``batch`` behaves like ``compiled`` for untimed runs and like
  ``ref`` for timed ones.

:func:`make_executor` picks the backend for one fault-free run: a
timed one (a timing model) always routes to the reference interpreter,
whose cycle model stays bit-exact, while untimed runs (measurement and
QoS training runs, difftest oracle re-execution) use the compiled
backend unless the default says otherwise.  Faulted trials never come here: they
build their engines in :func:`repro.runtime.prefix.finish`.

The default backend is, in order: the value set via
:func:`set_default_backend` (the CLI's ``--backend`` flag), the
``REPRO_BACKEND`` environment variable (inherited by campaign pool
workers), else ``compiled``.
"""
from __future__ import annotations

import os
from typing import Optional

from ..ir.module import Module
from .compiler import CompiledExecutor
from .interpreter import DEFAULT_MAX_STEPS, Interpreter
from .memory import Memory

BACKENDS = ("ref", "compiled", "batch")

_default: Optional[str] = None


def default_backend() -> str:
    """The backend clean runs use when none is requested explicitly."""
    if _default is not None:
        return _default
    env = os.environ.get("REPRO_BACKEND", "").strip().lower()
    return env if env in BACKENDS else "compiled"


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide default backend."""
    global _default
    if name is not None and name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose from {BACKENDS}")
    _default = name


def make_executor(
    module: Module,
    memory: Optional[Memory] = None,
    timing=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    fault_region=None,
    backend: Optional[str] = None,
):
    """An execution context for one fault-free run of *module* on the
    right backend.

    Timed runs (*timing* set) are always served by the reference
    interpreter; the others go to the compiled backend unless
    ``backend="ref"`` (or the process default) forces the reference.
    """
    if backend is None:
        backend = default_backend()
    elif backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if timing is not None or backend == "ref":
        return Interpreter(
            module, memory=memory, timing=timing, max_steps=max_steps,
            fault_region=fault_region,
        )
    return CompiledExecutor(
        module, memory=memory, max_steps=max_steps, fault_region=fault_region,
    )
