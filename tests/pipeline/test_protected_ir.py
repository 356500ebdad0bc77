"""Protected IR pinned byte for byte.

Campaign tallies depend on more than program semantics: SEU victims are
drawn over name-sorted registers and skip faults fall through in block
layout order, so a transform refactor that renames a register or
reorders a block moves tallies even when every run still computes the
right answer.  This suite pins, for every workload × registered scheme
(plus a few parametric spellings), the SHA-256 of the printed protected
module, its function attributes (provenance feeds the fault region),
its target layouts and its sorted intrinsic names against the committed
``protected_ir_digests.json``.

When a transform change is *meant* to alter the IR, rewrite the golden
file with ``make ir-digests`` (this module run as a script) and say so
in the change description.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.ir.printer import format_module
from repro.pipeline import protect
from repro.pipeline.registry import all_descriptors
from repro.workloads import ALL_WORKLOADS

GOLDEN = os.path.join(os.path.dirname(__file__), "protected_ir_digests.json")

#: Parametric spellings beyond the registry's default points.
EXTRA_SCHEMES = ("REPLAY1", "REPLAY4", "CKPT4", "CKPT8FIX")


def _schemes():
    return tuple(d.name for d in all_descriptors()) + EXTRA_SCHEMES


def _cases():
    return [(w, s) for w in ALL_WORKLOADS for s in _schemes()]


def protected_digest(workload, scheme: str) -> str:
    """SHA-256 over the printed module, attributes, layouts and
    intrinsic names."""
    program = protect(workload.build(), scheme, use_cache=False)
    layouts = (
        [layout.to_dict() for layout in program.application.layouts]
        if program.application is not None else None
    )
    blob = json.dumps({
        "module": format_module(program.module),
        "attrs": {name: func.attrs
                  for name, func in program.module.functions.items()
                  if func.attrs},
        "layouts": layouts,
        "intrinsics": sorted(program.intrinsics),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _case_id(workload, scheme: str) -> str:
    return f"{workload.name}/{scheme}"


def compute_digests() -> dict:
    return {_case_id(w, s): protected_digest(w, s) for w, s in _cases()}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_id(w, s) for w, s in _cases())


@pytest.mark.parametrize(
    "workload,scheme", _cases(), ids=[_case_id(w, s) for w, s in _cases()])
def test_protected_ir_is_pinned(golden, workload, scheme):
    assert protected_digest(workload, scheme) == golden[_case_id(workload, scheme)]


if __name__ == "__main__":
    digests = compute_digests()
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
