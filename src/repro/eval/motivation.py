"""The Figure 2 motivation study.

"Proportion of dynamic instructions whose computation outputs can be
estimated": for each benchmark we record the detected loops' output
streams and measure what share of them is predictable by

* **Trend** — the element's relative slope change against its neighbours
  stays under a threshold (it lies on a local trend), and
* **Top 10** — the element's value is (approximately) one of the ten most
  frequent output values,

then weight by the fraction of the program's dynamic instructions spent
producing those outputs.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence

from ..core.training import slope_changes_of
from ..runtime.backend import make_executor
from ..workloads.base import Workload
from .harness import Harness
from .schemes import fault_region, prepare

TREND_THRESHOLD = 0.5
TOP_K = 10
#: two values are "the same output" when they agree to this relative tolerance
VALUE_TOLERANCE = 0.05


@dataclass
class MotivationRow:
    workload: str
    trend_coverage: float
    topk_coverage: float
    loop_share: float
    elements: int


def trend_predictable_share(values: Sequence[float], threshold: float = TREND_THRESHOLD) -> float:
    """Fraction of outputs lying on a local trend."""
    if len(values) < 3:
        return 0.0
    changes = slope_changes_of(values)
    on_trend = sum(1 for c in changes if c <= threshold)
    return on_trend / len(changes)


def topk_predictable_share(
    values: Sequence[float],
    k: int = TOP_K,
    tolerance: float = VALUE_TOLERANCE,
) -> float:
    """Fraction of outputs equal (within tolerance) to a top-k frequent value."""
    if not values:
        return 0.0
    quantized = Counter()
    for v in values:
        quantized[_quantize(v, tolerance)] += 1
    top = {key for key, _ in quantized.most_common(k)}
    hits = sum(1 for v in values if _quantize(v, tolerance) in top)
    return hits / len(values)


def _quantize(v: float, tolerance: float):
    if v == 0 or v != v:
        return (0, 0)
    import math

    if not math.isfinite(v):
        return (0, 1)
    exp = math.floor(math.log10(abs(v)))
    mant = round(abs(v) / (10.0**exp) / tolerance / 10.0, 0)
    return (1.0 if v > 0 else -1.0, exp, mant)


def loop_instruction_share(workload: Workload, scale: float, seed: int = 3) -> float:
    """Share of the program's dynamic instructions inside the detected loops."""
    prepared = prepare(workload, "UNSAFE")
    region = fault_region(prepared)
    inp = workload.test_inputs(1, seed=seed, scale=scale)[0]
    memory = workload.fresh_memory(prepared.module, inp)
    executor = make_executor(prepared.module, memory=memory, fault_region=region)
    executor.run(prepared.main, inp.args)
    return executor.region_steps / executor.steps if executor.steps else 0.0


def figure2(
    workloads: Sequence[Workload],
    scale: float = 0.6,
    threshold: float = TREND_THRESHOLD,
    seed: int = 3,
) -> List[MotivationRow]:
    """Coverage of predictable computations per benchmark (Figure 2)."""
    rows: List[MotivationRow] = []
    for workload in workloads:
        harness = Harness(workload, scale=scale, timing=False, seed=seed)
        traces = harness.record_traces()
        values: List[float] = []
        for loop_traces in traces.values():
            for trace in loop_traces:
                values.extend(e.value for e in trace)
        share = loop_instruction_share(workload, scale, seed)
        rows.append(
            MotivationRow(
                workload=workload.name,
                trend_coverage=trend_predictable_share(values, threshold) * share,
                topk_coverage=topk_predictable_share(values) * share,
                loop_share=share,
                elements=len(values),
            )
        )
    return rows
