"""Approximate memoization: the second-level predictor (paper section 4.2).

Expensive, side-effect-free computations (the blackscholes pricing call)
are replaced by a lookup table indexed by *quantized* inputs.  Two pieces
reproduce the paper's improvements over Paraprox [Samadi et al. 2014]:

* **bit tuning** distributes a fixed budget of address bits across inputs,
  greedily giving the next bit to the input whose refinement most improves
  training accuracy;
* **histogram-based quantization** sizes each quantization level by the
  observed input density (build a fine uniform histogram, then repeatedly
  merge the least-crowded adjacent bins) instead of assuming uniformly
  distributed inputs.  ``uniform_levels`` keeps the prior work's scheme for
  the ablation benchmark.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.instructions import Opcode

MAX_BITS_PER_INPUT = 8
#: Training-time accuracy tolerance (relative error) for bit tuning.
TUNING_TOLERANCE = 0.05


@dataclass
class InputQuantizer:
    """Maps one scalar input to a level index via its level boundaries."""

    edges: List[float]

    @property
    def levels(self) -> int:
        return len(self.edges) + 1

    def quantize(self, x: float) -> int:
        if math.isnan(x):
            return 0
        return bisect.bisect_right(self.edges, x)


def uniform_levels(samples: Sequence[float], levels: int) -> List[float]:
    """Equal-width level edges between the training min and max (the prior
    work's scheme: "inputs are uniformly distributed")."""
    if levels <= 1 or not samples:
        return []
    lo, hi = min(samples), max(samples)
    if hi <= lo:
        return []
    step = (hi - lo) / levels
    return [lo + step * k for k in range(1, levels)]


def histogram_levels(
    samples: Sequence[float],
    levels: int,
    fine_bins: int = 64,
) -> List[float]:
    """Density-adaptive level edges.

    Build a fine uniform histogram, then merge the adjacent pair of bins
    with the smallest combined population until only *levels* bins remain;
    the surviving interior boundaries are the level edges.  Crowded value
    ranges end up with narrow levels, sparse ranges with wide ones.
    """
    if levels <= 1 or not samples:
        return []
    lo, hi = min(samples), max(samples)
    if hi <= lo:
        return []
    fine_bins = max(fine_bins, levels)
    width = (hi - lo) / fine_bins
    if width <= 0.0:
        # subnormal span: (hi - lo) / fine_bins underflows to zero even
        # though hi > lo — the range is too narrow to split into levels
        return []
    counts = [0] * fine_bins
    for x in samples:
        k = int((x - lo) / width)
        if k >= fine_bins:
            k = fine_bins - 1
        if k < 0:
            k = 0
        counts[k] += 1

    # bins as (left_edge, count); right edge of bin i is left edge of i+1
    edges = [lo + width * k for k in range(fine_bins + 1)]
    bins: List[Tuple[float, int]] = [(edges[k], counts[k]) for k in range(fine_bins)]
    while len(bins) > levels:
        best_k = 0
        best = None
        for k in range(len(bins) - 1):
            combined = bins[k][1] + bins[k + 1][1]
            if best is None or combined < best:
                best = combined
                best_k = k
        bins[best_k] = (bins[best_k][0], best)
        del bins[best_k + 1]
    return [b[0] for b in bins[1:]]


@dataclass
class MemoTable:
    """The deployed lookup table.  Trained once and read-only at run
    time: lookups are counted in the caller's stats, never here, so one
    table can serve every fork of a runtime."""

    quantizers: List[InputQuantizer]
    bits: List[int]
    table: Dict[Tuple[int, ...], float]

    def cell(self, args: Sequence[float]) -> Tuple[int, ...]:
        return tuple(q.quantize(x) for q, x in zip(self.quantizers, args))

    def predict(self, args: Sequence[float], stats=None) -> Optional[float]:
        """Predicted output, or None when the cell was never trained.
        *stats* (a loop's ``SkipStats``), when given, counts the lookup
        and whether it hit a trained cell."""
        value = self.table.get(self.cell(args))
        if stats is not None:
            stats.memo_lookups += 1
            if value is None:
                stats.memo_misses += 1
            else:
                stats.memo_hits += 1
        return value

    def charge(self) -> List[Opcode]:
        """Opcodes accounted per lookup: quantization of each input (a
        subtract, a scale and a float->int) plus the table access."""
        ops: List[Opcode] = []
        for _ in self.quantizers:
            ops.extend((Opcode.FSUB, Opcode.FMUL, Opcode.FPTOSI))
        ops.extend((Opcode.ADD, Opcode.SHL, Opcode.LOAD))
        return ops

    def accuracy(self, X: Sequence[Sequence[float]], y: Sequence[float],
                 tolerance: float = TUNING_TOLERANCE) -> float:
        """Fraction of samples predicted within *tolerance* relative error."""
        if not y:
            return 0.0
        good = 0
        for args, expect in zip(X, y):
            got = self.table.get(self.cell(args))
            if got is None:
                continue
            denom = max(abs(expect), 1e-12)
            if abs(got - expect) <= tolerance * denom:
                good += 1
        return good / len(y)

    def mean_relative_error(self, X: Sequence[Sequence[float]], y: Sequence[float]) -> float:
        """Average relative prediction error over training samples (misses
        count as error 1).  Continuous, so the greedy bit tuner always has
        a gradient — a thresholded accuracy would plateau and starve
        low-impact inputs of bits."""
        if not y:
            return 1.0
        total = 0.0
        for args, expect in zip(X, y):
            got = self.table.get(self.cell(args))
            if got is None:
                total += 1.0
                continue
            denom = max(abs(expect), 1e-12)
            err = abs(got - expect) / denom
            total += err if err < 1.0 else 1.0
        return total / len(y)


def _build_quantizers(
    X: Sequence[Sequence[float]],
    bits: Sequence[int],
    histogram_quantization: bool,
) -> List[InputQuantizer]:
    k = len(bits)
    quantizers = []
    builder = histogram_levels if histogram_quantization else uniform_levels
    for j in range(k):
        column = [row[j] for row in X]
        quantizers.append(InputQuantizer(builder(column, 1 << bits[j])))
    return quantizers


def _fill_table(
    quantizers: List[InputQuantizer],
    X: Sequence[Sequence[float]],
    y: Sequence[float],
) -> Dict[Tuple[int, ...], float]:
    sums: Dict[Tuple[int, ...], float] = {}
    counts: Dict[Tuple[int, ...], int] = {}
    for args, out in zip(X, y):
        cell = tuple(q.quantize(x) for q, x in zip(quantizers, args))
        sums[cell] = sums.get(cell, 0.0) + out
        counts[cell] = counts.get(cell, 0) + 1
    return {cell: sums[cell] / counts[cell] for cell in sums}


def bit_tuning(
    X: Sequence[Sequence[float]],
    y: Sequence[float],
    total_bits: int,
    histogram_quantization: bool = True,
    tolerance: float = TUNING_TOLERANCE,
) -> List[int]:
    """Greedy bit assignment: each round gives one more address bit to the
    input whose refinement most improves training accuracy."""
    if not X:
        return []
    k = len(X[0])
    bits = [0] * k
    builder = histogram_levels if histogram_quantization else uniform_levels
    columns = [[row[j] for row in X] for j in range(k)]
    qcache: Dict[Tuple[int, int], InputQuantizer] = {}

    def quantizer(j: int, b: int) -> InputQuantizer:
        q = qcache.get((j, b))
        if q is None:
            q = InputQuantizer(builder(columns[j], 1 << b))
            qcache[(j, b)] = q
        return q

    def score(candidate: List[int]) -> float:
        quantizers = [quantizer(j, candidate[j]) for j in range(k)]
        table = MemoTable(quantizers, list(candidate), _fill_table(quantizers, X, y))
        # regularize by occupancy: a table with nearly as many cells as
        # training samples will answer unseen inputs with misses
        penalty = 0.3 * len(table.table) / len(X)
        return table.mean_relative_error(X, y) + penalty

    current = score(bits)
    for _ in range(total_bits):
        best_j, best_score = None, None
        for j in range(k):
            if bits[j] >= MAX_BITS_PER_INPUT:
                continue
            bits[j] += 1
            s = score(bits)
            bits[j] -= 1
            if best_score is None or s < best_score:
                best_j, best_score = j, s
        if best_j is None:
            break  # every input is already at the per-input bit cap
        if best_score > current - max(0.005 * current, 1e-6):
            # no meaningful refinement left: stop before slicing the input
            # space finer than the training set covers (over-fine cells
            # turn test lookups into misses)
            break
        bits[best_j] += 1
        current = best_score
    return bits


def build_memo_table(
    X: Sequence[Sequence[float]],
    y: Sequence[float],
    total_bits: int = 12,
    histogram_quantization: bool = True,
) -> MemoTable:
    """Train a lookup table: tune bits, build quantizers, fill cell means."""
    if len(X) != len(y):
        raise ValueError("X and y must have equal length")
    if not X:
        raise ValueError("cannot build a memoization table from no samples")
    bits = bit_tuning(X, y, total_bits, histogram_quantization)
    quantizers = _build_quantizers(X, bits, histogram_quantization)
    return MemoTable(quantizers, bits, _fill_table(quantizers, X, y))
