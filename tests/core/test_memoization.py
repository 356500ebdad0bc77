import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    InputQuantizer,
    MemoTable,
    SkipStats,
    bit_tuning,
    build_memo_table,
    histogram_levels,
    uniform_levels,
)


def clustered_dataset(n=600, seed=0):
    """f(x, y) with x from 3 popular clusters and y from 2."""
    rng = random.Random(seed)
    X, y = [], []
    for _ in range(n):
        a = rng.choice([1.0, 5.0, 9.0]) * (1 + rng.uniform(-0.01, 0.01))
        b = rng.choice([2.0, 7.0]) * (1 + rng.uniform(-0.01, 0.01))
        X.append([a, b])
        y.append(a * a + 3 * b)
    return X, y


class TestLevels:
    def test_uniform_levels_equal_width(self):
        edges = uniform_levels([0.0, 10.0], 4)
        assert edges == pytest.approx([2.5, 5.0, 7.5])

    def test_uniform_degenerate(self):
        assert uniform_levels([3.0, 3.0], 8) == []
        assert uniform_levels([], 8) == []
        assert uniform_levels([1.0, 2.0], 1) == []

    def test_histogram_levels_follow_density(self):
        rng = random.Random(1)
        samples = [rng.gauss(0, 0.1) for _ in range(500)]
        samples += [rng.gauss(10, 0.1) for _ in range(500)]
        edges = histogram_levels(samples, 4)
        assert len(edges) == 3
        # at least one edge must separate the two dense clumps: it lies
        # above every clump-0 sample and at/below the start of clump 1
        clump0_max = max(s for s in samples if s < 5)
        clump1_min = min(s for s in samples if s > 5)
        assert any(clump0_max < e <= clump1_min + 0.5 for e in edges)

    def test_histogram_edges_sorted(self):
        rng = random.Random(2)
        samples = [rng.uniform(0, 1) for _ in range(300)]
        edges = histogram_levels(samples, 8)
        assert edges == sorted(edges)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=80),
           st.sampled_from([2, 4, 8]))
    def test_histogram_level_count(self, samples, levels):
        edges = histogram_levels(samples, levels)
        assert len(edges) <= levels - 1


class TestQuantizer:
    def test_quantize_bins(self):
        q = InputQuantizer([1.0, 2.0])
        assert q.quantize(0.5) == 0
        assert q.quantize(1.5) == 1
        assert q.quantize(2.5) == 2
        assert q.levels == 3

    def test_nan_goes_to_zero(self):
        q = InputQuantizer([1.0])
        assert q.quantize(math.nan) == 0

    def test_edge_inclusion(self):
        q = InputQuantizer([1.0])
        assert q.quantize(1.0) == 1  # bisect_right: edges belong below


class TestBitTuning:
    def test_distributes_bits_to_impactful_inputs(self):
        X, y = clustered_dataset()
        bits = bit_tuning(X, y, total_bits=8)
        # both inputs matter; neither should be starved
        assert all(b >= 1 for b in bits)
        assert sum(bits) <= 8

    def test_stops_when_converged(self):
        X, y = clustered_dataset()
        bits = bit_tuning(X, y, total_bits=20)
        # 3 and 2 clusters need ~2+1 bits; the occupancy regularizer must
        # stop well short of the full 20-bit budget
        assert sum(bits) <= 8

    def test_empty_input(self):
        assert bit_tuning([], [], 8) == []


class TestMemoTable:
    def test_build_and_predict(self):
        X, y = clustered_dataset()
        table = build_memo_table(X, y, total_bits=8)
        hits = 0
        stats = SkipStats()
        for args, expect in zip(X[:100], y[:100]):
            got = table.predict(args, stats)
            if got is not None and abs(got - expect) <= 0.1 * abs(expect):
                hits += 1
        assert hits >= 95
        assert stats.memo_lookups == 100

    def test_miss_on_unseen_cell(self):
        quantizers = [InputQuantizer([1.0, 2.0]), InputQuantizer([5.0])]
        table = MemoTable(quantizers, [2, 1], {(0, 0): 42.0})
        stats = SkipStats()
        assert table.predict([0.5, 1.0], stats) == 42.0
        assert table.predict([1.5, 9.0], stats) is None  # cell (1, 1) never trained
        assert stats.memo_misses == 1
        assert stats.memo_hits == 1

    def test_accuracy_metric(self):
        X, y = clustered_dataset()
        table = build_memo_table(X, y, total_bits=8)
        assert table.accuracy(X, y) > 0.9
        assert 0.0 <= table.mean_relative_error(X, y) < 0.05

    def test_histogram_beats_uniform_on_skewed_inputs(self):
        """The paper's claim: density-aware quantization builds a more
        efficient table than the uniform assumption of prior work."""
        rng = random.Random(3)
        X, y = [], []
        for _ in range(800):
            # skewed: most mass near 0, a thin tail to 100
            a = rng.expovariate(1.0)
            b = rng.choice([1.0, 2.0])
            X.append([min(a, 100.0) * 10, b])
            y.append(math.sin(min(a, 100.0)) + b)
        hist = build_memo_table(X, y, total_bits=7, histogram_quantization=True)
        unif = build_memo_table(X, y, total_bits=7, histogram_quantization=False)
        assert hist.mean_relative_error(X, y) <= unif.mean_relative_error(X, y)

    def test_charge_scales_with_inputs(self):
        X, y = clustered_dataset()
        table = build_memo_table(X, y, total_bits=6)
        assert len(table.charge()) == 3 * 2 + 3

    def test_validation(self):
        with pytest.raises(ValueError):
            build_memo_table([[1.0]], [], total_bits=4)
        with pytest.raises(ValueError):
            build_memo_table([], [], total_bits=4)

    def test_hit_rate_stat(self):
        X, y = clustered_dataset()
        table = build_memo_table(X, y, total_bits=8)
        stats = SkipStats()
        for args in X[:50]:
            table.predict(args, stats)
        assert stats.memo_hits / stats.memo_lookups > 0.9
