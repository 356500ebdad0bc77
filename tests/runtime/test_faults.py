import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.runtime import (
    ADVERSARIAL_KIND_WEIGHTS,
    DEFAULT_KIND_WEIGHTS,
    FAULT_KINDS,
    FaultPlan,
    Interpreter,
    Region,
    SegfaultError,
    TrapError,
    flip_float,
    flip_int,
    flip_value,
    random_plan,
)

from repro.runtime.faults import REGISTER_FILE_SIZE, victim_index

from ..conftest import build_dot_module, run_main, seed_memory


class TestBitFlips:
    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1), st.integers(0, 63))
    def test_flip_int_is_involution(self, value, bit):
        assert flip_int(flip_int(value, bit), bit) == value

    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 63))
    def test_flip_float_is_involution(self, value, bit):
        out = flip_float(flip_float(value, bit), bit)
        assert out == value or (math.isnan(out) and math.isnan(value))

    def test_flip_int_stays_in_64_bits(self):
        v = flip_int(0, 63)
        assert -(2**63) <= v < 2**63
        assert v < 0  # sign bit set

    def test_flip_changes_value(self):
        assert flip_int(5, 0) != 5
        assert flip_float(1.0, 52) != 1.0

    def test_flip_value_dispatch(self):
        assert isinstance(flip_value(3, 1), int)
        assert isinstance(flip_value(3.0, 1), float)
        assert flip_value("not numeric", 1) == "not numeric"

    def test_low_mantissa_flip_is_small(self):
        """Low mantissa bits perturb within tiny relative error — the raw
        material of RSkip's false negatives."""
        v = 123.456
        flipped = flip_float(v, 2)
        assert abs(flipped - v) / v < 1e-12

    def test_flip_int_high_bits(self):
        """Bits 62 and 63 exercise the two's-complement re-fold: bit 62
        stays positive, bit 63 flips the sign, and both round-trip."""
        assert flip_int(0, 62) == 2**62
        assert flip_int(0, 63) == -(2**63)
        assert flip_int(-1, 63) == 2**63 - 1
        for bit in (62, 63):
            for v in (0, 1, -1, 2**63 - 1, -(2**63)):
                flipped = flip_int(v, bit)
                assert -(2**63) <= flipped < 2**63
                assert flip_int(flipped, bit) == v

    def test_flip_int_bit_wraps_mod_64(self):
        """Bit indices are masked to 64 positions, not shifted past the
        word: bit 64 is bit 0, bit 127 is bit 63."""
        assert flip_int(0, 64) == flip_int(0, 0) == 1
        assert flip_int(0, 127) == flip_int(0, 63)

    def test_flip_float_nan_and_inf_survive(self):
        """NaN and infinity pack fine; flips move them around the IEEE
        encoding space instead of crashing the injector."""
        assert math.isnan(flip_float(float("nan"), 0))  # mantissa stays set
        assert flip_float(float("inf"), 63) == float("-inf")
        # clearing an exponent bit of +inf yields a finite double
        assert math.isfinite(flip_float(float("inf"), 62))

    def test_flip_float_exponent_flip_of_zero(self):
        assert flip_float(0.0, 63) == 0.0  # sign bit: -0.0 == 0.0
        assert flip_float(0.0, 0) > 0.0    # subnormal, not zero


class TestPlans:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(step=-1)
        with pytest.raises(ValueError):
            FaultPlan(step=0, kind="meteor")

    def test_random_plan_in_range(self):
        rng = random.Random(0)
        for _ in range(200):
            plan = random_plan(rng, 1000)
            assert 0 <= plan.step < 1000
            assert 0 <= plan.bit < 64
            assert plan.kind in ("value", "branch", "addr")

    def test_random_plan_kind_mix(self):
        rng = random.Random(1)
        kinds = [random_plan(rng, 100).kind for _ in range(2000)]
        assert kinds.count("value") > 1500
        assert kinds.count("branch") > 20
        assert kinds.count("addr") > 20

    def test_malformed_kind_weights_rejected(self):
        rng = random.Random(0)
        with pytest.raises(ValueError, match="kind_weights"):
            random_plan(rng, 100, kind_weights=(("value", 0.5), ("branch", 0.2)))
        with pytest.raises(ValueError, match="kind_weights"):
            random_plan(rng, 100, kind_weights=(("value", 1.5), ("branch", -0.5)))
        with pytest.raises(ValueError, match="kind_weights"):
            random_plan(rng, 100, kind_weights=(("value", 0.0), ("branch", 1.0)))

    def test_default_kind_weights_still_accepted(self):
        rng = random.Random(0)
        plan = random_plan(rng, 100, kind_weights=DEFAULT_KIND_WEIGHTS)
        assert plan.kind in ("value", "branch", "addr")

    def test_flip_float_unpackable_value_is_masked(self):
        """A register whose value cannot round-trip through an IEEE-754
        double (a Python bignum reaching the float flipper) is left
        unchanged rather than silently zeroed: the flip is
        architecturally masked."""
        huge = 10**400
        assert flip_float(huge, 13) == huge

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            random_plan(random.Random(0), 0)

    def test_skip_kinds_accepted(self):
        for kind in ("skip", "cf"):
            assert FaultPlan(step=0, kind=kind).burst_len == 1
        assert FaultPlan(step=0, kind="skip-burst", burst_len=3).burst_len == 3

    def test_burst_len_window_validated(self):
        """Regression: a zero/negative burst used to arm a skip window
        that never closed, silently dropping the rest of the run."""
        with pytest.raises(ValueError, match="burst_len"):
            FaultPlan(step=0, kind="skip-burst", burst_len=0)
        with pytest.raises(ValueError, match="burst_len"):
            FaultPlan(step=0, kind="skip-burst", burst_len=-2)

    def test_burst_len_rejected_on_non_burst_kinds(self):
        for kind in ("value", "branch", "addr", "skip", "cf"):
            with pytest.raises(ValueError, match="burst_len"):
                FaultPlan(step=0, kind=kind, burst_len=2)

    def test_bit_and_pick_windows_validated(self):
        with pytest.raises(ValueError, match="bit"):
            FaultPlan(step=0, bit=64)
        with pytest.raises(ValueError, match="bit"):
            FaultPlan(step=0, bit=-1)
        with pytest.raises(ValueError, match="pick"):
            FaultPlan(step=0, pick=1.5)
        with pytest.raises(ValueError, match="pick"):
            FaultPlan(step=0, pick=-0.1)

    def test_adversarial_weights_draw_all_kinds(self):
        rng = random.Random(7)
        plans = [random_plan(rng, 500, ADVERSARIAL_KIND_WEIGHTS)
                 for _ in range(2000)]
        kinds = {p.kind for p in plans}
        assert kinds == set(FAULT_KINDS)
        for plan in plans:
            if plan.kind == "skip-burst":
                assert 2 <= plan.burst_len < 5
            else:
                assert plan.burst_len == 1

    def test_burst_draw_does_not_shift_old_kind_streams(self):
        """The burst length is drawn *last*, so at a seed where the kind
        draw lands on a classic kind, the (step, bit, pick) triple matches
        what the pre-skip fault model drew from the same rng state."""
        for seed in range(50):
            a, b = random.Random(seed), random.Random(seed)
            old = random_plan(a, 300, DEFAULT_KIND_WEIGHTS)
            x = b.random()  # consume the kind draw like random_plan does
            assert (old.step, old.bit, old.pick) == (
                b.randrange(300), b.randrange(64), b.random())
            del x


class TestVictimIndex:
    """Where a value flip lands in the modelled register file."""

    def test_a_pick_past_the_live_slots_is_masked(self):
        assert victim_index(3, 2 / REGISTER_FILE_SIZE) == 2
        assert victim_index(3, 3 / REGISTER_FILE_SIZE) is None
        assert victim_index(3, 0.5) is None
        assert victim_index(0, 0.0) is None  # no live register at all

    def test_more_live_slots_than_the_file_grow_it(self):
        live = REGISTER_FILE_SIZE + 36
        assert victim_index(live, 0.5) == 50
        assert victim_index(live, 0.999) == live - 1
        # every slot of a file the live values fill is a victim but the
        # pick of exactly 1.0, which lands one past the end
        assert victim_index(live, 1.0) is None
        assert victim_index(REGISTER_FILE_SIZE, 0.999) == REGISTER_FILE_SIZE - 1


class TestRegion:
    def test_matching(self):
        region = Region(funcs={"g"}, blocks={("main", "loop")})
        assert region.contains("g", "anything")
        assert region.contains("main", "loop")
        assert not region.contains("main", "other")
        assert bool(region)
        assert not bool(Region())


class TestInjection:
    def _golden(self):
        module = build_dot_module()
        result, mem = run_main(module, [6, 8])
        return mem.read_global("out", 6)

    def _faulted(self, plan):
        module = build_dot_module()
        mem = seed_memory(module)
        interp = Interpreter(module, memory=mem, fault_plan=plan, max_steps=2_000_000)
        try:
            interp.run("main", [6, 8])
        except TrapError:
            return None
        return mem.read_global("out", 6)

    def test_deterministic_given_plan(self):
        plan = FaultPlan(step=500, kind="value", bit=40, pick=0.3)
        out1 = self._faulted(plan)
        out2 = self._faulted(FaultPlan(step=500, kind="value", bit=40, pick=0.3))
        assert out1 == out2

    def test_value_fault_can_corrupt_output(self):
        golden = self._golden()
        corrupted = 0
        for k, step in enumerate(range(50, 650, 40)):
            pick = (k * 0.07) % 1.0
            out = self._faulted(FaultPlan(step=step, kind="value", bit=51, pick=pick))
            if out is None or out != golden:
                corrupted += 1
        assert corrupted > 0

    def test_some_faults_are_masked(self):
        golden = self._golden()
        masked = 0
        for step in range(50, 650, 40):
            out = self._faulted(FaultPlan(step=step, kind="value", bit=1, pick=0.1))
            if out is not None and out == golden:
                masked += 1
        assert masked > 0

    def test_branch_fault_changes_control(self):
        golden = self._golden()
        differing = 0
        for step in (100, 200, 300):
            out = self._faulted(FaultPlan(step=step, kind="branch", bit=0, pick=0.0))
            if out is None or out != golden:
                differing += 1
        assert differing > 0

    def test_addr_fault_can_segfault(self):
        module = build_dot_module()
        mem = seed_memory(module)
        plan = FaultPlan(step=100, kind="addr", bit=22, pick=0.0)
        interp = Interpreter(module, memory=mem, fault_plan=plan, max_steps=2_000_000)
        with pytest.raises(SegfaultError):
            interp.run("main", [6, 8])

    def test_region_restricted_injection(self):
        """A fault stepped inside a region hits only region instructions."""
        module = build_dot_module()
        inner = {l for l in module.get_function("main").blocks if l.startswith("inner")}
        region = Region(blocks={("main", l) for l in inner})
        mem = seed_memory(module)
        counting = Interpreter(module, memory=mem, fault_region=region)
        counting.run("main", [6, 8])
        total = counting.region_steps
        assert total > 0
        # injecting at the last region step must not raise "never fired"
        mem2 = seed_memory(module)
        interp = Interpreter(
            module,
            memory=mem2,
            fault_plan=FaultPlan(step=total - 1, kind="value", bit=3, pick=0.5),
            fault_region=region,
            max_steps=2_000_000,
        )
        try:
            interp.run("main", [6, 8])
        except TrapError:
            pass
        assert not interp._fault_pending
