from repro.analysis import LATENCY
from repro.ir import Opcode, parse_module
from repro.runtime import Interpreter, TimingModel


class TestIssueModel:
    def test_width_limits_throughput(self):
        tm = TimingModel(width=2)
        for _ in range(100):
            tm.issue(0, 1)
        # 100 independent 1-cycle ops at width 2 need >= 50 cycles
        assert tm.cycles >= 50
        assert tm.ipc <= 2.0 + 1e-9

    def test_dependent_chain_is_serial(self):
        tm = TimingModel(width=8)
        t = 0
        for _ in range(10):
            t = tm.issue(t, 4)
        assert tm.cycles >= 40

    def test_independent_ops_overlap(self):
        tm = TimingModel(width=4)
        for _ in range(40):
            tm.issue(0, 4)
        # 40 ops at width 4 issue over 10 cycles, finishing by ~14
        assert tm.cycles <= 20

    def test_ipc_definition(self):
        tm = TimingModel(width=4)
        for _ in range(16):
            tm.issue(0, 1)
        assert tm.ipc == tm.instructions / tm.cycles

    def test_invalid_width(self):
        import pytest

        with pytest.raises(ValueError):
            TimingModel(width=0)

    def test_op_uses_latency_table(self):
        tm = TimingModel(width=4)
        finish = tm.op(Opcode.FDIV, 0)
        assert finish >= LATENCY[Opcode.FDIV]


class TestMemoryDependences:
    def test_load_after_store_waits(self):
        tm = TimingModel(width=4)
        store_done = tm.store(100, 0)
        load_done = tm.load(100, 0)
        assert load_done >= store_done

    def test_unrelated_addresses_independent(self):
        tm = TimingModel(width=4)
        tm.store(100, 0)
        early = tm.load(101, 0)
        assert early <= LATENCY[Opcode.LOAD] + 2


class TestBranchPredictor:
    def test_stable_branch_learns(self):
        tm = TimingModel(width=4, mispredict_penalty=20)
        for _ in range(50):
            tm.branch(("f", "b", 0), True, 0)
        baseline = tm.fetch_time
        tm.branch(("f", "b", 0), True, 0)
        # a predicted branch does not move the fetch floor
        assert tm.fetch_time <= baseline + 1

    def test_mispredict_flushes_fetch(self):
        tm = TimingModel(width=4, mispredict_penalty=20)
        for _ in range(10):
            tm.branch(("f", "b", 0), True, 0)
        before = tm.fetch_time
        tm.branch(("f", "b", 0), False, 0)  # surprise
        assert tm.fetch_time >= before + 10

    def test_alternating_branch_hurts(self):
        stable = TimingModel(width=4)
        flaky = TimingModel(width=4)
        for k in range(200):
            stable.branch(("s",), True, 0)
            flaky.branch(("s",), k % 2 == 0, 0)
        assert flaky.cycles > stable.cycles


class TestCharging:
    def test_charge_is_width_paced_not_serial(self):
        tm = TimingModel(width=4)
        end = tm.charge([Opcode.FMUL] * 40, 0)
        # serial would be ~160 cycles; parallel at width 4 is ~14
        assert end <= 40

    def test_charge_counts_instructions(self):
        tm = TimingModel(width=4)
        tm.charge([Opcode.ADD, Opcode.ADD], 0)
        assert tm.instructions == 2


class TestEndToEndTiming:
    def test_duplicated_streams_raise_ipc(self):
        """The SWIFT-R effect: independent copies fill issue slots."""
        base_src = (
            "func @main(%p: ptr) -> f64 {\n"
            "entry:\n"
            "  %a = load %p : f64\n"
            "  %b = fmul %a, %a\n"
            "  %c = fmul %b, %b\n"
            "  %d = fmul %c, %c\n"
            "  %e = fmul %d, %d\n"
            "  ret %e\n"
            "}\n"
        )
        dup_src = base_src.replace(
            "  ret %e\n",
            "  %b2 = fmul %a, %a\n"
            "  %c2 = fmul %b2, %b2\n"
            "  %d2 = fmul %c2, %c2\n"
            "  %e2 = fmul %d2, %d2\n"
            "  %b3 = fmul %a, %a\n"
            "  %c3 = fmul %b3, %b3\n"
            "  %d3 = fmul %c3, %c3\n"
            "  %e3 = fmul %d3, %d3\n"
            "  ret %e\n",
        )

        def ipc_of(src):
            module = parse_module(src)
            tm = TimingModel(width=4)
            interp = Interpreter(module, timing=tm)
            interp.memory.store(32, 1.5)
            interp.run("main", [32])
            return tm.ipc

        assert ipc_of(dup_src) > ipc_of(base_src) * 1.5
