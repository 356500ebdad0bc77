"""The pass manager: ordering, counts, verify-between-passes, obs events."""
import pytest

from repro.ir.parser import parse_module
from repro.obs import MemorySink, sink_installed
from repro.pipeline import (
    CLEANUP_PASSES,
    PROTECTION_PASSES,
    PassVerificationError,
    module_instr_count,
    pass_names,
    run_pipeline,
)
from repro.pipeline import passes as pipeline_passes

TEXT = """\
module pipe

global @out 8 f64

func @main(%n: i64) -> f64 {
entry:
  %outp.1 = mov @out
  %acc.2 = mov 0.0:f64
  %i.3 = mov 0:i64
  br head
head:
  %cond.4 = icmp lt %i.3, %n
  cbr %cond.4, body, exit
body:
  %tofp.5 = sitofp %i.3
  %dead.6 = fadd %tofp.5, %tofp.5
  %fadd.7 = fadd %acc.2, %tofp.5
  %acc.2 = mov %fadd.7
  store %fadd.7, %outp.1
  %i.next.8 = add %i.3, 1:i64
  %i.3 = mov %i.next.8
  br head
exit:
  ret %acc.2
}
"""


def fresh_module():
    return parse_module(TEXT)


def drop_terminator(module):
    """A deliberately broken pass: the entry block loses its terminator."""
    func = module.functions["main"]
    entry = func.blocks[func.block_order()[0]]
    entry.instrs.pop()
    return None


class TestRunPipeline:
    def test_passes_run_in_order_with_instr_counts(self):
        module = fresh_module()
        total = module_instr_count(module)
        runs = run_pipeline(module, ("dce", "cse"))
        assert [r.name for r in runs] == ["dce", "cse"]
        assert runs[0].instrs_in == total
        # dce removes the dead fadd, so the module shrinks ...
        assert runs[0].instrs_out < runs[0].instrs_in
        # ... and counts chain: pass N+1 starts where pass N ended
        assert runs[1].instrs_in == runs[0].instrs_out
        assert runs[-1].instrs_out == module_instr_count(module)

    def test_unknown_pass_lists_registered_names(self):
        with pytest.raises(ValueError, match="unknown pass 'vectorize'") as exc:
            run_pipeline(fresh_module(), ("vectorize",))
        for name in pass_names():
            assert name in str(exc.value)

    def test_protection_passes_only_transform_ir(self):
        """Protection passes are pure surgery: SWIFT grows the module and
        returns nothing, a protected-loop pass returns its layouts."""
        module = fresh_module()
        before = module_instr_count(module)
        runs = run_pipeline(module, ("swift",))
        assert runs[0].instrs_out > before  # duplication grows the module
        assert runs[0].result is None
        runs = run_pipeline(fresh_module(), ("ckpt",))
        assert isinstance(runs[0].result, list)
        assert set(PROTECTION_PASSES) <= set(pass_names())

    def test_sync_points_reach_swift(self):
        full = fresh_module()
        run_pipeline(full, ("swift",))
        bare = fresh_module()
        run_pipeline(bare, ("swift",), sync_points=())
        assert module_instr_count(bare) < module_instr_count(full)


class TestVerifyBetweenPasses:
    def test_broken_pass_reported_by_name(self, monkeypatch):
        monkeypatch.setitem(CLEANUP_PASSES, "pessimize", drop_terminator)
        with pytest.raises(PassVerificationError) as exc:
            run_pipeline(fresh_module(), ("dce", "pessimize"))
        assert exc.value.pass_name == "pessimize"
        assert "pessimize" in str(exc.value)
        assert "terminator" in str(exc.value)

    def test_verify_off_defers_to_caller(self, monkeypatch):
        monkeypatch.setitem(CLEANUP_PASSES, "pessimize", drop_terminator)
        runs = run_pipeline(fresh_module(), ("pessimize",), verify=False)
        assert [r.name for r in runs] == ["pessimize"]

    def test_healthy_pipeline_passes_verification(self):
        runs = run_pipeline(
            fresh_module(), ("simplify", "licm", "cse", "dce"), verify=True
        )
        assert len(runs) == 4


class TestPassRunEvents:
    def test_one_event_per_pass_with_counts(self):
        module = fresh_module()
        with sink_installed(MemorySink(capacity=1 << 12)) as sink:
            runs = run_pipeline(module, ("simplify", "dce"))
        events = [e for e in sink.events if e.kind == "pass-run"]
        assert [(e.payload["name"], e.payload["instrs_in"], e.payload["instrs_out"])
                for e in events] == [
            (r.name, r.instrs_in, r.instrs_out) for r in runs
        ]

    def test_pass_spans_recorded(self):
        with sink_installed(MemorySink(capacity=1 << 12)) as sink:
            run_pipeline(fresh_module(), ("dce",))
        assert any(label == "pass:dce" for label, _ms in sink.spans)

    def test_emit_untouched_when_tracing_disabled(self, monkeypatch):
        """Booby-trapped emit: with no sink installed the pass manager must
        not even reach the emit call, let alone build its payload."""

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("emit called while tracing is disabled")

        monkeypatch.setattr(pipeline_passes, "obs_emit", explode)
        runs = run_pipeline(fresh_module(), ("simplify", "cse", "dce"))
        assert [r.name for r in runs] == ["simplify", "cse", "dce"]
