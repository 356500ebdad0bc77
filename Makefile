PYTHON ?= python
PYTHONPATH := src

.PHONY: test verify bench difftest report-demo serve-smoke ir-digests

## tier-1 unit/integration suite
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q --durations=15

## tier-1 suite + backend-equivalence smokes (O4/O5 over 60 generated
## programs each, O6 exhaustive single-skip model checking over 20, O7
## incremental-campaign equivalence over 10) + a batch-backend campaign
## smoke (tallies must be byte-identical to the reference path; its
## 200 blackscholes SWIFT trials send the most lanes to the tail, each
## on a real Memory copied from the template), also
## for a stateful scheme (sgemm AR50: forked lane runtimes, tail lanes
## handed off to the compiled backend once their fault has acted,
## trapping lanes) + a mixed-kinds
## smoke (SEU + skip/cf kinds in one campaign, again serial==batch; it
## must draw skip, branch and addr faults, so trials of the kinds the
## batch backend runs per trial beside its value-flip lanes run;
## each of these three runs its serial side under the ref backend) + a
## hand-off smoke (default-backend trials settle at plan time or finish
## on the compiled backend from the first block entry where their fault
## has acted: sgemm AR50, adversarial conv1d UNSAFE and kde SWIFT-R
## tallies byte-identical to the ref backend's; the default side's sgemm run
## also writes a checkpoint, chunk by chunk, whose text must be
## exactly json.dumps of its own parse) +
## an incremental smoke (warm stratified re-campaign must fully reuse
## the section store and tally byte-identically; a batch-backend
## stratified campaign, whose section windows come from the same
## reference golden-run capture, tallies byte-identically too) +
## artifact-cache byte-identity over the checked-in corpus (off vs on)
## + the protocol smoke (O3 over every registered scheme's declared
## contract, workload-backed; predictor-vs-fixed CKPT campaigns
## byte-identical serial vs batch with the fault-likelihood signal
## demonstrably steering checkpoint frequency) + the golden-prefix
## fast-forward check (500 sgemm AR50 and 500 adversarial conv1d UNSAFE
## reference trials, each identical to its from-scratch run) + the
## dead-definition gate (no src/repro def or method that only tests
## use, unless scripts/dead_defs.py allow-lists it with a reason) + the
## campaign benchmark's self-tests (perfbench: tracer wrap points and
## reference tally digests).
## Full exhaustive skip sweeps stay behind pytest's `slow` marker.
verify: test
	$(PYTHON) scripts/dead_defs.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest perfbench -q
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m slow tests/eval/test_fast_forward.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro difftest --oracle o4 --n 60
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro difftest --oracle o5 --n 60
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro difftest --oracle o6 --n 20
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro difftest --oracle o7 --n 10
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "from repro.eval.fault_campaign import run_campaign; from repro.runtime.backend import set_default_backend; from repro.workloads import get_workload; c = get_workload('conv1d'); k = get_workload('blackscholes'); runs = lambda: (run_campaign(c, 'UNSAFE', 30, seed=1, scale=0.35).to_dict(), run_campaign(k, 'SWIFT', 200, seed=1, scale=0.35).to_dict()); set_default_backend('ref'); a = runs(); set_default_backend('batch'); b = runs(); set_default_backend(None); assert b == a, 'batch campaign diverged from ref'; print('batch campaign smoke: 30 conv1d UNSAFE + 200 blackscholes SWIFT trials, tallies byte-identical')"
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "from repro.eval import Harness; from repro.eval.fault_campaign import run_campaign; from repro.runtime.backend import set_default_backend; from repro.workloads import get_workload; w = get_workload('sgemm'); p = Harness(w, scale=0.35, timing=False).profiles_for(0.5); set_default_backend('ref'); a = run_campaign(w, 'AR50', 200, seed=1, scale=0.35, profiles=p); set_default_backend('batch'); b = run_campaign(w, 'AR50', 200, seed=1, scale=0.35, profiles=p); set_default_backend(None); assert b.to_dict() == a.to_dict(), 'stateful batch campaign diverged from ref'; assert a.tallies, 'no trials tallied'; print('stateful batch smoke: 200 sgemm AR50 trials, tallies byte-identical')"
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "from repro.eval.fault_campaign import run_campaign; from repro.runtime.backend import set_default_backend; from repro.runtime.faults import ADVERSARIAL_KIND_WEIGHTS as KW; from repro.workloads import get_workload; w = get_workload('conv1d'); set_default_backend('ref'); a = run_campaign(w, 'UNSAFE', 30, seed=1, scale=0.35, kind_weights=KW); set_default_backend('batch'); b = run_campaign(w, 'UNSAFE', 30, seed=1, scale=0.35, kind_weights=KW); set_default_backend(None); assert b.to_dict() == a.to_dict(), 'mixed-kinds campaign diverged from ref'; assert set(a.kind_tallies) & {'skip', 'skip-burst', 'cf'}, 'adversarial mix drew no skip kinds'; assert {'branch', 'addr'} <= set(a.kind_tallies), 'adversarial mix drew no branch or addr faults'; print('mixed-kinds smoke: 30 trials, tallies byte-identical')"
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "import json, os, tempfile; from repro.eval import Harness; from repro.eval.fault_campaign import run_campaign; from repro.runtime.backend import set_default_backend; from repro.runtime.faults import ADVERSARIAL_KIND_WEIGHTS as KW; from repro.workloads import get_workload; w = get_workload('sgemm'); p = Harness(w, scale=0.35, timing=False).profiles_for(0.5); c = get_workload('conv1d'); k = get_workload('kde'); tmp = tempfile.TemporaryDirectory(prefix='repro-cp-'); cp = os.path.join(tmp.name, 'sgemm.json'); runs = lambda cp=None: (run_campaign(w, 'AR50', 200, seed=1, scale=0.35, profiles=p, checkpoint=cp).to_dict(), run_campaign(c, 'UNSAFE', 30, seed=1, scale=0.35, kind_weights=KW).to_dict(), run_campaign(k, 'SWIFT-R', 200, seed=1, scale=0.35).to_dict()); a = runs(cp); text = open(cp, encoding='utf-8').read(); assert text == json.dumps(json.loads(text)), 'checkpoint is not the json.dumps text of its parse'; assert len(json.loads(text)['chunks']) == 8, 'checkpoint lacks chunks'; set_default_backend('ref'); b = runs(); set_default_backend(None); assert a == b, 'handed-off campaign diverged from ref'; print('hand-off smoke: 200 sgemm AR50 (checkpointed, 8 chunks) + 30 adversarial conv1d UNSAFE + 200 kde SWIFT-R trials, tallies byte-identical')"
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "import tempfile, os; from repro.eval import SectionStore, run_campaign_stratified; from repro.workloads import get_workload; w = get_workload('lud'); tmp = tempfile.mkdtemp(prefix='repro-inc-'); store = SectionStore(directory=os.path.join(tmp, 'campaigns')); cold = run_campaign_stratified(w, 'UNSAFE', 30, seed=1, scale=0.35, store=store, reuse=True); warm = run_campaign_stratified(w, 'UNSAFE', 30, seed=1, scale=0.35, store=store, reuse=True); assert cold.reused_sections == 0 and warm.injected_trials == 0, 'store reuse pattern wrong'; assert warm.result.to_dict() == cold.result.to_dict(), 'incremental diverged from scratch'; batch = run_campaign_stratified(w, 'UNSAFE', 30, seed=1, scale=0.35, backend='batch'); assert batch.result.to_dict() == cold.result.to_dict(), 'batch stratified campaign diverged'; print('incremental smoke: 30 trials, %d sections fully reused, tallies byte-identical (also on batch)' % warm.reused_sections)"
	PYTHONPATH=$(PYTHONPATH) REPRO_CACHE=off $(PYTHON) -m repro cache-check
	PYTHONPATH=$(PYTHONPATH) REPRO_CACHE=on $(PYTHON) -m repro cache-check
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/protocol_smoke.py
	$(MAKE) serve-smoke

## serve daemon smoke: two concurrent identical /protect requests must
## cost one computation (dedup counters asserted), and a campaign job
## SIGKILLed mid-run must resume after a daemon restart to tallies
## byte-identical to the uninterrupted engine run (checkpoint recovery).
serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/serve_smoke.py

## rewrite the protected-IR golden digests (tests/pipeline/
## protected_ir_digests.json) — only when a transform change is meant
## to alter the protected IR, layouts or intrinsic names
ir-digests:
	PYTHONPATH=$(PYTHONPATH) REPRO_CACHE=off $(PYTHON) tests/pipeline/test_protected_ir.py

## regenerate every table & figure
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

## full differential-testing sweep (all oracles)
difftest:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro difftest --n 200

## trace one workload run and render the observability report
report-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro --scale 0.35 run blackscholes --scheme AR50 --trace-out demo-trace.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro report demo-trace.jsonl
