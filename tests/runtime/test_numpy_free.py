"""The package runs without numpy.

numpy is a test-only dependency (the workload tests use it as an
independent reference).  A fresh interpreter in which ``import numpy``
fails must still import the whole CLI and run a campaign block on the
batch backend, with tallies equal to the reference backend's.
"""
import os
import subprocess
import sys
import textwrap

import repro

SCRIPT = textwrap.dedent("""
    import sys
    sys.modules["numpy"] = None  # every `import numpy` now raises ImportError

    import repro.cli  # noqa: F401
    from repro.eval.fault_campaign import campaign_context, run_trial_block
    from repro.eval.schemes import prepare
    from repro.workloads import get_workload

    workload = get_workload("conv1d")
    inp = workload.test_inputs(1, seed=22, scale=0.35)[0]
    prepared = prepare(workload, "UNSAFE")
    ctx = campaign_context(prepared, workload, inp)
    ref, batch = (
        run_trial_block(prepared, workload, inp, ctx, "UNSAFE", 5, 0, 32,
                        backend=backend).to_dict()
        for backend in ("ref", "batch"))
    assert "repro.runtime.batch" in sys.modules
    assert batch == ref, (batch, ref)
    print("tallies", sorted(ref["tallies"].items()))
""")


def test_cli_and_batch_block_run_without_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("tallies [")
