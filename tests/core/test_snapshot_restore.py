"""``LoopRuntimes.snapshot()``/``restore()`` round trips.

The batch engine runs lockstep lanes on one shared runtime and gives a
lane its own copy of that state (a snapshot restored into the lane's
fork) the moment its intrinsic calls diverge.  A copy must continue
exactly as the original would, and share no mutable run state with it.
"""
import pytest

from repro.core.manager import SkipStats
from repro.eval import Harness
from repro.eval.schemes import prepare
from repro.runtime.interpreter import Interpreter
from repro.workloads import get_workload

SCALE = 0.35


def clean_calls(prepared, workload, inp):
    """The (name, args) of every intrinsic call of a clean run."""
    calls = []

    def recorder(name, fn):
        def call(interp, args):
            calls.append((name, tuple(args)))
            return fn(interp, args)
        return call

    prepared.runtime.reset()
    interp = Interpreter(
        prepared.module, memory=workload.fresh_memory(prepared.module, inp))
    interp.register_intrinsics(
        {name: recorder(name, fn) for name, fn in prepared.intrinsics.items()})
    interp.run(prepared.main, inp.args)
    return calls


def feed(runtime, calls):
    """Make *calls* on *runtime*; each call's value and charge length."""
    table = runtime.intrinsics()
    out = []
    for name, args in calls:
        value, charge = table[name](None, args)
        out.append((value, len(charge)))
    return out


@pytest.fixture(scope="module")
def conv1d():
    workload = get_workload("conv1d")
    inp = workload.test_inputs(1, seed=17, scale=SCALE)[0]
    profiles = Harness(workload, scale=SCALE, timing=False).profiles_for(0.5)
    return workload, inp, profiles


@pytest.mark.parametrize("scheme", ["AR50", "REPLAY2", "CKPT8"])
def test_restored_fork_continues_like_the_original(conv1d, scheme):
    workload, inp, profiles = conv1d
    prepared = prepare(workload, scheme, None,
                       profiles if scheme.startswith("AR") else None)
    calls = clean_calls(prepared, workload, inp)
    half = len(calls) // 2
    source = prepared.runtime.fork()
    feed(source, calls[:half])
    assert source.total_stats() != SkipStats()  # partway, not at reset

    twin = source.fork()
    twin.restore(source.snapshot())
    assert twin.total_stats() == source.total_stats()
    # the source runs on first: state the two shared would have moved
    # the twin to the source's end state before its own calls
    rest = feed(source, calls[half:])
    assert feed(twin, calls[half:]) == rest
    assert twin.total_stats() == source.total_stats()

    end = source.total_stats()
    twin.reset()
    feed(twin, calls[:half])
    assert source.total_stats() == end
    assert twin.total_stats() != end
