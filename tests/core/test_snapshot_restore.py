"""``LoopRuntimes.snapshot()``/``restore()`` round trips.

The batch engine runs lockstep lanes on one shared runtime and gives a
lane its own copy of that state (a snapshot restored into the lane's
fork) the moment its intrinsic calls diverge.  A copy must continue
exactly as the original would, and share no mutable run state with it.
"""
import pytest

from repro.core.manager import LoopRuntime, SkipStats
from repro.core.protocol import CkptLoopRuntime, ReplayLoopRuntime
from repro.eval import Harness
from repro.eval.schemes import prepare
from repro.runtime.interpreter import Interpreter
from repro.runtime.prefix import _same_state
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


class _Plain:
    pass


def test_run_state_copy_equals_deepcopy(monkeypatch):
    """The run-state copy builds what ``copy.deepcopy`` builds: equal
    values, the same aliasing and cycles, shared config/profile,
    never-written outputs (Element) and tuples nothing inside of needs
    a copy, and nothing else shared.  Tuples are copied the way lists
    are, never by ``copy.deepcopy``."""
    import copy
    from collections import deque

    from repro.core.manager import Element, _copy_run_state

    config, profile = object(), object()
    shared_list = [1.5, -0.0]
    element = Element(3, 2.0, 40)
    inner = _Plain()
    inner.points = shared_list
    inner.alias = shared_list
    inner.me = inner
    cyclic = []
    cyclic.append(cyclic)
    frozen = (element, (3, "b"), None)
    pair = (2, [shared_list, element])
    state = {
        "config": config, "profile": profile, "stats": SkipStats(elements=7),
        "queue": deque([element, (1, shared_list)], maxlen=8),
        "slicer": inner, "cyclic": cyclic, "tuple": (1, "a", None),
        "nested": {"k": [inner, {1, 2}]},
        "frozen": frozen, "pairs": [pair, pair, (pair, frozen)],
    }
    want = copy.deepcopy(state, {id(config): config, id(profile): profile})
    handed = []
    real_deepcopy = copy.deepcopy

    def spy(value, memo=None):
        handed.append(type(value))
        return real_deepcopy(value, memo)

    monkeypatch.setattr(copy, "deepcopy", spy)
    got = _copy_run_state(state)
    assert tuple not in handed
    assert got["config"] is config and got["profile"] is profile
    assert got["stats"] == want["stats"] and got["stats"] is not state["stats"]
    assert got["queue"].maxlen == 8 and got["queue"][0] is element
    slicer = got["slicer"]
    assert slicer is not inner and slicer.me is slicer
    assert slicer.points is slicer.alias is got["queue"][1][1]
    assert slicer.points == shared_list and slicer.points is not shared_list
    assert got["cyclic"][0] is got["cyclic"]
    assert got["tuple"] is state["tuple"]
    assert got["nested"]["k"][0] is slicer
    assert got["nested"]["k"][1] == {1, 2}
    assert got["nested"]["k"][1] is not state["nested"]["k"][1]
    assert str(got["stats"]) == str(want["stats"])
    # a tuple of shared items is shared, as copy.deepcopy shares it
    assert want["frozen"] is frozen and got["frozen"] is frozen
    # a tuple holding a list is copied once, its aliases kept
    pairs = got["pairs"]
    assert pairs == want["pairs"] and pairs[0] is not pair
    assert pairs[0] is pairs[1] is pairs[2][0] and pairs[2][1] is frozen
    assert pairs[2] is not state["pairs"][2]
    assert pairs[0][1][0] is slicer.points and pairs[0][1][1] is element


@pytest.mark.parametrize("scheme, loop_type, signal", [
    ("AR50", LoopRuntime, None),
    ("REPLAY2", ReplayLoopRuntime, None),
    ("CKPT8", CkptLoopRuntime, True),
    ("CKPT8FIX", CkptLoopRuntime, False),
])
def test_reset_equals_a_fresh_fork(conv1d, scheme, loop_type, signal):
    """A loop dirtied by a run must, once reset, equal a fresh ``fork()``
    in every attribute: ``reset()`` is derived from ``fork()``, so no
    field list can drift from the constructor's."""
    workload, inp, profiles = conv1d
    prepared = prepare(workload, scheme, None,
                       profiles if scheme.startswith("AR") else None)
    runtime = prepared.runtime.fork()
    fresh = runtime.fork()
    feed(runtime, clean_calls(prepared, workload, inp))
    assert runtime.loops
    for ctx_id, loop in runtime.loops.items():
        assert type(loop) is loop_type
        if signal is not None:
            assert (loop.signal is not None) is signal
        assert not _same_state(vars(loop), vars(fresh.loops[ctx_id]))
    runtime.reset()
    for ctx_id, loop in runtime.loops.items():
        assert _same_state(vars(loop), vars(fresh.loops[ctx_id]))
