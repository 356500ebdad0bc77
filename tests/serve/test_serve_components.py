"""Unit tests of the serve daemon's building blocks: single-flight
dedup, admission control, job records, and the dispatch-level 429."""
import asyncio
import json
import os
import time

import pytest

from repro.serve import AdmissionGate, DedupRegistry, JobManager, ServeApp
from repro.serve.http import Request
from repro.serve.jobs import JOB_DONE


class TestDedupRegistry:
    def test_concurrent_identical_compute_once(self):
        async def go():
            registry = DedupRegistry()
            gate = asyncio.Event()
            calls = []

            async def factory():
                calls.append(1)
                await gate.wait()
                return {"value": 42}

            tasks = [asyncio.ensure_future(registry.run("k", factory))
                     for _ in range(5)]
            await asyncio.sleep(0)  # all five enter; one leads
            assert len(registry) == 1
            gate.set()
            results = await asyncio.gather(*tasks)
            return registry, calls, results

        registry, calls, results = asyncio.run(go())
        assert len(calls) == 1
        assert registry.computations == 1
        assert registry.dedup_hits == 4
        assert sorted(d for _, d in results) == [False, True, True, True, True]
        values = [r for r, _ in results]
        assert all(v == {"value": 42} for v in values)
        # followers share the leader's object, not a copy
        assert all(v is values[0] for v in values)
        assert len(registry) == 0

    def test_distinct_keys_do_not_dedup(self):
        async def go():
            registry = DedupRegistry()

            async def factory():
                return object()

            a, da = await registry.run("a", factory)
            b, db = await registry.run("b", factory)
            return registry, (da, db), (a, b)

        registry, dedup_flags, (a, b) = asyncio.run(go())
        assert dedup_flags == (False, False)
        assert a is not b
        assert registry.computations == 2
        assert registry.dedup_hits == 0

    def test_leader_failure_propagates_to_followers(self):
        async def go():
            registry = DedupRegistry()
            gate = asyncio.Event()

            async def failing():
                await gate.wait()
                raise RuntimeError("boom")

            leader = asyncio.ensure_future(registry.run("k", failing))
            follower = asyncio.ensure_future(registry.run("k", failing))
            await asyncio.sleep(0)
            gate.set()
            outcomes = await asyncio.gather(
                leader, follower, return_exceptions=True)
            return registry, outcomes

        registry, outcomes = asyncio.run(go())
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        # the failure is not cached: a retry computes afresh
        assert len(registry) == 0

    def test_sequential_requests_are_not_deduped(self):
        """Dedup is only for *in-flight* overlap; completed work is the
        artifact cache's job."""
        async def go():
            registry = DedupRegistry()

            async def factory():
                return 1

            await registry.run("k", factory)
            return await registry.run("k", factory)

        _, deduped = asyncio.run(go())
        assert deduped is False


class TestAdmissionGate:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionGate(per_client=0)

    def test_global_budget(self):
        gate = AdmissionGate(max_inflight=2, per_client=2)
        assert gate.admit("a") is None
        assert gate.admit("b") is None
        retry = gate.admit("c")
        assert retry is not None and retry > 0
        gate.release("a")
        assert gate.admit("c") is None

    def test_per_client_cap(self):
        gate = AdmissionGate(max_inflight=10, per_client=1)
        assert gate.admit("a") is None
        assert gate.admit("a") is not None  # same client: capped
        assert gate.admit("b") is None      # other clients unaffected
        gate.release("a")
        assert gate.admit("a") is None

    def test_release_bookkeeping(self):
        gate = AdmissionGate(max_inflight=4, per_client=4)
        gate.admit("a")
        gate.admit("a")
        gate.release("a")
        gate.release("a")
        gate.release("a")  # over-release must not go negative
        stats = gate.stats()
        assert stats["inflight"] == 0
        assert stats["clients"] == 0

    def test_stats_counters(self):
        gate = AdmissionGate(max_inflight=1, per_client=1)
        gate.admit("a")
        gate.admit("a")
        stats = gate.stats()
        assert stats["admitted"] == 1
        assert stats["rejected"] == 1


class TestDispatchAdmission:
    """The 429 path at the dispatch level, with a handler we control."""

    def test_second_request_of_capped_client_gets_429(self, tmp_path):
        async def go():
            app = ServeApp(port=0, state_dir=str(tmp_path),
                           workers=1, max_inflight=8, per_client=1)
            blocker = asyncio.Event()

            async def slow_handler(request):
                blocker.set()
                await asyncio.sleep(0.2)
                from repro.serve.http import Response
                return Response(payload={"ok": True})

            app._route = lambda request: (slow_handler, True)
            request = Request(method="POST", path="/protect",
                              headers={"x-repro-client": "tenant-1"})
            first = asyncio.ensure_future(app._dispatch(request))
            await blocker.wait()
            second = await app._dispatch(request)
            first = await first
            await app.stop()
            return first, second

        first, second = asyncio.run(go())
        assert first.status == 200
        assert second.status == 429
        assert second.headers.get("retry-after")
        assert "retry later" in second.payload["error"]


class TestJobManager:
    def test_param_validation(self, tmp_path):
        manager = JobManager(str(tmp_path))
        try:
            for bad in (
                {},                                      # no workload
                {"workload": "nope"},                    # unknown workload
                {"workload": "lud", "trials": 0},        # bad trials
                {"workload": "lud", "trials": "many"},
                {"workload": "lud", "seed": 1.5},
                {"workload": "lud", "scale": 0},
                {"workload": "lud", "scheme": "XX"},
            ):
                with pytest.raises(ValueError):
                    manager.normalize_params(bad)
            params = manager.normalize_params(
                {"workload": "lud", "scheme": "swift", "trials": 3,
                 "scale": 2.0})
            assert params == {"workload": "lud", "scheme": "SWIFT",
                              "trials": 3, "seed": 0, "scale": 0.45}
        finally:
            manager.shutdown()

    def test_submit_runs_to_done_and_persists(self, tmp_path):
        manager = JobManager(str(tmp_path), chunk=2)
        try:
            record = manager.submit(
                {"workload": "conv1d", "scheme": "UNSAFE", "trials": 4,
                 "scale": 0.35})
            deadline = 60
            t0 = time.time()
            while record.status not in ("done", "failed"):
                assert time.time() - t0 < deadline
                time.sleep(0.05)
            assert record.status == JOB_DONE, record.error
            assert record.done_trials == 4
            assert record.result["trials"] == 4
            # the spent checkpoint is cleaned up; the record persists
            assert not os.path.exists(record.checkpoint)
            with open(manager._record_path(record.id),
                      encoding="utf-8") as handle:
                on_disk = json.load(handle)
            assert on_disk["status"] == "done"
            assert on_disk["result"] == record.result
        finally:
            manager.shutdown()

    def test_checkpoint_is_gone_before_the_job_reads_done(self, tmp_path):
        """A poller that sees ``done`` must not find the spent checkpoint:
        it is removed before the status flips."""
        manager = JobManager(str(tmp_path), chunk=2)
        on_disk_at_done = []
        finish = manager._finish

        def recorded(record, status, error=""):
            if status == JOB_DONE:
                on_disk_at_done.append(os.path.exists(record.checkpoint))
            finish(record, status, error)

        manager._finish = recorded
        try:
            record = manager.submit(
                {"workload": "conv1d", "scheme": "UNSAFE", "trials": 4,
                 "scale": 0.35})
            t0 = time.time()
            while record.status not in ("done", "failed"):
                assert time.time() - t0 < 60
                time.sleep(0.05)
            assert record.status == JOB_DONE, record.error
            assert on_disk_at_done == [False]
        finally:
            manager.shutdown()

    def test_recover_skips_finished_and_corrupt_records(self, tmp_path):
        manager = JobManager(str(tmp_path))
        manager.shutdown()
        done = {"id": "001-done", "params": {}, "status": "done",
                "created_at": 0.0, "started_at": None, "finished_at": 1.0,
                "done_trials": 2, "total_trials": 2, "error": "",
                "result": {"trials": 2}, "checkpoint": "", "restarts": 0}
        with open(os.path.join(manager.jobs_dir, "001-done.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(done, handle)
        with open(os.path.join(manager.jobs_dir, "002-junk.json"), "w",
                  encoding="utf-8") as handle:
            handle.write("{nope")
        fresh = JobManager(str(tmp_path))
        try:
            assert fresh.recover() == []
            assert fresh.get("001-done").status == "done"
            assert fresh.get("002-junk") is None
        finally:
            fresh.shutdown()

    def test_recover_sweeps_orphaned_temp_files(self, tmp_path):
        manager = JobManager(str(tmp_path))
        two_hours_ago = time.time() - 2 * 3600
        planted = {}
        for directory in (manager.jobs_dir, manager.checkpoints_dir):
            old = os.path.join(directory, ".x.tmp")
            fresh = os.path.join(directory, ".y.tmp")
            for path in (old, fresh):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("{")
            os.utime(old, (two_hours_ago, two_hours_ago))
            planted[directory] = (old, fresh)
        try:
            assert manager.recover() == []
            for old, fresh in planted.values():
                assert not os.path.exists(old)
                assert os.path.exists(fresh)
        finally:
            manager.shutdown()
