"""End-to-end daemon tests over real sockets: dedup of concurrent
identical requests, keep-alive, campaign jobs, and the kill/restart
checkpoint-resume byte-identity contract."""
import asyncio
import json
import os
import time

import pytest

from repro.eval.campaign_engine import run_campaign_parallel
from repro.pipeline import reset_cache
from repro.serve import ServeApp
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _memory_cache(monkeypatch):
    """Serve tests share the process-global artifact cache; keep it in
    memory mode and fresh so no test leaks warm entries into another."""
    monkeypatch.setenv("REPRO_CACHE", "mem")
    reset_cache()
    yield
    reset_cache()


async def _request(host, port, method, path, body=None, headers=None,
                   close=True):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await _request_on(reader, writer, method, path, body,
                                 headers, close)
    finally:
        writer.close()
        await writer.wait_closed()


async def _request_on(reader, writer, method, path, body=None, headers=None,
                      close=True):
    payload = json.dumps(body).encode() if body is not None else b""
    head = [f"{method} {path} HTTP/1.1", "host: test"]
    if headers:
        head.extend(f"{k}: {v}" for k, v in headers.items())
    if payload:
        head.append(f"content-length: {len(payload)}")
    if close:
        head.append("connection: close")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split(b" ", 2)[1])
    response_headers = {}
    while True:
        line = (await reader.readline()).rstrip(b"\r\n")
        if not line:
            break
        name, _, value = line.decode().partition(": ")
        response_headers[name] = value
    length = int(response_headers.get("content-length", "0"))
    raw = await reader.readexactly(length)
    data = json.loads(raw) if raw.strip() else None
    return status, data, response_headers


def _serve_test(coro_factory, **app_kwargs):
    """Run *coro_factory(app)* against a freshly started daemon."""

    async def go():
        app = ServeApp(port=0, **app_kwargs)
        resumed = await app.start()
        try:
            return await coro_factory(app, resumed)
        finally:
            await app.stop()

    return asyncio.run(go())


class TestEndpoints:
    def test_healthz_stats_and_routing(self, tmp_path):
        async def scenario(app, _resumed):
            h, p = app.host, app.port
            ok = await _request(h, p, "GET", "/healthz")
            stats = await _request(h, p, "GET", "/stats")
            missing = await _request(h, p, "GET", "/nope")
            wrong_method = await _request(h, p, "GET", "/protect")
            return ok, stats, missing, wrong_method

        ok, stats, missing, wrong_method = _serve_test(
            scenario, state_dir=str(tmp_path))
        assert ok[0] == 200 and ok[1] == {"ok": True}
        assert stats[0] == 200
        for section in ("dedup", "admission", "jobs", "cache"):
            assert section in stats[1]
        assert missing[0] == 404
        assert wrong_method[0] == 405

    def test_keep_alive_serves_multiple_requests(self, tmp_path):
        async def scenario(app, _resumed):
            reader, writer = await asyncio.open_connection(app.host, app.port)
            try:
                first = await _request_on(reader, writer, "GET", "/healthz",
                                          close=False)
                second = await _request_on(reader, writer, "GET", "/stats",
                                           close=True)
            finally:
                writer.close()
                await writer.wait_closed()
            return first, second

        first, second = _serve_test(scenario, state_dir=str(tmp_path))
        assert first[0] == 200 and first[2]["connection"] == "keep-alive"
        assert second[0] == 200 and second[2]["connection"] == "close"

    def test_concurrent_identical_protects_compute_once(self, tmp_path):
        """The ISSUE's acceptance criterion: N identical in-flight
        /protect requests cost one computation; the rest are dedup hits."""
        async def scenario(app, _resumed):
            h, p = app.host, app.port
            # the leader's computation waits until all four requests have
            # reached the registry, so every follower finds it in flight
            registry_run = app.dedup.run
            arrived = 0
            all_in = asyncio.Event()

            async def held_run(key, factory):
                nonlocal arrived
                arrived += 1
                if arrived == 4:
                    all_in.set()

                async def held():
                    # bounded, so a lost request fails the test, not hangs it
                    await asyncio.wait_for(all_in.wait(), 60)
                    return await factory()

                return await registry_run(key, held)

            app.dedup.run = held_run
            body = {"workload": "blackscholes", "scheme": "AR20"}
            results = await asyncio.gather(
                *[_request(h, p, "POST", "/protect", body) for _ in range(4)])
            stats = await _request(h, p, "GET", "/stats")
            return results, stats[1]

        results, stats = _serve_test(scenario, state_dir=str(tmp_path))
        assert all(status == 200 for status, _, _ in results)
        flags = sorted(data["deduped"] for _, data, _ in results)
        assert flags == [False, True, True, True]
        assert stats["dedup"]["computations"] == 1
        assert stats["dedup"]["dedup_hits"] == 3
        # every follower sees the leader's exact artifact
        modules = {data["module"] for _, data, _ in results}
        assert len(modules) == 1

    def test_protect_from_ir_text(self, tmp_path):
        from repro.ir.printer import format_module

        source = format_module(get_workload("conv1d").build())

        async def scenario(app, _resumed):
            return await _request(app.host, app.port, "POST", "/protect",
                                  {"ir": source, "scheme": "SWIFT"})

        status, data, _ = _serve_test(scenario, state_dir=str(tmp_path))
        assert status == 200
        assert data["scheme"] == "SWIFT"
        assert data["source"] == "ir"
        assert "swift" in data["passes"]
        assert len(data["module"]) > len(source)

    def test_run_endpoint_matches_cli_semantics(self, tmp_path):
        async def scenario(app, _resumed):
            body = {"workload": "conv1d", "scheme": "AR50", "scale": 0.35,
                    "seed": 1}
            first = await _request(app.host, app.port, "POST", "/run", body)
            second = await _request(app.host, app.port, "POST", "/run", body)
            return first, second

        first, second = _serve_test(scenario, state_dir=str(tmp_path))
        assert first[0] == 200 and second[0] == 200
        assert first[1]["correct"] is True
        assert first[1]["skip_rate"] is not None
        # deterministic measurement: repeated requests agree exactly
        a, b = dict(first[1]), dict(second[1])
        a.pop("deduped"), b.pop("deduped")
        assert a == b

    def test_train_endpoint(self, tmp_path):
        async def scenario(app, _resumed):
            return await _request(
                app.host, app.port, "POST", "/train",
                {"workload": "blackscholes", "scheme": "AR20",
                 "scale": 0.35})

        status, data, _ = _serve_test(scenario, state_dir=str(tmp_path))
        assert status == 200
        assert data["acceptable_range"] == 0.2
        assert data["trained_loops"]

    def test_manifest_written_per_request(self, tmp_path):
        async def scenario(app, _resumed):
            await _request(app.host, app.port, "POST", "/run",
                           {"workload": "conv1d", "scheme": "UNSAFE",
                            "scale": 0.35})
            return app.manifests_dir

        manifests_dir = _serve_test(scenario, state_dir=str(tmp_path))
        names = [n for n in os.listdir(manifests_dir) if n.endswith(".json")]
        assert len(names) == 1
        with open(os.path.join(manifests_dir, names[0]),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["command"] == "serve:/run"
        assert manifest["params"]["workload"] == "conv1d"
        assert manifest["params"]["deduped"] is False


class TestCampaignJobs:
    PARAMS = {"workload": "conv1d", "scheme": "UNSAFE", "trials": 8,
              "seed": 3, "scale": 0.35}

    def _reference_result(self):
        """What the CLI computes at the same parameters (jobs.py mirrors
        `repro campaign`: jobs=1, the manager's chunk, sfi scale cap)."""
        from repro.serve.jobs import DEFAULT_JOB_CHUNK

        return run_campaign_parallel(
            get_workload("conv1d"), "UNSAFE", trials=self.PARAMS["trials"],
            seed=self.PARAMS["seed"], scale=self.PARAMS["scale"],
            jobs=1, chunk=DEFAULT_JOB_CHUNK,
        )

    async def _poll_until_final(self, app, job_id, deadline=120.0):
        t0 = time.monotonic()
        while True:
            status, data, _ = await _request(
                app.host, app.port, "GET", f"/campaigns/{job_id}")
            assert status == 200
            if data["job"]["status"] in ("done", "failed"):
                return data["job"]
            assert time.monotonic() - t0 < deadline
            await asyncio.sleep(0.05)

    def test_job_lifecycle_and_cli_byte_identity(self, tmp_path):
        async def scenario(app, _resumed):
            h, p = app.host, app.port
            status, data, _ = await _request(h, p, "POST", "/campaigns",
                                             self.PARAMS)
            assert status == 202
            job_id = data["job"]["id"]
            listed = await _request(h, p, "GET", "/campaigns")
            assert any(j["id"] == job_id for j in listed[1]["jobs"])
            return await self._poll_until_final(app, job_id)

        job = _serve_test(scenario, state_dir=str(tmp_path))
        assert job["status"] == "done", job["error"]
        assert job["done_trials"] == self.PARAMS["trials"]
        reference = self._reference_result()
        assert (json.dumps(job["result"], sort_keys=True)
                == json.dumps(reference.to_dict(), sort_keys=True))

    def test_unknown_job_is_404(self, tmp_path):
        async def scenario(app, _resumed):
            return await _request(app.host, app.port, "GET",
                                  "/campaigns/nope")

        assert _serve_test(scenario, state_dir=str(tmp_path))[0] == 404

    def test_killed_job_resumes_after_restart_byte_identical(self, tmp_path):
        """The crash-recovery acceptance test, with the kill made
        deterministic: a campaign is aborted right after its first chunk
        was durably checkpointed (exactly the state a SIGKILLed daemon
        leaves behind), its record persisted as `running`, and a fresh
        daemon started over the same state dir.  Recovery must resume
        from the checkpoint and produce tallies byte-identical to the
        CLI's uninterrupted campaign."""
        from repro.serve.jobs import DEFAULT_JOB_CHUNK

        state = str(tmp_path)
        jobs_dir = os.path.join(state, "jobs")
        checkpoints_dir = os.path.join(state, "checkpoints")
        os.makedirs(jobs_dir)
        os.makedirs(checkpoints_dir)
        job_id = "0000000000000-0001-dead"
        checkpoint = os.path.join(checkpoints_dir, f"{job_id}.json")

        class Killed(Exception):
            pass

        def kill_after_first_chunk(done, total, _elapsed):
            if done >= DEFAULT_JOB_CHUNK:
                raise Killed

        with pytest.raises(Killed):
            run_campaign_parallel(
                get_workload("conv1d"), "UNSAFE",
                trials=self.PARAMS["trials"], seed=self.PARAMS["seed"],
                scale=self.PARAMS["scale"], jobs=1, chunk=DEFAULT_JOB_CHUNK,
                checkpoint=checkpoint, resume=True,
                progress=kill_after_first_chunk,
            )
        assert os.path.exists(checkpoint)  # partial progress survived

        record = {
            "id": job_id,
            "params": {"workload": "conv1d", "scheme": "UNSAFE",
                       "trials": self.PARAMS["trials"],
                       "seed": self.PARAMS["seed"],
                       "scale": self.PARAMS["scale"]},
            "status": "running", "created_at": 1.0, "started_at": 1.0,
            "finished_at": None, "done_trials": DEFAULT_JOB_CHUNK,
            "total_trials": self.PARAMS["trials"], "error": "",
            "result": None, "checkpoint": checkpoint, "restarts": 0,
        }
        with open(os.path.join(jobs_dir, f"{job_id}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(record, handle)

        async def scenario(app, resumed):
            assert resumed == [job_id]
            return await self._poll_until_final(app, job_id)

        job = _serve_test(scenario, state_dir=state)
        assert job["status"] == "done", job["error"]
        assert job["restarts"] == 1
        assert not os.path.exists(checkpoint)  # spent and cleaned up
        reference = self._reference_result()
        assert (json.dumps(job["result"], sort_keys=True)
                == json.dumps(reference.to_dict(), sort_keys=True))
