"""The serve daemon: protection-as-a-service over the existing pipeline.

``repro serve`` exposes the repo's compile/train/measure/campaign
machinery as an asyncio HTTP/JSON daemon.  Division of labor:

* the **event loop** parses requests, makes admission decisions, keys
  computations and parks duplicate requests (`.dedup`, `.quotas` — all
  loop-confined state);
* a **request executor** (thread pool) runs the actual pipeline work —
  protection, training, measurement — over the shared artifact cache,
  which is what the thread-safety work in `repro.pipeline.cache` exists
  for;
* a **job executor** (`.jobs`) runs fault-injection campaigns in the
  background, checkpointing per chunk so a killed daemon resumes where
  it stopped.

Endpoints::

    GET  /healthz              liveness
    GET  /stats                dedup / admission / jobs / cache counters
    POST /protect              {"workload"|"ir", "scheme", "optimize"}
    POST /train                {"workload", "scheme", "scale", "seed"}
    POST /run                  {"workload", "scheme", "scale", "seed"}
    POST /campaigns            202 + job id; params as `repro campaign`
    GET  /campaigns[/<id>]     poll job progress / results

Every computed request stamps a :class:`repro.obs.RunManifest` under
``<state>/manifests/`` — the audit trail of what the service ran.
"""
from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

from ..eval import Harness, campaign_input
from ..ir.parser import parse_module
from ..ir.printer import format_module
from ..obs import RunManifest, run_id_for
from ..pipeline import protect
from ..pipeline.cache import artifact_key, cache_dir, get_cache
from ..pipeline.registry import canonical_scheme, get_scheme
from ..runtime import default_backend
from ..runtime.compiler import module_fingerprint
from ..workloads import WORKLOADS, get_workload
from .dedup import DedupRegistry
from .http import (
    HttpError,
    Request,
    Response,
    encode_response,
    error_response,
    read_request,
)
from .jobs import JobManager, is_json_number
from .quotas import AdmissionGate

#: keep-alive connections idle longer than this are closed
IDLE_TIMEOUT = 60.0


def _bad_request(exc: Exception) -> HttpError:
    """Registry/validation errors become client errors, not 500s."""
    message = exc.args[0] if exc.args else str(exc)
    return HttpError(422, str(message))


class ServeApp:
    """One daemon instance: sockets, executors, and loop-confined state."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        state_dir: Optional[str] = None,
        workers: int = 4,
        job_workers: int = 1,
        max_inflight: int = 32,
        per_client: int = 8,
        idle_timeout: float = IDLE_TIMEOUT,
    ):
        self.host = host
        self.port = port
        self.state_dir = state_dir or os.path.join(cache_dir(), "serve")
        self.manifests_dir = os.path.join(self.state_dir, "manifests")
        os.makedirs(self.manifests_dir, exist_ok=True)
        self.idle_timeout = idle_timeout
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")
        self.dedup = DedupRegistry()
        self.gate = AdmissionGate(
            max_inflight=max_inflight, per_client=per_client)
        self.jobs = JobManager(self.state_dir, max_workers=job_workers)
        self.requests_total = 0
        self.started_at = time.time()
        self._server: Optional[asyncio.AbstractServer] = None
        self._req_seq = 0

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> list:
        """Bind the socket and resume persisted jobs; returns resumed ids.

        Job recovery runs *before* the socket opens so a poller can never
        observe the daemon up but its jobs forgotten.
        """
        resumed = self.jobs.recover()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return resumed

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.jobs.shutdown()
        self.executor.shutdown(wait=False, cancel_futures=True)

    # -- connection loop ------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        peer_ip = peer[0] if isinstance(peer, tuple) and peer else "local"
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader, peer_ip), self.idle_timeout)
                except (asyncio.TimeoutError, TimeoutError):
                    break
                except HttpError as exc:
                    writer.write(encode_response(
                        error_response(exc), keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep = request.keep_alive
                response = await self._dispatch(request)
                writer.write(encode_response(response, keep_alive=keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- routing --------------------------------------------------------------
    def _route(self, request: Request) -> Tuple[object, bool]:
        """Resolve ``(handler, gated)``; gated handlers pass admission."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return self._healthz, False
        if path == "/stats" and method == "GET":
            return self._stats, False
        if path == "/protect" and method == "POST":
            return self._protect, True
        if path == "/train" and method == "POST":
            return self._train, True
        if path == "/run" and method == "POST":
            return self._run, True
        if path == "/campaigns" and method == "POST":
            return self._campaign_submit, True
        if path == "/campaigns" and method == "GET":
            return self._campaign_list, False
        if path.startswith("/campaigns/") and method == "GET":
            return self._campaign_get, False
        if path in ("/", "/healthz", "/stats", "/protect", "/train", "/run",
                    "/campaigns") or path.startswith("/campaigns/"):
            raise HttpError(405, f"{method} not allowed on {path}")
        raise HttpError(404, f"no such endpoint: {path}")

    @staticmethod
    def _client_of(request: Request) -> str:
        return request.headers.get("x-repro-client") or request.client or "local"

    async def _dispatch(self, request: Request) -> Response:
        self.requests_total += 1
        try:
            handler, gated = self._route(request)
            if not gated:
                return await handler(request)
            client = self._client_of(request)
            retry = self.gate.admit(client)
            if retry is not None:
                raise HttpError(
                    429, "server is at capacity; retry later",
                    {"retry-after": str(max(1, int(round(retry))))})
            try:
                return await handler(request)
            finally:
                self.gate.release(client)
        except HttpError as exc:
            return error_response(exc)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # one request must never kill the daemon
            return error_response(
                HttpError(500, f"{type(exc).__name__}: {exc}"))

    # -- small endpoints ------------------------------------------------------
    async def _healthz(self, request: Request) -> Response:
        return Response(payload={"ok": True})

    async def _stats(self, request: Request) -> Response:
        cache = get_cache()
        return Response(payload={
            "uptime": time.time() - self.started_at,
            "requests": self.requests_total,
            "dedup": self.dedup.stats(),
            "admission": self.gate.stats(),
            "jobs": self.jobs.stats(),
            "cache": cache.stats() if cache is not None else None,
        })

    # -- compute endpoints ----------------------------------------------------
    def _in_executor(self, fn):
        return asyncio.get_running_loop().run_in_executor(self.executor, fn)

    async def _deduped(self, endpoint: str, key: str, compute,
                       params: dict, fingerprints: dict) -> Response:
        """Shared tail of every compute endpoint: single-flight the work,
        stamp a manifest for this request, report the dedup outcome."""
        result, deduped = await self.dedup.run(
            key, lambda: self._in_executor(compute))
        self._write_manifest(endpoint, key, params, fingerprints, deduped)
        payload = dict(result)  # followers share the dict; never mutate it
        payload["deduped"] = deduped
        return Response(payload=payload)

    def _write_manifest(self, endpoint: str, key: str, params: dict,
                        fingerprints: dict, deduped: bool) -> None:
        self._req_seq += 1
        name = f"req-{int(self.started_at)}-{self._req_seq:06d}.json"
        RunManifest(
            run=run_id_for("serve", endpoint, key),
            command=f"serve:{endpoint}",
            backend=default_backend(),
            params=dict(params, deduped=deduped),
            fingerprints=fingerprints,
        ).write_to(os.path.join(self.manifests_dir, name))

    @staticmethod
    def _scheme_of(body: dict, default: str = "AR50"):
        try:
            return get_scheme(canonical_scheme(body.get("scheme", default)))
        except ValueError as exc:
            raise _bad_request(exc)

    async def _protect(self, request: Request) -> Response:
        body = request.json()
        descriptor = self._scheme_of(body)
        optimize = body.get("optimize", True)
        if not isinstance(optimize, bool):
            raise HttpError(422, "'optimize' must be a boolean")
        ir_text = body.get("ir")
        workload_name = body.get("workload")
        if isinstance(ir_text, str):
            def build():
                return parse_module(ir_text)
            source = "ir"
        elif isinstance(workload_name, str):
            try:
                workload = get_workload(workload_name)
            except KeyError as exc:
                raise _bad_request(exc)
            build = workload.build
            source = workload.name
        else:
            raise HttpError(422, "provide 'workload' (name) or 'ir' (text)")

        # building/parsing + fingerprinting is CPU work: executor, not loop
        def prepare():
            module = build()
            return module, module_fingerprint(module)
        try:
            module, fingerprint = await self._in_executor(prepare)
        except ValueError as exc:  # unparsable IR
            raise _bad_request(exc)

        key = artifact_key("serve-protect", fingerprint,
                           descriptor.descriptor_hash(), optimize)

        def compute():
            protected = protect(module, descriptor.name, optimize=optimize)
            return {
                "scheme": protected.scheme,
                "source": source,
                "fingerprint": fingerprint,
                "cache_hit": protected.cache_hit,
                "optimizations": protected.optimizations,
                "passes": [run.name for run in protected.pass_runs],
                "module": format_module(protected.module),
            }

        return await self._deduped(
            "/protect", key, compute,
            params={"scheme": descriptor.name, "source": source,
                    "optimize": optimize},
            fingerprints={f"{source}|{descriptor.name}": fingerprint})

    @staticmethod
    def _workload_scale_seed(body: dict):
        """The workload, scale and seed of a ``/train`` or ``/run`` body."""
        try:
            workload = get_workload(body.get("workload", ""))
        except KeyError as exc:
            raise _bad_request(exc)
        scale = body.get("scale", 0.6)
        seed = body.get("seed", 1)
        if not is_json_number(scale) or not is_json_number(seed, int):
            raise HttpError(422, "'scale' must be a number, 'seed' an int")
        return workload, float(scale), seed

    async def _train(self, request: Request) -> Response:
        body = request.json()
        descriptor = self._scheme_of(body, default="AR50")
        if not descriptor.needs_training:
            raise HttpError(
                422, f"scheme {descriptor.name} needs no training")
        workload, scale, seed = self._workload_scale_seed(body)
        harness = Harness(workload, scale=scale, seed=seed, timing=False)
        ar = descriptor.acceptable_range
        # the harness's own cache key: fingerprint × training parameters —
        # identical train requests dedup exactly like identical protects
        key = await self._in_executor(lambda: harness.profile_key(ar))

        def compute():
            profiles = harness.profiles_for(ar)
            return {
                "workload": workload.name,
                "scheme": descriptor.name,
                "acceptable_range": ar,
                "trained_loops": sorted(profiles),
            }

        return await self._deduped(
            "/train", key, compute,
            params={"workload": workload.name, "scheme": descriptor.name,
                    "scale": scale, "seed": seed},
            fingerprints={})

    async def _run(self, request: Request) -> Response:
        body = request.json()
        descriptor = self._scheme_of(body)
        workload, scale, seed = self._workload_scale_seed(body)
        key = artifact_key("serve-run", workload.name, descriptor.name,
                           scale, seed)

        def compute():
            harness = Harness(workload, scale=scale, seed=seed)
            inp = campaign_input(workload, seed, scale)
            record = harness.run_all([descriptor.name], inp)[descriptor.name]
            return {
                "workload": workload.name,
                "scheme": descriptor.name,
                "steps": record.steps,
                "cycles": record.cycles,
                "ipc": record.ipc,
                "correct": record.correct,
                "skip_rate": record.skip_rate,
            }

        return await self._deduped(
            "/run", key, compute,
            params={"workload": workload.name, "scheme": descriptor.name,
                    "scale": scale, "seed": seed},
            fingerprints={})

    # -- campaign endpoints ---------------------------------------------------
    async def _campaign_submit(self, request: Request) -> Response:
        try:
            record = self.jobs.submit(request.json())
        except ValueError as exc:
            raise _bad_request(exc)
        return Response(status=202, payload={"job": record.view()})

    async def _campaign_list(self, request: Request) -> Response:
        return Response(payload={"jobs": self.jobs.list_views()})

    async def _campaign_get(self, request: Request) -> Response:
        job_id = request.path.rstrip("/").rsplit("/", 1)[-1]
        record = self.jobs.get(job_id)
        if record is None:
            raise HttpError(404, f"no such job: {job_id}")
        return Response(payload={"job": record.view()})


def run_serve(
    host: str = "127.0.0.1",
    port: int = 8787,
    state_dir: Optional[str] = None,
    workers: int = 4,
    job_workers: int = 1,
    max_inflight: int = 32,
    per_client: int = 8,
) -> None:
    """Blocking entry point for ``repro serve`` (Ctrl-C to stop)."""

    async def main():
        app = ServeApp(
            host=host, port=port, state_dir=state_dir, workers=workers,
            job_workers=job_workers, max_inflight=max_inflight,
            per_client=per_client,
        )
        resumed = await app.start()
        # parseable by scripts: the one line tooling greps for the port
        print(f"repro serve: listening on http://{app.host}:{app.port}",
              flush=True)
        print(f"repro serve: state under {app.state_dir} "
              f"({len(WORKLOADS)} workloads registered)", flush=True)
        if resumed:
            print(f"repro serve: resumed {len(resumed)} campaign job(s): "
                  f"{', '.join(resumed)}", flush=True)
        try:
            await app.serve_forever()
        finally:
            await app.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
