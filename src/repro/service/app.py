"""The sweep service: asyncio HTTP+WebSocket frontend over one store.

Routes (all JSON, all under ``/v1``)::

    GET  /v1/healthz            liveness + drain state (no auth)
    POST /v1/jobs               submit a StudySpec/SweepSpec payload
    GET  /v1/jobs               list jobs
    GET  /v1/jobs/{id}          one job's status
    GET  /v1/jobs/{id}/result   terminal rows (409 until done)
    GET  /v1/results            store query (?key=… | ?study=…&limit=…)
    GET  /v1/ws/jobs/{id}       WebSocket: telemetry + event stream

Submit bodies are either a bare spec payload or ``{"spec": …,
"workers": n}``.  The lifecycle is deliberately boring: one process,
one store directory, jobs deduplicated by spec hash (HTTP 200 on a
dedup hit, 202 on a fresh launch), SIGTERM → stop accepting, ask
running jobs to journal out, drain, exit 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from typing import Any, Optional

from repro.config.specs import SpecError
from repro.obs.log import EventLog, new_run_id
from repro.service import ws
from repro.service.auth import TokenAuth
from repro.service.http import (
    HTTPError,
    Request,
    json_response,
    read_request,
)
from repro.service.hub import CLOSE
from repro.service.jobs import DONE, JobManager

__all__ = ["SweepService"]

#: Close code sent to subscribers dropped for falling behind.
WS_CLOSE_SLOW = 1013


class SweepService:
    """One service instance: a bound socket plus a job manager."""

    def __init__(
        self,
        directory: str,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        max_jobs: int = 2,
        default_workers: int = 1,
        drain_grace: float = 30.0,
        ready_file: Optional[str] = None,
        quiet: bool = False,
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.host = host
        self.port = port
        self.auth = TokenAuth(token)
        self.max_jobs = max_jobs
        self.default_workers = default_workers
        self.drain_grace = drain_grace
        self.ready_file = ready_file
        self.quiet = quiet
        self.manager: Optional[JobManager] = None
        self.log: Optional[EventLog] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> int:
        """Bind the socket and start accepting; returns the real port."""
        loop = asyncio.get_running_loop()
        os.makedirs(self.directory, exist_ok=True)
        self.log = EventLog(
            path=os.path.join(self.directory, "events.jsonl"),
            run_id=f"svc-{new_run_id()[:8]}")
        self.manager = JobManager(
            self.directory, max_jobs=self.max_jobs,
            default_workers=self.default_workers, log=self.log,
            loop=loop)
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._install_signal_handlers(loop)
        self.log.info("service_start", host=self.host, port=self.port,
                      store=self.directory, auth=self.auth.enabled,
                      max_jobs=self.max_jobs)
        if self.ready_file:
            self._write_ready_file()
        if not self.quiet:
            print(f"repro service listening on "
                  f"http://{self.host}:{self.port} "
                  f"(store {self.directory})", flush=True)
        return self.port

    def _install_signal_handlers(
            self, loop: asyncio.AbstractEventLoop) -> None:
        for signame in ("SIGTERM", "SIGINT"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread (tests) or platform without signal
                # support: request_stop() is still callable directly.
                return

    def _write_ready_file(self) -> None:
        # Atomic write so a poller never reads a torn JSON file.
        assert self.ready_file is not None
        payload = json.dumps({
            "url": f"http://{self.host}:{self.port}",
            "pid": os.getpid(),
            "store": self.directory,
        }, sort_keys=True)
        tmp = f"{self.ready_file}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        os.replace(tmp, self.ready_file)

    def request_stop(self) -> None:
        """Begin graceful shutdown (signal handler / test hook)."""
        if self._stop is not None and not self._stop.is_set():
            self._stop.set()

    async def run(self) -> int:
        """Serve until stopped, then drain; the ``repro serve`` body."""
        await self.start()
        assert self._stop is not None
        await self._stop.wait()
        await self.shutdown()
        return 0

    async def shutdown(self) -> None:
        """Stop accepting, drain jobs, close everything."""
        assert self.manager is not None and self.log is not None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.log.info("service_drain",
                      jobs=len(self.manager.jobs()))
        summary = await self.manager.drain(grace=self.drain_grace)
        self.log.info("service_stop", **summary)
        self.manager.close()
        if not self.quiet:
            unfinished = summary.get("unfinished") or []
            note = (f"; resume with repro sweep --store "
                    f"{self.directory} --resume "
                    f"{' '.join(unfinished)}" if unfinished else "")
            print(f"repro service drained "
                  f"({len(unfinished)} unfinished job(s)){note}",
                  flush=True)

    # -- connection handling --------------------------------------------
    async def _handle_connection(
            self, reader: asyncio.StreamReader,
            writer: asyncio.StreamWriter) -> None:
        keep_open = False
        try:
            request = await read_request(reader)
            if request is None:
                return
            keep_open = await self._dispatch(request, reader, writer)
        except HTTPError as exc:
            await self._send(writer, json_response(
                exc.status, {"error": exc.message}))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # a handler bug must not kill accept
            if self.log is not None:
                self.log.error("request_error",
                               error=f"{type(exc).__name__}: {exc}")
            try:
                await self._send(writer, json_response(
                    500, {"error": "internal error"}))
            except (ConnectionError, OSError):
                pass
        finally:
            if not keep_open:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: bytes) -> None:
        writer.write(payload)
        await writer.drain()

    async def _dispatch(self, request: Request,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; True when the connection stays open."""
        assert self.manager is not None
        path = request.path.rstrip("/") or "/"
        if request.method == "GET" and path == "/v1/healthz":
            await self._send(writer, json_response(200, {
                "status": "ok",
                "draining": self.manager.draining,
                "jobs": len(self.manager.jobs()),
            }))
            return False
        if not self.auth.check(request.headers):
            if self.log is not None:
                self.log.warning("auth_denied", path=path)
            await self._send(writer, json_response(
                401, {"error": "missing or invalid bearer token"}))
            return False
        if request.method == "POST" and path == "/v1/jobs":
            await self._send(writer, self._submit(request))
            return False
        if request.method == "GET" and path == "/v1/jobs":
            await self._send(writer, json_response(200, {
                "jobs": [job.status()
                         for job in self.manager.jobs()],
            }))
            return False
        if request.method == "GET" and path.startswith("/v1/jobs/"):
            await self._send(writer, self._job_query(path))
            return False
        if request.method == "GET" and path == "/v1/results":
            await self._send(writer, self._results(request))
            return False
        if request.method == "GET" and path.startswith("/v1/ws/jobs/"):
            return await self._websocket(request, reader, writer,
                                         path[len("/v1/ws/jobs/"):])
        raise HTTPError(404, f"no route for {request.method} {path}")

    # -- HTTP handlers --------------------------------------------------
    def _submit(self, request: Request) -> bytes:
        assert self.manager is not None
        if self.manager.draining:
            raise HTTPError(503, "service is draining")
        body = request.json()
        if not isinstance(body, dict):
            raise HTTPError(400, "submit body must be a JSON object")
        if "fabric" in body:
            raise HTTPError(400, "the 'fabric' field was removed: every "
                                 "job runs on the one sweep runner")
        spec_payload = body.get("spec", body)
        workers = body.get("workers")
        if workers is not None and (
                not isinstance(workers, int) or workers < 1):
            raise HTTPError(400, "workers must be a positive integer")
        try:
            job, deduplicated = self.manager.submit(
                spec_payload, workers=workers)
        except (SpecError, KeyError, ValueError, TypeError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise HTTPError(400, f"bad spec: {message}") from exc
        status = 200 if deduplicated else 202
        return json_response(status, {
            "job": job.run_id,
            "deduplicated": deduplicated,
            **job.status(),
        })

    def _job_query(self, path: str) -> bytes:
        assert self.manager is not None
        tail = path[len("/v1/jobs/"):]
        if tail.endswith("/result"):
            job_id, want_result = tail[:-len("/result")], True
        else:
            job_id, want_result = tail, False
        job = self.manager.get(job_id)
        if job is None or "/" in job_id:
            raise HTTPError(404, f"unknown job {job_id!r}")
        if not want_result:
            return json_response(200, job.status())
        if job.state != DONE:
            raise HTTPError(
                409, f"job {job_id} is {job.state}, not done")
        return json_response(200, {
            "job": job.run_id,
            "run_id": job.run_id,
            "study": job.spec.study,
            "manifest": job.manifest_path,
            "rows": job.results,
        })

    def _results(self, request: Request) -> bytes:
        assert self.manager is not None
        key = request.param("key")
        study = request.param("study")
        try:
            limit = int(request.param("limit", "100") or "100")
        except ValueError as exc:
            raise HTTPError(400, "limit must be an integer") from exc
        rows = self.manager.query_results(key=key, study=study,
                                          limit=limit)
        if key and not rows:
            raise HTTPError(404, f"no stored result for key {key!r}")
        return json_response(200, {"records": rows})

    # -- WebSocket ------------------------------------------------------
    async def _websocket(self, request: Request,
                         reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         job_id: str) -> bool:
        assert self.manager is not None
        job = self.manager.get(job_id)
        if job is None:
            raise HTTPError(404, f"unknown job {job_id!r}")
        try:
            response = ws.handshake_response(request.headers)
        except ws.HandshakeError as exc:
            raise HTTPError(400, str(exc)) from exc
        await self._send(writer, response)
        if self.log is not None:
            self.log.info("ws_subscribe", job=job_id)
        sub = job.hub.subscribe()
        try:
            await ws.send_text(writer, json.dumps({
                "type": "hello",
                "job": job.run_id,
                "run_id": job.run_id,
                "state": job.state,
                "study": job.spec.study,
                "total": job.total,
            }, sort_keys=True))
            sender = asyncio.create_task(self._ws_send(writer, sub))
            receiver = asyncio.create_task(
                self._ws_receive(reader, writer))
            done, pending = await asyncio.wait(
                {sender, receiver},
                return_when=asyncio.FIRST_COMPLETED)
            for task in pending:
                task.cancel()
            for task in pending:
                try:
                    await task
                except (asyncio.CancelledError, ConnectionError,
                        OSError):
                    pass
        except (ConnectionError, OSError):
            pass
        finally:
            job.hub.unsubscribe(sub)
            if sub.dropped and self.log is not None:
                self.log.warning("ws_dropped", job=job_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return True

    async def _ws_send(self, writer: asyncio.StreamWriter,
                       sub: Any) -> None:
        """Queue → frames; ends at the hub's close sentinel."""
        while True:
            message = await sub.queue.get()
            if message is CLOSE:
                break
            await ws.send_text(writer, json.dumps(
                message, sort_keys=True, default=str))
        code = WS_CLOSE_SLOW if sub.dropped else 1000
        reason = "subscriber too slow" if sub.dropped else "stream end"
        await ws.send_close(writer, code, reason)

    async def _ws_receive(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """Client frames: answer pings, honour close, ignore data."""
        decoder = ws.FrameDecoder(require_mask=True)
        assembler = ws.MessageAssembler()
        while True:
            data = await reader.read(4096)
            if not data:
                return
            try:
                frames = decoder.feed(data)
            except ws.WSProtocolError as exc:
                await ws.send_close(writer, exc.code, str(exc))
                return
            for frame in frames:
                for opcode, payload in assembler.feed(frame):
                    if opcode == ws.OP_PING:
                        await ws.send_frame(writer, ws.OP_PONG,
                                            payload)
                    elif opcode == ws.OP_CLOSE:
                        code, __ = ws.parse_close(payload)
                        await ws.send_close(writer, code or 1000)
                        return
