"""Client for the sweep service: submit / status / stream / result.

Stdlib-only, mirroring the server: plain ``http.client`` for the REST
surface and a raw-socket WebSocket client (masked frames, ping replies)
reusing the same :mod:`repro.service.ws` framing the server is built
on.  Synchronous by design — tests, CI smokes and notebook-style
scripts drive it from ordinary threads::

    from repro.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8765")
    job = client.submit({"study": "caches",
                         "sweep": {"protection.dl0.params.ratio":
                                   [0.25, 0.5]}})
    for message in client.stream(job["job"]):
        print(message["type"])
    rows = client.result(job["job"])["rows"]
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import time
from typing import Any, Dict, Iterator, Mapping, Optional
from urllib.parse import quote, urlsplit

from repro.service import ws

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response (or a broken stream) from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _spec_payload(spec: Any) -> Any:
    """Accept dicts, StudySpec, or SweepSpec transparently."""
    if isinstance(spec, Mapping):
        return dict(spec)
    for attr in ("to_dict", "payload"):
        method = getattr(spec, attr, None)
        if callable(method):
            return method()
    raise TypeError(
        f"cannot submit {type(spec).__name__}: pass a dict, a "
        f"StudySpec, or a SweepSpec")


class ServiceClient:
    """Talk to one ``repro serve`` instance."""

    def __init__(self, base_url: str, token: Optional[str] = None,
                 timeout: float = 60.0) -> None:
        split = urlsplit(base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(
                f"unsupported scheme {split.scheme!r} (http only)")
        netloc = split.netloc or split.path
        host, __, port = netloc.partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port or 80)
        self.token = token
        self.timeout = timeout

    # -- REST -----------------------------------------------------------
    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _request(self, method: str, path: str,
                 payload: Any = None) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            body = (json.dumps(payload).encode("utf-8")
                    if payload is not None else None)
            conn.request(method, path, body=body,
                         headers=self._headers())
            response = conn.getresponse()
            data = response.read()
            try:
                parsed = json.loads(data) if data else {}
            except ValueError:
                parsed = {"error": data.decode("utf-8", "replace")}
            if response.status >= 400:
                raise ServiceError(
                    response.status,
                    str(parsed.get("error", "request failed")))
            if not isinstance(parsed, dict):
                raise ServiceError(502, "non-object JSON response")
            return parsed
        finally:
            conn.close()

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def submit(self, spec: Any,
               workers: Optional[int] = None) -> Dict[str, Any]:
        """Submit a spec; returns the job status (``job`` is the id).

        ``deduplicated=True`` in the response means an identical spec
        was already queued/running/done and this submission attached to
        it — no new execution.
        """
        body: Dict[str, Any] = {"spec": _spec_payload(spec)}
        if workers is not None:
            body["workers"] = int(workers)
        return self._request("POST", "/v1/jobs", body)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{quote(job_id)}")

    def jobs(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/jobs")

    def result(self, job_id: str) -> Dict[str, Any]:
        """Terminal rows of a done job (raises 409 while running)."""
        return self._request(
            "GET", f"/v1/jobs/{quote(job_id)}/result")

    def query(self, key: Optional[str] = None,
              study: Optional[str] = None,
              limit: int = 100) -> Dict[str, Any]:
        """Query the shared result store directly."""
        if key:
            path = f"/v1/results?key={quote(key)}"
        elif study:
            path = f"/v1/results?study={quote(study)}&limit={limit}"
        else:
            path = f"/v1/results?limit={limit}"
        return self._request("GET", path)

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.1) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status.get("state") in ("done", "error", "incomplete"):
                return status
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status.get('state')} after "
                    f"{timeout}s")
            time.sleep(poll)

    # -- WebSocket ------------------------------------------------------
    def stream(self, job_id: str,
               timeout: Optional[float] = None
               ) -> Iterator[Dict[str, Any]]:
        """Yield the job's live messages until the server closes.

        Messages are the server's JSON objects: ``hello``, ``event``
        (one ``events.jsonl`` record each), ``telemetry`` (an
        ``IntervalTelemetry`` snapshot), and a final ``job`` status.
        Pings are answered transparently.
        """
        path = f"/v1/ws/jobs/{quote(job_id)}"
        sock = socket.create_connection(
            (self.host, self.port), timeout or self.timeout)
        try:
            request, key = ws.client_handshake(
                f"{self.host}:{self.port}", path, token=self.token)
            sock.sendall(request)
            status, headers, leftover = _read_http_head(sock)
            if status != 101:
                raise ServiceError(status, "websocket upgrade refused")
            expected = ws.accept_key(key)
            if headers.get("sec-websocket-accept") != expected:
                raise ServiceError(502, "bad Sec-WebSocket-Accept")
            yield from self._frames(sock, leftover)
        finally:
            sock.close()

    def _frames(self, sock: socket.socket, leftover: bytes = b""
                ) -> Iterator[Dict[str, Any]]:
        decoder = ws.FrameDecoder(require_mask=False)
        assembler = ws.MessageAssembler()
        first = True
        while True:
            if first:
                # Frame bytes often ride the same TCP segment as the
                # 101 head; they were split off there, not lost.
                data, first = leftover, False
                if not data:
                    continue
            else:
                try:
                    data = sock.recv(65536)
                except socket.timeout as exc:
                    raise ServiceError(
                        504, "stream timed out waiting for frames"
                    ) from exc
                if not data:
                    return
            for frame in decoder.feed(data):
                for opcode, payload in assembler.feed(frame):
                    if opcode == ws.OP_TEXT:
                        try:
                            message = json.loads(
                                payload.decode("utf-8"))
                        except ValueError:
                            continue
                        if isinstance(message, dict):
                            yield message
                    elif opcode == ws.OP_PING:
                        sock.sendall(ws.encode_frame(
                            ws.OP_PONG, payload,
                            mask_key=os.urandom(4)))
                    elif opcode == ws.OP_CLOSE:
                        try:
                            sock.sendall(ws.encode_frame(
                                ws.OP_CLOSE, payload[:2],
                                mask_key=os.urandom(4)))
                        except OSError:
                            pass
                        return


def _read_http_head(sock: socket.socket
                    ) -> tuple[int, Dict[str, str], bytes]:
    """Read up to the blank line.

    Returns ``(status, lower-cased headers, leftover)`` — leftover
    being any frame bytes the kernel delivered in the same read as the
    response head.
    """
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        if not chunk:
            raise ServiceError(502, "connection closed during upgrade")
        data += chunk
        if len(data) > 64 * 1024:
            raise ServiceError(502, "oversized upgrade response")
    head_bytes, leftover = data.split(b"\r\n\r\n", 1)
    head = head_bytes.decode("latin-1")
    lines = head.split("\r\n")
    parts = lines[0].split()
    status = int(parts[1]) if len(parts) > 1 else 0
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return status, headers, leftover
