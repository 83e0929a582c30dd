"""Sweep service: submit/stream/query StudySpecs over HTTP + WebSocket.

The multi-frontend layer over the sweep engine (DESIGN.md §11): many
concurrent clients share one content-hash-deduped
:class:`~repro.fabric.store.ShardedResultStore` through a small,
stdlib-only asyncio server —

- :mod:`repro.service.http` — hand-rolled HTTP/1.1 request parsing and
  response rendering;
- :mod:`repro.service.ws` — RFC 6455 WebSocket framing (handshake,
  encoder, incremental decoder, fragment reassembly) as pure
  bytes-in/bytes-out functions;
- :mod:`repro.service.auth` — static bearer-token auth with
  constant-time comparison;
- :mod:`repro.service.hub` — bounded fan-out of job messages to any
  number of WS subscribers (slow consumers are dropped, never block);
- :mod:`repro.service.jobs` — spec-hash job dedup and execution via
  :class:`~repro.fabric.runner.FabricRunner` in an executor;
- :mod:`repro.service.app` — routing, signal handling, graceful drain.

Run it with ``repro serve``; talk to it with
:class:`repro.client.ServiceClient` or plain ``curl``.
"""

from repro.service.app import SweepService
from repro.service.auth import TokenAuth
from repro.service.hub import Hub
from repro.service.jobs import Job, JobManager

__all__ = [
    "Hub",
    "Job",
    "JobManager",
    "SweepService",
    "TokenAuth",
]
