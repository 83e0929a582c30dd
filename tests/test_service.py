"""Tests for the sweep service (HTTP + WebSocket frontend).

Three layers, matching the module split:

- pure-bytes protocol units (RFC 6455 framing, HTTP parsing, auth,
  hub backpressure) — no sockets, no event loop where avoidable;
- a live server on an ephemeral port driven by the real
  :class:`repro.client.ServiceClient` over real TCP;
- the ISSUE acceptance criteria: concurrent identical submits share
  one execution and one store write per point, every stream sees
  run_start + ≥1 telemetry + run_end, and a drained fabric job
  resumes bit-identically.
"""

import asyncio
import concurrent.futures
import json
import os
import threading
import time
from contextlib import contextmanager

import pytest

from repro.client import ServiceClient, ServiceError
from repro.experiments import SweepSpec, run_sweep
from repro.experiments.registry import _STUDIES, register_study
from repro.obs.provenance import load_manifest
from repro.service import SweepService, TokenAuth
from repro.service import ws
from repro.service.hub import CLOSE, Hub
from repro.service.http import HTTPError, read_request

TINY_PAYLOAD = {
    "study": "caches",
    "base": {"length": 600, "seed": 3},
    "grid": {"ratio": [0.4, 0.6]},
}


# ----------------------------------------------------------------------
# WebSocket framing (pure bytes)
# ----------------------------------------------------------------------
class TestWSFraming:
    def test_accept_key_rfc_vector(self):
        # The worked example from RFC 6455 §1.3.
        assert ws.accept_key("dGhlIHNhbXBsZSBub25jZQ==") == \
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="

    def test_handshake_response_contains_accept(self):
        response = ws.handshake_response({
            "upgrade": "websocket",
            "sec-websocket-key": "dGhlIHNhbXBsZSBub25jZQ==",
        })
        assert b"101 Switching Protocols" in response
        assert b"s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" in response

    def test_handshake_requires_upgrade_and_key(self):
        with pytest.raises(ws.HandshakeError):
            ws.handshake_response({"sec-websocket-key": "x"})
        with pytest.raises(ws.HandshakeError):
            ws.handshake_response({"upgrade": "websocket"})

    @pytest.mark.parametrize("size", [0, 5, 125, 126, 200,
                                      (1 << 16) - 1, 1 << 16, 70_000])
    def test_encode_decode_round_trip_all_length_forms(self, size):
        payload = bytes(i & 0xFF for i in range(size))
        frames = ws.FrameDecoder().feed(
            ws.encode_frame(ws.OP_BINARY, payload))
        assert frames == [ws.Frame(True, ws.OP_BINARY, payload)]

    def test_masked_round_trip_and_involution(self):
        payload = b"masked message"
        key = b"\x01\x02\x03\x04"
        assert ws.mask_bytes(ws.mask_bytes(payload, key), key) == payload
        frames = ws.FrameDecoder(require_mask=True).feed(
            ws.encode_frame(ws.OP_TEXT, payload, mask_key=key))
        assert frames == [ws.Frame(True, ws.OP_TEXT, payload)]

    def test_server_rejects_unmasked_client_frame(self):
        decoder = ws.FrameDecoder(require_mask=True)
        with pytest.raises(ws.WSProtocolError) as err:
            decoder.feed(ws.encode_frame(ws.OP_TEXT, b"hi"))
        assert err.value.code == 1002

    def test_incremental_feed_byte_by_byte(self):
        wire = ws.encode_frame(ws.OP_TEXT, b"x" * 300)
        decoder = ws.FrameDecoder()
        frames = []
        for i in range(len(wire)):
            frames += decoder.feed(wire[i:i + 1])
        assert frames == [ws.Frame(True, ws.OP_TEXT, b"x" * 300)]

    def test_two_frames_in_one_chunk(self):
        wire = (ws.encode_frame(ws.OP_TEXT, b"one")
                + ws.encode_frame(ws.OP_TEXT, b"two"))
        frames = ws.FrameDecoder().feed(wire)
        assert [f.payload for f in frames] == [b"one", b"two"]

    def test_fragmented_message_reassembles(self):
        assembler = ws.MessageAssembler()
        out = assembler.feed(ws.Frame(False, ws.OP_TEXT, b"hel"))
        assert out == []
        out = assembler.feed(ws.Frame(False, ws.OP_CONT, b"lo "))
        assert out == []
        out = assembler.feed(ws.Frame(True, ws.OP_CONT, b"world"))
        assert out == [(ws.OP_TEXT, b"hello world")]

    def test_control_frames_interleave_fragments(self):
        assembler = ws.MessageAssembler()
        assembler.feed(ws.Frame(False, ws.OP_TEXT, b"par"))
        out = assembler.feed(ws.Frame(True, ws.OP_PING, b"now"))
        assert out == [(ws.OP_PING, b"now")]
        out = assembler.feed(ws.Frame(True, ws.OP_CONT, b"tial"))
        assert out == [(ws.OP_TEXT, b"partial")]

    def test_continuation_without_start_rejected(self):
        with pytest.raises(ws.WSProtocolError):
            ws.MessageAssembler().feed(
                ws.Frame(True, ws.OP_CONT, b"orphan"))

    def test_new_data_frame_inside_fragment_rejected(self):
        assembler = ws.MessageAssembler()
        assembler.feed(ws.Frame(False, ws.OP_TEXT, b"one"))
        with pytest.raises(ws.WSProtocolError):
            assembler.feed(ws.Frame(True, ws.OP_TEXT, b"two"))

    def test_fragmented_control_frame_rejected(self):
        wire = bytearray(ws.encode_frame(ws.OP_PING, b"hi"))
        wire[0] &= 0x7F  # clear FIN on a control frame
        with pytest.raises(ws.WSProtocolError) as err:
            ws.FrameDecoder().feed(bytes(wire))
        assert err.value.code == 1002

    def test_rsv_bits_rejected(self):
        wire = bytearray(ws.encode_frame(ws.OP_TEXT, b"hi"))
        wire[0] |= 0x40
        with pytest.raises(ws.WSProtocolError) as err:
            ws.FrameDecoder().feed(bytes(wire))
        assert err.value.code == 1002

    def test_unknown_opcode_rejected(self):
        wire = bytearray(ws.encode_frame(ws.OP_TEXT, b"hi"))
        wire[0] = 0x80 | 0x3
        with pytest.raises(ws.WSProtocolError):
            ws.FrameDecoder().feed(bytes(wire))

    def test_oversized_payload_closes_1009(self):
        decoder = ws.FrameDecoder(max_payload=16)
        with pytest.raises(ws.WSProtocolError) as err:
            decoder.feed(ws.encode_frame(ws.OP_BINARY, b"z" * 17))
        assert err.value.code == 1009

    def test_close_payload_round_trip(self):
        assert ws.parse_close(ws.close_payload(1013, "slow")) == \
            (1013, "slow")
        # Empty close payload is legal: 1005 "no status received".
        assert ws.parse_close(b"") == (1005, "")

    def test_control_frame_encode_limits(self):
        with pytest.raises(ValueError):
            ws.encode_frame(ws.OP_PING, b"z" * 126)
        with pytest.raises(ValueError):
            ws.encode_frame(ws.OP_CLOSE, b"", fin=False)


# ----------------------------------------------------------------------
# Auth
# ----------------------------------------------------------------------
class TestTokenAuth:
    def test_disabled_when_no_token(self):
        auth = TokenAuth(None)
        assert not auth.enabled
        assert auth.check({})

    def test_bearer_token_checked(self):
        auth = TokenAuth("s3cret")
        assert auth.enabled
        assert auth.check({"authorization": "Bearer s3cret"})
        assert auth.check({"authorization": "bearer s3cret"})
        assert not auth.check({"authorization": "Bearer wrong"})
        assert not auth.check({"authorization": "s3cret"})
        assert not auth.check({})


# ----------------------------------------------------------------------
# HTTP parsing
# ----------------------------------------------------------------------
def _parse_request(wire):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestHTTPParsing:
    def test_get_with_query(self):
        request = _parse_request(
            b"GET /v1/results?key=abc&limit=5 HTTP/1.1\r\n"
            b"Host: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/v1/results"
        assert request.param("key") == "abc"
        assert request.param("limit") == "5"
        assert request.param("missing", "d") == "d"

    def test_post_with_body(self):
        body = json.dumps({"study": "caches"}).encode()
        request = _parse_request(
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        assert request.json() == {"study": "caches"}

    def test_clean_eof_returns_none(self):
        assert _parse_request(b"") is None

    def test_bad_version_rejected(self):
        with pytest.raises(HTTPError) as err:
            _parse_request(b"GET / HTTP/2.0\r\nHost: x\r\n\r\n")
        assert err.value.status == 505

    def test_bad_json_body_rejected(self):
        request = _parse_request(
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Length: 8\r\n\r\n{not json"[:60])
        with pytest.raises(HTTPError) as err:
            request.json()
        assert err.value.status == 400


# ----------------------------------------------------------------------
# Hub backpressure
# ----------------------------------------------------------------------
class TestHub:
    def test_backlog_replays_to_late_subscriber(self):
        async def go():
            hub = Hub(asyncio.get_running_loop())
            hub.publish({"n": 0})
            hub.publish({"n": 1})
            sub = hub.subscribe()
            assert await sub.queue.get() == {"n": 0}
            assert await sub.queue.get() == {"n": 1}

        asyncio.run(go())

    def test_slow_subscriber_dropped_not_blocking(self):
        async def go():
            hub = Hub(asyncio.get_running_loop(),
                      backlog=4, queue_size=4)
            slow = hub.subscribe()
            for i in range(10):
                hub.publish({"n": i})
            assert slow.dropped
            assert hub.drops == 1
            # The stale buffer was cleared: CLOSE arrives immediately.
            assert await slow.queue.get() is CLOSE
            # A fresh subscriber (queue > backlog, the real config)
            # still works; publish never raised.
            hub._queue_size = 8
            fresh = hub.subscribe()
            hub.publish({"n": 10})
            for __ in range(4):  # replayed (bounded) backlog first
                await fresh.queue.get()
            assert await fresh.queue.get() == {"n": 10}

        asyncio.run(go())

    def test_close_publishes_terminal_then_sentinel(self):
        async def go():
            hub = Hub(asyncio.get_running_loop())
            sub = hub.subscribe()
            hub.close({"type": "job", "state": "done"})
            assert await sub.queue.get() == \
                {"type": "job", "state": "done"}
            assert await sub.queue.get() is CLOSE
            # Late subscribers of a closed hub get history + CLOSE.
            late = hub.subscribe()
            assert await late.queue.get() == \
                {"type": "job", "state": "done"}
            assert await late.queue.get() is CLOSE

        asyncio.run(go())


# ----------------------------------------------------------------------
# Live server fixtures
# ----------------------------------------------------------------------
@contextmanager
def live_service(directory, **kwargs):
    """A SweepService on an ephemeral port in a background thread."""
    service = SweepService(str(directory), port=0, quiet=True, **kwargs)
    started = threading.Event()
    box = {}

    async def main():
        box["port"] = await service.start()
        started.set()
        await service._stop.wait()
        await service.shutdown()

    def run():
        loop = asyncio.new_event_loop()
        box["loop"] = loop
        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "service failed to start"
    try:
        yield box["port"], service
    finally:
        box["loop"].call_soon_threadsafe(service.request_stop)
        thread.join(timeout=30)
        assert not thread.is_alive(), "service failed to drain"


def _sleepy_point(params):
    time.sleep(float(params["duration"]))
    return {"slept": float(params["duration"]),
            "ratio": float(params.get("ratio", 0.0))}


@contextmanager
def sleepy_study(name="service_sleepy"):
    register_study(name, "sleeps; lets tests catch jobs mid-flight",
                   defaults={"duration": 0.3, "ratio": 0.0}
                   )(_sleepy_point)
    try:
        yield name
    finally:
        _STUDIES.pop(name, None)


class TestLiveService:
    def test_submit_stream_result_roundtrip(self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            health = client.healthz()
            assert health["status"] == "ok"

            submitted = client.submit(TINY_PAYLOAD)
            job_id = submitted["job"]
            assert submitted["deduplicated"] is False
            assert submitted["total"] == 2

            kinds, types, telemetry = [], [], 0
            for message in client.stream(job_id):
                types.append(message["type"])
                if message["type"] == "event":
                    kinds.append(message["record"]["event"])
                elif message["type"] == "telemetry":
                    telemetry += 1
            assert types[0] == "hello"
            assert "run_start" in kinds and "run_end" in kinds
            assert telemetry >= 1
            assert types[-1] == "job"

            status = client.wait(job_id, timeout=60)
            assert status["state"] == "done"
            assert status["done"] == 2
            # The job's own manifest, not the store's latest-run copy.
            assert status["manifest"].endswith(
                os.path.join("manifests", f"{job_id}.json"))
            assert load_manifest(status["manifest"])["run_id"] == job_id

            rows = client.result(job_id)["rows"]
            assert len(rows) == 2
            assert {row["params"]["ratio"] for row in rows} == \
                {0.4, 0.6}

            # Store query by content key returns the same record.
            key = rows[0]["key"]
            records = client.query(key=key)["records"]
            assert len(records) == 1
            assert records[0]["metrics"] == rows[0]["metrics"]

            # Identical resubmit: dedup hit, no second execution.
            again = client.submit(TINY_PAYLOAD)
            assert again["deduplicated"] is True
            assert again["job"] == job_id
            assert again["submissions"] == 2

    def test_concurrent_identical_submits_share_one_execution(
            self, tmp_path):
        """The ISSUE acceptance test: N concurrent submits of one
        spec → one execution, one store write per point, N identical
        streams each seeing run_start + telemetry + run_end."""
        directory = tmp_path / "svc"
        with live_service(directory) as (port, __):
            url = f"http://127.0.0.1:{port}"

            def submit():
                return ServiceClient(url).submit(TINY_PAYLOAD)

            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                responses = list(pool.map(
                    lambda __: submit(), range(4)))

            assert len({r["job"] for r in responses}) == 1
            fresh = [r for r in responses if not r["deduplicated"]]
            assert len(fresh) == 1
            job_id = responses[0]["job"]

            def consume():
                kinds, telemetry = [], 0
                for message in ServiceClient(url).stream(job_id):
                    if message["type"] == "event":
                        kinds.append(message["record"]["event"])
                    elif message["type"] == "telemetry":
                        telemetry += 1
                return kinds, telemetry

            with concurrent.futures.ThreadPoolExecutor(3) as pool:
                streams = list(pool.map(
                    lambda __: consume(), range(3)))
            for kinds, telemetry in streams:
                assert "run_start" in kinds and "run_end" in kinds
                assert telemetry >= 1

            results = [ServiceClient(url).result(job_id)["rows"]
                       for __ in range(2)]
            assert results[0] == results[1]
            assert len(results[0]) == 2

            # One shard line per point key: the single-execution
            # guarantee, asserted at the storage layer.
            keys = []
            shard_dir = directory / "shards"
            for name in os.listdir(shard_dir):
                with open(shard_dir / name) as handle:
                    keys += [json.loads(line)["key"] for line in handle]
            assert len(keys) == len(set(keys)) == 2

    def test_auth_rejects_and_admits(self, tmp_path):
        with live_service(tmp_path / "svc", token="s3cret") as \
                (port, __):
            url = f"http://127.0.0.1:{port}"
            # healthz stays open for liveness probes.
            assert ServiceClient(url).healthz()["status"] == "ok"

            with pytest.raises(ServiceError) as err:
                ServiceClient(url).submit(TINY_PAYLOAD)
            assert err.value.status == 401
            with pytest.raises(ServiceError) as err:
                ServiceClient(url, token="wrong").jobs()
            assert err.value.status == 401

            client = ServiceClient(url, token="s3cret")
            job = client.submit(TINY_PAYLOAD)
            assert client.wait(job["job"], timeout=60)["state"] == \
                "done"
            # The WS upgrade path enforces the same token.
            with pytest.raises(ServiceError) as err:
                next(iter(ServiceClient(url).stream(job["job"])))
            assert err.value.status == 401
            assert any(m["type"] == "hello"
                       for m in client.stream(job["job"]))

    def test_bad_spec_and_unknown_routes(self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            with pytest.raises(ServiceError) as err:
                client.submit({"study": "no_such_study",
                               "grid": {"x": [1]}})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.status("nonexistent-job")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.query(key="not-a-key")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/v2/nope")
            assert err.value.status == 404

    def test_submit_rejects_removed_fabric_field(self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/v1/jobs", {
                    "spec": {"study": "caches",
                             "grid": {"ratio": [0.4]}},
                    "fabric": True})
            assert err.value.status == 400
            assert "fabric" in str(err.value)

    def test_result_conflicts_until_done(self, tmp_path):
        with sleepy_study() as study:
            payload = {"study": study,
                       "grid": {"duration": [0.5, 0.5001]}}
            with live_service(tmp_path / "svc") as (port, __):
                client = ServiceClient(f"http://127.0.0.1:{port}")
                job = client.submit(payload)
                with pytest.raises(ServiceError) as err:
                    client.result(job["job"])
                assert err.value.status == 409
                assert client.wait(job["job"], timeout=60)[
                    "state"] == "done"
                assert len(client.result(job["job"])["rows"]) == 2

    def test_drain_journals_fabric_job_then_resume_matches(
            self, tmp_path):
        """SIGTERM-path drain: a running fabric job is stopped
        cooperatively, reported incomplete with a resume hint, and
        ``FabricRunner.resume`` finishes it bit-identically."""
        from repro.fabric import FabricRunner, ShardedResultStore

        directory = tmp_path / "svc"
        with sleepy_study() as study:
            spec = SweepSpec(study, grid={
                "duration": [0.4, 0.4001, 0.4002, 0.4003]})
            payload = {"study": study, "grid": dict(spec.grid)}
            oracle = run_sweep(spec, store=None, workers=1)

            with live_service(directory, drain_grace=30.0) as \
                    (port, service):
                client = ServiceClient(f"http://127.0.0.1:{port}")
                job = client.submit(payload)
                job_id = job["job"]
                deadline = time.monotonic() + 30
                while client.status(job_id)["done"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                # Context exit sends the stop; shutdown drains.
            final = service.manager.get(job_id)
            assert final is not None

            store = ShardedResultStore(str(directory))
            try:
                if final.state == "incomplete":
                    assert final.status()["resume"] == (
                        f"repro sweep --resume {job_id} "
                        f"--store {directory}")
                    outcome = FabricRunner(
                        store, workers=1).resume(job_id)
                    rows = {r.point.key: r.metrics
                            for r in outcome.results}
                else:
                    # The job beat the drain; its rows stand alone.
                    assert final.state == "done"
                    rows = {r["key"]: r["metrics"]
                            for r in final.results}
            finally:
                store.close()
            assert rows == {r.point.key: r.metrics
                            for r in oracle.results}

    def test_drain_rejects_new_submits(self, tmp_path):
        with sleepy_study() as study:
            with live_service(tmp_path / "svc") as (port, service):
                client = ServiceClient(f"http://127.0.0.1:{port}")
                job = client.submit(
                    {"study": study, "grid": {"duration": [0.4]}})
                service.manager.draining = True
                with pytest.raises(ServiceError) as err:
                    client.submit(TINY_PAYLOAD)
                assert err.value.status == 503
                assert client.healthz()["draining"] is True
                service.manager.draining = False
                client.wait(job["job"], timeout=60)


# ----------------------------------------------------------------------
# `repro serve` end to end (subprocess, SIGTERM)
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_serve_subprocess_smoke(self, tmp_path):
        import signal
        import subprocess
        import sys

        ready = tmp_path / "ready.json"
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [os.path.abspath("src"),
                                     os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--store", str(tmp_path / "store"),
             "--ready-file", str(ready), "--quiet"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 30
            while not ready.exists():
                assert proc.poll() is None, \
                    proc.stderr.read().decode()
                assert time.monotonic() < deadline
                time.sleep(0.05)
            url = json.loads(ready.read_text())["url"]
            client = ServiceClient(url)
            job = client.submit(TINY_PAYLOAD)
            assert client.wait(job["job"], timeout=60)[
                "state"] == "done"
            assert client.submit(TINY_PAYLOAD)["deduplicated"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
