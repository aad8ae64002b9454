"""Tests of the online HTTP serving tier (repro.serve.http).

Covers the coalescing contract of the DynamicBatcher, the JSON endpoint
surfaces over real sockets, hot snapshot swaps racing in-flight
requests, the cold-user extraction path, the reload lock, and the CLI
``serve`` entry point driven from a worker thread.
"""

import gc
import http.client
import json
import socket
import struct
import threading
import time
import weakref

import numpy as np
import pytest

from repro.cli import build_parser, cmd_serve, main
from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split
from repro.models import NGCF, BiasMF
from repro.serve import (
    DynamicBatcher,
    EmbeddingStore,
    RecommendationHTTPServer,
    RecommendationService,
    ServerBusy,
)
from repro.serve.http import MAX_BODY_BYTES, MAX_K, _Pending


@pytest.fixture(scope="module")
def split(small_taobao):
    return leave_one_out_split(small_taobao)


@pytest.fixture(scope="module")
def gnmr(split):
    return GNMR(split.train, GNMRConfig(pretrain=False, seed=0))


def _get(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _post(port: int, path: str, body: bytes) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


def _handler_threads() -> int:
    """Live per-connection threads of any server (socketserver names them
    after their target)."""
    return sum("process_request_thread" in thread.name
               for thread in threading.enumerate())


class GatedService(RecommendationService):
    """A service whose ``recommend`` blocks on an event — lets tests pin
    the batcher worker mid-flush so requests pile up deterministically."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.gate.set()
        self.calls: list[list[int]] = []

    def recommend(self, users, k=None):
        self.calls.append(np.atleast_1d(users).tolist())
        self.gate.wait()
        return super().recommend(users, k)


# ----------------------------------------------------------------------
# DynamicBatcher
# ----------------------------------------------------------------------
class TestDynamicBatcher:
    def test_coalesces_queued_requests_into_one_call(self):
        calls = []

        def fn(users, k):
            calls.append(list(users))
            return [(u, k) for u in users]

        batcher = DynamicBatcher(fn, max_batch=8, max_wait_ms=50.0,
                                 autostart=False)
        pending = [batcher.submit(user, k=3) for user in (2, 5, 7, 1)]
        batcher.start()
        assert [p.result(timeout=5.0) for p in pending] == [
            (2, 3), (5, 3), (7, 3), (1, 3)]
        assert calls == [[2, 5, 7, 1]]
        stats = batcher.stats()
        assert stats["submitted"] == 4
        assert stats["batches"] == 1
        assert stats["largest_batch"] == 4
        assert stats["mean_batch_size"] == 4.0
        batcher.close()

    def test_max_wait_flushes_partial_batch(self):
        batcher = DynamicBatcher(lambda users, k: [u * 10 for u in users],
                                 max_batch=64, max_wait_ms=5.0)
        assert batcher.submit(3, k=1).result(timeout=5.0) == 30
        assert batcher.stats()["largest_batch"] == 1
        batcher.close()

    def test_distinct_k_one_call_per_group(self):
        calls = []

        def fn(users, k):
            calls.append((list(users), k))
            return [(u, k) for u in users]

        batcher = DynamicBatcher(fn, max_batch=8, autostart=False)
        a = batcher.submit(1, k=2)
        b = batcher.submit(2, k=4)
        c = batcher.submit(3, k=2)
        batcher.start()
        assert a.result(timeout=5.0) == (1, 2)
        assert b.result(timeout=5.0) == (2, 4)
        assert c.result(timeout=5.0) == (3, 2)
        assert sorted(calls) == [([1, 3], 2), ([2], 4)]
        # one drain cycle, two fn executions
        assert batcher.stats()["batches"] == 2
        batcher.close()

    def test_stats_count_a_batch_before_its_futures_resolve(self, monkeypatch):
        """A caller holding its answer reads stats() that already count
        the batch it came from."""
        seen = []
        finish = _Pending._finish

        def recording(pending, value):
            stats = batcher.stats()
            seen.append((pending.k, stats["batches"], stats["largest_batch"]))
            finish(pending, value)

        monkeypatch.setattr(_Pending, "_finish", recording)
        batcher = DynamicBatcher(lambda users, k: [(u, k) for u in users],
                                 max_batch=8, autostart=False)
        pending = [batcher.submit(user, k=k) for user, k in ((1, 2), (2, 4), (3, 2))]
        batcher.start()
        assert [p.result(timeout=5.0) for p in pending] == [(1, 2), (2, 4), (3, 2)]
        assert sorted(seen) == [(2, 2, 2), (2, 2, 2), (4, 2, 2)]
        batcher.close()

    def test_stats_count_a_failed_batch_before_its_waiters_see_the_error(
            self, monkeypatch):
        seen = []
        fail = _Pending._fail

        def recording(pending, error):
            seen.append(batcher.stats()["batches"])
            fail(pending, error)

        def fn(users, k):
            raise KeyError("boom")

        monkeypatch.setattr(_Pending, "_fail", recording)
        batcher = DynamicBatcher(fn, max_batch=4, autostart=False)
        pending = [batcher.submit(u, k=1) for u in (0, 1)]
        batcher.start()
        for p in pending:
            with pytest.raises(KeyError, match="boom"):
                p.result(timeout=5.0)
        assert seen == [1, 1]
        batcher.close()

    def test_fn_error_propagates_to_every_waiter(self):
        def fn(users, k):
            raise KeyError("boom")

        batcher = DynamicBatcher(fn, max_batch=4, autostart=False)
        pending = [batcher.submit(u, k=1) for u in (0, 1)]
        batcher.start()
        for p in pending:
            with pytest.raises(KeyError, match="boom"):
                p.result(timeout=5.0)
        batcher.close()

    def test_wrong_row_count_is_an_error(self):
        batcher = DynamicBatcher(lambda users, k: [0], max_batch=4,
                                 autostart=False)
        pending = [batcher.submit(u, k=1) for u in (0, 1)]
        batcher.start()
        for p in pending:
            with pytest.raises(RuntimeError, match="returned 1 rows"):
                p.result(timeout=5.0)
        batcher.close()

    def test_bounded_queue_sheds_load(self):
        batcher = DynamicBatcher(lambda users, k: list(users), max_queue=1,
                                 autostart=False)
        batcher.submit(0, k=1)
        with pytest.raises(ServerBusy):
            batcher.submit(1, k=1)
        batcher.close()

    def test_close_fails_pending_and_rejects_submit(self):
        batcher = DynamicBatcher(lambda users, k: list(users),
                                 autostart=False)
        pending = batcher.submit(0, k=1)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed before"):
            pending.result(timeout=1.0)
        with pytest.raises(RuntimeError, match="batcher is closed"):
            batcher.submit(1, k=1)
        batcher.close()  # idempotent

    def test_result_timeout(self):
        batcher = DynamicBatcher(lambda users, k: list(users),
                                 autostart=False)
        pending = batcher.submit(0, k=1)
        with pytest.raises(TimeoutError):
            pending.result(timeout=0.01)
        batcher.close()

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0}, {"max_wait_ms": -1.0}, {"max_queue": 0}])
    def test_invalid_dials_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DynamicBatcher(lambda users, k: list(users), **kwargs)


class TestWindowRule:
    """A batch closes once it is as large as the last one, at ``max_batch``
    or at ``max_wait_ms`` — the dials are wide so no bound is tight."""

    @staticmethod
    def _recording():
        """An identity ``fn`` and the list of user batches it was called on."""
        calls = []

        def fn(users, k):
            calls.append(list(users))
            return list(users)

        return calls, fn

    def _after_batch_of_three(self, max_wait_ms):
        """A batcher whose last flushed batch held three requests."""
        calls, fn = self._recording()
        batcher = DynamicBatcher(fn, max_batch=8, max_wait_ms=max_wait_ms,
                                 autostart=False)
        pending = [batcher.submit(user, k=1) for user in (0, 1, 2)]
        batcher.start()
        assert [p.result(timeout=10.0) for p in pending] == [0, 1, 2]
        assert calls == [[0, 1, 2]]
        return batcher, calls

    def test_lone_request_after_lone_batch_waits_for_nobody(self):
        batcher = DynamicBatcher(lambda users, k: list(users), max_batch=8,
                                 max_wait_ms=500.0)
        try:
            assert batcher.submit(1, k=1).result(timeout=5.0) == 1
            started = time.monotonic()
            assert batcher.submit(2, k=1).result(timeout=5.0) == 2
            assert time.monotonic() - started < 0.1
            assert batcher.stats()["batches"] == 2
        finally:
            batcher.close()

    def test_batch_closes_when_as_large_as_the_last(self):
        batcher, calls = self._after_batch_of_three(max_wait_ms=2000.0)
        try:
            batches = batcher.stats()["batches"]
            started = time.monotonic()
            pending = []
            for user in (3, 4, 5):
                pending.append(batcher.submit(user, k=1))
                time.sleep(0.02)
            assert [p.result(timeout=5.0) for p in pending] == [3, 4, 5]
            assert time.monotonic() - started < 0.5
            assert batcher.stats()["batches"] == batches + 1
            assert calls[-1] == [3, 4, 5]
        finally:
            batcher.close()

    def test_short_batch_still_closes_at_max_wait(self):
        batcher, calls = self._after_batch_of_three(max_wait_ms=200.0)
        try:
            started = time.monotonic()
            pending = [batcher.submit(user, k=1) for user in (3, 4)]
            assert [p.result(timeout=5.0) for p in pending] == [3, 4]
            assert time.monotonic() - started >= 0.2
            assert calls[-1] == [3, 4]
        finally:
            batcher.close()

    def test_max_batch_still_caps(self):
        calls, fn = self._recording()
        batcher = DynamicBatcher(fn, max_batch=2, max_wait_ms=20.0,
                                 autostart=False)
        pending = [batcher.submit(user, k=1) for user in range(5)]
        batcher.start()
        try:
            assert [p.result(timeout=5.0) for p in pending] == list(range(5))
            assert calls == [[0, 1], [2, 3], [4]]
            assert batcher.stats()["largest_batch"] == 2
        finally:
            batcher.close()


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------
class TestEndpoints:
    @pytest.fixture(scope="class")
    def service(self, gnmr, split):
        return RecommendationService(gnmr, train=split.train, k_default=5)

    @pytest.fixture(scope="class")
    def server(self, service):
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=60_000.0).start()
        yield server
        server.close()

    def test_healthz_schema(self, server, service):
        status, payload = _get(server.port, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["retriever"] == "exact"
        assert payload["snapshot_version"] == service.snapshot_version
        assert payload["uptime_s"] > 0

    def test_recommend_matches_library_direct(self, server, service):
        status, payload = _get(server.port, "/recommend?user=7&k=4")
        assert status == 200
        # a quiescent server flushes a batch of one, the same arity as
        # the direct call — items and scores must match byte for byte
        direct = service.recommend(np.array([7]), 4).to_payload()[0]
        assert payload["items"] == direct["items"]
        assert payload["user"] == 7 and payload["k"] == 4
        assert payload["cold"] is False
        assert payload["snapshot_version"] == service.snapshot_version

    def test_recommend_uses_default_k(self, server, service):
        status, payload = _get(server.port, "/recommend?user=0")
        assert status == 200
        assert len(payload["items"]) == service.k_default

    def test_post_batch_matches_library_direct(self, server, service):
        body = json.dumps({"users": [3, 9, 12], "k": 6}).encode()
        status, payload = _post(server.port, "/recommend", body)
        assert status == 200
        direct = service.recommend(np.array([3, 9, 12]), 6).to_payload()
        assert payload["recommendations"] == direct
        assert payload["k"] == 6

    @pytest.mark.parametrize("path", [
        "/recommend",                 # missing user
        "/recommend?user=oops",      # non-integer
        "/recommend?user=10000",     # out of range
        "/recommend?user=-1",        # out of range
        "/recommend?user=0&k=0",     # non-positive k
        f"/recommend?user=0&k={MAX_K + 1}",  # a whole-catalogue body
    ])
    def test_bad_single_requests_are_400(self, server, path):
        status, payload = _get(server.port, path)
        assert status == 400
        assert "error" in payload

    @pytest.mark.parametrize("body", [
        b"not json",
        b"{}",
        b'{"users": []}',
        b'{"users": [99999]}',
        b'{"users": [0], "k": 0}',
        b'{"users": "12"}',           # not users 1 and 2
        b'{"users": [true]}',         # not user 1
        b'{"users": [1.9]}',          # not user 1
        b'{"users": [0], "k": 2.7}',  # not k=2
        b'{"users": [0], "k": %d}' % (MAX_K + 1),
        pytest.param(b"[" * 100_000,  # RecursionError inside json.loads
                     id="nested-100k-deep"),
    ])
    def test_bad_batch_requests_are_400(self, server, body):
        status, payload = _post(server.port, "/recommend", body)
        assert status == 400
        assert "error" in payload

    @pytest.mark.parametrize("length, expected", [
        ("-1", 400),                  # rfile.read(-1) would read to EOF
        ("12.5", 400),
        (str(MAX_BODY_BYTES + 1), 413),
    ])
    def test_bad_content_length_is_answered_unread(self, server, length,
                                                   expected):
        """The client keeps its socket open and sends no body: the answer
        must not wait for one."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: " + length.encode() + b"\r\n\r\n")
            status_line = sock.makefile("rb").readline()
        assert int(status_line.split()[1]) == expected

    def test_largest_k_is_served(self, server, service):
        status, payload = _get(server.port, f"/recommend?user=0&k={MAX_K}")
        assert status == 200
        assert len(payload["items"]) == len(
            service.recommend(np.array([0]), MAX_K).as_lists()[0])

    @pytest.mark.parametrize("request_bytes, expected", [
        # 13 of the 100 declared bytes, then silence
        (b"POST /recommend HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n"
         b"\r\n" + b'{"users": [0]', b"408"),
        # a request line that never ends: the stdlib drops the connection
        (b"GET /recommend?user=0", None),
    ], ids=["short-body", "unfinished-request-line"])
    def test_stalled_reads_release_the_handler(self, server, monkeypatch,
                                               request_bytes, expected):
        """The client keeps its socket open and stops sending: it is
        answered (or hung up on) within the read timeout and the handler
        thread is gone, instead of held for as long as the client stays."""
        monkeypatch.setattr("repro.serve.http.READ_TIMEOUT_S", 0.3)
        _wait_until(lambda: _handler_threads() == 0)
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5) as sock:
            sock.sendall(request_bytes)
            reader = sock.makefile("rb")
            status_line = reader.readline()
            if expected is None:
                assert status_line == b""          # closed, nothing sent
            else:
                assert status_line.split()[1] == expected
                # reads to EOF inside the client timeout: connection closed
                assert b"Content-Length declared" in reader.read()
            _wait_until(lambda: _handler_threads() == 0)

    def test_short_body_with_eof_is_408(self, server):
        """The client half-closes after 13 of 100 bytes: no timeout needed."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 100\r\n\r\n" + b'{"users": [0]')
            sock.shutdown(socket.SHUT_WR)
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"408"

    def test_unknown_paths_are_404(self, server):
        assert _get(server.port, "/nope")[0] == 404
        assert _post(server.port, "/nope", b"{}")[0] == 404

    def test_stats_schema_and_counters(self, server):
        status, payload = _get(server.port, "/stats")
        assert status == 200
        assert payload["requests"]["total"] >= payload["requests"]["recommend"]
        assert payload["requests"]["recommend"] >= 1
        assert payload["requests"]["recommend_batch"] >= 1
        assert payload["requests"]["errors"] >= 1   # the 400s above
        for stage in ("queue_wait", "retrieve", "request"):
            window = payload["latency_ms"][stage]
            assert window["count"] >= 1
            assert window["p50_ms"] > 0
            assert window["p99_ms"] >= window["p50_ms"] > 0
            assert window["max_ms"] >= window["p99_ms"]
        assert payload["snapshot"]["swaps"] == 0
        assert payload["snapshot"]["retriever"] == "exact"
        assert payload["batcher"]["submitted"] >= 1


class TestCoalescingOverHTTP:
    def test_concurrent_requests_share_batches(self, gnmr, split):
        service = GatedService(gnmr, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0, max_batch=16,
                                          max_wait_ms=20.0,
                                          poll_interval_ms=60_000.0).start()
        try:
            service.gate.clear()
            results: dict[int, tuple[int, dict]] = {}

            def hit(user):
                results[user] = _get(server.port,
                                     f"/recommend?user={user}&k=5")

            threads = [threading.Thread(target=hit, args=(u,), daemon=True)
                       for u in range(8)]
            for t in threads:
                t.start()
            # every request is enqueued before the worker may execute
            _wait_until(lambda: server.batcher.stats()["submitted"] == 8)
            service.gate.set()
            for t in threads:
                t.join(timeout=30)
            assert sorted(results) == list(range(8))
            stats = server.batcher.stats()
            assert stats["batches"] < 8          # coalescing happened
            assert stats["largest_batch"] >= 2
            reference = {
                row["user"]: row["items"] for row in
                service.recommend(np.arange(8, dtype=np.int64),
                                  5).to_payload()}
            for user, (status, payload) in results.items():
                assert status == 200
                assert [r["item"] for r in payload["items"]] == \
                    [r["item"] for r in reference[user]]
        finally:
            service.gate.set()
            server.close()

    def test_full_queue_is_503(self, gnmr, split):
        service = GatedService(gnmr, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0, max_batch=1,
                                          max_queue=1,
                                          poll_interval_ms=60_000.0).start()
        try:
            service.gate.clear()
            first: list = []
            second: list = []
            t1 = threading.Thread(
                target=lambda: first.append(
                    _get(server.port, "/recommend?user=0&k=2")), daemon=True)
            t1.start()
            # the worker has dequeued request 1 and is pinned on the gate
            _wait_until(lambda: len(service.calls) >= 1)
            t2 = threading.Thread(
                target=lambda: second.append(
                    _get(server.port, "/recommend?user=1&k=2")), daemon=True)
            t2.start()
            # request 2 now fills the one queue slot
            _wait_until(lambda: server.batcher.stats()["submitted"] == 2)
            status, payload = _get(server.port, "/recommend?user=2&k=2")
            assert status == 503
            assert "queue full" in payload["error"]
            service.gate.set()
            t1.join(timeout=30)
            t2.join(timeout=30)
            assert first[0][0] == 200 and second[0][0] == 200
        finally:
            service.gate.set()
            server.close()

    def test_client_hang_up_is_not_a_traceback(self, gnmr, split, capfd):
        """The client resets its connection while its batch is pinned: the
        answer has nowhere to go, and that is not this server's error."""
        service = GatedService(gnmr, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=60_000.0).start()
        try:
            _wait_until(lambda: _handler_threads() == 0)
            service.gate.clear()
            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=5)
            sock.sendall(b"GET /recommend?user=0&k=2 HTTP/1.1\r\n"
                         b"Host: x\r\n\r\n")
            _wait_until(lambda: len(service.calls) >= 1)
            # linger 0: close() sends RST now instead of FIN after a drain
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            service.gate.set()
            _wait_until(lambda: _handler_threads() == 0)
            assert capfd.readouterr().err == ""
            assert _get(server.port, "/healthz")[0] == 200
        finally:
            service.gate.set()
            server.close()

    def test_stuck_batch_times_out_as_503(self, gnmr, split):
        service = GatedService(gnmr, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0,
                                          request_timeout_s=0.05,
                                          poll_interval_ms=60_000.0).start()
        try:
            service.gate.clear()
            status, payload = _get(server.port, "/recommend?user=0&k=2")
            assert status == 503
            assert "did not complete" in payload["error"]
        finally:
            service.gate.set()
            server.close()

    def test_request_answered_503_is_not_computed(self, gnmr, split,
                                                  monkeypatch):
        service = GatedService(gnmr, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=60_000.0).start()
        try:
            service.gate.clear()
            pinned = threading.Thread(
                target=_get, args=(server.port, "/recommend?user=0&k=2"),
                daemon=True)
            pinned.start()
            # the worker holds user 0's batch open on the gate
            _wait_until(lambda: len(service.calls) >= 1)
            monkeypatch.setattr(server, "request_timeout_s", 0.05)
            status, payload = _get(server.port, "/recommend?user=1&k=2")
            assert status == 503
            assert "did not complete" in payload["error"]
            monkeypatch.setattr(server, "request_timeout_s", 30.0)
            service.gate.set()
            pinned.join(timeout=30)
            # queued after user 1, so answered after its batch was drained
            assert _get(server.port, "/recommend?user=2&k=2")[0] == 200
            assert service.calls[0] == [0]
            assert all(1 not in call for call in service.calls)
            assert server.batcher.stats()["submitted"] == 3
        finally:
            service.gate.set()
            server.close()


# ----------------------------------------------------------------------
# hot snapshot swap
# ----------------------------------------------------------------------
class TestHotSwap:
    def _bump(self, model):
        model.user_embeddings.data += 0.25
        model.on_step_end()

    def test_check_freshness_swaps_once(self, split):
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=7))
        service = RecommendationService(model, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=60_000.0).start()
        try:
            assert server.check_freshness() is False
            old_retriever = service.retriever
            v0 = service.snapshot_version
            self._bump(model)
            assert server.check_freshness() is True
            assert service.snapshot_version == model.engine.version != v0
            # the retriever reference was flipped, not mutated in place
            assert service.retriever is not old_retriever
            status, payload = _get(server.port, "/stats")
            assert payload["snapshot"]["swaps"] == 1
            assert payload["snapshot"]["version"] == service.snapshot_version
        finally:
            server.close()

    def test_watcher_swaps_in_background(self, split):
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=8))
        service = RecommendationService(model, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=10.0).start()
        try:
            self._bump(model)
            _wait_until(lambda: service.snapshot_version
                        == model.engine.version)
            status, payload = _get(server.port, "/healthz")
            assert payload["snapshot_version"] == model.engine.version
        finally:
            server.close()

    def test_watcher_survives_swap_errors(self, split):
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=9))
        service = RecommendationService(model, train=split.train)
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=10.0).start()
        try:
            def boom():
                raise RuntimeError("induced swap failure")

            server.check_freshness = boom
            _wait_until(
                lambda: server.stats.snapshot()["snapshot"]["swap_errors"] >= 2)
            # still serving on the old snapshot
            assert _get(server.port, "/recommend?user=0&k=3")[0] == 200
        finally:
            server.close()

    def test_requests_racing_a_swap_stay_consistent(self, split):
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=10))
        service = RecommendationService(model, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0, max_wait_ms=1.0,
                                          poll_interval_ms=60_000.0).start()
        try:
            def table():
                return {row["user"]: [r["item"] for r in row["items"]]
                        for row in service.recommend(
                            np.arange(10, dtype=np.int64), 5).to_payload()}

            v0 = service.snapshot_version
            answers = {v0: table()}
            results: list[tuple[int, int, dict]] = []
            lock = threading.Lock()

            def storm(user):
                for _ in range(6):
                    status, payload = _get(server.port,
                                           f"/recommend?user={user}&k=5")
                    with lock:
                        results.append((user, status, payload))

            threads = [threading.Thread(target=storm, args=(u,), daemon=True)
                       for u in range(10)]
            for t in threads:
                t.start()
            self._bump(model)
            server.check_freshness()
            for t in threads:
                t.join(timeout=60)
            v1 = service.snapshot_version
            assert v1 != v0
            answers[v1] = table()
            assert answers[v0] != answers[v1]
            for user, status, payload in results:
                assert status == 200
                items = [r["item"] for r in payload["items"]]
                # every response is exactly the answer of the snapshot it
                # names — never a half-swapped hybrid, never one version's
                # label on the other's items
                assert items == answers[payload["snapshot_version"]][user], (
                    user, payload)
        finally:
            server.close()


    def test_mid_swap_every_surface_reports_the_serving_version(
            self, split, monkeypatch):
        """The next snapshot's index build is held open: until the pair is
        flipped, every surface names the old version beside the old
        tables' items; after it, the new beside the new."""
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=11))
        service = RecommendationService(
            model, train=split.train, k_default=5, retriever="ivf",
            ann={"nprobe": 2, "quant": "int8"})
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=60_000.0).start()
        building, release = threading.Event(), threading.Event()
        build_index = EmbeddingStore.ann_index

        def held_build(store, **config):
            building.set()
            assert release.wait(timeout=30)
            return build_index(store, **config)

        user, body = 3, json.dumps({"users": [3, 4], "k": 5}).encode()

        def items_of(result):
            return [[r["item"] for r in row["items"]]
                    for row in result.to_payload()]

        def surfaces():
            """(versions reported, items returned) by every surface."""
            health = _get(server.port, "/healthz")[1]
            stats = _get(server.port, "/stats")[1]
            warm = _get(server.port, f"/recommend?user={user}")[1]
            cold = _get(server.port, f"/recommend?user={user}&cold=1")[1]
            many = _post(server.port, "/recommend", body)[1]
            versions = {service.snapshot_version, health["snapshot_version"],
                        stats["snapshot"]["version"],
                        warm["snapshot_version"], cold["snapshot_version"],
                        many["snapshot_version"]}
            return versions, {
                "warm": [r["item"] for r in warm["items"]],
                "cold": [r["item"] for r in cold["items"]],
                "post": [[r["item"] for r in row["items"]]
                         for row in many["recommendations"]]}

        def expected(retriever):
            cold = service.cold_user_embeddings([user])
            return {"warm": items_of(retriever.retrieve([user], 5))[0],
                    "cold": items_of(retriever.retrieve([user], 5,
                                                        queries=cold))[0],
                    "post": items_of(retriever.retrieve([3, 4], 5))}

        try:
            v0, old_retriever = service.snapshot_version, service.retriever
            model.user_embeddings.data *= -1.0
            model.on_step_end()
            monkeypatch.setattr(EmbeddingStore, "ann_index", held_build)
            swapper = threading.Thread(target=server.check_freshness,
                                       daemon=True)
            swapper.start()
            assert building.wait(timeout=30)
            versions, items = surfaces()
            assert versions == {v0}
            assert items == expected(old_retriever)
            release.set()
            swapper.join(timeout=30)
            assert not swapper.is_alive()
            versions, items = surfaces()
            assert versions == {model.engine.version} != {v0}
            assert service.retriever is not old_retriever
            assert items == expected(service.retriever)
            assert items["warm"] != expected(old_retriever)["warm"]
        finally:
            release.set()
            server.close()


# ----------------------------------------------------------------------
# cold users
# ----------------------------------------------------------------------
class TestColdUsers:
    def test_gnmr_cold_embeddings_match_full_extraction(self, gnmr):
        users = np.array([0, 3, 17], dtype=np.int64)
        full, _ = gnmr.serving_embeddings()
        cold = gnmr.cold_user_embeddings(users)
        np.testing.assert_allclose(cold, full[users], rtol=1e-12, atol=1e-12)

    def test_ngcf_cold_embeddings_match_full_extraction(self, split):
        model = NGCF(split.train, embedding_dim=8, seed=3)
        users = np.array([1, 5], dtype=np.int64)
        full, _ = model.serving_embeddings()
        cold = model.cold_user_embeddings(users)
        np.testing.assert_allclose(cold, full[users], rtol=1e-12, atol=1e-12)

    def test_cold_ranking_matches_warm_when_fresh(self, gnmr, split):
        service = RecommendationService(gnmr, train=split.train, k_default=5)
        users = np.array([2, 8], dtype=np.int64)
        warm = service.recommend(users, 5)
        cold = service.recommend_cold(users, 5)
        np.testing.assert_array_equal(cold.items, warm.items)

    def test_cold_row_matches_next_snapshot(self, split):
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=12))
        service = RecommendationService(model, train=split.train)
        model.user_embeddings.data += 0.5
        model.on_step_end()
        # extracted against current parameters, before any reload...
        cold = service.cold_user_embeddings(np.array([4]))
        service.reload()
        # ...it equals that user's row in the snapshot taken afterwards
        np.testing.assert_allclose(cold[0], service.store.user_matrix[4],
                                   rtol=1e-6, atol=1e-6)

    def test_http_cold_flag(self, gnmr, split):
        service = RecommendationService(gnmr, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=60_000.0).start()
        try:
            status, payload = _get(server.port, "/recommend?user=6&cold=1")
            assert status == 200
            assert payload["cold"] is True
            assert len(payload["items"]) == 5
            direct = service.recommend_cold(np.array([6]), 5).to_payload()[0]
            assert payload["items"] == direct["items"]
            stats = _get(server.port, "/stats")[1]
            assert stats["requests"]["cold"] == 1
        finally:
            server.close()

    def test_brute_force_model_delegates(self, split):
        model = BiasMF(split.train.num_users, split.train.num_items, seed=0)
        service = RecommendationService(model, train=split.train, k_default=4)
        result = service.recommend_cold(np.array([0]), 4)
        np.testing.assert_array_equal(
            result.items, service.recommend(np.array([0]), 4).items)
        with pytest.raises(ValueError, match="no cold-user extraction"):
            service.cold_user_embeddings(np.array([0]))

    def test_factored_model_without_extractor_is_400(self, split):
        class TablesOnly:
            name = "tables-only"
            num_users, num_items = 6, 9

            def serving_embeddings(self):
                rng = np.random.default_rng(0)
                return (rng.standard_normal((6, 4)),
                        rng.standard_normal((9, 4)))

        service = RecommendationService(TablesOnly(), k_default=3)
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=60_000.0).start()
        try:
            status, payload = _get(server.port, "/recommend?user=0&cold=1")
            assert status == 400
            assert "no cold-user extraction" in payload["error"]
            with pytest.raises(ValueError):
                service.recommend_cold(np.array([0]), k=0)
        finally:
            server.close()


# ----------------------------------------------------------------------
# shutdown + concurrency regressions
# ----------------------------------------------------------------------
class TestShutdown:
    def test_close_stops_serving(self, gnmr, split):
        service = RecommendationService(gnmr, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=60_000.0).start()
        port = server.port
        assert _get(port, "/healthz")[0] == 200
        server.close()
        with pytest.raises(ConnectionRefusedError):
            _get(port, "/healthz")
        server.close()  # idempotent

    def test_close_without_start(self, gnmr, split):
        service = RecommendationService(gnmr, train=split.train)
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=60_000.0)
        server.close()

    def test_close_releases_the_service_by_refcount(self, gnmr, split):
        """The batcher calls the server's bound ``_retrieve``, a cycle
        through the server; after ``close()`` the service (its tables,
        index and mask) goes with its last reference, not at the next
        full collection. The collector stays off so only refcounts act."""
        gc.disable()
        try:
            service = RecommendationService(gnmr, train=split.train,
                                            k_default=5)
            server = RecommendationHTTPServer(service, port=0,
                                              poll_interval_ms=60_000.0).start()
            assert _get(server.port, "/recommend?user=7&k=4")[0] == 200
            body = json.dumps({"users": [3, 9], "k": 4}).encode()
            assert _post(server.port, "/recommend", body)[0] == 200
            server.close()
            alive = weakref.ref(service)
            del server, service
            # a handler thread may still be unwinding its last connection
            _wait_until(lambda: alive() is None, timeout=5.0)
        finally:
            gc.enable()


class TestReloadRace:
    def test_concurrent_reload_and_recommend(self, split):
        """Regression: two threads swapping snapshots (one reloading, one
        rolling back) while requests stream must never tear the
        snapshot/retriever pair."""
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=13))
        service = RecommendationService(model, train=split.train, k_default=5)
        errors: list[BaseException] = []
        stop = threading.Event()

        def recover():
            try:
                service.recover()
            except ValueError:
                pass  # the other thread has not archived anything yet

        def swapper(swap):
            try:
                while not stop.is_set():
                    swap()
            except BaseException as exc:
                errors.append(exc)

        def requester():
            try:
                while not stop.is_set():
                    result = service.recommend(np.array([0, 1, 2]), 5)
                    assert result.items.shape == (3, 5)
                    assert result.version == model.engine.version
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=swapper, args=(swap,),
                                    daemon=True)
                   for swap in (service.reload, recover)]
        threads += [threading.Thread(target=requester, daemon=True)
                    for _ in range(2)]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert service.retriever.exclude is service.exclusions
        assert service.retriever.backend is service.store.backend()
        assert service.recommend(np.array([0]), 5).items.shape == (1, 5)


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.max_batch == 32
        assert args.max_wait_ms == 2.0
        assert args.poll_interval_ms == 250.0
        assert args.retriever == "exact"

    def test_serve_roundtrip(self, tmp_path):
        checkpoint = tmp_path / "biasmf.npz"
        assert main(["train", "--model", "BiasMF", "--dataset", "taobao",
                     "--users", "25", "--items", "60", "--epochs", "1",
                     "--checkpoint", str(checkpoint)]) == 0
        ready_file = tmp_path / "ready.json"
        args = build_parser().parse_args(
            ["serve", "--checkpoint", str(checkpoint), "--port", "0",
             "--topk", "4", "--ready-file", str(ready_file)])
        args.stop_event = threading.Event()
        codes: list[int] = []
        thread = threading.Thread(target=lambda: codes.append(cmd_serve(args)),
                                  daemon=True)
        thread.start()
        try:
            _wait_until(ready_file.exists, timeout=60)
            ready = json.loads(ready_file.read_text())
            assert ready["serving"] is True
            assert ready["model"] == "BiasMF"
            assert ready["endpoints"] == ["/recommend", "/healthz", "/stats"]
            port = ready["port"]
            status, payload = _get(port, "/recommend?user=0")
            assert status == 200
            assert len(payload["items"]) == 4
        finally:
            args.stop_event.set()
            thread.join(timeout=60)
        assert codes == [0]
        with pytest.raises(ConnectionRefusedError):
            _get(ready["port"], "/healthz")
