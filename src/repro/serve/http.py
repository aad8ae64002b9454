"""The online serving tier: a long-running HTTP service with an SLO story.

Everything below ``repro.serve.http`` is a library; this module is the
process that holds a port. Three production mechanics live here, all
stdlib-only (``http.server`` / ``socketserver`` / ``threading`` — the
repo's no-deps stance extends to the serving tier):

* **Dynamic batching** — concurrent single-user ``GET /recommend``
  requests land in a bounded queue; a worker drains them and answers
  each batch with *one* blocked retrieval call (``TopKRetriever`` or
  ``ApproxRetriever``), fanning the rows back out per request. A batch
  closes once it is as large as the batch before it (or ``max_batch``),
  and at the latest ``max_wait_ms`` after its first request: a lone
  request after a lone request waits for nobody, a fleet keeps waiting
  for the co-riders it was just seen with. Retrieval cost is dominated
  by the catalog scan, which batching amortizes across requesters.
* **Hot snapshot swap** — a background thread polls
  ``service.refresh()``, which builds the next snapshot (and, for
  ``retriever="ivf"``, its IVF index) *off* the request path and then
  replaces the service's ``(store, retriever)`` pair in one assignment:
  in-flight requests finish on the old snapshot, the next batch sees the
  new one, no request ever waits on a rebuild, and every body reports
  the ``snapshot_version`` of the tables that produced its items.
* **Cold rows** — ``cold=1`` answers a user from rows computed on
  demand from the *current* parameters through single-seed layered
  extraction (``graph/layered.py``, ``fanout=None``) instead of the
  snapshot's row; see ``RecommendationService.recommend_cold``. A user id
  outside the model's user table is a 400.

Endpoints (all JSON): ``GET /recommend?user=U&k=K[&cold=1]``,
``POST /recommend`` with ``{"users": [...], "k": K}``, ``GET /healthz``,
``GET /stats`` (request counters + per-stage latency percentiles).
``repro.cli serve`` wires a checkpoint to this server; see
``docs/operations.md`` for the operator's guide.
"""

from __future__ import annotations

import collections
import json
import threading
import time
import queue as queue_mod
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.serve.store import SnapshotIntegrityError


class ServerBusy(RuntimeError):
    """The batcher's bounded queue is full — shed load (HTTP 503)."""


_SHUTDOWN = object()  # queue sentinel that stops the batcher worker

#: largest ``POST /recommend`` body the handler will read (1 MiB holds a
#: batch of ~100k user ids; a larger declared length is refused unread)
MAX_BODY_BYTES = 1 << 20

#: socket timeout of a handler thread: a client that stalls mid-request
#: (or idles a keep-alive connection) is answered 408 or hung up on after
#: this long instead of holding the thread for as long as it stays
READ_TIMEOUT_S = 30.0

#: largest ``k`` a request may ask for; beyond it the body would be the
#: whole catalogue per user
MAX_K = 1000


class _Pending:
    """One in-flight request: a single-waiter future the batcher resolves."""

    __slots__ = ("user", "k", "enqueued_at", "dequeued_at", "abandoned",
                 "_done", "_value", "_error")

    def __init__(self, user: int, k: int):
        self.user = int(user)
        self.k = int(k)
        self.enqueued_at = time.monotonic()
        self.dequeued_at: float | None = None
        #: set by a waiter that gave up (already answered 503): a batch
        #: that has not run yet leaves this request out
        self.abandoned = False
        self._done = threading.Event()
        self._value = None
        self._error: BaseException | None = None

    def _finish(self, value) -> None:
        self._value = value
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def result(self, timeout: float | None = None):
        """Block until the batch containing this request executed."""
        if not self._done.wait(timeout):
            raise TimeoutError("request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def queue_wait_s(self) -> float | None:
        """Seconds spent queued before the worker picked the request up."""
        if self.dequeued_at is None:
            return None
        return self.dequeued_at - self.enqueued_at


class DynamicBatcher:
    """Request-coalescing dynamic batcher over a batched scoring function.

    ``fn(users, k)`` must return one result row per user, in order; the
    batcher merges concurrent ``submit`` calls into as few ``fn`` calls
    as the two dials allow. The worker remembers the size of the batch
    it flushed last (``max_batch`` before the first) and closes the next
    batch at the first of:

    * the batch is as large as the last one — then whatever is already
      queued still joins it, without waiting for more;
    * the batch holds ``max_batch`` requests (throughput dial: bigger
      batches amortize the catalog scan);
    * ``max_wait_ms`` has passed since its *first* request was picked up
      (latency dial: the most any request waits for co-riders).

    So a lone request after a lone batch is answered at once, while a
    fleet whose requests arrived together keeps waiting for the company
    it was just seen with; ``max_wait_ms`` is paid only by a batch that
    falls short of the one before it.

    Requests with different ``k`` coalesce into the same drain cycle but
    execute as one ``fn`` call per distinct ``k``; a request whose waiter
    gave up (``abandoned``) before its batch ran is left out of it. The
    queue is bounded (``max_queue``); an overfull queue raises
    :class:`ServerBusy` at ``submit`` — load shedding beats unbounded
    latency.

    The coalescing contract, observable because ``autostart=False``
    delays the worker until requests are already queued:

    >>> batcher = DynamicBatcher(lambda users, k: [(u, k) for u in users],
    ...                          max_batch=4, max_wait_ms=40.0,
    ...                          autostart=False)
    >>> pending = [batcher.submit(user, k=2) for user in (4, 7, 9)]
    >>> batcher.start()
    >>> [p.result(timeout=5.0) for p in pending]   # one fn call served all
    [(4, 2), (7, 2), (9, 2)]
    >>> stats = batcher.stats()
    >>> (stats["submitted"], stats["batches"], stats["largest_batch"])
    (3, 1, 3)
    >>> batcher.close()
    """

    def __init__(self, fn, *, max_batch: int = 32, max_wait_ms: float = 2.0,
                 max_queue: int = 1024, autostart: bool = True):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        self._fn = fn
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self._queue: queue_mod.Queue = queue_mod.Queue(maxsize=int(max_queue))
        self._lock = threading.Lock()
        self._submitted = 0
        self._batches = 0
        self._executed = 0
        self._largest = 0
        self._worker: threading.Thread | None = None
        self._closed = False
        if autostart:
            self.start()

    def start(self) -> None:
        """Start the drain worker (idempotent)."""
        with self._lock:
            if self._worker is None and not self._closed:
                self._worker = threading.Thread(
                    target=self._run, name="dynamic-batcher", daemon=True)
                self._worker.start()

    def submit(self, user: int, k: int) -> _Pending:
        """Enqueue one request; returns its future-like handle."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        pending = _Pending(user, k)
        try:
            self._queue.put_nowait(pending)
        except queue_mod.Full:
            raise ServerBusy(
                f"request queue full ({self._queue.maxsize} pending)") from None
        with self._lock:
            self._submitted += 1
        return pending

    # ------------------------------------------------------------------
    def _run(self) -> None:
        target = self.max_batch  # size of the last flushed batch
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            batch = [first]
            deadline = time.monotonic() + self.max_wait_ms / 1000.0
            while len(batch) < self.max_batch:
                try:
                    if len(batch) >= target:  # drain, do not wait
                        item = self._queue.get_nowait()
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        item = self._queue.get(timeout=remaining)
                except queue_mod.Empty:
                    break
                if item is _SHUTDOWN:
                    self._flush(batch)
                    return
                batch.append(item)
            target = len(batch)
            self._flush(batch)

    def _flush(self, batch: list[_Pending]) -> None:
        now = time.monotonic()
        groups: dict[int, list[_Pending]] = {}
        for pending in batch:
            pending.dequeued_at = now
            if not pending.abandoned:
                groups.setdefault(pending.k, []).append(pending)
        for k, group in groups.items():
            try:
                rows = list(self._fn([p.user for p in group], k))
            except BaseException as exc:  # propagate to every waiter
                for pending in group:
                    pending._fail(exc)
                continue
            if len(rows) != len(group):
                error = RuntimeError(
                    f"batch fn returned {len(rows)} rows for "
                    f"{len(group)} requests")
                for pending in group:
                    pending._fail(error)
                continue
            for pending, row in zip(group, rows):
                pending._finish(row)
        with self._lock:
            self._batches += len(groups)
            self._executed += sum(len(g) for g in groups.values())
            self._largest = max([self._largest,
                                 *(len(g) for g in groups.values())])

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Coalescing counters: submitted / batches / batch-size shape."""
        with self._lock:
            batches = self._batches
            return {
                "submitted": self._submitted,
                "batches": batches,
                "largest_batch": self._largest,
                "mean_batch_size": (self._executed / batches) if batches else 0.0,
                "max_batch": self.max_batch,
                "max_wait_ms": self.max_wait_ms,
            }

    def close(self) -> None:
        """Stop the worker and fail anything still queued (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
        error = RuntimeError("batcher closed before the request ran")
        if worker is not None:
            # a blocking put could deadlock against a full queue whose
            # worker is wedged — make room ourselves instead of waiting
            while True:
                try:
                    self._queue.put_nowait(_SHUTDOWN)
                    break
                except queue_mod.Full:
                    try:
                        leftover = self._queue.get_nowait()
                    except queue_mod.Empty:
                        continue
                    if leftover is not _SHUTDOWN:
                        leftover._fail(error)
            worker.join(timeout=10.0)
        while True:  # drain anything the worker never reached
            try:
                leftover = self._queue.get_nowait()
            except queue_mod.Empty:
                return
            if leftover is not _SHUTDOWN:
                leftover._fail(error)


class LatencyWindow:
    """Bounded sliding window of latencies with percentile readout.

    A deque of the last ``maxlen`` observations — O(1) to record on the
    hot path, sorted only when ``/stats`` asks. Small enough to never
    matter for memory, recent enough that percentiles track the current
    load, not the process's entire history.
    """

    def __init__(self, maxlen: int = 2048):
        self._values: collections.deque = collections.deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._count = 0

    def record(self, seconds: float) -> None:
        with self._lock:
            self._values.append(seconds)
            self._count += 1

    @staticmethod
    def _percentile(ordered: list[float], q: float) -> float:
        index = max(0, min(len(ordered) - 1,
                           int(np.ceil(q * len(ordered))) - 1))
        return ordered[index]

    def snapshot(self) -> dict:
        """``{count, p50_ms, p99_ms, max_ms}`` (None percentiles if empty)."""
        with self._lock:
            values = sorted(self._values)
            count = self._count
        if not values:
            return {"count": count, "p50_ms": None, "p99_ms": None,
                    "max_ms": None}
        return {
            "count": count,
            "p50_ms": self._percentile(values, 0.50) * 1000.0,
            "p99_ms": self._percentile(values, 0.99) * 1000.0,
            "max_ms": values[-1] * 1000.0,
        }


class ServingStats:
    """Thread-safe counters + per-stage latency windows behind ``/stats``.

    Stages: ``queue_wait`` (batcher queue time), ``retrieve`` (the
    batched retrieval call), ``request`` (wall time of the whole HTTP
    request, as the handler sees it).
    """

    STAGES = ("queue_wait", "retrieve", "request")

    def __init__(self):
        self._lock = threading.Lock()
        self.started_at = time.monotonic()
        self._counters = {"total": 0, "recommend": 0, "recommend_batch": 0,
                          "cold": 0, "errors": 0}
        self._swaps = 0
        self._swap_errors = 0
        self._rollbacks = 0
        self._windows = {stage: LatencyWindow() for stage in self.STAGES}

    def record_request(self, route: str) -> None:
        with self._lock:
            self._counters["total"] += 1
            self._counters[route] += 1

    def record_error(self) -> None:
        with self._lock:
            self._counters["errors"] += 1

    def record_swap(self) -> None:
        with self._lock:
            self._swaps += 1

    def record_swap_error(self) -> None:
        with self._lock:
            self._swap_errors += 1

    def record_rollback(self) -> None:
        with self._lock:
            self._rollbacks += 1

    def record_latency(self, stage: str, seconds: float | None) -> None:
        if seconds is not None:
            self._windows[stage].record(seconds)

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_at

    def snapshot(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            swaps, swap_errors = self._swaps, self._swap_errors
            rollbacks = self._rollbacks
        return {
            "uptime_s": self.uptime_s,
            "requests": counters,
            "latency_ms": {stage: window.snapshot()
                           for stage, window in self._windows.items()},
            "snapshot": {"swaps": swaps, "swap_errors": swap_errors,
                         "rollbacks": rollbacks},
        }


class RecommendationHTTPServer(ThreadingHTTPServer):
    """The serving-tier process: batcher + freshness watcher + endpoints.

    Parameters
    ----------
    service:
        A :class:`~repro.serve.RecommendationService`. Keeping it fresh
        is this server's job: a background thread calls its ``refresh()``
        so no request pays for a rebuild.
    host, port:
        Bind address (``port=0`` picks a free port; read it back from
        ``server.port``).
    max_batch, max_wait_ms, max_queue:
        :class:`DynamicBatcher` dials.
    poll_interval_ms:
        Freshness-check period of the snapshot watcher thread.
    request_timeout_s:
        How long a handler waits on its batch before answering 503; a
        request given up on this way is not computed if its batch has
        not run yet.
    quiet:
        Suppress the per-request stderr log lines (default).

    Typical embedding (the CLI does exactly this)::

        server = RecommendationHTTPServer(service, port=8080).start()
        ...                      # serve_forever runs on a daemon thread
        server.close()           # stop watcher, batcher, and socket
    """

    daemon_threads = True
    # a fleet of clients connecting at once must not overflow the accept
    # backlog (the default of 5 drops SYNs, costing retransmit seconds)
    request_queue_size = 128

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0, *,
                 max_batch: int = 32, max_wait_ms: float = 2.0,
                 max_queue: int = 1024, poll_interval_ms: float = 250.0,
                 request_timeout_s: float = 30.0, quiet: bool = True):
        super().__init__((host, port), _RequestHandler)
        self.service = service
        self.quiet = quiet
        self.request_timeout_s = float(request_timeout_s)
        self.poll_interval_s = float(poll_interval_ms) / 1000.0
        self.stats = ServingStats()
        self.batcher = DynamicBatcher(self._retrieve,
                                      max_batch=max_batch,
                                      max_wait_ms=max_wait_ms,
                                      max_queue=max_queue)
        self._stop = threading.Event()
        self._closed = False
        self._serve_thread: threading.Thread | None = None
        self._watcher = threading.Thread(target=self._watch_freshness,
                                         name="snapshot-watcher", daemon=True)
        self._watcher.start()

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> "RecommendationHTTPServer":
        """Run ``serve_forever`` on a daemon thread; returns self."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="http-serve", daemon=True)
            self._serve_thread.start()
        return self

    def close(self) -> None:
        """Clean shutdown: watcher, accept loop, batcher, socket."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._watcher.join(timeout=10.0)
        if self._serve_thread is not None:
            self.shutdown()
            self._serve_thread.join(timeout=10.0)
        self.batcher.close()
        self.server_close()

    # ------------------------------------------------------------------
    # snapshot freshness (runs off the request path)
    # ------------------------------------------------------------------
    def check_freshness(self) -> bool:
        """One freshness poll: hot-swap the snapshot if the model moved.

        ``service.refresh()`` builds the next store, retriever and IVF
        index and then replaces the served pair in one assignment —
        requests that already read the old pair finish on the old
        snapshot. Returns whether a swap happened.

        A swap that finds the served tables failing integrity
        verification (mutated in place) is *rejected*: the error is
        counted in ``swap_errors``, the service rolls back to the newest
        archived good snapshot (counted in ``rollbacks``), and requests
        keep bit-matching the last good tables — ``/healthz`` never goes
        red over a bad swap.
        """
        try:
            swapped = self.service.refresh()
        except SnapshotIntegrityError:
            self.stats.record_swap_error()
            try:
                self.service.recover()
                self.stats.record_rollback()
            except ValueError:
                pass  # nothing archived yet — current tables stay up
            return False
        if swapped:
            self.stats.record_swap()
        return swapped

    def _watch_freshness(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            try:
                self.check_freshness()
            except Exception:
                # keep serving the old snapshot; surfaced in /stats
                self.stats.record_swap_error()

    # ------------------------------------------------------------------
    # request execution (called from handler threads / the batcher)
    # ------------------------------------------------------------------
    def _retrieve(self, users: list[int], k: int,
                  cold: bool = False) -> list[tuple[dict, int | None]]:
        """Ask the service once, timed as ``retrieve``: per user, the row
        and the version of the tables that produced it — the service
        stamps each result from the one ``(store, retriever)`` pair it
        retrieved with, so a body's ``snapshot_version`` cannot belong to
        another snapshot's items, mid-swap included."""
        started = time.monotonic()
        ask = self.service.recommend_cold if cold else self.service.recommend
        result = ask(np.asarray(users, dtype=np.int64), k)
        self.stats.record_latency("retrieve", time.monotonic() - started)
        return [(row, result.version) for row in result.to_payload()]

    def recommend_one(self, user: int, k: int, cold: bool = False) -> dict:
        """One user's recommendations — batched warm path or cold path."""
        if cold:
            self.stats.record_request("cold")
            row, version = self._retrieve([user], k, cold=True)[0]
        else:
            self.stats.record_request("recommend")
            pending = self.batcher.submit(user, k)
            try:
                row, version = pending.result(timeout=self.request_timeout_s)
            except TimeoutError:
                pending.abandoned = True  # answered 503: not worth computing
                raise
            self.stats.record_latency("queue_wait", pending.queue_wait_s)
        return {"user": int(user), "k": int(k), "cold": bool(cold),
                "snapshot_version": version, "items": row["items"]}

    def recommend_many(self, users: list[int], k: int) -> dict:
        """An already-batched request — skips the coalescing queue."""
        self.stats.record_request("recommend_batch")
        rows = self._retrieve(users, k)
        return {"k": int(k), "snapshot_version": rows[0][1],
                "recommendations": [row for row, _ in rows]}

    # ------------------------------------------------------------------
    # endpoint payloads
    # ------------------------------------------------------------------
    def health_payload(self) -> dict:
        return {"status": "ok",
                "snapshot_version": self.service.snapshot_version,
                "retriever": self.service.retriever_kind,
                "uptime_s": self.stats.uptime_s}

    def stats_payload(self) -> dict:
        payload = self.stats.snapshot()
        payload["batcher"] = self.batcher.stats()
        payload["snapshot"]["version"] = self.service.snapshot_version
        payload["snapshot"]["retriever"] = self.service.retriever_kind
        return payload


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes ``/recommend`` / ``/healthz`` / ``/stats`` to the server."""

    server: RecommendationHTTPServer
    # keep-alive: closed-loop clients reuse one connection per thread,
    # so connection setup never shows up in the measured latency
    protocol_version = "HTTP/1.1"
    # without TCP_NODELAY, Nagle + delayed ACK holds small JSON responses
    # hostage for ~40ms — an order of magnitude over the retrieval itself
    disable_nagle_algorithm = True

    def setup(self) -> None:
        # ``StreamRequestHandler`` makes this the socket timeout; a request
        # line that stalls past it makes the stdlib drop the connection
        self.timeout = READ_TIMEOUT_S
        super().setup()

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            # the client hung up mid-request or before its answer: nobody
            # to tell, and not an error of this server's to print a
            # traceback for; ``finish`` closes the connection
            pass

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    # ------------------------------------------------------------------
    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        if status >= 400:
            self.server.stats.record_error()
        # the timeout is for reads; writes block as they always did. Under
        # it the headers-then-body pair of sends cost ``POST`` answers ~5%
        # and on some connections a 20-40 ms stall each (the body waiting
        # on the client's delayed ACK)
        self.connection.settimeout(None)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        finally:
            self.connection.settimeout(self.timeout)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        started = time.monotonic()
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._send(200, self.server.health_payload())
        elif parsed.path == "/stats":
            self._send(200, self.server.stats_payload())
        elif parsed.path == "/recommend":
            self._recommend_single(parsed.query, started)
        else:
            self._send(404, {"error": f"unknown path {parsed.path!r}"})

    def _recommend_single(self, query: str, started: float) -> None:
        params = parse_qs(query)
        try:
            user = int(params["user"][0])
            k = int(params.get("k", [self.server.service.k_default])[0])
            cold = params.get("cold", ["0"])[0] not in ("0", "", "false")
        except (KeyError, ValueError, IndexError):
            self._send(400, {"error": "expected integer query parameters "
                                      "'user' and optional 'k', 'cold'"})
            return
        if not 0 <= user < self.server.service.model.num_users:
            self._send(400, {"error": f"user {user} out of range"})
            return
        if not 0 < k <= MAX_K:
            self._send(400, {"error": f"k must be in [1, {MAX_K}]"})
            return
        try:
            payload = self.server.recommend_one(user, k, cold=cold)
        except ServerBusy as exc:
            self._send(503, {"error": str(exc)})
            return
        except TimeoutError as exc:
            self._send(503, {"error": str(exc)})
            return
        except ValueError as exc:  # e.g. model without a cold-user path
            self._send(400, {"error": str(exc)})
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._send(200, payload)
        self.server.stats.record_latency("request", time.monotonic() - started)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        started = time.monotonic()
        parsed = urlparse(self.path)
        if parsed.path != "/recommend":
            self._send(404, {"error": f"unknown path {parsed.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # the body stays unread (a negative length would read to EOF
            # and hold the handler thread), so the connection cannot be
            # reused for a next request
            self.close_connection = True
            if length < 0:
                self._send(400, {"error": "Content-Length must be a "
                                          "non-negative integer"})
            else:
                self._send(413, {"error": f"body of {length} bytes exceeds "
                                          f"{MAX_BODY_BYTES}"})
            return
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raw = b""
        if len(raw) < length:
            # the rest may still arrive and would be parsed as the next
            # request line, so the connection cannot be reused
            self.close_connection = True
            self._send(408, {"error": f"body did not reach the {length} "
                                      "bytes Content-Length declared"})
            return
        try:
            body = json.loads(raw or b"{}")
            users = body["users"]
            k = body.get("k", self.server.service.k_default)
            # ids are JSON integers: int() would also take "12" apart into
            # users 1 and 2, and truncate true, 1.9 and "k": 2.7
            if (not isinstance(users, list) or type(k) is not int
                    or any(type(user) is not int for user in users)):
                raise TypeError("users and k must be JSON integers")
        except (KeyError, TypeError, ValueError, RecursionError):
            self._send(400, {"error": "expected JSON body "
                                      '{"users": [...], "k": int}'})
            return
        num_users = self.server.service.model.num_users
        if not users or any(not 0 <= u < num_users for u in users):
            self._send(400, {"error": "users must be a non-empty list of "
                                      f"ids in [0, {num_users})"})
            return
        if not 0 < k <= MAX_K:
            self._send(400, {"error": f"k must be in [1, {MAX_K}]"})
            return
        try:
            payload = self.server.recommend_many(users, k)
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._send(200, payload)
        self.server.stats.record_latency("request", time.monotonic() - started)
