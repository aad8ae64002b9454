"""HTTP serving-tier benchmarks: latency SLOs under concurrent load.

Measures the ``repro.serve.http`` tier end to end — real sockets, real
handler threads, the request-coalescing :class:`DynamicBatcher` in the
middle — with closed-loop clients (each holds one keep-alive connection
and fires its next request the moment the previous answer lands). Four
configurations over one synthetic factored catalog:

* ``exact_single`` — one client, ``max_batch=1``: the no-coalescing
  baseline every speedup is quoted against;
* ``exact_batched`` — ≥8 concurrent clients against the exact blocked
  retriever with coalescing on;
* ``ivf_int8_batched`` — the same client fleet against the approximate
  retriever (IVF inverted lists, int8 compressed-domain scoring);
* ``ivf_int8_one_client`` — one client against that retriever at the
  default dials: what a lone request pays the batcher.

The first two run interleaved, ``REPEATS`` times each, with library-direct
calls over batches of 1 and of ``BATCHED_CLIENTS`` users between them, and
each counts at its fastest, so a ratio's denominator is read next to its
numerator. Each configuration reports p50/p99/max request latency and sustained
users/sec, the batcher's coalescing counters and the server's own
``/stats`` queue-wait p50. Every response body is compared against a
library-direct ``RecommendationService.recommend`` call for the same
users — the HTTP tier must be a transport, not a different answer
(``bit_match``). Gated here — the script prints its payload, then one
PASS/FAIL line per floor, and exits 1 when one is missed: the batched
exact configuration runs ≥ ``CLIENTS_MIN`` clients and sustains
≥ ``EFFICIENCY_MIN``× the library's batched throughput, the lone client's
queue-wait p50 stays ≤ ``LONE_WAIT_MAX`` × ``max_wait_ms``, and every
configuration answers 200 every time with ``bit_match`` true.
``benchmarks/e2e`` drives two closed-loop clients — mostly batches of one
or two — so it reports ``recommend_users_per_s`` and never this ratio::

    PYTHONPATH=src python benchmarks/bench_http_serving.py [--out DIR]
"""

import json
import socket
import sys
import threading
import time

import numpy as np

from gate import main
from repro.serve import RecommendationService
from repro.serve.http import RecommendationHTTPServer

#: the coalescing batcher's reason to exist is the catalog scan amortized
#: across concurrent requesters, so it is measured under at least this
#: many closed-loop clients
CLIENTS_MIN = 8
#: and it can at most turn the fleet's requests into the library's own
#: batched call: the batched fleet must sustain this share of the
#: library-direct users/sec over batches of BATCHED_CLIENTS users (the
#: widest batch the fleet can form), both interleaved, fastest of 3. This
#: replaced a floor of 2x the single client, which the library itself
#: misses at this catalog (batch 16 / batch 1: 1.67-1.76x, 1.87-1.98x on
#: one BLAS thread). Fixed from the library numbers before the HTTP tier
#: was measured against it: a tier that never coalesces reads at most
#: batch 1 / batch 16 = 0.50-0.60 of it, a free transport 1.0
EFFICIENCY_MIN = 0.75
#: one client alone must not sit out the coalescing window: its median
#: queue wait stays under this share of ``max_wait_ms`` (a batcher that
#: holds every batch open reads ≈ 1.05)
LONE_WAIT_MAX = 0.25

TOP_K = 10
NUM_USERS = 8192
# the catalog must be big enough that the blocked scan (not per-request
# HTTP/JSON overhead) dominates — that scan is what coalescing amortizes:
# one batched GEMM over the ~200MB item matrix instead of one scan per
# requester
NUM_ITEMS = 400_000
DIM = 128
REQUEST_USERS = 256          # distinct users the clients cycle through
SINGLE_REQUESTS = 192        # exact_single request count
# 16 concurrent clients: the scan's per-user cost keeps dropping through
# batch 16 (1.7-2.0x over single-user; batch 8 only 1.0-1.2x), so the
# fleet is sized to let coalesced batches actually reach that width
BATCHED_CLIENTS = 16
REQUESTS_PER_CLIENT = 64     # per client in the batched configurations
REPEATS = 3                  # interleaved rounds: library, single, batched


class _FactoredTables:
    """A snapshot-able stand-in model: fixed serving tables, no training.

    Exposes exactly what :class:`~repro.serve.EmbeddingStore` needs
    (``serving_embeddings`` + user/item counts); having no ``engine``
    means the snapshot is never observably stale, so the benchmark
    measures steady-state serving with the freshness watcher idle.
    """

    name = "factored-tables"

    def __init__(self, num_users: int, num_items: int, dim: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self._user = rng.standard_normal((num_users, dim)).astype(np.float32)
        self._item = rng.standard_normal((num_items, dim)).astype(np.float32)

    def serving_embeddings(self):
        return self._user, self._item


def _percentile(ordered: list, q: float) -> float:
    index = max(0, min(len(ordered) - 1, int(np.ceil(q * len(ordered))) - 1))
    return ordered[index]


def _client_loop(host: str, port: int, users: list, k: int,
                 go: threading.Event, latencies: list, responses: list) -> None:
    """One closed-loop client: keep-alive connection, back-to-back requests.

    Hand-rolled over a raw socket rather than ``http.client``: every
    client thread shares the server's CPUs, so client-side parsing
    overhead directly suppresses the throughput being measured.
    """
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    reader = sock.makefile("rb")
    try:
        go.wait()
        for user in users:
            request = (f"GET /recommend?user={user}&k={k} HTTP/1.1\r\n"
                       f"Host: {host}\r\n\r\n").encode("ascii")
            start = time.perf_counter()
            sock.sendall(request)
            status = int(reader.readline().split()[1])
            length = 0
            while True:
                line = reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            body = reader.read(length)
            latencies.append(time.perf_counter() - start)
            responses.append((user, status, json.loads(body)))
    finally:
        reader.close()
        sock.close()


def library_references(service: RecommendationService,
                       k: int = TOP_K) -> tuple[dict, dict]:
    """Library-direct answers for every user the fleet could request.

    The HTTP tier must return byte-identical rankings and scores. Two
    reference shapes because BLAS accumulates a 1-row matmul (GEMV
    kernel) differently from the n-row GEMM: a response must bit-match
    the direct call of its batch arity — coalesced rows match the
    batched reference, singleton flushes match the single-user one.
    Either way the ranking is identical; the HTTP tier adds no third
    answer of its own.
    """
    multi = {row["user"]: row["items"]
             for row in service.recommend(
                 np.arange(REQUEST_USERS, dtype=np.int64), k).to_payload()}
    single = {user: service.recommend(
                  np.asarray([user], dtype=np.int64), k).to_payload()[0]["items"]
              for user in range(REQUEST_USERS)}
    return multi, single


def measure_http_config(service: RecommendationService,
                        references: tuple[dict, dict], *, clients: int,
                        requests_per_client: int, max_batch: int,
                        max_wait_ms: float, k: int = TOP_K) -> dict:
    """Drive one server configuration with a closed-loop client fleet."""
    server = RecommendationHTTPServer(service, port=0, max_batch=max_batch,
                                      max_wait_ms=max_wait_ms).start()
    go = threading.Event()
    latencies: list[list[float]] = [[] for _ in range(clients)]
    responses: list[list[tuple]] = [[] for _ in range(clients)]
    try:
        threads = []
        for i in range(clients):
            # disjoint user strides so the fleet covers the request pool
            users = [(i + j * clients) % REQUEST_USERS
                     for j in range(requests_per_client)]
            thread = threading.Thread(
                target=_client_loop,
                args=("127.0.0.1", server.port, users, k, go,
                      latencies[i], responses[i]),
                daemon=True)
            thread.start()
            threads.append(thread)
        started = time.perf_counter()
        go.set()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        stats = server.stats_payload()
    finally:
        server.close()

    ref_multi, ref_single = references
    total = clients * requests_per_client
    flat = [entry for per_client in responses for entry in per_client]
    errors = sum(1 for _, status, _ in flat if status != 200)
    bit_match = (len(flat) == total and errors == 0 and
                 all(payload["items"] in (ref_multi[user], ref_single[user])
                     for user, _, payload in flat))
    ordered = sorted(seconds for per_client in latencies for seconds in per_client)
    return {
        "clients": clients,
        "requests": total,
        "max_batch": max_batch,
        "max_wait_ms": max_wait_ms,
        "k": k,
        "errors": errors,
        "bit_match": bool(bit_match),
        "p50_ms": _percentile(ordered, 0.50) * 1000.0,
        "p99_ms": _percentile(ordered, 0.99) * 1000.0,
        "max_ms": ordered[-1] * 1000.0,
        "users_per_sec": total / wall,
        "wall_seconds": wall,
        "queue_wait_p50_ms": stats["latency_ms"]["queue_wait"]["p50_ms"],
        "batcher": {key: stats["batcher"][key]
                    for key in ("batches", "largest_batch", "mean_batch_size")},
    }


def measure_library(service: RecommendationService, batch: int,
                    users: int = SINGLE_REQUESTS, k: int = TOP_K) -> float:
    """Library-direct users/sec over batches of ``batch`` pool users."""
    pool = np.arange(REQUEST_USERS, dtype=np.int64)
    started = time.perf_counter()
    for first in range(0, users, batch):
        service.recommend(pool[np.arange(first, first + batch) % pool.size], k)
    return users / (time.perf_counter() - started)


def fastest(runs: list[dict]) -> dict:
    """The run with the highest users/sec, answerable for every run: its
    ``errors`` and ``requests`` are summed and ``bit_match`` holds only if
    it held in each, so a slower repeat cannot hide a wrong answer."""
    best = dict(max(runs, key=lambda run: run["users_per_sec"]))
    best["errors"] = sum(run["errors"] for run in runs)
    best["requests"] = sum(run["requests"] for run in runs)
    best["bit_match"] = all(run["bit_match"] for run in runs)
    best["runs"] = [{"users_per_sec": run["users_per_sec"],
                     "mean_batch_size": run["batcher"]["mean_batch_size"]}
                    for run in runs]
    return best


def measure() -> dict:
    """All four configurations over one synthetic factored catalog."""
    model = _FactoredTables(NUM_USERS, NUM_ITEMS, DIM, seed=0)
    exact_service = RecommendationService(model, k_default=TOP_K)
    payload: dict = {
        "workload": {
            "num_users": NUM_USERS,
            "num_items": NUM_ITEMS,
            "dim": DIM,
            "k": TOP_K,
            "request_users": REQUEST_USERS,
            "dtype": "float32",
        },
        "configs": {},
    }
    exact_refs = library_references(exact_service)
    runs: dict[str, list[dict]] = {"exact_single": [], "exact_batched": []}
    library: dict[int, list[float]] = {1: [], BATCHED_CLIENTS: []}
    for _ in range(REPEATS):
        for batch, samples in library.items():
            samples.append(measure_library(exact_service, batch))
        runs["exact_single"].append(measure_http_config(
            exact_service, exact_refs, clients=1,
            requests_per_client=SINGLE_REQUESTS, max_batch=1,
            max_wait_ms=0.0))
        runs["exact_batched"].append(measure_http_config(
            exact_service, exact_refs, clients=BATCHED_CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT, max_batch=32,
            max_wait_ms=2.0))
    for name, repeats in runs.items():
        payload["configs"][name] = fastest(repeats)
    ivf_service = RecommendationService(
        model, k_default=TOP_K, retriever="ivf",
        ann={"quant": "int8", "nprobe": 8})
    ivf_refs = library_references(ivf_service)
    payload["configs"]["ivf_int8_batched"] = measure_http_config(
        ivf_service, ivf_refs, clients=BATCHED_CLIENTS,
        requests_per_client=REQUESTS_PER_CLIENT, max_batch=32,
        max_wait_ms=2.0)
    # the server's default dials, one client: every batch is a batch of one
    payload["configs"]["ivf_int8_one_client"] = measure_http_config(
        ivf_service, ivf_refs, clients=1,
        requests_per_client=SINGLE_REQUESTS, max_batch=32, max_wait_ms=2.0)
    single = payload["configs"]["exact_single"]["users_per_sec"]
    batched = payload["configs"]["exact_batched"]["users_per_sec"]
    payload["library_users_per_sec"] = {
        f"batch_{batch}": {"fastest": max(samples), "runs": samples}
        for batch, samples in library.items()}
    library_batched = max(library[BATCHED_CLIENTS])
    payload["batched_speedup_vs_single"] = batched / single
    payload["library_speedup_vs_single"] = library_batched / max(library[1])
    payload["batched_efficiency"] = batched / library_batched
    return payload


def gate(payload: dict, gate) -> None:
    for name, config in payload["configs"].items():
        gate.check(f"http-{name}-non-200", config["errors"] == 0,
                   f"{config['errors']} of {config['requests']} responses "
                   f"(p50 {config['p50_ms']:.2f} ms / p99 "
                   f"{config['p99_ms']:.2f} ms at "
                   f"{config['users_per_sec']:,.0f} users/sec)")
        gate.check(f"http-{name}-bit-match", config["bit_match"],
                   "every body equals the library-direct call"
                   if config["bit_match"] else
                   "a body differs from the library-direct call")
    clients = payload["configs"]["exact_batched"]["clients"]
    gate.check("http-concurrency", clients >= CLIENTS_MIN,
               f"{clients} concurrent clients (floor {CLIENTS_MIN})")
    efficiency = payload["batched_efficiency"]
    gate.check("http-batched-efficiency", efficiency >= EFFICIENCY_MIN,
               f"{efficiency:.2f}x the library-direct batch-{BATCHED_CLIENTS} "
               f"throughput (floor {EFFICIENCY_MIN}x; "
               f"{payload['batched_speedup_vs_single']:.2f}x one client, where "
               f"the library reaches "
               f"{payload['library_speedup_vs_single']:.2f}x)")
    lone = payload["configs"]["ivf_int8_one_client"]
    ceiling = LONE_WAIT_MAX * lone["max_wait_ms"]
    gate.check("http-lone-request-wait", lone["queue_wait_p50_ms"] <= ceiling,
               f"one client's queue-wait p50 {lone['queue_wait_p50_ms']:.3f} ms "
               f"(ceiling {LONE_WAIT_MAX} x max_wait_ms = {ceiling:.2f} ms)")


if __name__ == "__main__":
    sys.exit(main("http_serving", measure, gate))
