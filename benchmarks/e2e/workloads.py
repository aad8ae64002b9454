"""The three workloads, and the pipeline every one of them runs.

A workload is one event log → served recommendation run: a log on disk is
ingested, saved and reloaded as an artifact, split by time, trained on
(GNMR, 2 layers, float32, async sampled pipeline), evaluated, checkpointed,
loaded into a fresh model, snapshotted behind ``RecommendationService`` and
``RecommendationHTTPServer``, and finally queried over real sockets. All
three run every stage — the driver wants every metric from every workload —
and differ in the *shape* of the log and the serving set-up, chosen so
that a different layer carries the run (``BENCHMARK.json`` says why each
one exists).

This file is also the workload's process: ``run.py`` generates the inputs,
then starts ``python workloads.py <spec.json>`` so that ``peak_rss_mb`` is
the pipeline's own high-water mark, not the generator's. The program under
test sees only the generated files; nothing under ``src/`` is modified or
instrumented — each layer is timed from outside, around its public calls.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import loadgen
from loadgen import LogShape, Request, Sample
from trace import Tracer, span_cost_seconds

TMALL = (("click", 36.0), ("fav", 5.0), ("cart", 6.0), ("buy", 3.5))

#: below this many optimizer steps the quality floors are reported, not
#: enforced (``--scale 0.02`` smoke runs train for 10 steps)
QUALITY_MIN_STEPS = 30
#: spans may cost the traced training loop at most this share of its time
TRACE_OVERHEAD_LIMIT = 0.05

STEPS_PER_EPOCH = 10
#: 15× the paper's 1e-3: HR@10 levels off within 60 steps instead of still
#: climbing at 100, so it spreads 3-8% across seeds instead of 8-15%
LEARNING_RATE = 1.5e-2
FANOUT = (10, 5)
CLIENTS = 2               # nproc is 2: one process, two connections
TOP_K = 10

#: shares of ``--seconds`` given to each traffic phase
CLOSED_SHARE, OPEN_SHARE = 0.10, 0.15
ONE_CLIENT_SHARE, POST_SHARE = 0.05, 0.05     # traced run only
#: each traffic phase is cut into windows and its fastest window is
#: reported (see ``fastest`` below for why)
CLOSED_WINDOWS, OPEN_WINDOWS = 4, 6


@dataclass(frozen=True)
class Workload:
    name: str
    log: LogShape
    target: str
    train_steps: int
    eval_users: int
    retriever: str            # "ivf" (int8, nprobe 4) or "exact"
    open_rate: float          # open-loop requests per second
    slo_ms: float
    #: lowest ``hr_at_10`` / ``serve_recall_at_10`` a run may report: both
    #: repeat per seed (recall to 1e-4), so a run below its floor is a failed
    #: check. Set 0.05 under the lowest value among the 50 (recall: 30)
    #: seeds measured at this commit (README, *Quality floors*), and never
    #: below 0.20 for ``hr_floor``, twice what the untrained model scores
    #: (it ranks the held-out positive uniformly among 100 candidates:
    #: 0.10, measured 0.109–0.111). The exact retriever's recall is 1 up
    #: to float32 ties at rank 10
    hr_floor: float
    recall_floor: float
    #: items the served catalogue holds; the log touches fewer, the rest
    #: are cold items (0 = serve exactly the items of the log)
    catalogue_items: int = 0
    rating_mode: bool = False
    bad_share: float = 0.0
    post_share: float = 0.0
    wide_share: float = 0.0

    def at_scale(self, scale: float) -> "Workload":
        """Sizes × ``scale``: users, items, steps and evaluated users."""
        steps = max(int(self.train_steps * scale) // STEPS_PER_EPOCH, 1)
        return replace(self, log=self.log.scaled(scale),
                       train_steps=steps * STEPS_PER_EPOCH,
                       eval_users=max(int(self.eval_users * scale), 200),
                       catalogue_items=int(self.catalogue_items * scale))


def _per_user(table, factor):
    return tuple((name, mean * factor) for name, mean in table)


WORKLOADS = (
    Workload(
        name="ingest-logs",
        log=LogShape(4_000, 6_000,
                     (("dislike", 8.0), ("neutral", 10.0), ("like", 20.0)),
                     skew=1.2),
        target="like", train_steps=60, eval_users=4_000, retriever="ivf",
        open_rate=300.0, slo_ms=10.0, hr_floor=0.50, recall_floor=0.85,
        rating_mode=True, bad_share=0.005, post_share=0.05, wide_share=0.10),
    Workload(
        name="train-async-large",
        log=LogShape(5_000, 8_000, _per_user(TMALL, 2.4), skew=1.2),
        target="buy", train_steps=60, eval_users=4_000, retriever="ivf",
        open_rate=300.0, slo_ms=10.0, hr_floor=0.59, recall_floor=0.87),
    Workload(
        name="serve-exact-large",
        log=LogShape(6_000, 150_000, _per_user(TMALL, 1.2), skew=0.8),
        target="buy", train_steps=60, eval_users=4_000, retriever="exact",
        open_rate=150.0, slo_ms=50.0, hr_floor=0.22, recall_floor=0.999,
        catalogue_items=200_000),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ----------------------------------------------------------------------
# inputs (run by the parent, timed as ``setup_s``)
# ----------------------------------------------------------------------

def generate_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's log; returns what a correct ingest reports."""
    log = loadgen.draw_events(workload.log, seed)
    if workload.rating_mode:
        path = directory / "ratings.csv"
        expected = loadgen.write_rating_csv(log, path, workload.bad_share, seed)
    else:
        path = directory / "events.csv"
        expected = loadgen.write_behavior_csv(log, path)
    return {"csv": str(path), "expected": expected}


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

class Checks:
    """Operations attempted and failed; a failure also keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)


def _same_dataset(a, b) -> bool:
    return (a.behavior_names == b.behavior_names
            and (a.num_users, a.num_items) == (b.num_users, b.num_items)
            and all(np.array_equal(x, y)
                    for behavior in a.behavior_names
                    for x, y in zip(a.arrays(behavior), b.arrays(behavior))))


def _same_state(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key])
        for key in a)


class References:
    """Library-direct answers the HTTP bodies must equal.

    BLAS accumulates a one-row product (GEMV) differently from a several-
    row one (GEMM), so a coalesced ``GET`` must equal the direct call of
    its batch arity: the single-user call or the user's row of a batched
    call (the rule of ``benchmarks/bench_http_serving.py``). A ``POST``
    skips the batcher and must equal the same call made directly.
    """

    def __init__(self, service):
        self._service = service
        self._single: dict[tuple[int, int], list] = {}
        self._batched: dict[tuple[int, int], list] = {}

    def prepare(self, samples: list[Sample]) -> None:
        """One batched call per ``k`` over the users not yet covered."""
        by_k: dict[int, set[int]] = {}
        for sample in samples:
            if not sample.request.is_post:
                key = (sample.request.users[0], sample.request.k)
                if key not in self._batched:
                    by_k.setdefault(sample.request.k, set()).add(key[0])
        for k, users in by_k.items():
            ordered = sorted(users)
            # retrievers score a long batch in row chunks; one extra row
            # keeps the last user out of a one-row chunk, which would be
            # a GEMV again. The extra row's own answer is dropped
            ordered.append(ordered[0])
            rows = self._service.recommend(
                np.asarray(ordered, dtype=np.int64), k).to_payload()
            for row in rows[:-1]:
                self._batched[(row["user"], k)] = row["items"]

    def single(self, user: int, k: int) -> list:
        key = (user, k)
        if key not in self._single:
            self._single[key] = self._service.recommend(
                np.asarray([user], dtype=np.int64), k).to_payload()[0]["items"]
        return self._single[key]

    def matches(self, sample: Sample, payload: dict | None) -> bool:
        if sample.status != 200:
            return False
        request = sample.request
        if request.is_post:
            direct = self._service.recommend(
                np.asarray(request.users, dtype=np.int64), request.k)
            return payload["recommendations"] == direct.to_payload()
        user = request.users[0]
        items = payload["items"]
        return (items == self._batched[(user, request.k)]
                or items == self.single(user, request.k))


# ----------------------------------------------------------------------
# training: Trainer for the end-to-end number, a mirrored loop for spans
# ----------------------------------------------------------------------

def _train_config(workload: Workload, seed: int):
    from repro.train import TrainConfig

    return TrainConfig(
        epochs=workload.train_steps // STEPS_PER_EPOCH,
        steps_per_epoch=STEPS_PER_EPOCH, batch_users=32, per_user=4,
        lr=LEARNING_RATE, propagation="async", fanout=FANOUT, workers=1,
        dtype="float32", seed=seed)


def _new_model(train, seed: int):
    from repro.core import GNMR, GNMRConfig

    return GNMR(train, GNMRConfig(num_layers=2, dtype="float32",
                                  fanout=FANOUT, pretrain=False, seed=seed))


class WideCatalogue:
    """The trained model in front of a catalogue wider than its log.

    A log touches part of a catalogue; the rest are cold items. Here each
    cold item is a damped copy of a seen one (``source`` row × ``damping``),
    appended to the trained item table, so that the exact retriever scans
    ``catalogue_items`` rows and the scan, not the HTTP tier, carries a
    request. Stands in for the model the way ``_FactoredTables`` of
    ``benchmarks/bench_http_serving.py`` does: ``EmbeddingStore`` asks for
    ``serving_embeddings`` and the counts, and a model without an
    ``engine`` is never stale.
    """

    name = "wide-catalogue"

    def __init__(self, model, source: np.ndarray, damping: np.ndarray):
        self.model = model
        self.source = source
        self.damping = damping
        self.num_users = model.num_users
        self.num_items = model.num_items + source.size

    def serving_embeddings(self):
        user, item = self.model.serving_embeddings()
        return user, np.concatenate([item, item[self.source] * self.damping])


def _widened(train, num_items: int):
    """``train`` over ``num_items`` items: the exclusion mask's width."""
    from repro.data import InteractionDataset

    return InteractionDataset(
        train.name, train.num_users, num_items, train.behavior_names,
        train.target_behavior,
        {name: dict(zip(("users", "items", "timestamps"), train.arrays(name)))
         for name in train.behavior_names})


def traced_fit(model, train, cfg, tracer: Tracer) -> tuple[list[float], list[int]]:
    """``Trainer._epoch_loop`` for async/Adam, with a span per step part.

    Same pipeline, same seeds, same order of operations: scores → loss →
    zero_grad → backward → step → ``on_step_end``, per-epoch lr decay, final
    ``optimizer.sync()``. Returns the per-epoch mean losses (they must
    equal ``Trainer``'s, which proves the spans time the same arithmetic)
    and the rows of each extracted block.
    """
    from repro.graph.sampling import NegativeSampler, sample_pairwise_batch
    from repro.nn.losses import pairwise_hinge_loss
    from repro.nn.optim import Adam
    from repro.nn.schedulers import ExponentialDecay
    from repro.tensor import default_dtype
    from repro.train.pipeline import SampledBatchPipeline

    graph = train.graph()
    target = train.target_behavior
    sampler = NegativeSampler(graph, target)
    eligible = np.flatnonzero(graph.user_degree(target) > 0)
    block_rows: list[int] = []

    def draw(rng):
        start = time.perf_counter()
        batch = sample_pairwise_batch(graph, target, sampler, cfg.batch_users,
                                      cfg.per_user, rng, eligible_users=eligible)
        tracer.record("graph.sample_batch", start, time.perf_counter())
        return batch

    def extract(batch, rng):       # runs on the pipeline's worker thread
        start = time.perf_counter()
        block = model.extract_block(batch.users, batch.pos_items,
                                    batch.neg_items, rng=rng, fanout=cfg.fanout)
        tracer.record("graph.extract_block", start, time.perf_counter())
        block_rows.append(sum(len(level) for level in block.user_levels)
                          + sum(len(level) for level in block.item_levels))
        return block

    losses: list[float] = []
    with default_dtype(cfg.dtype):
        pipeline = SampledBatchPipeline(
            draw, extract, total_steps=cfg.epochs * cfg.steps_per_epoch,
            seed=cfg.seed, workers=cfg.workers, depth=cfg.prefetch_depth)
        try:
            optimizer = Adam(model.parameters(), lr=cfg.lr)
            scheduler = ExponentialDecay(optimizer, rate=cfg.lr_decay)
            model.train()
            for _ in range(cfg.epochs):
                epoch_loss, steps_done = 0.0, 0
                for _ in range(cfg.steps_per_epoch):
                    with tracer.span("train.step"):
                        with tracer.span("train.pipeline_wait"):
                            prepared = next(pipeline)
                        batch = prepared.batch
                        if len(batch) == 0:
                            continue
                        with tracer.span("core.forward"):
                            pos, neg = model.block_batch_scores(
                                batch.users, batch.pos_items, batch.neg_items,
                                prepared.block)
                            loss = pairwise_hinge_loss(pos, neg, margin=cfg.margin)
                            loss = loss + model.l2_batch(
                                batch.users, batch.pos_items, batch.neg_items,
                                cfg.l2_weight)
                        with tracer.span("tensor.backward"):
                            optimizer.zero_grad()
                            loss.backward()
                        with tracer.span("nn.optimizer_step"):
                            optimizer.step()
                            model.on_step_end()
                    epoch_loss += float(loss.data)
                    steps_done += 1
                scheduler.step()
                losses.append(epoch_loss / max(steps_done, 1))
            optimizer.sync()
            model.eval()
        finally:
            pipeline.close()
    return losses, block_rows


# ----------------------------------------------------------------------
# traffic phases
# ----------------------------------------------------------------------

def _tail(ordered: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it."""
    if len(ordered) <= 20:
        return 0.5, statistics.median(ordered)
    return 1.0 - 10.0 / len(ordered), ordered[len(ordered) - 11]


def _users_per_s(samples: list[Sample], windows: int = 1) -> float:
    """Users answered per second in the best of ``windows`` equal stretches
    of the phase (one window: over the whole phase)."""
    start = min(s.sent for s in samples)
    length = (max(s.done for s in samples) - start) / windows
    answered = [0] * windows
    for sample in samples:
        if sample.status == 200:
            window = min(int((sample.done - start) / length), windows - 1)
            answered[window] += len(sample.request.users)
    return max(answered) / length


def _window_medians(samples: list[Sample], windows: int) -> list[float]:
    """Median latency (s) of each of ``windows`` consecutive equal shares
    of the requests, in the order they fell due."""
    ordered = sorted(samples, key=lambda s: s.due)
    size = max(len(ordered) // windows, 1)
    return [statistics.median(s.latency_s for s in ordered[i:i + size])
            for i in range(0, size * min(windows, len(ordered)), size)]


class Serving:
    """The serving tier under load: a fresh server per phase (so ``/stats``
    covers that phase alone) over one shared service, every answer checked
    when the phase is over."""

    def __init__(self, service, traffic: list[Request], workload: Workload,
                 seed: int, seconds: float, tracer: Tracer, checks: Checks,
                 close_later):
        self._close_later = close_later
        self.service = service
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.checks = checks
        self.references = References(service)
        self.served: dict[int, list[int]] = {}     # user → served top-10 ids
        self.traffic = traffic
        self.gets = [r for r in traffic if not r.is_post]

    def _phase(self, name: str, drive) -> tuple[list[Sample], dict]:
        """``drive(port)`` against a server of its own → samples, ``/stats``."""
        from repro.serve.http import RecommendationHTTPServer

        server = RecommendationHTTPServer(self.service, port=0).start()
        try:
            samples = drive(server.port)
            client = loadgen.KeepAliveClient(server.port)
            try:
                stats = json.loads(client.get("/stats")[1])
            finally:
                client.close()
        finally:
            self._close_later(server)
        self._judge(name, samples)
        return samples, stats

    def _judge(self, phase: str, samples: list[Sample]) -> None:
        """Count every body against its library-direct answer; record the
        phase's requests as spans."""
        parent = self.tracer.record(
            f"serve.http.{phase}", min(s.sent for s in samples),
            max(s.done for s in samples))
        self.references.prepare(samples)
        for sample in samples:
            self.tracer.record("serve.http.request", sample.sent, sample.done,
                               parent.span_id)
            request = sample.request
            payload = sample.payload() if sample.status == 200 else None
            ok = self.references.matches(sample, payload)
            self.checks.expect(ok, f"{phase}: answer for users "
                                   f"{request.users[:3]} k={request.k} (status "
                                   f"{sample.status}) differs from library-direct")
            if ok:
                rows = (payload["recommendations"] if request.is_post
                        else [payload])
                for row in rows:
                    self.served.setdefault(row["user"], [
                        entry["item"] for entry in row["items"][:TOP_K]])

    def closed(self) -> dict:
        samples, stats = self._phase("closed_loop", lambda port: loadgen.closed_loop(
            port, self.traffic, CLIENTS, self.seconds * CLOSED_SHARE))
        return {"users_per_s": _users_per_s(samples, CLOSED_WINDOWS),
                "requests": len(samples),
                "mean_batch_size": stats["batcher"]["mean_batch_size"]}

    def open(self) -> dict:
        samples, stats = self._phase("open_loop", lambda port: loadgen.open_loop(
            port, self.traffic, CLIENTS, self.workload.open_rate,
            self.seconds * OPEN_SHARE))
        latencies = sorted(s.latency_s for s in samples)
        tail_q, tail = _tail(latencies)
        slo = self.workload.slo_ms / 1000.0
        within = sum(1 for s in samples
                     if s.status == 200 and s.latency_s <= slo)
        return {
            "p50_ms": fastest(_window_medians(samples, OPEN_WINDOWS)) * 1000.0,
            "samples": len(samples),
            "tail_ms": tail * 1000.0, "tail_quantile": tail_q,
            "generator_lag_ms": statistics.median(
                s.sent - s.due for s in samples) * 1000.0,
            "within_slo_share": within / len(samples),
            "queue_wait_p50_ms": stats["latency_ms"]["queue_wait"]["p50_ms"],
            "retrieve_p50_ms": stats["latency_ms"]["retrieve"]["p50_ms"],
        }

    def one_client(self) -> float:
        """p50 of one closed-loop client sending single-user ``GET``s (ms)."""
        samples, _ = self._phase("one_client", lambda port: loadgen.closed_loop(
            port, self.gets, 1, self.seconds * ONE_CLIENT_SHARE))
        return statistics.median(s.latency_s for s in samples) * 1000.0

    def posts(self) -> float:
        """Users per second through ``POST`` bodies alone, one client."""
        bodies = loadgen.draw_traffic(self.service.store.num_users, 256,
                                      self.seed, k=TOP_K, post_share=1.0)
        samples, _ = self._phase("post", lambda port: loadgen.closed_loop(
            port, bodies, 1, self.seconds * POST_SHARE))
        return _users_per_s(samples)

    def recall_at_10(self) -> float:
        """Served top-10 ∩ exact float32 top-10 over the users requested."""
        from repro.serve.retriever import TopKRetriever

        users = np.asarray(sorted(self.served), dtype=np.int64)
        exact = TopKRetriever(self.service.store.backend(),
                              exclude=self.service.exclusions).retrieve(users, TOP_K)
        hits = sum(len(set(self.served[user]) & set(row))
                   for user, row in zip(users.tolist(), exact.items.tolist()))
        return hits / (TOP_K * len(users))

    def library_direct(self) -> tuple[float, float]:
        """Median ms of ``service.recommend`` for 1 user, and per user for 32."""
        users = [r.users[0] for r in self.gets[:200]]
        one = []
        for user in users:
            start = time.perf_counter()
            self.service.recommend(np.asarray([user], dtype=np.int64), TOP_K)
            one.append(time.perf_counter() - start)
        many = []
        for offset in range(0, 160, 16):
            batch = np.asarray(users[offset:offset + 32], dtype=np.int64)
            start = time.perf_counter()
            self.service.recommend(batch, TOP_K)
            many.append((time.perf_counter() - start) / batch.size)
        return (statistics.median(one) * 1000.0,
                statistics.median(many) * 1000.0)


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------

#: a plain run takes the whole path this many times, one round after the
#: other, and reports every end-to-end metric at its better round; a traced
#: run makes one round. Inside a round ``ingest_csv`` and the checkpoint →
#: first-answer bring-up are made ``REPEATS`` times and count at their
#: fastest (the repeats are taken out of ``pipeline_s``), an epoch is one
#: sample of the training speed, and a traffic phase is cut into windows
ROUNDS = 2
REPEATS = 2


def fastest(seconds: list[float]) -> float:
    """The sample the box disturbed least.

    The benchmark shares its host: other tenants take cache, memory
    bandwidth and the sibling hardware thread for seconds to minutes at a
    time, and a sample taken meanwhile is 20-40% slower. Nothing makes a
    sample faster than the code allows, so across repeats of the same work
    the minimum is the steadiest estimate of the code's own speed (over ten
    runs it spreads half as much as the median of the same samples, README
    *Steadiness*), the more so the further apart in time the repeats are
    taken: hence the rounds. Percentiles *inside* a sample stay what they
    are: a latency is still the median over a window's requests.
    """
    return min(seconds)


CONTRACT = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def better_round(rounds: list[dict]) -> dict:
    """Every end-to-end metric at the better of its rounds' values."""
    pick = {"lower": min, "higher": max}
    return {metric["name"]: pick[metric["better"]](r[metric["name"]] for r in rounds)
            for metric in CONTRACT["end_to_end"] if metric["name"] in rounds[0]}


class Run:
    """One workload run: the stages in order, their spans and checks."""

    def __init__(self, workload: Workload, inputs: dict, seed: int,
                 seconds: float, traced: bool, directory: Path):
        from repro.data.ingest import IngestOptions

        self.workload = workload
        self.csv_path = inputs["csv"]
        self.expected = inputs["expected"]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.directory = directory
        self.tracer = Tracer(f"{workload.name}/seed-{seed}/"
                             f"{'traced' if traced else 'plain'}")
        self.checks = Checks()
        self.options = (IngestOptions(behavior_col=None, rating_col="rating",
                                      on_bad_rows="skip")
                        if workload.rating_mode else IngestOptions())
        self.ann = {"quant": "int8", "nprobe": 4}
        # the cold items of a wider catalogue, drawn before the clock starts
        seen = self.expected["num_items"]
        rng = np.random.default_rng([seed, 0xC01D])
        self.cold_source = rng.integers(
            0, seen, size=max(workload.catalogue_items - seen, 0))
        self.cold_damping = rng.uniform(
            0.5, 1.0, size=(self.cold_source.size, 1)).astype(np.float32)
        self.layer: dict[str, tuple[float, str]] = {}
        self.closing: list[threading.Thread] = []

    # ------------------------------------------------------------ data
    def ingest(self):
        """``ingest_csv``, ``REPEATS`` times; the last dataset."""
        from repro.data.ingest import ingest_csv, iter_event_chunks

        samples: list[float] = []
        for _ in range(REPEATS):
            with self.tracer.span("data.ingest") as span:
                dataset, report = ingest_csv(
                    self.csv_path, self.workload.name, self.workload.target,
                    options=self.options)
            samples.append(span.seconds)
        self.ingest_samples = samples
        # ``pipeline_s`` counts a repeated stage once, at its fastest
        self.repeated_s = sum(samples) - fastest(samples)
        ingest_s = fastest(samples)
        if self.traced:
            # one drain of the parser alone; ingest_csv makes two
            with self.tracer.span("data.ingest.parse") as parse:
                parsed = sum(len(chunk) for chunk
                             in iter_event_chunks(self.csv_path, self.options))
            self.repeated_s += parse.seconds
            self.layer.update({
                "data.ingest.rows_per_s": (report.rows_read / ingest_s, "rows/s"),
                "data.ingest.parse_rows_per_s": (parsed / parse.seconds, "rows/s"),
                "data.ingest.parse_share": (2.0 * parse.seconds / ingest_s, "ratio"),
                "data.ingest.rows_dropped_bad": (report.rows_dropped_bad, "count"),
            })
        expected = self.expected
        for what, got, want in (
                ("rows_read", report.rows_read, expected["rows"]),
                ("rows_dropped_bad", report.rows_dropped_bad, expected["bad_rows"]),
                ("rows_kept", report.rows_kept,
                 expected["rows"] - expected["bad_rows"]),
                ("num_users", report.num_users, expected["num_users"]),
                ("num_items", report.num_items, expected["num_items"]),
                ("per_behavior", report.per_behavior, expected["per_behavior"])):
            self.checks.expect(
                got == want, f"ingest {what}: got {got}, generator says {want}")
        self.ingest_rows_per_s = report.rows_read / ingest_s
        return dataset, report

    def artifact_round_trip(self, dataset, report):
        from repro.data.ingest import load_dataset_npz, save_dataset_npz

        path = self.directory / "dataset.npz"
        with self.tracer.span("data.artifact.save"):
            save_dataset_npz(dataset, path, has_timestamps=report.has_timestamps)
        with self.tracer.span("data.artifact.load"):
            loaded, _ = load_dataset_npz(path)
        self.layer["data.artifact.bytes"] = (path.stat().st_size, "bytes")
        self.checks.expect(_same_dataset(dataset, loaded),
                           "dataset artifact round trip is not array-equal")
        return loaded

    def split_and_candidates(self, dataset):
        from repro.data import build_eval_candidates, temporal_split

        with self.tracer.span("data.split.temporal"):
            split = temporal_split(dataset)
        rng = np.random.default_rng([self.seed, 0xE7A])
        picked = rng.choice(len(split), replace=False,
                            size=min(len(split), self.workload.eval_users))
        with self.tracer.span("data.negatives.build"):
            candidates = build_eval_candidates(
                split.train, split.test_users[picked], split.test_items[picked],
                num_negatives=99, rng=rng)
        with self.tracer.span("data.graph_build"):
            split.train.graph()
        return split.train, candidates

    # -------------------------------------------------------- training
    def train(self, train):
        """``model.fit`` for the end-to-end number; traced, the same steps
        again through :func:`traced_fit` on an identical model."""
        cfg = _train_config(self.workload, self.seed)
        with self.tracer.span("core.model_build"):
            model = _new_model(train, self.seed)
        # ``eval_fn`` is the trainer's per-epoch hook: it stamps the end of
        # every epoch, so each epoch is one sample of the training speed
        stamps = [time.perf_counter()]

        def stamp() -> float:
            stamps.append(time.perf_counter())
            return 0.0

        with self.tracer.span("train.fit") as fit:
            history = model.fit(train, cfg, eval_fn=stamp)
        self.epoch_samples = [b - a for a, b in zip(stamps, stamps[1:])]
        self.train_steps_per_s = STEPS_PER_EPOCH / fastest(self.epoch_samples)
        losses = history.series("loss")
        for epoch, loss in enumerate(losses):
            self.checks.expect(math.isfinite(loss), f"epoch {epoch} loss is {loss}")
        if self.traced:
            twin = _new_model(train, self.seed)
            spans_before = len(self.tracer.spans)
            with self.tracer.span("train.traced_fit") as refit:
                traced_losses, block_rows = traced_fit(twin, train, cfg,
                                                       self.tracer)
            self.repeated_s += refit.seconds
            # what the spans cost, measured directly: two trainings differ by
            # more than the limit from run to run, whatever the spans cost
            overhead = ((len(self.tracer.spans) - spans_before)
                        * span_cost_seconds() / refit.seconds)
            self.traced_fit_gap = (refit.seconds - fit.seconds) / fit.seconds
            worst = max(abs(a - b) / max(abs(b), 1e-30)
                        for a, b in zip(traced_losses, losses))
            self.checks.expect(
                len(traced_losses) == len(losses) and worst <= 1e-6,
                f"traced loop loss history differs from Trainer's by "
                f"{worst:.3g} relative")
            self.checks.expect(
                _same_state(model.state_dict(), twin.state_dict()),
                "traced loop ended on other parameters than Trainer")
            self.checks.expect(
                overhead <= TRACE_OVERHEAD_LIMIT,
                f"spans cost {overhead:.4f} of the traced training loop, "
                f"limit {TRACE_OVERHEAD_LIMIT}")
            tracer = self.tracer
            self.layer.update({
                "graph.block_rows": (statistics.median(block_rows), "count"),
                "train.extract_overlap_share": (
                    1.0 - tracer.total("train.pipeline_wait")
                    / tracer.total("graph.extract_block"), "ratio"),
                "bench.trace_overhead_share": (overhead, "ratio"),
            })
        return model

    def evaluate(self, model, candidates):
        from repro.eval import evaluate_model

        with self.tracer.span("eval.evaluate_model"):
            result = evaluate_model(model, candidates)
        self.hr_at_10, self.ndcg_at_10 = result.hr(10), result.ndcg(10)
        if self.workload.train_steps >= QUALITY_MIN_STEPS:
            self.checks.expect(
                self.hr_at_10 >= self.workload.hr_floor,
                f"hr_at_10 {self.hr_at_10:.3f} is below the workload's "
                f"floor {self.workload.hr_floor}")

    # --------------------------------------------------------- serving
    def service_inputs(self, model, train):
        """What the service is built over: the model and its training set,
        both widened when the workload's catalogue is wider than its log."""
        if not self.cold_source.size:
            return model, train
        wide = WideCatalogue(model, self.cold_source, self.cold_damping)
        return wide, _widened(train, wide.num_items)

    def bring_up(self, train, checkpoint, first: Request):
        """Checkpoint on disk → first answered request, on a fresh model."""
        from repro.serve import RecommendationService
        from repro.serve.http import RecommendationHTTPServer
        from repro.utils.checkpoint import load_checkpoint

        with self.tracer.span("serve.bring_up") as span:
            with self.tracer.span("core.model_build"):
                fresh = _new_model(train, self.seed)
            with self.tracer.span("utils.checkpoint.load"):
                load_checkpoint(fresh, checkpoint)
            with self.tracer.span("serve.service_build"):
                service = RecommendationService(
                    *self.service_inputs(fresh, train),
                    retriever=self.workload.retriever, ann=self.ann)
            with self.tracer.span("serve.first_request"):
                server = RecommendationHTTPServer(service, port=0).start()
                try:
                    client = loadgen.KeepAliveClient(server.port)
                    try:
                        sample = client.send(first)
                    finally:
                        client.close()
                finally:
                    self.close_later(server)
        return fresh, service, sample, sample.done - span.start

    def close_later(self, server) -> None:
        """``close()`` sits out ``serve_forever``'s 0.5 s poll; it does so
        on a thread of its own while the run goes on."""
        closer = threading.Thread(target=server.close)
        closer.start()
        self.closing.append(closer)

    def wait_closed(self) -> None:
        for closer in self.closing:
            closer.join()
        self.closing.clear()

    def probe_serving_parts(self, train, checkpoint) -> None:
        """The parts of the service build, each called directly on a model
        of its own (``RecommendationService`` makes the same calls)."""
        from repro.serve import EmbeddingStore, ExclusionMask
        from repro.utils.checkpoint import load_checkpoint

        probe = _new_model(train, self.seed)
        load_checkpoint(probe, checkpoint)
        probe.engine.invalidate()
        with self.tracer.span("graph.full_propagate"):
            probe.serving_embeddings()
        served, seen = self.service_inputs(probe, train)
        with self.tracer.span("serve.store.snapshot"):
            EmbeddingStore.snapshot(served)
        with self.tracer.span("serve.mask_build"):
            ExclusionMask.from_dataset(seen, behaviors="target")
        # over the items of the log: a workload that serves a wider
        # catalogue serves it exactly, and would spend 8 s indexing it here
        store = EmbeddingStore.snapshot(probe)
        with self.tracer.span("serve.ann.index_build"):
            index = store.ann_index(quant=self.ann["quant"])
        self.layer["serve.ann.compressed_bytes"] = (index.compressed_nbytes,
                                                    "bytes")


def one_round(run: Run) -> tuple[dict, dict]:
    """Event log on disk → answered requests, once: the round's end-to-end
    values and its notes; a traced round also fills ``run.layer``."""
    from repro.utils.checkpoint import save_checkpoint

    workload, seed, seconds, traced = (run.workload, run.seed, run.seconds,
                                       run.traced)
    directory, tracer, checks, layer = (run.directory, run.tracer, run.checks,
                                        run.layer)

    with tracer.span("pipeline") as pipeline:
        dataset, report = run.ingest()
        loaded = run.artifact_round_trip(dataset, report)
        train, candidates = run.split_and_candidates(loaded)
        model = run.train(train)
        run.evaluate(model, candidates)
        with tracer.span("utils.checkpoint.save"):
            checkpoint = save_checkpoint(model, directory / "model.npz",
                                         metadata={"workload": workload.name})
        traffic = loadgen.draw_traffic(
            train.num_users, int(1500 * seconds) + 64, seed, k=TOP_K,
            post_share=workload.post_share, wide_share=workload.wide_share)
        first = next(r for r in traffic if not r.is_post)
        fresh, service, answer, ready_s = run.bring_up(train, checkpoint, first)
    pipeline_s = answer.done - pipeline.start - run.repeated_s

    ready_samples = [ready_s]
    for _ in range(1, REPEATS):
        fresh, service, answer, ready_s = run.bring_up(train, checkpoint, first)
        ready_samples.append(ready_s)
    pipeline_s -= ready_samples[0] - fastest(ready_samples)
    if traced:
        run.probe_serving_parts(train, checkpoint)
    checks.expect(_same_state(model.state_dict(), fresh.state_dict()),
                  "checkpoint round trip is not array-equal")

    serving = Serving(service, traffic, workload, seed, seconds, tracer, checks,
                      run.close_later)
    checks.expect(answer.status == 200 and answer.payload()["items"]
                  == serving.references.single(first.users[0], first.k),
                  "first /recommend answer differs from library-direct")
    if traced:
        b1_ms, b32_ms = serving.library_direct()
        one_client_ms = serving.one_client()
    closed = serving.closed()
    opened = serving.open()
    if traced:
        post_users_per_s = serving.posts()
    run.wait_closed()
    recall = serving.recall_at_10()
    if workload.train_steps >= QUALITY_MIN_STEPS:
        checks.expect(recall >= workload.recall_floor,
                      f"serve_recall_at_10 {recall:.4f} is below the "
                      f"workload's floor {workload.recall_floor}")

    end_to_end = {
        "pipeline_s": pipeline_s,
        "ingest_rows_per_s": run.ingest_rows_per_s,
        "train_steps_per_s": run.train_steps_per_s,
        "hr_at_10": run.hr_at_10,
        "serve_ready_s": fastest(ready_samples),
        "recommend_users_per_s": closed["users_per_s"],
        "recommend_p50_ms": opened["p50_ms"],
        "serve_recall_at_10": recall,
    }
    notes = {
        "rows": report.rows_read, "users": report.num_users,
        "items": report.num_items, "served_items": service.store.num_items,
        "train_steps": workload.train_steps,
        "eval_users": len(candidates),
        "samples": f"per round, fastest of ingest_csv x{len(run.ingest_samples)}, "
                   f"epochs x{len(run.epoch_samples)}, checkpoint to first "
                   f"answer x{len(ready_samples)}",
        "closed_loop": f"{CLIENTS} keep-alive clients, "
                       f"{closed['requests']} requests, mean batch "
                       f"{closed['mean_batch_size']:.2f}, best of "
                       f"{CLOSED_WINDOWS} windows",
        "open_loop": f"{workload.open_rate:g} req/s over {CLIENTS} connections, "
                     f"{opened['samples']} samples, timed from due, median "
                     f"of the best of {OPEN_WINDOWS} windows",
        "seconds": {"ingest_csv": run.ingest_samples,
                    "epoch": run.epoch_samples, "bring_up": ready_samples},
    }

    if traced:
        for name, span, unit in (
                ("data.artifact.save_s", "data.artifact.save", "s"),
                ("data.artifact.load_s", "data.artifact.load", "s"),
                ("data.split.temporal_s", "data.split.temporal", "s"),
                ("data.negatives.build_s", "data.negatives.build", "s"),
                ("data.graph_build_s", "data.graph_build", "s"),
                ("graph.sample_batch_ms", "graph.sample_batch", "ms"),
                ("graph.extract_block_ms", "graph.extract_block", "ms"),
                ("train.pipeline_wait_ms", "train.pipeline_wait", "ms"),
                ("core.forward_ms", "core.forward", "ms"),
                ("tensor.backward_ms", "tensor.backward", "ms"),
                ("nn.optimizer_step_ms", "nn.optimizer_step", "ms"),
                ("train.step_ms", "train.step", "ms"),
                ("graph.full_propagate_ms", "graph.full_propagate", "ms"),
                ("serve.store.snapshot_s", "serve.store.snapshot", "s"),
                ("eval.evaluate_model_s", "eval.evaluate_model", "s"),
                ("utils.checkpoint.save_s", "utils.checkpoint.save", "s"),
                ("utils.checkpoint.load_s", "utils.checkpoint.load", "s"),
                ("serve.mask_build_s", "serve.mask_build", "s"),
                ("serve.ann.index_build_s", "serve.ann.index_build", "s")):
            median = statistics.median(tracer.seconds(span))
            layer[name] = (median * 1000.0 if unit == "ms" else median, unit)
        layer.update({
            "eval.ndcg_at_10": (run.ndcg_at_10, "ratio"),
            "utils.checkpoint.bytes": (Path(checkpoint).stat().st_size, "bytes"),
            "serve.retriever.retrieve_ms_b1": (b1_ms, "ms"),
            "serve.retriever.retrieve_ms_b32": (b32_ms, "ms"),
            "serve.http.overhead_ms": (one_client_ms - b1_ms, "ms"),
            "serve.http.queue_wait_p50_ms": (opened["queue_wait_p50_ms"], "ms"),
            "serve.http.retrieve_p50_ms": (opened["retrieve_p50_ms"], "ms"),
            "serve.http.mean_batch_size": (closed["mean_batch_size"], "count"),
            "serve.http.request_tail_ms": (opened["tail_ms"], "ms"),
            "serve.http.generator_lag_ms": (opened["generator_lag_ms"], "ms"),
            "serve.http.within_slo_share": (opened["within_slo_share"], "ratio"),
            "serve.http.post_users_per_s": (post_users_per_s, "users/s"),
        })
        notes["tail_quantile"] = opened["tail_quantile"]
        notes["slo_ms"] = workload.slo_ms
        notes["traced_fit_gap"] = run.traced_fit_gap
        notes["self_seconds"] = dict(sorted(
            tracer.self_seconds().items(), key=lambda kv: -kv[1])[:12])
        tracer.dump(directory.parent / f"trace-{workload.name}.json")
    return end_to_end, notes


def run_pipeline(workload: Workload, inputs: dict, seed: int, seconds: float,
                 traced: bool, directory: Path) -> dict:
    """The rounds of one run; returns both metric sets."""
    run = Run(workload, inputs, seed, seconds, traced, directory)
    rounds = []
    for _ in range(1 if traced else ROUNDS):
        values, notes = one_round(run)
        rounds.append({**values, "seconds": notes.pop("seconds")})
    run.checks.expect(all(r["hr_at_10"] == rounds[0]["hr_at_10"] for r in rounds),
                      f"hr_at_10 differs between rounds of one seed: "
                      f"{[r['hr_at_10'] for r in rounds]}")
    end_to_end = better_round(rounds)
    end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    notes["rounds"] = rounds
    notes["failures"] = run.checks.reasons
    units = {metric["name"]: metric["unit"] for metric in CONTRACT["end_to_end"]}
    return {"correct": run.checks.failed == 0, "attempted": run.checks.attempted,
            "failed": run.checks.failed,
            "end_to_end": {name: {"value": float(value), "unit": units[name]}
                           for name, value in end_to_end.items()},
            "per_layer": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in run.layer.items()},
            "notes": notes}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    workload = BY_NAME[spec["workload"]].at_scale(spec["scale"])
    result = run_pipeline(workload, spec["inputs"], spec["seed"],
                          spec["seconds"], spec["traced"],
                          Path(spec["directory"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
