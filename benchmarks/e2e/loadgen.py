"""Seeded, vectorised generators for the benchmark's inputs.

Everything the benchmarked program sees — event logs on disk and request
traffic — is made here from one integer seed and
nothing else: the same seed gives byte-identical files, another seed gives
other bytes. There is no per-user or per-row Python loop, so generating a
million-row log costs well under a second and set-up never becomes the
benchmark (``build_scenario("tmall-like")`` is a per-user loop: 8.5 s for
3 000 users).

Preference model: users and items belong to clusters; an event picks its
item from the user's own cluster with probability ``IN_CLUSTER`` and from
the whole catalogue otherwise, both through a Zipf–Mandelbrot popularity
law ``(rank + ZIPF_OFFSET) ** -skew``. The cluster structure is what a
recommender can learn (``hr_at_10`` rises well above the untrained model),
the popularity law is what makes degree distributions, vocabularies and
request streams realistically skewed.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: flattens the head of the popularity law: with a pure Zipf at skew 1.5
#: the top item alone would take 38% of all events
ZIPF_OFFSET = 10.0
#: share of a user's events that stay inside the user's own cluster
IN_CLUSTER = 0.8

#: first timestamp of every generated log (seconds) and the span it covers
EPOCH_START = 1_600_000_000
EPOCH_SPAN = 30 * 24 * 3600

_COMMA, _NEWLINE = ord(","), ord("\n")


@dataclass(frozen=True)
class LogShape:
    """Size and skew of one generated event log.

    ``events_per_user`` maps behaviour name → mean events per user (the
    Tmall shape is click/fav/cart/buy at 36/5/6/3.5); user activity is
    log-normal around those means, so some users have no target events at
    all, as in a real log.
    """

    num_users: int
    num_items: int
    events_per_user: tuple[tuple[str, float], ...]
    skew: float
    clusters: int = 50

    @property
    def behaviors(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.events_per_user)

    def scaled(self, scale: float) -> "LogShape":
        """The same shape at ``scale`` × users and items (never below a
        size the pipeline can still split, sample and serve)."""
        return LogShape(
            num_users=max(int(self.num_users * scale), 300),
            num_items=max(int(self.num_items * scale), 600),
            events_per_user=self.events_per_user, skew=self.skew,
            clusters=max(min(self.clusters, int(self.num_items * scale) // 40), 4))


@dataclass
class EventLog:
    """Parallel event columns in log (timestamp) order."""

    users: np.ndarray        # generator-side user ids
    items: np.ndarray        # generator-side item ids
    behaviors: np.ndarray    # index into ``shape.behaviors``
    timestamps: np.ndarray   # integer seconds
    shape: LogShape

    def __len__(self) -> int:
        return int(self.users.size)

    def ingest_truth(self, kept: np.ndarray | None = None) -> dict:
        """What a correct ingest of this log reports when only the rows
        under the ``kept`` mask are well-formed (all of them by default)."""
        if kept is None:
            kept = np.ones(len(self), dtype=bool)
        counts = np.bincount(self.behaviors[kept],
                             minlength=len(self.shape.behaviors))
        return {
            "rows": len(self), "bad_rows": int((~kept).sum()),
            "per_behavior": {name: int(count) for name, count
                             in zip(self.shape.behaviors, counts)},
            "num_users": int(np.unique(self.users[kept]).size),
            "num_items": int(np.unique(self.items[kept]).size)}


def zipf_ranks(n: int, skew: float, size: int,
               rng: np.random.Generator) -> np.ndarray:
    """``size`` ranks in ``[0, n)`` under the Zipf–Mandelbrot law."""
    weights = (np.arange(n, dtype=np.float64) + ZIPF_OFFSET) ** -skew
    cdf = np.cumsum(weights)
    draws = rng.random(size) * cdf[-1]
    return np.minimum(np.searchsorted(cdf, draws, side="right"), n - 1)


def draw_events(shape: LogShape, seed: int) -> EventLog:
    """All events of one log, sorted by timestamp."""
    rng = np.random.default_rng([seed, 0x10A])
    num_users, num_items = shape.num_users, shape.num_items
    clusters = min(shape.clusters, num_items)
    per_cluster = num_items // clusters

    activity = rng.lognormal(0.0, 0.5, size=num_users)
    activity /= activity.mean()
    user_cluster = rng.integers(0, clusters, size=num_users)
    # popularity slot → item id; cluster c owns slots c, c+C, c+2C, …, so
    # an item popular inside its cluster is also popular globally
    slot_item = rng.permutation(num_items)

    users_parts, behavior_parts = [], []
    for code, (_, mean) in enumerate(shape.events_per_user):
        counts = rng.poisson(mean * activity)
        users_parts.append(np.repeat(np.arange(num_users), counts))
        behavior_parts.append(np.full(int(counts.sum()), code, dtype=np.int8))
    users = np.concatenate(users_parts)
    behaviors = np.concatenate(behavior_parts)
    total = users.size

    local = rng.random(total) < IN_CLUSTER
    slots = zipf_ranks(num_items, shape.skew, total, rng)
    in_rank = zipf_ranks(per_cluster, shape.skew, int(local.sum()), rng)
    slots[local] = in_rank * clusters + user_cluster[users[local]]
    items = slot_item[slots]

    timestamps = EPOCH_START + rng.integers(0, EPOCH_SPAN, size=total)
    order = np.argsort(timestamps, kind="stable")
    return EventLog(users[order], items[order], behaviors[order],
                    timestamps[order], shape)


# ----------------------------------------------------------------------
# CSV writing: digits are laid out in fixed-width byte columns (0 = no
# byte here) and the zeros are squeezed out in one pass, so a million rows
# format in a fraction of a second instead of one Python ``%`` per row
# ----------------------------------------------------------------------

def _put_int(buffer: np.ndarray, start: int, values: np.ndarray) -> int:
    """Write decimal digits of non-negative ints into byte columns
    ``start…`` of ``buffer``, leading zeros left blank; returns the next
    free column."""
    width = max(len(str(int(values.max(initial=0)))), 1)
    rest = values.astype(np.uint32 if width <= 9 else np.uint64)
    units = start + width - 1
    for column in range(units, start - 1, -1):
        buffer[:, column] = rest % 10 + ord("0")
        if column < units:
            buffer[rest == 0, column] = 0     # nothing left: a leading zero
        rest //= 10
    return start + width


def _put_word(buffer: np.ndarray, start: int, codes: np.ndarray,
              words: tuple[str, ...]) -> int:
    """Write ``words[codes]`` into byte columns ``start…``, short words
    right-blank; returns the next free column."""
    width = max(len(word) for word in words)
    table = np.zeros((len(words), width), dtype=np.uint8)
    for row, word in enumerate(words):
        table[row, :len(word)] = np.frombuffer(word.encode("ascii"), np.uint8)
    buffer[:, start:start + width] = table[codes]
    return start + width


def _write_rows(path: Path, header: str, rows: int, fill) -> None:
    """Lay the rows out in a fixed-width byte matrix, squeeze the blanks
    out, write the file. ``fill(buffer, put_separator)`` writes the cells."""
    buffer = np.zeros((rows, 64), dtype=np.uint8)

    def put_separator(column: int, last: bool = False) -> int:
        buffer[:, column] = _NEWLINE if last else _COMMA
        return column + 1

    fill(buffer, put_separator)
    flat = buffer.reshape(-1)
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii") + b"\n")
        handle.write(flat[flat != 0].tobytes())


def write_behavior_csv(log: EventLog, path: Path) -> dict:
    """``user,item,behavior,timestamp`` log, one row per event; returns
    what a correct ingest of the file reports."""
    def fill(buffer, put_separator):
        column = put_separator(_put_int(buffer, 0, log.users))
        column = put_separator(_put_int(buffer, column, log.items))
        column = put_separator(_put_word(buffer, column, log.behaviors,
                                         log.shape.behaviors))
        put_separator(_put_int(buffer, column, log.timestamps), last=True)

    _write_rows(path, "user,item,behavior,timestamp", len(log), fill)
    return log.ingest_truth()


#: the paper's rating partition: ≤2 dislike, 3 neutral, ≥4 like
RATING_BEHAVIORS = ("dislike", "neutral", "like")
_RATING_OF_BEHAVIOR = np.array([[1, 2], [3, 3], [4, 5]])


def write_rating_csv(log: EventLog, path: Path, bad_share: float,
                     seed: int) -> dict:
    """``user,item,rating,timestamp`` log with injected malformed rows.

    ``log.behaviors`` must index :data:`RATING_BEHAVIORS`; each event gets
    a star rating inside its behaviour's band. A ``bad_share`` of the rows
    is damaged — half lose their item id, half get an unparseable rating.
    Returns what a correct ingest reports: the intact rows only.
    """
    rng = np.random.default_rng([seed, 0xBAD])
    rows = len(log)
    stars = _RATING_OF_BEHAVIOR[log.behaviors, rng.integers(0, 2, size=rows)]
    bad = rng.random(rows) < bad_share
    no_item = bad & (rng.random(rows) < 0.5)

    def fill(buffer, put_separator):
        item_start = put_separator(_put_int(buffer, 0, log.users))
        rating_start = put_separator(_put_int(buffer, item_start, log.items))
        buffer[no_item, item_start:rating_start - 1] = 0
        column = put_separator(_put_int(buffer, rating_start, stars))
        buffer[bad & ~no_item, rating_start] = ord("x")
        put_separator(_put_int(buffer, column, log.timestamps), last=True)

    _write_rows(path, "user,item,rating,timestamp", rows, fill)
    return log.ingest_truth(~bad)


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------

@dataclass
class Request:
    """One HTTP request of the traffic mix."""

    users: tuple[int, ...]   # one user → GET, several → POST
    k: int

    @property
    def is_post(self) -> bool:
        return len(self.users) > 1


#: the traffic mix repeats exactly in every block of this many requests
MIX_BLOCK = 20
POST_USERS = 32           # users in one POST body
WIDE_K = 50               # the k of a "wide" GET
USER_SKEW = 1.1           # Zipf exponent of user popularity in the traffic


def _every_block(count: int, share: float, rng: np.random.Generator) -> np.ndarray:
    """Marks on ``share`` of ``count`` slots: the same number in every
    block of ``MIX_BLOCK``, at random places inside it. A phase of any
    length then sees the same mix, which independent coin flips would not
    give it (±11% in users answered over 1 600 requests with 5% POSTs)."""
    blocks = -(-count // MIX_BLOCK)
    marks = np.zeros((blocks, MIX_BLOCK), dtype=bool)
    marks[:, :round(share * MIX_BLOCK)] = True
    return rng.permuted(marks, axis=1).reshape(-1)[:count]


def draw_traffic(num_users: int, count: int, seed: int, *, k: int,
                 post_share: float = 0.0,
                 wide_share: float = 0.0) -> list[Request]:
    """``count`` requests with Zipf user popularity.

    ``post_share`` of them are ``POST`` bodies of ``POST_USERS`` users;
    ``wide_share`` of the slots ask for ``WIDE_K`` items, not ``k``, when
    they hold a ``GET``.
    """
    rng = np.random.default_rng([seed, 0x7AF])
    popularity = rng.permutation(num_users)
    is_post = _every_block(count, post_share, rng)
    is_wide = _every_block(count, wide_share, rng)
    width = np.where(is_post, POST_USERS, 1)
    ranks = zipf_ranks(num_users, USER_SKEW, int(width.sum()), rng)
    users = popularity[ranks].tolist()
    requests, cursor = [], 0
    for post, wide, w in zip(is_post.tolist(), is_wide.tolist(), width.tolist()):
        requests.append(Request(tuple(users[cursor:cursor + w]),
                                k if post or not wide else WIDE_K))
        cursor += w
    return requests


# ----------------------------------------------------------------------
# HTTP load: one process, a few keep-alive connections
# ----------------------------------------------------------------------

HOST = "127.0.0.1"


@dataclass
class Sample:
    """One request as the client saw it; the body stays raw until the
    phase is over so parsing never competes with the server for the GIL."""

    request: Request
    due: float       # when it should have been sent (== sent, closed loop)
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency_s(self) -> float:
        """From when the request was due, so a stall is charged to every
        request it delayed, not only to the one that stalled."""
        return self.done - self.due

    def payload(self) -> dict:
        return json.loads(self.body)


class KeepAliveClient:
    """Raw-socket HTTP/1.1 client: the client threads share the server's
    two cores, so client-side parsing directly suppresses what is measured
    (the same reasoning as ``benchmarks/bench_http_serving.py``)."""

    def __init__(self, port: int):
        self._sock = socket.create_connection((HOST, port), timeout=30.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def fetch(self, head: bytes) -> tuple[int, bytes]:
        self._sock.sendall(head)
        status = int(self._reader.readline().split()[1])
        length = 0
        while True:
            line = self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        return status, self._reader.read(length)

    def get(self, path: str) -> tuple[int, bytes]:
        return self.fetch(f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n\r\n"
                          .encode("ascii"))

    def send(self, request: Request, due: float | None = None) -> Sample:
        if request.is_post:
            body = json.dumps({"users": list(request.users), "k": request.k})
            head = (f"POST /recommend HTTP/1.1\r\nHost: {HOST}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n{body}").encode("ascii")
        else:
            head = (f"GET /recommend?user={request.users[0]}&k={request.k} "
                    f"HTTP/1.1\r\nHost: {HOST}\r\n\r\n").encode("ascii")
        sent = time.perf_counter()
        status, payload = self.fetch(head)
        done = time.perf_counter()
        return Sample(request, sent if due is None else due, sent, done,
                      status, payload)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


def _run_clients(port: int, clients: int, body) -> list[Sample]:
    """Run ``body(client, index, samples)`` on ``clients`` threads."""
    results: list[list[Sample]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        client = KeepAliveClient(port)
        try:
            body(client, index, results[index])
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [sample for per_client in results for sample in per_client]


def closed_loop(port: int, requests: list[Request], clients: int,
                seconds: float) -> list[Sample]:
    """Each client sends its next request when the previous answer lands,
    for ``seconds``."""
    deadline = time.perf_counter() + seconds

    def body(client: KeepAliveClient, index: int, samples: list) -> None:
        mine = requests[index::clients]
        cursor = 0
        while time.perf_counter() < deadline:
            samples.append(client.send(mine[cursor % len(mine)]))
            cursor += 1

    return _run_clients(port, clients, body)


def open_loop(port: int, requests: list[Request], clients: int,
              rate: float, seconds: float) -> list[Sample]:
    """Requests fall due every ``1/rate`` seconds whether or not earlier
    ones were answered; request ``i`` goes out on connection ``i mod
    clients`` as soon as it is due and that connection is free."""
    count = min(int(rate * seconds), len(requests))
    started = time.perf_counter() + 0.05

    def body(client: KeepAliveClient, index: int, samples: list) -> None:
        for i in range(index, count, clients):
            due = started + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            samples.append(client.send(requests[i], due=due))

    return _run_clients(port, clients, body)
