"""Serving retrieval ratios: batch-size scaling and the ANN tradeoff sweep.

Two same-run measurements of the ``repro.serve`` hot path, no HTTP:

* ``retrieval`` — users/sec of the exact blocked retriever (GEMM against
  the full catalogue, CSR exclusion masking, argpartition top-K) at
  serving batch sizes {64, 256, 1024} on a 20k-item catalogue, and
  ``scaling.monotone_frac``, the worst ratio of one batch size's users/sec
  to its predecessor's;
* ``ann`` — on a 100k-item clustered catalogue, recall@10 against the
  exact retriever and users/sec speedup over it for every
  (nprobe × quantization) configuration of ``repro.serve.ann``, sharing
  one seeded k-means run across quantization levels.

Both are gated here (``MONOTONE_MIN``; ``ANN_RECALL_MIN`` at
``ANN_SPEEDUP_MIN`` on ≥ ``ANN_ITEMS_MIN`` items): the script prints its
payload, then one PASS/FAIL line per floor, and exits 1 when one is
missed. ``benchmarks/e2e`` cannot see either — its requests arrive one
user at a time, and its IVF workloads run one (nprobe, quant) point on
catalogues of 6–8k items, where recall has its own per-run floor::

    PYTHONPATH=src python benchmarks/bench_serving.py [--out DIR]
"""

import sys

import numpy as np

from gate import best_time, main
from repro.serve import ApproxRetriever, ExclusionMask, IVFIndex, MatrixBackend, TopKRetriever

BATCH_SIZES = (64, 256, 1024)
TOP_K = 10
#: the retriever chunks selection to cache-sized blocks internally, so a
#: larger request batch must never cost meaningful throughput (measured
#: ~0.92 worst consecutive ratio; before the chunking fix batch 64 beat
#: batch 1024 by ~2x, which scores ~0.5)
MONOTONE_MIN = 0.75

ANN_NPROBES = (4, 8, 16, 32)
ANN_QUANTS = ("none", "int8")
#: the sweep must keep one configuration this close to exact at this many
#: times its throughput (measured: int8 nprobe=4 at ~4.3x / recall 0.993),
#: on a catalogue big enough for a scan to dominate — recall and speedup
#: are against the exact run inside the same payload, so runner noise
#: mostly cancels
ANN_RECALL_MIN = 0.95
ANN_SPEEDUP_MIN = 3.0
ANN_ITEMS_MIN = 100_000


def _synthetic_catalog(num_users=8192, num_items=20000, dim=64,
                       seen_per_user=32, seed=0):
    """Serving tables + exclusion mask shaped like a mid-size catalog."""
    rng = np.random.default_rng(seed)
    user_matrix = rng.standard_normal((num_users, dim)).astype(np.float32)
    item_matrix = rng.standard_normal((num_items, dim)).astype(np.float32)
    seen_users = np.repeat(np.arange(num_users), seen_per_user)
    seen_items = rng.integers(0, num_items, size=seen_users.size)
    exclude = ExclusionMask.from_pairs(seen_users, seen_items,
                                       num_users, num_items)
    return user_matrix, item_matrix, exclude


def measure_retrieval_throughput(request_users: int = 4096,
                                 rounds: int = 5) -> dict:
    """Users/sec of blocked top-K retrieval at each serving batch size."""
    user_matrix, item_matrix, exclude = _synthetic_catalog()
    backend = MatrixBackend(user_matrix, item_matrix)
    users = np.arange(request_users, dtype=np.int64)
    results: dict = {
        "workload": {
            "num_users": backend.num_users,
            "num_items": backend.num_items,
            "dim": backend.dim,
            "k": TOP_K,
            "request_users": request_users,
            "dtype": "float32",
        },
        "batch_sizes": {},
    }
    throughputs = []
    for batch in BATCH_SIZES:
        retriever = TopKRetriever(backend, exclude=exclude, batch_users=batch)
        seconds = best_time(lambda: retriever.retrieve(users, TOP_K), rounds)
        throughput = request_users / seconds
        results["batch_sizes"][str(batch)] = {
            "seconds": seconds,
            "users_per_sec": throughput,
        }
        throughputs.append(throughput)
    # the smallest ratio of a batch size's users/sec to its predecessor's
    results["scaling"] = {
        "batch_order": list(BATCH_SIZES),
        "monotone_frac": min(after / before for before, after
                             in zip(throughputs, throughputs[1:])),
    }
    return results


def _clustered_catalog(num_users=4096, num_items=100_000, dim=64,
                       num_centers=256, noise=0.35, seen_per_user=32,
                       seed=0):
    """Large serving tables with the cluster structure of trained embeddings.

    Items and users are drawn around shared latent centers (mixture of
    Gaussians) — the geometry trained embedding tables actually exhibit
    and the reason an IVF coarse quantizer works; isotropic noise would
    understate achievable recall at any nprobe.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_centers, dim))
    items = centers[rng.integers(0, num_centers, num_items)]
    items = (items + noise * rng.standard_normal(items.shape)).astype(np.float32)
    users = centers[rng.integers(0, num_centers, num_users)]
    users = (users + noise * rng.standard_normal(users.shape)).astype(np.float32)
    seen_users = np.repeat(np.arange(num_users), seen_per_user)
    seen_items = rng.integers(0, num_items, size=seen_users.size)
    exclude = ExclusionMask.from_pairs(seen_users, seen_items,
                                       num_users, num_items)
    return users, items, exclude


def _recall_at_k(approx_items: np.ndarray, exact_items: np.ndarray) -> float:
    """Mean per-user overlap of the approximate and exact top-K sets."""
    k = exact_items.shape[1]
    hits = sum(np.intersect1d(a[a >= 0], e).size
               for a, e in zip(approx_items, exact_items))
    return hits / float(approx_items.shape[0] * k)


def measure_ann_tradeoff(request_users: int = 1024, rounds: int = 3) -> dict:
    """Recall@10 vs users/sec of IVF retrieval across nprobe × quant.

    The exact blocked retriever on the same ≥100k-item workload is both
    the timing baseline (speedups are same-machine ratios) and the
    ground truth for recall.
    """
    user_matrix, item_matrix, exclude = _clustered_catalog()
    backend = MatrixBackend(user_matrix, item_matrix)
    users = np.arange(request_users, dtype=np.int64)

    exact = TopKRetriever(backend, exclude=exclude)
    exact_seconds = best_time(lambda: exact.retrieve(users, TOP_K), rounds)
    exact_items = exact.retrieve(users, TOP_K).items

    # one seeded k-means shared by every quantization level — the sweep
    # compares scoring precision, not clustering luck
    from repro.serve.ann import default_num_lists, kmeans

    num_lists = default_num_lists(item_matrix.shape[0])
    clustering = kmeans(item_matrix, num_lists, seed=0)
    results: dict = {
        "workload": {
            "num_users": backend.num_users,
            "num_items": backend.num_items,
            "dim": backend.dim,
            "k": TOP_K,
            "request_users": request_users,
            "num_lists": num_lists,
            "clustered_centers": 256,
        },
        "exact": {
            "seconds": exact_seconds,
            "users_per_sec": request_users / exact_seconds,
        },
        "sweep": [],
    }
    for quant in ANN_QUANTS:
        index = IVFIndex(item_matrix, quant=quant, clustering=clustering)
        for nprobe in ANN_NPROBES:
            approx = ApproxRetriever(backend, index, exclude=exclude,
                                     nprobe=nprobe)
            seconds = best_time(lambda: approx.retrieve(users, TOP_K),
                                 rounds)
            recall = _recall_at_k(approx.retrieve(users, TOP_K).items,
                                  exact_items)
            results["sweep"].append({
                "quant": quant,
                "nprobe": nprobe,
                "seconds": seconds,
                "users_per_sec": request_users / seconds,
                "speedup_vs_exact": exact_seconds / seconds,
                "recall_at_10": recall,
                "compressed_mbytes": index.compressed_nbytes / 2**20,
            })
    return results


def measure() -> dict:
    return {"retrieval": measure_retrieval_throughput(),
            "ann": measure_ann_tradeoff()}


def gate(payload: dict, gate) -> None:
    scaling = payload["retrieval"]["scaling"]
    gate.check("serving-batch-scaling",
               scaling["monotone_frac"] >= MONOTONE_MIN,
               f"worst consecutive batch-size ratio "
               f"{scaling['monotone_frac']:.2f} (floor {MONOTONE_MIN}; "
               f"order {scaling['batch_order']})")
    ann = payload["ann"]
    num_items = ann["workload"]["num_items"]
    gate.check("ann-workload-size", num_items >= ANN_ITEMS_MIN,
               f"{num_items:,} items (floor {ANN_ITEMS_MIN:,})")
    qualifying = [row for row in ann["sweep"]
                  if row["recall_at_10"] >= ANN_RECALL_MIN
                  and row["speedup_vs_exact"] >= ANN_SPEEDUP_MIN]
    fastest = max(qualifying or ann["sweep"],
                  key=lambda row: row["speedup_vs_exact"])
    gate.check("ann-recall-speedup", bool(qualifying),
               ("fastest qualifying" if qualifying
                else "no configuration qualifies; fastest of the sweep")
               + f": quant={fastest['quant']} nprobe={fastest['nprobe']} at "
               f"{fastest['speedup_vs_exact']:.2f}x exact, recall@10 "
               f"{fastest['recall_at_10']:.3f} (floors {ANN_SPEEDUP_MIN}x / "
               f"{ANN_RECALL_MIN})")


if __name__ == "__main__":
    sys.exit(main("serving", measure, gate))
