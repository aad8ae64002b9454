"""Command-line interface for the reproduction harness.

Examples::

    python -m repro.cli stats                       # Table I
    python -m repro.cli run table2 --dataset yelp   # one Table-II column
    python -m repro.cli run table3 --dataset yelp   # + one line per claim
    python -m repro.cli run fig2 --dataset movielens
    python -m repro.cli train --dataset taobao --model GNMR --epochs 20
    python -m repro.cli scenarios                   # the scenario registry
    python -m repro.cli train --scenario tmall-like # a synthetic preset
    python -m repro.cli ingest log.csv --out d.npz --target buy  # real log
    python -m repro.cli train --scenario d.npz --split temporal
    python -m repro.cli recommend --checkpoint m.npz --topk 10  # JSON top-K
    python -m repro.cli serve --checkpoint m.npz --port 8080    # HTTP tier
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments import (
    EXPERIMENTS,
    MODEL_NAMES,
    SMALL_SCALE,
    ExperimentScale,
    dataset_by_name,
    format_claims,
    format_comparison,
    format_table,
    make_model,
    run_experiment,
    run_table1,
)
from repro.utils.artifact import ArtifactError


#: distinguishes "--fanout not given" from "--fanout 0" (which parses to
#: None = no cap and must still reach TrainConfig). Must not be a string:
#: argparse runs string defaults through the ``type`` callable.
_FANOUT_UNSET = object()


def _fanout_arg(text: str):
    """argparse type for ``--fanout``: '10', '0' (no cap), or '10,5'."""
    from repro.graph.layered import parse_fanout

    try:
        return parse_fanout(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _scale_from_args(args) -> ExperimentScale:
    overrides = {}
    if args.users:
        overrides["num_users"] = args.users
    if args.items:
        overrides["num_items"] = args.items
        # keep the candidate set feasible for small catalogs
        overrides["num_negatives"] = min(SMALL_SCALE.num_negatives,
                                         max(1, args.items // 3))
    if getattr(args, "epochs", None):
        overrides["epochs"] = args.epochs
    if not overrides:
        return SMALL_SCALE
    from dataclasses import replace

    return replace(SMALL_SCALE, **overrides)


def cmd_stats(args) -> int:
    rows = run_table1(_scale_from_args(args))
    printable = {name: {k: v for k, v in row.items() if k != "per-behavior"}
                 for name, row in rows.items()}
    print(format_table(printable, title="Table I — dataset statistics"))
    return 0


def cmd_run(args) -> int:
    """One experiment: its table (beside the paper's numbers where it
    reports them), then one line per shape claim. A claim that does not
    hold is a finding, not an error: the exit status stays 0."""
    scale = _scale_from_args(args)
    experiment = EXPERIMENTS[args.experiment]
    results = run_experiment(args.experiment, args.dataset, scale)
    title = f"{experiment.title} on {args.dataset}"
    paper = experiment.paper(args.dataset)
    print(format_comparison(results, paper, title=title) if paper
          else format_table(results, title=title))
    claims = experiment.check(results, scale)
    print(format_claims(claims))
    if args.json:
        print(json.dumps({**results, "claims": claims}, indent=2))
    return 0


def _resolve_train_dataset(args, scale):
    """Dataset + (possibly rescaled) scale for ``train``.

    ``--scenario`` wins over ``--dataset``: a registry name builds the
    synthetic preset at the requested (or default) scale, an
    artifact path loads the ingested log as-is. Either way the scale is
    re-anchored to the actual dataset so embedding tables and the
    negative-candidate count fit the data, not the synthetic defaults.
    """
    from dataclasses import replace

    if getattr(args, "scenario", None):
        from repro.data import resolve_scenario

        dataset = resolve_scenario(args.scenario, num_users=args.users,
                                   num_items=args.items, seed=scale.seed)
        scale = replace(scale,
                        num_users=dataset.num_users,
                        num_items=dataset.num_items,
                        num_negatives=min(scale.num_negatives,
                                          max(1, dataset.num_items // 3)))
        return dataset, scale
    return dataset_by_name(args.dataset, scale), scale


def _split_dataset(dataset, protocol: str, test_fraction: float, seed: int):
    """Leave-one-out or temporal split behind one switch."""
    import numpy as np

    from repro.data import leave_one_out_split, temporal_split

    if protocol == "temporal":
        return temporal_split(dataset, test_fraction=test_fraction)
    return leave_one_out_split(dataset, rng=np.random.default_rng(seed))


def cmd_train(args) -> int:
    import numpy as np

    from repro.data import build_eval_candidates
    from repro.eval import evaluate_full_ranking, evaluate_model
    from repro.tensor import default_dtype
    from repro.utils import save_checkpoint

    if args.propagation != "async":
        for flag, given in (("--fanout", args.fanout is not _FANOUT_UNSET),
                            ("--workers", args.workers is not None)):
            if given:
                print(f"{flag} only applies to --propagation async "
                      f"(got --propagation {args.propagation})",
                      file=sys.stderr)
                return 2
    scale = _scale_from_args(args)
    dataset, scale = _resolve_train_dataset(args, scale)
    split = _split_dataset(dataset, args.split, args.test_fraction, scale.seed)
    candidates = build_eval_candidates(
        split.train, split.test_users, split.test_items,
        num_negatives=scale.num_negatives, rng=np.random.default_rng(scale.seed))
    # --dtype selects the compute precision end-to-end: the ambient default
    # covers baselines built from numpy arrays, the GNMR override covers the
    # engine/adjacency path, and TrainConfig covers the training loop.
    overrides = {"dtype": args.dtype} if args.dtype else None
    with default_dtype(args.dtype):  # None → ambient default
        model = make_model(args.model, split.train, scale,
                           gnmr_overrides=overrides)
    print(f"training {args.model} on {dataset.name} "
          f"({model.num_parameters():,} parameters, dtype={args.dtype or 'float64'}, "
          f"propagation={args.propagation})")
    train_overrides = dict({"dtype": args.dtype} if args.dtype else {})
    train_overrides["propagation"] = args.propagation
    if args.fanout is not _FANOUT_UNSET:
        train_overrides["fanout"] = args.fanout
    if args.workers is not None:
        train_overrides["workers"] = args.workers
    if args.save_state:
        train_overrides["save_state"] = args.save_state
        if args.save_every_steps is not None:
            train_overrides["save_every_steps"] = args.save_every_steps
    try:
        model.fit(split.train, scale.train_config(**train_overrides),
                  resume_from=args.resume)
    except ValueError as exc:
        # a flag combination training refuses: --resume under a different
        # config, --propagation async on a model that samples no blocks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.eval == "full":
        outcome = evaluate_full_ranking(model, split.train,
                                        split.test_users, split.test_items)
        print(f"Recall@10={outcome.recall(10):.3f} "
              f"NDCG@10={outcome.ndcg(10):.3f} MRR={outcome.mrr():.3f} "
              f"(full catalog)")
    else:
        outcome = evaluate_model(model, candidates)
        print(f"HR@10={outcome.hr(10):.3f} NDCG@10={outcome.ndcg(10):.3f} "
              f"MRR={outcome.mrr():.3f}")
    if args.checkpoint:
        # scale/dtype/split ride along so `recommend` can rebuild this exact
        # model over the graph it was trained on
        path = save_checkpoint(model, args.checkpoint,
                               metadata={"model": args.model,
                                         "dataset": dataset.name,
                                         "dataset_arg": args.scenario or args.dataset,
                                         "num_users": scale.num_users,
                                         "num_items": scale.num_items,
                                         "dtype": args.dtype,
                                         "split": args.split,
                                         "test_fraction": args.test_fraction,
                                         "split_seed": scale.seed,
                                         "HR@10": outcome.hr(10)})
        print(f"checkpoint written to {path}")
    return 0


def _rebuild_serving_model(args):
    """Model + split for the serving commands (checkpoint or in-process).

    Checkpoint metadata restores the model class, dataset, split, scale
    and dtype, so a serving process needs no training-side
    configuration; without a checkpoint the model is trained in-process
    at the requested scale. Returns ``(model, split, dataset, name)``.
    """
    from repro.tensor import default_dtype
    from repro.utils import load_checkpoint, peek_checkpoint

    meta = peek_checkpoint(args.checkpoint) if args.checkpoint else {}
    model_name = args.model or meta.get("model") or "GNMR"
    dataset_name = args.dataset or meta.get("dataset_arg") or "taobao"
    dtype = args.dtype or meta.get("dtype")
    if args.users is None and meta.get("num_users"):
        args.users = int(meta["num_users"])
    if args.items is None and meta.get("num_items"):
        args.items = int(meta["num_items"])
    scale = _scale_from_args(args)
    if dataset_name.endswith(".npz"):
        # checkpoint trained from an ingested artifact: reload the log
        from repro.data import resolve_scenario

        dataset = resolve_scenario(dataset_name)
    else:
        dataset = dataset_by_name(dataset_name, scale)
    # the split the model was trained on — its train graph and exclusion
    # mask; a checkpoint that predates the record was served leave-one-out
    # from rng(0), and still is
    split = _split_dataset(dataset, meta.get("split", "loo"),
                           meta.get("test_fraction", 0.2),
                           meta.get("split_seed", 0))

    overrides = dict({"dtype": dtype} if dtype else {})
    if args.checkpoint and model_name == "GNMR":
        # pre-training only shapes the initialization, which the checkpoint
        # overwrites anyway — skip the wasted autoencoder epochs
        overrides["pretrain"] = False
    with default_dtype(dtype):  # None → ambient default
        model = make_model(model_name, split.train, scale,
                           gnmr_overrides=overrides or None)
    if args.checkpoint:
        load_checkpoint(model, args.checkpoint)
    else:
        model.fit(split.train, scale.train_config(
            **({"dtype": dtype} if dtype else {})))
    return model, split, dataset, model_name


def _build_service(args, model, split):
    """The RecommendationService behind ``recommend`` and ``serve``."""
    from repro.serve import RecommendationService

    ann = {"nprobe": args.nprobe, "quant": args.quant,
           "num_lists": args.num_lists, "shortlist_k": args.shortlist_k}
    return RecommendationService(
        model, train=split.train, dtype=args.serve_dtype,
        k_default=args.topk, batch_users=args.batch_users,
        exclude=None if args.include_seen else "target",
        retriever=args.retriever, ann=ann)


def cmd_recommend(args) -> int:
    """Serve top-K recommendations as JSON (stdout stays machine-readable)."""
    import numpy as np

    requested = []
    for token in (args.user_ids.split(",") if args.user_ids else ()):
        try:
            requested.append(int(token))
        except ValueError:
            print(f"--user-ids: {token!r} is not an integer user id",
                  file=sys.stderr)
            return 2
    model, split, dataset, model_name = _rebuild_serving_model(args)
    service = _build_service(args, model, split)
    if requested:
        users = np.array(requested, dtype=np.int64)
        bad = users[(users < 0) | (users >= model.num_users)]
        if bad.size:
            print(f"user ids out of range [0, {model.num_users}): "
                  f"{bad.tolist()}", file=sys.stderr)
            return 2
    else:
        users = np.arange(min(8, model.num_users), dtype=np.int64)
    result = service.recommend(users, k=args.topk)
    payload = {
        "model": model_name,
        "dataset": dataset.name,
        "k": int(args.topk),
        "num_users": model.num_users,
        "num_items": model.num_items,
        "backend": "matrix" if service.store is not None else "brute-force",
        "retriever": args.retriever,
        "snapshot_version": service.snapshot_version,
        "exclude_seen": not args.include_seen,
        "recommendations": result.to_payload(),
    }
    if args.retriever == "ivf":
        index = service.retriever.index
        payload["ann"] = {"num_lists": int(index.num_lists),
                          "nprobe": int(service.retriever.nprobe),
                          "quant": index.quant,
                          "shortlist_k": args.shortlist_k}
    print(json.dumps(payload, indent=2))
    return 0


def cmd_serve(args) -> int:
    """Run the long-running HTTP recommendation service (repro.serve.http).

    Prints one JSON readiness line (host, bound port, endpoints) once the
    socket is listening — also written to ``--ready-file`` for process
    supervisors — then blocks until SIGTERM/SIGINT, and shuts the
    batcher, snapshot watcher, and socket down cleanly.
    """
    import signal
    import threading
    from pathlib import Path

    from repro.serve.http import RecommendationHTTPServer

    model, split, dataset, model_name = _rebuild_serving_model(args)
    service = _build_service(args, model, split)
    server = RecommendationHTTPServer(
        service, host=args.host, port=args.port,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        poll_interval_ms=args.poll_interval_ms)
    server.start()
    ready = {"serving": True, "host": args.host, "port": server.port,
             "model": model_name, "dataset": dataset.name,
             "retriever": args.retriever, "k_default": args.topk,
             "max_batch": args.max_batch, "max_wait_ms": args.max_wait_ms,
             "endpoints": ["/recommend", "/healthz", "/stats"]}
    line = json.dumps(ready)
    print(line, flush=True)
    if args.ready_file:
        Path(args.ready_file).write_text(line + "\n")
    # tests drive cmd_serve from a worker thread, where signal handlers
    # are unavailable — they stop it through an injected args.stop_event
    stop = getattr(args, "stop_event", None) or threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        server.close()
    print(json.dumps({"serving": False}), flush=True)
    return 0


def cmd_scenarios(args) -> int:
    """Print the scenario registry (JSON with --json, table otherwise)."""
    from repro.data import SCENARIOS

    rows = {name: spec.describe() for name, spec in SCENARIOS.items()}
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(format_table(rows, title="Scenario registry "
                                        "(repro.data.scenarios)",
                           name_header="scenario"))
    return 0


def cmd_ingest(args) -> int:
    """Stream a CSV event log into a reusable dataset artifact.

    Prints one JSON report (rows read/kept/dropped, entity counts,
    per-behavior inventory, artifact path). Memory stays bounded by
    ``--chunk-rows`` regardless of the log size (see
    :mod:`repro.data.ingest`).
    """
    from pathlib import Path

    from repro.data import IngestOptions, ingest_csv, save_dataset_npz

    behavior_col = None if args.rating_col else args.behavior_col
    options = IngestOptions(
        delimiter=args.delimiter,
        user_col=args.user_col,
        item_col=args.item_col,
        behavior_col=behavior_col,
        rating_col=args.rating_col,
        timestamp_col=args.timestamp_col,
        has_header=not args.no_header,
        on_bad_rows=args.on_bad_rows,
        chunk_rows=args.chunk_rows,
    )
    behaviors = tuple(args.behaviors.split(",")) if args.behaviors else None
    try:
        dataset, report = ingest_csv(
            args.csv, name=args.name or Path(args.csv).stem,
            target_behavior=args.target, behavior_names=behaviors,
            options=options)
    except (ValueError, OSError) as exc:
        print(f"ingest failed: {exc}", file=sys.stderr)
        return 1
    path = save_dataset_npz(dataset, args.out,
                            has_timestamps=report.has_timestamps)
    payload = {"artifact": str(path), "name": dataset.name,
               "target_behavior": dataset.target_behavior,
               "behavior_names": list(dataset.behavior_names),
               **report.as_dict()}
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GNMR reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print Table-I dataset statistics")
    p_run = sub.add_parser("run", help="run one paper experiment")
    p_run.add_argument("experiment", choices=list(EXPERIMENTS))
    p_run.add_argument("--dataset", default="taobao",
                       choices=["movielens", "yelp", "taobao"])
    p_run.add_argument("--json", action="store_true",
                       help="also dump results as JSON")
    p_train = sub.add_parser("train", help="train and evaluate one model")
    p_train.add_argument("--model", default="GNMR", choices=list(MODEL_NAMES))
    p_train.add_argument("--dataset", default="taobao",
                         choices=["movielens", "yelp", "taobao"])
    p_train.add_argument("--scenario", default=None,
                         help="scenario-registry name (tmall-like, "
                              "gowalla-like, ... — see `repro.cli "
                              "scenarios`) or a dataset artifact .npz from "
                              "`repro.cli ingest`; overrides --dataset")
    p_train.add_argument("--split", default="loo",
                         choices=["loo", "temporal"],
                         help="evaluation split: leave-one-out (paper "
                              "protocol, default) or split-by-timestamp "
                              "(needs real timestamps; past trains, "
                              "future evaluates)")
    p_train.add_argument("--test-fraction", type=float, default=0.2,
                         help="target-interaction fraction held out by "
                              "--split temporal (timestamp quantile)")
    p_train.add_argument("--checkpoint", default=None,
                         help="write a .npz checkpoint here")
    p_train.add_argument("--dtype", default=None,
                         choices=["float32", "float64"],
                         help="compute precision (float32 = fast path, "
                              "float64 = bit-reproducible default)")
    p_train.add_argument("--eval", default="sampled",
                         choices=["sampled", "full"],
                         help="ranking protocol: sampled 99-negative "
                              "(paper) or full-catalog Recall@K/NDCG@K")
    p_train.add_argument("--propagation", default="full",
                         choices=["full", "async"],
                         help="training propagation: full graph every step "
                              "(bit-reproducible), or mini-batch steps over "
                              "fanout-capped per-hop layered blocks with "
                              "row-sparse gradients (step cost scales with "
                              "the batch; --workers picks inline or "
                              "prefetched extraction)")
    p_train.add_argument("--fanout", type=_fanout_arg, default=_FANOUT_UNSET,
                         help="neighbors sampled per node per behavior per "
                              "hop under --propagation async: one int for "
                              "every hop, or a comma-separated per-hop "
                              "schedule like '10,5' (0 = no cap; "
                              "default 10)")
    p_train.add_argument("--workers", type=int, default=None,
                         help="background block-extraction threads for "
                              "--propagation async (0 = inline; default 1; "
                              "never changes the trajectory)")
    p_train.add_argument("--save-state", default=None,
                         help="write a resumable training state here "
                              "(atomic; end of run, plus mid-run with "
                              "--save-every-steps)")
    p_train.add_argument("--save-every-steps", type=int, default=None,
                         help="also save the training state every N global "
                              "steps (requires --save-state; crash-safe "
                              "resume points)")
    p_train.add_argument("--resume", default=None,
                         help="resume bit-exactly from a training state "
                              "written by --save-state (config must match; "
                              "--epochs may grow)")
    def add_serving_args(p) -> None:
        """Flags shared by ``recommend`` and ``serve`` (one model, one
        service — the commands differ only in how requests arrive)."""
        p.add_argument("--checkpoint", default=None,
                       help="load a trained model from this .npz (its "
                            "metadata restores model/dataset/scale/dtype); "
                            "without it a model is trained in-process")
        p.add_argument("--model", default=None, choices=list(MODEL_NAMES))
        p.add_argument("--dataset", default=None,
                       choices=["movielens", "yelp", "taobao"])
        p.add_argument("--dtype", default=None,
                       choices=["float32", "float64"],
                       help="model compute precision (checkpoint metadata "
                            "wins when present)")
        p.add_argument("--serve-dtype", default="float32",
                       choices=["float32", "float64"],
                       help="embedding snapshot precision for serving")
        p.add_argument("--topk", type=int, default=10,
                       help="recommendations per user")
        p.add_argument("--batch-users", type=int, default=256,
                       help="users scored per retrieval block")
        p.add_argument("--include-seen", action="store_true",
                       help="do not exclude already-interacted items")
        p.add_argument("--retriever", default="exact",
                       choices=["exact", "ivf"],
                       help="exact blocked full-catalog scan (default) or "
                            "approximate IVF retrieval: k-means inverted "
                            "lists + compressed-domain scoring + exact "
                            "re-rank (repro.serve.ann)")
        p.add_argument("--nprobe", type=int, default=8,
                       help="inverted lists probed per query with "
                            "--retriever ivf (the recall dial)")
        p.add_argument("--quant", default="none",
                       choices=["int8", "none"],
                       help="compressed-domain scoring precision for "
                            "--retriever ivf (shortlists are always "
                            "re-ranked in full precision)")
        p.add_argument("--num-lists", type=int, default=None,
                       help="inverted lists in the IVF index "
                            "(default: sqrt of the catalog size)")
        p.add_argument("--shortlist-k", type=int, default=None,
                       help="candidates kept for exact re-ranking "
                            "(default: max(4k, 50))")

    p_rec = sub.add_parser(
        "recommend",
        help="serve top-K recommendations as JSON (repro.serve)")
    add_serving_args(p_rec)
    p_rec.add_argument("--user-ids", default=None,
                       help="comma-separated user ids (default: first 8)")
    p_serve = sub.add_parser(
        "serve",
        help="run the long-running HTTP recommendation service "
             "(repro.serve.http; see docs/operations.md)")
    add_serving_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default loopback)")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="bind port (0 picks a free port; the "
                              "readiness line reports the actual one)")
    p_serve.add_argument("--max-batch", type=int, default=32,
                         help="requests coalesced into one retrieval call "
                              "(the throughput dial)")
    p_serve.add_argument("--max-wait-ms", type=float, default=2.0,
                         help="max time a request waits for co-riders "
                              "before its batch flushes (the latency dial)")
    p_serve.add_argument("--poll-interval-ms", type=float, default=250.0,
                         help="snapshot freshness check period of the "
                              "hot-swap watcher thread")
    p_serve.add_argument("--ready-file", default=None,
                         help="also write the JSON readiness line here "
                              "(for supervisors / smoke tests)")
    p_scenarios = sub.add_parser(
        "scenarios",
        help="list the scenario registry (repro.data.scenarios)")
    p_scenarios.add_argument("--json", action="store_true",
                             help="machine-readable output")
    p_ingest = sub.add_parser(
        "ingest",
        help="stream a CSV event log into a reusable dataset artifact "
             "(repro.data.ingest; memory bounded by --chunk-rows)")
    p_ingest.add_argument("csv", help="event log to ingest")
    p_ingest.add_argument("--out", required=True,
                          help="artifact path (.npz; deterministic bytes — "
                               "re-ingesting the same log reproduces the "
                               "file exactly)")
    p_ingest.add_argument("--target", required=True,
                          help="target behavior name (e.g. buy, like)")
    p_ingest.add_argument("--name", default=None,
                          help="dataset label (default: the CSV stem)")
    p_ingest.add_argument("--behaviors", default=None,
                          help="comma-separated behavior whitelist; other "
                               "rows are dropped (and counted) BEFORE "
                               "id indexing, so filtered behaviors leave "
                               "no phantom users/items")
    p_ingest.add_argument("--behavior-col", default="behavior",
                          help="column naming each row's behavior")
    p_ingest.add_argument("--rating-col", default=None,
                          help="derive behaviors from this rating column "
                               "via the paper's partition instead of "
                               "--behavior-col")
    p_ingest.add_argument("--timestamp-col", default="timestamp",
                          help="timestamp column (missing values -> 0)")
    p_ingest.add_argument("--user-col", default="user")
    p_ingest.add_argument("--item-col", default="item")
    p_ingest.add_argument("--delimiter", default=",")
    p_ingest.add_argument("--no-header", action="store_true",
                          help="positional columns: user,item,"
                               "behavior-or-rating[,timestamp]")
    p_ingest.add_argument("--chunk-rows", type=int, default=100_000,
                          help="events per streamed chunk — the transient-"
                               "memory bound")
    p_ingest.add_argument("--on-bad-rows", default="raise",
                          choices=["raise", "skip"],
                          help="NaN/garbage ratings or timestamps: fail "
                               "fast (default) or drop and count")

    for p in (p_stats, p_run, p_train, p_rec, p_serve):
        p.add_argument("--users", type=int, default=None)
        p.add_argument("--items", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"stats": cmd_stats, "run": cmd_run, "train": cmd_train,
                "recommend": cmd_recommend, "serve": cmd_serve,
                "scenarios": cmd_scenarios,
                "ingest": cmd_ingest}
    try:
        return handlers[args.command](args)
    except ArtifactError as exc:
        # a damaged, tampered or wrong-kind file (--checkpoint, --scenario,
        # --resume): one line naming it, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
