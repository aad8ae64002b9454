"""Tests of the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


def _dying_encode(text, rows, first, where, options):
    """A block function whose process ends without an answer."""
    import os

    os._exit(3)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table2"])
        assert args.dataset == "taobao"
        assert not args.json

    def test_train_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "SVD"])

    def test_train_has_no_dist_flag(self, capsys):
        # one process applies every step to one table per name; no
        # deprecation shim for the flags or the subcommand
        for argv, message in [
                (["train", "--shards", "2", "--dist", "sync"],
                 "unrecognized arguments: --shards 2 --dist sync"),
                (["train", "--shard-strategy", "hash"],
                 "unrecognized arguments: --shard-strategy hash"),
                (["reshard", "--checkpoint", "m.npz", "--shards", "2"],
                 "invalid choice: 'reshard'")]:
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err

    def test_scale_overrides(self):
        args = build_parser().parse_args(
            ["train", "--users", "30", "--items", "60", "--epochs", "2"])
        assert args.users == 30 and args.items == 60 and args.epochs == 2


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--users", "30", "--items", "60"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "taobao-like" in out

    def test_train_tiny(self, capsys, tmp_path):
        code = main(["train", "--model", "BiasMF", "--dataset", "taobao",
                     "--users", "30", "--items", "80", "--epochs", "2",
                     "--checkpoint", str(tmp_path / "m.npz")])
        assert code == 0
        out = capsys.readouterr().out
        assert "HR@10" in out
        assert (tmp_path / "m.npz").exists()

    def test_run_fig2_tiny(self, capsys):
        code = main(["run", "fig2", "--dataset", "taobao",
                     "--users", "30", "--items", "80", "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GNMR-ma" in out

    def test_run_json_flag(self, capsys):
        code = main(["run", "fig3", "--dataset", "taobao", "--users", "30",
                     "--items", "80", "--epochs", "1", "--json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GNMR-0" in out
        payload = json.loads(out[out.index("\n{") + 1:])
        assert set(payload) == {"GNMR-0", "GNMR-1", "GNMR-2", "GNMR-3", "claims"}
        assert set(payload["claims"]) == {"metrics-valid", "propagation-helps"}
        for claim in payload["claims"].values():
            assert isinstance(claim["holds"], bool) and claim["detail"]

    def test_run_table3_beside_the_paper(self, capsys):
        """Table III was reachable only through a pytest-benchmark wrapper;
        on Yelp it prints the paper's numbers beside ours, then its claims."""
        code = main(["run", "table3", "--dataset", "yelp", "--users", "30",
                     "--items", "80", "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "HR@9 (ours)" in out and "HR@9 (paper)" in out
        assert "0.831" in out  # GNMR's HR@9 in the paper
        assert "claim gnmr-top-two: " in out

    def test_train_full_catalog_eval(self, capsys):
        code = main(["train", "--model", "BiasMF", "--dataset", "taobao",
                     "--users", "25", "--items", "60", "--epochs", "1",
                     "--eval", "full"])
        assert code == 0
        assert "Recall@10" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--fanout", "5"),
                                             ("--workers", "3")])
    def test_async_only_flag_without_async_mode_exits_2(self, capsys, flag,
                                                        value):
        # these flags used to be dropped silently under --propagation full
        code = main(["train", "--model", "BiasMF", "--users", "30",
                     "--items", "80", "--epochs", "1", flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert f"{flag} only applies to --propagation async" in captured.err
        assert "training" not in captured.out  # refused before any work

    @pytest.mark.parametrize("model", ["AutoRec", "CDAE", "NMTR"])
    def test_models_with_their_own_loop_train(self, capsys, model):
        # `train` passes resume_from= to every model's fit()
        code = main(["train", "--model", model, "--users", "40",
                     "--items", "60", "--epochs", "1"])
        assert code == 0
        assert "HR@10=" in capsys.readouterr().out

    @pytest.mark.parametrize("model", ["NMTR", "CDAE"])
    def test_save_state_resume_round_trip(self, capsys, tmp_path, model):
        """1 epoch with --save-state, then --resume to 2, ends where 2
        epochs in one run end: same metrics, same parameters."""
        from repro.utils.artifact import read_artifact

        state = str(tmp_path / "state.npz")
        base = ["train", "--model", model, "--users", "40", "--items", "60"]
        assert main(base + ["--epochs", "2", "--checkpoint",
                            str(tmp_path / "straight.npz")]) == 0
        straight = capsys.readouterr().out.splitlines()
        assert main(base + ["--epochs", "1", "--save-state", state]) == 0
        capsys.readouterr()
        assert main(base + ["--epochs", "2", "--resume", state, "--checkpoint",
                            str(tmp_path / "resumed.npz")]) == 0
        resumed = capsys.readouterr().out.splitlines()
        assert resumed[1].startswith("HR@10=") and resumed[1] == straight[1]
        arrays_a, _ = read_artifact(tmp_path / "straight.npz")
        arrays_b, _ = read_artifact(tmp_path / "resumed.npz")
        assert sorted(arrays_a) == sorted(arrays_b)
        for name in arrays_a:
            np.testing.assert_array_equal(arrays_a[name], arrays_b[name])

    @pytest.mark.parametrize("model", ["AutoRec", "CDAE", "NMTR"])
    def test_async_on_a_model_without_blocks_exits_2(self, capsys, model):
        # it used to be ignored: these models trained full-graph anyway
        code = main(["train", "--model", model, "--users", "40", "--items",
                     "60", "--epochs", "1", "--propagation", "async"])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and model in err[0] and "async" in err[0]
        assert "HR@10" not in captured.out


class TestRecommend:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        """A tiny GNMR trained and checkpointed through the CLI."""
        path = tmp_path_factory.mktemp("ckpt") / "gnmr.npz"
        code = main(["train", "--model", "GNMR", "--dataset", "taobao",
                     "--users", "25", "--items", "60", "--epochs", "1",
                     "--checkpoint", str(path)])
        assert code == 0
        return path

    def test_emits_valid_topk_json(self, checkpoint, capsys):
        capsys.readouterr()  # drop training output
        code = main(["recommend", "--checkpoint", str(checkpoint),
                     "--topk", "4", "--user-ids", "0,2,5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "GNMR"
        assert payload["backend"] == "matrix"
        assert payload["k"] == 4
        recs = payload["recommendations"]
        assert [entry["user"] for entry in recs] == [0, 2, 5]
        for entry in recs:
            assert len(entry["items"]) == 4
            for rec in entry["items"]:
                assert 0 <= rec["item"] < payload["num_items"]

    def test_seen_items_excluded(self, checkpoint, capsys):
        """Recommendations never contain the user's training positives."""
        from repro.data import leave_one_out_split
        from repro.experiments import ExperimentScale, dataset_by_name

        capsys.readouterr()
        code = main(["recommend", "--checkpoint", str(checkpoint),
                     "--topk", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # rebuild the same deterministic split the command served from
        scale = ExperimentScale(num_users=25, num_items=60)
        split = leave_one_out_split(dataset_by_name("taobao", scale))
        for entry in payload["recommendations"]:
            seen = set(split.train.user_target_items(entry["user"]).tolist())
            recommended = {rec["item"] for rec in entry["items"]}
            assert not (recommended & seen)

    @pytest.mark.parametrize("user_ids, named", [
        ("1,x", "'x' is not an integer user id"),
        ("1,,2", "'' is not an integer user id"),
        ("0,25,-1", "user ids out of range [0, 25): [25, -1]"),
    ])
    def test_bad_user_ids_exit_2_naming_them(self, checkpoint, capsys,
                                             user_ids, named):
        capsys.readouterr()
        code = main(["recommend", "--checkpoint", str(checkpoint),
                     "--user-ids", user_ids])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and named in err[0]

    def test_metadata_restores_scale(self, checkpoint, capsys):
        """No --users/--items flags needed: checkpoint metadata has them."""
        capsys.readouterr()
        code = main(["recommend", "--checkpoint", str(checkpoint),
                     "--topk", "3", "--user-ids", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_users"] == 25
        assert payload["num_items"] == 60


class TestScenarios:
    def test_scenarios_table(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "tmall-like" in out and "gowalla-like" in out

    def test_scenarios_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "tmall-like" in payload
        assert payload["tmall-like"]["target"] == "buy"

    def test_train_with_scenario(self, capsys):
        code = main(["train", "--model", "BiasMF", "--scenario", "tmall-like",
                     "--users", "25", "--items", "60", "--epochs", "1"])
        assert code == 0
        assert "HR@10" in capsys.readouterr().out

    def test_train_temporal_split(self, capsys):
        code = main(["train", "--model", "BiasMF", "--scenario",
                     "gowalla-like", "--users", "25", "--items", "60",
                     "--epochs", "1", "--split", "temporal"])
        assert code == 0
        assert "HR@10" in capsys.readouterr().out


class TestIngest:
    @pytest.fixture()
    def event_log(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(4)
        rows = ["user,item,behavior,timestamp"]
        for _ in range(300):
            behavior = ["click", "click", "cart", "buy"][rng.integers(0, 4)]
            rows.append(f"u{rng.integers(0, 20)},i{rng.integers(0, 40)},"
                        f"{behavior},{rng.integers(1, 9999)}")
        path = tmp_path / "events.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_ingest_produces_artifact(self, event_log, tmp_path, capsys):
        out = tmp_path / "events.npz"
        code = main(["ingest", str(event_log), "--out", str(out),
                     "--target", "buy", "--chunk-rows", "64"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows_kept"] == 300
        assert payload["chunks"] == 5
        assert out.exists()

    def test_ingest_then_train_from_artifact(self, event_log, tmp_path,
                                             capsys):
        out = tmp_path / "events.npz"
        assert main(["ingest", str(event_log), "--out", str(out),
                     "--target", "buy"]) == 0
        capsys.readouterr()
        code = main(["train", "--model", "BiasMF", "--scenario", str(out),
                     "--epochs", "1"])
        assert code == 0
        assert "HR@10" in capsys.readouterr().out

    def test_recommend_serves_the_split_it_was_trained_on(
            self, event_log, tmp_path, capsys, monkeypatch):
        """The checkpoint records the split; `recommend` rebuilds the
        training graph and seen-item mask from it, not leave-one-out."""
        import repro.cli as cli
        from repro.data import (
            leave_one_out_split,
            resolve_scenario,
            temporal_split,
        )

        out, checkpoint = tmp_path / "events.npz", tmp_path / "m.npz"
        assert main(["ingest", str(event_log), "--out", str(out),
                     "--target", "buy"]) == 0
        assert main(["train", "--model", "BiasMF", "--scenario", str(out),
                     "--epochs", "1", "--split", "temporal",
                     "--checkpoint", str(checkpoint)]) == 0
        built = []
        build_service = cli._build_service

        def capture(*args):
            built.append(build_service(*args))
            return built[-1]

        monkeypatch.setattr(cli, "_build_service", capture)
        assert main(["recommend", "--checkpoint", str(checkpoint),
                     "--topk", "3"]) == 0
        capsys.readouterr()
        dataset = resolve_scenario(str(out))

        def seen_counts(train):
            return [len(set(train.user_target_items(user).tolist()))
                    for user in range(dataset.num_users)]

        served = built[0].exclusions.counts(
            list(range(dataset.num_users))).tolist()
        assert served == seen_counts(
            temporal_split(dataset, test_fraction=0.2).train)
        assert served != seen_counts(leave_one_out_split(dataset).train)

    def test_ingest_reingest_byte_identical(self, event_log, tmp_path,
                                            capsys):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        assert main(["ingest", str(event_log), "--out", str(a),
                     "--target", "buy", "--chunk-rows", "50"]) == 0
        assert main(["ingest", str(event_log), "--out", str(b),
                     "--target", "buy", "--chunk-rows", "128"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_ingest_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "x.npz"), "--target", "buy"])
        assert code == 1
        assert "ingest failed" in capsys.readouterr().err

    def test_ingest_worker_death_fails_cleanly(self, event_log, tmp_path,
                                               monkeypatch, capsys):
        """A worker that dies mid-block (as one killed for memory does)
        breaks the pool: reported as a failed ingest, no process left."""
        import multiprocessing

        from repro.data import ingest

        monkeypatch.setattr(ingest, "_worker_count", lambda: 2)
        monkeypatch.setattr(ingest, "_encode_block", _dying_encode)
        code = main(["ingest", str(event_log), "--out", str(tmp_path / "x.npz"),
                     "--target", "buy", "--chunk-rows", "50"])
        assert code == 1
        assert "ingest failed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_ingest_wrong_column_name_fails_cleanly(self, event_log, tmp_path,
                                                    capsys):
        """Even under --on-bad-rows skip: the header lacks the column."""
        code = main(["ingest", str(event_log), "--out", str(tmp_path / "x.npz"),
                     "--target", "buy", "--item-col", "sku",
                     "--on-bad-rows", "skip"])
        assert code == 1
        assert "column 'sku' is not in the header" in capsys.readouterr().err

    def test_ingest_bad_rows_skip(self, tmp_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_text("user,item,rating,timestamp\n"
                       "a,x,5,1\na,y,nan,2\nb,x,4,3\nb,y,2,4\na,z,5,5\n")
        out = tmp_path / "bad.npz"
        code = main(["ingest", str(log), "--out", str(out), "--target",
                     "like", "--rating-col", "rating",
                     "--on-bad-rows", "skip"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows_dropped_bad"] == 1


class TestHostileFiles:
    """A file that is not an artifact is one line on stderr and exit 2 —
    from whichever flag it came in through — not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["recommend", "--checkpoint", "{junk}"],
        ["train", "--scenario", "{junk}", "--epochs", "1"],
        ["train", "--model", "BiasMF", "--users", "30", "--items", "80",
         "--epochs", "1", "--resume", "{junk}"],
    ], ids=["recommend", "train-scenario", "train-resume"])
    def test_junk_file_exits_2_naming_it(self, argv, tmp_path, capsys):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(bytes(range(256)) + b"\x00" * 44)  # 300 bytes
        code = main([arg.format(junk=junk) for arg in argv])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert str(junk) in err[0] and "not a readable artifact" in err[0]
