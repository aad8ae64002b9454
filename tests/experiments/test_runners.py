"""Tests of the experiment runner at tiny scale (fast, smoke-level)."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    MODEL_NAMES,
    ExperimentScale,
    run_experiment,
    run_table1,
)

# Minimal scale so runner tests stay quick; the claims are tested on
# hand-written results in test_claims.py.
SMOKE = ExperimentScale(num_users=40, num_items=100, num_negatives=20,
                        epochs=2, steps_per_epoch=3, batch_users=8,
                        per_user=2, pretrain_epochs=1)


class TestTable1:
    def test_rows_for_all_datasets(self):
        rows = run_table1(SMOKE)
        assert set(rows) == {"yelp-like", "movielens-like", "taobao-like"}
        for row in rows.values():
            assert row["User #"] == SMOKE.num_users
            assert row["Interaction #"] > 0
            assert 0 < row["density"] < 1

    def test_behavior_schemas_match_the_paper(self):
        rows = run_table1(SMOKE)
        assert rows["taobao-like"]["Interactive Behavior Type"] == \
            "{page_view, favorite, cart, purchase}"
        assert rows["movielens-like"]["Interactive Behavior Type"] == \
            "{dislike, neutral, like}"
        assert rows["yelp-like"]["Interactive Behavior Type"] == \
            "{tip, dislike, neutral, like}"


class TestTable2:
    def test_every_model_ranked(self):
        results = run_experiment("table2", "taobao", SMOKE)
        assert list(results) == list(MODEL_NAMES)
        for row in results.values():
            assert 0.0 <= row["HR@10"] <= 1.0
            assert 0.0 <= row["NDCG@10"] <= row["HR@10"] + 1e-9


class TestTable3:
    def test_sweep_columns(self):
        results = run_experiment("table3", "yelp", SMOKE)
        assert list(results) == ["BiasMF", "NCF-N", "AutoRec", "NADE",
                                 "CF-UIcA", "NMTR", "GNMR"]
        assert list(results["GNMR"]) == [f"{metric}@{n}" for metric in ("HR", "NDCG")
                                         for n in (1, 3, 5, 7, 9)]


class TestFig2:
    def test_all_variants_present(self):
        results = run_experiment("fig2", "taobao", SMOKE)
        assert set(results) == {"GNMR-be", "GNMR-ma", "GNMR"}


class TestTable4:
    def test_variant_labels(self):
        results = run_experiment("table4", "taobao", SMOKE)
        assert "GNMR" in results
        assert "only purchase" in results
        assert "w/o page_view" in results
        # one w/o per behavior + only-target + full
        assert len(results) == 4 + 2


class TestFig3:
    def test_depths_and_reference(self):
        results = run_experiment("fig3", "taobao", SMOKE)
        assert set(results) == {"GNMR-0", "GNMR-1", "GNMR-2", "GNMR-3"}
        assert results["GNMR-2"]["HR% vs GNMR-2"] == pytest.approx(0.0)
        assert results["GNMR-2"]["NDCG% vs GNMR-2"] == pytest.approx(0.0)
        assert "HR% vs GNMR-2" in results["GNMR-0"]


class TestExt:
    def test_bpr_row_trains_with_bpr(self, monkeypatch):
        """The one row with TrainConfig overrides: the loss, nothing else."""
        import repro.models.base as base

        losses = []
        fit = base.Recommender.fit

        def spy(self, train, config=None, **kwargs):
            losses.append(config.loss)
            return fit(self, train, config, **kwargs)

        monkeypatch.setattr(base.Recommender, "fit", spy)
        results = run_experiment("ext", "taobao", SMOKE)
        assert list(results)[-1] == "BPR loss (vs hinge)"
        assert losses == ["hinge"] * 5 + ["bpr"]


def test_every_experiment_has_a_title_rows_and_claims():
    assert set(EXPERIMENTS) == {"table2", "table3", "table4", "fig2", "fig3", "ext"}
    for experiment in EXPERIMENTS.values():
        assert experiment.title and experiment.claims


def test_paper_numbers_in_the_shape_of_the_results():
    assert EXPERIMENTS["table2"].paper("yelp")["GNMR"] == {"HR@10": 0.848, "NDCG@10": 0.559}
    assert EXPERIMENTS["table3"].paper("yelp")["NADE"]["NDCG@9"] == 0.497
    assert EXPERIMENTS["table4"].paper("movielens")["only like"] == {
        "HR@10": 0.835, "NDCG@10": 0.559}
    # the paper reports Table III on Yelp only, Table IV not on Taobao,
    # and nothing on a scenario or for the figures
    for name, dataset in [("table2", "tmall-like"), ("table3", "taobao"),
                          ("table4", "taobao"), ("fig2", "yelp"), ("ext", "taobao")]:
        assert EXPERIMENTS[name].paper(dataset) is None
