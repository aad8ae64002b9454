"""The profile models read CSR rows: the same bits as the dense path, in a
fraction of its memory.

AutoRec, CDAE, DMF and GNMR's pre-training keep their profiles as the
graph's CSR and make dense only the rows a step, a score block or an
encoding block needs. Wherever one block holds every row — the 40 × 60
golden shape and ``TINY_SCALE`` — each product is the dense path's GEMM,
so loss histories, scores and embeddings equal (``==``) those of the dense
oracle in ``tests/helpers/dense_profiles.py``, in both dtypes. At 2 000 ×
3 000 an epoch and an evaluation stay under one dense matrix, and
pre-training under half of one.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import dense_profiles as oracle
from repro.core import AutoencoderPretrainer, pretrain_embeddings
from repro.core.pretrain import _behavior_weighted_profiles
from repro.data import (
    EvalCandidates,
    build_eval_candidates,
    leave_one_out_split,
    load_dataset_npz,
    taobao_like,
)
from repro.eval import evaluate_model
from repro.experiments import TINY_SCALE
from repro.experiments.specs import dataset_by_name
from repro.models import CDAE, DMF, AutoRec
from repro.tensor import default_dtype
from repro.train import TrainConfig

#: the frozen 40 x 60 dataset the float64 goldens score
FROZEN_TAOBAO = Path(__file__).parents[1] / "fixtures" / "seed_parity_taobao.npz"

PAIRS = {AutoRec: oracle.DenseAutoRec, CDAE: oracle.DenseCDAE,
         DMF: oracle.DenseDMF}


def _shape(name):
    """A fresh dataset (its graph built under the ambient dtype), its
    leave-one-out split and the evaluation candidates of that shape."""
    if name == "golden":
        data = load_dataset_npz(FROZEN_TAOBAO)[0]
        negatives, config = 19, TrainConfig(epochs=3, steps_per_epoch=4,
                                            batch_users=8, per_user=2,
                                            lr=5e-3, lr_decay=1.0, seed=0)
    else:
        data = dataset_by_name("taobao", TINY_SCALE)
        negatives, config = TINY_SCALE.num_negatives, TINY_SCALE.train_config()
    split = leave_one_out_split(data, rng=np.random.default_rng(0))
    candidates = build_eval_candidates(
        split.train, split.test_users, split.test_items,
        num_negatives=negatives, rng=np.random.default_rng(1))
    return split.train, candidates, config


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("shape", ["golden", "tiny"])
@pytest.mark.parametrize("model_cls", list(PAIRS), ids=lambda c: c.__name__)
def test_models_train_and_score_as_the_dense_path(model_cls, shape, dtype):
    with default_dtype(dtype):
        train, candidates, config = _shape(shape)
        runs = []
        for cls in (model_cls, PAIRS[model_cls]):
            model = cls(train, seed=0)
            losses = model.fit(train, config).series("loss")
            users = np.repeat(candidates.users, candidates.items.shape[1])
            runs.append((losses, model.score(users, candidates.items.ravel())))
    (losses, scores), (dense_losses, dense_scores) = runs
    assert losses == dense_losses
    assert scores.dtype == dense_scores.dtype == np.dtype(dtype)
    assert (scores == dense_scores).all()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("shape", ["golden", "tiny"])
def test_pretraining_trains_and_encodes_as_the_dense_path(shape, dtype):
    with default_dtype(dtype):
        train, _, _ = _shape(shape)
        codes = pretrain_embeddings(train, 8, epochs=2, seed=0)
        dense_codes, dense_losses = oracle.pretrain_embeddings(
            train, 8, epochs=2, seed=0)
        _, losses = oracle.pretrain_embeddings(
            train, 8, epochs=2, seed=0, profiles=_behavior_weighted_profiles,
            pretrainer=AutoencoderPretrainer)
    assert losses == dense_losses
    for side, dense_side in zip(codes, dense_codes):
        assert side.dtype == dense_side.dtype == np.dtype(dtype)
        assert (side == dense_side).all()


# ----------------------------------------------------------------------
# memory at 2 000 x 3 000: one dense float64 matrix is 46 MiB
# ----------------------------------------------------------------------
DENSE_BYTES = 2000 * 3000 * 8


@pytest.fixture(scope="module")
def wide():
    data = taobao_like(num_users=2000, num_items=3000, seed=5)
    split = leave_one_out_split(data, rng=np.random.default_rng(0))
    full = build_eval_candidates(
        split.train, split.test_users, split.test_items,
        num_negatives=99, rng=np.random.default_rng(1))
    split.train.graph()  # built before any peak is read
    return split.train, EvalCandidates(users=full.users[:128],
                                       items=full.items[:128])


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model_cls", list(PAIRS), ids=lambda c: c.__name__)
def test_an_epoch_and_an_evaluation_stay_under_one_dense_matrix(
        wide, model_cls):
    train, candidates = wide

    def run():
        model = model_cls(train, seed=0)
        model.fit(train, TrainConfig(epochs=1, batch_users=32, seed=0))
        evaluate_model(model, candidates)

    # a step's own dense rows and its tower or autoencoder activations peak
    # at 20-25 MB here (AutoRec 20.3, CDAE 25.0, DMF 23.7): under one dense
    # matrix, where the dense path kept two or three
    assert _peak(run) < DENSE_BYTES


def test_pretraining_stays_under_half_a_dense_matrix(wide):
    train, _ = wide
    assert _peak(lambda: pretrain_embeddings(train, 16, epochs=1)) < DENSE_BYTES / 2
