"""Float64 goldens of the models that used to train outside ``Trainer``.

Recorded before AutoRec, CDAE, NMTR and the pre-training autoencoder
moved onto the one training loop, over the frozen dataset the other
seed-parity goldens score: a model trained a few epochs must score a
fixed user × item grid bit for bit as it did, and two pre-training epochs
must produce the same embeddings. Never re-record these to make a change
pass — a change that moves them changed the training stream.
"""

import numpy as np
import pytest

from repro.core import pretrain_embeddings
from repro.models import CDAE, NMTR, AutoRec
from repro.train import TrainConfig

USERS, ITEMS = (grid.ravel() for grid in np.meshgrid(
    [0, 7, 19, 33], [1, 12, 30, 47, 59], indexing="ij"))
BASE = dict(epochs=3, steps_per_epoch=4, batch_users=8, per_user=2, lr=5e-3,
            seed=0)

GOLDEN_SCORES = {
    AutoRec: [
        0.3614149081634117, 0.05651858139655023, -0.006680055435874847,
        0.13940532974322403, 0.23802342780558206, 0.38788367452760636,
        0.1351137682032735, -0.02863286674071793, 0.08065273839238192,
        0.1903142644143281, 0.31937875650405884, 0.1492775365935277,
        -0.07281070439661484, 0.14879029779580988, 0.233754212133224,
        0.36710730532628344, 0.10188360867516297, -0.058151628688570656,
        0.12358858219813089, 0.21682739419078598],
    CDAE: [
        0.556855830706923, 0.2634746712325775, 0.21293608508354728,
        0.06670664715339009, 0.42272808880307894, 0.6576660396586511,
        0.1943498858446483, 0.2579315302343141, 0.1031911144133058,
        0.3878293665059259, 0.6150490261706842, 0.26301289718640025,
        0.22355008265242293, 0.16382744760603613, 0.4022245636438768,
        0.6111409483754263, 0.2712059714073533, 0.297989690930832,
        0.17388162267472526, 0.3799894873038828],
    NMTR: [
        -0.1627414946900118, 0.08468380576093429, 0.10256585737202753,
        -0.11134218862102331, -0.11366330008575296, -0.1427123265616898,
        -0.021017503830301654, -0.019845989235225917, -0.03368714001423118,
        0.013031612195798653, 0.04206732510100963, -0.04195864840633503,
        -0.034320211248832944, -0.050456823996090874, 0.002848693650002905,
        -0.09812707420705521, 0.061625391261771134, 0.009663749709533102,
        0.0318621547844848, -0.004355774446332464],
}

GOLDEN_PRETRAIN_USERS = [
    -0.056835169894308556, -0.10115046945313542, -0.01589224304039765,
    -0.005890188169364499, 0.13676545349721414, -0.02029622723569437,
    -0.1317574106137177, -0.05131901604245018, -0.01042309967831532,
    0.11107472589293974, 0.10905068418828104, -0.24489797541435057]
GOLDEN_PRETRAIN_ITEMS = [
    -0.0020359345554993597, 0.062496683971218374, 0.028061575961789046,
    -0.0797042891412383, -0.10535461266186155, -0.11547488836735385,
    -0.24107695573468121, -0.02726662016727644, -0.06034948103714688,
    -0.16184910054657484, -0.1295484419921958, 0.0583207781296825]


@pytest.mark.parametrize("model_cls", [AutoRec, CDAE, NMTR],
                         ids=lambda cls: cls.__name__)
def test_trained_scores_float64_bit_identical(frozen_taobao, model_cls):
    # the autoencoders never decayed their learning rate; the paper-table
    # rows state lr_decay=1.0 for them (experiments.runners._models)
    overrides = {} if model_cls is NMTR else {"lr_decay": 1.0}
    model = model_cls(frozen_taobao, seed=0)
    model.fit(frozen_taobao, TrainConfig(**BASE, **overrides))
    scores = model.score(USERS, ITEMS)
    assert (scores == np.array(GOLDEN_SCORES[model_cls])).all()


def test_pretrained_embeddings_float64_bit_identical(frozen_taobao):
    users, items = pretrain_embeddings(frozen_taobao, 4, epochs=2, seed=0)
    assert (users[:3].ravel() == np.array(GOLDEN_PRETRAIN_USERS)).all()
    assert (items[:3].ravel() == np.array(GOLDEN_PRETRAIN_ITEMS)).all()
