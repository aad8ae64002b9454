"""Tests of the autoencoder pre-training scheme."""

import numpy as np
import scipy.sparse as sp

from repro.core import AutoencoderPretrainer, pretrain_embeddings
from repro.train import TrainConfig, Trainer


def train(autoencoder, epochs):
    """The autoencoder trains through the one loop; its batch source reads
    only its own profiles, so there is no dataset to pass."""
    config = TrainConfig(epochs=epochs, lr=1e-2, lr_decay=1.0)
    return Trainer(autoencoder, None, config).run()


class TestAutoencoder:
    def test_loss_decreases(self, rng):
        profiles = sp.csr_matrix((rng.random((30, 20)) > 0.7).astype(float))
        ae = AutoencoderPretrainer(profiles, 6, rng, batch_size=8)
        losses = train(ae, epochs=25).series("loss")
        assert losses[-1] < losses[0]

    def test_embedding_shape_and_scale(self, rng):
        profiles = sp.csr_matrix((rng.random((30, 20)) > 0.7).astype(float))
        ae = AutoencoderPretrainer(profiles, 6, rng, batch_size=8)
        train(ae, epochs=5)
        codes = ae.embeddings()
        assert codes.shape == (30, 6)
        # centered and small-scale, suitable as an init
        np.testing.assert_allclose(codes.mean(axis=0), 0.0, atol=1e-10)
        assert np.abs(codes).max() < 1.0


class TestPretrainEmbeddings:
    def test_shapes(self, small_taobao):
        users, items = pretrain_embeddings(small_taobao, embedding_dim=8,
                                           epochs=3, seed=0)
        assert users.shape == (small_taobao.num_users, 8)
        assert items.shape == (small_taobao.num_items, 8)

    def test_deterministic(self, small_taobao):
        a_u, a_i = pretrain_embeddings(small_taobao, 4, epochs=2, seed=3)
        b_u, b_i = pretrain_embeddings(small_taobao, 4, epochs=2, seed=3)
        np.testing.assert_array_equal(a_u, b_u)
        np.testing.assert_array_equal(a_i, b_i)

    def test_similar_users_get_similar_codes(self, small_taobao):
        """Users sharing many interactions should embed closer than random
        pairs, on average — the whole point of the pre-training."""
        users, _ = pretrain_embeddings(small_taobao, 8, epochs=20, seed=0)
        graph = small_taobao.graph()
        profiles = graph.merged_adjacency().to_dense()
        # cosine similarity of profiles vs embedding distance correlation
        norm = np.linalg.norm(profiles, axis=1, keepdims=True) + 1e-9
        profile_sim = (profiles / norm) @ (profiles / norm).T
        unorm = np.linalg.norm(users, axis=1, keepdims=True) + 1e-9
        code_sim = (users / unorm) @ (users / unorm).T
        iu = np.triu_indices(len(users), k=1)
        corr = np.corrcoef(profile_sim[iu], code_sim[iu])[0, 1]
        assert corr > 0.1
