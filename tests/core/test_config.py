"""Tests of GNMRConfig validation and variants."""

from dataclasses import fields

import pytest

from repro.core import GNMRConfig


class TestValidation:
    def test_defaults_are_paper_settings(self):
        cfg = GNMRConfig()
        assert cfg.embedding_dim == 16
        assert cfg.memory_dims == 8
        assert cfg.num_layers == 2

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError):
            GNMRConfig(embedding_dim=16, num_heads=3)

    def test_negative_layers_rejected(self):
        with pytest.raises(ValueError):
            GNMRConfig(num_layers=-1)

    def test_zero_layers_allowed(self):
        assert GNMRConfig(num_layers=0).num_layers == 0

    def test_bad_aggregator(self):
        with pytest.raises(ValueError):
            GNMRConfig(aggregator="max")

    def test_bad_dropout(self):
        with pytest.raises(ValueError):
            GNMRConfig(dropout=1.0)

    def test_layer_combination_is_not_an_option(self):
        """A pair scores Σ_l ⟨H^l_u, H^l_v⟩; the old ``"mean"`` only
        scaled every score by 1/(L+1)."""
        assert "layer_combination" not in {f.name for f in fields(GNMRConfig)}
        with pytest.raises(TypeError):
            GNMRConfig(layer_combination="sum")

    def test_bad_memory_dims(self):
        with pytest.raises(ValueError):
            GNMRConfig(memory_dims=0)

    @pytest.mark.parametrize("field, value", [
        ("pretrain_epochs", 0), ("pretrain_lr", 0.0), ("pretrain_lr", -1e-2)])
    def test_bad_pretrain_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            GNMRConfig(**{field: value})
        # unused without pre-training, so not refused
        assert getattr(GNMRConfig(pretrain=False, **{field: value}),
                       field) == value


class TestVariant:
    def test_variant_overrides(self):
        base = GNMRConfig()
        ablated = base.variant(use_message_attention=False, num_layers=3)
        assert not ablated.use_message_attention
        assert ablated.num_layers == 3
        # base unchanged
        assert base.use_message_attention and base.num_layers == 2

    def test_variant_validates(self):
        with pytest.raises(ValueError):
            GNMRConfig().variant(num_heads=5)
