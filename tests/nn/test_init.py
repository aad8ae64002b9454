"""Tests of weight initializers."""

import numpy as np
import pytest

from repro.nn import init


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_xavier_uniform_bounds(rng):
    w = init.xavier_uniform((100, 50), rng)
    limit = np.sqrt(6.0 / 150)
    assert np.abs(w).max() <= limit


def test_xavier_normal_std(rng):
    w = init.xavier_normal((400, 400), rng)
    expected = np.sqrt(2.0 / 800)
    assert w.std() == pytest.approx(expected, rel=0.1)


def test_normal_std(rng):
    w = init.normal((500, 100), rng, std=0.02)
    assert w.std() == pytest.approx(0.02, rel=0.1)


def test_zeros():
    np.testing.assert_array_equal(init.zeros((3, 4)), 0.0)


def test_1d_fans(rng):
    w = init.xavier_uniform((64,), rng)
    assert w.shape == (64,)
    assert np.abs(w).max() <= np.sqrt(6.0 / 128)


def test_deterministic_with_same_seed():
    a = init.xavier_uniform((5, 5), np.random.default_rng(7))
    b = init.xavier_uniform((5, 5), np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
