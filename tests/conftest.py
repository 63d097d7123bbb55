import numpy as np
import pytest

from consensus_reference import network_from_positions


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def pair_net():
    """Two nodes within range: closed neighborhoods {0,1} each, eps = 0.5."""
    return network_from_positions([[0.0, 0.0], [100.0, 0.0]], 300.0)


@pytest.fixture
def path3_net():
    """Three nodes in a line: 0-1 and 1-2 linked, 0-2 out of range."""
    return network_from_positions([[0.0, 0.0], [250.0, 0.0], [500.0, 0.0]], 300.0)


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T + n * np.eye(n))


def assert_rel_close(actual, expected, rel=1e-12):
    """Max abs difference within `rel` times the largest entry of `expected`."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))
