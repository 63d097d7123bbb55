import numpy as np
import pytest
from hypothesis import strategies as st

from consensus_reference import network_from_positions
from icfpie.network import SensorNetwork


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


@st.composite
def connected_networks(draw):
    """A random connected graph on 2 to 8 nodes: a random spanning tree,
    which keeps it connected, and random extra edges."""
    n = draw(st.integers(min_value=2, max_value=8))
    adj = np.zeros((n, n), dtype=bool)
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        adj[i, j] = adj[j, i] = True
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n * n)):
        if i != j:
            adj[i, j] = adj[j, i] = True
    return SensorNetwork(positions=np.zeros((n, 2)), adjacency=adj)
