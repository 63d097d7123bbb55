import numpy as np
import pytest

from consensus_reference import closed_neighborhoods, network_from_positions
from icfpie.errors import ConfigurationError, PlacementError
from icfpie.network import (
    BandwidthLedger,
    adjacency_from_positions,
    consensus_gain,
    is_connected,
    random_geometric,
)


def bfs_connected(adjacency):
    """Independent connectivity oracle (queue-based breadth-first search)."""
    n = adjacency.shape[0]
    visited = {0}
    queue = [0]
    while queue:
        node = queue.pop(0)
        for j in range(n):
            if adjacency[node, j] and j not in visited:
                visited.add(j)
                queue.append(j)
    return len(visited) == n


class TestGeometry:
    def test_edge_at_299m_with_300m_range(self):
        adj = adjacency_from_positions(np.array([[0.0, 0.0], [299.0, 0.0]]), 300.0)
        assert adj[0, 1] and adj[1, 0]

    def test_boundary_distance_is_inclusive(self):
        adj = adjacency_from_positions(np.array([[0.0, 0.0], [300.0, 0.0]]), 300.0)
        assert adj[0, 1]

    def test_no_edge_at_301m(self):
        adj = adjacency_from_positions(np.array([[0.0, 0.0], [301.0, 0.0]]), 300.0)
        assert not adj[0, 1]
        with pytest.raises(PlacementError):
            network_from_positions([[0.0, 0.0], [301.0, 0.0]], 300.0)

    def test_placement_retries_exhausted(self):
        # 3 nodes in a 100 km square with 300 m range: virtually never connected
        rng = np.random.default_rng(0)
        with pytest.raises(PlacementError):
            random_geometric(3, (0, 1e5, 0, 1e5), 300.0, rng, max_retries=3)

    def test_deterministic_placement_and_connectivity(self):
        net1 = random_geometric(10, (0, 600, 0, 600), 300.0, np.random.default_rng(7))
        net2 = random_geometric(10, (0, 600, 0, 600), 300.0, np.random.default_rng(7))
        assert np.array_equal(net1.positions, net2.positions)
        assert np.array_equal(net1.adjacency, net2.adjacency)
        assert bfs_connected(net1.adjacency)
        assert is_connected(net1.adjacency)

    def test_adjacency_symmetric_and_loop_free(self):
        net = random_geometric(10, (0, 600, 0, 600), 300.0, np.random.default_rng(3))
        assert np.array_equal(net.adjacency, net.adjacency.T)
        assert not net.adjacency.diagonal().any()

    def test_neighborhoods_include_self(self):
        net = random_geometric(10, (0, 600, 0, 600), 300.0, np.random.default_rng(3))
        for i, hood in enumerate(closed_neighborhoods(net.adjacency)):
            assert i in hood
            assert set(hood) - {i} == set(np.flatnonzero(net.adjacency[i]))

    def test_min_node_count(self):
        with pytest.raises(ConfigurationError):
            random_geometric(1, (0, 600, 0, 600), 300.0, np.random.default_rng(0))


class TestConsensusGain:
    def test_complete_graph_of_ten(self):
        positions = np.column_stack([np.linspace(0, 90, 10), np.zeros(10)])
        net = network_from_positions(positions, 300.0)
        assert net.max_degree() == 9
        assert consensus_gain(net) == pytest.approx(0.1)

    def test_path_of_three(self, path3_net):
        assert consensus_gain(path3_net) == pytest.approx(1.0 / 3.0)

    def test_single_pair(self, pair_net):
        assert consensus_gain(pair_net) == pytest.approx(0.5)


class TestBandwidthLedger:
    def test_partial_exchange_payload_counts(self):
        # one broadcast of m selected rows of B plus m entries of b
        n = 4
        for m, expected in ((2, 10), (4, 20), (1, 5)):
            ledger = BandwidthLedger()
            ledger.record_consensus(t=0, n_nodes=1, payloads=[m * n + m])
            assert ledger.total_scalars() == expected

    def test_query_by_keys(self):
        # each consensus run is one entry holding its time, node count and
        # the per-node payload of every step
        ledger = BandwidthLedger()
        ledger.record_consensus(0, 2, [10, 10])
        ledger.record_consensus(1, 2, [20])
        assert [(e.t, e.n_nodes, e.payloads) for e in ledger.rows] == \
            [(0, 2, (10, 10)), (1, 2, (20,))]
        assert sum(e.n_nodes * e.payloads[0] for e in ledger.rows) == 60
        assert ledger.total_scalars() == 2 * (10 + 10) + 2 * 20

    def test_counts_monotone_and_nonnegative(self):
        ledger = BandwidthLedger()
        running = 0
        for k in range(5):
            ledger.record_consensus(t=k, n_nodes=2, payloads=[5, 0, 5])
            assert ledger.total_scalars() > running
            running = ledger.total_scalars()
        with pytest.raises(ConfigurationError):
            ledger.record_consensus(0, 4, [5, -1])
        assert ledger.total_scalars() == running and len(ledger.rows) == 5

    def test_one_entry_covers_a_run_of_timesteps(self):
        # a run's lane sends the same payloads at every timestep, so one
        # entry carries the number of timesteps it covers
        per_step, whole = BandwidthLedger(), BandwidthLedger()
        for t in range(300):
            per_step.record_consensus(t, 10, [10, 10, 10])
        whole.record_consensus(0, 10, [10, 10, 10], n_steps=300)
        assert whole.rows == [(0, 10, (10, 10, 10), 300)]
        assert whole.total_scalars() == per_step.total_scalars() == 300 * 10 * 30
        with pytest.raises(ConfigurationError):
            whole.record_consensus(0, 10, [10], n_steps=0)
        assert whole.total_scalars() == 300 * 10 * 30 and len(whole.rows) == 1
