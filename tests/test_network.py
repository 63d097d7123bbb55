import csv

import numpy as np
import pytest

from icfpie.errors import ConfigurationError, PlacementError
from icfpie.network import (
    BandwidthLedger,
    adjacency_from_positions,
    consensus_gain,
    is_connected,
    network_from_positions,
    random_geometric,
    record_broadcast,
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
            network_from_positions([[0.0, 0.0], [301.0, 0.0]], 300.0, 300.0)

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
        for i, hood in enumerate(net.neighborhoods):
            assert i in hood
            assert set(hood) - {i} == set(np.flatnonzero(net.adjacency[i]))

    def test_min_node_count(self):
        with pytest.raises(ConfigurationError):
            random_geometric(1, (0, 600, 0, 600), 300.0, np.random.default_rng(0))


class TestConsensusGain:
    def test_complete_graph_of_ten(self):
        positions = np.column_stack([np.linspace(0, 90, 10), np.zeros(10)])
        net = network_from_positions(positions, 300.0, 300.0)
        assert net.max_degree() == 9
        assert consensus_gain(net) == pytest.approx(0.1)

    def test_path_of_three(self, path3_net):
        assert consensus_gain(path3_net) == pytest.approx(1.0 / 3.0)

    def test_single_pair(self, pair_net):
        assert consensus_gain(pair_net) == pytest.approx(0.5)


class TestBandwidthLedger:
    def test_partial_exchange_payload_counts(self):
        # one broadcast of m selected rows of B plus m entries of b
        ledger = BandwidthLedger()
        n = 4
        for m, expected in ((2, 10), (4, 20), (1, 5)):
            ledger = BandwidthLedger()
            ledger.record_broadcast(node=0, t=0, l=0, scalar_count=m * n + m)
            assert ledger.total_scalars() == expected

    def test_query_by_keys(self):
        ledger = BandwidthLedger()
        ledger.record_broadcast(0, t=0, l=0, scalar_count=10)
        ledger.record_broadcast(1, t=0, l=0, scalar_count=10)
        ledger.record_broadcast(0, t=0, l=1, scalar_count=10)
        ledger.record_broadcast(0, t=1, l=0, scalar_count=20)
        assert ledger.scalars_at(t=0) == 30
        assert ledger.scalars_at(t=0, l=0) == 20
        assert ledger.scalars_at(node=0) == 40
        assert ledger.total_scalars() == 50

    def test_counts_monotone_and_nonnegative(self):
        ledger = BandwidthLedger()
        running = 0
        for k in range(5):
            record_broadcast(ledger, node=k % 2, t=k, l=0, scalar_count=5)
            assert ledger.total_scalars() > running
            running = ledger.total_scalars()
        with pytest.raises(ConfigurationError):
            ledger.record_broadcast(0, 0, 0, -1)

    def test_csv_export(self, tmp_path):
        ledger = BandwidthLedger()
        ledger.record_broadcast(3, t=1, l=2, scalar_count=10)
        path = tmp_path / "ledger.csv"
        ledger.to_csv(path, run=7)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "t", "l", "node", "scalars"]
        assert rows[1] == ["7", "1", "2", "3", "10"]

    def test_consensus_entry_expands_like_per_broadcast_records(self, tmp_path):
        # one compact entry per consensus run answers every query, and
        # exports, exactly as the N * L single records it stands for
        payloads = [15, 5, 15, 5, 15]
        compact, single = BandwidthLedger(), BandwidthLedger()
        for ledger in (compact, single):
            ledger.record_broadcast(1, t=0, l=0, scalar_count=7)
        compact.record_consensus(3, 4, payloads)
        for l, s in enumerate(payloads):
            for node in range(4):
                single.record_broadcast(node, 3, l, s)
        assert len(compact.rows) == 2
        assert compact.total_scalars() == single.total_scalars() == 7 + 4 * 55
        for keys in ({}, {"t": 3}, {"l": 1}, {"node": 2}, {"t": 3, "l": 4, "node": 0},
                     {"t": 0, "node": 1}):
            assert compact.scalars_at(**keys) == single.scalars_at(**keys)
        compact.to_csv(tmp_path / "compact.csv", run=2)
        single.to_csv(tmp_path / "single.csv", run=2)
        assert (tmp_path / "compact.csv").read_text() == (tmp_path / "single.csv").read_text()
        with pytest.raises(ConfigurationError):
            compact.record_consensus(0, 4, [5, -1])
