"""Sensor-network geometry, consensus gain, and bandwidth accounting.

Nodes are placed uniformly in a rectangle and linked whenever their
Euclidean distance is at most the communication range (inclusive).
Placement is resampled until the graph is connected. Closed neighborhoods
(node plus its direct neighbors) drive the consensus exchange; the ledger
counts every scalar a node broadcasts, so partial-exchange savings can be
verified exactly.
"""

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, PlacementError


@dataclass(frozen=True)
class SensorNetwork:
    """Immutable network: positions, symmetric adjacency, closed neighborhoods."""

    positions: np.ndarray
    adjacency: np.ndarray
    neighborhoods: tuple
    comm_range: float
    sensing_range: float

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    def degree(self, i: int) -> int:
        """Number of neighbors of node i, excluding i itself."""
        return int(self.adjacency[i].sum())

    def max_degree(self) -> int:
        return int(self.adjacency.sum(axis=1).max())


def adjacency_from_positions(positions: np.ndarray, comm_range: float) -> np.ndarray:
    """Boolean adjacency: edge iff distance <= comm_range, no self-loops."""
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    adj = dist <= comm_range
    np.fill_diagonal(adj, False)
    return adj


def is_connected(adjacency: np.ndarray) -> bool:
    """Breadth-first reachability from node 0."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(adjacency[i]):
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def _closed_neighborhoods(adjacency: np.ndarray) -> tuple:
    hoods = []
    for i in range(adjacency.shape[0]):
        hood = np.flatnonzero(adjacency[i]).tolist()
        hood.append(i)
        hoods.append(np.array(sorted(hood), dtype=np.intp))
    return tuple(hoods)


def network_from_positions(positions, comm_range: float, sensing_range: float) -> SensorNetwork:
    """Build a SensorNetwork from fixed positions (must be connected)."""
    positions = np.asarray(positions, dtype=float)
    adj = adjacency_from_positions(positions, comm_range)
    if not is_connected(adj):
        raise PlacementError("given positions form a disconnected network")
    return SensorNetwork(
        positions=positions,
        adjacency=adj,
        neighborhoods=_closed_neighborhoods(adj),
        comm_range=comm_range,
        sensing_range=sensing_range,
    )


def random_geometric(n_nodes: int, region, comm_range: float, rng: np.random.Generator,
                     max_retries: int = 200, sensing_range: float = None) -> SensorNetwork:
    """Uniform placement in `region` = (xmin, xmax, ymin, ymax), resampled
    until the induced disk graph is connected.

    Raises PlacementError when max_retries placements all come out
    disconnected (caller should enlarge the region or the range).
    """
    if n_nodes < 2:
        raise ConfigurationError(f"need at least 2 nodes, got {n_nodes}")
    xmin, xmax, ymin, ymax = (float(v) for v in region)
    if not (xmax > xmin and ymax > ymin):
        raise ConfigurationError(f"degenerate placement region {region}")
    if sensing_range is None:
        sensing_range = comm_range
    for _ in range(max_retries):
        positions = np.column_stack([
            rng.uniform(xmin, xmax, size=n_nodes),
            rng.uniform(ymin, ymax, size=n_nodes),
        ])
        adj = adjacency_from_positions(positions, comm_range)
        if is_connected(adj):
            return SensorNetwork(
                positions=positions,
                adjacency=adj,
                neighborhoods=_closed_neighborhoods(adj),
                comm_range=comm_range,
                sensing_range=sensing_range,
            )
    raise PlacementError(
        f"no connected placement of {n_nodes} nodes in {region} with range "
        f"{comm_range} after {max_retries} tries"
    )


def consensus_gain(net: SensorNetwork) -> float:
    """Consensus step size 1/(max degree + 1).

    Keeps the implied averaging matrix row stochastic with a positive
    diagonal, hence primitive on a connected graph.
    """
    return 1.0 / (net.max_degree() + 1.0)


class ConsensusBroadcasts(NamedTuple):
    """All broadcasts of one consensus run at time t: at step l each of
    the n_nodes nodes sends payloads[l] scalars."""

    t: int
    n_nodes: int
    payloads: tuple


@dataclass
class BandwidthLedger:
    """Per-broadcast scalar counts, queryable per (t, l, node) and in aggregate.

    `rows` holds single broadcasts as (t, l, node, scalars) tuples and whole
    consensus runs as compact `ConsensusBroadcasts` entries, which are
    expanded only when queried or exported.
    """

    rows: list = field(default_factory=list)
    _total: int = 0

    def record_broadcast(self, node: int, t: int, l: int, scalar_count: int):
        if scalar_count < 0:
            raise ConfigurationError("scalar count must be >= 0")
        self.rows.append((t, l, node, scalar_count))
        self._total += scalar_count

    def record_consensus(self, t: int, n_nodes: int, payloads):
        """Record every node broadcasting payloads[l] scalars at step l."""
        payloads = tuple(payloads)
        if any(s < 0 for s in payloads):
            raise ConfigurationError("scalar count must be >= 0")
        self.rows.append(ConsensusBroadcasts(t, n_nodes, payloads))
        self._total += n_nodes * sum(payloads)

    def broadcasts(self):
        """Every broadcast as (t, l, node, scalars), in recording order."""
        for row in self.rows:
            if isinstance(row, ConsensusBroadcasts):
                for l, s in enumerate(row.payloads):
                    for node in range(row.n_nodes):
                        yield (row.t, l, node, s)
            else:
                yield row

    def total_scalars(self) -> int:
        return self._total

    def scalars_at(self, t: int = None, l: int = None, node: int = None) -> int:
        """Aggregate count over broadcasts matching the given keys (None = any)."""
        return sum(
            s for (rt, rl, rn, s) in self.broadcasts()
            if (t is None or rt == t) and (l is None or rl == l) and (node is None or rn == node)
        )

    def to_csv(self, path, run: int = 0):
        """Write broadcasts as CSV with columns run, t, l, node, scalars."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "t", "l", "node", "scalars"])
            for t, l, node, s in self.broadcasts():
                writer.writerow([run, t, l, node, s])


def record_broadcast(ledger: BandwidthLedger, node: int, t: int, l: int,
                     scalar_count: int) -> BandwidthLedger:
    """Functional alias for BandwidthLedger.record_broadcast."""
    ledger.record_broadcast(node, t, l, scalar_count)
    return ledger
