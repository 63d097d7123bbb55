"""Sensor-network geometry, consensus gain, and bandwidth accounting.

Nodes are placed uniformly in a rectangle and linked whenever their
Euclidean distance is at most the communication range (inclusive).
Placement is resampled until the graph is connected. The adjacency
matrix is the network's one description of who hears whom: consensus
builds its averaging matrix I - eps * Lap from it. The ledger counts every
scalar a node broadcasts, so partial-exchange savings can be verified
exactly.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, PlacementError


@dataclass(frozen=True)
class SensorNetwork:
    """Immutable network: node positions and the symmetric adjacency."""

    positions: np.ndarray
    adjacency: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

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


def random_geometric(n_nodes: int, region, comm_range: float, rng: np.random.Generator,
                     max_retries: int = 200) -> SensorNetwork:
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
    for _ in range(max_retries):
        positions = np.column_stack([
            rng.uniform(xmin, xmax, size=n_nodes),
            rng.uniform(ymin, ymax, size=n_nodes),
        ])
        adj = adjacency_from_positions(positions, comm_range)
        if is_connected(adj):
            return SensorNetwork(positions=positions, adjacency=adj)
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
    """All broadcasts of n_steps consecutive consensus runs, one per
    timestep from time t on: at step l of each, every one of the n_nodes
    nodes sends payloads[l] scalars."""

    t: int
    n_nodes: int
    payloads: tuple
    n_steps: int = 1


@dataclass
class BandwidthLedger:
    """Scalars broadcast during consensus: compact `ConsensusBroadcasts`
    entries in `rows` (a run records one per lane), and their total."""

    rows: list = field(default_factory=list)
    _total: int = 0

    def record_consensus(self, t: int, n_nodes: int, payloads, n_steps: int = 1):
        """Record every node broadcasting payloads[l] scalars at step l of
        each of n_steps consensus runs, the first at time t."""
        payloads = tuple(payloads)
        if any(s < 0 for s in payloads):
            raise ConfigurationError("scalar count must be >= 0")
        if n_steps < 1:
            raise ConfigurationError(f"an entry covers at least one timestep, got {n_steps}")
        self.rows.append(ConsensusBroadcasts(t, n_nodes, payloads, n_steps))
        self._total += n_steps * n_nodes * sum(payloads)

    def total_scalars(self) -> int:
        return self._total
