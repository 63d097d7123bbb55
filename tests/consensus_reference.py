"""Step-by-step reference semantics of masked consensus.

The paper writes one consensus step with a diagonal 0/1 entry-selection
matrix and each node's closed neighborhood (the node and its direct
neighbors). The package keeps neither form: it runs consensus in closed
form from the selected row indices and the averaging matrix
M = I - eps * Lap of the adjacency. This module keeps the paper's form as
the oracle that the closed form is tested against.
"""

import numpy as np

from icfpie.consensus import ConsensusState
from icfpie.errors import ConfigurationError, PlacementError
from icfpie.network import SensorNetwork, adjacency_from_positions, is_connected


def closed_neighborhoods(adjacency) -> tuple:
    """For every node i, the sorted indices of i and its direct neighbors."""
    closed = np.asarray(adjacency, dtype=bool) | np.eye(len(adjacency), dtype=bool)
    return tuple(np.flatnonzero(row) for row in closed)


def mask_vector(schedule, z: int) -> np.ndarray:
    """Diagonal of the 0/1 selection matrix used at consensus step z."""
    v = np.zeros(schedule.n)
    v[schedule.rows_at(z)] = 1.0
    return v


def network_from_positions(positions, comm_range: float) -> SensorNetwork:
    """A SensorNetwork from fixed positions (must be connected)."""
    positions = np.asarray(positions, dtype=float)
    adj = adjacency_from_positions(positions, comm_range)
    if not is_connected(adj):
        raise PlacementError("given positions form a disconnected network")
    return SensorNetwork(positions=positions, adjacency=adj)


def consensus_step(state: ConsensusState, net: SensorNetwork, mask,
                   eps: float) -> ConsensusState:
    """One synchronous averaging step, reading every node from the previous
    iterate. Only the rows and entries selected by the length-n 0/1 `mask`,
    shared by every node, move.
    """
    if eps <= 0:
        raise ConfigurationError(f"consensus gain must be > 0, got {eps}")
    mask = np.asarray(mask, dtype=float)
    if mask.shape != (state.n,):
        raise ConfigurationError(f"mask must have shape ({state.n},), got {mask.shape}")
    sel = mask > 0
    B, b = state.B, state.b
    B_next = B.copy()
    b_next = b.copy()
    for i, hood in enumerate(closed_neighborhoods(net.adjacency)):
        B_next[i, sel, :] += eps * (B[hood][:, sel, :] - B[i, sel, :]).sum(axis=0)
        b_next[i, sel] += eps * (b[hood][:, sel] - b[i, sel]).sum(axis=0)
    return ConsensusState(B=B_next, b=b_next)
