"""Masked consensus averaging over per-node (B, b) information pairs.

Each node starts from B(0) = Omega_prior / N + delta_Omega and
b(0) = q_prior / N + delta_q and repeatedly averages with its closed
neighborhood. At step l only the rows/entries selected by that step's
mask move; everything else is frozen. Broadcasting node j therefore
serializes |J| rows of B plus |J| entries of b, i.e. |J|*(n+1) scalars,
which the bandwidth ledger records.

One averaging step over all nodes is the matrix M = I - eps * Lap, with
Lap the graph Laplacian, applied to the stack of a selected row across
nodes. The masks partition the rows and averaging is linear, so over L
steps row r is averaged k_r times and ends at

    rows_r(L) = M^{k_r} @ rows_r(0),   k_r = ceil((L - z_r) / theta)

where z_r is the cycle phase that selects row r (k_r = 0 when z_r >= L).
`run_consensus` evaluates this closed form (Xiao & Boyd 2004, "Fast
linear iterations for distributed averaging"); `consensus_step` is the
step-by-step reference semantics.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConsensusCycleWarning
from .info_filter import InformationState
from .network import BandwidthLedger, SensorNetwork
from .selection import EntrySelectionSchedule


@dataclass
class ConsensusState:
    """Stacked per-node consensus iterates: B (N, n, n) and b (N, n)."""

    B: np.ndarray
    b: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.B.shape[0]

    @property
    def n(self) -> int:
        return self.B.shape[1]


def init_consensus(prior: InformationState, delta_omega: np.ndarray,
                   delta_q: np.ndarray, n_nodes: int):
    """Consensus initialization of one node or of the whole stack:
    B(0) = Omega_prior / N + delta_Omega, b(0) = q_prior / N + delta_q."""
    if n_nodes < 1:
        raise ConfigurationError(f"node count must be >= 1, got {n_nodes}")
    b0_mat = prior.omega / n_nodes + delta_omega
    b0_vec = prior.q / n_nodes + delta_q
    return b0_mat, b0_vec


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
    for i, hood in enumerate(net.neighborhoods):
        B_next[i, sel, :] += eps * (B[hood][:, sel, :] - B[i, sel, :]).sum(axis=0)
        b_next[i, sel] += eps * (b[hood][:, sel] - b[i, sel]).sum(axis=0)
    return ConsensusState(B=B_next, b=b_next)


def averaging_matrix(net: SensorNetwork, eps: float) -> np.ndarray:
    """One full-exchange averaging step as an (N, N) matrix: I - eps * Lap."""
    adj = net.adjacency.astype(float)
    return np.eye(net.n_nodes) - eps * (np.diag(adj.sum(axis=1)) - adj)


def run_masked_consensus(B: np.ndarray, b: np.ndarray, averaging: np.ndarray,
                         steps: np.ndarray):
    """Average row r of every node's (B, b) steps[r] times in closed form.

    Row r becomes averaging^steps[r] applied across nodes; rows with zero
    steps are copied untouched. Returns new (B, b); inputs are not modified.
    """
    moved = np.flatnonzero(steps)
    counts = steps[moved].tolist()
    powers = {k: np.linalg.matrix_power(averaging, k) for k in set(counts)}
    per_row = np.array([powers[k] for k in counts])
    B_out, b_out = B.copy(), b.copy()
    B_out[:, moved, :] = np.einsum("rij,jrc->irc", per_row, B[:, moved, :])
    b_out[:, moved] = np.einsum("rij,jr->ir", per_row, b[:, moved])
    return B_out, b_out


def run_consensus(state: ConsensusState, schedule: EntrySelectionSchedule, L: int,
                  net: SensorNetwork, eps: float, ledger: BandwidthLedger = None,
                  t: int = 0) -> ConsensusState:
    """Run L masked consensus steps under a synchronized schedule.

    Step l applies the schedule's mask for l mod theta at every node.
    Warns (and proceeds) when L is not a whole number of selection cycles.
    When a ledger is given, every node's broadcast sizes are recorded as
    one compact entry for the whole run.
    """
    if L < 1:
        raise ConfigurationError(f"consensus step count must be >= 1, got {L}")
    if eps <= 0:
        raise ConfigurationError(f"consensus gain must be > 0, got {eps}")
    theta = schedule.theta_bar
    if L % theta != 0:
        warnings.warn(
            f"consensus ran {L} steps, not a multiple of the {theta}-step "
            f"selection cycle of subsets {schedule.subsets}; posterior rows are "
            "mixed across cycle phases",
            ConsensusCycleWarning, stacklevel=2,
        )
    # row r is selected at the steps l < L with l mod theta == its phase z
    steps = np.zeros(state.n, dtype=int)
    for z, rows in enumerate(schedule.rows):
        steps[rows] = len(range(z, L, theta))
    B, b = run_masked_consensus(state.B, state.b, averaging_matrix(net, eps), steps)
    if ledger is not None:
        ledger.record_consensus(t, state.n_nodes,
                                [schedule.rows_at(l).size * (state.n + 1)
                                 for l in range(L)])
    return ConsensusState(B=B, b=b)


__all__ = [
    "ConsensusState",
    "init_consensus",
    "consensus_step",
    "run_consensus",
]
