"""Masked consensus averaging over per-node (B, b) information pairs.

Each node starts from B(0) = Omega_prior / N + delta_Omega and
b(0) = q_prior / N + delta_q and repeatedly averages with its neighbors.
At step l only the rows/entries that the schedule selects for that step
move; everything else is frozen. Broadcasting node j therefore
serializes |J| rows of B plus |J| entries of b, i.e. |J|*(n+1) scalars,
which the bandwidth ledger records.

One averaging step over all nodes is the matrix M = I - eps * Lap, with
Lap the Laplacian of the network's adjacency, applied to the stack of a
selected row across nodes. The selected row sets partition the rows and
averaging is linear, so over L steps row r is averaged k_r times and
ends at

    rows_r(L) = M^{k_r} @ rows_r(0),   k_r = ceil((L - z_r) / theta)

where z_r is the cycle phase that selects row r (k_r = 0 when z_r >= L).
`run_consensus` evaluates this closed form (Xiao & Boyd 2004, "Fast
linear iterations for distributed averaging") from a table of the powers
M^0 .. M^L that `averaging_powers` builds once per network; the step
counts k_r and the per-step payloads depend on (schedule, L) alone and
are planned once per pair for the whole process. Rows with the same
k_r form one group, and a group moves as two 2-D products: M^k times
the (N, |rows| * n) matrix of its B rows flattened per node, and M^k
times its (N, |rows|) entries of b. After a whole number of selection
cycles every row is one group, and the product runs on (B, b) as they
are, with no gather or scatter. The paper's
step-by-step form, one neighbor sum per node and step, is the test
suite's reference (`tests/consensus_reference.py`).
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

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
    """Consensus initialization of the whole stack:
    B(0) = Omega_prior / N + delta_Omega, b(0) = q_prior / N + delta_q."""
    if n_nodes < 1:
        raise ConfigurationError(f"node count must be >= 1, got {n_nodes}")
    b0_mat = prior.omega / n_nodes + delta_omega
    b0_vec = prior.q / n_nodes + delta_q
    return b0_mat, b0_vec


def averaging_powers(net: SensorNetwork, eps: float, k_max: int) -> np.ndarray:
    """The powers M^0 .. M^k_max of M = I - eps * Lap, stacked (k_max + 1, N, N).

    Consensus of any depth L <= k_max on this network reads its powers from
    the table, so one table serves every lane and timestep of a run.
    """
    if eps <= 0:
        raise ConfigurationError(f"consensus gain must be > 0, got {eps}")
    adj = net.adjacency.astype(float)
    m = np.eye(net.n_nodes) - eps * (np.diag(adj.sum(axis=1)) - adj)
    return np.array([np.linalg.matrix_power(m, k) for k in range(k_max + 1)])


def run_masked_consensus(B: np.ndarray, b: np.ndarray, powers: np.ndarray,
                         groups: tuple):
    """Average the rows of every node's (B, b) in closed form, group by group.

    `groups` holds (k, rows) pairs: the rows `rows` of every node become
    powers[k] applied across nodes, one 2-D product of the (N, N) power
    with those rows flattened per node; rows in no group are copied
    untouched. Returns new (B, b); inputs are not modified.
    """
    n_nodes, n = b.shape
    if len(groups) == 1 and groups[0][1].size == n:
        # every row moves the same k times: no gather, copy or scatter
        m = powers[groups[0][0]]
        return (m @ B.reshape(n_nodes, -1)).reshape(B.shape), m @ b
    B_out, b_out = B.copy(), b.copy()
    for k, rows in groups:
        B_out[:, rows] = (powers[k] @ B[:, rows].reshape(n_nodes, -1)).reshape(
            n_nodes, rows.size, n)
        b_out[:, rows] = powers[k] @ b[:, rows]
    return B_out, b_out


@lru_cache(maxsize=None)
def _plan(schedule: EntrySelectionSchedule, L: int):
    """What L steps under `schedule` do on any network: the rows that
    move, grouped by their step count k as (k, rows) pairs with read-only
    rows, and the scalars one node sends at each step. Schedules compare
    and hash by their subsets, so equal schedules share one plan. The
    cache is unbounded: a plan is a few hundred bytes, one per distinct
    pair a process runs, and a bounded one would evict on every step of a
    grid wider than its size."""
    theta = schedule.theta_bar
    # row r is selected at the steps l < L with l mod theta == its phase z
    steps = np.zeros(schedule.n, dtype=int)
    for z, rows in enumerate(schedule.rows):
        steps[rows] = len(range(z, L, theta))
    groups = []
    # a set, not np.unique, which imports numpy.ma into every fresh pool worker
    for k in sorted(set(steps[steps > 0].tolist())):
        rows = np.flatnonzero(steps == k)
        rows.setflags(write=False)
        groups.append((k, rows))
    sizes = [rows.size * (schedule.n + 1) for rows in schedule.rows]
    return tuple(groups), tuple(sizes[l % theta] for l in range(L))


def run_consensus(state: ConsensusState, schedule: EntrySelectionSchedule, L: int,
                  powers: np.ndarray, ledger: BandwidthLedger = None,
                  t: int = 0) -> ConsensusState:
    """Run L masked consensus steps under a synchronized schedule.

    Step l moves the rows `schedule.rows_at(l)` at every node;
    `powers` is the network's `averaging_powers` table, up to at least M^L.
    Which rows move how often, and what each step sends, depend only on
    (schedule, L) and are computed once per pair. Warns (and proceeds)
    when L is not a whole number of selection cycles. When a ledger is
    given, every node's broadcast sizes are recorded as one compact entry
    for the whole run.
    """
    if L < 1:
        raise ConfigurationError(f"consensus step count must be >= 1, got {L}")
    if L >= len(powers):
        raise ConfigurationError(f"{L} consensus steps need powers up to M^{L}; "
                                 f"the table ends at M^{len(powers) - 1}")
    if state.n != schedule.n:
        raise ConfigurationError(f"schedule over {schedule.n} rows for a state of "
                                 f"dimension {state.n}")
    theta = schedule.theta_bar
    if L % theta != 0:
        warnings.warn(
            f"consensus ran {L} steps, not a multiple of the {theta}-step "
            f"selection cycle of subsets {schedule.subsets}; posterior rows are "
            "mixed across cycle phases",
            ConsensusCycleWarning, stacklevel=2,
        )
    groups, payloads = _plan(schedule, L)
    B, b = run_masked_consensus(state.B, state.b, powers, groups)
    if ledger is not None:
        ledger.record_consensus(t, state.n_nodes, payloads)
    return ConsensusState(B=B, b=b)


__all__ = [
    "ConsensusState",
    "init_consensus",
    "averaging_powers",
    "run_consensus",
]
