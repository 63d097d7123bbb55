"""Masked consensus averaging over per-node (B, b) information pairs.

Each node starts from B(0) = Omega_prior / N + delta_Omega and
b(0) = q_prior / N + delta_q and repeatedly averages with its neighbors.
At step l only the rows/entries that the schedule selects for that step
move; everything else is frozen. Broadcasting node j therefore
serializes |J| rows of B plus |J| entries of b, i.e. |J|*(n+1) scalars.
Over L steps that is (n+1) * sum_r k_r scalars per node, with k_r the
step counts below, which is how a run counts its bandwidth.

One averaging step over all nodes is the matrix M = I - eps * Lap, with
Lap the Laplacian of the network's adjacency, applied to the stack of a
selected row across nodes. The selected row sets partition the rows and
averaging is linear, so over L steps row r is averaged k_r times and
ends at

    rows_r(L) = M^{k_r} @ rows_r(0),   k_r = ceil((L - z_r) / theta)

where z_r is the cycle phase that selects row r (k_r = 0 when z_r >= L).
This is the closed form of Xiao & Boyd 2004 ("Fast linear iterations for
distributed averaging"), read from a table of the powers M^0 .. M^L that
`averaging_powers` builds once per network. A run takes a chunk of R
seeds, each on its own network, and its lanes, the (schedule, L) pairs,
are fixed, so `plan_lanes` plans them once per run from the R stacked
tables: the step counts k_r of every lane and row, and the matching
powers of each seed's network gathered into one (R*K, n, N, N) array.
Every timestep then moves every row of every lane of every seed in one
batched product (`run_masked_consensus`); rows with k_r = 0 read
M^0 = I. `run_consensus` runs one lane on one network as a chunk of
one. The paper's step-by-step form is the test suite's reference
(`tests/consensus_reference.py`).
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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


class LanePlan(NamedTuple):
    """What K consensus lanes do at every timestep, for R seeds that each
    run them on their own network of N nodes.

    `steps` (K, n) counts how often lane k averages row r, so one node
    of lane k sends (n + 1) * steps[k].sum() scalars per timestep, and
    `powers` (R*K, n, N, N) gathers the matching powers of each seed's
    table, seed-major (lane k of seed s is entry s*K + k). Built once per
    run by `plan_lanes`; it holds those networks' powers, so it is never
    shared between runs.
    """

    steps: np.ndarray
    powers: np.ndarray


def plan_lanes(lanes: Sequence[tuple[EntrySelectionSchedule, int]], powers: np.ndarray,
               n: int) -> LanePlan:
    """The plan of the (schedule, L) `lanes` over states of dimension n.

    `powers` stacks the `averaging_powers` tables of R seeds' networks,
    (R, k_max + 1, N, N), each up to at least the deepest lane's M^L. Row
    r of a lane under `schedule` is selected at the steps l < L with l mod
    theta equal to the phase of its subset. Warns (and proceeds) once per
    lane whose L is not a whole number of selection cycles.
    """
    steps = np.zeros((len(lanes), n), dtype=int)
    for k, (schedule, L) in enumerate(lanes):
        if L < 1:
            raise ConfigurationError(f"consensus step count must be >= 1, got {L}")
        if L >= powers.shape[1]:
            raise ConfigurationError(f"{L} consensus steps need powers up to M^{L}; "
                                     f"the table ends at M^{powers.shape[1] - 1}")
        if schedule.n != n:
            raise ConfigurationError(f"schedule over {schedule.n} rows for a state of "
                                     f"dimension {n}")
        theta = schedule.theta_bar
        if L % theta != 0:
            warnings.warn(
                f"consensus with L = {L} steps is not a multiple of the {theta}-step "
                f"selection cycle of subsets {schedule.subsets}; posterior rows are "
                "mixed across cycle phases",
                ConsensusCycleWarning, stacklevel=2,
            )
        for z, rows in enumerate(schedule.rows):
            steps[k, rows] = len(range(z, L, theta))
    gathered = powers[:, steps].reshape((len(powers) * len(lanes), n) + powers.shape[-2:])
    return LanePlan(steps, gathered)


def run_masked_consensus(B: np.ndarray, b: np.ndarray, powers: np.ndarray,
                         B_out: Optional[np.ndarray] = None,
                         b_out: Optional[np.ndarray] = None):
    """Average the rows of every lane's (B, b) in closed form.

    `B` (K, N, n, n) and `b` (K, N, n) hold K lanes of N nodes, and
    `powers` (K, n, N, N) is a plan's gathered powers: row r of lane k
    becomes powers[k, r] applied across its nodes, one (N, N) @ (N, n)
    product per lane and row, all in one batched matmul. Rows that no step
    selects read M^0 = I and come back unchanged. Returns the averaged
    (B, b), written into `B_out` and `b_out` where they are given (arrays
    of the shapes of B and b that share no memory with the inputs), into
    new arrays otherwise; the inputs are not modified.
    """
    B_out = np.matmul(powers, B.transpose(0, 2, 1, 3),
                      out=None if B_out is None else B_out.transpose(0, 2, 1, 3))
    b_out = np.matmul(powers, b.transpose(0, 2, 1)[..., None],
                      out=None if b_out is None else b_out.transpose(0, 2, 1)[..., None])
    return B_out.transpose(0, 2, 1, 3), b_out[..., 0].transpose(0, 2, 1)


def run_consensus(state: ConsensusState, schedule: EntrySelectionSchedule, L: int,
                  powers: np.ndarray, ledger: BandwidthLedger = None,
                  t: int = 0) -> ConsensusState:
    """Run L masked consensus steps under a synchronized schedule: one lane.

    Step l moves the rows `schedule.rows_at(l)` at every node;
    `powers` is the network's `averaging_powers` table, up to at least M^L.
    Plans the lane as `plan_lanes` does, so it warns (and proceeds) when L
    is not a whole number of selection cycles. When a ledger is given, it
    gets one entry at time t: every node sends |rows_at(l)| * (n + 1)
    scalars at step l.
    """
    plan = plan_lanes([(schedule, L)], powers[None], state.n)
    B, b = run_masked_consensus(state.B[None], state.b[None], plan.powers)
    if ledger is not None:
        ledger.record_consensus(t, state.n_nodes, [schedule.rows_at(l).size * (state.n + 1)
                                                   for l in range(L)])
    return ConsensusState(B=B[0], b=b[0])

