"""Per-timestep steps of the distributed filters and the centralized one.

A run's state is one stacked InformationState: omega (K*N + C, n, n) and
q (K*N + C, n) for K consensus lanes of N nodes each, then C = 0 or 1
centralized slice. A lane is one (schedule, L) pair; the stack is
lane-major, so slice k*N + i is node i of lane k. A distributed step:
local correction terms from each node's own measurement (zero where the
target is unsensed), consensus initialization, L masked consensus steps
with the whole network, run per lane on its N-slice block, then
posterior recovery (Omega = N * B(L), estimate from the B(L) b(L) pair
with the singular policy) and an information-form prediction, both from
one Cholesky factor of B(L) per slice. The centralized slice fuses every
sensed node's contribution at once, the pair consensus converges to, and
joins that one recovery call with scale 1 in place of N. With the
identity selection schedule a lane is exactly the original full-exchange
consensus filter; `ckf_step` steps the centralized filter alone.
"""

from typing import Optional, Sequence

import numpy as np

from .consensus import ConsensusState, init_consensus, run_consensus
from .errors import ConfigurationError
from .info_filter import (
    InformationState,
    NumericsLog,
    centralized_correct,
    local_correction_terms,
    recover_and_predict,
)
from .info_filter import (  # noqa: F401  unused here; perfbench/tracer.py wraps them by name
    information_state,
    predict,
    to_state_estimate,
)
from .models import MeasurementModel, SystemModel
from .models import linearize  # noqa: F401  unused here; perfbench/tracer.py wraps it by name
from .network import BandwidthLedger
from .selection import EntrySelectionSchedule


def dicf_step(prior: InformationState, powers: np.ndarray,
              lanes: Sequence[tuple[EntrySelectionSchedule, int]],
              measurements: np.ndarray, sensed: np.ndarray,
              sensor: MeasurementModel, sys: SystemModel,
              ledgers: Optional[Sequence[BandwidthLedger]] = None, t: int = 0,
              log: Optional[NumericsLog] = None):
    """Advance every slice of the stack one timestep; returns (next prior,
    posterior, estimates): the stacked posterior (S, n, n) / (S, n) and
    the (S, n) posterior state estimates.

    `powers` is the network's `averaging_powers` table, up to at least the
    deepest lane's M^L. `lanes` holds K (schedule, L) pairs and `prior`
    their lane-major stack of K*N node states, then at most one slice that
    steps as `ckf_step` steps it alone: S = K*N + C >= 1 with C in {0, 1}.
    `measurements` is (N, m) and `sensed` (N,) bool: node i of every lane
    corrects with measurements[i] only where sensed[i]. `ledgers`, if
    given, holds one ledger per lane. Events in `log` carry the slice
    index as `node`: k*N + i, and K*N for the centralized slice.
    """
    n_nodes, n_lanes = powers.shape[-1], len(lanes)
    n_lane_slices = n_lanes * n_nodes
    n_central = prior.q.shape[0] - n_lane_slices
    if n_central not in (0, 1) or prior.q.shape[0] == 0:
        raise ConfigurationError(f"prior stack has {prior.q.shape[0]} slices; expected {n_lanes} "
                                 f"lanes x {n_nodes} nodes plus 0 or 1 centralized, 1 or more in all")
    if ledgers is None:
        ledgers = [None] * n_lanes
    elif len(ledgers) != n_lanes:
        raise ConfigurationError(f"{len(ledgers)} ledgers for {n_lanes} lanes")
    n = prior.q.shape[-1]
    d_omega, d_q = local_correction_terms(sensor.c, sensor.v, measurements)
    d_omega = np.where(sensed[:, None, None], d_omega, 0.0)
    d_q = np.where(sensed[:, None], d_q, 0.0)
    # lane k of the (K, N, ...) view takes the N node corrections by broadcasting
    lane_prior = InformationState(
        prior.omega[:n_lane_slices].reshape(n_lanes, n_nodes, n, n),
        prior.q[:n_lane_slices].reshape(n_lanes, n_nodes, n))
    B, b = init_consensus(lane_prior, d_omega, d_q, n_nodes)
    for k, ((schedule, L), ledger) in enumerate(zip(lanes, ledgers)):
        state = run_consensus(ConsensusState(B[k], b[k]), schedule, L, powers,
                              ledger=ledger, t=t)
        B[k], b[k] = state.B, state.b
    central = InformationState(prior.omega[n_lane_slices:], prior.q[n_lane_slices:])
    fused = centralized_correct(central, sensor.c, sensor.v, measurements[sensed])

    # the estimates come from the consensus pairs themselves; the N factor cancels
    posterior, estimates, next_prior = recover_and_predict(
        np.concatenate([B.reshape(n_lane_slices, n, n), fused.omega]),
        np.concatenate([b.reshape(n_lane_slices, n), fused.q]),
        np.repeat([float(n_nodes), 1.0], [n_lane_slices, n_central]),
        sys.a, sys.process_cov, log)
    return next_prior, posterior, estimates


def ckf_step(central: InformationState, measurements: np.ndarray, sensed: np.ndarray,
             sensor: MeasurementModel, sys: SystemModel,
             log: Optional[NumericsLog] = None):
    """One centralized information-filter cycle over all sensed nodes.

    `central` is a one-slice stack, omega (1, n, n) and q (1, n).
    `measurements` is (N, m) and `sensed` (N,) bool, as for dicf_step.
    Returns (next prior, posterior, estimate); the posterior and its
    (1, n) estimate are the benchmark fused estimate for this timestep.
    A run steps this filter as the last slice of its `dicf_step` stack,
    with the same bits.
    """
    fused = centralized_correct(central, sensor.c, sensor.v, measurements[sensed])
    posterior, x_post, next_prior = recover_and_predict(
        fused.omega, fused.q, 1, sys.a, sys.process_cov, log)
    return next_prior, posterior, x_post
