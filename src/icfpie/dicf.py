"""Per-timestep distributed and centralized filter steps.

The distributed filter state is one stacked InformationState: omega of
shape (K*N, n, n) and q of shape (K*N, n) for K consensus lanes of N
nodes each. A lane is one (schedule, L) pair; the stack is lane-major,
so slice k*N + i is node i of lane k. A distributed step: local
correction terms from each node's own measurement (zero where the target
is unsensed), consensus initialization, L masked consensus steps with
the whole network, run per lane on its N-slice block, posterior recovery
(Omega = N * B(L), estimate from the B(L) b(L) pair with the singular
policy), then an information-form prediction. Every other stage acts on
the whole stack at once, so one call advances every lane. With the
identity selection schedule a lane is exactly the original full-exchange
consensus filter; the centralized step fuses every node's contribution
at once, with the same primitives on a single estimate, and serves as
the benchmark.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .consensus import ConsensusState, init_consensus, run_consensus
from .errors import ConfigurationError
from .info_filter import (
    InformationState,
    NoiseInformation,
    NumericsLog,
    centralized_correct,
    information_state,
    local_correction_terms,
    predict,
    to_state_estimate,
)
from .models import MeasurementModel, SystemModel, linearize
from .network import BandwidthLedger, SensorNetwork
from .selection import EntrySelectionSchedule


@dataclass
class StepOutput:
    """Results of one timestep: of every lane's nodes, or of the center."""

    posterior: InformationState    # stacked (K*N, n, n) / (K*N, n), or one estimate
    estimates: np.ndarray          # (K*N, n) posterior state estimates, or (n,)


def dicf_step(prior: InformationState, net: SensorNetwork,
              lanes: Sequence[tuple[EntrySelectionSchedule, int]],
              eps: float, measurements: np.ndarray, sensed: np.ndarray,
              sensor: MeasurementModel, sys: SystemModel, noise: NoiseInformation,
              ledgers: Optional[Sequence[BandwidthLedger]] = None, t: int = 0,
              log: Optional[NumericsLog] = None):
    """Advance every node of every lane one timestep; returns (next prior,
    StepOutput).

    `lanes` holds K (schedule, L) pairs and `prior` their lane-major stack
    of K*N node states. `measurements` is (N, m) and `sensed` (N,) bool:
    node i of every lane corrects with measurements[i] only where
    sensed[i]. `ledgers`, if given, holds one ledger per lane.
    Events in `log` carry the slice index k*N + i as `node`.
    """
    n_nodes, n_lanes = net.n_nodes, len(lanes)
    if n_lanes < 1:
        raise ConfigurationError("dicf_step needs at least one (schedule, L) lane")
    if prior.q.shape[0] != n_lanes * n_nodes:
        raise ConfigurationError(f"prior stack has {prior.q.shape[0]} slices, expected "
                                 f"{n_lanes} lanes x {n_nodes} nodes")
    if ledgers is None:
        ledgers = [None] * n_lanes
    elif len(ledgers) != n_lanes:
        raise ConfigurationError(f"{len(ledgers)} ledgers for {n_lanes} lanes")
    c = linearize(sensor, to_state_estimate(prior, log))
    d_omega, d_q = local_correction_terms(c, noise.v, measurements)
    d_omega = np.where(sensed[:, None, None], d_omega, 0.0)
    d_q = np.where(sensed[:, None], d_q, 0.0)
    B, b = init_consensus(prior, np.tile(d_omega, (n_lanes, 1, 1)),
                          np.tile(d_q, (n_lanes, 1)), n_nodes)
    for k, ((schedule, L), ledger) in enumerate(zip(lanes, ledgers)):
        block = slice(k * n_nodes, (k + 1) * n_nodes)
        state = run_consensus(ConsensusState(B[block], b[block]), schedule, L, net, eps,
                              ledger=ledger, t=t)
        B[block], b[block] = state.B, state.b

    posterior = information_state(n_nodes * B, n_nodes * b)
    # estimates from the consensus pairs themselves; the N factor cancels
    estimates = to_state_estimate(information_state(B, b), log)
    a = linearize(sys, estimates)
    next_prior = predict(posterior, a, noise.w, log=log)
    return next_prior, StepOutput(posterior=posterior, estimates=estimates)


def ckf_step(central: InformationState, measurements: np.ndarray, sensed: np.ndarray,
             sensor: MeasurementModel, sys: SystemModel, noise: NoiseInformation,
             log: Optional[NumericsLog] = None):
    """One centralized information-filter cycle over all sensed nodes.

    `measurements` is (N, m) and `sensed` (N,) bool, as for dicf_step.
    Returns (next prior, StepOutput); the posterior and its estimate are
    the benchmark fused estimate for this timestep.
    """
    x_prior = to_state_estimate(central, log)
    c = linearize(sensor, x_prior)
    posterior = centralized_correct(central, c, noise.v, measurements[sensed])
    x_post = to_state_estimate(posterior, log)
    a = linearize(sys, x_post)
    next_prior = predict(posterior, a, noise.w, log=log)
    return next_prior, StepOutput(posterior=posterior, estimates=x_post)
