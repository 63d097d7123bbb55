"""Per-timestep distributed and centralized filter steps.

The network's filter state is one stacked InformationState: omega of
shape (N, n, n) and q of shape (N, n), row k being node k. A distributed
step: local correction terms from each node's own measurement (zero
where the target is unsensed), consensus initialization, L masked
consensus steps with the whole network, posterior recovery (Omega =
N * B(L), estimate from the B(L) b(L) pair with the singular policy),
then an information-form prediction. Every stage acts on the whole stack
at once. With the identity selection schedule this is exactly the
original full-exchange consensus filter; the centralized step fuses
every node's contribution at once, with the same primitives on a single
estimate, and serves as the benchmark.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .consensus import ConsensusState, init_consensus, run_consensus
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
    """Results of one timestep across the network."""

    posterior: InformationState    # stacked: omega (N, n, n), q (N, n)
    estimates: np.ndarray          # (N, n) posterior state estimates


def dicf_step(prior: InformationState, net: SensorNetwork, schedule: EntrySelectionSchedule,
              L: int, eps: float, measurements: np.ndarray, sensed: np.ndarray,
              sensor: MeasurementModel, sys: SystemModel, noise: NoiseInformation,
              ledger: Optional[BandwidthLedger] = None, t: int = 0,
              log: Optional[NumericsLog] = None):
    """Advance every node one timestep; returns (next prior, StepOutput).

    `prior` is the stacked state of the N nodes, `measurements` is (N, m)
    and `sensed` is (N,) bool: node k corrects with measurements[k] only
    where sensed[k].
    """
    n_nodes = prior.q.shape[0]
    c = linearize(sensor, to_state_estimate(prior, log))
    d_omega, d_q = local_correction_terms(c, noise.v, measurements)
    d_omega = np.where(sensed[:, None, None], d_omega, 0.0)
    d_q = np.where(sensed[:, None], d_q, 0.0)
    state = run_consensus(ConsensusState(*init_consensus(prior, d_omega, d_q, n_nodes)),
                          schedule, L, net, eps, ledger=ledger, t=t)

    posterior = information_state(n_nodes * state.B, n_nodes * state.b)
    # estimates from the consensus pairs themselves; the N factor cancels
    estimates = to_state_estimate(information_state(state.B, state.b), log)
    a = linearize(sys, estimates)
    next_prior = predict(posterior, a, noise.w, log=log)
    return next_prior, StepOutput(posterior=posterior, estimates=estimates)


def ckf_step(central: InformationState, measurements: np.ndarray, sensed: np.ndarray,
             sensor: MeasurementModel, sys: SystemModel, noise: NoiseInformation,
             log: Optional[NumericsLog] = None):
    """One centralized information-filter cycle over all sensed nodes.

    `measurements` is (N, m) and `sensed` (N,) bool, as for dicf_step.
    Returns (posterior, next_prior); the posterior is the benchmark fused
    estimate for this timestep.
    """
    x_prior = to_state_estimate(central, log)
    c = linearize(sensor, x_prior)
    posterior = centralized_correct(central, c, noise.v, measurements[sensed])
    x_post = to_state_estimate(posterior, log)
    a = linearize(sys, x_post)
    next_prior = predict(posterior, a, noise.w, log=log)
    return posterior, next_prior
