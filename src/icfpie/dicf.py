"""Per-timestep distributed and centralized filter steps.

The distributed filter state is one stacked InformationState: omega of
shape (K*N, n, n) and q of shape (K*N, n) for K consensus lanes of N
nodes each. A lane is one (schedule, L) pair; the stack is lane-major,
so slice k*N + i is node i of lane k. A distributed step: local
correction terms from each node's own measurement (zero where the target
is unsensed), consensus initialization, L masked consensus steps with
the whole network, run per lane on its N-slice block, then posterior
recovery (Omega = N * B(L), estimate from the B(L) b(L) pair with the
singular policy) and an information-form prediction, both from one
Cholesky factor of B(L) per slice. Every other stage acts on
the whole stack at once, so one call advances every lane. With the
identity selection schedule a lane is exactly the original full-exchange
consensus filter; the centralized step fuses every node's contribution
at once into a one-slice stack (K*N = 1), with the same primitives, and
serves as the benchmark.
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
    """Advance every node of every lane one timestep; returns (next prior,
    posterior, estimates): the stacked posterior (K*N, n, n) / (K*N, n)
    and the (K*N, n) posterior state estimates.

    `powers` is the network's `averaging_powers` table, up to at least the
    deepest lane's M^L. `lanes` holds K (schedule, L) pairs and `prior`
    their lane-major stack of K*N node states. `measurements` is (N, m)
    and `sensed` (N,) bool: node i of every lane corrects with
    measurements[i] only where sensed[i]. `ledgers`, if given, holds one
    ledger per lane. Events in `log` carry the slice index k*N + i as
    `node`.
    """
    n_nodes, n_lanes = powers.shape[-1], len(lanes)
    if n_lanes < 1:
        raise ConfigurationError("dicf_step needs at least one (schedule, L) lane")
    if prior.q.shape[0] != n_lanes * n_nodes:
        raise ConfigurationError(f"prior stack has {prior.q.shape[0]} slices, expected "
                                 f"{n_lanes} lanes x {n_nodes} nodes")
    if ledgers is None:
        ledgers = [None] * n_lanes
    elif len(ledgers) != n_lanes:
        raise ConfigurationError(f"{len(ledgers)} ledgers for {n_lanes} lanes")
    d_omega, d_q = local_correction_terms(sensor.c, sensor.v, measurements)
    d_omega = np.where(sensed[:, None, None], d_omega, 0.0)
    d_q = np.where(sensed[:, None], d_q, 0.0)
    B, b = init_consensus(prior, np.tile(d_omega, (n_lanes, 1, 1)),
                          np.tile(d_q, (n_lanes, 1)), n_nodes)
    for k, ((schedule, L), ledger) in enumerate(zip(lanes, ledgers)):
        block = slice(k * n_nodes, (k + 1) * n_nodes)
        state = run_consensus(ConsensusState(B[block], b[block]), schedule, L, powers,
                              ledger=ledger, t=t)
        B[block], b[block] = state.B, state.b

    # the estimates come from the consensus pairs themselves; the N factor cancels
    posterior, estimates, next_prior = recover_and_predict(
        B, b, n_nodes, sys.a, sys.process_cov, log)
    return next_prior, posterior, estimates


def ckf_step(central: InformationState, measurements: np.ndarray, sensed: np.ndarray,
             sensor: MeasurementModel, sys: SystemModel,
             log: Optional[NumericsLog] = None):
    """One centralized information-filter cycle over all sensed nodes.

    `central` is a one-slice stack, omega (1, n, n) and q (1, n).
    `measurements` is (N, m) and `sensed` (N,) bool, as for dicf_step.
    Returns (next prior, posterior, estimate); the posterior and its
    (1, n) estimate are the benchmark fused estimate for this timestep.
    """
    fused = centralized_correct(central, sensor.c, sensor.v, measurements[sensed])
    posterior, x_post, next_prior = recover_and_predict(
        fused.omega, fused.q, 1, sys.a, sys.process_cov, log)
    return next_prior, posterior, x_post
