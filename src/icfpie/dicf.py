"""Per-timestep steps of the distributed filters and the centralized one.

Every entry takes the one shape a run steps: a chunk of R seeds of one
config as one stacked InformationState, omega (R*K*N + C, n, n) and q
(R*K*N + C, n), for K consensus lanes of N nodes each per seed, then
C = 0 or R centralized slices, one per seed. A lane is one (seed,
schedule, L) triple; the stack is seed-major and lane-major, so slice
(r*K + k)*N + i is node i of lane k of seed r, and slice R*K*N + r is
the centralized filter of seed r. Each seed keeps its own network, truth
and measurements; `correction_terms` computes the local correction terms
of every seed and timestep of a run in one pass, (R, N, ...) per step.
`dicf_step` then initializes consensus from them (zero where the target
is unsensed), runs L masked consensus steps on the whole network in
closed form, one batched product for every lane's N-slice block (the
run's `plan_lanes` plan) written straight into the stack of (B, b) pairs
that recovery reads, and recovers the posterior (Omega = N * B(L),
estimate from the B(L) b(L) pair with the singular policy) and predicts
in information form, in one `recover_and_predict` call through the
system model, which holds its own split. The centralized slice fuses
every sensed node's contribution at once, the pair consensus converges
to, and joins that call with scale 1 in place of N. A slice's result depends on
that slice alone, so a seed run in a chunk gets the bits it gets alone.
With the identity selection schedule a lane is exactly the original
full-exchange consensus filter; `ckf_step` steps one centralized filter
alone through `centralized_correct`, with the same bits as its slice.
"""

from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import consensus
from .consensus import LanePlan, init_consensus
from .consensus import run_consensus  # noqa: F401  unused here; perfbench/tracer.py wraps it by name
from .errors import ConfigurationError
from .info_filter import (
    InformationState,
    NumericsLog,
    centralized_correct,
    measurement_gains,
    recover_and_predict,
    symmetrize,
)
from .info_filter import (  # noqa: F401  unused here; perfbench/tracer.py wraps them by name
    information_state,
    local_correction_terms,
    predict,
    to_state_estimate,
)
from .models import MeasurementModel, SystemModel
from .models import linearize  # noqa: F401  unused here; perfbench/tracer.py wraps it by name


class CorrectionTerms(NamedTuple):
    """The measurement terms of R seeds' N nodes, which share one sensor, at
    one timestep, or at every timestep of a run along a leading time axis:

    * `d_omega` (R, N, n, n): the sensor's symmetrize(C^T V C) where node
      i senses the target, else 0;
    * `d_q` (R, N, n): C^T V y_i where node i senses the target, else 0;
    * `central_omega` (R, n, n): k C^T V C for the k sensing nodes;
    * `central_q` (R, n): the sum of those k C^T V y_i.
    """

    d_omega: np.ndarray
    d_q: np.ndarray
    central_omega: np.ndarray
    central_q: np.ndarray

    def at(self, t: int) -> "CorrectionTerms":
        """Timestep t of a run's terms."""
        return CorrectionTerms(*(term[t] for term in self))


def correction_terms(sensor: MeasurementModel, measurements: np.ndarray,
                     sensed: np.ndarray) -> CorrectionTerms:
    """The CorrectionTerms of measurements (..., N, m) taken by `sensor`
    where sensed (..., N) is True, in one pass: a run passes its chunk's
    (T, R, N, m), so that each timestep's terms are its (R, N, ...) rows.
    The sensor's gains are computed once per run; only C^T V y and the
    masks are computed here, for every measurement. A seed's (T, N, n, n)
    masked gains take 384 kB at T = 300, N = 10 and n = 4. The centralized
    sums are the arithmetic of `centralized_correct`: k C^T V C, and the
    sensed C^T V y_i added in node order (the zeros in between add
    nothing)."""
    ctv, omega_gain = sensor.gains
    y = np.asarray(measurements, dtype=float)
    sensed = np.asarray(sensed, dtype=bool)
    if y.ndim < 2 or sensed.shape != y.shape[:-1]:
        raise ConfigurationError(f"measurements {y.shape} and sensed {sensed.shape} "
                                 "do not match: expected (..., N, m) and (..., N)")
    q_gains = measurement_gains(ctv, y.reshape(-1, y.shape[-1])).reshape(
        y.shape[:-1] + ctv.shape[:1])
    d_q = np.where(sensed[..., None], q_gains, 0.0)
    return CorrectionTerms(d_omega=np.where(sensed[..., None, None], omega_gain, 0.0),
                           d_q=d_q,
                           central_omega=sensed.sum(axis=-1)[..., None, None] * omega_gain,
                           central_q=d_q.sum(axis=-2))


@lru_cache(maxsize=16)
def _stack_scale(n_lanes: int, n_nodes: int, n_central: int) -> np.ndarray:
    """The posterior scale of every slice of a stack, read-only: N for a
    lane's node slices, 1 for each centralized one."""
    scale = np.full(n_lanes * n_nodes + n_central, float(n_nodes))
    scale[n_lanes * n_nodes:] = 1.0
    scale.setflags(write=False)
    return scale


def dicf_step(prior: InformationState, plan: LanePlan, terms: CorrectionTerms,
              sys: SystemModel, log: Optional[NumericsLog] = None):
    """Advance every slice of the stack one timestep; returns (next prior,
    posterior, estimates): the stacked posterior (S, n, n) / (S, n) and
    the (S, n) posterior state estimates.

    `terms` are the timestep's `correction_terms` of R seeds, (R, N, ...)
    arrays, whose d_q (R, N, n) gives R and N. `plan` is the run's
    `plan_lanes` plan of K lanes on each seed's N-node network, and
    `prior` their stack of R*K*N node states, seed-major and lane-major,
    then C = 0 or R centralized slices, one per seed, each of which steps
    as `ckf_step` steps it alone: S = R*K*N + C >= 1. One batched consensus product advances every lane of every
    seed, and one `recover_and_predict` call through `sys` every slice.
    The lanes of seed r start consensus from its node terms, and its
    centralized slice adds its centralized sums to its prior, as
    `centralized_correct` would. Events in `log` carry the slice index as
    `node`: (r*K + k)*N + i, and R*K*N + r for the centralized slice of
    seed r.
    """
    n_seeds = terms.d_q.shape[0]
    n_lanes, n_nodes = plan.powers.shape[0], plan.powers.shape[-1]
    n_lane_slices = n_lanes * n_nodes
    n_central = prior.q.shape[0] - n_lane_slices
    if (terms.d_q.shape[1:-1] != (n_nodes,) or n_lanes % n_seeds
            or n_central not in (0, n_seeds) or prior.q.shape[0] == 0):
        raise ConfigurationError(
            f"prior stack has {prior.q.shape[0]} slices for terms {terms.d_q.shape[:-1]}; "
            f"expected {n_lanes} lanes x {n_nodes} nodes for {n_seeds} seeds, plus 0 or "
            f"{n_seeds} centralized, 1 or more in all")
    n = prior.q.shape[-1]
    # lane k of seed r in the (R, K, N, ...) view takes its seed's N node
    # corrections by broadcasting
    seed_lanes = (n_seeds, n_lanes // n_seeds, n_nodes)
    lane_prior = InformationState(prior.omega[:n_lane_slices].reshape(seed_lanes + (n, n)),
                                  prior.q[:n_lane_slices].reshape(seed_lanes + (n,)))
    B0, b0 = init_consensus(lane_prior, terms.d_omega[:, None], terms.d_q[:, None], n_nodes)
    # the (B, b) pair of every slice, lanes' node blocks first
    B, b = np.empty(prior.omega.shape), np.empty(prior.q.shape)
    lanes = (n_lanes, n_nodes)
    consensus.run_masked_consensus(B0.reshape(lanes + (n, n)), b0.reshape(lanes + (n,)),
                                   plan.powers, B[:n_lane_slices].reshape(lanes + (n, n)),
                                   b[:n_lane_slices].reshape(lanes + (n,)))
    if n_central:
        B[n_lane_slices:] = symmetrize(prior.omega[n_lane_slices:] + terms.central_omega)
        b[n_lane_slices:] = prior.q[n_lane_slices:] + terms.central_q

    # the estimates come from the consensus pairs themselves; the N factor cancels
    posterior, estimates, next_prior = recover_and_predict(
        B, b, _stack_scale(n_lanes, n_nodes, n_central), sys, log)
    return next_prior, posterior, estimates


def ckf_step(central: InformationState, measurements: np.ndarray, sensed: np.ndarray,
             sensor: MeasurementModel, sys: SystemModel,
             log: Optional[NumericsLog] = None):
    """One centralized information-filter cycle over all sensed nodes.

    `central` is a one-slice stack, omega (1, n, n) and q (1, n).
    `measurements` is (N, m) and `sensed` (N,) bool: one seed's timestep.
    Returns (next prior, posterior, estimate); the posterior and its
    (1, n) estimate are the benchmark fused estimate for this timestep.
    A run steps this filter as a trailing slice of its `dicf_step` stack,
    with the same bits.
    """
    fused = centralized_correct(central, sensor.c, sensor.v, measurements[sensed])
    posterior, x_post, next_prior = recover_and_predict(fused.omega, fused.q, np.ones(1), sys,
                                                        log)
    return next_prior, posterior, x_post
