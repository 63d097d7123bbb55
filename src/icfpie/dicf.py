"""Per-timestep steps of the distributed filters and the centralized one.

A run's state is one stacked InformationState: omega (K*N + C, n, n) and
q (K*N + C, n) for K consensus lanes of N nodes each, then C = 0 or 1
centralized slice. A lane is one (schedule, L) pair; the stack is
lane-major, so slice k*N + i is node i of lane k. A distributed step:
local correction terms from each node's own measurement (zero where the
target is unsensed; `correction_terms` computes them for a whole run in
one pass), consensus initialization, L masked consensus steps
with the whole network in closed form, one batched product for every
lane's N-slice block (the run's `plan_lanes` plan), written straight
into the stack of (B, b) pairs that recovery reads, then
posterior recovery (Omega = N * B(L), estimate from the B(L) b(L) pair
with the singular policy) and an information-form prediction, both from
one Cholesky factor of B(L) per slice. The centralized slice fuses every
sensed node's contribution at once, the pair consensus converges to,
from the same local correction terms the lanes start from, and joins
that one recovery call with scale 1 in place of N. With the identity
selection schedule a lane is exactly the original full-exchange
consensus filter; `ckf_step` steps the centralized filter alone through
`centralized_correct`, with the same bits.
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
    """The measurement terms of one timestep, or of every timestep of a run
    along a leading time axis, for N nodes that share one sensor:

    * `sensed` (N,): whether node i senses the target;
    * `d_omega` (N, n, n): the sensor's symmetrize(C^T V C) where node i
      senses the target, else 0;
    * `d_q` (N, n): C^T V y_i where node i senses the target, else 0;
    * `central_omega` (n, n): k C^T V C for the k sensing nodes;
    * `central_q` (n,): the sum of those k C^T V y_i.
    """

    sensed: np.ndarray
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
    where sensed (..., N) is True: one timestep's (N, m), or a run's
    (T, N, m) in one pass. The sensor's gains are computed once per run;
    only C^T V y and the masks are computed here, for every measurement.
    A run's (T, N, n, n) masked gains take 384 kB at T = 300, N = 10 and
    n = 4. The centralized
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
    return CorrectionTerms(sensed=sensed,
                           d_omega=np.where(sensed[..., None, None], omega_gain, 0.0),
                           d_q=d_q,
                           central_omega=sensed.sum(axis=-1)[..., None, None] * omega_gain,
                           central_q=d_q.sum(axis=-2))


@lru_cache(maxsize=16)
def _stack_scale(n_lanes: int, n_nodes: int, n_central: int) -> np.ndarray:
    """The posterior scale of every slice of a stack, read-only: N for a
    lane's node slices, 1 for the centralized one."""
    scale = np.full(n_lanes * n_nodes + n_central, float(n_nodes))
    scale[n_lanes * n_nodes:] = 1.0
    scale.setflags(write=False)
    return scale


def dicf_step(prior: InformationState, plan: LanePlan, terms: CorrectionTerms,
              sys: SystemModel, log: Optional[NumericsLog] = None):
    """Advance every slice of the stack one timestep; returns (next prior,
    posterior, estimates): the stacked posterior (S, n, n) / (S, n) and
    the (S, n) posterior state estimates.

    `plan` is the run's `plan_lanes` plan of K lanes on an N-node network,
    and `prior` their lane-major stack of K*N node states, then at most one
    slice that steps as `ckf_step` steps it alone: S = K*N + C >= 1 with C
    in {0, 1}. One batched consensus product per step advances every lane.
    `terms` are the timestep's `correction_terms`: the lanes start
    consensus from the node terms, and the centralized slice adds the
    centralized sums to its prior, as `centralized_correct` would. Events
    in `log` carry the slice index as `node`: k*N + i, and K*N for the
    centralized slice.
    """
    n_lanes, n_nodes = plan.powers.shape[0], plan.powers.shape[-1]
    n_lane_slices = n_lanes * n_nodes
    n_central = prior.q.shape[0] - n_lane_slices
    if n_central not in (0, 1) or prior.q.shape[0] == 0:
        raise ConfigurationError(f"prior stack has {prior.q.shape[0]} slices; expected {n_lanes} "
                                 f"lanes x {n_nodes} nodes plus 0 or 1 centralized, 1 or more in all")
    n = prior.q.shape[-1]
    # lane k of the (K, N, ...) view takes the N node corrections by broadcasting
    lane_prior = InformationState(
        prior.omega[:n_lane_slices].reshape(n_lanes, n_nodes, n, n),
        prior.q[:n_lane_slices].reshape(n_lanes, n_nodes, n))
    B0, b0 = init_consensus(lane_prior, terms.d_omega, terms.d_q, n_nodes)
    # the (B, b) pair of every slice, lanes' node blocks first
    B, b = np.empty(prior.omega.shape), np.empty(prior.q.shape)
    consensus.run_masked_consensus(B0, b0, plan.powers, B[:n_lane_slices].reshape(B0.shape),
                                   b[:n_lane_slices].reshape(b0.shape))
    B[n_lane_slices:] = symmetrize(prior.omega[n_lane_slices:] + terms.central_omega)
    b[n_lane_slices:] = prior.q[n_lane_slices:] + terms.central_q

    # the estimates come from the consensus pairs themselves; the N factor cancels
    posterior, estimates, next_prior = recover_and_predict(
        B, b, _stack_scale(n_lanes, n_nodes, n_central), sys.a, sys.process_cov, log)
    return next_prior, posterior, estimates


def ckf_step(central: InformationState, measurements: np.ndarray, sensed: np.ndarray,
             sensor: MeasurementModel, sys: SystemModel,
             log: Optional[NumericsLog] = None):
    """One centralized information-filter cycle over all sensed nodes.

    `central` is a one-slice stack, omega (1, n, n) and q (1, n).
    `measurements` is (N, m) and `sensed` (N,) bool, as for one timestep
    of `correction_terms`.
    Returns (next prior, posterior, estimate); the posterior and its
    (1, n) estimate are the benchmark fused estimate for this timestep.
    A run steps this filter as the last slice of its `dicf_step` stack,
    with the same bits.
    """
    fused = centralized_correct(central, sensor.c, sensor.v, measurements[sensed])
    posterior, x_post, next_prior = recover_and_predict(
        fused.omega, fused.q, 1, sys.a, sys.process_cov, log)
    return next_prior, posterior, x_post
