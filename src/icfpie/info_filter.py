"""Information-form Kalman filter primitives and the centralized benchmark.

Estimates live in natural parameters: information matrix Omega = P^-1 and
information vector q = P^-1 x_hat. Correction is additive in (Omega, q);
prediction maps through the covariance form once per step.

Every estimate is a stack of K slices: Omega of shape (K, n, n) and q of
shape (K, n), one slice per node, and the centralized filter's one more.
Every primitive acts on the stack slice by slice through numpy's
batched linear algebra; only flagged slices take a per-slice path, and
every event carries its slice index as `node`.

Numerical policy (applied everywhere, per slice, logged via NumericsLog):
  * symmetrize Omega after every arithmetic update;
  * if the smallest eigenvalue of Omega falls below SINGULAR_EIG before an
    inversion, shift Omega by lam*I with lam = 1e-8 * (1 + |trace|/n),
    plus whatever clears a negative eigenvalue;
  * state extraction from a singular Omega returns the minimum-norm
    least-squares solution and flags the event.
Both eigenvalue checks are skipped for a slice whose Cholesky factor
certifies it: lambda_min(L L^T) >= 1 / ||L^-1||_F^2, so a slice whose
bound (less a rounding margin) clears SINGULAR_EIG, and whose condition
estimate is at most ILL_CONDITIONED, would be flagged by neither check.
`recover_and_predict` runs posterior recovery and prediction from one
such factor per slice.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, FilterNumericsError

SINGULAR_EIG = 1e-10
REG_SCALE = 1e-8
ILL_CONDITIONED = 1e12
CERT_MARGIN = 64 * np.finfo(float).eps


@dataclass
class NumericsLog:
    """Collects regularization and singular-solve events for diagnostics."""

    events: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def record(self, kind: str, context: str, **info):
        self.events.append({"kind": kind, "context": context, **info})
        self.counts[kind] += 1

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.events)
        return self.counts[kind]


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M^T)/2 over the last two axes, suppressing asymmetry drift."""
    return (m + m.swapaxes(-1, -2)) * 0.5


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v over the last axes: (..., k, n) times (..., n), slice by slice."""
    return (m @ v[..., None])[..., 0]


@dataclass(frozen=True)
class InformationState:
    """A stack of K Gaussian estimates in information form: symmetric PSD
    omega (K, n, n) and vectors q (K, n)."""

    omega: np.ndarray
    q: np.ndarray


def information_state(omega: np.ndarray, q: np.ndarray) -> InformationState:
    """Construct an InformationState stack, checking shapes and symmetrizing."""
    omega = np.asarray(omega, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or omega.shape != q.shape + q.shape[-1:]:
        raise ConfigurationError(f"information state must be a stack omega (K, n, n), "
                                 f"q (K, n); got {omega.shape} and {q.shape}")
    return InformationState(omega=symmetrize(omega), q=q)


def _min_eigenvalues(m: np.ndarray, context: str) -> np.ndarray:
    """Smallest eigenvalue of every slice, shape (K,)."""
    if not np.all(np.isfinite(m)):
        raise FilterNumericsError(f"non-finite information matrix in {context}")
    try:
        return np.linalg.eigvalsh(m)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError(f"eigenvalue computation failed in {context}: {exc}")


def _regularize(stack: np.ndarray, nodes: np.ndarray, log: Optional[NumericsLog],
                context: str) -> np.ndarray:
    """The diagonal-shift policy on a stack; the event of slice k carries
    node nodes[k]."""
    eig_min = _min_eigenvalues(stack, context)
    flagged = np.flatnonzero(eig_min < SINGULAR_EIG)
    n = stack.shape[-1]
    out = stack.copy()
    for k in flagged:
        e = float(eig_min[k])
        lam = REG_SCALE * (1.0 + abs(float(np.trace(stack[k]))) / n) + max(0.0, -e)
        if log is not None:
            log.record("regularize", context, eig_min=e, lam=lam, node=int(nodes[k]))
        out[k] += lam * np.eye(n)
    return out


def ensure_invertible(omega: np.ndarray, log: Optional[NumericsLog] = None,
                      context: str = "") -> np.ndarray:
    """Apply the diagonal-shift regularization to every near-singular slice.

    The shift is 1e-8 * (1 + |trace|/n); slightly indefinite matrices (a
    partial selection cycle can leave the symmetrized posterior with a
    small negative eigenvalue) are additionally shifted past zero. Slices
    above the threshold are returned unchanged.
    """
    return _regularize(omega, np.arange(len(omega)), log, context or "ensure_invertible")


def _condition_estimates(c: np.ndarray) -> np.ndarray:
    """Cheap condition estimate of L L^T from its Cholesky factors' diagonals."""
    d = np.abs(c.diagonal(axis1=-2, axis2=-1))
    return (d.max(axis=-1) / d.min(axis=-1)) ** 2


def _inv_spd(stack: np.ndarray, nodes: np.ndarray, log: Optional[NumericsLog],
             context: str) -> np.ndarray:
    try:
        c = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError(f"matrix not positive definite in {context or 'inv_spd'}: {exc}")
    if log is not None:
        cond_est = _condition_estimates(c)
        for k in np.flatnonzero(cond_est > ILL_CONDITIONED):
            log.record("ill_conditioned", context, cond_estimate=float(cond_est[k]),
                       node=int(nodes[k]))
    c_inv = np.linalg.inv(c)
    return symmetrize(c_inv.swapaxes(-1, -2) @ c_inv)


def inv_spd(m: np.ndarray, log: Optional[NumericsLog] = None, context: str = "") -> np.ndarray:
    """Inverse of every slice of a symmetric positive-definite stack via Cholesky.

    Reports the (cheap, factor-based) condition estimate of each slice
    through `log` when it is large; raises FilterNumericsError if any
    factorization fails.
    """
    return _inv_spd(m, np.arange(len(m)), log, context)


def local_correction_terms(c: np.ndarray, v: np.ndarray, y: np.ndarray):
    """Additive information contribution of a stack of measurements y
    (k, m) taken by the same sensor.

    Returns (delta_omega, delta_q) = (C^T V C, C^T V y); delta_omega is
    (n, n) and shared by the stack, delta_q is (k, n).
    """
    c = np.asarray(c, dtype=float)
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    m = c.shape[0]
    if v.shape != (m, m) or y.ndim != 2 or y.shape[-1] != m:
        raise ConfigurationError(
            f"inconsistent correction dimensions: C {c.shape}, V {v.shape}, y {y.shape}"
        )
    ctv = c.T @ v
    return symmetrize(ctv @ c), _matvec(ctv, y)


def centralized_correct(prior: InformationState, c: np.ndarray, v: np.ndarray,
                        y: np.ndarray) -> InformationState:
    """Fuse a stack of k measurements y (k, m), all taken by the sensor
    (C, V), at a single center: Omega + k C^T V C and q + sum_i C^T V y_i
    for every slice of the prior. With k = 0 the prior comes back unchanged."""
    d_omega, d_q = local_correction_terms(c, v, y)
    return information_state(prior.omega + len(d_q) * d_omega, prior.q + d_q.sum(axis=0))


@dataclass(frozen=True)
class SliceFactors:
    """One Cholesky factorization per slice of a symmetrized stack.

    `c_inv` holds the inverse factors L^-1 (the identity where the
    factorization failed, `ok` False). Since lambda_min(L L^T) >=
    1 / ||L^-1||_F^2, `bound` is a lower bound on each slice's smallest
    eigenvalue, less a rounding margin of CERT_MARGIN * ||Omega||_F that
    covers both the factorization's and eigvalsh's backward error. A
    slice is `certified` when its bound clears SINGULAR_EIG and its
    condition estimate is at most ILL_CONDITIONED: eigvalsh would flag it
    in no check, so it skips eigvalsh. Every other slice takes the
    eigenvalue policy.
    """

    stack: np.ndarray
    c_inv: np.ndarray
    ok: np.ndarray
    bound: np.ndarray
    certified: np.ndarray

    def solve(self, q: np.ndarray) -> np.ndarray:
        """Omega^-1 q = L^-T L^-1 q for every slice (meaningful where ok)."""
        return _matvec(self.c_inv.swapaxes(-1, -2), _matvec(self.c_inv, q))


def factor_slices(omega: np.ndarray, context: str) -> SliceFactors:
    """Cholesky-factor every slice of the stack sym(omega) and
    certify the slices that need no eigenvalue check. A slice whose
    factorization fails never affects the others: a failing batched
    factorization is redone slice by slice."""
    stack = symmetrize(omega)
    if not np.all(np.isfinite(stack)):
        raise FilterNumericsError(f"non-finite information matrix in {context}")
    ok = np.ones(stack.shape[0], dtype=bool)
    try:
        c = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        c = np.broadcast_to(np.eye(stack.shape[-1]), stack.shape).copy()
        for k in range(stack.shape[0]):
            try:
                c[k] = np.linalg.cholesky(stack[k])
            except np.linalg.LinAlgError:
                ok[k] = False
    c_inv = np.linalg.inv(c)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = (1.0 / np.einsum("kij,kij->k", c_inv, c_inv)
                 - CERT_MARGIN * np.sqrt(np.einsum("kij,kij->k", stack, stack)))
        certified = ok & (bound >= SINGULAR_EIG) & (_condition_estimates(c) <= ILL_CONDITIONED)
    return SliceFactors(stack=stack, c_inv=c_inv, ok=ok, bound=bound, certified=certified)


def _estimates(f: SliceFactors, q: np.ndarray, log: Optional[NumericsLog]) -> np.ndarray:
    """Omega^-1 q per slice; uncertified slices whose smallest eigenvalue is
    below SINGULAR_EIG, or whose factorization failed, get the
    minimum-norm least-squares solution and a `singular_solve` event."""
    x = f.solve(q)
    if not f.certified.all():
        check = np.flatnonzero(~f.certified)
        eig_min = _min_eigenvalues(f.stack[check], "to_state_estimate")
        for k, e in zip(check, eig_min):
            if e >= SINGULAR_EIG and f.ok[k]:
                continue
            if log is not None:
                log.record("singular_solve", "to_state_estimate", eig_min=float(e),
                           node=int(k))
            x[k], *_ = np.linalg.lstsq(f.stack[k], q[k], rcond=None)
    return x


def _predicted(f: SliceFactors, scale: np.ndarray, x: np.ndarray, post: InformationState,
               a: np.ndarray, q_cov: np.ndarray,
               log: Optional[NumericsLog]) -> InformationState:
    """Time update of post = (scale * Omega, scale * q), slice k scaled by
    scale[k], where f factors Omega and x = Omega^-1 q on certified slices.

    A certified slice uses P = L^-T L^-1 / scale and x_hat = x. Every other
    slice regularizes and inverts its posterior as `predict` always did.
    Then Omega+ = (A P A^T + Q)^-1 and q+ = Omega+ A x_hat.
    """
    # A P A^T = G^T G / scale with G = L^-1 A^T
    g = f.c_inv @ a.T
    apa = g.swapaxes(-1, -2) @ g / scale[:, None, None]
    x_hat = x.copy()
    if not f.certified.all():
        check = np.flatnonzero(~f.certified)
        omega = _regularize(symmetrize(post.omega[check]), check, log, "predict")
        p = _inv_spd(omega, check, log, "predict: invert posterior")
        apa[check] = a @ p @ a.T
        x_hat[check] = _matvec(p, post.q[check])
    p_next = symmetrize(apa) + q_cov
    # inv_spd returns a symmetric stack, so information_state would not change it
    omega_next = inv_spd(p_next, log, "predict: invert predicted covariance")
    return InformationState(omega_next, _matvec(omega_next, _matvec(a, x_hat)))


def predict(post: InformationState, a: np.ndarray, q_cov: np.ndarray,
            log: Optional[NumericsLog] = None) -> InformationState:
    """Time update in information form, slice by slice.

    Omega+ = (A Omega^-1 A^T + Q)^-1 and q+ = Omega+ A x_hat, where
    x_hat = Omega^-1 q and Q is the process-noise covariance.
    """
    a = np.asarray(a, dtype=float)
    q_cov = np.asarray(q_cov, dtype=float)
    f = factor_slices(post.omega, "predict")
    x = f.solve(post.q)
    return _predicted(f, np.ones(len(x)), x, post, a, q_cov, log)


def to_state_estimate(s: InformationState, log: Optional[NumericsLog] = None) -> np.ndarray:
    """State estimates Omega^-1 q, (K, n); minimum-norm solution for every
    slice whose Omega is singular."""
    return _estimates(factor_slices(s.omega, "to_state_estimate"), s.q, log)


def recover_and_predict(b_mat: np.ndarray, b_vec: np.ndarray, scale,
                        a: np.ndarray, q_cov: np.ndarray,
                        log: Optional[NumericsLog] = None):
    """Posterior recovery and prediction with one factorization per slice.

    From a stack of consensus pairs (B, b), returns (posterior,
    estimates, next prior): the posterior (scale * B, scale * b), with
    `scale` (K,) per slice or one for all (N for a lane's pairs, 1 for a
    fused centralized pair), the estimates B^-1 b (what
    `to_state_estimate` gives for the pairs), and the posterior predicted
    through (A, Q) (what `predict` gives for it). One Cholesky factor of
    sym(B) per slice serves both: it gives the estimate, and
    P = B^-1 / scale for the prediction. The smallest eigenvalue scales
    with B, so one certificate covers the checks of both.
    """
    scale = np.full(len(b_vec), scale, dtype=float)
    posterior = information_state(scale[:, None, None] * b_mat, scale[:, None] * b_vec)
    f = factor_slices(b_mat, "to_state_estimate")
    x = _estimates(f, b_vec, log)
    if not np.all(np.isfinite(x)):
        raise FilterNumericsError("non-finite state estimate")
    next_prior = _predicted(f, scale, x, posterior, a, q_cov, log)
    return posterior, x, next_prior
