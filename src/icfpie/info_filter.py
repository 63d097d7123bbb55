"""Information-form Kalman filter primitives and the centralized benchmark.

Estimates live in natural parameters: information matrix Omega = P^-1 and
information vector q = P^-1 x_hat. Correction is additive in (Omega, q);
prediction maps through the covariance form once per step.

Every estimate is a stack of K slices: Omega of shape (K, n, n) and q of
shape (K, n), one slice per node, and the centralized filter's one more.
Every primitive acts on the stack slice by slice through numpy's
batched linear algebra, and every event carries its slice index as
`node`.

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
such factor per slice. The uncertified slices of a step, non-finite ones
among them, take one batched pass: one eigenvalue call for both checks,
one SVD for every minimum-norm solve, one vectorized shift and one
inversion of the shifted posteriors. Only the event records, and the
refactoring of the slices a failed batched factorization names, loop
over slices.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg  # the batched routines behind np.linalg

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


def _shift(stack: np.ndarray, eig_min: np.ndarray, nodes: np.ndarray,
           log: Optional[NumericsLog], context: str) -> np.ndarray:
    """The diagonal-shift policy on a stack whose slices have the smallest
    eigenvalues eig_min; the event of slice k carries node nodes[k]."""
    flagged = eig_min < SINGULAR_EIG
    out = stack.copy()
    if flagged.any():
        n = stack.shape[-1]
        e = eig_min[flagged]
        lam = (REG_SCALE * (1.0 + np.abs(np.trace(stack[flagged], axis1=-2, axis2=-1)) / n)
               + np.maximum(0.0, -e))
        if log is not None:
            for k, e_k, lam_k in zip(nodes[flagged].tolist(), e.tolist(), lam.tolist()):
                log.record("regularize", context, eig_min=e_k, lam=lam_k, node=k)
        out[flagged] += lam[:, None, None] * np.eye(n)
    return out


def ensure_invertible(omega: np.ndarray, log: Optional[NumericsLog] = None,
                      context: str = "") -> np.ndarray:
    """Apply the diagonal-shift regularization to every near-singular slice.

    The shift is 1e-8 * (1 + |trace|/n); slightly indefinite matrices (a
    partial selection cycle can leave the symmetrized posterior with a
    small negative eigenvalue) are additionally shifted past zero. Slices
    above the threshold are returned unchanged.
    """
    context = context or "ensure_invertible"
    return _shift(omega, _min_eigenvalues(omega, context), np.arange(len(omega)), log, context)


def _condition_estimates(c: np.ndarray) -> np.ndarray:
    """Cheap condition estimate of L L^T from its Cholesky factors' diagonals:
    max(d^2) / min(d^2), from the largest and smallest d. The diagonals are
    laid out (n, K) first, so that each reduction runs along the stack."""
    d = np.ascontiguousarray(c.diagonal(axis1=-2, axis2=-1).T)
    hi, lo = d.max(axis=0), d.min(axis=0)
    return (hi * hi) / (lo * lo)


def _transposed(m: np.ndarray) -> np.ndarray:
    """M^T of every slice, C-contiguous. A batched matrix product with a
    transposed view, or of a buffer with its own transpose, leaves numpy's
    fast path for small matrices; this copy keeps it there, with the same
    result. (A matrix-vector product is as fast with the view.)"""
    return np.ascontiguousarray(m.swapaxes(-1, -2))


def _inv_lower(c: np.ndarray) -> np.ndarray:
    """L^-1 of every lower-triangular slice of c by substitution.

    Solves X L = I for the columns of X from the last to the first: column
    i is final once divided by L_ii, and is then subtracted, times row i
    of L, from every column to its left. Each of these steps is one
    vector operation over the whole stack, so every slice gets the same
    arithmetic at every stack size, and |X L - I| <= n eps |X| |L| entry
    by entry. An identity slice comes back as the identity. numpy's `inv`
    would run an LU factorization per slice instead.
    """
    n = c.shape[-1]
    # (n, n, K): entry (i, j) of every slice is one contiguous vector
    ct = np.ascontiguousarray(c.transpose(1, 2, 0))
    x = np.zeros(ct.shape)
    x.reshape(n * n, -1)[::n + 1] = 1.0  # the identity in every slice
    for i in range(n - 1, -1, -1):
        col = x[i:, i]  # rows above i stay zero
        col /= ct[i, i]
        if i:
            left = x[i:, :i]
            left -= col[:, None] * ct[i, :i]
    return np.ascontiguousarray(x.transpose(2, 0, 1))


def _inv_spd(stack: np.ndarray, nodes: np.ndarray, log: Optional[NumericsLog],
             context: str) -> np.ndarray:
    try:
        c = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError(f"matrix not positive definite in {context or 'inv_spd'}: {exc}")
    if log is not None:
        cond_est = _condition_estimates(c)
        ill = cond_est > ILL_CONDITIONED
        if ill.any():
            for k, cond_k in zip(nodes[ill].tolist(), cond_est[ill].tolist()):
                log.record("ill_conditioned", context, cond_estimate=cond_k, node=k)
    c_inv = _inv_lower(c)
    return symmetrize(_transposed(c_inv) @ c_inv)


def inv_spd(m: np.ndarray, log: Optional[NumericsLog] = None, context: str = "") -> np.ndarray:
    """Inverse of every slice of a symmetric positive-definite stack via Cholesky.

    Reports the (cheap, factor-based) condition estimate of each slice
    through `log` when it is large; raises FilterNumericsError if any
    factorization fails.
    """
    return _inv_spd(m, np.arange(len(m)), log, context)


def sensor_gains(c: np.ndarray, v: np.ndarray):
    """(C^T V, symmetrize(C^T V C)) of the sensor (C, V).

    Every correction by the sensor adds symmetrize(C^T V C) to Omega per
    measurement, and C^T V y to q; both factors depend on the sensor alone,
    so a run computes them once (`MeasurementModel.gains`).
    """
    c = np.asarray(c, dtype=float)
    v = np.asarray(v, dtype=float)
    m = c.shape[0]
    if v.shape != (m, m):
        raise ConfigurationError(f"inconsistent correction dimensions: C {c.shape}, V {v.shape}")
    ctv = c.T @ v
    return ctv, symmetrize(ctv @ c)


def measurement_gains(ctv: np.ndarray, y: np.ndarray) -> np.ndarray:
    """C^T V y_i for a stack of measurements y (k, m), from the sensor's
    C^T V (n, m); returns (k, n)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[-1] != ctv.shape[-1]:
        raise ConfigurationError(
            f"inconsistent correction dimensions: C^T V {ctv.shape}, y {y.shape}")
    return _matvec(ctv, y)


def local_correction_terms(c: np.ndarray, v: np.ndarray, y: np.ndarray):
    """Additive information contribution of a stack of measurements y
    (k, m) taken by the same sensor.

    Returns (delta_omega, delta_q) = (C^T V C, C^T V y); delta_omega is
    (n, n) and shared by the stack, delta_q is (k, n).
    """
    ctv, d_omega = sensor_gains(c, v)
    return d_omega, measurement_gains(ctv, y)


def centralized_correct(prior: InformationState, c: np.ndarray, v: np.ndarray,
                        y: np.ndarray) -> InformationState:
    """Fuse a stack of k measurements y (k, m), all taken by the sensor
    (C, V), at a single center: Omega + k C^T V C and q + sum_i C^T V y_i
    for every slice of the prior. With k = 0 the prior comes back unchanged."""
    d_omega, d_q = local_correction_terms(c, v, y)
    return information_state(prior.omega + len(d_q) * d_omega, prior.q + d_q.sum(axis=0))


def _cholesky(stack: np.ndarray):
    """Lower Cholesky factor of every slice, and a mask of the slices that
    factored; the identity stands in for a factor that failed.

    When the batched call fails, it is retried batched with failures
    marked: numpy's routine fills a failing slice with NaN when invalid
    operations are ignored. Only the slices whose factor came back not
    finite are factored again, one at a time, by the routine that raises:
    a slice with an infinite entry can factor without failing, and it
    keeps the factor that a call on it alone gives.
    """
    ok = np.ones(len(stack), dtype=bool)
    try:
        return np.linalg.cholesky(stack), ok
    except np.linalg.LinAlgError:
        with np.errstate(invalid="ignore"):
            c = _umath_linalg.cholesky_lo(stack, signature="d->d")
    for k in np.flatnonzero(~np.isfinite(c).all(axis=(-2, -1))):
        try:
            c[k] = np.linalg.cholesky(stack[k])
        except np.linalg.LinAlgError:
            c[k] = np.eye(stack.shape[-1])
            ok[k] = False
    return c, ok


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
    eigenvalue policy, and so does every slice with a non-finite entry,
    whose bound is not a number or minus infinity.
    """

    stack: np.ndarray
    c_inv: np.ndarray
    ok: np.ndarray
    bound: np.ndarray
    certified: np.ndarray

    def solve(self, q: np.ndarray) -> np.ndarray:
        """Omega^-1 q = L^-T L^-1 q for every slice (meaningful where ok)."""
        return _matvec(self.c_inv.swapaxes(-1, -2), _matvec(self.c_inv, q))


def factor_slices(omega: np.ndarray) -> SliceFactors:
    """Cholesky-factor every slice of the stack sym(omega) and certify the
    slices that need no eigenvalue check. A slice whose factorization
    fails never affects the others. Nothing here checks finiteness: a
    non-finite slice is uncertified, and the eigenvalue policy rejects it."""
    stack = symmetrize(omega)
    with np.errstate(all="ignore"):
        c, ok = _cholesky(stack)
        c_inv = _inv_lower(c)
        bound = (1.0 / np.einsum("kij,kij->k", c_inv, c_inv)
                 - CERT_MARGIN * np.sqrt(np.einsum("kij,kij->k", stack, stack)))
        certified = ok & (bound >= SINGULAR_EIG) & (_condition_estimates(c) <= ILL_CONDITIONED)
    return SliceFactors(stack=stack, c_inv=c_inv, ok=ok, bound=bound, certified=certified)


def _min_norm_solve(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of every slice of m x = q, from
    one batched SVD. Singular values at or below n * eps * s_max count as
    zero, the cut that `np.linalg.lstsq(rcond=None)` makes."""
    u, s, vt = np.linalg.svd(m)
    keep = s > m.shape[-1] * np.finfo(float).eps * s[:, :1]
    y = np.divide(_matvec(u.swapaxes(-1, -2), q), s, out=np.zeros_like(s), where=keep)
    return _matvec(vt.swapaxes(-1, -2), y)


@dataclass(frozen=True)
class ScaledPosterior:
    """The posterior stack (scale * B, scale * b) of consensus pairs (B, b),
    slice k scaled by scale[k]. It reads as an InformationState, and each
    of `omega` and `q` is formed when it is first read, from the pairs it
    holds: they must not change while it is in use."""

    b_mat: np.ndarray
    b_vec: np.ndarray
    scale: np.ndarray

    @cached_property
    def omega(self) -> np.ndarray:
        return symmetrize(self.scale[:, None, None] * self.b_mat)

    @cached_property
    def q(self) -> np.ndarray:
        return self.scale[:, None] * self.b_vec


def _recover(b_mat: np.ndarray, b_vec: np.ndarray, scale: np.ndarray,
             log: Optional[NumericsLog], estimate: bool, model=None):
    """The estimates B^-1 b and, with model = (A, Q), the prediction of the
    posterior (scale * B, scale * b), slice k scaled by scale[k], from one
    Cholesky factor of sym(B) per slice; returns (estimates, next prior or None).

    A certified slice needs nothing else: its estimate is x = L^-T L^-1 b,
    its posterior covariance P = L^-T L^-1 / scale, and x_hat = x. The
    uncertified slices take one batched eigenvalue call for both checks:
    with `estimate`, those of sym(B) give the estimate's singular test, and
    with a model, those of the posterior slices give the shift. A slice
    whose smallest eigenvalue is below SINGULAR_EIG, or whose factorization
    failed, gets the minimum-norm solution and a `singular_solve` event;
    every uncertified posterior slice is shifted by the regularization
    policy where it is near-singular, and inverted, and its estimate for
    the prediction is x_hat = P scale b. Then Omega+ = (A P A^T + Q)^-1 and
    q+ = Omega+ A x_hat.
    """
    context = "to_state_estimate" if estimate else "predict"
    f = factor_slices(b_mat)
    x = f.solve(b_vec)
    flagged = not f.certified.all()
    if flagged:
        check = np.flatnonzero(~f.certified)
        sub = f.stack[check]
        parts = [sub] if estimate else []
        if model is not None:
            posterior = symmetrize(scale[check, None, None] * b_mat[check])
            parts.append(posterior)
        eig_min = _min_eigenvalues(np.concatenate(parts), context)
        if estimate:
            e = eig_min[:check.size]
            singular = (e < SINGULAR_EIG) | ~f.ok[check]
            if singular.any():
                nodes = check[singular]
                if log is not None:
                    for k, e_k in zip(nodes.tolist(), e[singular].tolist()):
                        log.record("singular_solve", "to_state_estimate", eig_min=e_k, node=k)
                x[nodes] = _min_norm_solve(sub[singular], b_vec[nodes])
    if model is None:
        return x, None

    a, q_cov = model
    a_t = np.ascontiguousarray(a.T)
    # A P A^T = G^T G / scale with G = L^-1 A^T
    g = f.c_inv @ a_t
    apa = (_transposed(g) @ g) / scale[:, None, None]
    x_hat = x
    if flagged:
        shifted = _shift(posterior, eig_min[-check.size:], check, log, "predict")
        p = _inv_spd(shifted, check, log, "predict: invert posterior")
        apa[check] = a @ p @ a_t
        x_hat = x.copy()
        x_hat[check] = _matvec(p, scale[check, None] * b_vec[check])
    p_next = symmetrize(apa) + q_cov
    # inv_spd returns a symmetric stack, so information_state would not change it
    omega_next = inv_spd(p_next, log, "predict: invert predicted covariance")
    return x, InformationState(omega_next, _matvec(omega_next, _matvec(a, x_hat)))


def predict(post: InformationState, a: np.ndarray, q_cov: np.ndarray,
            log: Optional[NumericsLog] = None) -> InformationState:
    """Time update in information form, slice by slice.

    Omega+ = (A Omega^-1 A^T + Q)^-1 and q+ = Omega+ A x_hat, where
    x_hat = Omega^-1 q and Q is the process-noise covariance.
    """
    model = (np.asarray(a, dtype=float), np.asarray(q_cov, dtype=float))
    return _recover(post.omega, post.q, np.ones(len(post.q)), log, False, model)[1]


def to_state_estimate(s: InformationState, log: Optional[NumericsLog] = None) -> np.ndarray:
    """State estimates Omega^-1 q, (K, n); minimum-norm solution for every
    slice whose Omega is singular."""
    return _recover(s.omega, s.q, np.ones(len(s.q)), log, True)[0]


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
    with B, so one certificate covers the checks of both. The posterior
    is a ScaledPosterior, formed only where it is read.
    """
    scale = np.full(len(b_vec), scale, dtype=float)
    x, next_prior = _recover(b_mat, b_vec, scale, log, True, (a, q_cov))
    if not np.isfinite(x).all():
        raise FilterNumericsError("non-finite state estimate")
    return ScaledPosterior(b_mat, b_vec, scale), x, next_prior
