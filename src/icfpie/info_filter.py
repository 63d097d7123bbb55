"""Information-form Kalman filter primitives and the centralized benchmark.

Estimates live in natural parameters: information matrix Omega = P^-1 and
information vector q = P^-1 x_hat. Correction is additive in (Omega, q);
prediction maps through the covariance form once per step.

Every primitive takes either one estimate (Omega of shape (n, n), q of
shape (n,)) or a stack of them, one per node (Omega (N, n, n), q (N, n)),
and acts on the last axes slice by slice. Stacks go through numpy's
batched linear algebra; only flagged slices take a per-slice path, and
their events carry the slice index as `node`.

Numerical policy (applied everywhere, per slice, logged via NumericsLog):
  * symmetrize Omega after every arithmetic update;
  * if the smallest eigenvalue of Omega falls below SINGULAR_EIG before an
    inversion, shift Omega by lam*I with lam = 1e-8 * (1 + |trace|/n),
    plus whatever clears a negative eigenvalue;
  * state extraction from a singular Omega returns the minimum-norm
    least-squares solution and flags the event.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, FilterNumericsError

SINGULAR_EIG = 1e-10
REG_SCALE = 1e-8


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
    return (m + np.swapaxes(m, -1, -2)) / 2.0


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v over the last axes: (..., k, n) times (..., n), slice by slice."""
    return (m @ v[..., None])[..., 0]


@dataclass(frozen=True)
class InformationState:
    """Gaussian estimate in information form: symmetric PSD Omega, vector q.

    One estimate has omega (n, n) and q (n,); a network's stack has
    omega (N, n, n) and q (N, n).
    """

    omega: np.ndarray
    q: np.ndarray

    @property
    def n(self) -> int:
        return self.q.shape[-1]


def information_state(omega: np.ndarray, q: np.ndarray) -> InformationState:
    """Construct an InformationState, symmetrizing and checking shapes."""
    omega = symmetrize(np.asarray(omega, dtype=float))
    q = np.asarray(q, dtype=float)
    if q.ndim < 1 or omega.shape != q.shape + q.shape[-1:]:
        raise ConfigurationError(
            f"information matrix {omega.shape} does not match vector length {q.shape}"
        )
    return InformationState(omega=omega, q=q)


@dataclass(frozen=True)
class NoiseInformation:
    """Inverted noise covariances: W = Q^-1 and the sensor's V = R^-1."""

    w: np.ndarray
    v: np.ndarray

    @classmethod
    def from_covariances(cls, q: np.ndarray, r: np.ndarray) -> "NoiseInformation":
        return cls(
            w=symmetrize(np.linalg.inv(np.asarray(q, dtype=float))),
            v=symmetrize(np.linalg.inv(np.asarray(r, dtype=float))),
        )


def _slices(m: np.ndarray):
    """(stack (N, n, n), per-slice event info) for one matrix or a stack."""
    if m.ndim == 2:
        return m[None], lambda k: {}
    return m, lambda k: {"node": int(k)}


def _min_eigenvalues(m: np.ndarray, context: str) -> np.ndarray:
    """Smallest eigenvalue of every slice, shape (K,)."""
    if not np.all(np.isfinite(m)):
        raise FilterNumericsError(f"non-finite information matrix in {context}")
    try:
        return np.linalg.eigvalsh(m)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError(f"eigenvalue computation failed in {context}: {exc}")


def ensure_invertible(omega: np.ndarray, log: Optional[NumericsLog] = None,
                      context: str = "") -> np.ndarray:
    """Apply the diagonal-shift regularization to every near-singular slice.

    The shift is 1e-8 * (1 + |trace|/n); slightly indefinite matrices (a
    partial selection cycle can leave the symmetrized posterior with a
    small negative eigenvalue) are additionally shifted past zero. Slices
    above the threshold are returned unchanged.
    """
    stack, where = _slices(omega)
    eig_min = _min_eigenvalues(stack, context or "ensure_invertible")
    flagged = np.flatnonzero(eig_min < SINGULAR_EIG)
    n = omega.shape[-1]
    out = stack.copy()
    for k in flagged:
        e = float(eig_min[k])
        lam = REG_SCALE * (1.0 + abs(float(np.trace(stack[k]))) / n) + max(0.0, -e)
        if log is not None:
            log.record("regularize", context, eig_min=e, lam=lam, **where(k))
        out[k] += lam * np.eye(n)
    return out.reshape(omega.shape)


def inv_spd(m: np.ndarray, log: Optional[NumericsLog] = None, context: str = "") -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix (or stack) via Cholesky.

    Reports the (cheap, factor-based) condition estimate of each slice
    through `log` when it is large; raises FilterNumericsError if any
    factorization fails.
    """
    stack, where = _slices(m)
    try:
        c = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError(f"matrix not positive definite in {context or 'inv_spd'}: {exc}")
    if log is not None:
        d = np.abs(np.diagonal(c, axis1=-2, axis2=-1))
        cond_est = (d.max(axis=-1) / d.min(axis=-1)) ** 2
        for k in np.flatnonzero(cond_est > 1e12):
            log.record("ill_conditioned", context, cond_estimate=float(cond_est[k]), **where(k))
    c_inv = np.linalg.inv(c)
    return symmetrize(np.swapaxes(c_inv, -1, -2) @ c_inv).reshape(m.shape)


def local_correction_terms(c: np.ndarray, v: np.ndarray, y: np.ndarray):
    """Additive information contribution of a measurement y, or of a stack
    of measurements (N, m) taken by the same sensor.

    Returns (delta_omega, delta_q) = (C^T V C, C^T V y); delta_omega is
    (n, n) and shared by the stack, delta_q has y's leading axes.
    """
    c = np.asarray(c, dtype=float)
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    m = c.shape[0]
    if v.shape != (m, m) or y.ndim < 1 or y.shape[-1] != m:
        raise ConfigurationError(
            f"inconsistent correction dimensions: C {c.shape}, V {v.shape}, y {y.shape}"
        )
    ctv = c.T @ v
    return symmetrize(ctv @ c), _matvec(ctv, y)


def centralized_correct(prior: InformationState, c: np.ndarray, v: np.ndarray,
                        y: np.ndarray) -> InformationState:
    """Fuse a stack of k measurements y (k, m), all taken by the sensor
    (C, V), at a single center: Omega + k C^T V C and q + sum_i C^T V y_i.
    With k = 0 the prior comes back unchanged."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ConfigurationError(f"measurements must be a (k, m) stack, got shape {y.shape}")
    d_omega, d_q = local_correction_terms(c, v, y)
    return information_state(prior.omega + y.shape[0] * d_omega, prior.q + d_q.sum(axis=0))


def predict(post: InformationState, a: np.ndarray, w: np.ndarray,
            log: Optional[NumericsLog] = None) -> InformationState:
    """Time update in information form, for one estimate or a stack.

    Omega+ = (A Omega^-1 A^T + W^-1)^-1 and q+ = Omega+ A x_hat, where
    x_hat = Omega^-1 q.
    """
    a = np.asarray(a, dtype=float)
    omega = ensure_invertible(symmetrize(post.omega), log, "predict")
    p = inv_spd(omega, log, "predict: invert posterior")
    x_hat = _matvec(p, post.q)
    p_next = symmetrize(a @ p @ a.T) + inv_spd(np.asarray(w, dtype=float), log, "predict: invert W")
    omega_next = inv_spd(p_next, log, "predict: invert predicted covariance")
    return information_state(omega_next, _matvec(omega_next, _matvec(a, x_hat)))


def to_state_estimate(s: InformationState, log: Optional[NumericsLog] = None) -> np.ndarray:
    """State estimate Omega^-1 q of one estimate (n,) or a stack (N, n);
    minimum-norm solution for every slice whose Omega is singular."""
    omega, where = _slices(symmetrize(s.omega))
    q = s.q.reshape(omega.shape[:-1])
    eig_min = _min_eigenvalues(omega, "to_state_estimate")
    singular = eig_min < SINGULAR_EIG
    try:
        c = np.linalg.cholesky(omega[~singular])
    except np.linalg.LinAlgError:
        # the batched factorization fails as a whole; find the failing slices
        for k in np.flatnonzero(~singular):
            try:
                np.linalg.cholesky(omega[k])
            except np.linalg.LinAlgError:
                singular[k] = True
        c = np.linalg.cholesky(omega[~singular])
    x = np.empty_like(q)
    x[~singular] = np.linalg.solve(np.swapaxes(c, -1, -2),
                                   np.linalg.solve(c, q[~singular][..., None]))[..., 0]
    for k in np.flatnonzero(singular):
        if log is not None:
            log.record("singular_solve", "to_state_estimate", eig_min=float(eig_min[k]),
                       **where(k))
        x[k], *_ = np.linalg.lstsq(omega[k], q[k], rcond=None)
    return x.reshape(s.q.shape)
