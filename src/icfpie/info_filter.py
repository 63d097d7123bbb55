"""Information-form Kalman filter primitives and the centralized benchmark.

Estimates live in natural parameters: information matrix Omega = P^-1 and
information vector q = P^-1 x_hat. Correction is additive in (Omega, q);
prediction maps through the covariance form once per step.

Every estimate is a stack of K slices: Omega of shape (K, n, n) and q of
shape (K, n). A run's stack holds one slice per node of every consensus
lane of every seed in its chunk, then one per seed for the centralized
filter (`dicf` gives the layout). Every primitive acts on the stack
slice by slice through numpy's batched linear algebra, and every event
carries its slice index as `node`.

Numerical policy (applied everywhere, per slice, logged via NumericsLog):
  * symmetrize Omega after every arithmetic update;
  * if the smallest eigenvalue of Omega falls below SINGULAR_EIG before an
    inversion, shift Omega by lam*I with lam = 1e-8 * (1 + |trace|/n),
    plus whatever clears a negative eigenvalue;
  * state extraction from a singular Omega returns the minimum-norm
    least-squares solution and flags the event.
The fused step of every run, `recover_and_predict`, takes a (K,) array
of posterior scales and the system model, whose `split` (`block_layouts`
of its A and Q) the model computes once, and routes each slice by its
own input along one of two paths: a closed form, which skips both
eigenvalue checks for a slice that it certifies, and the LAPACK path,
which runs the policy on every other slice. `predict` and
`to_state_estimate` take the LAPACK path alone, as the tests' reference.

The block invariant: with position sensors and diagonal Q and R, the
constant-velocity model of `models` never couples its two axes, so every
consensus pair, posterior, prior and predicted covariance of a run is
block-diagonal in two 2 x 2 blocks, one (position, velocity) pair per
axis, and so are A and Q. The split of the four state indices into two
pairs is the first one in which A and Q are block-diagonal, read from
their zeros, so this module assumes no state layout. A slice whose
sym(B) is block-diagonal in the split is recovered and predicted in
closed form, on the three distinct entries of each block: Cholesky
pivots, the certificate, the estimate, the predicted covariance's factor
and its inverse, elementwise over the stack, with no LAPACK call. The
certificate is the only one in this module: lambda_min(L L^T) >=
1 / ||L^-1||_F^2, so a slice whose bound (less a rounding margin) clears
SINGULAR_EIG would be flagged by neither eigenvalue check. A slice stays
on the closed form if the certificate holds and the condition estimates
of its posterior and predicted covariance are at most half of
ILL_CONDITIONED, so a slice on the closed form is one for which the
LAPACK path would record no event: the closed form rounds the predicted
covariance otherwise, which can move a condition estimate c by up to
about eps * c relative (2e-4 at ILL_CONDITIONED), and every slice nearer
the threshold is left to the LAPACK path.

Every other slice (not block-diagonal, uncertified, or near or above the
condition threshold) is gathered into one sub-stack for the LAPACK path,
which makes every event. It takes one batched pass: one eigenvalue call
for both checks, first; one Cholesky factor of sym(B) for the estimates
of only the slices that pass the singular test, and one SVD for every
other slice's minimum-norm solve; one vectorized shift and one inversion
of the shifted posteriors. Only the event records loop over slices. A
slice's result depends on that slice alone, on either path, so a slice
of a stack gets the bits it gets alone.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

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
    # numpy's batched routine, without np.linalg's wrapper: a slice whose
    # eigenvalues do not converge comes back NaN
    with np.errstate(all="ignore"):
        w = _umath_linalg.eigvalsh_lo(m, signature="d->d")[:, 0]
    if np.isnan(w).any():
        raise FilterNumericsError(
            f"eigenvalue computation failed in {context}: Eigenvalues did not converge")
    return w


def _shift(stack: np.ndarray, eig_min: np.ndarray, nodes: np.ndarray,
           log: Optional[NumericsLog], context: str) -> np.ndarray:
    """The diagonal-shift policy on a stack whose slices have the smallest
    eigenvalues eig_min; the event of slice k carries node nodes[k]. With
    no slice to shift, the stack itself comes back, not a copy."""
    flagged = eig_min < SINGULAR_EIG
    if not flagged.any():
        return stack
    n = stack.shape[-1]
    e = eig_min[flagged]
    lam = (REG_SCALE * (1.0 + np.abs(np.trace(stack[flagged], axis1=-2, axis2=-1)) / n)
           + np.maximum(0.0, -e))
    if log is not None:
        for k, e_k, lam_k in zip(nodes[flagged].tolist(), e.tolist(), lam.tolist()):
            log.record("regularize", context, eig_min=e_k, lam=lam_k, node=k)
    out = stack.copy()
    out[flagged] += lam[:, None, None] * np.eye(n)
    return out


def ensure_invertible(omega: np.ndarray, log: Optional[NumericsLog] = None,
                      context: str = "") -> np.ndarray:
    """Apply the diagonal-shift regularization to every near-singular slice.

    The shift is 1e-8 * (1 + |trace|/n); slightly indefinite matrices (a
    partial selection cycle can leave the symmetrized posterior with a
    small negative eigenvalue) are additionally shifted past zero. Slices
    above the threshold are returned unchanged; when no slice is shifted,
    the result is `omega` itself.
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
    # numpy's routine fills the factor of a slice that fails with NaN
    with np.errstate(all="ignore"):
        c = _umath_linalg.cholesky_lo(stack, signature="d->d")
    if np.isnan(c).any():
        raise FilterNumericsError(f"matrix not positive definite in {context or 'inv_spd'}: "
                                  "Matrix is not positive definite")
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
    """Lower Cholesky factor of every slice, and a mask `ok` of the slices
    whose factor is finite; the identity stands in for every other factor.

    One batched call of numpy's routine, which fills the factor of a slice
    that fails with NaN. A non-finite entry makes its own factor entry
    non-finite, so such a slice is never `ok`; the eigenvalue policy
    rejects it.
    """
    with np.errstate(all="ignore"):
        c = _umath_linalg.cholesky_lo(stack, signature="d->d")
    ok = np.isfinite(c).all(axis=(-2, -1))
    c[~ok] = np.eye(stack.shape[-1])
    return c, ok


def _min_norm_solve(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of every slice of m x = q, from
    one batched SVD. Singular values at or below n * eps * s_max count as
    zero, the cut that `np.linalg.lstsq(rcond=None)` makes."""
    # numpy's routine behind np.linalg.svd: a slice that does not converge is NaN
    with np.errstate(all="ignore"):
        u, s, vt = _umath_linalg.svd_f(m, signature="d->ddd")
    if np.isnan(s).any():
        raise FilterNumericsError("minimum-norm solve failed in to_state_estimate: "
                                  "SVD did not converge")
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


class _Layout(NamedTuple):
    """A split of the state indices 0..3 into two pairs p and r, as the
    closed form reads a 4 x 4 matrix in it. `order` holds the flat indices
    (4 * row + column) of the entries [00], [10], [01] and [11] of both
    blocks, then of every entry outside them; `vec` holds the vector
    indices p[0], r[0], p[1], r[1]; `scatter` holds where a prediction's
    (K, 24) buffer keeps them: the estimate's `vec` in columns 0..3, q+'s
    in 4..7 and Omega+'s entries [00], [10], [01], [11] from column 8 on."""

    order: np.ndarray
    vec: np.ndarray
    scatter: np.ndarray


def _layout(p, r) -> _Layout:
    inside = [4 * s[i] + s[j] for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)) for s in (p, r)]
    vec = [p[0], r[0], p[1], r[1]]
    return _Layout(np.array(inside + sorted(set(range(16)) - set(inside))), np.array(vec),
                   np.array(vec + [4 + i for i in vec] + [8 + i for i in inside]))


# every split of the state indices into two pairs, in the order tried
_LAYOUTS = tuple(_layout(p, r) for p, r in (((0, 1), (2, 3)), ((0, 2), (1, 3)),
                                            ((0, 3), (1, 2))))

# The closed form keeps a slice only while both of its condition estimates
# are at most half of ILL_CONDITIONED. It rounds the predicted covariance
# otherwise than the LAPACK path, and a condition estimate c can move with
# that rounding by up to about eps * c relative (2e-4 at ILL_CONDITIONED);
# the LAPACK path decides every slice nearer the threshold.
_BLOCK_COND = ILL_CONDITIONED / 2


def block_layouts(n: int, model):
    """The split the closed form takes on n x n slices, as (layout,
    blocks): the first split in which both matrices of model = (A, Q) are
    block-diagonal, with the entries of their blocks as one read-only
    (4, 2, 2, 1) array, which broadcasts along any stack: A's [00] and
    [10], A's [01] and [11], Q's [00] and [11], and Q's [10] and [01], of
    both blocks; None if there is no such split, or n is not 4. The split
    comes from the model's zeros, so no state layout is assumed here. A
    SystemModel computes its own once, as its `split`."""
    if n != 4:
        return None
    model = np.asarray(model, dtype=float).reshape(2, 16)  # A's entries, then Q's
    nonzero = (model != 0).any(axis=0)  # NaN counts as nonzero
    for layout in _LAYOUTS:
        if not nonzero[layout.order[8:]].any():
            # (A or Q, entry [00], [10], [01] or [11], block)
            a, q = model[:, layout.order[:8]].reshape(2, 4, 2)
            blocks = np.stack([a[:2], a[2:], q[[0, 3]], q[[1, 2]]])[..., None]
            blocks.setflags(write=False)
            return layout, blocks
    return None


def _cholesky_2x2(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Cholesky factors [[l0, 0], [l1, l2]] of the 2 x 2 blocks [[a, b],
    [b, c]], elementwise over (2, K) arrays of both blocks of K slices;
    returns their substitution inverses [[m0, 0], [m1, m2]] (the arithmetic
    of `_inv_lower`) and each slice's condition estimate (K,), as
    `_condition_estimates` forms it from all four pivots. A block that
    fails gives NaN, or a zero pivot, so its estimate is NaN or infinite."""
    l0 = np.sqrt(a)
    m0 = 1.0 / l0
    l1 = b * m0  # as LAPACK scales a column, by the pivot's reciprocal
    l2 = np.sqrt(c - l1 * l1)
    m2 = 1.0 / l2
    m1 = -(m2 * l1) / l0
    hi, lo = np.maximum(l0, l2), np.minimum(l0, l2)
    hi, lo = np.maximum(hi[0], hi[1]), np.minimum(lo[0], lo[1])
    return (m0, m1, m2), (hi * hi) / (lo * lo)


def _recover_blocks(b_mat: np.ndarray, b_vec: np.ndarray, scale: np.ndarray,
                    layout: _Layout, blocks):
    """`_recover_lapack` in closed form, for the slices it can take in
    `layout`, with the model's `blocks` in it; returns (taken, estimates,
    next prior), whose slices outside `taken` (K,) hold no result. The
    estimates, q+ and Omega+ are views of one (K, 24) buffer.

    A slice is taken when sym(B) is block-diagonal in the layout, its
    2 x 2 Cholesky factors certify it (the bound 1 / ||L^-1||_F^2 less
    CERT_MARGIN * ||sym(B)||_F clears SINGULAR_EIG, and its condition
    estimate over all four pivots is at most _BLOCK_COND), and its
    predicted covariance factors too, with a condition estimate at most
    _BLOCK_COND. These are slices for which the
    LAPACK path would record no event. Every result is elementwise in the
    slice's own entries, so a slice's bits do not depend on the stack
    around it. Each quantity is a (2, K) array, one entry of both blocks
    of every slice, laid out along the stack.
    """
    k = len(b_vec)
    e = b_mat.reshape(k, 16).T[layout.order]  # (16, K): each entry of every slice
    a, b10, b01, c = e[:8].reshape(4, 2, k)
    v0, v1 = b_vec.T[layout.vec].reshape(2, 2, k)  # first and second index of both pairs
    with np.errstate(all="ignore"):
        b = (b10 + b01) * 0.5  # as symmetrize forms it
        (m0, m1, m2), cond = _cholesky_2x2(a, b, c)
        # lambda_min >= 1 / ||L^-1||_F^2, less the margin on ||sym(B)||_F
        inv_fro = m0 * m0 + m1 * m1 + m2 * m2
        fro = a * a + c * c + 2.0 * (b * b)
        bound = (1.0 / (inv_fro[0] + inv_fro[1])
                 - CERT_MARGIN * np.sqrt(fro[0] + fro[1]))
        taken = (bound >= SINGULAR_EIG) & (cond <= _BLOCK_COND) & ~e[8:].any(axis=0)

        # the results in the order of layout.scatter: x's two entries,
        # q+'s, and Omega+'s [00], [10], [01] and [11]
        vals = np.empty((8, 2, k))
        x, q_next, omega_next = vals[:2], vals[2:4], vals[4:]
        # x = L^-T L^-1 b per block
        y0 = m0 * v0
        y1 = m1 * v0 + m2 * v1
        np.add(m0 * y0, m1 * y1, out=x[0])
        np.multiply(m2, y1, out=x[1])

        # A's columns (a00, a10) and (a01, a11), Q's diagonal and q10
        a0, a1, q_diag, (q10, _) = blocks
        # A P A^T = G^T G / scale with G = L^-1 A^T, whose columns are
        # g0 = m0 a0 and g1 = m1 a0 + m2 a1
        g0 = m0 * a0
        g1 = m1 * a0 + m2 * a1
        p_diag = (g0 * g0 + g1 * g1) / scale + q_diag
        (n0, n1, n2), cond_next = _cholesky_2x2(
            p_diag[0], (g0[0] * g0[1] + g1[0] * g1[1]) / scale + q10, p_diag[1])
        taken &= cond_next <= _BLOCK_COND

        # Omega+ = N^T N with N the inverse factor of the predicted
        # covariance, and q+ = Omega+ A x
        np.add(n0 * n0, n1 * n1, out=omega_next[0])
        np.multiply(n1, n2, out=omega_next[1])
        omega_next[2] = omega_next[1]
        np.multiply(n2, n2, out=omega_next[3])
        ax = a0 * x[0] + a1 * x[1]
        np.add(omega_next[:2] * ax[0], omega_next[2:] * ax[1], out=q_next)
        out = np.zeros((k, 24))  # x, q+, Omega+; Omega+ is zero outside the blocks
        out.T[layout.scatter] = vals.reshape(16, k)
    return taken, out[:, :4], InformationState(out[:, 8:].reshape(k, 4, 4), out[:, 4:8])


def _recover_lapack(b_mat: np.ndarray, b_vec: np.ndarray, scale: np.ndarray,
                    nodes: np.ndarray, log: Optional[NumericsLog], estimate: bool, model=None):
    """The estimates B^-1 b and, with model = (A, Q), the prediction of the
    posterior (scale * B, scale * b), slice k scaled by scale[k], by
    numpy's batched LAPACK routines, with the eigenvalue policy on every
    slice; returns (estimates or None, next prior or None). The event of
    slice k carries node nodes[k].

    One batched eigenvalue call holds both checks: with `estimate`, those
    of sym(B) give the estimate's singular test, and with a model, those of
    the posterior slices give the shift. Only a slice that passes the
    singular test is factored: its estimate is x = L^-T L^-1 b, from a
    Cholesky factor L of sym(B). A slice whose smallest eigenvalue is below
    SINGULAR_EIG, or whose factor is not finite, gets the minimum-norm
    solution and a `singular_solve` event. With a model,
    every posterior slice is shifted by the regularization policy where it
    is near-singular, and inverted to P; then Omega+ = (A P A^T + Q)^-1 and
    q+ = Omega+ A x_hat with x_hat = P scale b. Without `estimate`, the
    estimates come back as None.
    """
    context = "to_state_estimate" if estimate else "predict"
    parts = []
    if estimate:
        stack = symmetrize(b_mat)
        parts.append(stack)
    if model is not None:
        posterior = symmetrize(scale[:, None, None] * b_mat)
        parts.append(posterior)
    eig_min = _min_eigenvalues(np.concatenate(parts), context)
    x = None
    if estimate:
        e = eig_min[:len(b_vec)]
        singular = e < SINGULAR_EIG
        x = np.empty(b_vec.shape)
        regular = np.flatnonzero(~singular)
        if regular.size:
            c, ok = _cholesky(stack[regular])  # sym(sym(B)) = sym(B), bit for bit
            with np.errstate(all="ignore"):
                c_inv = _inv_lower(c)
            x[regular] = _matvec(c_inv.swapaxes(-1, -2), _matvec(c_inv, b_vec[regular]))
            singular[regular[~ok]] = True
        if singular.any():
            if log is not None:
                for k, e_k in zip(nodes[singular].tolist(), e[singular].tolist()):
                    log.record("singular_solve", "to_state_estimate", eig_min=e_k, node=k)
            x[singular] = _min_norm_solve(stack[singular], b_vec[singular])
    if model is None:
        return x, None

    a, q_cov = model
    shifted = _shift(posterior, eig_min[-len(b_vec):], nodes, log, "predict")
    p = _inv_spd(shifted, nodes, log, "predict: invert posterior")
    x_hat = _matvec(p, scale[:, None] * b_vec)
    p_next = symmetrize(a @ p @ np.ascontiguousarray(a.T)) + q_cov
    # _inv_spd returns a symmetric stack, so information_state would not change it
    omega_next = _inv_spd(p_next, nodes, log, "predict: invert predicted covariance")
    return x, InformationState(omega_next, _matvec(omega_next, _matvec(a, x_hat)))


def predict(post: InformationState, a: np.ndarray, q_cov: np.ndarray,
            log: Optional[NumericsLog] = None) -> InformationState:
    """Time update in information form, slice by slice, on the LAPACK path.

    Omega+ = (A Omega^-1 A^T + Q)^-1 and q+ = Omega+ A x_hat, where
    x_hat = Omega^-1 q and Q is the process-noise covariance.
    """
    model = (np.asarray(a, dtype=float), np.asarray(q_cov, dtype=float))
    k = len(post.q)
    return _recover_lapack(post.omega, post.q, np.ones(k), np.arange(k), log, False, model)[1]


def to_state_estimate(s: InformationState, log: Optional[NumericsLog] = None) -> np.ndarray:
    """State estimates Omega^-1 q, (K, n), on the LAPACK path; minimum-norm
    solution for every slice whose Omega is singular."""
    k = len(s.q)
    return _recover_lapack(s.omega, s.q, np.ones(k), np.arange(k), log, True)[0]


def recover_and_predict(b_mat: np.ndarray, b_vec: np.ndarray, scale: np.ndarray, sys,
                        log: Optional[NumericsLog] = None):
    """Posterior recovery and prediction with one factorization per slice.

    From a stack of K consensus pairs (B, b), returns (posterior,
    estimates, next prior): the posterior (scale * B, scale * b), with
    `scale` a (K,) float array of one number per slice (N for a lane's
    pairs, 1 for a fused centralized pair), the estimates B^-1 b (what
    `to_state_estimate` gives for the pairs), and the posterior predicted
    through the system model `sys` (what `predict` gives for it through
    sys.a and sys.process_cov). This is the only entry that takes the
    closed form, in the model's own `split`; with None every slice takes
    the LAPACK path. On the closed form one Cholesky factor of sym(B) per
    slice gives the estimate and P = B^-1 / scale for the prediction, and
    one certificate covers the checks of both, as the smallest eigenvalue
    scales with B. Every other slice goes to `_recover_lapack` in one
    call, whose events carry each slice's index in the stack. The
    posterior is a ScaledPosterior, formed only where it is read; it
    keeps `scale` as it is, so the array must not change while the
    posterior is in use.
    """
    model, split = (sys.a, sys.process_cov), sys.split
    if split is None:
        x, next_prior = _recover_lapack(b_mat, b_vec, scale, np.arange(len(b_vec)), log, True,
                                        model)
    else:
        taken, x, next_prior = _recover_blocks(b_mat, b_vec, scale, *split)
        if not taken.all():
            rest = np.flatnonzero(~taken)
            x[rest], next_rest = _recover_lapack(b_mat[rest], b_vec[rest], scale[rest], rest,
                                                 log, True, model)
            next_prior.omega[rest] = next_rest.omega
            next_prior.q[rest] = next_rest.q
    if not np.isfinite(x).all():
        raise FilterNumericsError("non-finite state estimate")
    return ScaledPosterior(b_mat, b_vec, scale), x, next_prior
