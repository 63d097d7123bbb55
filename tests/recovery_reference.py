"""Slice-by-slice oracles of the numerical policy's flagged pass.

`info_filter`'s LAPACK path handles every slice it receives in one
batched pass: one eigenvalue call, one SVD for the minimum-norm solves
and one vectorized shift. These are the per-slice loops it replaces:
`eigvalsh` and one `np.linalg.lstsq` per singular slice for the
estimates, and one shift per near-singular slice for the regularization.
"""

import numpy as np

from icfpie.info_filter import (
    REG_SCALE,
    SINGULAR_EIG,
    _cholesky,
    _inv_lower,
    _matvec,
    symmetrize,
)


def estimates_loop(omega: np.ndarray, q: np.ndarray, log=None) -> np.ndarray:
    """Omega^-1 q per slice; slices whose smallest eigenvalue is below
    SINGULAR_EIG, or whose factorization failed, get lstsq's minimum-norm
    least-squares solution and a `singular_solve` event."""
    stack = symmetrize(omega)
    c, ok = _cholesky(stack)
    with np.errstate(all="ignore"):
        c_inv = _inv_lower(c)
    x = _matvec(c_inv.swapaxes(-1, -2), _matvec(c_inv, q))
    eig_min = np.linalg.eigvalsh(stack)[:, 0]
    for k, e in enumerate(eig_min):
        if e >= SINGULAR_EIG and ok[k]:
            continue
        if log is not None:
            log.record("singular_solve", "to_state_estimate", eig_min=float(e), node=k)
        x[k], *_ = np.linalg.lstsq(stack[k], q[k], rcond=None)
    return x


def regularize_loop(stack: np.ndarray, log=None, context: str = "test") -> np.ndarray:
    """The diagonal-shift policy, one slice at a time: a slice whose
    smallest eigenvalue e is below SINGULAR_EIG is shifted by
    lam = 1e-8 * (1 + |trace| / n) + max(0, -e)."""
    eig_min = np.linalg.eigvalsh(stack)[:, 0]
    n = stack.shape[-1]
    out = stack.copy()
    for k in np.flatnonzero(eig_min < SINGULAR_EIG):
        e = float(eig_min[k])
        lam = REG_SCALE * (1.0 + abs(float(np.trace(stack[k]))) / n) + max(0.0, -e)
        if log is not None:
            log.record("regularize", context, eig_min=e, lam=lam, node=int(k))
        out[k] += lam * np.eye(n)
    return out
