"""Per-measurement loop oracle for the harness's vectorized measurement draw.

`build_scenario` draws all of a run's measurement noise at once. This is
the same draw made one call per (timestep, node), in that order: the
reference that the vectorized draw must match bit for bit.
"""

import numpy as np


def sample_measurement(state: np.ndarray, meas, rng: np.random.Generator) -> np.ndarray:
    """Observation C x of `state` plus zero-mean Gaussian noise with cov meas_cov."""
    chol = np.linalg.cholesky(meas.meas_cov)
    return meas.c @ np.asarray(state, dtype=float) + chol @ rng.standard_normal(meas.m)
