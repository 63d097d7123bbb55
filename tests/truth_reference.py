"""One-step truth propagation on numpy arrays: the oracle of `truth_trajectory`.

`build_scenario` advances the target for a whole run in Python floats. This
is the step it replaces, on 2-vectors of numpy, called once per timestep:
the reference that the trajectory must match bit for bit.
"""

import warnings

import numpy as np

from icfpie.errors import ConfigurationError, DegenerateHeadingWarning, FilterNumericsError


def propagate_truth(state: np.ndarray, model, rng: np.random.Generator) -> np.ndarray:
    """Advance the target one step: move with the current velocity, then
    perturb the speed and keep the heading.

    With zero speed the heading is undefined; the velocity is kept and a
    DegenerateHeadingWarning is issued.
    """
    state = np.asarray(state, dtype=float)
    if state.shape != (4,):
        raise ConfigurationError(f"truth state must have length 4, got shape {state.shape}")
    pos = state[:2] + model.dt * state[2:]
    vel = state[2:]
    speed = float(np.hypot(vel[0], vel[1]))
    if speed == 0.0:
        warnings.warn("zero-speed target state: heading undefined, velocity kept",
                      DegenerateHeadingWarning, stacklevel=2)
        new_vel = vel
    else:
        heading = np.arctan2(vel[1], vel[0])
        if model.speed_variance > 0:
            speed = speed + rng.normal(0.0, np.sqrt(model.speed_variance))
        new_vel = speed * np.array([np.cos(heading), np.sin(heading)])
    out = np.concatenate([pos, new_vel])
    if not np.all(np.isfinite(out)):
        raise FilterNumericsError("non-finite truth state after propagation")
    return out


def truth_loop(model, n_steps: int, rng: np.random.Generator) -> np.ndarray:
    """The initial state, then n_steps - 1 calls of propagate_truth."""
    truth = [model.initial_state(rng)]
    for _ in range(1, n_steps):
        truth.append(propagate_truth(truth[-1], model, rng))
    return np.array(truth)
