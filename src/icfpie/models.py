"""State-space system/measurement models and truth-trajectory generation.

The tracking scenario is a 2-D constant-velocity target: state
[x, y, vx, vy] in meters and meters/second. Filters see a linear system
(x' = A x + w) while the simulated target's speed fluctuates directly,
so the truth model and the filter's process noise are deliberately
separate objects.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DegenerateHeadingWarning, FilterNumericsError
from .info_filter import block_layouts, sensor_gains, symmetrize


def constant_velocity_matrix(dt: float, n: int = 4) -> np.ndarray:
    """Transition matrix of the 2-D constant-velocity model for step dt."""
    a = np.eye(n)
    half = n // 2
    for i in range(half):
        a[i, half + i] = dt
    return a


def position_measurement_matrix(n: int = 4) -> np.ndarray:
    """2 x n matrix reading out the planar position components."""
    c = np.zeros((2, n))
    c[0, 0] = 1.0
    c[1, 1] = 1.0
    return c


def _check_spd(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"{name} must be square, got shape {m.shape}")
    if not np.allclose(m, m.T, atol=1e-12):
        raise ConfigurationError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(m).min() <= 0:
        raise ConfigurationError(f"{name} must be positive definite")
    return m


@dataclass(frozen=True)
class SystemModel:
    """Linear process model x' = A x + w: the transition matrix A and the
    process-noise covariance Q."""

    a: np.ndarray
    process_cov: np.ndarray

    @classmethod
    def lti(cls, a: np.ndarray, q: np.ndarray) -> "SystemModel":
        a = np.asarray(a, dtype=float)
        q = _check_spd(q, "process_cov")
        if a.shape != q.shape:
            raise ConfigurationError(f"A {a.shape} and Q {q.shape} dimensions differ")
        sv = np.linalg.svd(a, compute_uv=False)
        if sv.min() <= sv.max() * np.finfo(float).eps * a.shape[0]:
            raise ConfigurationError("linear system matrix is singular")
        return cls(a=a, process_cov=q)

    def jacobian(self, x_hat: np.ndarray) -> np.ndarray:
        """Transition Jacobian at x_hat: the constant A."""
        return self.a

    @cached_property
    def split(self):
        """The closed form's split of (A, Q) (`info_filter.block_layouts`),
        computed on first use: every step through this model reuses it."""
        return block_layouts(self.a.shape[-1], (self.a, self.process_cov))


@dataclass(frozen=True)
class MeasurementModel:
    """A linear sensor shared by every node: y = C x + v, with the
    measurement matrix C, the noise covariance R and its information
    matrix V = R^-1, which the correction step reads."""

    c: np.ndarray
    meas_cov: np.ndarray
    v: np.ndarray

    @classmethod
    def linear(cls, c: np.ndarray, r: np.ndarray) -> "MeasurementModel":
        c = np.asarray(c, dtype=float)
        r = _check_spd(r, "meas_cov")
        if r.shape[0] != c.shape[0]:
            raise ConfigurationError(
                f"measurement matrix rows {c.shape[0]} and R size {r.shape[0]} differ"
            )
        return cls(c=c, meas_cov=r, v=symmetrize(np.linalg.inv(r)))

    def jacobian(self, x_hat: np.ndarray) -> np.ndarray:
        """Measurement Jacobian at x_hat: the constant C."""
        return self.c

    @cached_property
    def gains(self):
        """(C^T V, symmetrize(C^T V C)), computed on first use and read-only:
        every correction by this sensor reuses them (`info_filter.sensor_gains`)."""
        gains = sensor_gains(self.c, self.v)
        for g in gains:
            g.setflags(write=False)
        return gains

    @property
    def m(self) -> int:
        return self.meas_cov.shape[0]


@dataclass(frozen=True)
class TruthModel:
    """Target motion: constant heading, speed with per-step Gaussian jitter."""

    initial_position: tuple[float, float]
    speed_range: tuple[float, float]
    heading_range: tuple[float, float]
    speed_variance: float
    dt: float

    def __post_init__(self):
        if self.speed_range[0] > self.speed_range[1]:
            raise ConfigurationError(f"speed range reversed: {self.speed_range}")
        if self.heading_range[0] > self.heading_range[1]:
            raise ConfigurationError(f"heading range reversed: {self.heading_range}")
        if self.speed_variance < 0:
            raise ConfigurationError("speed variance must be >= 0")
        if self.dt <= 0:
            raise ConfigurationError("dt must be > 0")

    def initial_state(self, rng: np.random.Generator) -> np.ndarray:
        """Draw [x0, y0, V0 cos(psi0), V0 sin(psi0)] with uniform V0, psi0."""
        v0 = rng.uniform(*self.speed_range)
        psi0 = rng.uniform(*self.heading_range)
        x0, y0 = self.initial_position
        return np.array([x0, y0, v0 * np.cos(psi0), v0 * np.sin(psi0)])


def truth_trajectory(model: TruthModel, n_steps: int, rng: np.random.Generator) -> np.ndarray:
    """The target's states at n_steps timesteps, (n_steps, 4): the initial
    state drawn by `initial_state`, then one step at a time: move with the
    current velocity, then perturb the speed by one normal draw and keep
    the heading.

    With zero speed the heading is undefined; the velocity is kept, no
    speed is drawn, and a DegenerateHeadingWarning is issued. The
    arithmetic runs on Python floats, one step after the other; the speed
    and the heading come from np.hypot and np.arctan2, whose last bit the
    math module's versions do not always share.
    """
    x, y, vx, vy = model.initial_state(rng).tolist()
    dt, sigma = model.dt, math.sqrt(model.speed_variance)
    states = [(x, y, vx, vy)]
    for _ in range(1, n_steps):
        x, y = x + dt * vx, y + dt * vy
        speed = float(np.hypot(vx, vy))
        if speed == 0.0:
            warnings.warn("zero-speed target state: heading undefined, velocity kept",
                          DegenerateHeadingWarning, stacklevel=2)
        else:
            heading = float(np.arctan2(vy, vx))
            if model.speed_variance > 0:
                speed = speed + rng.normal(0.0, sigma)
            vx, vy = speed * math.cos(heading), speed * math.sin(heading)
        states.append((x, y, vx, vy))
    truth = np.array(states)
    if not np.isfinite(truth).all():
        raise FilterNumericsError("non-finite truth state after propagation")
    return truth


def linearize(model, x_hat: np.ndarray) -> np.ndarray:
    """Jacobian of a system or measurement model evaluated at x_hat.

    For linear models this is the constant matrix regardless of x_hat, so
    x_hat may also be the network's stack of estimates (N, n).
    """
    x_hat = np.asarray(x_hat, dtype=float)
    if not np.all(np.isfinite(x_hat)):
        raise FilterNumericsError("cannot linearize at a non-finite point")
    jac = np.asarray(model.jacobian(x_hat), dtype=float)
    if not np.all(np.isfinite(jac)):
        raise FilterNumericsError("Jacobian has non-finite entries")
    return jac
