"""Scenario construction, Monte-Carlo execution, L-sweeps, and CSV output.

The default configuration reproduces the reference tracking study: 10
nodes placed uniformly in a 600 m square with 300 m communication and
sensing ranges, a constant-velocity target starting at (400, 0) m heading
north-to-northwest at 10-15 m/s with per-step speed jitter, position-only
sensors with R = diag([25, 25]), filter process noise Q = diag([10, 10,
1, 1]), zero initial information, 0.1 s steps for 30 s, and 100
Monte-Carlo runs.

All randomness of run k is drawn from seed (master_seed + k) inside
build_scenario, so every algorithm in a run, and every L in a sweep,
consumes identical truth and measurement sequences.
"""

import ast
import dataclasses
import functools
import json
import math
import numbers
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .consensus import averaging_powers, plan_lanes
from .dicf import ckf_step  # noqa: F401  unused here; perfbench/tracer.py wraps it by this name
from .dicf import correction_terms, dicf_step
from .errors import ConfigurationError, FilterNumericsError
from .info_filter import (
    InformationState,
    NumericsLog,
    information_state,
    to_state_estimate,  # noqa: F401  unused here; perfbench/tracer.py wraps it by this name
)
from .models import (
    MeasurementModel,
    SystemModel,
    TruthModel,
    constant_velocity_matrix,
    position_measurement_matrix,
    truth_trajectory,
)
from .network import SensorNetwork, consensus_gain, random_geometric
from .selection import EntrySelectionSchedule, build_schedule, default_schedule

STATE_DIM = 4
MEAS_DIM = 2

# Slices per filter stack that a batch of seeds aims for: its seeds run in
# chunks of up to CHUNK_SLICES // (slices per seed), at least one. A
# timestep's cost is mostly per numpy call, and the gain per seed levels
# off at a few hundred slices: 18 seeds of a timeseries run (21 slices
# each), 4 of the sweep grid (1, 3, 20) (91) and 1 of the grid 1..20 (601).
CHUNK_SLICES = 384

_INTEGER_FIELDS = ("n_nodes", "L", "seed", "mc_runs")
_NUMBER_FIELDS = ("comm_range", "sensing_range", "dt", "horizon", "speed_variance")
_VECTOR_FIELDS = {"region": 4, "q_diag": STATE_DIM, "r_diag": MEAS_DIM,
                  "target_initial_position": 2, "speed_range": 2, "heading_range": 2}
# keys that configs written by earlier versions carry, with the one value
# (their old default) under which dropping them changes nothing
_RETIRED_KEYS = {"initial_estimate": (0.0, 0.0, 0.0, 0.0), "truth_noise": "speed",
                 "error_metric": "full", "max_placement_retries": 200}


def _finite_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _consensus_depths(values, what: str = "L_values") -> list:
    """The consensus depths `values`, a non-empty sequence of integers >= 1
    (a bool is not one), as a list of ints."""
    if not (isinstance(values, Sequence) and values and all(
            isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1
            for v in values)):
        raise ConfigurationError(f"{what} must be a non-empty list of integers >= 1, "
                                 f"got {values!r}")
    return [int(v) for v in values]


@dataclass(frozen=True)
class ScenarioConfig:
    """Every scenario parameter, with the reference-study defaults."""

    n_nodes: int = 10
    comm_range: float = 300.0
    sensing_range: float = 300.0
    region: tuple = (0.0, 600.0, 0.0, 600.0)
    dt: float = 0.1
    horizon: float = 30.0
    q_diag: tuple = (10.0, 10.0, 1.0, 1.0)
    r_diag: tuple = (25.0, 25.0)
    target_initial_position: tuple = (400.0, 0.0)
    speed_range: tuple = (10.0, 15.0)
    heading_range: tuple = (math.pi / 2, 3 * math.pi / 4)
    speed_variance: float = 0.25
    selection: object = "case1"      # "case1" | "case2" | "identity" | nested 1-based lists
    L: int = 12
    eps: Optional[float] = None      # None -> 1 / (max degree + 1); at most 1 / max degree
    seed: int = 0
    mc_runs: int = 100

    def __post_init__(self):
        for name in _INTEGER_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise ConfigurationError(f"{name} must be an integer, got {v!r}")
        for name in _NUMBER_FIELDS + (("eps",) if self.eps is not None else ()):
            v = getattr(self, name)
            if not _finite_number(v):
                raise ConfigurationError(f"{name} must be a finite number, got {v!r}")
        for name, length in _VECTOR_FIELDS.items():
            v = getattr(self, name)
            if (not isinstance(v, (tuple, list)) or len(v) != length
                    or not all(_finite_number(x) for x in v)):
                raise ConfigurationError(f"{name} must be {length} finite numbers, got {v!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.n_nodes < 2:
            raise ConfigurationError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if self.dt <= 0 or self.horizon <= 0:
            raise ConfigurationError("dt and horizon must be positive")
        if self.mc_runs < 1:
            raise ConfigurationError("mc_runs must be >= 1")
        if self.L < 1:
            raise ConfigurationError("consensus step count L must be >= 1")
        for name in ("comm_range", "sensing_range"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("q_diag", "r_diag"):
            v = getattr(self, name)
            if min(v) <= 0:
                raise ConfigurationError(f"{name} entries must be > 0, got {list(v)}")
        for name in ("speed_range", "heading_range"):
            low, high = getattr(self, name)
            if low > high:
                raise ConfigurationError(f"{name} must be ordered (low, high), got {[low, high]}")
        x_min, x_max, y_min, y_max = self.region
        if not (x_min < x_max and y_min < y_max):
            raise ConfigurationError(f"region must be ordered (x_min, x_max, y_min, y_max) "
                                     f"with min < max, got {list(self.region)}")
        if self.speed_variance < 0:
            raise ConfigurationError(f"speed_variance must be >= 0, got {self.speed_variance!r}")
        if self.n_steps < 1:
            raise ConfigurationError(f"horizon = {self.horizon} with dt = {self.dt} gives "
                                     f"{self.n_steps} steps; need at least 1")
        try:
            self.schedule()
        except ConfigurationError as exc:
            raise ConfigurationError(f"selection = {self.selection!r}: {exc}") from None

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def system_matrix(self) -> np.ndarray:
        return constant_velocity_matrix(self.dt, STATE_DIM)

    def schedule(self) -> EntrySelectionSchedule:
        return schedule_from_selection(self.selection)

    def case_label(self) -> str:
        if self.selection == "case1":
            return "1"
        if self.selection == "case2":
            return "2"
        if self.selection == "identity":
            return "identity"
        return "custom"

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for key, value in d.items():
            if isinstance(value, tuple):
                d[key] = list(value)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        kwargs = dict(d)
        for key, old_default in _RETIRED_KEYS.items():
            value = kwargs.pop(key, old_default)
            if (tuple(value) if isinstance(value, list) else value) != old_default:
                raise ConfigurationError(
                    f"config key {key} was removed; it may only hold its old default "
                    f"{old_default!r}, got {value!r}")
        unknown = set(kwargs) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key in _VECTOR_FIELDS:
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def selection_for_case(case):
    """The `selection` a case names, for `--case` and a config file's `case`:
    1 or "1" is "case1", 2 or "2" is "case2", and any other value is a
    selection as it stands."""
    return {"1": "case1", "2": "case2"}.get(str(case), case)


def schedule_from_selection(selection) -> EntrySelectionSchedule:
    """Map a config `selection` value to a schedule: a named case or
    explicit nested 1-based subsets like [[1, 3], [2, 4]]."""
    if isinstance(selection, str):
        return default_schedule(STATE_DIM, selection)
    return build_schedule(STATE_DIM, selection)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One estimator to run: name, reporting case label, and its schedule."""

    name: str                                    # "icfpie" | "icf" | "ckf"
    case: str                                    # "1" | "2" | "identity" | "custom" | "-"
    schedule: Optional[EntrySelectionSchedule] = None

    @property
    def label(self) -> str:
        return self.name if self.name == "ckf" else f"{self.name}[{self.case}]"

    @property
    def uses_consensus(self) -> bool:
        return self.name != "ckf"


def make_algorithms(cfg: ScenarioConfig, include=("ckf", "icf", "icfpie")) -> list:
    if not include:
        raise ConfigurationError("the algorithm list is empty")
    algs = []
    for name in include:
        if name == "ckf":
            algs.append(AlgorithmSpec("ckf", "-"))
        elif name == "icf":
            algs.append(AlgorithmSpec("icf", "identity", default_schedule(STATE_DIM, "identity")))
        elif name == "icfpie":
            algs.append(AlgorithmSpec("icfpie", cfg.case_label(), cfg.schedule()))
        else:
            raise ConfigurationError(f"unknown algorithm {name!r}")
    return algs


@dataclass
class Scenario:
    """A fully materialized run: network, models, and pregenerated data."""

    cfg: ScenarioConfig
    seed: int
    net: SensorNetwork
    sys: SystemModel
    sensor: MeasurementModel  # every node carries the same sensor
    eps: float
    truth: np.ndarray         # (T, 4)
    measurements: np.ndarray  # (T, N, 2)
    sensed: np.ndarray        # (T, N) bool

    def zero_prior(self, n_slices: int) -> InformationState:
        """A stack of n_slices zero-information priors: omega (n_slices, n, n),
        q (n_slices, n). A run of R seeds holds R*K*N slices for the nodes
        of each seed's K lanes, then one for each seed's centralized filter."""
        return information_state(np.zeros((n_slices, STATE_DIM, STATE_DIM)),
                                 np.zeros((n_slices, STATE_DIM)))


def build_scenario(cfg: ScenarioConfig, seed: int) -> Scenario:
    """Deterministically materialize network, truth, and measurements."""
    rng = np.random.default_rng(seed)
    net = random_geometric(cfg.n_nodes, cfg.region, cfg.comm_range, rng)
    if cfg.eps is None:
        eps = consensus_gain(net)
    else:
        eps = float(cfg.eps)
        # above 1/max degree the averaging matrix has negative entries and
        # consensus can diverge
        if not 0 < eps <= 1.0 / net.max_degree():
            raise ConfigurationError(
                f"eps = {eps} is outside 0 < eps <= 1/max degree = 1/{net.max_degree()} "
                f"for the network of seed {seed}")
    truth_model = TruthModel(
        initial_position=tuple(cfg.target_initial_position),
        speed_range=tuple(cfg.speed_range),
        heading_range=tuple(cfg.heading_range),
        speed_variance=cfg.speed_variance,
        dt=cfg.dt,
    )
    sys = SystemModel.lti(cfg.system_matrix(), np.diag(cfg.q_diag))
    sensor = MeasurementModel.linear(position_measurement_matrix(STATE_DIM),
                                     np.diag(cfg.r_diag))

    n_steps = cfg.n_steps
    truth = truth_trajectory(truth_model, n_steps, rng)

    # one draw in the (t, node) order of a per-measurement loop
    noise_draw = rng.standard_normal((n_steps, cfg.n_nodes, MEAS_DIM))
    measurements = ((truth @ sensor.c.T)[:, None, :]
                    + noise_draw @ np.linalg.cholesky(sensor.meas_cov).T)
    dist = np.linalg.norm(truth[:, None, :2] - net.positions[None, :, :], axis=2)
    sensed = dist <= cfg.sensing_range

    return Scenario(cfg=cfg, seed=seed, net=net, sys=sys, sensor=sensor, eps=eps,
                    truth=truth, measurements=measurements, sensed=sensed)


@dataclass
class RunMetrics:
    """Per-timestep metrics of one run."""

    series: dict              # label -> (T,) node-averaged error norm
    final: dict               # label -> float
    bandwidth: dict           # label -> total scalars broadcast
    diag: Optional[dict] = None
    events: Optional[list] = None  # the seed's numerics events, with diagnostics


def run_once(scenarios, depths, algorithms: Optional[list] = None,
             diagnostics: bool = False) -> list:
    """Simulate the full horizon of a chunk of seeds as one filter stack,
    stepping every algorithm on each seed's own truth and measurement
    sequences.

    `scenarios` is a list of R scenarios of one config, and `depths` a
    sequence of consensus depths L. Every consensus algorithm runs at
    every depth on every seed, and each such (seed, algorithm, L) lane is
    a block of one stacked state; each seed's centralized filter, if asked
    for, is one of the stack's last R slices (`dicf_step` gives the
    layout). The lanes' consensus plan and the measurement terms of every
    seed and timestep are computed once per run, and a single dicf_step
    per timestep advances every slice, with one NumericsLog, through the
    first seed's system model, which computes its split once. Per
    timestep the loop keeps only each slice's estimate and the log's
    length (and, with `diagnostics`, the lanes' posterior eigenvalue
    range); the error norms, lane means, node errors and each seed's events
    and regularize counts per step are formed after the loop. A lane's
    bandwidth is read from the plan's step counts: each of its N nodes
    sends (n + 1) * sum_r k_r scalars per timestep. A slice gets the bits
    it gets alone, so each seed's metrics are those of its run alone.
    Returns one {L: RunMetrics} per seed, in the order of `scenarios`;
    each RunMetrics is keyed by algorithm label and also holds the
    centralized filter, which has no depth. With `diagnostics`, a seed's
    `events` are its log records, each with its step `t` and its slice in
    the seed's own stack as `node`: k*N + i, and K*N for the centralized
    filter.
    """
    chunk = list(scenarios)
    if not chunk:
        raise ConfigurationError("run_once needs at least one scenario")
    cfg = chunk[0].cfg
    if any(s.cfg != cfg for s in chunk):
        raise ConfigurationError("the scenarios of one run_once call must share one config")
    if algorithms is None:
        algorithms = make_algorithms(cfg)
    depths = list(dict.fromkeys(_consensus_depths(depths, "run_once depths")))
    n_seeds, n_steps, n_nodes = len(chunk), cfg.n_steps, cfg.n_nodes

    # row k = d * len(consensus) + j of a seed's tables is the lane that
    # runs consensus[j] at depths[d]; the centralized filter takes the row
    # after them, and every centralized algorithm reads that one filter
    consensus = [a for a in algorithms if a.uses_consensus]
    central = [a for a in algorithms if not a.uses_consensus]
    lanes = [(a.schedule, lv) for lv in depths for a in consensus]
    n_lanes, n_own_central = len(lanes), 1 if central else 0
    n_lane_slices = n_seeds * n_lanes * n_nodes
    n_slices = n_lane_slices + n_seeds * n_own_central
    # every slice's estimate at every step: (T, S, n), 873 kB for one seed
    # of the sweep's 91 slices over 300 steps
    estimates = np.empty((n_steps, n_slices, STATE_DIM))
    events_after = np.zeros(n_steps, dtype=int)  # len(log.events) after step t
    log = NumericsLog()
    eig_range = {key: np.zeros((n_seeds * n_lanes, n_steps, n_nodes))
                 for key in ("eig_min", "eig_max")} if diagnostics else {}
    prior = chunk[0].zero_prior(n_slices)
    plan = plan_lanes(lanes, np.stack([averaging_powers(s.net, s.eps, max(depths))
                                       for s in chunk]), STATE_DIM)
    terms = correction_terms(chunk[0].sensor, np.stack([s.measurements for s in chunk], axis=1),
                             np.stack([s.sensed for s in chunk], axis=1))

    for t in range(n_steps):
        prior, posterior, estimates[t] = dicf_step(prior, plan, terms.at(t), chunk[0].sys, log)
        events_after[t] = len(log.events)
        if diagnostics and lanes:
            ev = np.linalg.eigvalsh(posterior.omega[:n_lane_slices]).reshape(
                n_seeds * n_lanes, n_nodes, -1)
            eig_range["eig_min"][:, t] = ev[..., 0]
            eig_range["eig_max"][:, t] = ev[..., -1]

    # the error norms, as np.linalg.norm forms them, of each slice against
    # its own seed's truth, in place: a (T, R, slices per seed, n) view of
    # each block of the stack
    truth = np.stack([s.truth for s in chunk], axis=1)[:, :, None]
    for block, per_seed in ((estimates[:, :n_lane_slices], n_lanes * n_nodes),
                            (estimates[:, n_lane_slices:], n_own_central)):
        errs = block.reshape(n_steps, n_seeds, per_seed, STATE_DIM)
        errs -= truth
    estimates *= estimates
    slice_errors = np.sqrt(np.add.reduce(estimates, axis=-1))
    node_errors = slice_errors[:, :n_lane_slices].reshape(n_steps, n_seeds, n_lanes, n_nodes)
    # (R, K + C, T): each seed's lane means, then its centralized filter
    errors = np.concatenate(
        [node_errors.mean(axis=-1),
         slice_errors[:, n_lane_slices:].reshape(n_steps, n_seeds, n_own_central)],
        axis=2).transpose(1, 2, 0)
    if diagnostics:
        node_diag = {"node_errors": node_errors.transpose(1, 2, 0, 3),
                     **{key: v.reshape(n_seeds, n_lanes, n_steps, n_nodes)
                        for key, v in eig_range.items()}}
        # event i happened at the step t with events_after[t - 1] <= i <
        # events_after[t]; its `node` is its slice in the chunk's stack
        seed_events = [[] for _ in chunk]
        steps = np.searchsorted(events_after, np.arange(len(log.events)), side="right")
        for e, t in zip(log.events, steps.tolist()):
            seed, node = (divmod(e["node"], n_lanes * n_nodes) if e["node"] < n_lane_slices
                          else (e["node"] - n_lane_slices, n_lanes * n_nodes))
            seed_events[seed].append({**e, "node": node, "t": t})
        # a regularize event lands in row node // N of its seed, which is
        # row K for the centralized slice
        reg = np.zeros(errors.shape, dtype=int)
        regularized = [(seed, e["node"] // n_nodes, e["t"])
                       for seed, events in enumerate(seed_events)
                       for e in events if e["kind"] == "regularize"]
        if regularized:
            np.add.at(reg, tuple(np.array(regularized).T), 1)

    # every timestep of a lane sends the same scalars
    scalars = (n_steps * n_nodes * (STATE_DIM + 1) * plan.steps.sum(axis=1)).tolist()
    scalars += [0] * n_own_central

    def metrics_at(seed: int, d: int) -> RunMetrics:
        row = {a.label: d * len(consensus) + j for j, a in enumerate(consensus)}
        row.update({a.label: n_lanes for a in central})
        series = {a.label: errors[seed, row[a.label]] for a in algorithms}
        diag, events = None, None
        if diagnostics:
            diag = {key: {a.label: values[seed, row[a.label]] for a in consensus}
                    for key, values in node_diag.items()}
            diag["reg_events"] = {a.label: reg[seed, row[a.label]] for a in algorithms}
            events = seed_events[seed]
        return RunMetrics(series=series,
                          final={label: float(s[-1]) for label, s in series.items()},
                          bandwidth={a.label: scalars[row[a.label]] for a in algorithms},
                          diag=diag, events=events)

    return [{lv: metrics_at(seed, d) for d, lv in enumerate(depths)}
            for seed in range(n_seeds)]


@dataclass
class MonteCarloResult:
    """Across-run aggregation of RunMetrics; the dicts are keyed by the
    labels of `algorithms`, in their order."""

    t: np.ndarray
    L: int
    algorithms: list
    mean_series: dict
    final_mean: dict
    bandwidth: dict
    n_runs: int
    failures: int
    failed_seeds: list
    run_diags: Optional[list] = None


def _run_summary(metrics: RunMetrics, cfg: ScenarioConfig) -> dict:
    """Compact per-run diagnostics used by the stability/boundedness checks;
    a run no longer than the 2 s transient has no eigenvalue range after it."""
    n_last = max(1, int(round(10.0 / cfg.dt)))
    transient = int(round(2.0 / cfg.dt))
    out = {}
    for label, s in metrics.series.items():
        entry = {"finite": bool(np.isfinite(s).all())}
        if metrics.diag and label in metrics.diag["node_errors"]:
            ne = metrics.diag["node_errors"][label]
            entry["finite"] = entry["finite"] and bool(np.isfinite(ne).all())
            entry["last10s_mse_max_node"] = float((ne[-n_last:] ** 2).mean(axis=0).max())
            lo, hi = (metrics.diag[key][label][transient:] for key in ("eig_min", "eig_max"))
            entry["eig_min_after_transient"] = float(lo.min()) if lo.size else None
            entry["eig_max_after_transient"] = float(hi.max()) if hi.size else None
        else:
            entry["last10s_mse_max_node"] = float((s[-n_last:] ** 2).mean())
        entry["reg_events_after_transient"] = int(metrics.diag["reg_events"][label][transient:].sum()) \
            if metrics.diag else None
        out[label] = entry
    return out


def _chunks(cfg: ScenarioConfig, algorithms: list, n_depths: int) -> list:
    """(seed count, first seed) of each chunk of the cfg.mc_runs seeds, in
    seed order: as few chunks as keep each stack at up to CHUNK_SLICES
    slices (or one seed), of sizes that differ by at most one."""
    n_lanes = n_depths * sum(a.uses_consensus for a in algorithms)
    per_seed = n_lanes * cfg.n_nodes + any(not a.uses_consensus for a in algorithms)
    n_chunks = -(-cfg.mc_runs // max(1, CHUNK_SLICES // per_seed))
    size, extra = divmod(cfg.mc_runs, n_chunks)
    sizes = [size + (k < extra) for k in range(n_chunks)]
    return [(n, cfg.seed + sum(sizes[:k])) for k, n in enumerate(sizes)]


def _isolated(run, scenarios: list) -> list:
    """run(scenarios), a list of one result per seed. If the chunk fails
    numerically, each of its seeds runs again alone, and a seed that fails
    alone gives {"seed": seed, "failed": message}. A seed's slices do not
    depend on the others, so every other seed keeps the bits of its chunk."""
    try:
        return run(scenarios)
    except (FilterNumericsError, np.linalg.LinAlgError) as exc:
        if len(scenarios) == 1:
            return [{"seed": scenarios[0].seed, "failed": str(exc)}]
    return [r for s in scenarios for r in _isolated(run, [s])]


def _mc_single_run(args) -> dict:
    """One chunk of a Monte-Carlo batch, `args` = (cfg, L, diagnostics,
    seed count, first seed): {"runs": one result per seed}."""
    cfg, L, diagnostics, n_seeds, first = args
    algorithms = make_algorithms(cfg)

    def run(scenarios):
        out = []
        for scenario, by_depth in zip(scenarios, run_once(scenarios, [L], algorithms,
                                                          diagnostics=diagnostics)):
            metrics = by_depth[L]
            out.append({"seed": scenario.seed, "failed": None, "series": metrics.series,
                        "bandwidth": metrics.bandwidth})
            if diagnostics:
                out[-1]["summary"] = _run_summary(metrics, cfg)
        return out
    return {"runs": _isolated(run, [build_scenario(cfg, first + k) for k in range(n_seeds)])}


def _recording(fn, args):
    """(fn(args), the warnings it issued) in a pool worker, each warning as
    (message, category, filename, lineno). The worker's filters apply, so
    a warning that they ignore is not recorded."""
    with warnings.catch_warnings(record=True) as caught:
        result = fn(args)
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


# the registry of the warnings that pool runs issue through this process
_POOL_WARNINGS: dict = {}


def _execute(fn, arglist, jobs: int):
    """[fn(a) for a in arglist], in `jobs` worker processes when jobs > 1.
    Each warning that the workers issue is issued once more here, once
    per distinct warning, so what a command prints does not depend on its
    worker count: each forked worker would print it once."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(arglist) <= 1:
        return [fn(a) for a in arglist]
    # imported here so that serial runs do not load the process-pool machinery
    from concurrent.futures import ProcessPoolExecutor
    # a fork pool starts all its workers at the first submit
    with ProcessPoolExecutor(max_workers=min(jobs, len(arglist))) as pool:
        done = list(pool.map(functools.partial(_recording, fn), arglist))
    for caught in dict.fromkeys(w for _, issued in done for w in issued):
        warnings.warn_explicit(*caught, registry=_POOL_WARNINGS)
    return [result for result, _ in done]


def _split_failures(results: list, what: str) -> tuple:
    """(good, failed) results of a batch of seeds. Raises FilterNumericsError,
    naming the failed seeds, when more than 5% of them failed, which
    includes every batch in which no seed succeeded."""
    good = [r for r in results if r["failed"] is None]
    failed = [r for r in results if r["failed"] is not None]
    if len(failed) > 0.05 * len(results):
        raise FilterNumericsError(
            f"{len(failed)}/{len(results)} {what} runs failed numerically "
            f"(seeds {[r['seed'] for r in failed]})"
        )
    return good, failed


def run_monte_carlo(cfg: ScenarioConfig, L: int, diagnostics: bool = False,
                    jobs: int = 1) -> MonteCarloResult:
    """Average run_once over cfg.mc_runs runs with seeds master+k, run in
    chunks of seeds (`CHUNK_SLICES`), each chunk one filter stack; workers
    take whole chunks.

    Failed runs are excluded and counted; more than 5% failures raises.
    """
    (L,) = _consensus_depths([L], "[L]")
    algorithms = make_algorithms(cfg)
    arglist = [(cfg, L, diagnostics, n, first) for n, first in _chunks(cfg, algorithms, 1)]
    good, failed = _split_failures(_chunk_runs(_mc_single_run, arglist, jobs), "Monte-Carlo")

    stacked = {lab: np.array([r["series"][lab] for r in good]) for lab in good[0]["series"]}
    return MonteCarloResult(
        t=np.array([round((k + 1) * cfg.dt, 10) for k in range(cfg.n_steps)]),
        L=L,
        algorithms=algorithms,
        mean_series={lab: s.mean(axis=0) for lab, s in stacked.items()},
        final_mean={lab: float(s[:, -1].mean()) for lab, s in stacked.items()},
        bandwidth=good[0]["bandwidth"],
        n_runs=len(good),
        failures=len(failed),
        failed_seeds=[r["seed"] for r in failed],
        run_diags=[r["summary"] for r in good] if diagnostics else None,
    )


@dataclass
class SweepResult:
    """Final error and bandwidth per (L, algorithm, case)."""

    rows: list      # dicts with keys L, alg, case, label, final_error, total_scalars
    L_values: list  # the grid: ascending, without duplicates
    n_runs: int
    failures: int

    def final_error(self, L: int, label: str) -> float:
        for row in self.rows:
            if row["L"] == L and row["label"] == label:
                return row["final_error"]
        raise KeyError(f"no sweep row for L={L}, label={label}")


def _sweep_algorithms(cfg: ScenarioConfig) -> list:
    """The sweep's algorithms, in the row order of sweep.csv."""
    return [make_algorithms(dataclasses.replace(cfg, selection=case), ["icfpie"])[0]
            for case in ("case1", "case2")] + make_algorithms(cfg, ["icf", "ckf"])


def _sweep_single_run(args) -> dict:
    """One chunk of a sweep, `args` = (cfg, L values, seed count, first
    seed): {"runs": one result per seed}."""
    cfg, L_values, n_seeds, first = args

    def run(scenarios):
        return [{"seed": scenario.seed, "failed": None,
                 "finals": {lv: m.final for lv, m in by_depth.items()},
                 "bandwidth": {lv: m.bandwidth for lv, m in by_depth.items()}}
                for scenario, by_depth in zip(scenarios, run_once(scenarios, L_values,
                                                                  _sweep_algorithms(cfg)))]
    return {"runs": _isolated(run, [build_scenario(cfg, first + k) for k in range(n_seeds)])}


def _chunk_runs(fn, arglist, jobs: int) -> list:
    """The per-seed results of the chunk tasks `arglist`, in seed order."""
    return [r for chunk in _execute(fn, arglist, jobs) for r in chunk["runs"]]


def sweep_consensus_steps(cfg: ScenarioConfig, L_values, jobs: int = 1) -> SweepResult:
    """Monte-Carlo-averaged final error over a grid of consensus step
    counts, for both partial-exchange cases, full exchange, and the
    centralized benchmark. The grid is sorted and rid of duplicates."""
    L_values = sorted(set(_consensus_depths(L_values)))
    algorithms = _sweep_algorithms(cfg)
    arglist = [(cfg, tuple(L_values), n, first)
               for n, first in _chunks(cfg, algorithms, len(L_values))]
    good, failed = _split_failures(_chunk_runs(_sweep_single_run, arglist, jobs), "sweep")
    rows = [{"L": lv, "alg": a.name, "case": a.case, "label": a.label,
             "final_error": float(np.array([r["finals"][lv][a.label] for r in good]).mean()),
             "total_scalars": int(good[0]["bandwidth"][lv][a.label])}
            for lv in L_values for a in algorithms]
    return SweepResult(rows=rows, L_values=L_values, n_runs=len(good), failures=len(failed))


def _fmt(x) -> str:
    return repr(float(x))


def emit_outputs(result, out_dir, cfg: ScenarioConfig, extra_metadata: Optional[dict] = None):
    """Write CSV outputs plus a metadata file that fully reproduces them.

    MonteCarloResult -> timeseries.csv, with the config of the run: `cfg`
    at the result's L; SweepResult -> sweep.csv. Returns the list of
    written paths.
    """
    if isinstance(result, MonteCarloResult):
        cfg = dataclasses.replace(cfg, L=result.L)
        name, header = "timeseries.csv", "t,alg,case,L,avg_error_norm"
        lines = (f"{_fmt(ti)},{a.name},{a.case},{result.L},{_fmt(v)}"
                 for a in result.algorithms
                 for ti, v in zip(result.t, result.mean_series[a.label]))
        mode = {"mode": "timeseries", "L": result.L}
    elif isinstance(result, SweepResult):
        name, header = "sweep.csv", "L,alg,case,final_error,total_scalars"
        lines = (f"{row['L']},{row['alg']},{row['case']},{_fmt(row['final_error'])},"
                 f"{row['total_scalars']}" for row in result.rows)
        mode = {"mode": "sweep", "L_values": result.L_values}
    else:
        raise ConfigurationError(f"cannot emit outputs for {type(result).__name__}")
    metadata = {"config": cfg.to_dict(), "code_version": __version__,
                **(extra_metadata or {}), **mode,
                "n_runs": result.n_runs, "failures": result.failures}

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, name)
    with open(csv_path, "w") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")
    meta_path = os.path.join(out_dir, "metadata.json")
    with open(meta_path, "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, meta_path]


def load_config(path) -> tuple:
    """Read a config file: either flat key=value lines (values parsed as
    Python literals when possible) or a metadata JSON from emit_outputs.

    Returns (ScenarioConfig, extra) where extra holds run options the
    config may carry (mode, "timeseries" or "sweep"; L, which must equal
    the config's L; and L_values, a list of integers >= 1).
    """
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        meta = json.loads(text)
        config = meta.get("config", {})
        if not isinstance(config, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object, got {config!r}")
        extra = {k: meta[k] for k in ("mode", "L", "L_values") if k in meta}
        if extra.get("mode", "timeseries") not in ("timeseries", "sweep"):
            raise ConfigurationError(f"{path}: mode must be \"timeseries\" or \"sweep\", "
                                     f"got {extra['mode']!r}")
        if extra.get("mode") == "sweep" or "L_values" in extra:
            _consensus_depths(extra.get("L_values"), f"{path}: L_values")
        cfg = ScenarioConfig.from_dict(config)
        if extra.get("L", cfg.L) != cfg.L:
            raise ConfigurationError(f"{path}: L = {extra['L']!r} contradicts config L = {cfg.L}")
        return cfg, extra

    aliases = {"runs": "mc_runs", "consensus_steps": "L", "case": "selection"}
    values, set_by = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        name = aliases.get(key, key)
        if name in set_by:
            first_key, first_line = set_by[name]
            raise ConfigurationError(f"{path}: {name} is set twice, by {first_key} on line "
                                     f"{first_line} and by {key} on line {lineno}")
        set_by[name] = (key, lineno)
        val = val.strip()
        try:
            values[name] = ast.literal_eval(val)
        except (ValueError, SyntaxError):
            values[name] = val
    if "selection" in values:
        values["selection"] = selection_for_case(values["selection"])
    return ScenarioConfig.from_dict(values), {}
