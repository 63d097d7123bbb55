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
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .dicf import ckf_step, dicf_step
from .errors import ConfigurationError, FilterNumericsError
from .info_filter import (
    InformationState,
    NoiseInformation,
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
    propagate_truth,
    sample_measurement,
)
from .network import BandwidthLedger, SensorNetwork, consensus_gain, random_geometric
from .selection import EntrySelectionSchedule, build_schedule, default_schedule

STATE_DIM = 4
MEAS_DIM = 2

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
            raise ConfigurationError("need at least 2 sensor nodes")
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
        if self.speed_variance < 0:
            raise ConfigurationError(f"speed_variance must be >= 0, got {self.speed_variance!r}")
        if self.n_steps < 1:
            raise ConfigurationError(f"horizon = {self.horizon} with dt = {self.dt} gives "
                                     f"{self.n_steps} steps; need at least 1")

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
    noise: NoiseInformation
    eps: float
    truth: np.ndarray         # (T, 4)
    measurements: np.ndarray  # (T, N, 2)
    sensed: np.ndarray        # (T, N) bool

    def initial_state(self) -> InformationState:
        """The centralized filter's prior."""
        return information_state(np.zeros((STATE_DIM, STATE_DIM)), np.zeros(STATE_DIM))

    def initial_nodes(self, n_lanes: int = 1) -> InformationState:
        """Every node's prior, stacked n_lanes times: omega (n_lanes*N, n, n),
        q (n_lanes*N, n)."""
        s = self.initial_state()
        n_slices = n_lanes * self.net.n_nodes
        return information_state(np.repeat(s.omega[None], n_slices, axis=0),
                                 np.repeat(s.q[None], n_slices, axis=0))


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
    q = np.diag(cfg.q_diag)
    sys = SystemModel.lti(cfg.system_matrix(), q)
    r = np.diag(cfg.r_diag)
    sensor = MeasurementModel.linear(position_measurement_matrix(STATE_DIM), r)
    noise = NoiseInformation.from_covariances(q, r)

    n_steps = cfg.n_steps
    truth = np.zeros((n_steps, STATE_DIM))
    truth[0] = truth_model.initial_state(rng)
    for t in range(1, n_steps):
        truth[t] = propagate_truth(truth[t - 1], truth_model, rng)

    measurements = np.zeros((n_steps, cfg.n_nodes, MEAS_DIM))
    for t in range(n_steps):
        for i in range(cfg.n_nodes):
            measurements[t, i] = sample_measurement(truth[t], sensor, rng)
    dist = np.linalg.norm(truth[:, None, :2] - net.positions[None, :, :], axis=2)
    sensed = dist <= cfg.sensing_range

    return Scenario(cfg=cfg, seed=seed, net=net, sys=sys, sensor=sensor, noise=noise,
                    eps=eps, truth=truth, measurements=measurements, sensed=sensed)


@dataclass
class RunMetrics:
    """Per-timestep metrics of one run (or a Monte-Carlo mean)."""

    t: np.ndarray
    series: dict              # label -> (T,) node-averaged error norm
    final: dict               # label -> float
    bandwidth: dict           # label -> total scalars broadcast
    diag: Optional[dict] = None


def run_once(scenario: Scenario, L, algorithms: Optional[list] = None,
             diagnostics: bool = False):
    """Simulate the full horizon once, stepping every algorithm on the
    same truth and measurement sequences.

    `L` is one consensus depth or a sequence of them. Every consensus
    algorithm runs at every depth, and each such (algorithm, L) lane is a
    block of one stacked state that a single dicf_step per timestep
    advances. One depth returns RunMetrics keyed by algorithm label; a
    sequence returns {L: RunMetrics}, each of which also holds the
    centralized filter, which has no depth.
    """
    cfg = scenario.cfg
    if algorithms is None:
        algorithms = make_algorithms(cfg)
    one_depth = isinstance(L, numbers.Integral)
    depths = [L] if one_depth else list(dict.fromkeys(int(v) for v in L))
    if not depths:
        raise ConfigurationError("run_once needs at least one consensus depth L")
    n_steps = cfg.n_steps
    n_nodes = scenario.net.n_nodes
    t_axis = np.array([round((k + 1) * cfg.dt, 10) for k in range(n_steps)])

    # lane k = d * len(consensus) + j runs consensus[j] at depths[d]
    consensus = [a for a in algorithms if a.uses_consensus]
    lanes = [(a.schedule, lv) for lv in depths for a in consensus]
    n_lanes = len(lanes)
    ledgers = [BandwidthLedger() for _ in lanes]
    lane_log = NumericsLog()
    lane_series = np.zeros((n_lanes, n_steps))
    lane_reg = np.zeros((n_lanes, n_steps), dtype=int)
    node_diag = {key: np.zeros((n_lanes, n_steps, n_nodes))
                 for key in ("node_errors", "eig_min", "eig_max")} if diagnostics else {}
    prior = scenario.initial_nodes(n_lanes)

    central = [a for a in algorithms if not a.uses_consensus]
    central_series = {a.label: np.zeros(n_steps) for a in central}
    central_reg = {a.label: np.zeros(n_steps, dtype=int) for a in central}
    central_logs = {a.label: NumericsLog() for a in central}
    central_priors = {a.label: scenario.initial_state() for a in central}

    for t in range(n_steps):
        meas = scenario.measurements[t]
        sensed = scenario.sensed[t]
        truth_t = scenario.truth[t]
        if lanes:
            seen = len(lane_log.events)
            prior, out = dicf_step(
                prior, scenario.net, lanes, scenario.eps, meas, sensed,
                scenario.sensor, scenario.sys, scenario.noise,
                ledgers=ledgers, t=t, log=lane_log)
            errs = np.linalg.norm(truth_t - out.estimates, axis=-1).reshape(n_lanes, n_nodes)
            lane_series[:, t] = errs.mean(axis=1)
            # an event's node is its slice in the lane-major stack
            for event in lane_log.events[seen:]:
                if event["kind"] == "regularize":
                    lane_reg[event["node"] // n_nodes, t] += 1
            if diagnostics:
                node_diag["node_errors"][:, t] = errs
                ev = np.linalg.eigvalsh(out.posterior.omega).reshape(n_lanes, n_nodes, -1)
                node_diag["eig_min"][:, t] = ev[..., 0]
                node_diag["eig_max"][:, t] = ev[..., -1]
        for a in central:
            log = central_logs[a.label]
            before = log.count("regularize")
            central_priors[a.label], out = ckf_step(
                central_priors[a.label], meas, sensed, scenario.sensor, scenario.sys,
                scenario.noise, log=log)
            central_series[a.label][t] = np.linalg.norm(truth_t - out.estimates, axis=-1)
            central_reg[a.label][t] = log.count("regularize") - before

    def metrics_at(d: int) -> RunMetrics:
        lane = {a.label: d * len(consensus) + j for j, a in enumerate(consensus)}

        def by_label(lane_values, central_values):
            return {a.label: lane_values[lane[a.label]] if a.label in lane
                    else central_values[a.label] for a in algorithms}
        series = by_label(lane_series, central_series)
        final = {label: float(s[-1]) for label, s in series.items()}
        bandwidth = by_label([ledger.total_scalars() for ledger in ledgers],
                             dict.fromkeys(central_series, 0))
        diag = None
        if diagnostics:
            diag = {key: {label: values[k] for label, k in lane.items()}
                    for key, values in node_diag.items()}
            diag["reg_events"] = by_label(lane_reg, central_reg)
        return RunMetrics(t=t_axis, series=series, final=final, bandwidth=bandwidth, diag=diag)

    if one_depth:
        return metrics_at(0)
    return {lv: metrics_at(d) for d, lv in enumerate(depths)}


@dataclass
class MonteCarloResult:
    """Across-run aggregation of RunMetrics."""

    t: np.ndarray
    L: int
    mean_series: dict
    final_mean: dict
    bandwidth: dict
    n_runs: int
    failures: int
    failed_seeds: list
    run_diags: Optional[list] = None


def _run_summary(metrics: RunMetrics, cfg: ScenarioConfig) -> dict:
    """Compact per-run diagnostics used by the stability/boundedness checks."""
    n_last = max(1, int(round(10.0 / cfg.dt)))
    transient = int(round(2.0 / cfg.dt))
    out = {}
    for label, s in metrics.series.items():
        entry = {"finite": bool(np.isfinite(s).all())}
        if metrics.diag and label in metrics.diag["node_errors"]:
            ne = metrics.diag["node_errors"][label]
            entry["finite"] = entry["finite"] and bool(np.isfinite(ne).all())
            entry["last10s_mse_max_node"] = float((ne[-n_last:] ** 2).mean(axis=0).max())
            entry["eig_min_after_transient"] = float(metrics.diag["eig_min"][label][transient:].min())
            entry["eig_max_after_transient"] = float(metrics.diag["eig_max"][label][transient:].max())
        else:
            entry["last10s_mse_max_node"] = float((s[-n_last:] ** 2).mean())
        entry["reg_events_after_transient"] = int(metrics.diag["reg_events"][label][transient:].sum()) \
            if metrics.diag else None
        out[label] = entry
    return out


def _mc_single_run(args) -> dict:
    cfg, L, include, diagnostics, seed = args
    scenario = build_scenario(cfg, seed)
    algorithms = make_algorithms(cfg, include)
    try:
        metrics = run_once(scenario, L, algorithms, diagnostics=diagnostics)
    except (FilterNumericsError, np.linalg.LinAlgError) as exc:
        return {"seed": seed, "failed": str(exc)}
    out = {
        "seed": seed,
        "failed": None,
        "series": metrics.series,
        "final": metrics.final,
        "bandwidth": metrics.bandwidth,
        "t": metrics.t,
    }
    if diagnostics:
        out["summary"] = _run_summary(metrics, cfg)
    return out


def _execute(fn, arglist, jobs: int):
    if jobs <= 1 or len(arglist) <= 1:
        return [fn(a) for a in arglist]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, arglist))


def run_monte_carlo(cfg: ScenarioConfig, L: int, include=("ckf", "icf", "icfpie"),
                    diagnostics: bool = False, jobs: int = 1) -> MonteCarloResult:
    """Average run_once over cfg.mc_runs runs with seeds master+k.

    Failed runs are excluded and counted; more than 5% failures raises.
    """
    arglist = [(cfg, L, tuple(include), diagnostics, cfg.seed + k)
               for k in range(cfg.mc_runs)]
    results = _execute(_mc_single_run, arglist, jobs)
    good = [r for r in results if r["failed"] is None]
    failed = [r for r in results if r["failed"] is not None]
    if len(failed) > 0.05 * cfg.mc_runs:
        raise FilterNumericsError(
            f"{len(failed)}/{cfg.mc_runs} Monte-Carlo runs failed numerically "
            f"(seeds {[r['seed'] for r in failed]})"
        )
    if not good:
        raise FilterNumericsError("all Monte-Carlo runs failed")

    labels = list(good[0]["series"].keys())
    t_axis = good[0]["t"]
    stacked = {lab: np.array([r["series"][lab] for r in good]) for lab in labels}
    finals = {lab: np.array([r["final"][lab] for r in good]) for lab in labels}
    mean_series = {lab: stacked[lab].mean(axis=0) for lab in labels}
    return MonteCarloResult(
        t=t_axis,
        L=L,
        mean_series=mean_series,
        final_mean={lab: float(finals[lab].mean()) for lab in labels},
        bandwidth=good[0]["bandwidth"],
        n_runs=len(good),
        failures=len(failed),
        failed_seeds=[r["seed"] for r in failed],
        run_diags=[r["summary"] for r in good] if diagnostics else None,
    )


@dataclass
class SweepResult:
    """Final error and bandwidth per (L, algorithm, case)."""

    rows: list  # dicts with keys L, alg, case, final_error, total_scalars
    n_runs: int
    failures: int

    def final_error(self, L: int, label: str) -> float:
        for row in self.rows:
            if row["L"] == L and row["label"] == label:
                return row["final_error"]
        raise KeyError(f"no sweep row for L={L}, label={label}")


def _sweep_single_run(args) -> dict:
    cfg, L_values, seed = args
    scenario = build_scenario(cfg, seed)
    algorithms = make_algorithms(cfg, ["ckf", "icf"]) + [
        make_algorithms(dataclasses.replace(cfg, selection=case), ["icfpie"])[0]
        for case in ("case1", "case2")]
    try:
        by_depth = run_once(scenario, L_values, algorithms)
    except (FilterNumericsError, np.linalg.LinAlgError) as exc:
        return {"seed": seed, "failed": str(exc)}
    return {"seed": seed, "failed": None,
            "finals": {lv: m.final for lv, m in by_depth.items()},
            "bandwidth": {lv: m.bandwidth for lv, m in by_depth.items()}}


def sweep_consensus_steps(cfg: ScenarioConfig, L_values, jobs: int = 1) -> SweepResult:
    """Monte-Carlo-averaged final error over a grid of consensus step
    counts, for both partial-exchange cases, full exchange, and the
    centralized benchmark."""
    L_values = [int(v) for v in L_values]
    if not L_values:
        raise ConfigurationError("sweep needs at least one L value")
    arglist = [(cfg, tuple(L_values), cfg.seed + k) for k in range(cfg.mc_runs)]
    results = _execute(_sweep_single_run, arglist, jobs)
    good = [r for r in results if r["failed"] is None]
    failed = [r for r in results if r["failed"] is not None]
    if len(failed) > 0.05 * cfg.mc_runs:
        raise FilterNumericsError(
            f"{len(failed)}/{cfg.mc_runs} sweep runs failed numerically"
        )
    if not good:
        raise FilterNumericsError("all sweep runs failed")

    label_case = [("icfpie[1]", "icfpie", "1"), ("icfpie[2]", "icfpie", "2"),
                  ("icf[identity]", "icf", "identity"), ("ckf", "ckf", "-")]
    rows = []
    for lv in L_values:
        for label, alg, case in label_case:
            finals = np.array([r["finals"][lv][label] for r in good])
            rows.append({
                "L": lv,
                "alg": alg,
                "case": case,
                "label": label,
                "final_error": float(finals.mean()),
                "total_scalars": int(good[0]["bandwidth"][lv][label]),
            })
    return SweepResult(rows=rows, n_runs=len(good), failures=len(failed))


def _fmt(x) -> str:
    return repr(float(x))


def emit_outputs(result, out_dir, cfg: ScenarioConfig, extra_metadata: Optional[dict] = None):
    """Write CSV outputs plus a metadata file that fully reproduces them.

    MonteCarloResult -> timeseries.csv; SweepResult -> sweep.csv. Returns
    the list of written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    metadata = {
        "config": cfg.to_dict(),
        "code_version": __version__,
    }
    if extra_metadata:
        metadata.update(extra_metadata)

    if isinstance(result, MonteCarloResult):
        path = os.path.join(out_dir, "timeseries.csv")
        with open(path, "w") as fh:
            fh.write("t,alg,case,L,avg_error_norm\n")
            for label in result.mean_series:
                alg, case = _split_label(label)
                for ti, v in zip(result.t, result.mean_series[label]):
                    fh.write(f"{_fmt(ti)},{alg},{case},{result.L},{_fmt(v)}\n")
        written.append(path)
        metadata["mode"] = "timeseries"
        metadata["L"] = result.L
        metadata["n_runs"] = result.n_runs
        metadata["failures"] = result.failures
    elif isinstance(result, SweepResult):
        path = os.path.join(out_dir, "sweep.csv")
        with open(path, "w") as fh:
            fh.write("L,alg,case,final_error,total_scalars\n")
            for row in result.rows:
                fh.write(f"{row['L']},{row['alg']},{row['case']},"
                         f"{_fmt(row['final_error'])},{row['total_scalars']}\n")
        written.append(path)
        metadata["mode"] = "sweep"
        metadata["L_values"] = sorted({row["L"] for row in result.rows})
        metadata["n_runs"] = result.n_runs
        metadata["failures"] = result.failures
    else:
        raise ConfigurationError(f"cannot emit outputs for {type(result).__name__}")

    meta_path = os.path.join(out_dir, "metadata.json")
    with open(meta_path, "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(meta_path)
    return written


def _split_label(label: str):
    if label == "ckf":
        return "ckf", "-"
    name, case = label.rstrip("]").split("[")
    return name, case


def load_config(path) -> tuple:
    """Read a config file: either flat key=value lines (values parsed as
    Python literals when possible) or a metadata JSON from emit_outputs.

    Returns (ScenarioConfig, extra) where extra holds run options the
    config may carry (mode, L_values).
    """
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        meta = json.loads(text)
        cfg = ScenarioConfig.from_dict(meta.get("config", {}))
        extra = {k: meta[k] for k in ("mode", "L", "L_values") if k in meta}
        return cfg, extra

    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        try:
            values[key] = ast.literal_eval(val)
        except (ValueError, SyntaxError):
            values[key] = val
    aliases = {"runs": "mc_runs", "consensus_steps": "L", "case": "selection"}
    values = {aliases.get(k, k): v for k, v in values.items()}
    if "selection" in values and values["selection"] in (1, 2):
        values["selection"] = f"case{values['selection']}"
    return ScenarioConfig.from_dict(values), {}
