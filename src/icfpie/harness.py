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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .consensus import averaging_powers
from .dicf import ckf_step  # noqa: F401  unused here; perfbench/tracer.py wraps it by this name
from .dicf import dicf_step
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
    propagate_truth,
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
        q (n_slices, n). A run's stack holds K*N slices for the nodes of
        K lanes, then one for the centralized filter."""
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
    truth = np.zeros((n_steps, STATE_DIM))
    truth[0] = truth_model.initial_state(rng)
    for t in range(1, n_steps):
        truth[t] = propagate_truth(truth[t - 1], truth_model, rng)

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


def run_once(scenario: Scenario, L, algorithms: Optional[list] = None,
             diagnostics: bool = False):
    """Simulate the full horizon once, stepping every algorithm on the
    same truth and measurement sequences.

    `L` is one consensus depth or a sequence of them. Every consensus
    algorithm runs at every depth, and each such (algorithm, L) lane is a
    block of one stacked state; the centralized filter, if asked for, is
    the stack's last slice. A single dicf_step per timestep advances them
    all, with one NumericsLog. One depth returns RunMetrics keyed by
    algorithm label; a sequence returns {L: RunMetrics}, each of which
    also holds the centralized filter, which has no depth.
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

    # row k = d * len(consensus) + j of the tables is the lane that runs
    # consensus[j] at depths[d]; the centralized filter takes the row after
    # them, and every centralized algorithm reads that one filter
    consensus = [a for a in algorithms if a.uses_consensus]
    central = [a for a in algorithms if not a.uses_consensus]
    lanes = [(a.schedule, lv) for lv in depths for a in consensus]
    n_lanes = len(lanes)
    n_lane_slices, n_central = n_lanes * n_nodes, 1 if central else 0
    errors = np.zeros((n_lanes + n_central, n_steps))
    reg = np.zeros(errors.shape, dtype=int)
    ledgers = [BandwidthLedger() for _ in lanes]
    # an event's `node` is its slice in the stack, so it lands in row
    # node // N, which is row n_lanes for the centralized slice
    log = NumericsLog()
    node_diag = {key: np.zeros((n_lanes, n_steps, n_nodes))
                 for key in ("node_errors", "eig_min", "eig_max")} if diagnostics else {}
    prior = scenario.zero_prior(n_lane_slices + n_central)
    powers = averaging_powers(scenario.net, scenario.eps, max(depths))

    for t in range(n_steps):
        seen = len(log.events)
        prior, posterior, estimates = dicf_step(
            prior, powers, lanes, scenario.measurements[t], scenario.sensed[t],
            scenario.sensor, scenario.sys, ledgers=ledgers, t=t, log=log)
        errs = np.linalg.norm(scenario.truth[t] - estimates, axis=-1)
        lane_errs = errs[:n_lane_slices].reshape(n_lanes, n_nodes)
        errors[:n_lanes, t] = lane_errs.mean(axis=1)
        errors[n_lanes:, t] = errs[n_lane_slices:]
        if diagnostics and lanes:
            node_diag["node_errors"][:, t] = lane_errs
            ev = np.linalg.eigvalsh(posterior.omega[:n_lane_slices]).reshape(
                n_lanes, n_nodes, -1)
            node_diag["eig_min"][:, t] = ev[..., 0]
            node_diag["eig_max"][:, t] = ev[..., -1]
        for event in log.events[seen:]:
            if event["kind"] == "regularize":
                reg[event["node"] // n_nodes, t] += 1

    scalars = [ledger.total_scalars() for ledger in ledgers] + [0] * n_central

    def metrics_at(d: int) -> RunMetrics:
        row = {a.label: d * len(consensus) + j for j, a in enumerate(consensus)}
        row.update({a.label: n_lanes for a in central})
        series = {a.label: errors[row[a.label]] for a in algorithms}
        diag = None
        if diagnostics:
            diag = {key: {a.label: values[row[a.label]] for a in consensus}
                    for key, values in node_diag.items()}
            diag["reg_events"] = {a.label: reg[row[a.label]] for a in algorithms}
        return RunMetrics(series=series,
                          final={label: float(s[-1]) for label, s in series.items()},
                          bandwidth={a.label: scalars[row[a.label]] for a in algorithms},
                          diag=diag)

    if one_depth:
        return metrics_at(0)
    return {lv: metrics_at(d) for d, lv in enumerate(depths)}


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
    out = {"seed": seed, "failed": None, "series": metrics.series,
           "bandwidth": metrics.bandwidth}
    if diagnostics:
        out["summary"] = _run_summary(metrics, cfg)
    return out


def _execute(fn, arglist, jobs: int):
    if jobs <= 1 or len(arglist) <= 1:
        return [fn(a) for a in arglist]
    # imported here so that serial runs do not load the process-pool machinery
    from concurrent.futures import ProcessPoolExecutor
    # a fork pool starts all its workers at the first submit
    with ProcessPoolExecutor(max_workers=min(jobs, len(arglist))) as pool:
        return list(pool.map(fn, arglist))


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


def run_monte_carlo(cfg: ScenarioConfig, L: int, include=("ckf", "icf", "icfpie"),
                    diagnostics: bool = False, jobs: int = 1) -> MonteCarloResult:
    """Average run_once over cfg.mc_runs runs with seeds master+k.

    Failed runs are excluded and counted; more than 5% failures raises.
    """
    arglist = [(cfg, L, tuple(include), diagnostics, cfg.seed + k)
               for k in range(cfg.mc_runs)]
    good, failed = _split_failures(_execute(_mc_single_run, arglist, jobs), "Monte-Carlo")

    stacked = {lab: np.array([r["series"][lab] for r in good]) for lab in good[0]["series"]}
    return MonteCarloResult(
        t=np.array([round((k + 1) * cfg.dt, 10) for k in range(cfg.n_steps)]),
        L=L,
        algorithms=make_algorithms(cfg, include),
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
    cfg, L_values, seed = args
    scenario = build_scenario(cfg, seed)
    try:
        by_depth = run_once(scenario, L_values, _sweep_algorithms(cfg))
    except (FilterNumericsError, np.linalg.LinAlgError) as exc:
        return {"seed": seed, "failed": str(exc)}
    return {"seed": seed, "failed": None,
            "finals": {lv: m.final for lv, m in by_depth.items()},
            "bandwidth": {lv: m.bandwidth for lv, m in by_depth.items()}}


def sweep_consensus_steps(cfg: ScenarioConfig, L_values, jobs: int = 1) -> SweepResult:
    """Monte-Carlo-averaged final error over a grid of consensus step
    counts, for both partial-exchange cases, full exchange, and the
    centralized benchmark. The grid is sorted and rid of duplicates."""
    L_values = sorted({int(v) for v in L_values})
    if not L_values:
        raise ConfigurationError("sweep needs at least one L value")
    arglist = [(cfg, tuple(L_values), cfg.seed + k) for k in range(cfg.mc_runs)]
    good, failed = _split_failures(_execute(_sweep_single_run, arglist, jobs), "sweep")
    algorithms = _sweep_algorithms(cfg)
    rows = [{"L": lv, "alg": a.name, "case": a.case, "label": a.label,
             "final_error": float(np.array([r["finals"][lv][a.label] for r in good]).mean()),
             "total_scalars": int(good[0]["bandwidth"][lv][a.label])}
            for lv in L_values for a in algorithms]
    return SweepResult(rows=rows, L_values=L_values, n_runs=len(good), failures=len(failed))


def _fmt(x) -> str:
    return repr(float(x))


def emit_outputs(result, out_dir, cfg: ScenarioConfig, extra_metadata: Optional[dict] = None):
    """Write CSV outputs plus a metadata file that fully reproduces them.

    MonteCarloResult -> timeseries.csv; SweepResult -> sweep.csv. Returns
    the list of written paths.
    """
    if isinstance(result, MonteCarloResult):
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
