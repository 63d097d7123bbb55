"""One benchmark run of one workload, in its own process.

Started by `run.py`, which puts the checkout's `src` on PYTHONPATH. Drives
the study through the calls `icfpie simulate` makes: `run_monte_carlo` or
`sweep_consensus_steps`, then `emit_outputs` into a temporary directory.
Prints one JSON line: correct, attempted, failed, metrics and an `info` record.

Every run starts with the reference batch (master seed 0), whose outputs
are compared with `reference/` and give the accuracy metrics; batches with
master seeds derived from --seed follow until --seconds have passed.

    python3 perfbench/workloads.py --workload timeseries_l12 --seed 1 \\
        --seconds 30 --trace 0 [--smoke]
    python3 perfbench/workloads.py --capture-reference
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, so BLAS never oversubscribes
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"

REF_SEED = 0              # ScenarioConfig's default master seed
SWEEP_GRID = (1, 3, 20)   # L=1, an odd partial-cycle depth, and the grid's top
SMOKE_GRID = (1, 2)
REL_TOL = 1e-9            # reference outputs; bandwidth counts compare exactly


@dataclass(frozen=True)
class Workload:
    kind: str      # "timeseries" | "sweep"
    jobs: int


WORKLOADS = {
    "timeseries_l12": Workload("timeseries", 1),
    "sweep_depth": Workload("sweep", 1),
    "timeseries_l12_jobs2": Workload("timeseries", 2),
}


@dataclass
class Batch:
    seed: int
    runs: int
    wall: float = 0.0
    result: object = None
    files: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        if self.result is None or self.errors:
            return self.runs
        return self.result.failures


def reference_runs(kind: str, smoke: bool) -> int:
    """Seeds in the reference batch: two for the timeseries, so that the
    jobs=2 pool has one per worker."""
    return 1 if smoke or kind == "sweep" else 2


def run_batch(harness, kind, seed, runs, jobs, grid) -> Batch:
    """One public-API call plus emit_outputs, timed together."""
    from icfpie.errors import ConfigurationError, FilterNumericsError, PlacementError

    batch = Batch(seed, runs)
    cfg = harness.ScenarioConfig(seed=seed, mc_runs=runs)
    out_dir = tempfile.mkdtemp(dir=OUT)
    try:
        t0 = time.perf_counter()
        try:
            if kind == "timeseries":
                batch.result = harness.run_monte_carlo(cfg, cfg.L, jobs=jobs)
                harness.emit_outputs(batch.result, out_dir, cfg, extra_metadata={})
            else:
                batch.result = harness.sweep_consensus_steps(cfg, grid, jobs=jobs)
                harness.emit_outputs(batch.result, out_dir, cfg)
        except (ConfigurationError, FilterNumericsError, PlacementError) as exc:
            batch.result = None
            batch.errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
        batch.wall = time.perf_counter() - t0
        for name in sorted(os.listdir(out_dir)):
            batch.files[name] = (Path(out_dir) / name).read_bytes()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return batch


# -- correctness gate ------------------------------------------------------

def bandwidth_errors(kind, result) -> list:
    """Partial exchange must send exactly 1/2 (case 1) and 1/4 (case 2) of
    full exchange, at every L."""
    if kind == "timeseries":
        groups = {result.L: result.bandwidth}
    else:
        groups = {}
        for row in result.rows:
            groups.setdefault(row["L"], {})[row["label"]] = row["total_scalars"]
    errors = []
    for L, bw in groups.items():
        full = bw["icf[identity]"]
        ok = full > 0 and 2 * bw["icfpie[1]"] == full
        if "icfpie[2]" in bw:
            ok = ok and 4 * bw["icfpie[2]"] == full
        if not ok:
            errors.append(f"bandwidth at L={L} not exactly 1/2 and 1/4 of full exchange: {bw}")
    return errors


def compare_csv(got: bytes, ref: bytes) -> list:
    """Differences between an output CSV and its reference, row by row."""
    g = list(csv.reader(io.StringIO(got.decode())))
    r = list(csv.reader(io.StringIO(ref.decode())))
    if len(g) != len(r) or not g or g[0] != r[0]:
        return [f"shape or header differs: {len(g)} rows {g[:1]} vs reference "
                f"{len(r)} rows {r[:1]}"]
    errors = []
    for i, (grow, rrow) in enumerate(zip(g[1:], r[1:]), start=1):
        for col, a, b in zip(r[0], grow, rrow):
            if a == b:
                continue
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                errors.append(f"row {i} {col}: {a!r} != {b!r}")
                continue
            exact = col in ("L", "total_scalars")
            if exact or not abs(fa - fb) <= REL_TOL * max(1.0, abs(fb)):
                errors.append(f"row {i} {col}: {a} != reference {b}")
    return errors


def output_name(kind):
    return "timeseries.csv" if kind == "timeseries" else "sweep.csv"


def reference_errors(kind, batch) -> list:
    name = output_name(kind)
    got = batch.files.get(name)
    if got is None:
        return [f"{name} was not written"]
    errors = compare_csv(got, (REFERENCE / name).read_bytes())
    if errors:
        return [f"{name} differs from reference in {len(errors)} places, "
                f"first: {errors[0]}"]
    return []


# -- metrics ---------------------------------------------------------------

def accuracy_metrics(kind, result) -> dict:
    """Mean final error per algorithm family and the case-1 bandwidth ratio."""
    if kind == "timeseries":
        err = {"ckf": result.final_mean["ckf"],
               "icf": result.final_mean["icf[identity]"],
               "icfpie": result.final_mean["icfpie[1]"]}
        ratio = result.bandwidth["icfpie[1]"] / result.bandwidth["icf[identity]"]
    else:
        by_alg = {}
        for row in result.rows:
            by_alg.setdefault(row["alg"], []).append(row["final_error"])
        err = {alg: statistics.fmean(v) for alg, v in by_alg.items()}
        scalars = {}
        for row in result.rows:
            scalars[row["label"]] = scalars.get(row["label"], 0) + row["total_scalars"]
        ratio = scalars["icfpie[1]"] / scalars["icf[identity]"]
    out = {f"final_err_m.{alg}": (err[alg], "m") for alg in ("ckf", "icf", "icfpie")}
    out["bandwidth_ratio"] = (ratio, "ratio")
    return out


def peak_rss_mb(jobs) -> float:
    """Peak RSS of this process plus `jobs` times its largest child (the
    pool workers run concurrently); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * child) / 1024.0


def layer_metrics(tracer, traced_wall, untraced_wall, pool_efficiency, emit_bytes) -> dict:
    """Per-layer numbers from a traced pass. `.s` is inclusive time,
    `.self_s` excludes traced callees; leaves only have `.s`."""
    def acc(name, idx):
        return tracer.acc.get(name, [0.0, 0.0, 0])[idx]

    def count(name):
        return tracer.counts.get(name, [0])[0]

    incl, self_s, calls = 0, 1, 2
    m = {
        "consensus.kernel.s": (acc("consensus.kernel", incl), "s"),
        "consensus.run_consensus.s": (acc("consensus.run_consensus", incl), "s"),
        "consensus.ledger.s": (acc("consensus.run_consensus", self_s), "s"),
        "consensus.init_consensus.s": (acc("consensus.init_consensus", incl), "s"),
        "consensus.row_updates": (count("consensus.row_updates"), "count"),
        "consensus.partial_cycle_calls": (count("consensus.partial_cycle_calls"), "count"),
        "info_filter.predict.s": (acc("info_filter.predict", incl), "s"),
        "info_filter.predict.self_s": (acc("info_filter.predict", self_s), "s"),
        "info_filter.predict.calls": (acc("info_filter.predict", calls), "count"),
        "info_filter.inv_spd.s": (acc("info_filter.inv_spd", incl), "s"),
        "info_filter.ensure_invertible.s": (acc("info_filter.ensure_invertible", incl), "s"),
        "info_filter.to_state_estimate.s": (acc("info_filter.to_state_estimate", incl), "s"),
        "info_filter.to_state_estimate.calls":
            (acc("info_filter.to_state_estimate", calls), "count"),
        "info_filter.information_state.s": (acc("info_filter.information_state", incl), "s"),
        "info_filter.local_correction_terms.s":
            (acc("info_filter.local_correction_terms", incl), "s"),
        "info_filter.centralized_correct.self_s":
            (acc("info_filter.centralized_correct", self_s), "s"),
        "models.linearize.s": (acc("models.linearize", incl), "s"),
        "models.linearize.calls": (acc("models.linearize", calls), "count"),
        "dicf.dicf_step.self_s": (acc("dicf.dicf_step", self_s), "s"),
        "dicf.dicf_step.calls": (acc("dicf.dicf_step", calls), "count"),
        "dicf.ckf_step.s": (acc("dicf.ckf_step", incl), "s"),
        "dicf.ckf_step.self_s": (acc("dicf.ckf_step", self_s), "s"),
        "network.ledger_rows": (count("network.ledger_rows"), "count"),
        "network.random_geometric.s": (acc("network.random_geometric", incl), "s"),
        "harness.build_scenario.s": (acc("harness.build_scenario", incl), "s"),
        "harness.build_scenario.self_s": (acc("harness.build_scenario", self_s), "s"),
        "harness.run_once.self_s": (acc("harness.run_once", self_s), "s"),
        "harness.run_once.calls": (acc("harness.run_once", calls), "count"),
        "harness.seed.self_s": (acc("harness.seed", self_s), "s"),
        "harness.batch.self_s": (acc("harness.batch", self_s), "s"),
        "harness.execute.self_s": (acc("harness.execute", self_s), "s"),
        "harness.emit_outputs.s": (acc("harness.emit_outputs", incl), "s"),
        "harness.emit_outputs.bytes": (emit_bytes, "bytes"),
        "harness.pool.efficiency": (pool_efficiency, "ratio"),
    }
    for kind in ("regularize", "singular_solve", "ill_conditioned"):
        m[f"info_filter.events.{kind}"] = (count(f"info_filter.events.{kind}"), "count")
    checks = acc("info_filter.ensure_invertible", calls) + acc("info_filter.to_state_estimate", calls)
    flagged = count("info_filter.events.regularize") + count("info_filter.events.singular_solve")
    m["info_filter.flagged_frac"] = (flagged / checks if checks else 0.0, "frac")
    seeds = sorted(t1 - t0 for _, _, _, name, t0, t1 in tracer.spans if name == "harness.seed")
    m["harness.seed_s.p50"] = (statistics.median(seeds) if seeds else 0.0, "s")
    m["harness.seed_s.max"] = (seeds[-1] if seeds else 0.0, "s")
    residual = traced_wall - tracer.self_total()
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.hooks.s"] = (acc("trace.hooks", incl), "s")
    m["trace.residual_s"] = (residual, "s")
    m["trace.residual_frac"] = (residual / traced_wall, "frac")
    m["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    return m


# -- the run ---------------------------------------------------------------

@contextlib.contextmanager
def quiet_partial_cycles():
    """Keep ConsensusCycleWarning (expected in the sweep) off stderr."""
    from icfpie.errors import ConsensusCycleWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConsensusCycleWarning)
        yield


def environment() -> dict:
    import numpy
    import scipy

    import icfpie
    backend = getattr(icfpie, "kernel_backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": backend() if backend else "n/a",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def import_package():
    """Import icfpie from this checkout's src, never from an install."""
    import icfpie
    src = (ROOT / "src").resolve()
    if src not in Path(icfpie.__file__).resolve().parents:
        raise SystemExit(f"icfpie imported from {icfpie.__file__}, not from {src}")
    from icfpie import harness
    return harness


class Run:
    def __init__(self, harness, workload, seed, seconds, smoke):
        self.harness = harness
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.grid = SMOKE_GRID if smoke else SWEEP_GRID
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def batch(self, kind, seed, runs, jobs, reference=False) -> Batch:
        b = run_batch(self.harness, kind, seed, runs, jobs, self.grid)
        if b.result is not None:
            b.errors += bandwidth_errors(kind, b.result)
            if reference and not self.smoke:
                b.errors += reference_errors(kind, b)
        self.attempted += b.runs
        self.failed += b.failed
        self.errors += b.errors
        return b

    def plan(self):
        """(master seed, seeds) of each batch: the reference batch, then
        batches with master seeds derived from --seed, without end."""
        yield REF_SEED, reference_runs(self.wl.kind, self.smoke)
        runs = 1 if self.smoke else self.wl.jobs  # one seed per worker
        seed = 1000 * (self.seed + 1)
        while True:
            yield seed, runs
            seed += runs

    def end_to_end(self) -> dict:
        """Batches of the plan until --seconds have passed (at least two)."""
        batches = []
        start = time.perf_counter()
        with quiet_partial_cycles():
            for i, (seed, runs) in enumerate(self.plan()):
                batches.append(self.batch(self.wl.kind, seed, runs, self.wl.jobs,
                                          reference=(i == 0)))
                if i and time.perf_counter() - start >= self.seconds:
                    break
        # Lower quartile of the per-batch rates: on a shared host, stretches
        # of idle neighbours make some batches fast, and a median over a few
        # batches follows them; the slower quarter of batches moves less.
        rates = [(b.runs - b.failed) / b.wall for b in batches]
        low = statistics.quantiles(rates, n=4, method="inclusive")[0]  # >= 2 batches
        m = {"runs_per_s": (low, "1/s"),
             "peak_rss_mb": (peak_rss_mb(self.wl.jobs), "MB"),
             "completed_runs_frac": ((self.attempted - self.failed) / self.attempted, "frac")}
        if batches[0].result is not None:
            m.update(accuracy_metrics(self.wl.kind, batches[0].result))
        return {"metrics": m, "batches": [(b.seed, b.runs, b.wall) for b in batches]}

    def traced(self) -> dict:
        """Each batch of the plan untraced and traced, until --seconds have
        passed (at least two pairs), after the pool-efficiency probe."""
        from icfpie.errors import ConsensusCycleWarning
        from tracer import Tracer

        kind, jobs = self.wl.kind, self.wl.jobs
        tracer = Tracer()
        not_restored = []

        def plain_batch(seed, runs, reference):
            with quiet_partial_cycles():
                return self.batch(kind, seed, runs, jobs, reference)

        def traced_batch(seed, runs, reference):
            tracer.install()
            try:
                with tracer.counting_warnings(ConsensusCycleWarning,
                                              "consensus.partial_cycle_calls"):
                    return self.batch(kind, seed, runs, jobs, reference)
            finally:
                not_restored.extend(tracer.restore())

        # Pool efficiency on the reference timeseries batch, jobs=2 against
        # jobs=1, back to back so that the host's drift cancels, in an order
        # that alternates with --seed. It also warms the process up.
        ts_runs = reference_runs("timeseries", self.smoke)
        with quiet_partial_cycles():
            probe = {j: self.batch("timeseries", REF_SEED, ts_runs, j).wall
                     for j in ((1, 2) if self.seed % 2 == 0 else (2, 1))}
        pool_efficiency = probe[1] / (2.0 * probe[2])

        # Each batch runs untraced and traced back to back; which goes first
        # alternates from pair to pair, so warm-up and drift do not push
        # trace_overhead_frac one way.
        plain, traced, plan = [], [], []
        start = time.perf_counter()
        for i, (seed, runs) in enumerate(self.plan()):
            if i % 2 == 0:
                plain.append(plain_batch(seed, runs, i == 0))
                traced.append(traced_batch(seed, runs, i == 0))
            else:
                traced.append(traced_batch(seed, runs, False))
                plain.append(plain_batch(seed, runs, False))
            plan.append((seed, runs))
            if i and time.perf_counter() - start >= self.seconds:
                break
        if not_restored:
            self.errors.append(f"wrappers not restored: {sorted(set(not_restored))}")
        for p, t in zip(plain, traced):
            if p.files != t.files:
                self.errors.append(f"traced outputs of seed {p.seed} differ from untraced")
                self.failed += t.runs - t.failed
        traced_wall = sum(b.wall for b in traced)
        m = layer_metrics(tracer, traced_wall, sum(b.wall for b in plain), pool_efficiency,
                          sum(len(v) for b in traced for v in b.files.values()))
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{self.name}-seed{self.seed}.json"
        tracer.write(trace_path, {"workload": self.name, "seed": self.seed, "plan": plan})
        return {"metrics": m, "trace_file": str(trace_path.relative_to(ROOT)),
                "batches": [(s, r, p.wall, t.wall) for (s, r), p, t in zip(plan, plain, traced)],
                "wrapped": tracer.wrapped, "restored": not not_restored}


def capture_reference(harness):
    """Write the reference outputs: the reference batch of each kind."""
    REFERENCE.mkdir(exist_ok=True)
    for kind in ("timeseries", "sweep"):
        with quiet_partial_cycles():
            b = run_batch(harness, kind, REF_SEED, reference_runs(kind, False), 1, SWEEP_GRID)
        name = output_name(kind)
        (REFERENCE / name).write_bytes(b.files[name])
        print(f"wrote {REFERENCE / name} ({b.wall:.1f} s)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest size: 1 seed per batch, L grid (1, 2), no reference check")
    p.add_argument("--capture-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    OUT.mkdir(exist_ok=True)
    harness = import_package()
    if args.capture_reference:
        capture_reference(harness)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    run = Run(harness, args.workload, args.seed, args.seconds, args.smoke)
    info = run.traced() if args.trace else run.end_to_end()
    metrics = info.pop("metrics")
    info.update(environment=environment(), errors=run.errors, smoke=args.smoke)
    record = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
