#!/usr/bin/env python3
"""Benchmark of the icfpie Monte-Carlo study, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: timeseries_l12, sweep_depth,
timeseries_l12_jobs2 (see perfbench/README.md). With --trace 0 it prints
the end-to-end metrics, with --trace 1 the per-layer ones. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the run's `info` record
(environment, batches, errors). Exits 1 when an output is wrong, 2 when the
checkout holds no icfpie sources.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import HERE, OUT, ROOT, THREAD_VARS

SETUP_PROBES = 8        # fresh interpreters timed before the workload, and again after it
DEADLINE_S = 170.0      # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    path = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_child(argv, env, timeout) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the group,
    pool workers included, and wait for it."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out)


def setup_seconds(env, deadline, warm_up) -> list:
    """Set-up times of SETUP_PROBES fresh interpreters; with `warm_up`, one
    more runs first, untimed, to warm the file cache and write bytecode."""
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    samples = []
    for i in range(SETUP_PROBES + warm_up):
        done = run_child(probe, env, deadline - time.monotonic())
        if done.returncode != 0:
            raise RuntimeError(f"setup probe exited with {done.returncode}")
        if i or not warm_up:
            samples.append(float(done.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="smallest size, for the self-test")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "icfpie" / "__init__.py").is_file():
        print(f"no icfpie sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup = [] if args.trace else setup_seconds(env, deadline, warm_up=True)
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = run_child(cmd, env, deadline - time.monotonic())
        if setup:  # probes on both sides of the workload sample two stretches of the host
            setup += setup_seconds(env, deadline, warm_up=False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        print(f"workload process exited with {done.returncode} and no result",
              file=sys.stderr)
        return 1
    record = json.loads(lines[-1])
    info = record.pop("info")
    if setup:
        record["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        info["setup_samples_s"] = setup
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "info": info}, indent=1) + "\n")
    for err in info["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(record))
    return 0 if record["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
