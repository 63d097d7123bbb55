#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size (about 3 minutes).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs `run.py --smoke` (one seed per
batch, L grid (1, 2)) with --trace 0 and --trace 1 and checks that:

* the run exits 0 and its last line has exactly the result keys, with
  `correct` true and `attempted` >= 1;
* every metric BENCHMARK.json declares for that mode is printed, with its
  declared unit and a finite value;
* after the traced pass every wrapped function is the original again.

It also checks the correctness gate on the stored reference outputs, and
that the benchmark fails without a result when the checkout holds only
BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import shutil
import subprocess
import sys

from workloads import HERE, OUT, REFERENCE, ROOT, compare_csv

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_run(spec, workload, trace) -> list:
    done = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']} errors={info['errors']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{where}: metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got['unit']} != {m['unit']}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{where}: {m['name']} value {got['value']!r}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    if trace and not (info["restored"] and info["wrapped"] > 0):
        problems.append(f"{where}: wrapped={info['wrapped']} restored={info['restored']}")
    return problems


def check_gate() -> list:
    problems = []
    for name in ("timeseries.csv", "sweep.csv"):
        ref = (REFERENCE / name).read_bytes()
        if compare_csv(ref, ref):
            problems.append(f"{name}: reference does not match itself")
        header, first, *rest = ref.decode().splitlines(keepends=True)
        cells = first.rstrip("\n").split(",")
        col = header.strip().split(",").index("final_error" if name == "sweep.csv"
                                             else "avg_error_norm")
        cells[col] = repr(float(cells[col]) * (1 + 1e-6))
        bad = "".join([header, ",".join(cells) + "\n", *rest]).encode()
        if not compare_csv(bad, ref):
            problems.append(f"{name}: a 1e-6 relative change passed the gate")
    return problems


def check_bare_directory() -> list:
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(["--workload", "timeseries_l12", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_gate() + check_bare_directory()
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: done", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest passed" if not problems else f"selftest failed ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
