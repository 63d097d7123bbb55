"""The benchmark's reference gate, in the test suite.

`perfbench/` compares the outputs of two reference batches with the CSVs
in `perfbench/reference/`: floats within 1e-9 relative (of the value, or
absolute below 1), `L` and `total_scalars` exact. This runs the same two
batches through `harness` and `emit_outputs` and applies the same rule,
so a change that moves the outputs past the gate fails here first. It
only reads the reference files.
"""

import csv
from pathlib import Path

import pytest

from icfpie.harness import ScenarioConfig, emit_outputs, run_monte_carlo, sweep_consensus_steps

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
REL_TOL = 1e-9
EXACT = ("L", "total_scalars")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def differences(got, ref):
    """(row, column, got, reference) of every cell outside the gate."""
    assert got[0] == ref[0] and len(got) == len(ref)
    out = []
    for i, (g_row, r_row) in enumerate(zip(got[1:], ref[1:]), start=1):
        for col, g, r in zip(ref[0], g_row, r_row):
            if g == r:
                continue
            try:
                g_val, r_val = float(g), float(r)
            except ValueError:
                out.append((i, col, g, r))
                continue
            if col in EXACT or not abs(g_val - r_val) <= REL_TOL * max(1.0, abs(r_val)):
                out.append((i, col, g, r))
    return out


@pytest.mark.parametrize("name", ["timeseries.csv", "sweep.csv"])
def test_reference_batch_within_gate(tmp_path, name):
    # the benchmark's reference batches: master seed 0, the default scenario;
    # the timeseries at L = 12 over 2 runs, the sweep over L in (1, 3, 20) once
    if name == "timeseries.csv":
        cfg = ScenarioConfig(seed=0, mc_runs=2)
        emit_outputs(run_monte_carlo(cfg, cfg.L), tmp_path, cfg, extra_metadata={})
    else:
        cfg = ScenarioConfig(seed=0, mc_runs=1)
        emit_outputs(sweep_consensus_steps(cfg, (1, 3, 20)), tmp_path, cfg)
    assert differences(read_csv(tmp_path / name), read_csv(REFERENCE / name)) == []
