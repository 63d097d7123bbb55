"""The per-layer benchmark wraps package functions by module attribute
(perfbench/tracer.py). A refactor that drops or renames one of them makes
`--trace 1` fail; this catches it in milliseconds."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import icfpie
from icfpie import consensus, harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    sys.modules.pop("tracer", None)
    from tracer import Tracer
    return Tracer()


def test_every_wrap_target_exists_and_is_restored(tracer):
    try:
        tracer.install()
    finally:
        not_restored = tracer.restore()
    assert tracer.wrapped > 0
    assert not_restored == []


def test_every_pinned_import_is_a_wrap_target(tracer):
    # an import kept only for the tracer (`# noqa: F401`) must name one of
    # its wrap targets, so that it goes when the tracer stops wrapping it
    try:
        tracer.install()
        targets = {(owner.__name__, attr) for owner, attr, _ in tracer.installed}
    finally:
        tracer.restore()
    pinned = []
    for path in Path(icfpie.__file__).parent.glob("*.py"):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom):
                pinned += [(f"icfpie.{path.stem}", alias.asname or alias.name)
                           for alias in node.names
                           if "noqa: F401" in lines[node.lineno - 1] + lines[alias.lineno - 1]]
    assert pinned
    assert sorted(set(pinned) - targets) == []


def test_traced_run_counts_consensus_and_events(tracer):
    cfg = harness.ScenarioConfig(n_nodes=3, horizon=0.3, mc_runs=1,
                                 region=(0.0, 200.0, 0.0, 200.0))
    scenario = harness.build_scenario(cfg, 0)
    params = inspect.signature(consensus.run_consensus).parameters
    assert {"state", "schedule", "L", "ledger"} <= set(params)
    L, n = 2, 4
    try:
        tracer.install()
        metrics = harness.run_once([scenario], [L])[0][L]
    finally:
        assert tracer.restore() == []
    # one kernel call per timestep advances both consensus lanes, timed
    assert tracer.acc["consensus.kernel"][2] == cfg.n_steps
    assert tracer.acc["consensus.kernel"][0] > 0
    # the per-lane run_consensus hook sees no call; the bandwidth is counted
    # here from the schedules instead
    for a in harness.make_algorithms(cfg):
        expected = 0 if a.schedule is None else cfg.n_steps * cfg.n_nodes * sum(
            len(a.schedule.rows_at(l)) * (n + 1) for l in range(L))
        assert metrics.bandwidth[a.label] == expected
    assert tracer.counts["info_filter.events.singular_solve"][0] > 0
    # one stacked dicf_step per timestep advances both consensus algorithms
    assert tracer.acc["dicf.dicf_step"][2] == cfg.n_steps
