"""The per-layer benchmark wraps package functions by module attribute
(perfbench/tracer.py). A refactor that drops or renames one of them makes
`--trace 1` fail; this catches it in milliseconds."""

import inspect
import sys
from pathlib import Path

import pytest

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


def test_traced_run_counts_consensus_and_events(tracer):
    cfg = harness.ScenarioConfig(n_nodes=3, horizon=0.3, mc_runs=1,
                                 region=(0.0, 200.0, 0.0, 200.0))
    scenario = harness.build_scenario(cfg, 0)
    params = inspect.signature(consensus.run_consensus).parameters
    assert {"state", "schedule", "L", "ledger"} <= set(params)
    try:
        tracer.install()
        harness.run_once(scenario, 2)
    finally:
        assert tracer.restore() == []
    assert tracer.counts["network.ledger_rows"][0] == 2 * cfg.n_steps
    assert tracer.counts["consensus.row_updates"][0] > 0
    assert tracer.counts["info_filter.events.singular_solve"][0] > 0
    # one stacked dicf_step per timestep advances both consensus algorithms
    assert tracer.acc["dicf.dicf_step"][2] == cfg.n_steps
