import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icfpie
from conftest import assert_rel_close
from icfpie import harness
from icfpie.errors import ConfigurationError, FilterNumericsError
from icfpie.harness import (
    ScenarioConfig,
    build_scenario,
    emit_outputs,
    load_config,
    make_algorithms,
    run_monte_carlo,
    run_once,
    sweep_consensus_steps,
)
from icfpie.models import TruthModel, propagate_truth
from icfpie.network import random_geometric
from measurement_reference import sample_measurement

FAST = dict(n_nodes=6, horizon=2.0, mc_runs=2, seed=3)


class TestBuildScenario:
    def test_deterministic_for_config_and_seed(self):
        cfg = ScenarioConfig(**FAST)
        s1 = build_scenario(cfg, 1)
        s2 = build_scenario(cfg, 1)
        assert np.array_equal(s1.net.positions, s2.net.positions)
        assert np.array_equal(s1.truth, s2.truth)
        assert np.array_equal(s1.measurements, s2.measurements)
        assert np.array_equal(s1.sensed, s2.sensed)

    def test_two_nodes_in_tiny_region_connect(self):
        cfg = ScenarioConfig(n_nodes=2, region=(0.0, 50.0, 0.0, 50.0), mc_runs=1)
        scenario = build_scenario(cfg, 0)
        assert scenario.net.adjacency[0, 1]

    def test_initial_target_state_in_configured_ranges(self):
        cfg = ScenarioConfig(**FAST)
        for seed in range(5):
            s = build_scenario(cfg, seed)
            x0 = s.truth[0]
            assert x0[0] == 400.0 and x0[1] == 0.0
            speed = np.hypot(x0[2], x0[3])
            heading = np.arctan2(x0[3], x0[2])
            assert 10.0 <= speed <= 15.0
            assert np.pi / 2 <= heading <= 3 * np.pi / 4

    def test_consensus_gain_override(self):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), eps=0.05)
        assert build_scenario(cfg, 1).eps == 0.05
        default = ScenarioConfig(**FAST)
        s = build_scenario(default, 1)
        assert s.eps == pytest.approx(1.0 / (s.net.max_degree() + 1))

    @pytest.mark.parametrize("overrides", [{}, FAST, dict(n_nodes=3, dt=0.2, r_diag=(4.0, 9.0))])
    def test_measurements_equal_per_measurement_loop(self, overrides):
        # replay build_scenario's draws with one sample_measurement call per
        # (timestep, node), in that order, after the network and the truth
        cfg = ScenarioConfig(**overrides)
        for seed in range(3):
            scenario = build_scenario(cfg, seed)
            rng = np.random.default_rng(seed)
            random_geometric(cfg.n_nodes, cfg.region, cfg.comm_range, rng)
            truth_model = TruthModel(cfg.target_initial_position, cfg.speed_range,
                                     cfg.heading_range, cfg.speed_variance, cfg.dt)
            truth = [truth_model.initial_state(rng)]
            for _ in range(1, cfg.n_steps):
                truth.append(propagate_truth(truth[-1], truth_model, rng))
            assert np.array_equal(scenario.truth, truth)
            expected = [[sample_measurement(x, scenario.sensor, rng) for _ in range(cfg.n_nodes)]
                        for x in truth]
            assert np.array_equal(scenario.measurements, expected)

    def test_step_count(self):
        assert ScenarioConfig().n_steps == 300
        assert ScenarioConfig(**FAST).n_steps == 20


class TestRunOnce:
    def test_benchmark_error_shrinks_from_start(self):
        cfg = ScenarioConfig(seed=5, mc_runs=1)
        scenario = build_scenario(cfg, 5)
        metrics = run_once(scenario, 1, make_algorithms(cfg, ["ckf"]))
        s = metrics.series["ckf"]
        # compare the settled tail against the cold-start error
        assert s[-10:].mean() < 0.3 * s[0]

    def test_identity_partial_exchange_equals_full_exchange_series(self):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), selection="identity")
        scenario = build_scenario(cfg, 2)
        metrics = run_once(scenario, 4)
        assert np.array_equal(metrics.series["icfpie[identity]"],
                              metrics.series["icf[identity]"])

    def test_reference_consensus_depths_complete(self):
        cfg = ScenarioConfig(**FAST)
        scenario = build_scenario(cfg, 2)
        for L in (4, 12):
            metrics = run_once(scenario, L)
            for label, series in metrics.series.items():
                assert np.all(np.isfinite(series)), label

    def test_bandwidth_totals_scale_with_selected_entries(self):
        cfg = ScenarioConfig(**FAST)
        scenario = build_scenario(cfg, 2)
        metrics = run_once(scenario, 4)
        ident = metrics.bandwidth["icf[identity]"]
        assert metrics.bandwidth["icfpie[1]"] * 2 == ident
        assert metrics.bandwidth["ckf"] == 0
        n_steps, L, n_nodes = cfg.n_steps, 4, cfg.n_nodes
        assert ident == n_steps * L * n_nodes * (4 * 4 + 4)


class TestMonteCarlo:
    def test_single_run_equals_run_once(self):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=1)
        mc = run_monte_carlo(cfg, 4)
        scenario = build_scenario(cfg, cfg.seed)
        once = run_once(scenario, 4)
        for label in mc.mean_series:
            assert np.array_equal(mc.mean_series[label], once.series[label])

    def test_averaging_is_linear(self):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=2)
        mc = run_monte_carlo(cfg, 4)
        runs = [run_once(build_scenario(cfg, cfg.seed + k), 4) for k in range(2)]
        for label in mc.mean_series:
            manual = (runs[0].series[label] + runs[1].series[label]) / 2
            assert np.allclose(mc.mean_series[label], manual, rtol=1e-15)

    def test_parallel_matches_serial(self):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=3)
        serial = run_monte_carlo(cfg, 4, jobs=1)
        parallel = run_monte_carlo(cfg, 4, jobs=2)
        for label in serial.mean_series:
            assert np.array_equal(serial.mean_series[label], parallel.mean_series[label])


    def test_pool_starts_no_more_workers_than_seeds(self, monkeypatch):
        # a fork pool starts all of max_workers at its first submit; this
        # stand-in records the count and runs the seeds inline
        import concurrent.futures
        workers = []

        class InlinePool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, arglist):
                return map(fn, arglist)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=2)
        pooled = run_monte_carlo(cfg, 4, jobs=8)
        assert workers == [2]
        serial = run_monte_carlo(cfg, 4)
        for label in serial.mean_series:
            assert np.array_equal(serial.mean_series[label], pooled.mean_series[label])


class TestSweep:
    def test_single_value_layout(self):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=1)
        sweep = sweep_consensus_steps(cfg, [4])
        assert len(sweep.rows) == 4  # both cases, full exchange, benchmark
        assert {row["L"] for row in sweep.rows} == {4}

    def test_sweep_grid_row_count(self):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=1, horizon=1.0)
        sweep = sweep_consensus_steps(cfg, list(range(1, 21)))
        assert len(sweep.rows) == 20 * 4

    def test_bandwidth_ratios_exact(self):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=1)
        sweep = sweep_consensus_steps(cfg, [4, 8])
        for L in (4, 8):
            by_label = {row["label"]: row["total_scalars"] for row in sweep.rows
                        if row["L"] == L}
            assert 2 * by_label["icfpie[1]"] == by_label["icf[identity]"]
            assert 4 * by_label["icfpie[2]"] == by_label["icf[identity]"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_consensus_steps(ScenarioConfig(**FAST), [])

    @pytest.mark.parametrize("what", ["Monte-Carlo", "sweep"])
    def test_too_many_failures_name_the_seeds(self, monkeypatch, what):
        cfg = ScenarioConfig(**FAST)
        run_once = harness.run_once

        def failing(scenario, *args, **kwargs):
            if scenario.seed == cfg.seed + 1:
                raise FilterNumericsError("injected failure")
            return run_once(scenario, *args, **kwargs)
        monkeypatch.setattr(harness, "run_once", failing)
        failed = rf"1/2 {what} runs failed numerically \(seeds \[{cfg.seed + 1}\]\)"
        with pytest.raises(FilterNumericsError, match=failed):
            if what == "sweep":
                sweep_consensus_steps(cfg, [1, 2])
            else:
                run_monte_carlo(cfg, 2)


class TestOnePassLanes:
    """Every (algorithm, L) lane of a seed advances in one stacked state;
    each lane must read as if it had run alone."""

    def test_sweep_matches_per_lane_run_once_loop(self):
        cfg = ScenarioConfig(**FAST)
        sweep = sweep_consensus_steps(cfg, [1, 2, 3, 4])
        algs = {a.label: a for a in make_algorithms(cfg, ["ckf", "icf"])}
        for case in ("case1", "case2"):
            (a,) = make_algorithms(dataclasses.replace(cfg, selection=case), ["icfpie"])
            algs[a.label] = a
        scenarios = [build_scenario(cfg, cfg.seed + k) for k in range(cfg.mc_runs)]
        assert len(sweep.rows) == 4 * len(algs)
        for row in sweep.rows:
            label = row["label"]
            runs = [run_once(s, row["L"], [algs[label]]) for s in scenarios]
            expected = np.array([m.final[label] for m in runs]).mean()
            assert abs(row["final_error"] - expected) <= 1e-12 * abs(expected)
            assert row["total_scalars"] == runs[0].bandwidth[label]

    def test_diagnostics_match_one_algorithm_runs(self):
        # case 2 at partial cycles regularizes some nodes after t = 0, so the
        # lanes' regularize counts differ and must land on the right label
        cfg = dataclasses.replace(ScenarioConfig(**FAST), selection="case2")
        scenario = build_scenario(cfg, 4)
        algorithms = make_algorithms(cfg)
        by_depth = run_once(scenario, (2, 3, 5), algorithms, diagnostics=True)
        assert sorted(by_depth) == [2, 3, 5]
        assert by_depth[3].diag["reg_events"]["icfpie[2]"][1:].sum() > 0
        for L, together in by_depth.items():
            for a in algorithms:
                alone = run_once(scenario, L, [a], diagnostics=True)
                assert np.array_equal(together.diag["reg_events"][a.label],
                                      alone.diag["reg_events"][a.label])
                assert together.bandwidth[a.label] == alone.bandwidth[a.label]
                assert_rel_close(together.series[a.label], alone.series[a.label])
                if a.uses_consensus:
                    assert together.diag["reg_events"][a.label].sum() > 0
                    for key in ("eig_min", "eig_max", "node_errors"):
                        assert_rel_close(together.diag[key][a.label],
                                         alone.diag[key][a.label])

    def test_rows_follow_the_given_algorithm_order(self):
        # the lanes take the first rows of run_once's tables and the
        # centralized filter the row after them; reversing the algorithms
        # moves every row, and each label must still read its own
        cfg = dataclasses.replace(ScenarioConfig(**FAST), selection="case2")
        scenario = build_scenario(cfg, 4)
        algorithms = make_algorithms(cfg)
        given = run_once(scenario, (2, 3), algorithms, diagnostics=True)
        flipped = run_once(scenario, (2, 3), algorithms[::-1], diagnostics=True)
        for L in (2, 3):
            for metrics, algs in ((given[L], algorithms), (flipped[L], algorithms[::-1])):
                labels = [a.label for a in algs]
                assert list(metrics.series) == list(metrics.final) == labels
                assert list(metrics.bandwidth) == list(metrics.diag["reg_events"]) == labels
                for key in ("node_errors", "eig_min", "eig_max"):
                    assert list(metrics.diag[key]) == [a.label for a in algs
                                                       if a.uses_consensus]
            a, b = given[L], flipped[L]
            for label in a.series:
                assert np.array_equal(a.series[label], b.series[label])
                assert a.bandwidth[label] == b.bandwidth[label]
                for key, values in a.diag.items():
                    if label in values:
                        assert np.array_equal(values[label], b.diag[key][label])

    def test_one_run_once_and_one_dicf_step_per_timestep(self, monkeypatch):
        calls = {"run_once": 0, "dicf_step": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=1)
        sweep_consensus_steps(cfg, [1, 2, 3])
        assert calls == {"run_once": 1, "dicf_step": cfg.n_steps}

    def test_one_posterior_step_per_timestep(self, monkeypatch):
        # the centralized filter is the last slice of the lanes' stack, so a
        # timestep makes one recover_and_predict call and no ckf_step call
        from icfpie import dicf
        slices = []
        recover_and_predict = dicf.recover_and_predict

        def counting(b_mat, *args, **kwargs):
            slices.append(len(b_mat))
            return recover_and_predict(b_mat, *args, **kwargs)
        monkeypatch.setattr(dicf, "recover_and_predict", counting)
        monkeypatch.setattr(harness, "ckf_step", None)
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=1)
        sweep_consensus_steps(cfg, [1, 2, 3])
        # 3 depths x 3 consensus algorithms x N nodes, then the centralized slice
        assert slices == [9 * cfg.n_nodes + 1] * cfg.n_steps

    def test_centralized_events_land_in_its_own_row(self):
        # the centralized filter is slice K*N of the stack, so node // N
        # puts its events in row K, after every lane's row
        cfg = dataclasses.replace(ScenarioConfig(**FAST), selection="case2")
        scenario = build_scenario(cfg, 4)
        together = run_once(scenario, (2, 3, 5), make_algorithms(cfg), diagnostics=True)
        alone = run_once(scenario, 3, make_algorithms(cfg, ["ckf"]), diagnostics=True)
        assert alone.diag["reg_events"]["ckf"].sum() > 0
        for metrics in together.values():
            assert np.array_equal(metrics.diag["reg_events"]["ckf"],
                                  alone.diag["reg_events"]["ckf"])
            assert np.array_equal(metrics.series["ckf"], alone.series["ckf"])

    def test_one_power_table_per_run_once(self, monkeypatch):
        # every lane and timestep of a seed reads one table of M^0..M^max(L)
        from icfpie import consensus
        built = []

        def counting(net, eps, k_max):
            built.append(k_max)
            return averaging_powers(net, eps, k_max)
        averaging_powers = consensus.averaging_powers
        monkeypatch.setattr(harness, "averaging_powers", counting)
        monkeypatch.setattr(consensus, "averaging_powers", counting)
        scenario = build_scenario(ScenarioConfig(**FAST), 2)
        run_once(scenario, (2, 5, 3))
        assert built == [5]
        run_once(scenario, 4)
        assert built == [5, 4]

    def test_empty_depth_sequence_rejected(self):
        scenario = build_scenario(ScenarioConfig(**FAST), 2)
        with pytest.raises(ConfigurationError):
            run_once(scenario, [])


class TestOutputs:
    def test_timeseries_row_count(self, tmp_path):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=1)
        mc = run_monte_carlo(cfg, 4)
        paths = emit_outputs(mc, tmp_path, cfg)
        csv_path = [p for p in paths if p.endswith("timeseries.csv")][0]
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "t,alg,case,L,avg_error_norm"
        assert len(lines) == 1 + 3 * cfg.n_steps  # three algorithms

    def test_sweep_output_columns(self, tmp_path):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=1)
        sweep = sweep_consensus_steps(cfg, [2, 4])
        paths = emit_outputs(sweep, tmp_path, cfg)
        csv_path = [p for p in paths if p.endswith("sweep.csv")][0]
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "L,alg,case,final_error,total_scalars"
        assert len(lines) == 1 + 2 * 4

    def test_metadata_round_trip_reproduces_outputs_byte_identically(self, tmp_path):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=2)
        mc = run_monte_carlo(cfg, cfg.L)
        first = tmp_path / "first"
        emit_outputs(mc, first, cfg, extra_metadata={"mode": "timeseries", "L": cfg.L})

        meta = json.loads((first / "metadata.json").read_text())
        cfg2, extra = load_config(first / "metadata.json")
        assert extra["L"] == cfg.L
        mc2 = run_monte_carlo(cfg2, extra["L"])
        second = tmp_path / "second"
        emit_outputs(mc2, second, cfg2, extra_metadata={"mode": "timeseries", "L": cfg.L})
        assert (first / "timeseries.csv").read_bytes() == (second / "timeseries.csv").read_bytes()
        assert meta["config"] == cfg2.to_dict()


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path):
        text = """
        # reference scenario overrides
        n_nodes = 6
        horizon = 2.0
        selection = [[1, 3], [2, 4]]
        runs = 5
        consensus_steps = 8
        seed = 9
        """
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(line.strip() for line in text.splitlines()))
        cfg, extra = load_config(path)
        assert cfg.n_nodes == 6
        assert cfg.horizon == 2.0
        assert cfg.selection == [[1, 3], [2, 4]]
        assert cfg.case_label() == "custom"
        assert cfg.mc_runs == 5
        assert cfg.L == 8
        assert cfg.seed == 9
        assert extra == {}

    def test_named_case_shorthand(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("case = 2\n")
        cfg, _ = load_config(path)
        assert cfg.selection == "case2"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus_knob = 1\n")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("this is not a config line\n")
        with pytest.raises(ConfigurationError):
            load_config(path)


def test_runtime_path_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is for the reference
    # filters in tests/ only. A fresh interpreter runs a serial Monte Carlo
    # and must not have imported scipy along the way.
    code = (
        "import sys\n"
        "from icfpie.harness import ScenarioConfig, run_monte_carlo\n"
        "run_monte_carlo(ScenarioConfig(n_nodes=6, horizon=1.0, mc_runs=2, seed=3), 4)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    src = str(Path(icfpie.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    # nor, for a serial run, the process-pool machinery
    assert out.stdout.split() == ["[]", "False"]
