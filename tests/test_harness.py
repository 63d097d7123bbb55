import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icfpie
from conftest import assert_rel_close
from icfpie import dicf, harness, info_filter
from icfpie.consensus import averaging_powers, plan_lanes
from icfpie.dicf import correction_terms
from icfpie.errors import ConfigurationError, ConsensusCycleWarning, FilterNumericsError
from icfpie.harness import (
    AlgorithmSpec,
    ScenarioConfig,
    build_scenario,
    emit_outputs,
    load_config,
    make_algorithms,
    run_monte_carlo,
    run_once,
    sweep_consensus_steps,
)
from icfpie.models import TruthModel
from icfpie.info_filter import SINGULAR_EIG, NumericsLog, symmetrize
from icfpie.network import random_geometric
from icfpie.selection import build_schedule
from measurement_reference import sample_measurement
from one_seed import run_one, step_one
from truth_reference import truth_loop

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
            truth = truth_loop(truth_model, cfg.n_steps, rng)
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
        metrics = run_one(scenario, 1, make_algorithms(cfg, ["ckf"]))
        s = metrics.series["ckf"]
        # compare the settled tail against the cold-start error
        assert s[-10:].mean() < 0.3 * s[0]

    def test_identity_partial_exchange_equals_full_exchange_series(self):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), selection="identity")
        scenario = build_scenario(cfg, 2)
        metrics = run_one(scenario, 4)
        assert np.array_equal(metrics.series["icfpie[identity]"],
                              metrics.series["icf[identity]"])

    def test_reference_consensus_depths_complete(self):
        cfg = ScenarioConfig(**FAST)
        scenario = build_scenario(cfg, 2)
        for L in (4, 12):
            metrics = run_one(scenario, L)
            for label, series in metrics.series.items():
                assert np.all(np.isfinite(series)), label

    def test_bandwidth_totals_scale_with_selected_entries(self):
        cfg = ScenarioConfig(**FAST)
        scenario = build_scenario(cfg, 2)
        metrics = run_one(scenario, 4)
        ident = metrics.bandwidth["icf[identity]"]
        assert metrics.bandwidth["icfpie[1]"] * 2 == ident
        assert metrics.bandwidth["ckf"] == 0
        n_steps, L, n_nodes = cfg.n_steps, 4, cfg.n_nodes
        assert ident == n_steps * L * n_nodes * (4 * 4 + 4)


def cross_axis(m):
    """The entries of a (..., 4, 4) stack that couple the axes x and y of
    the state [x, y, vx, vy]: row and column indices of different parity."""
    i = np.arange(4)
    return m[..., (i[:, None] - i) % 2 == 1]


@st.composite
def selections(draw):
    """A built-in schedule, or a random partition of {1, 2, 3, 4} into
    ordered subsets."""
    if draw(st.booleans()):
        return draw(st.sampled_from(["case1", "case2", "identity"]))
    order = draw(st.permutations([1, 2, 3, 4]))
    cuts = [k for k in range(1, 4) if draw(st.booleans())]
    return [order[lo:hi] for lo, hi in zip([0] + cuts, cuts + [4])]


class TestAxisBlocks:
    """info_filter recovers a slice in closed form only while its matrices
    never couple the x and y axes; these tests hold the runs to that."""

    @given(selections(), st.integers(min_value=1, max_value=25),
           st.tuples(*[st.floats(min_value=0.01, max_value=100.0)] * 4),
           st.tuples(*[st.floats(min_value=0.01, max_value=100.0)] * 2),
           st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_axes_never_couple(self, selection, L, q_diag, r_diag, seed):
        # every slice on the LAPACK path, whose full 4 x 4 arithmetic the
        # closed form must reproduce: its consensus pairs, priors and
        # predicted covariances keep every cross-axis entry exactly zero
        cfg = ScenarioConfig(horizon=4.0, q_diag=q_diag, r_diag=r_diag, selection=selection,
                             L=L, seed=seed)
        scenario = build_scenario(cfg, seed)
        seen = []
        recover_and_predict, inv_spd = dicf.recover_and_predict, info_filter._inv_spd

        def pairs_and_priors(b_mat, *args):
            posterior, x, next_prior = recover_and_predict(b_mat, *args)
            seen.extend([b_mat, next_prior.omega])
            return posterior, x, next_prior

        def predicted(stack, nodes, log, context):
            if context == "predict: invert predicted covariance":
                seen.append(stack)
            return inv_spd(stack, nodes, log, context)

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(scenario.sys.__dict__, "split", None)
            mp.setattr(dicf, "recover_and_predict", pairs_and_priors)
            mp.setattr(info_filter, "_inv_spd", predicted)
            run_one(scenario, L)
        assert len(seen) == 3 * cfg.n_steps
        for m in seen:
            assert not cross_axis(m).any()

    def test_fast_path_guard(self, monkeypatch):
        # a slice leaves the closed form only when the LAPACK path has a
        # reason to look at it: in the default L = 12 run every slice sent
        # there has a sym(B) with an eigvalsh minimum below SINGULAR_EIG, or
        # a posterior or predicted covariance whose condition estimate is
        # above the closed form's bound (here: only the zero-information
        # priors of t = 0)
        scenario = build_scenario(ScenarioConfig(), 0)
        steps = []
        blocks, lapack = info_filter._recover_blocks, info_filter._recover_lapack
        estimates = info_filter._condition_estimates

        def each_step(*args):
            steps.append([])
            return blocks(*args)

        def sent(*args):
            conds = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(info_filter, "_condition_estimates",
                           lambda c: conds.append(estimates(c)) or conds[-1])
                out = lapack(*args)
            # the first estimates are the posteriors', the last the predicted covariances'
            near = (conds[0] > info_filter._BLOCK_COND) | (conds[-1] > info_filter._BLOCK_COND)
            singular = np.linalg.eigvalsh(symmetrize(args[0]))[:, 0] < SINGULAR_EIG
            steps[-1].extend((singular | near).tolist())
            return out
        monkeypatch.setattr(info_filter, "_recover_blocks", each_step)
        monkeypatch.setattr(info_filter, "_recover_lapack", sent)
        run_one(scenario, 12)
        assert len(steps) == scenario.cfg.n_steps
        assert all(all(reasons) for reasons in steps)
        assert [t for t, reasons in enumerate(steps) if reasons] == [0]
        assert len(steps[0]) == 2 * scenario.net.n_nodes + 1


def no_run(*args, **kwargs):
    raise AssertionError("a run started although its arguments are refused")


class TestArgumentChecks:
    """The run entries refuse bad arguments with ConfigurationError before
    any seed is built."""

    @pytest.mark.parametrize("entry, depths", [
        ("run_monte_carlo", True),
        ("run_monte_carlo", 2.5),
        ("sweep_consensus_steps", [2.7]),
        ("sweep_consensus_steps", [True, 2]),
        ("sweep_consensus_steps", 5),
        ("run_once", 12),
        ("run_once", [2.5]),
        ("run_once", [True]),
        ("run_once", {2, 3}),
    ])
    def test_depths_that_are_not_integers_from_one_rejected(self, monkeypatch, entry,
                                                            depths):
        cfg = ScenarioConfig(**FAST)
        scenario = build_scenario(cfg, cfg.seed)
        monkeypatch.setattr(harness, "build_scenario", no_run)
        call = {"run_monte_carlo": lambda: run_monte_carlo(cfg, depths),
                "sweep_consensus_steps": lambda: sweep_consensus_steps(cfg, depths),
                "run_once": lambda: run_once([scenario], depths)}[entry]
        with pytest.raises(ConfigurationError, match="must be a non-empty list of integers"):
            call()

    def test_empty_algorithm_list_rejected(self):
        cfg = ScenarioConfig(**FAST)
        for empty in ([], ()):
            with pytest.raises(ConfigurationError, match="algorithm list is empty"):
                make_algorithms(cfg, empty)

    @pytest.mark.parametrize("jobs", [0, -1])
    @pytest.mark.parametrize("entry", ["run_monte_carlo", "sweep_consensus_steps"])
    def test_jobs_below_one_rejected(self, monkeypatch, entry, jobs):
        cfg = ScenarioConfig(**FAST)
        monkeypatch.setattr(harness, "build_scenario", no_run)
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            if entry == "run_monte_carlo":
                run_monte_carlo(cfg, 4, jobs=jobs)
            else:
                sweep_consensus_steps(cfg, [1, 2], jobs=jobs)


class TestMonteCarlo:
    def test_single_run_equals_run_once(self):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=1)
        mc = run_monte_carlo(cfg, 4)
        scenario = build_scenario(cfg, cfg.seed)
        once = run_one(scenario, 4)
        for label in mc.mean_series:
            assert np.array_equal(mc.mean_series[label], once.series[label])

    @pytest.mark.parametrize("horizon", [2.0, 2.5])
    def test_summary_reads_the_steps_after_the_transient(self, horizon):
        # the transient is the first 2 s (20 steps); a run no longer than
        # that has no eigenvalue range after it
        cfg = ScenarioConfig(horizon=horizon, n_nodes=4, mc_runs=1)
        [summary] = run_monte_carlo(cfg, 4, diagnostics=True).run_diags
        once = run_one(build_scenario(cfg, cfg.seed), 4, diagnostics=True)
        lanes = 0
        for label, entry in summary.items():
            if label not in once.diag["eig_min"]:
                assert "eig_min_after_transient" not in entry
                continue
            lanes += 1
            lo, hi = once.diag["eig_min"][label][20:], once.diag["eig_max"][label][20:]
            assert entry["eig_min_after_transient"] == (lo.min() if lo.size else None)
            assert entry["eig_max_after_transient"] == (hi.max() if hi.size else None)
            assert entry["reg_events_after_transient"] == 0
        assert lanes == 2

    def test_averaging_is_linear(self):
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=2)
        mc = run_monte_carlo(cfg, 4)
        runs = [run_one(build_scenario(cfg, cfg.seed + k), 4) for k in range(2)]
        for label in mc.mean_series:
            manual = (runs[0].series[label] + runs[1].series[label]) / 2
            assert np.allclose(mc.mean_series[label], manual, rtol=1e-15)

    def test_parallel_matches_serial(self, monkeypatch):
        # serially the 5 seeds are one chunk; with chunks of at most 2 seeds
        # (13 slices each) the pool's two workers take chunks of 2, 2 and 1
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=5)
        serial = run_monte_carlo(cfg, 4, jobs=1)
        monkeypatch.setattr(harness, "CHUNK_SLICES", 2 * 13)
        assert harness._chunks(cfg, make_algorithms(cfg), 1) == [(2, 3), (2, 5), (1, 7)]
        parallel = run_monte_carlo(cfg, 4, jobs=2)
        for label in serial.mean_series:
            assert np.array_equal(serial.mean_series[label], parallel.mean_series[label])

    def test_pool_starts_no_more_workers_than_seeds(self, monkeypatch):
        # a fork pool starts all of max_workers at its first submit; this
        # stand-in records the count and runs the chunks inline. Workers
        # take whole chunks, so the pool has min(jobs, chunks) of them, and
        # a run of one chunk starts none
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
        serial = run_monte_carlo(cfg, 4, jobs=8)
        assert workers == []
        monkeypatch.setattr(harness, "CHUNK_SLICES", 1)  # one seed per chunk
        pooled = run_monte_carlo(cfg, 4, jobs=8)
        assert workers == [2]
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
        # both seeds are one chunk: it fails, and each seed runs again alone
        cfg = ScenarioConfig(**FAST)
        run_once = harness.run_once

        def failing(scenarios, *args, **kwargs):
            if cfg.seed + 1 in [s.seed for s in scenarios]:
                raise FilterNumericsError("injected failure")
            return run_once(scenarios, *args, **kwargs)
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
            runs = [run_one(s, row["L"], [algs[label]]) for s in scenarios]
            expected = np.array([m.final[label] for m in runs]).mean()
            assert abs(row["final_error"] - expected) <= 1e-12 * abs(expected)
            assert row["total_scalars"] == runs[0].bandwidth[label]

    def test_diagnostics_match_one_algorithm_runs(self):
        # case 2 at partial cycles regularizes some nodes after t = 0, so the
        # lanes' regularize counts differ and must land on the right label
        cfg = dataclasses.replace(ScenarioConfig(**FAST), selection="case2")
        scenario = build_scenario(cfg, 4)
        algorithms = make_algorithms(cfg)
        [by_depth] = run_once([scenario], (2, 3, 5), algorithms, diagnostics=True)
        assert sorted(by_depth) == [2, 3, 5]
        assert by_depth[3].diag["reg_events"]["icfpie[2]"][1:].sum() > 0
        for L, together in by_depth.items():
            for a in algorithms:
                alone = run_one(scenario, L, [a], diagnostics=True)
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
        [given] = run_once([scenario], (2, 3), algorithms, diagnostics=True)
        [flipped] = run_once([scenario], (2, 3), algorithms[::-1], diagnostics=True)
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
        [together] = run_once([scenario], (2, 3, 5), make_algorithms(cfg), diagnostics=True)
        alone = run_one(scenario, 3, make_algorithms(cfg, ["ckf"]), diagnostics=True)
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
        run_once([scenario], (2, 5, 3))
        assert built == [5]
        run_one(scenario, 4)
        assert built == [5, 4]

    def test_one_lane_plan_per_run_once(self, monkeypatch):
        # every lane's step counts and gathered powers are planned once per
        # run; a per-step run_consensus would plan again at every step
        from icfpie import consensus
        planned = []

        def counting(lanes, powers, n):
            planned.append([L for _, L in lanes])
            return plan_lanes(lanes, powers, n)
        monkeypatch.setattr(harness, "plan_lanes", counting)
        monkeypatch.setattr(consensus, "plan_lanes", counting)
        scenario = build_scenario(ScenarioConfig(**FAST), 2)
        run_once([scenario], (2, 5, 3))
        # icf and icfpie at each depth, in the order of the stack's lanes
        assert planned == [[2, 2, 5, 5, 3, 3]]
        run_one(scenario, 4)
        assert planned == [[2, 2, 5, 5, 3, 3], [4, 4]]

    def test_one_cycle_warning_per_partial_lane_and_run(self):
        # the benchmark's sweep grid: case 1 (2-step cycle) and case 2
        # (4-step cycle) are partial at L = 1 and L = 3, full exchange never
        cfg = ScenarioConfig(**FAST)
        scenario = build_scenario(cfg, 2)
        with pytest.warns(ConsensusCycleWarning) as record:
            run_once([scenario], (1, 3, 20), harness._sweep_algorithms(cfg))
        messages = [str(w.message) for w in record
                    if issubclass(w.category, ConsensusCycleWarning)]
        assert len(messages) == 4
        for L in (1, 3):
            for subsets in ("((1, 3), (2, 4))", "((1,), (2,), (3,), (4,))"):
                assert sum(f"L = {L} " in m and f"subsets {subsets}" in m
                           for m in messages) == 1

    @staticmethod
    def check_bookkeeping(scenario, algorithms, depths):
        """Hold run_once's series, node errors, regularize counts and
        bandwidth to a loop that forms them at every step from dicf_step's
        own outputs; returns the loop's regularize counts (rows, T) and its
        singular_solve counts per step (T,)."""
        cfg = scenario.cfg
        consensus = [a for a in algorithms if a.uses_consensus]
        lanes = [(a.schedule, L) for L in depths for a in consensus]
        N, T, rows = cfg.n_nodes, cfg.n_steps, len(lanes) + 1
        plan = plan_lanes(lanes, averaging_powers(scenario.net, scenario.eps, max(depths))[None], 4)
        prior = scenario.zero_prior(len(lanes) * N + 1)
        errors = np.zeros((rows, T))
        node_errors = np.zeros((len(lanes), T, N))
        reg = np.zeros((rows, T), dtype=int)
        singular = np.zeros(T, dtype=int)
        for t in range(T):
            log = NumericsLog()
            prior, _, estimates = step_one(
                prior, plan, correction_terms(scenario.sensor, scenario.measurements[t],
                                              scenario.sensed[t]), scenario.sys, log=log)
            errs = np.linalg.norm(scenario.truth[t] - estimates, axis=-1)
            for k in range(len(lanes)):
                node_errors[k, t] = errs[k * N:(k + 1) * N]
                errors[k, t] = errs[k * N:(k + 1) * N].mean()
            errors[-1, t] = errs[-1]
            for event in log.events:
                if event["kind"] == "regularize":
                    reg[event["node"] // N, t] += 1
            singular[t] = log.count("singular_solve")

        [by_depth] = run_once([scenario], depths, algorithms, diagnostics=True)
        for d, L in enumerate(depths):
            metrics = by_depth[L]
            for j, a in enumerate(consensus):
                k = d * len(consensus) + j
                assert np.array_equal(metrics.series[a.label], errors[k])
                assert np.array_equal(metrics.diag["node_errors"][a.label], node_errors[k])
                assert np.array_equal(metrics.diag["reg_events"][a.label], reg[k])
                assert metrics.bandwidth[a.label] == T * N * 5 * sum(
                    a.schedule.rows_at(l).size for l in range(L))
            assert np.array_equal(metrics.series["ckf"], errors[-1])
            assert np.array_equal(metrics.diag["reg_events"]["ckf"], reg[-1])
        return reg, singular

    def test_bookkeeping_equals_a_hand_stepped_loop(self):
        # run_once keeps every step's estimates and the log's length, and
        # forms error norms, lane means, node errors and regularize counts
        # after the loop
        cfg = dataclasses.replace(ScenarioConfig(**FAST), selection="case2")
        reg, _ = self.check_bookkeeping(build_scenario(cfg, 4), make_algorithms(cfg), (2, 3, 5))
        # events at several steps and in several rows, the centralized one too
        assert (reg.sum(axis=1) > 0).sum() > 2 and reg[-1].sum() > 0
        assert (reg.sum(axis=0) > 0).sum() > 2

    def test_sweep_grid_bookkeeping_equals_a_hand_stepped_loop(self):
        # the benchmark's sweep shape: both partial-exchange cases, full
        # exchange and the centralized filter at L in (1, 3, 20), whose
        # partial-cycle lanes send slices to the LAPACK path at many steps
        cfg = ScenarioConfig()
        _, singular = self.check_bookkeeping(build_scenario(cfg, 2),
                                             harness._sweep_algorithms(cfg), (1, 3, 20))
        assert (singular[1:] > 0).sum() > cfg.n_steps // 4

    def test_a_run_on_another_network_leaves_a_run_unchanged(self):
        # consensus plans are kept per (schedule, L) for the whole process;
        # nothing of one network may reach a run on another
        cfg = dataclasses.replace(ScenarioConfig(**FAST), selection="case2")
        first, other = build_scenario(cfg, 4), build_scenario(
            dataclasses.replace(cfg, n_nodes=8), 5)
        algorithms = make_algorithms(cfg)
        [before] = run_once([first], (2, 3, 5), algorithms, diagnostics=True)
        run_once([other], (2, 3, 5), algorithms, diagnostics=True)
        [after] = run_once([first], (2, 3, 5), algorithms, diagnostics=True)
        for L, metrics in before.items():
            for a in algorithms:
                assert np.array_equal(metrics.series[a.label], after[L].series[a.label])
                assert metrics.bandwidth[a.label] == after[L].bandwidth[a.label]
                assert np.array_equal(metrics.diag["reg_events"][a.label],
                                      after[L].diag["reg_events"][a.label])

    def test_empty_depth_sequence_rejected(self):
        scenario = build_scenario(ScenarioConfig(**FAST), 2)
        with pytest.raises(ConfigurationError):
            run_once([scenario], [])

    def test_bandwidth_is_every_step_of_the_schedule(self):
        # at step l each of the N nodes sends the |J_{l mod theta}| selected
        # rows of B and entries of b, every timestep of the run; the centralized
        # filter sends nothing. Partial cycles (L = 1, 3) included
        cfg = ScenarioConfig(**FAST)
        custom = AlgorithmSpec("icfpie", "custom", build_schedule(4, [[1], [2, 3], [4]]))
        algorithms = harness._sweep_algorithms(cfg) + [custom]
        scenarios = [build_scenario(cfg, seed) for seed in (2, 3)]
        runs = run_once(scenarios, (1, 3, 20), algorithms)
        for by_depth in runs:
            for L, metrics in by_depth.items():
                for a in algorithms:
                    per_node = sum(a.schedule.rows_at(l).size * 5 for l in range(L)) \
                        if a.uses_consensus else 0
                    assert metrics.bandwidth[a.label] == cfg.n_steps * cfg.n_nodes * per_node
        assert runs[0][20].bandwidth == {"icfpie[1]": 20 * 6 * 200, "icfpie[2]": 20 * 6 * 100,
                                         "icf[identity]": 20 * 6 * 400, "ckf": 0,
                                         "icfpie[custom]": 20 * 6 * 135}


class TestChunks:
    """A chunk of seeds runs as one filter stack; every seed in it must
    read bit for bit as its one-seed run_once."""

    @staticmethod
    def assert_same_run(chunked, alone):
        assert list(chunked.series) == list(alone.series)
        for label, series in alone.series.items():
            assert np.array_equal(chunked.series[label], series)
        assert chunked.final == alone.final
        assert chunked.bandwidth == alone.bandwidth
        assert list(chunked.diag) == list(alone.diag)
        for key, values in alone.diag.items():
            assert list(chunked.diag[key]) == list(values)
            for label, v in values.items():
                assert np.array_equal(chunked.diag[key][label], v)
        assert chunked.events == alone.events

    @pytest.mark.parametrize("grid", [False, True])
    def test_each_seed_reads_as_its_one_seed_run(self, grid):
        # L = 12 with the default algorithms, or the benchmark's sweep grid,
        # whose partial-cycle lanes send slices to the LAPACK path
        cfg = ScenarioConfig()
        depths, algorithms = (((1, 3, 20), harness._sweep_algorithms(cfg)) if grid
                              else ((cfg.L,), make_algorithms(cfg)))
        scenarios = [build_scenario(cfg, seed) for seed in (2, 7, 11)]
        chunk = run_once(scenarios, depths, algorithms, diagnostics=True)
        assert len(chunk) == len(scenarios)
        kinds, nodes = set(), set()
        for scenario, chunked in zip(scenarios, chunk):
            [alone] = run_once([scenario], depths, algorithms, diagnostics=True)
            for lv in depths:
                self.assert_same_run(chunked[lv], alone[lv])
                kinds.update(e["kind"] for e in alone[lv].events)
                nodes.update(e["node"] for e in alone[lv].events)
        # events of lane slices and of the centralized one, K*N, map back
        n_central = (len(algorithms) - 1) * len(depths) * cfg.n_nodes
        assert "singular_solve" in kinds and n_central in nodes and min(nodes) < n_central

    def test_a_failing_seed_leaves_the_others_their_bits(self, monkeypatch):
        # one seed's NaN measurement fails the chunk's stack; the chunk runs
        # again seed by seed, so the failure is that seed's own and every
        # other seed reads as its one-seed task
        # a horizon past the summaries' 2 s transient
        cfg = dataclasses.replace(ScenarioConfig(**FAST), mc_runs=3, horizon=4.0)
        bad = cfg.seed + 1
        build = harness.build_scenario

        def injected(cfg, seed):
            scenario = build(cfg, seed)
            if seed == bad:
                scenario.measurements[5:] = np.nan
            return scenario
        monkeypatch.setattr(harness, "build_scenario", injected)
        with pytest.raises(FilterNumericsError) as alone:
            run_one(injected(cfg, bad), cfg.L)
        tasks = {"Monte-Carlo": (harness._mc_single_run, (cfg, cfg.L, True)),
                 "sweep": (harness._sweep_single_run, (cfg, (1, 2)))}
        for what, (task, args) in tasks.items():
            runs = task(args + (cfg.mc_runs, cfg.seed))["runs"]
            assert [r["seed"] for r in runs] == [cfg.seed + k for k in range(cfg.mc_runs)]
            for r in runs:
                [one] = task(args + (1, r["seed"]))["runs"]
                assert r.keys() == one.keys()
                for key in r:
                    if isinstance(r[key], dict):
                        for label, v in r[key].items():
                            assert np.array_equal(v, one[key][label]), (what, key, label)
                    else:
                        assert r[key] == one[key]
            assert runs[1] == {"seed": bad, "failed": str(alone.value)}
        failed = rf"1/3 Monte-Carlo runs failed numerically \(seeds \[{bad}\]\)"
        with pytest.raises(FilterNumericsError, match=failed):
            run_monte_carlo(cfg, cfg.L)

    def test_chunks_hold_up_to_the_slice_budget(self):
        # per seed: 21 slices at L = 12, 91 on the (1, 3, 20) grid, 601 on
        # the grid 1..20, more than a chunk holds
        cfg = dataclasses.replace(ScenarioConfig(), mc_runs=100)
        chunks = harness._chunks(cfg, make_algorithms(cfg), 1)
        assert [n for n, _ in chunks] == [17, 17, 17, 17, 16, 16]
        assert [first for _, first in chunks] == [0, 17, 34, 51, 68, 84]
        sweep = harness._sweep_algorithms(cfg)
        assert {n for n, _ in harness._chunks(cfg, sweep, 3)} == {4}
        assert harness._chunks(cfg, sweep, 20) == [(1, k) for k in range(100)]
        assert harness._chunks(dataclasses.replace(cfg, mc_runs=2), make_algorithms(cfg), 1) \
            == [(2, 0)]


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
