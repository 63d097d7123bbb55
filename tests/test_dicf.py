from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_rel_close, connected_networks, random_spd
from consensus_reference import closed_neighborhoods
from icfpie.consensus import averaging_powers, plan_lanes
from icfpie.dicf import ckf_step, correction_terms
from icfpie.harness import ScenarioConfig, build_scenario, make_algorithms
from icfpie.errors import ConfigurationError
from icfpie.info_filter import (
    NumericsLog,
    centralized_correct,
    information_state,
    predict,
    to_state_estimate,
)
from icfpie.models import (
    MeasurementModel,
    SystemModel,
    constant_velocity_matrix,
    position_measurement_matrix,
)
from icfpie.network import SensorNetwork, consensus_gain
from icfpie.selection import default_schedule
from icf_reference import run_original_icf
from kf_reference import run_kf
from one_seed import run_one, step_one


def reference_models():
    a = constant_velocity_matrix(0.1)
    q = np.diag([10.0, 10.0, 1.0, 1.0])
    r = np.diag([25.0, 25.0])
    c = position_measurement_matrix()
    return a, q, r, c


def run_package_icfpie(scenario, schedule, L):
    """Drive dicf_step over a prebuilt scenario; returns (estimates, omegas)."""
    cfg = scenario.cfg
    prior = scenario.zero_prior(cfg.n_nodes)
    plan = plan_lanes([(schedule, L)], averaging_powers(scenario.net, scenario.eps, L)[None], 4)
    n_steps = cfg.n_steps
    estimates = np.zeros((n_steps, cfg.n_nodes, 4))
    omegas = np.zeros((n_steps, cfg.n_nodes, 4, 4))
    for t in range(n_steps):
        terms = correction_terms(scenario.sensor, scenario.measurements[t], scenario.sensed[t])
        prior, posterior, estimates[t] = step_one(prior, plan, terms, scenario.sys)
        omegas[t] = posterior.omega
    return estimates, omegas


class TestIdentityScheduleReduction:
    def test_matches_independent_original_icf(self):
        cfg = ScenarioConfig(n_nodes=6, horizon=5.0, seed=20)
        scenario = build_scenario(cfg, cfg.seed)
        est, omegas = run_package_icfpie(scenario, default_schedule(4, "identity"), L=4)

        a, q, r, c = reference_models()
        ref_est, ref_omegas = run_original_icf(
            a, np.linalg.inv(q), c, scenario.sensor.v,
            closed_neighborhoods(scenario.net.adjacency), scenario.eps, 4,
            scenario.measurements, scenario.sensed,
            np.zeros(4), np.zeros((4, 4)))
        assert_rel_close(est, ref_est)
        assert_rel_close(omegas, ref_omegas)


SCHEDULES = {kind: default_schedule(4, kind) for kind in ("identity", "case1", "case2")}


@lru_cache(maxsize=None)
def lane_scenario():
    cfg = ScenarioConfig(n_nodes=6, horizon=1.0, seed=7)
    return build_scenario(cfg, cfg.seed)


def step_lanes(scenario, lanes, prior, t):
    """One dicf_step over the plan of `lanes` with one log; returns its
    outputs, the plan and the log."""
    log = NumericsLog()
    powers = averaging_powers(scenario.net, scenario.eps, max((L for _, L in lanes), default=0))
    plan = plan_lanes(lanes, powers[None], 4)
    next_prior, posterior, estimates = step_one(
        prior, plan, correction_terms(scenario.sensor, scenario.measurements[t],
                                      scenario.sensed[t]), scenario.sys, log=log)
    return next_prior, posterior, estimates, plan, log


def stack_slices(states, field):
    return np.concatenate([getattr(s, field) for s in states])


class TestStackedLanes:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(SCHEDULES)), st.integers(1, 25),
                              st.integers(0, 3)), min_size=1, max_size=6))
    @example([("identity", 1, 0), ("case1", 3, 0), ("case2", 6, 0)])  # t = 0, zero priors
    def test_each_lane_equals_its_single_lane_step(self, drawn):
        """Lane k of a K-lane step equals a one-lane step on lane k alone.
        A lane drawn with w warm-up steps starts from the prior that w
        one-lane steps from zero information give; the step under test runs
        at t = the largest w, so all-zero warm-ups make it a t = 0 step."""
        scenario = lane_scenario()
        n_nodes = scenario.net.n_nodes
        lanes = [(SCHEDULES[kind], L) for kind, L, _ in drawn]
        priors = []
        for lane, (_, _, warm_up) in zip(lanes, drawn):
            prior = scenario.zero_prior(n_nodes)
            for t in range(warm_up):
                prior, *_ = step_lanes(scenario, [lane], prior, t)
            priors.append(prior)
        t = max(w for _, _, w in drawn)
        stacked = information_state(stack_slices(priors, "omega"), stack_slices(priors, "q"))

        next_prior, posterior, estimates, plan, log = step_lanes(
            scenario, lanes, stacked, t)
        events = Counter((e["node"] // n_nodes, e["node"] % n_nodes, e["kind"])
                         for e in log.events)
        expected_events = Counter()
        for k, (lane, prior) in enumerate(zip(lanes, priors)):
            block = slice(k * n_nodes, (k + 1) * n_nodes)
            one_prior, one_posterior, one_estimates, one_plan, one_log = step_lanes(
                scenario, [lane], prior, t)
            assert_rel_close(next_prior.omega[block], one_prior.omega)
            assert_rel_close(next_prior.q[block], one_prior.q)
            assert_rel_close(posterior.omega[block], one_posterior.omega)
            assert_rel_close(posterior.q[block], one_posterior.q)
            assert_rel_close(estimates[block], one_estimates)
            assert plan.payloads[k] == one_plan.payloads[0]
            expected_events.update((k, e["node"], e["kind"]) for e in one_log.events)
        assert events == expected_events
        if t == 0:
            # zero prior information: every slice takes the min-norm path
            singular = {(k, i) for k, i, kind in events if kind == "singular_solve"}
            assert len(singular) == len(lanes) * n_nodes

    def test_prior_must_stack_one_block_per_lane(self):
        scenario = lane_scenario()
        lanes = [(SCHEDULES["case1"], 2)] * 2
        with pytest.raises(ConfigurationError):
            step_lanes(scenario, lanes, scenario.zero_prior(scenario.net.n_nodes), 0)
        with pytest.raises(ConfigurationError):
            step_lanes(scenario, [], scenario.zero_prior(scenario.net.n_nodes), 0)


@lru_cache(maxsize=None)
def ckf_loop(seed):
    """The centralized filter of the default scenario of `seed`, stepped
    alone by ckf_step over the horizon: per timestep (next prior,
    posterior, estimate, events)."""
    scenario = build_scenario(ScenarioConfig(), seed)
    central = scenario.zero_prior(1)
    steps = []
    for t in range(scenario.cfg.n_steps):
        log = NumericsLog()
        central, posterior, estimate = ckf_step(central, scenario.measurements[t],
                                                scenario.sensed[t], scenario.sensor,
                                                scenario.sys, log=log)
        steps.append((central, posterior, estimate, log.events))
    return scenario, steps


class TestCentralSlice:
    """The centralized filter as the last slice of a dicf_step stack steps,
    bit for bit, as ckf_step steps it alone."""

    # no node senses the target of seed 195 before step 52, nor of 196
    # before step 46, so the centralized filter runs on predictions alone
    # from a zero-information prior that takes the singular path at t = 0
    @pytest.mark.parametrize("seed, first_sensed, kinds", [
        (7, 0, ("case1", "identity")),
        (195, 52, ()),
        (195, 52, ("case2",)),
        (196, 46, ("case1", "case2", "identity")),
    ])
    def test_trailing_slice_equals_ckf_step(self, seed, first_sensed, kinds):
        scenario, steps = ckf_loop(seed)
        assert scenario.sensed.any(axis=1).argmax() == first_sensed
        lanes = [(SCHEDULES[kind], 3) for kind in kinds]
        last = len(lanes) * scenario.net.n_nodes
        plan = plan_lanes(lanes, averaging_powers(scenario.net, scenario.eps, 3)[None], 4)
        prior = scenario.zero_prior(last + 1)
        for t, (next_ckf, post_ckf, estimate_ckf, events_ckf) in enumerate(steps):
            log = NumericsLog()
            prior, posterior, estimates = step_one(
                prior, plan, correction_terms(scenario.sensor, scenario.measurements[t],
                                              scenario.sensed[t]), scenario.sys, log=log)
            for got, expected in [(prior.omega[last:], next_ckf.omega),
                                  (prior.q[last:], next_ckf.q),
                                  (posterior.omega[last:], post_ckf.omega),
                                  (posterior.q[last:], post_ckf.q),
                                  (estimates[last:], estimate_ckf)]:
                assert np.array_equal(got, expected)
            assert [{**e, "node": 0} for e in log.events if e["node"] == last] == events_ckf
            assert all(e["node"] < last for e in log.events if e["node"] != last)
        assert any(e["kind"] == "singular_solve" for e in steps[0][-1])

    # the benchmark's sweep over L in {1, 3, 20} (9 lanes, 91 slices) and the
    # default 1..20 grid (60 lanes, 601 slices): no arithmetic of the
    # centralized slice may depend on how many slices share its stack
    @pytest.mark.parametrize("seed", [7, 195])
    @pytest.mark.parametrize("depths", [(1, 3, 20), tuple(range(1, 21))],
                             ids=["sweep_depth", "full_grid"])
    def test_trailing_slice_of_wide_stacks_equals_ckf_step(self, seed, depths):
        scenario, steps = ckf_loop(seed)
        lanes = [(SCHEDULES[kind], L) for L in depths for kind in ("identity", "case1", "case2")]
        last = len(lanes) * scenario.net.n_nodes
        plan = plan_lanes(lanes, averaging_powers(scenario.net, scenario.eps, max(depths))[None], 4)
        prior = scenario.zero_prior(last + 1)
        for t, (next_ckf, post_ckf, estimate_ckf, _) in enumerate(steps[:20]):
            prior, posterior, estimates = step_one(
                prior, plan, correction_terms(scenario.sensor, scenario.measurements[t],
                                              scenario.sensed[t]), scenario.sys)
            for got, expected in [(prior.omega[last:], next_ckf.omega),
                                  (prior.q[last:], next_ckf.q),
                                  (posterior.omega[last:], post_ckf.omega),
                                  (posterior.q[last:], post_ckf.q),
                                  (estimates[last:], estimate_ckf)]:
                assert np.array_equal(got, expected)

    def test_run_once_with_only_the_centralized_filter(self):
        scenario, steps = ckf_loop(196)
        metrics = run_one(scenario, 4, make_algorithms(scenario.cfg, ["ckf"]),
                          diagnostics=True)
        errors = [np.linalg.norm(scenario.truth[t] - estimate, axis=-1)[0]
                  for t, (_, _, estimate, _) in enumerate(steps)]
        regularized = [sum(e["kind"] == "regularize" for e in events)
                       for *_, events in steps]
        assert np.array_equal(metrics.series["ckf"], errors)
        assert np.array_equal(metrics.diag["reg_events"]["ckf"], regularized)
        assert metrics.bandwidth["ckf"] == 0

    def test_prior_holds_at_most_one_centralized_slice(self):
        scenario = lane_scenario()
        n_nodes = scenario.net.n_nodes
        lanes = [(SCHEDULES["case1"], 2)]
        step_lanes(scenario, lanes, scenario.zero_prior(n_nodes + 1), 0)
        step_lanes(scenario, [], scenario.zero_prior(1), 0)
        with pytest.raises(ConfigurationError):
            step_lanes(scenario, lanes, scenario.zero_prior(n_nodes + 2), 0)
        with pytest.raises(ConfigurationError):
            step_lanes(scenario, [], scenario.zero_prior(0), 0)


class TestConvergenceToCentral:
    def test_complete_graph_matches_ckf(self):
        # complete topology with eps = 1/N averages exactly within one cycle
        cfg = ScenarioConfig(n_nodes=8, horizon=1.0, seed=4,
                             region=(0.0, 200.0, 0.0, 200.0))
        scenario = build_scenario(cfg, cfg.seed)
        assert scenario.net.max_degree() == 7
        schedule = default_schedule(4, "case1")
        L = 200 * schedule.theta_bar

        prior = scenario.zero_prior(cfg.n_nodes)
        central = scenario.zero_prior(1)
        plan = plan_lanes([(schedule, L)], averaging_powers(scenario.net, scenario.eps, L)[None], 4)
        for t in range(cfg.n_steps):
            meas, sensed = scenario.measurements[t], scenario.sensed[t]
            prior, posterior, estimates = step_one(
                prior, plan, correction_terms(scenario.sensor, meas, sensed), scenario.sys)
            central, ckf_post, _ = ckf_step(central, meas, sensed, scenario.sensor,
                                            scenario.sys)
            x_ckf = to_state_estimate(ckf_post)[0]
            for k in range(cfg.n_nodes):
                omega_rel = (np.linalg.norm(posterior.omega[k] - ckf_post.omega[0])
                             / np.linalg.norm(ckf_post.omega[0]))
                assert omega_rel < 1e-6
                x_rel = (np.linalg.norm(estimates[k] - x_ckf)
                         / max(np.linalg.norm(x_ckf), 1e-12))
                assert x_rel < 1e-6

    @given(connected_networks(), st.integers(min_value=1, max_value=10),
           st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=100, deadline=None)
    def test_lanes_reach_the_centralized_pair_at_the_spectral_rate(self, net, cycles, seed):
        """From a prior common to every node, the nodes' mean of (B(0), b(0))
        is the centralized corrected pair over N. At whole cycles L = c
        theta every row r is averaged c times, and each average contracts
        the row's deviation from that mean by rho, the largest |eigenvalue|
        of M - 11^T / N (Xiao & Boyd 2004). So node i of every lane has
        ||N rows_r(B_i(L), b_i(L)) - rows_r(centralized)|| <= N rho^c
        max_r ||rows_r(0) - mean||, with rows_r(0) the (N, n + 1) block of
        row r across the nodes. The centralized pair is the stack's
        trailing slice, corrected in the same step."""
        rng = np.random.default_rng(seed)
        n_nodes = net.n_nodes
        lanes = [(SCHEDULES[kind], cycles * SCHEDULES[kind].theta_bar)
                 for kind in ("identity", "case1", "case2")]
        powers = averaging_powers(net, consensus_gain(net), 4 * cycles)
        rho = np.abs(np.linalg.eigvalsh(powers[1] - 1.0 / n_nodes)).max()
        assert rho < 1.0
        a, q, r, c = reference_models()
        common = random_spd(rng, 4, scale=rng.uniform(0.01, 100.0)), rng.normal(size=4)
        n_slices = len(lanes) * n_nodes + 1
        prior = information_state(np.tile(common[0], (n_slices, 1, 1)),
                                  np.tile(common[1], (n_slices, 1)))
        terms = correction_terms(MeasurementModel.linear(c, r),
                                 rng.normal(scale=300.0, size=(n_nodes, 2)),
                                 rng.random(n_nodes) < 0.7)
        _, posterior, _ = step_one(prior, plan_lanes(lanes, powers[None], 4), terms,
                                   SystemModel.lti(a, q))

        def rows(omega, q_vec):
            """Row r of each slice's pair, (..., n, n + 1)."""
            return np.concatenate([omega, q_vec[..., None]], axis=-1)
        start = rows(common[0] / n_nodes + terms.d_omega, common[1] / n_nodes + terms.d_q)
        spread = np.linalg.norm(start - start.mean(axis=0), axis=(0, 2)).max()
        distance = np.linalg.norm(rows(posterior.omega[:-1], posterior.q[:-1])
                                  - rows(posterior.omega[-1], posterior.q[-1]), axis=-1)
        # rounding allowance: TestSpectralContraction's 4 (k + 1) N eps per
        # row, for k = c averages, times N for the scaled pairs, and twice
        # over for the rounding of B(0) and of the centralized pair
        size = np.linalg.norm(start, axis=(0, 2)).max()
        slack = 8 * (cycles + 1) * n_nodes ** 2 * np.finfo(float).eps * size
        assert distance.max() <= n_nodes * rho ** cycles * spread + slack

    def test_estimate_distance_to_ckf_shrinks_with_more_steps(self):
        cfg = ScenarioConfig(seed=13, mc_runs=1)
        scenario = build_scenario(cfg, cfg.seed)
        schedule = default_schedule(4, "case1")

        central = scenario.zero_prior(1)
        for t in range(cfg.n_steps):
            central, ckf_post, _ = ckf_step(central, scenario.measurements[t],
                                            scenario.sensed[t], scenario.sensor, scenario.sys)
        x_ckf_final = to_state_estimate(ckf_post)[0]

        distances = []
        for mult in (1, 2, 5, 10, 25, 50):
            L = mult * schedule.theta_bar
            est, _ = run_package_icfpie(scenario, schedule, L)
            distances.append(np.linalg.norm(est[-1] - x_ckf_final, axis=-1).max())
        for prev, nxt in zip(distances, distances[1:]):
            assert nxt <= prev * (1 + 1e-3) + 1e-12
        assert distances[-1] < 0.15 * distances[0]


class TestDegenerateNetwork:
    def test_single_node_is_a_standalone_information_filter(self):
        a, q, r, c = reference_models()
        sys = SystemModel.lti(a, q)
        sensor = MeasurementModel.linear(c, r)
        prior = information_state(random_spd(np.random.default_rng(0), 4)[None],
                                  np.random.default_rng(1).normal(size=(1, 4)))
        # single-node network: closed neighborhood is just the node itself
        net1 = SensorNetwork(positions=np.zeros((1, 2)), adjacency=np.zeros((1, 1), dtype=bool))
        y = np.array([12.0, -3.0])
        plan = plan_lanes([(default_schedule(4, "identity"), 1)],
                          averaging_powers(net1, 0.5, 1)[None], 4)
        next_stacked, posterior, estimates = step_one(
            prior, plan, correction_terms(sensor, y[None], np.array([True])), sys)

        post = centralized_correct(prior, c, sensor.v, y[None])
        next_prior = predict(post, a, q)
        assert np.allclose(posterior.omega[0], post.omega[0], atol=1e-12)
        assert np.allclose(estimates[0], to_state_estimate(post)[0], atol=1e-12)
        assert np.allclose(next_stacked.omega[0], next_prior.omega[0], atol=1e-12)
        assert np.allclose(next_stacked.q[0], next_prior.q[0], atol=1e-12)


class TestCorrectionTerms:
    def test_run_pass_equals_step_by_step(self):
        # run_once computes a run's terms in one pass; a step reads its row
        scenario = build_scenario(ScenarioConfig(), 7)
        run = correction_terms(scenario.sensor, scenario.measurements, scenario.sensed)
        for t in range(scenario.cfg.n_steps):
            step = correction_terms(scenario.sensor, scenario.measurements[t],
                                    scenario.sensed[t])
            for got, expected in zip(run.at(t), step):
                assert np.array_equal(got, expected)
        assert scenario.sensed.any(axis=1).all() and not scenario.sensed.all()

    def test_mismatched_shapes_rejected(self):
        sensor = lane_scenario().sensor
        with pytest.raises(ConfigurationError):
            correction_terms(sensor, np.zeros((3, 2)), np.ones(4, dtype=bool))
        with pytest.raises(ConfigurationError):
            correction_terms(sensor, np.zeros(2), np.ones((), dtype=bool))


class TestCkfStep:
    def test_zero_observation_matrices_reduce_to_pure_prediction(self):
        a, q, r, c = reference_models()
        sys = SystemModel.lti(a, q)
        rng = np.random.default_rng(2)
        prior = information_state(random_spd(rng, 4)[None], rng.normal(size=(1, 4)))
        sensor = MeasurementModel.linear(np.zeros((2, 4)), r)
        next_prior, posterior, _ = ckf_step(prior, np.zeros((3, 2)), np.ones(3, dtype=bool),
                                            sensor, sys)
        assert np.allclose(posterior.omega, prior.omega)
        expected = predict(prior, a, q)
        assert np.allclose(next_prior.omega, expected.omega, atol=1e-14)
        assert np.allclose(next_prior.q, expected.q, atol=1e-12)

    def test_estimate_is_the_posterior_solution(self):
        scenario = lane_scenario()
        central = scenario.zero_prior(1)
        for t in range(3):
            central, posterior, estimate = ckf_step(central, scenario.measurements[t],
                                                    scenario.sensed[t], scenario.sensor,
                                                    scenario.sys)
            assert np.array_equal(estimate, to_state_estimate(posterior))

    def test_identical_sensors_scale_information_gain(self):
        a, q, r, c = reference_models()
        sys = SystemModel.lti(a, q)
        prior = information_state(np.zeros((1, 4, 4)), np.zeros((1, 4)))
        sensor = MeasurementModel.linear(c, r)
        y = np.array([400.0, 0.0])
        _, posterior, _ = ckf_step(prior, np.tile(y, (10, 1)), np.ones(10, dtype=bool),
                                   sensor, sys)
        v = sensor.v
        assert np.allclose(posterior.omega[0], 10 * c.T @ v @ c, atol=1e-12)

    def test_hundred_step_covariance_form_equivalence(self, rng):
        n, m = 4, 2
        a = np.eye(n) + 0.05 * rng.normal(size=(n, n))
        q = random_spd(rng, n)
        c = rng.normal(size=(m, n))
        r = random_spd(rng, m)
        p0 = random_spd(rng, n)
        x0 = rng.normal(size=n)
        sys = SystemModel.lti(a, q)
        model = MeasurementModel.linear(c, r)

        omega0 = np.linalg.inv(p0)
        state = information_state(omega0[None], (omega0 @ x0)[None])
        ys = [[rng.normal(size=m)] for _ in range(100)]
        xs_ref, ps_ref = run_kf(x0, p0, a, q, [(c, r)], ys)

        for t in range(100):
            state, posterior, _ = ckf_step(state, np.array(ys[t]), np.ones(1, dtype=bool),
                                           model, sys)
            x_hat = to_state_estimate(posterior)[0]
            p_hat = np.linalg.inv(posterior.omega[0])
            assert np.linalg.norm(x_hat - xs_ref[t]) / np.linalg.norm(xs_ref[t]) < 1e-9
            assert np.linalg.norm(p_hat - ps_ref[t]) / np.linalg.norm(ps_ref[t]) < 1e-9
