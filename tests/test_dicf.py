from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_rel_close, random_spd
from icfpie.dicf import ckf_step, dicf_step
from icfpie.harness import ScenarioConfig, build_scenario, make_algorithms, run_once
from icfpie.errors import ConfigurationError
from icfpie.info_filter import (
    NoiseInformation,
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
from icfpie.network import BandwidthLedger
from icfpie.selection import default_schedule
from icf_reference import run_original_icf
from kf_reference import run_kf


def reference_models():
    a = constant_velocity_matrix(0.1)
    q = np.diag([10.0, 10.0, 1.0, 1.0])
    r = np.diag([25.0, 25.0])
    c = position_measurement_matrix()
    return a, q, r, c


def run_package_icfpie(scenario, schedule, L):
    """Drive dicf_step over a prebuilt scenario; returns (estimates, omegas)."""
    cfg = scenario.cfg
    prior = scenario.initial_nodes()
    n_steps = cfg.n_steps
    estimates = np.zeros((n_steps, cfg.n_nodes, 4))
    omegas = np.zeros((n_steps, cfg.n_nodes, 4, 4))
    for t in range(n_steps):
        prior, out = dicf_step(prior, scenario.net, [(schedule, L)], scenario.eps,
                               scenario.measurements[t], scenario.sensed[t],
                               scenario.sensor, scenario.sys, scenario.noise, t=t)
        estimates[t] = out.estimates
        omegas[t] = out.posterior.omega
    return estimates, omegas


class TestIdentityScheduleReduction:
    def test_matches_independent_original_icf(self):
        cfg = ScenarioConfig(n_nodes=6, horizon=5.0, seed=20)
        scenario = build_scenario(cfg, cfg.seed)
        est, omegas = run_package_icfpie(scenario, default_schedule(4, "identity"), L=4)

        a, q, r, c = reference_models()
        ref_est, ref_omegas = run_original_icf(
            a, scenario.noise.w, c, scenario.noise.v,
            scenario.net.neighborhoods, scenario.eps, 4,
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
    """One dicf_step over `lanes` with a ledger per lane and one log."""
    ledgers = [BandwidthLedger() for _ in lanes]
    log = NumericsLog()
    next_prior, out = dicf_step(prior, scenario.net, lanes, scenario.eps,
                                scenario.measurements[t], scenario.sensed[t], scenario.sensor,
                                scenario.sys, scenario.noise, ledgers=ledgers, t=t, log=log)
    return next_prior, out, ledgers, log


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
            prior = scenario.initial_nodes()
            for t in range(warm_up):
                prior, *_ = step_lanes(scenario, [lane], prior, t)
            priors.append(prior)
        t = max(w for _, _, w in drawn)
        stacked = information_state(stack_slices(priors, "omega"), stack_slices(priors, "q"))

        next_prior, out, ledgers, log = step_lanes(scenario, lanes, stacked, t)
        events = Counter((e["node"] // n_nodes, e["node"] % n_nodes, e["kind"])
                         for e in log.events)
        expected_events = Counter()
        for k, (lane, prior) in enumerate(zip(lanes, priors)):
            block = slice(k * n_nodes, (k + 1) * n_nodes)
            one_prior, one, one_ledgers, one_log = step_lanes(scenario, [lane], prior, t)
            assert_rel_close(next_prior.omega[block], one_prior.omega)
            assert_rel_close(next_prior.q[block], one_prior.q)
            assert_rel_close(out.posterior.omega[block], one.posterior.omega)
            assert_rel_close(out.posterior.q[block], one.posterior.q)
            assert_rel_close(out.estimates[block], one.estimates)
            assert ledgers[k].rows == one_ledgers[0].rows
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
            step_lanes(scenario, lanes, scenario.initial_nodes(), 0)
        with pytest.raises(ConfigurationError):
            step_lanes(scenario, [], scenario.initial_nodes(), 0)


class TestConvergenceToCentral:
    def test_complete_graph_matches_ckf(self):
        # complete topology with eps = 1/N averages exactly within one cycle
        cfg = ScenarioConfig(n_nodes=8, horizon=1.0, seed=4,
                             region=(0.0, 200.0, 0.0, 200.0))
        scenario = build_scenario(cfg, cfg.seed)
        assert scenario.net.max_degree() == 7
        schedule = default_schedule(4, "case1")
        L = 200 * schedule.theta_bar

        prior = scenario.initial_nodes()
        central = scenario.initial_state()
        for t in range(cfg.n_steps):
            meas, sensed = scenario.measurements[t], scenario.sensed[t]
            prior, out = dicf_step(prior, scenario.net, [(schedule, L)], scenario.eps,
                                   meas, sensed, scenario.sensor, scenario.sys,
                                   scenario.noise, t=t)
            central, ckf = ckf_step(central, meas, sensed, scenario.sensor,
                                    scenario.sys, scenario.noise)
            ckf_post = ckf.posterior
            x_ckf = to_state_estimate(ckf_post)
            for k in range(cfg.n_nodes):
                omega_rel = (np.linalg.norm(out.posterior.omega[k] - ckf_post.omega)
                             / np.linalg.norm(ckf_post.omega))
                assert omega_rel < 1e-6
                x_rel = (np.linalg.norm(out.estimates[k] - x_ckf)
                         / max(np.linalg.norm(x_ckf), 1e-12))
                assert x_rel < 1e-6

    def test_estimate_distance_to_ckf_shrinks_with_more_steps(self):
        cfg = ScenarioConfig(seed=13, mc_runs=1)
        scenario = build_scenario(cfg, cfg.seed)
        schedule = default_schedule(4, "case1")

        central = scenario.initial_state()
        for t in range(cfg.n_steps):
            central, ckf = ckf_step(central, scenario.measurements[t],
                                    scenario.sensed[t], scenario.sensor,
                                    scenario.sys, scenario.noise)
        x_ckf_final = to_state_estimate(ckf.posterior)

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
        noise = NoiseInformation.from_covariances(q, r)
        prior = information_state(random_spd(np.random.default_rng(0), 4),
                                  np.random.default_rng(1).normal(size=4))
        # single-node network: closed neighborhood is just the node itself
        from icfpie.network import SensorNetwork
        net1 = SensorNetwork(positions=np.zeros((1, 2)),
                             adjacency=np.zeros((1, 1), dtype=bool),
                             neighborhoods=(np.array([0]),))
        y = np.array([12.0, -3.0])
        stacked = information_state(prior.omega[None], prior.q[None])
        next_stacked, out = dicf_step(stacked, net1, [(default_schedule(4, "identity"), 1)],
                                      0.5, y[None], np.array([True]),
                                      MeasurementModel.linear(c, r), sys, noise)

        post = centralized_correct(prior, c, noise.v, y[None])
        next_prior = predict(post, a, noise.w)
        assert np.allclose(out.posterior.omega[0], post.omega, atol=1e-12)
        assert np.allclose(out.estimates[0], to_state_estimate(post), atol=1e-12)
        assert np.allclose(next_stacked.omega[0], next_prior.omega, atol=1e-12)
        assert np.allclose(next_stacked.q[0], next_prior.q, atol=1e-12)


class TestCkfStep:
    def test_zero_observation_matrices_reduce_to_pure_prediction(self):
        a, q, r, c = reference_models()
        sys = SystemModel.lti(a, q)
        rng = np.random.default_rng(2)
        prior = information_state(random_spd(rng, 4), rng.normal(size=4))
        sensor = MeasurementModel.linear(np.zeros((2, 4)), r)
        noise = NoiseInformation.from_covariances(q, r)
        next_prior, out = ckf_step(prior, np.zeros((3, 2)), np.ones(3, dtype=bool),
                                   sensor, sys, noise)
        posterior = out.posterior
        assert np.allclose(posterior.omega, prior.omega)
        expected = predict(prior, a, noise.w)
        assert np.allclose(next_prior.omega, expected.omega, atol=1e-14)
        assert np.allclose(next_prior.q, expected.q, atol=1e-12)

    def test_estimate_is_the_posterior_solution(self):
        scenario = lane_scenario()
        central = scenario.initial_state()
        for t in range(3):
            central, out = ckf_step(central, scenario.measurements[t], scenario.sensed[t],
                                    scenario.sensor, scenario.sys, scenario.noise)
            assert np.array_equal(out.estimates, to_state_estimate(out.posterior))

    def test_identical_sensors_scale_information_gain(self):
        a, q, r, c = reference_models()
        sys = SystemModel.lti(a, q)
        prior = information_state(np.zeros((4, 4)), np.zeros(4))
        noise = NoiseInformation.from_covariances(q, r)
        y = np.array([400.0, 0.0])
        _, out = ckf_step(prior, np.tile(y, (10, 1)), np.ones(10, dtype=bool),
                          MeasurementModel.linear(c, r), sys, noise)
        posterior = out.posterior
        v = noise.v
        assert np.allclose(posterior.omega, 10 * c.T @ v @ c, atol=1e-12)

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
        noise = NoiseInformation.from_covariances(q, r)

        omega0 = np.linalg.inv(p0)
        state = information_state(omega0, omega0 @ x0)
        ys = [[rng.normal(size=m)] for _ in range(100)]
        xs_ref, ps_ref = run_kf(x0, p0, a, q, [(c, r)], ys)

        for t in range(100):
            state, out = ckf_step(state, np.array(ys[t]), np.ones(1, dtype=bool),
                                  model, sys, noise)
            posterior = out.posterior
            x_hat = to_state_estimate(posterior)
            p_hat = np.linalg.inv(posterior.omega)
            assert np.linalg.norm(x_hat - xs_ref[t]) / np.linalg.norm(xs_ref[t]) < 1e-9
            assert np.linalg.norm(p_hat - ps_ref[t]) / np.linalg.norm(ps_ref[t]) < 1e-9
