import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icfpie import info_filter, models
from icfpie.dicf import ckf_step
from icfpie.errors import ConfigurationError, DegenerateHeadingWarning
from icfpie.harness import ScenarioConfig, build_scenario
from icfpie.models import (
    MeasurementModel,
    SystemModel,
    TruthModel,
    constant_velocity_matrix,
    linearize,
    position_measurement_matrix,
    truth_trajectory,
)
from measurement_reference import sample_measurement
from one_seed import run_one
from truth_reference import propagate_truth, truth_loop


def truth_model(speed_variance=0.0, dt=0.1):
    return TruthModel(initial_position=(400.0, 0.0), speed_range=(10.0, 15.0),
                      heading_range=(np.pi / 2, 3 * np.pi / 4),
                      speed_variance=speed_variance, dt=dt)


class TestPropagateTruth:
    def test_noise_free_eastbound(self, rng):
        out = propagate_truth(np.array([0.0, 0.0, 10.0, 0.0]), truth_model(), rng)
        assert np.allclose(out, [1.0, 0.0, 10.0, 0.0])

    def test_noise_free_northbound_from_start_point(self, rng):
        out = propagate_truth(np.array([400.0, 0.0, 0.0, 12.0]), truth_model(), rng)
        assert np.allclose(out, [400.0, 1.2, 0.0, 12.0])

    def test_speed_jitter_preserves_heading(self):
        # recompute the expected speed with an identically seeded generator
        state = np.array([0.0, 0.0, 3.0, 4.0])
        out = propagate_truth(state, truth_model(speed_variance=0.25),
                              np.random.default_rng(42))
        w = np.random.default_rng(42).normal(0.0, 0.5)
        expected_speed = 5.0 + w
        heading = np.arctan2(4.0, 3.0)
        assert np.hypot(out[2], out[3]) == pytest.approx(expected_speed, rel=1e-12)
        assert np.arctan2(out[3], out[2]) == pytest.approx(heading, rel=1e-12)

    def test_zero_velocity_warns_and_keeps_velocity(self, rng):
        state = np.array([5.0, 6.0, 0.0, 0.0])
        with pytest.warns(DegenerateHeadingWarning):
            out = propagate_truth(state, truth_model(speed_variance=0.25), rng)
        assert np.array_equal(out, state)

    def test_wrong_length_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            propagate_truth(np.zeros(3), truth_model(), rng)

    @given(st.lists(st.floats(min_value=-500, max_value=500), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_noise_free_propagation_is_linear(self, entries):
        state = np.array(entries)
        if np.hypot(state[2], state[3]) == 0.0:
            return
        out = propagate_truth(state, truth_model(), np.random.default_rng(0))
        expected = constant_velocity_matrix(0.1) @ state
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)


class TestTruthTrajectory:
    """The run's truth in Python floats equals, bit for bit, the one-step
    numpy oracle called once per timestep, draw for draw."""

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_one_step_oracle(self, seed):
        model = truth_model(speed_variance=0.25)
        got = truth_trajectory(model, 300, np.random.default_rng(seed))
        assert np.array_equal(got, truth_loop(model, 300, np.random.default_rng(seed)))

    def test_zero_speed_keeps_velocity_and_draws_nothing(self):
        # zero speed skips the draw: the generator is left where the
        # oracle leaves it, and every step warns
        model = TruthModel(initial_position=(5.0, 6.0), speed_range=(0.0, 0.0),
                           heading_range=(0.0, 1.0), speed_variance=0.25, dt=0.1)
        rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.warns(DegenerateHeadingWarning) as got_warnings:
            got = truth_trajectory(model, 6, rng)
        with pytest.warns(DegenerateHeadingWarning) as oracle_warnings:
            expected = truth_loop(model, 6, oracle_rng)
        assert np.array_equal(got, expected)
        assert np.array_equal(got[:, :2], np.tile([5.0, 6.0], (6, 1)))
        assert len(got_warnings) == len(oracle_warnings) == 5
        assert rng.random() == oracle_rng.random()

    def test_noise_free_and_single_step(self):
        model = truth_model()
        assert np.array_equal(truth_trajectory(model, 50, np.random.default_rng(1)),
                              truth_loop(model, 50, np.random.default_rng(1)))
        assert truth_trajectory(model, 1, np.random.default_rng(1)).shape == (1, 4)


class TestSampleMeasurement:
    def test_near_noiseless_position_readout(self, rng):
        meas = MeasurementModel.linear(position_measurement_matrix(),
                                       1e-20 * np.eye(2))
        y = sample_measurement(np.array([400.0, 0.0, 3.0, 4.0]), meas, rng)
        assert np.allclose(y, [400.0, 0.0], atol=1e-8)

    def test_reference_noise_scale(self):
        # R = diag([25, 25]) means a 5 m standard deviation per axis
        meas = MeasurementModel.linear(position_measurement_matrix(),
                                       np.diag([25.0, 25.0]))
        rng = np.random.default_rng(11)
        draws = np.array([sample_measurement(np.zeros(4), meas, rng) for _ in range(20000)])
        assert draws.std(axis=0) == pytest.approx([5.0, 5.0], rel=0.05)

    def test_sample_covariance_matches_r(self):
        r = np.array([[25.0, 6.0], [6.0, 16.0]])
        meas = MeasurementModel.linear(position_measurement_matrix(), r)
        rng = np.random.default_rng(5)
        n_draws = 100000
        draws = np.array([sample_measurement(np.zeros(4), meas, rng)
                          for _ in range(n_draws)])
        cov = np.cov(draws.T)
        assert np.linalg.norm(cov - r) / np.linalg.norm(r) < 0.05

    def test_noise_is_unbiased(self):
        meas = MeasurementModel.linear(position_measurement_matrix(),
                                       np.diag([25.0, 25.0]))
        rng = np.random.default_rng(9)
        n_draws = 10000
        state = np.array([400.0, 0.0, 0.0, 12.0])
        draws = np.array([sample_measurement(state, meas, rng) for _ in range(n_draws)])
        residual_mean = (draws - [400.0, 0.0]).mean(axis=0)
        assert np.all(np.abs(residual_mean) < 3 * 5.0 / np.sqrt(n_draws))


class TestLinearize:
    def test_lti_system_returns_its_matrix(self):
        a = constant_velocity_matrix(0.1)
        sys = SystemModel.lti(a, np.diag([10.0, 10.0, 1.0, 1.0]))
        for x in (np.zeros(4), np.array([400.0, 0.0, -3.0, 12.0])):
            assert np.array_equal(linearize(sys, x), a)

    def test_position_sensor_jacobian(self):
        meas = MeasurementModel.linear(position_measurement_matrix(), np.eye(2))
        jac = linearize(meas, np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(jac, [[1, 0, 0, 0], [0, 1, 0, 0]])

    def test_identity_transition(self):
        sys = SystemModel(a=np.eye(4), process_cov=np.eye(4))
        assert np.array_equal(linearize(sys, np.ones(4)), np.eye(4))

    def test_nonfinite_rejected(self):
        sys = SystemModel(a=np.full((4, 4), np.nan), process_cov=np.eye(4))
        from icfpie.errors import FilterNumericsError
        with pytest.raises(FilterNumericsError):
            linearize(sys, np.zeros(4))


class TestModelValidation:
    def test_singular_lti_rejected(self):
        a = np.zeros((4, 4))
        with pytest.raises(ConfigurationError, match="singular"):
            SystemModel.lti(a, np.eye(4))

    def test_non_spd_process_cov_rejected(self):
        with pytest.raises(ConfigurationError, match="positive definite"):
            SystemModel.lti(np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0]))

    def test_sensor_information_is_inverse_of_reference_r(self):
        meas = MeasurementModel.linear(position_measurement_matrix(), np.diag([25.0, 25.0]))
        assert np.allclose(meas.v, np.diag([0.04, 0.04]))
        r = np.array([[25.0, 6.0], [6.0, 16.0]])
        v = MeasurementModel.linear(position_measurement_matrix(), r).v
        assert np.array_equal(v, v.T)
        assert np.allclose(v @ r, np.eye(2), atol=1e-14)

    def test_non_spd_meas_cov_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementModel.linear(position_measurement_matrix(),
                                    np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_truth_model_invariants(self):
        with pytest.raises(ConfigurationError):
            TruthModel((0, 0), (15.0, 10.0), (0.0, 1.0), 0.25, 0.1)
        with pytest.raises(ConfigurationError):
            TruthModel((0, 0), (10.0, 15.0), (0.0, 1.0), -1.0, 0.1)
        with pytest.raises(ConfigurationError):
            TruthModel((0, 0), (10.0, 15.0), (0.0, 1.0), 0.25, 0.0)

    def test_initial_state_within_configured_ranges(self):
        model = truth_model(speed_variance=0.25)
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = model.initial_state(rng)
            speed = np.hypot(s[2], s[3])
            heading = np.arctan2(s[3], s[2])
            assert s[0] == 400.0 and s[1] == 0.0
            assert 10.0 <= speed <= 15.0
            assert np.pi / 2 <= heading <= 3 * np.pi / 4


class TestSystemModelSplit:
    """A system model computes the closed form's split of its own A and Q,
    once, so that no step can predict through a split of another model."""

    @pytest.fixture
    def layouts(self, monkeypatch):
        calls = []
        block_layouts = info_filter.block_layouts

        def spy(n, model):
            calls.append(n)
            return block_layouts(n, model)
        monkeypatch.setattr(models, "block_layouts", spy)
        return calls

    def test_one_split_per_model_over_a_run(self, layouts):
        scenario = build_scenario(ScenarioConfig(), 0)
        assert scenario.cfg.n_steps == 300
        run_one(scenario, 12)
        assert layouts == [4]

    def test_one_split_per_model_over_ckf_steps(self, layouts):
        scenario = build_scenario(ScenarioConfig(horizon=2.0), 1)
        central = scenario.zero_prior(1)
        for t in range(scenario.cfg.n_steps):
            central, _, _ = ckf_step(central, scenario.measurements[t], scenario.sensed[t],
                                     scenario.sensor, scenario.sys)
        assert layouts == [4]
        ckf_step(central, scenario.measurements[0], scenario.sensed[0], scenario.sensor,
                 SystemModel.lti(scenario.sys.a, scenario.sys.process_cov))
        assert layouts == [4, 4]

    def test_split_is_read_from_the_model_and_read_only(self):
        sys = SystemModel.lti(constant_velocity_matrix(0.1), np.diag([10.0, 10.0, 1.0, 1.0]))
        layout, blocks = sys.split
        expected = info_filter.block_layouts(4, (sys.a, sys.process_cov))
        assert np.array_equal(layout.order, expected[0].order)
        assert np.array_equal(blocks, expected[1])
        assert not blocks.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.split = None
        # a model that couples its axes in every split has none
        coupled = SystemModel.lti(np.ones((4, 4)) + np.eye(4), np.eye(4))
        assert coupled.split is None
