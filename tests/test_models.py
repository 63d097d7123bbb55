import dataclasses

import numpy as np
import pytest

from icfpie import info_filter, models
from icfpie.dicf import ckf_step
from icfpie.errors import ConfigurationError
from icfpie.harness import ScenarioConfig, build_scenario
from icfpie.models import (
    MeasurementModel,
    SystemModel,
    constant_velocity_matrix,
    linearize,
    position_measurement_matrix,
)
from measurement_reference import sample_measurement
from one_seed import run_one


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
