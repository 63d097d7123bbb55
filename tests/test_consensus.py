import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_rel_close, random_spd
from icfpie.consensus import (
    ConsensusState,
    consensus_step,
    init_consensus,
    run_consensus,
)
from icfpie.errors import ConfigurationError, ConsensusCycleWarning
from icfpie.info_filter import information_state
from icfpie.network import BandwidthLedger, consensus_gain, network_from_positions, random_geometric
from icfpie.selection import build_schedule, default_schedule


def two_node_state():
    b_mats = [np.diag([1.0, 2.0]), np.diag([5.0, 8.0])]
    b_vecs = [np.array([1.0, 1.0]), np.array([3.0, 5.0])]
    return ConsensusState(B=np.array(b_mats), b=np.array(b_vecs))


@pytest.fixture
def pair_net2():
    return network_from_positions([[0.0, 0.0], [100.0, 0.0]], 300.0)


class TestInitConsensus:
    def test_scaling_identity(self):
        prior = information_state(10 * np.eye(4), 10 * np.ones(4))
        b0, v0 = init_consensus(prior, np.zeros((4, 4)), np.zeros(4), 10)
        assert np.allclose(b0, np.eye(4))
        assert np.allclose(v0, np.ones(4))

    def test_zero_prior_keeps_only_correction(self):
        prior = information_state(np.zeros((4, 4)), np.zeros(4))
        d_omega = np.diag([0.04, 0.04, 0.0, 0.0])
        d_q = np.array([16.0, 0.0, 0.0, 0.0])
        b0, v0 = init_consensus(prior, d_omega, d_q, 10)
        assert np.array_equal(b0, d_omega)
        assert np.array_equal(v0, d_q)

    def test_scalar_division(self):
        prior = information_state(np.diag([10.0] * 4), np.zeros(4))
        b0, _ = init_consensus(prior, np.zeros((4, 4)), np.zeros(4), 10)
        assert np.allclose(b0, np.eye(4))

    def test_zero_nodes_rejected(self):
        prior = information_state(np.eye(4), np.zeros(4))
        with pytest.raises(ConfigurationError):
            init_consensus(prior, np.zeros((4, 4)), np.zeros(4), 0)


class TestConsensusStep:
    def test_full_mask_halfstep_averages_exactly(self, pair_net2):
        state = two_node_state()
        out = consensus_step(state, pair_net2, np.ones(2), eps=0.5)
        assert np.allclose(out.b[0], [2.0, 3.0])
        assert np.allclose(out.b[1], [2.0, 3.0])
        assert np.allclose(out.B[0], np.diag([3.0, 5.0]))
        assert np.allclose(out.B[1], np.diag([3.0, 5.0]))

    def test_partial_mask_freezes_unselected_entries(self, pair_net2):
        state = two_node_state()
        out = consensus_step(state, pair_net2, np.array([1.0, 0.0]), eps=0.5)
        assert np.allclose(out.b[0], [2.0, 1.0])
        assert np.allclose(out.b[1], [2.0, 5.0])
        # frozen rows are bit-identical, not merely close
        assert np.array_equal(out.b[:, 1], state.b[:, 1])
        assert np.array_equal(out.B[:, 1, :], state.B[:, 1, :])

    def test_consensus_fixed_point(self, pair_net2):
        b = np.array([[1.0, 2.0], [1.0, 2.0]])
        mats = np.array([np.diag([3.0, 4.0])] * 2)
        state = ConsensusState(B=mats.copy(), b=b.copy())
        out = consensus_step(state, pair_net2, np.ones(2), eps=0.37)
        assert np.array_equal(out.B, state.B)
        assert np.array_equal(out.b, state.b)

    def test_bad_eps_rejected(self, pair_net2):
        with pytest.raises(ConfigurationError):
            consensus_step(two_node_state(), pair_net2, np.ones(2), eps=0.0)

    def test_mask_must_be_one_length_n_vector(self, pair_net2):
        # one mask is shared by every node; the n x n matrix form is refused
        for mask in (np.eye(2), np.ones(3)):
            with pytest.raises(ConfigurationError):
                consensus_step(two_node_state(), pair_net2, mask, eps=0.5)


class TestRunConsensus:
    def test_zero_steps_rejected(self, pair_net2):
        sched = default_schedule(2, "identity")
        with pytest.raises(ConfigurationError):
            run_consensus(two_node_state(), sched, 0, pair_net2, 0.5)

    def test_single_identity_step_equals_consensus_step(self, pair_net2):
        sched = default_schedule(2, "identity")
        state = two_node_state()
        out_loop = run_consensus(state, sched, 1, pair_net2, 0.5)
        out_step = consensus_step(state, pair_net2, np.ones(2), 0.5)
        assert_rel_close(out_loop.B, out_step.B)
        assert_rel_close(out_loop.b, out_step.b)

    def test_kernel_matches_repeated_steps(self):
        rng = np.random.default_rng(2)
        net = random_geometric(6, (0, 500, 0, 500), 300.0, rng)
        sched = build_schedule(4, [[1, 3], [2, 4]])
        state = ConsensusState(
            B=np.array([random_spd(rng, 4) for _ in range(6)]),
            b=rng.normal(size=(6, 4)),
        )
        eps = consensus_gain(net)
        out_kernel = run_consensus(state, sched, 6, net, eps)
        stepped = state
        for l in range(6):
            stepped = consensus_step(stepped, net, sched.mask_vector(l % 2), eps)
        assert_rel_close(out_kernel.B, stepped.B)
        assert_rel_close(out_kernel.b, stepped.b)

    def test_cycle_warning_for_partial_cycle(self, pair_net2):
        sched = build_schedule(2, [[1], [2]])
        # the message names the schedule, so a sweep's warnings can be told apart
        with pytest.warns(ConsensusCycleWarning, match=re.escape("subsets ((1,), (2,))")):
            run_consensus(two_node_state(), sched, 3, pair_net2, 0.5)

    def test_each_row_updated_once_per_cycle(self, pair_net2):
        # after one full cycle both entries moved exactly one averaging step
        sched = build_schedule(2, [[1], [2]])
        state = two_node_state()
        out = run_consensus(state, sched, 2, pair_net2, 0.5)
        full = consensus_step(state, pair_net2, np.ones(2), 0.5)
        assert np.allclose(out.b, full.b)

    def test_long_identity_run_reaches_initial_average(self):
        rng = np.random.default_rng(10)
        net = random_geometric(10, (0, 600, 0, 600), 300.0, rng)
        state = ConsensusState(
            B=np.array([random_spd(rng, 4) for _ in range(10)]),
            b=rng.normal(size=(10, 4)),
        )
        out = run_consensus(state, default_schedule(4, "identity"), 500, net,
                            consensus_gain(net))
        mean_b = state.B.mean(axis=0)
        mean_v = state.b.mean(axis=0)
        assert np.max(np.abs(out.B - mean_b)) < 1e-6
        assert np.max(np.abs(out.b - mean_v)) < 1e-6

    def test_ledger_records_selected_payload_sizes(self, pair_net2):
        sched = build_schedule(2, [[1], [2]])
        ledger = BandwidthLedger()
        run_consensus(two_node_state(), sched, 4, pair_net2, 0.5, ledger=ledger, t=3)
        # per step per node: 1 selected row of B (n=2) plus 1 entry of b
        assert ledger.rows == [(3, 2, (3, 3, 3, 3))]
        assert ledger.total_scalars() == 4 * 2 * 3
        identity_ledger = BandwidthLedger()
        run_consensus(two_node_state(), default_schedule(2, "identity"), 4,
                      pair_net2, 0.5, ledger=identity_ledger)
        assert identity_ledger.total_scalars() == 4 * 2 * (2 * 2 + 2)


class TestConsensusProperties:
    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=20, deadline=None)
    def test_global_sum_conservation(self, seed):
        rng = np.random.default_rng(seed)
        net = random_geometric(6, (0, 500, 0, 500), 300.0, rng)
        state = ConsensusState(
            B=np.array([random_spd(rng, 4) for _ in range(6)]),
            b=rng.normal(size=(6, 4)),
        )
        out = consensus_step(state, net, np.array([1.0, 0.0, 1.0, 0.0]),
                             consensus_gain(net))
        # exact in real arithmetic (pairwise cancellation); float rounding
        # of each node's update leaves ~1e-15-relative residue
        scale = np.abs(state.B).sum(axis=0).max()
        assert np.max(np.abs(out.B.sum(axis=0) - state.B.sum(axis=0))) < 1e-12 * scale
        assert np.max(np.abs(out.b.sum(axis=0) - state.b.sum(axis=0))) < 1e-12 * scale

    def test_frozen_rows_bit_identical_through_cycles(self):
        rng = np.random.default_rng(8)
        net = random_geometric(5, (0, 500, 0, 500), 300.0, rng)
        sched = build_schedule(4, [[1, 3], [2, 4]])
        state = ConsensusState(
            B=np.array([random_spd(rng, 4) for _ in range(5)]),
            b=rng.normal(size=(5, 4)),
        )
        with pytest.warns(ConsensusCycleWarning, match=re.escape("subsets ((1, 3), (2, 4))")):
            out = run_consensus(state, sched, 1, net, consensus_gain(net))
        assert np.array_equal(out.B[:, [1, 3], :], state.B[:, [1, 3], :])
        assert np.array_equal(out.b[:, [1, 3]], state.b[:, [1, 3]])

    def test_deviation_from_average_decays_over_cycles(self):
        rng = np.random.default_rng(4)
        net = random_geometric(10, (0, 600, 0, 600), 300.0, rng)
        sched = build_schedule(4, [[1, 3], [2, 4]])
        state = ConsensusState(
            B=np.array([random_spd(rng, 4) for _ in range(10)]),
            b=rng.normal(size=(10, 4)),
        )
        eps = consensus_gain(net)
        mean_b = state.B.mean(axis=0)
        deviations = []
        current = state
        for _ in range(30):
            current = run_consensus(current, sched, sched.theta_bar, net, eps)
            deviations.append(np.max(np.abs(current.B - mean_b)))
        for prev, nxt in zip(deviations, deviations[1:]):
            assert nxt <= prev * (1 + 1e-12)

    def test_symmetry_preserved_at_cycle_boundaries(self):
        rng = np.random.default_rng(21)
        net = random_geometric(8, (0, 600, 0, 600), 300.0, rng)
        sched = build_schedule(4, [[1, 3], [2, 4]])
        state = ConsensusState(
            B=np.array([random_spd(rng, 4) for _ in range(8)]),
            b=rng.normal(size=(8, 4)),
        )
        out = run_consensus(state, sched, 4 * sched.theta_bar, net, consensus_gain(net))
        for k in range(8):
            assert np.array_equal(out.B[k], out.B[k].T)

    def test_identity_schedule_equals_plain_averaging_oracle(self):
        # independent dense full-exchange loop
        rng = np.random.default_rng(14)
        net = random_geometric(6, (0, 500, 0, 500), 300.0, rng)
        state = ConsensusState(
            B=np.array([random_spd(rng, 3) for _ in range(6)]),
            b=rng.normal(size=(6, 3)),
        )
        eps = consensus_gain(net)
        out = run_consensus(state, default_schedule(3, "identity"), 7, net, eps)

        mats = [m.copy() for m in state.B]
        vecs = [v.copy() for v in state.b]
        for _ in range(7):
            new_mats = [m.copy() for m in mats]
            new_vecs = [v.copy() for v in vecs]
            for i in range(6):
                for j in net.neighborhoods[i]:
                    new_mats[i] = new_mats[i] + eps * (mats[j] - mats[i])
                    new_vecs[i] = new_vecs[i] + eps * (vecs[j] - vecs[i])
            mats, vecs = new_mats, new_vecs
        assert np.allclose(out.B, mats, atol=1e-12)
        assert np.allclose(out.b, vecs, atol=1e-12)
