import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_rel_close, connected_networks, random_spd
from consensus_reference import (
    closed_neighborhoods,
    consensus_step,
    mask_vector,
    network_from_positions,
)
from icfpie.consensus import (
    ConsensusState,
    averaging_powers,
    init_consensus,
    plan_lanes,
    run_consensus,
    run_masked_consensus,
)
from icfpie.errors import ConfigurationError, ConsensusCycleWarning
from icfpie.info_filter import information_state
from icfpie.network import BandwidthLedger, consensus_gain, random_geometric
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
        prior = information_state(10 * np.eye(4)[None], 10 * np.ones((1, 4)))
        b0, v0 = init_consensus(prior, np.zeros((1, 4, 4)), np.zeros((1, 4)), 10)
        assert np.allclose(b0[0], np.eye(4))
        assert np.allclose(v0[0], np.ones(4))

    def test_zero_prior_keeps_only_correction(self):
        prior = information_state(np.zeros((1, 4, 4)), np.zeros((1, 4)))
        d_omega = np.diag([0.04, 0.04, 0.0, 0.0])[None]
        d_q = np.array([[16.0, 0.0, 0.0, 0.0]])
        b0, v0 = init_consensus(prior, d_omega, d_q, 10)
        assert np.array_equal(b0, d_omega)
        assert np.array_equal(v0, d_q)

    def test_scalar_division(self):
        prior = information_state(np.diag([10.0] * 4)[None], np.zeros((1, 4)))
        b0, _ = init_consensus(prior, np.zeros((1, 4, 4)), np.zeros((1, 4)), 10)
        assert np.allclose(b0[0], np.eye(4))

    def test_zero_nodes_rejected(self):
        prior = information_state(np.eye(4)[None], np.zeros((1, 4)))
        with pytest.raises(ConfigurationError):
            init_consensus(prior, np.zeros((1, 4, 4)), np.zeros((1, 4)), 0)


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
            run_consensus(two_node_state(), sched, 0, averaging_powers(pair_net2, 0.5, 0))

    def test_power_table_must_reach_L(self, pair_net2):
        sched = default_schedule(2, "identity")
        with pytest.raises(ConfigurationError):
            run_consensus(two_node_state(), sched, 3, averaging_powers(pair_net2, 0.5, 2))
        with pytest.raises(ConfigurationError):
            averaging_powers(pair_net2, 0.0, 2)

    def test_schedule_must_match_state_dimension(self, pair_net2):
        with pytest.raises(ConfigurationError):
            run_consensus(two_node_state(), default_schedule(3, "identity"), 1,
                          averaging_powers(pair_net2, 0.5, 1))

    def test_equal_schedules_built_apart_give_equal_runs(self):
        # what a (schedule, L) pair does is computed once per equal pair, so
        # a schedule built again from the same subsets must read the same
        rng = np.random.default_rng(4)
        net = random_geometric(6, (0, 500, 0, 500), 300.0, rng)
        state = ConsensusState(B=np.array([random_spd(rng, 4) for _ in range(6)]),
                               b=rng.normal(size=(6, 4)))
        powers = averaging_powers(net, consensus_gain(net), 5)
        first, again = build_schedule(4, [[1, 3], [2, 4]]), build_schedule(4, [[3, 1], [4, 2]])
        assert first == again and first is not again
        runs = []
        for schedule in (first, again):
            ledger = BandwidthLedger()
            runs.append((run_consensus(state, schedule, 5, powers, ledger=ledger, t=2), ledger))
        (out_first, ledger_first), (out_again, ledger_again) = runs
        assert np.array_equal(out_first.B, out_again.B)
        assert np.array_equal(out_first.b, out_again.b)
        assert ledger_first.rows == ledger_again.rows == [(2, 6, (10,) * 5, 1)]

    def test_single_identity_step_equals_consensus_step(self, pair_net2):
        sched = default_schedule(2, "identity")
        state = two_node_state()
        out_loop = run_consensus(state, sched, 1, averaging_powers(pair_net2, 0.5, 1))
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
        out_kernel = run_consensus(state, sched, 6, averaging_powers(net, eps, 6))
        stepped = state
        for l in range(6):
            stepped = consensus_step(stepped, net, mask_vector(sched, l), eps)
        assert_rel_close(out_kernel.B, stepped.B)
        assert_rel_close(out_kernel.b, stepped.b)

    def test_cycle_warning_for_partial_cycle(self, pair_net2):
        sched = build_schedule(2, [[1], [2]])
        # the message names the schedule, so a sweep's warnings can be told apart
        with pytest.warns(ConsensusCycleWarning, match=re.escape("subsets ((1,), (2,))")):
            run_consensus(two_node_state(), sched, 3, averaging_powers(pair_net2, 0.5, 3))

    def test_each_row_updated_once_per_cycle(self, pair_net2):
        # after one full cycle both entries moved exactly one averaging step
        sched = build_schedule(2, [[1], [2]])
        state = two_node_state()
        out = run_consensus(state, sched, 2, averaging_powers(pair_net2, 0.5, 2))
        full = consensus_step(state, pair_net2, np.ones(2), 0.5)
        assert np.allclose(out.b, full.b)

    def test_long_identity_run_reaches_initial_average(self):
        rng = np.random.default_rng(10)
        net = random_geometric(10, (0, 600, 0, 600), 300.0, rng)
        state = ConsensusState(
            B=np.array([random_spd(rng, 4) for _ in range(10)]),
            b=rng.normal(size=(10, 4)),
        )
        out = run_consensus(state, default_schedule(4, "identity"), 500,
                            averaging_powers(net, consensus_gain(net), 500))
        mean_b = state.B.mean(axis=0)
        mean_v = state.b.mean(axis=0)
        assert np.max(np.abs(out.B - mean_b)) < 1e-6
        assert np.max(np.abs(out.b - mean_v)) < 1e-6

    def test_ledger_records_selected_payload_sizes(self, pair_net2):
        sched = build_schedule(2, [[1], [2]])
        ledger = BandwidthLedger()
        run_consensus(two_node_state(), sched, 4, averaging_powers(pair_net2, 0.5, 4),
                      ledger=ledger, t=3)
        # per step per node: 1 selected row of B (n=2) plus 1 entry of b
        assert ledger.rows == [(3, 2, (3, 3, 3, 3), 1)]
        assert ledger.total_scalars() == 4 * 2 * 3
        identity_ledger = BandwidthLedger()
        run_consensus(two_node_state(), default_schedule(2, "identity"), 4,
                      averaging_powers(pair_net2, 0.5, 4), ledger=identity_ledger)
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
            out = run_consensus(state, sched, 1, averaging_powers(net, consensus_gain(net), 1))
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
        powers = averaging_powers(net, consensus_gain(net), sched.theta_bar)
        mean_b = state.B.mean(axis=0)
        deviations = []
        current = state
        for _ in range(30):
            current = run_consensus(current, sched, sched.theta_bar, powers)
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
        out = run_consensus(state, sched, 4 * sched.theta_bar,
                            averaging_powers(net, consensus_gain(net), 4 * sched.theta_bar))
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
        out = run_consensus(state, default_schedule(3, "identity"), 7,
                            averaging_powers(net, eps, 7))

        mats = [m.copy() for m in state.B]
        vecs = [v.copy() for v in state.b]
        hoods = closed_neighborhoods(net.adjacency)
        for _ in range(7):
            new_mats = [m.copy() for m in mats]
            new_vecs = [v.copy() for v in vecs]
            for i in range(6):
                for j in hoods[i]:
                    new_mats[i] = new_mats[i] + eps * (mats[j] - mats[i])
                    new_vecs[i] = new_vecs[i] + eps * (vecs[j] - vecs[i])
            mats, vecs = new_mats, new_vecs
        assert np.allclose(out.B, mats, atol=1e-12)
        assert np.allclose(out.b, vecs, atol=1e-12)


class TestSpectralContraction:
    """The paper's convergence argument as an inequality (Xiao & Boyd
    2004): M = I - eps Lap is symmetric and doubly stochastic, so each of
    the k_r steps that average row r of a lane contracts the row's
    deviation from its node mean by at least rho, the largest |eigenvalue|
    of M other than its eigenvalue 1, and keeps the mean."""

    @given(connected_networks(), st.sampled_from(["identity", "case1", "case2"]),
           st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=100, deadline=None)
    def test_each_row_contracts_at_the_spectral_rate(self, net, kind, L, seed):
        rng = np.random.default_rng(seed)
        n_nodes, eps = net.n_nodes, consensus_gain(net)
        powers = averaging_powers(net, eps, L)
        # M - 11^T / N has M's eigenvalues, with 0 in place of the 1 of
        # the constant vector
        rho = np.abs(np.linalg.eigvalsh(powers[1] - 1.0 / n_nodes)).max()
        assert rho < 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConsensusCycleWarning)
            plan = plan_lanes([(default_schedule(4, kind), L)], powers[None], 4)
        B0 = np.array([random_spd(rng, 4) for _ in range(n_nodes)])[None]
        b0 = rng.normal(size=(1, n_nodes, 4))
        B, b = run_masked_consensus(B0, b0, plan.powers)
        for r, k in enumerate(plan.steps[0].tolist()):
            # row r of every node's (B, b): (N, 5)
            before = np.column_stack([B0[0, :, r], b0[0, :, r]])
            after = np.column_stack([B[0, :, r], b[0, :, r]])
            # rounding allowance: M^k is formed in at most 2 log2(k) + 1
            # products of N x N matrices and applied in one more, each of
            # which errs by at most N eps relative to the entries' size;
            # (k + 1) N eps per entry, 4x over, bounds them all
            slack = 4 * (k + 1) * n_nodes * np.finfo(float).eps * np.linalg.norm(before)
            mean = before.mean(axis=0)
            assert np.all(np.abs(after.mean(axis=0) - mean) <= slack)
            assert (np.linalg.norm(after - mean)
                    <= rho ** k * np.linalg.norm(before - mean) + slack)
