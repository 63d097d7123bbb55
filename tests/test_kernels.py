"""The closed-form masked consensus kernel behind `run_consensus`.

`run_consensus` moves row r of every node's (B, b) by M^{k_r}, with
M = I - eps * Lap and k_r the number of the L steps that select row r.
These tests hold it to the step-by-step reference `consensus_step` of
`consensus_reference.py`, to an independent matrix-power oracle, and to
the invariants of averaging.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_rel_close, random_spd
from consensus_reference import consensus_step, mask_vector
from icfpie.consensus import (
    ConsensusState,
    averaging_powers,
    plan_lanes,
    run_consensus,
    run_masked_consensus,
)
from icfpie.network import BandwidthLedger, consensus_gain, random_geometric
from icfpie.selection import build_schedule, default_schedule

CASE1 = build_schedule(4, [[1, 3], [2, 4]])


def make_problem(seed, n_nodes=10, n=4):
    rng = np.random.default_rng(seed)
    net = random_geometric(n_nodes, (0, 600, 0, 600), 300.0, rng)
    state = ConsensusState(
        B=np.array([random_spd(rng, n) for _ in range(n_nodes)]),
        b=rng.normal(size=(n_nodes, n)),
    )
    return net, state


def test_inputs_not_modified():
    net, state = make_problem(seed=5)
    B0, b0 = state.B.copy(), state.b.copy()
    run_consensus(state, CASE1, 8, averaging_powers(net, 0.1, 8))
    assert np.array_equal(state.B, B0) and np.array_equal(state.b, b0)


def test_unselected_rows_untouched():
    # two steps of the one-row-per-step schedule move rows 0 and 1 only
    net, state = make_problem(seed=6)
    out = run_consensus(state, default_schedule(4, "case2"), 2, averaging_powers(net, 0.11, 2))
    assert np.array_equal(out.B[:, [2, 3], :], state.B[:, [2, 3], :])
    assert np.array_equal(out.b[:, [2, 3]], state.b[:, [2, 3]])
    assert not np.array_equal(out.B[:, [0, 1], :], state.B[:, [0, 1], :])


@pytest.mark.parametrize("cycles", [1, 3, 10])
def test_full_cycles_match_consensus_matrix_power_oracle(cycles):
    # after c full cycles every row has been averaged exactly c times, so
    # the result is (I - eps * graph_laplacian)^c applied row-wise
    net, state = make_problem(seed=9)
    adj = net.adjacency.astype(float)
    deg = adj.sum(axis=1)
    eps = 1.0 / (deg.max() + 1.0)
    pi_c = np.linalg.matrix_power(np.eye(net.n_nodes) - eps * (np.diag(deg) - adj), cycles)

    out = run_consensus(state, CASE1, 2 * cycles, averaging_powers(net, eps, 2 * cycles))
    assert np.allclose(out.B, np.einsum("ij,jrc->irc", pi_c, state.B), atol=1e-10)
    assert np.allclose(out.b, pi_c @ state.b, atol=1e-10)


def make_lanes(seed, n_lanes, n_nodes=10, n=4):
    """A network and n_lanes lanes' stacks B (K, N, n, n), b (K, N, n)."""
    rng = np.random.default_rng(seed)
    net = random_geometric(n_nodes, (0, 600, 0, 600), 300.0, rng)
    B = np.array([[random_spd(rng, n) for _ in range(n_nodes)] for _ in range(n_lanes)])
    return net, B, rng.normal(size=(n_lanes, n_nodes, n))


def gather_and_scatter(B, b, powers):
    """The kernel's arithmetic spelled out: gather row r of lane k across
    its nodes, average it by powers[k, r] as one (N, N) @ (N, n) product
    (and one (N, N) @ (N, 1) product for b), and scatter it into new
    arrays."""
    B_out, b_out = np.empty_like(B), np.empty_like(b)
    for k in range(B.shape[0]):
        for r in range(B.shape[2]):
            B_out[k, :, r] = powers[k, r] @ B[k, :, r]
            b_out[k, :, r] = (powers[k, r] @ b[k, :, r, None])[:, 0]
    return B_out, b_out


class TestKernelRows:
    """`run_masked_consensus` moves every row of every lane in one batched
    product; its results are those of one product per lane and row, bit
    for bit."""

    @pytest.mark.parametrize("steps", [[[3, 3, 3, 3]], [[2, 1, 2, 1], [1, 4, 2, 3]],
                                       [[1, 4, 2, 3], [3, 3, 3, 3], [2, 1, 2, 1]]])
    def test_all_rows_moving_returns_new_arrays_equal_to_gather_and_scatter(self, steps):
        net, B0, b0 = make_lanes(11, len(steps))
        B_in, b_in = B0.copy(), b0.copy()
        steps = np.array(steps)
        powers = averaging_powers(net, consensus_gain(net), steps.max())[steps]
        B, b = run_masked_consensus(B_in, b_in, powers)
        assert not np.shares_memory(B, B_in) and not np.shares_memory(b, b_in)
        assert np.array_equal(B_in, B0) and np.array_equal(b_in, b0)
        expected_B, expected_b = gather_and_scatter(B0, b0, powers)
        assert np.array_equal(B, expected_B) and np.array_equal(b, expected_b)

    def test_rows_with_zero_steps_stay_bit_identical(self):
        # partial cycles of case 2 at L = 2 and case 1 at L = 1: the rows
        # that were never selected read M^0 = I
        net, B0, b0 = make_lanes(12, 2)
        plan = plan_lanes([(default_schedule(4, "case2"), 2), (CASE1, 1)],
                          averaging_powers(net, consensus_gain(net), 2)[None], 4)
        frozen = plan.steps == 0
        assert frozen.tolist() == [[False, False, True, True], [False, True, False, True]]
        powers = plan.powers
        B, b = run_masked_consensus(B0, b0, powers)
        assert np.array_equal(B.transpose(0, 2, 1, 3)[frozen], B0.transpose(0, 2, 1, 3)[frozen])
        assert np.array_equal(b.transpose(0, 2, 1)[frozen], b0.transpose(0, 2, 1)[frozen])
        expected_B, expected_b = gather_and_scatter(B0, b0, powers)
        assert np.array_equal(B, expected_B) and np.array_equal(b, expected_b)


SCHEDULES = {kind: default_schedule(4, kind) for kind in ("identity", "case1", "case2")}
LANES = st.lists(st.tuples(st.sampled_from(sorted(SCHEDULES)), st.integers(1, 25)),
                 min_size=1, max_size=9)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@given(LANES, st.integers(min_value=2, max_value=12), SEEDS)
@example([("case2", 1), ("case1", 3), ("identity", 25), ("case2", 6)], 10, 0)  # zero-step rows
@settings(max_examples=40, deadline=None)
def test_output_arrays_get_the_allocating_results(drawn, n_nodes, seed):
    # a step has the kernel write the lanes' pairs into the lane-major
    # stack that recovery reads, whose last slice is the centralized one
    lanes = [(SCHEDULES[kind], L) for kind, L in drawn]
    net, B, b = make_lanes(seed, len(lanes), n_nodes)
    powers = plan_lanes(lanes, averaging_powers(net, consensus_gain(net), 25)[None], 4).powers
    expected_B, expected_b = run_masked_consensus(B, b, powers)
    stack_B = np.full((len(lanes) * n_nodes + 1, 4, 4), np.nan)
    stack_b = np.full((len(lanes) * n_nodes + 1, 4), np.nan)
    B_out, b_out = run_masked_consensus(B, b, powers, stack_B[:-1].reshape(B.shape),
                                        stack_b[:-1].reshape(b.shape))
    assert np.shares_memory(B_out, stack_B) and np.shares_memory(b_out, stack_b)
    assert np.array_equal(B_out, expected_B) and np.array_equal(b_out, expected_b)
    assert np.array_equal(stack_B[:-1].reshape(B.shape), expected_B)
    assert np.array_equal(stack_b[:-1].reshape(b.shape), expected_b)
    assert np.isnan(stack_B[-1]).all() and np.isnan(stack_b[-1]).all()




@given(LANES, SEEDS)
@example([("case2", 1), ("case1", 3), ("identity", 25), ("case2", 6)], 0)  # zero-step rows
@settings(max_examples=40, deadline=None)
def test_each_lane_of_the_all_lane_kernel_equals_run_consensus(drawn, seed):
    lanes = [(SCHEDULES[kind], L) for kind, L in drawn]
    net, B, b = make_lanes(seed, len(lanes))
    powers = averaging_powers(net, consensus_gain(net), 25)
    B_all, b_all = run_masked_consensus(B, b, plan_lanes(lanes, powers[None], 4).powers)
    for k, (schedule, L) in enumerate(lanes):
        one = run_consensus(ConsensusState(B[k], b[k]), schedule, L, powers)
        assert np.array_equal(B_all[k], one.B) and np.array_equal(b_all[k], one.b)


@st.composite
def schedules(draw):
    """A built-in schedule or a random ordered partition of {1..n}."""
    n = draw(st.integers(min_value=2, max_value=6))
    kind = draw(st.sampled_from(["case1", "case2", "identity", "random"]))
    if kind != "random":
        return default_schedule(n, kind)
    order = draw(st.permutations(range(1, n + 1)))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1)))
    bounds = [0, *sorted(cuts), n]
    return build_schedule(n, [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])])


@st.composite
def problems(draw):
    """A random connected network, a schedule over the state, and a state
    with exactly symmetric B blocks."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n_nodes = draw(st.integers(min_value=2, max_value=8))
    schedule = draw(schedules())
    rng = np.random.default_rng(seed)
    net = random_geometric(n_nodes, (0, 500, 0, 500), 300.0, rng)
    B = np.array([random_spd(rng, schedule.n) for _ in range(n_nodes)])
    state = ConsensusState(B=(B + B.transpose(0, 2, 1)) / 2,
                           b=rng.normal(size=(n_nodes, schedule.n)))
    return net, schedule, state


@given(problems(), st.integers(min_value=1, max_value=25))
@settings(max_examples=60, deadline=None)
def test_closed_form_equals_step_loop(problem, L):
    net, schedule, state = problem
    eps = consensus_gain(net)
    out = run_consensus(state, schedule, L, averaging_powers(net, eps, L))
    stepped = state
    for l in range(L):
        stepped = consensus_step(stepped, net, mask_vector(schedule, l), eps)
    assert_rel_close(out.B, stepped.B)
    assert_rel_close(out.b, stepped.b)


@given(problems(), st.integers(min_value=1, max_value=25))
@settings(max_examples=60, deadline=None)
def test_global_sums_conserved(problem, L):
    net, schedule, state = problem
    out = run_consensus(state, schedule, L, averaging_powers(net, consensus_gain(net), L))
    scale = max(np.abs(state.B).sum(axis=0).max(), np.abs(state.b).sum(axis=0).max())
    assert np.max(np.abs(out.B.sum(axis=0) - state.B.sum(axis=0))) < 1e-12 * scale
    assert np.max(np.abs(out.b.sum(axis=0) - state.b.sum(axis=0))) < 1e-12 * scale


@given(problems(), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_symmetric_at_cycle_boundaries(problem, cycles):
    net, schedule, state = problem
    L = cycles * schedule.theta_bar
    out = run_consensus(state, schedule, L, averaging_powers(net, consensus_gain(net), L))
    assert np.array_equal(out.B, out.B.transpose(0, 2, 1))


def entry_sum(ledger):
    """Scalars broadcast, summed from the compact entries' per-step payloads."""
    return sum(e.n_nodes * sum(e.payloads) for e in ledger.rows)


@given(problems(), st.integers(min_value=1, max_value=25))
@settings(max_examples=60, deadline=None)
def test_bandwidth_ratios_exact_integers(problem, L):
    net, schedule, state = problem
    N, n, theta = state.n_nodes, state.n, schedule.theta_bar
    partial, full = BandwidthLedger(), BandwidthLedger()
    powers = averaging_powers(net, 0.1, L)
    run_consensus(state, schedule, L, powers, ledger=partial)
    run_consensus(state, default_schedule(n, "identity"), L, powers, ledger=full)
    selected = sum(schedule.rows_at(l).size for l in range(L))
    assert partial.total_scalars() == N * (n + 1) * selected == entry_sum(partial)
    assert full.total_scalars() == L * N * n * (n + 1) == entry_sum(full)
    # a whole number of cycles sends every row once per cycle instead of theta times
    if L % theta == 0:
        assert full.total_scalars() == theta * partial.total_scalars()
