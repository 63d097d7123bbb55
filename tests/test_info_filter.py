import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from conftest import assert_rel_close, random_spd
from icfpie import info_filter
from icfpie.errors import ConfigurationError, FilterNumericsError
from icfpie.models import SystemModel, constant_velocity_matrix
from icfpie.info_filter import (
    InformationState,
    NumericsLog,
    _inv_lower,
    centralized_correct,
    SINGULAR_EIG,
    ensure_invertible,
    information_state,
    inv_spd,
    local_correction_terms,
    predict,
    recover_and_predict,
    symmetrize,
    to_state_estimate,
)
from kf_reference import run_kf
from recovery_reference import estimates_loop, regularize_loop


def fused_step(b_mat, b_vec, scale, a, q_cov, log=None):
    """recover_and_predict with one posterior scale for every slice, through
    the system model (A, Q), as a run passes them."""
    return recover_and_predict(b_mat, b_vec, np.full(len(b_vec), float(scale)),
                               SystemModel(a, q_cov), log)


def triple_loop_product(c, v, y):
    """Brute-force oracle for (C^T V C, C^T V y)."""
    m, n = c.shape
    d_omega = np.zeros((n, n))
    d_q = np.zeros(n)
    for a in range(n):
        for b in range(n):
            for i in range(m):
                for j in range(m):
                    d_omega[a, b] += c[i, a] * v[i, j] * c[j, b]
        for i in range(m):
            for j in range(m):
                d_q[a] += c[i, a] * v[i, j] * y[j]
    return d_omega, d_q


class TestLocalCorrectionTerms:
    def test_position_sensor_contribution(self):
        # R = diag([25, 25]) inverted, position read at 400 m
        c = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        v = np.diag([0.04, 0.04])
        d_omega, d_q = local_correction_terms(c, v, np.array([[400.0, 0.0]]))
        assert np.allclose(d_omega, np.diag([0.04, 0.04, 0.0, 0.0]))
        assert np.allclose(d_q[0], [16.0, 0.0, 0.0, 0.0])

    def test_zero_observation_matrix(self):
        d_omega, d_q = local_correction_terms(np.zeros((2, 4)), np.eye(2), np.ones((1, 2)))
        assert np.array_equal(d_omega, np.zeros((4, 4)))
        assert np.array_equal(d_q, np.zeros((1, 4)))

    def test_against_triple_loop_oracle(self, rng):
        c = rng.normal(size=(2, 4))
        v = random_spd(rng, 2)
        y = rng.normal(size=2)
        d_omega, d_q = local_correction_terms(c, v, y[None])
        exp_omega, exp_q = triple_loop_product(c, v, y)
        assert np.allclose(d_omega, exp_omega, atol=1e-12)
        assert np.allclose(d_q[0], exp_q, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            local_correction_terms(np.zeros((2, 4)), np.eye(3), np.ones(2))
        # a single measurement is not a (k, m) stack
        with pytest.raises(ConfigurationError):
            local_correction_terms(np.zeros((2, 4)), np.eye(2), np.ones(2))


class TestInformationState:
    def test_single_estimate_is_rejected(self):
        with pytest.raises(ConfigurationError):
            information_state(np.eye(4), np.zeros(4))
        with pytest.raises(ConfigurationError):
            information_state(np.eye(4), np.zeros((1, 4)))


class TestCentralizedCorrect:
    def test_identity_contribution(self):
        prior = information_state(np.eye(2)[None], np.zeros((1, 2)))
        post = centralized_correct(prior, np.eye(2), np.eye(2), np.array([[1.0, 1.0]]))
        assert np.allclose(post.omega[0], 2 * np.eye(2))
        assert np.allclose(post.q[0], [1.0, 1.0])

    def test_identical_contributions_scale_linearly(self):
        c = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        v = np.diag([0.04, 0.04])
        y = np.array([10.0, -4.0])
        prior = information_state(np.zeros((1, 4, 4)), np.zeros((1, 4)))
        post = centralized_correct(prior, c, v, np.tile(y, (10, 1)))
        single_omega, single_q = local_correction_terms(c, v, y[None])
        assert np.allclose(post.omega[0], 10 * single_omega, atol=1e-12)
        assert np.allclose(post.omega[0], np.diag([0.4, 0.4, 0.0, 0.0]))
        assert np.allclose(post.q[0], 10 * single_q[0], atol=1e-12)

    def test_empty_contributions_keep_prior(self):
        prior = information_state(np.diag([1.0, 2.0])[None], np.array([[3.0, 4.0]]))
        post = centralized_correct(prior, np.eye(2), np.eye(2), np.zeros((0, 2)))
        assert np.array_equal(post.omega, prior.omega)
        assert np.array_equal(post.q, prior.q)

    def test_order_independence(self, rng):
        prior = information_state(random_spd(rng, 4)[None], rng.normal(size=(1, 4)))
        c, v, ys = rng.normal(size=(2, 4)), random_spd(rng, 2), rng.normal(size=(4, 2))
        # reference: add the measurements' terms one at a time
        omega, q = prior.omega, prior.q
        for y in ys:
            d_omega, d_q = local_correction_terms(c, v, y[None])
            omega, q = omega + d_omega, q + d_q
        for perm in itertools.permutations(range(4)):
            post = centralized_correct(prior, c, v, ys[list(perm)])
            assert_rel_close(post.omega, omega)
            assert_rel_close(post.q, q)


class TestPredict:
    def test_symmetric_halving(self):
        post = information_state(np.eye(3)[None], np.zeros((1, 3)))
        pred = predict(post, np.eye(3), np.eye(3))
        assert np.allclose(pred.omega[0], 0.5 * np.eye(3))
        assert np.allclose(pred.q[0], np.zeros(3))

    def test_against_covariance_recursion_oracle(self, rng):
        for _ in range(10):
            omega = random_spd(rng, 4)
            q_vec = rng.normal(size=4)
            a = random_spd(rng, 4) / 4 + np.eye(4)
            q_cov = random_spd(rng, 4)
            pred = predict(information_state(omega[None], q_vec[None]), a, q_cov)
            p_next = a @ np.linalg.inv(omega) @ a.T + q_cov
            exp_omega = np.linalg.inv(p_next)
            exp_x = a @ np.linalg.solve(omega, q_vec)
            rel = np.linalg.norm(pred.omega[0] - exp_omega) / np.linalg.norm(exp_omega)
            assert rel < 1e-10
            assert np.allclose(np.linalg.solve(pred.omega[0], pred.q[0]), exp_x, rtol=1e-8)

    def test_singular_posterior_is_regularized_and_logged(self):
        log = NumericsLog()
        post = information_state(np.diag([0.4, 0.4, 0.0, 0.0])[None],
                                 np.array([[4.0, 0, 0, 0]]))
        pred = predict(post, np.eye(4), np.eye(4), log=log)
        assert log.count("regularize") == 1
        assert np.all(np.isfinite(pred.omega))

    @given(st.integers(min_value=0, max_value=10000))
    @settings(max_examples=25, deadline=None)
    def test_preserves_symmetry_and_positive_definiteness(self, seed):
        rng = np.random.default_rng(seed)
        post = information_state(random_spd(rng, 4)[None], rng.normal(size=(1, 4)))
        a = np.eye(4) + 0.1 * rng.normal(size=(4, 4))
        pred = predict(post, a, random_spd(rng, 4))
        assert np.array_equal(pred.omega[0], pred.omega[0].T)
        assert np.linalg.eigvalsh(pred.omega[0]).min() > 0


class TestToStateEstimate:
    def test_diagonal_solve(self):
        s = information_state(2 * np.eye(2)[None], np.array([[4.0, 6.0]]))
        assert np.allclose(to_state_estimate(s)[0], [2.0, 3.0])

    def test_zero_information_gives_zero_with_flag(self):
        log = NumericsLog()
        s = information_state(np.zeros((1, 4, 4)), np.zeros((1, 4)))
        assert np.array_equal(to_state_estimate(s, log)[0], np.zeros(4))
        assert log.count("singular_solve") == 1

    def test_rank_deficient_minimum_norm(self):
        s = information_state(np.diag([1.0, 1.0, 0.0, 0.0])[None],
                              np.array([[3.0, 4.0, 0.0, 0.0]]))
        x = to_state_estimate(s)[0]
        expected = np.linalg.pinv(s.omega[0]) @ s.q[0]
        assert np.allclose(x, [3.0, 4.0, 0.0, 0.0])
        assert np.allclose(x, expected, atol=1e-12)


class TestInformationFormMatchesCovarianceForm:
    def test_fifty_step_equivalence(self, rng):
        n, m = 4, 2
        a = np.eye(n) + 0.1 * rng.normal(size=(n, n))
        q_cov = random_spd(rng, n)
        c = rng.normal(size=(m, n))
        r = random_spd(rng, m)
        p0 = random_spd(rng, n)
        x0 = rng.normal(size=n)

        omega = np.linalg.inv(p0)
        state = information_state(omega[None], (omega @ x0)[None])
        v = symmetrize(np.linalg.inv(r))

        ys = [[rng.normal(size=m)] for _ in range(50)]
        xs_ref, ps_ref = run_kf(x0, p0, a, q_cov, [(c, r)], ys)

        for t in range(50):
            post = centralized_correct(state, c, v, np.array(ys[t]))
            x_hat = to_state_estimate(post)[0]
            p_hat = np.linalg.inv(post.omega[0])
            assert np.allclose(x_hat, xs_ref[t], rtol=1e-9, atol=1e-11)
            assert np.linalg.norm(p_hat - ps_ref[t]) / np.linalg.norm(ps_ref[t]) < 1e-9
            state = predict(post, a, q_cov)


def mixed_slice(rng, kind, n=4):
    """One information matrix of the given kind."""
    if kind == "spd":
        return random_spd(rng, n, scale=10.0 ** rng.uniform(-3, 3))
    if kind == "tiny":  # well conditioned, yet every eigenvalue below the threshold
        return random_spd(rng, n, scale=10.0 ** rng.uniform(-15, -12))
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "rank_deficient":
        b = rng.normal(size=(n, int(rng.integers(1, n))))
        return b @ b.T
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if kind == "indefinite":  # one eigenvalue just below zero
        eigs = [-10.0 ** rng.uniform(-13, -9)] + list(rng.uniform(0.5, 5.0, n - 1))
    else:  # just above the singular threshold, yet Cholesky may fail in rounding
        eigs = [2e-10] + list(10.0 ** rng.uniform(7, 8, n - 1))
    return (basis * np.array(eigs)) @ basis.T


def outcome(fn, arg):
    """(result or None when it raised FilterNumericsError, log)."""
    log = NumericsLog()
    try:
        return fn(arg, log), log
    except FilterNumericsError:
        return None, log


KIND_NAMES = ["spd", "tiny", "zero", "rank_deficient", "indefinite", "near_threshold"]
MIXED_KINDS = st.lists(st.sampled_from(KIND_NAMES), min_size=1, max_size=12)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestStackedPrimitives:
    """A stack of N slices gives, slice by slice, what N one-slice calls
    give, and logs the same events, each tagged with its slice index."""

    @given(MIXED_KINDS, SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_slices_match_single_calls(self, kinds, seed):
        rng = np.random.default_rng(seed)
        stack = information_state(np.array([mixed_slice(rng, kind) for kind in kinds]),
                                  rng.normal(size=(len(kinds), 4)))
        singles = [information_state(o[None], q[None]) for o, q in zip(stack.omega, stack.q)]
        single_omegas = [s.omega for s in singles]
        a = np.eye(4) + 0.1 * rng.normal(size=(4, 4))
        q_cov = random_spd(rng, 4)

        def predicted(state, log):
            out = predict(state, a, q_cov, log)
            return np.concatenate([out.omega, out.q[..., None]], axis=-1)

        for fn, stacked, single in [
            (to_state_estimate, stack, singles),
            (predicted, stack, singles),
            (lambda m, log: ensure_invertible(m, log, "test"), stack.omega, single_omegas),
            (lambda m, log: inv_spd(ensure_invertible(m), log, "test"), stack.omega,
             single_omegas),
        ]:
            got, log = outcome(fn, stacked)
            expected = [outcome(fn, x) for x in single]
            if any(e is None for e, _ in expected):
                assert got is None  # inv_spd raises for the stack if for any slice
                continue
            assert got is not None
            for k, (e, single_log) in enumerate(expected):
                assert_rel_close(got[k], e[0])
                for kind in ("regularize", "singular_solve", "ill_conditioned"):
                    tagged = [ev for ev in log.events if ev["kind"] == kind and ev["node"] == k]
                    assert len(tagged) == single_log.count(kind)
            assert all("node" in ev for ev in log.events)


def event_tags(log):
    return Counter((e["kind"], e["node"]) for e in log.events)


class TestFlaggedPass:
    """The slices on the LAPACK path go through one batched pass; it gives
    what the per-slice loops it replaced give (tests/recovery_reference.py)."""

    @given(MIXED_KINDS, SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_estimates_equal_lstsq_loop(self, kinds, seed):
        # the batched SVD and lstsq's own SVD round differently; over 4,000
        # drawn stacks the largest difference was 3.2e-13 of the slice's
        # largest entry, so 1e-12 is the tightest round tolerance they meet.
        # The eigenvalues, and so every event, are the same to the bit.
        rng = np.random.default_rng(seed)
        stack = information_state(np.array([mixed_slice(rng, kind) for kind in kinds]),
                                  rng.normal(size=(len(kinds), 4)))
        got_log, expected_log = NumericsLog(), NumericsLog()
        got = to_state_estimate(stack, got_log)
        expected = estimates_loop(stack.omega, stack.q, expected_log)
        for g, e in zip(got, expected):
            assert_rel_close(g, e, 1e-12)
        assert got_log.events == expected_log.events

    @given(MIXED_KINDS, SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_shift_equals_per_slice_loop(self, kinds, seed):
        rng = np.random.default_rng(seed)
        stack = symmetrize(np.array([mixed_slice(rng, kind) for kind in kinds]))
        got_log, expected_log = NumericsLog(), NumericsLog()
        got = ensure_invertible(stack, got_log, "test")
        assert np.array_equal(got, regularize_loop(stack, expected_log, "test"))
        assert got_log.events == expected_log.events

    @pytest.mark.parametrize("kinds", [["zero", "tiny", "rank_deficient", "indefinite"] * 2,
                                       ["spd", "zero", "rank_deficient", "spd", "tiny"]])
    def test_only_slices_that_pass_the_singular_test_are_factored(self, rng, monkeypatch,
                                                                  kinds):
        # sym(B) is factored for the estimate only on the slices at or above
        # SINGULAR_EIG; every other slice goes straight to the minimum-norm
        # solve, and the path factors just the shifted posterior and the
        # predicted covariance besides
        b_mat = np.array([mixed_slice(rng, kind) for kind in kinds])
        b_vec = rng.normal(size=(len(kinds), 4))
        k = len(kinds)
        regular = np.linalg.eigvalsh(symmetrize(b_mat))[:, 0] >= SINGULAR_EIG
        assert regular.tolist() == [kind == "spd" for kind in kinds]
        expected_log = NumericsLog()
        expected = estimates_loop(b_mat, b_vec, expected_log)
        factored = []
        cholesky = _umath_linalg.cholesky_lo

        def counting(m, **kwargs):
            factored.append(len(m))
            return cholesky(m, **kwargs)
        monkeypatch.setattr(_umath_linalg, "cholesky_lo", counting)
        log = NumericsLog()
        x, _ = info_filter._recover_lapack(b_mat, b_vec, np.full(k, 10.0), np.arange(k), log,
                                           True, (constant_velocity_matrix(0.1), np.eye(4)))
        assert factored == [regular.sum()] * int(regular.any()) + [k, k]
        for g, e in zip(x, expected):
            assert_rel_close(g, e, 1e-12)
        assert [e for e in log.events if e["kind"] == "singular_solve"] == expected_log.events

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (3, 3), (2, 1)])
    def test_non_finite_slice_still_raises(self, rng, bad, entry):
        # finiteness is checked only by the eigenvalue call of the LAPACK
        # path: the closed form must never take a non-finite slice, in a
        # stack as wide as the sweep's whose other slices it takes
        b_mat = np.array([block_slice(rng, ("spd", "spd")) for _ in range(91)])
        b_vec = rng.normal(size=(91, 4))
        b_mat[57][entry] = bad
        b_mat[57][entry[::-1]] = bad
        state = InformationState(b_mat, b_vec)
        for call in (lambda: fused_step(b_mat, b_vec, 10, np.eye(4), np.eye(4)),
                     lambda: predict(state, np.eye(4), np.eye(4)),
                     lambda: to_state_estimate(state)):
            with pytest.raises(FilterNumericsError, match="non-finite information matrix"):
                call()


class TestTriangularInverse:
    """The substitution inverse of the Cholesky factors, which every
    recovery step takes, against numpy's general LU inverse."""

    @given(SEEDS, st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=700),
           st.lists(st.sampled_from(KIND_NAMES), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    @example(0, 4, 700, KIND_NAMES)
    @example(1, 6, 601, KIND_NAMES)
    def test_agrees_with_lu_inverse_within_residual_bound(self, seed, n, count, kinds):
        rng = np.random.default_rng(seed)
        stack = symmetrize(np.array([mixed_slice(rng, kinds[k % len(kinds)], n)
                                     for k in range(count)]))
        # the identity where the factorization fails, as _cholesky leaves it
        c = np.broadcast_to(np.eye(n), stack.shape).copy()
        failed = []
        for k in range(count):
            try:
                c[k] = np.linalg.cholesky(stack[k])
            except np.linalg.LinAlgError:
                failed.append(k)
        x = _inv_lower(c)
        expected = np.linalg.inv(c)
        for k in range(count):
            assert_rel_close(x[k], expected[k], 1e-12)
        eps = np.finfo(float).eps
        assert np.all(np.abs(x @ c - np.eye(n)) <= n * eps * (np.abs(x) @ np.abs(c)))
        assert np.array_equal(x[failed], c[failed])


class TestRecoverAndPredict:
    """The fused posterior step gives, slice by slice, what its two unfused
    steps give: to_state_estimate on the consensus pairs (B, b), then
    predict on the posterior (N B, N b), with the same events. The unfused
    steps are the LAPACK path alone, so this checks the closed form
    against it."""

    @given(MIXED_KINDS, SEEDS, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_equals_estimate_then_predict(self, kinds, seed, scale):
        rng = np.random.default_rng(seed)
        b_mat = np.array([mixed_slice(rng, kind) for kind in kinds])
        b_vec = rng.normal(size=(len(kinds), 4))
        a = np.eye(4) + 0.1 * rng.normal(size=(4, 4))
        q_cov = random_spd(rng, 4)

        def fused(pair, log):
            return fused_step(*pair, scale, a, q_cov, log)

        def unfused(pair, log):
            x = to_state_estimate(information_state(*pair), log)
            posterior = information_state(scale * pair[0], scale * pair[1])
            return posterior, x, predict(posterior, a, q_cov, log)

        cases = [(b_mat, b_vec)] + [(m[None], v[None]) for m, v in zip(b_mat, b_vec)]
        for pair in cases:
            got, got_log = outcome(fused, pair)
            expected, expected_log = outcome(unfused, pair)
            if expected is None:
                assert got is None
                continue
            assert got is not None
            (got_post, got_x, got_next), (post, x, nxt) = got, expected
            for g, e in [(got_post.omega, post.omega), (got_post.q, post.q), (got_x, x),
                         (got_next.omega, nxt.omega), (got_next.q, nxt.q)]:
                assert g.shape == e.shape
                for g_k, e_k in zip(g, e):
                    assert_rel_close(g_k, e_k)
            assert event_tags(got_log) == event_tags(expected_log)
            assert all("node" in ev for ev in got_log.events)


def block_slice(rng, kinds):
    """A 4 x 4 information matrix, block-diagonal in the axis blocks (x, vx)
    and (y, vy) of the state [x, y, vx, vy], whose two 2 x 2 blocks are
    mixed_slice matrices of the given kinds."""
    out = np.zeros((4, 4))
    for axis, kind in enumerate(kinds):
        out[np.ix_([axis, axis + 2], [axis, axis + 2])] = mixed_slice(rng, kind, 2)
    return out


def lapack_sends(monkeypatch):
    """The `nodes` of every call to the LAPACK path, while monkeypatch holds."""
    sent = []
    lapack = info_filter._recover_lapack

    def spy(b_mat, b_vec, scale, nodes, *rest):
        sent.append(nodes.tolist())
        return lapack(b_mat, b_vec, scale, nodes, *rest)
    monkeypatch.setattr(info_filter, "_recover_lapack", spy)
    return sent


def block_model(rng):
    """A constant-velocity A, whose two axes step by the same dt or not,
    and a Q, both block-diagonal in the axis blocks."""
    a = constant_velocity_matrix(rng.uniform(0.01, 1.0))
    a[1, 3] = rng.choice([a[0, 2], rng.uniform(0.01, 1.0)])
    return a, block_slice(rng, ("spd", "spd"))


BLOCK_KINDS = st.lists(st.tuples(st.sampled_from(KIND_NAMES), st.sampled_from(KIND_NAMES)),
                       min_size=1, max_size=12)


class TestCertificate:
    """The closed form's certificate is the only one: a slice that
    `_recover_blocks` takes skips every eigenvalue check, so the
    certificate must never claim more than eigvalsh finds."""

    @given(BLOCK_KINDS, SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_bound_never_exceeds_smallest_eigenvalue(self, kinds, seed):
        rng = np.random.default_rng(seed)
        b_mat = np.array([block_slice(rng, pair) for pair in kinds])
        b_vec = rng.normal(size=(len(kinds), 4))
        layout, blocks = info_filter.block_layouts(4, block_model(rng))
        eig_min = np.linalg.eigvalsh(symmetrize(b_mat))[:, 0]
        taken, _, _ = info_filter._recover_blocks(b_mat, b_vec, np.ones(len(kinds)), layout,
                                                  blocks)
        assert np.all(eig_min[taken] >= SINGULAR_EIG)
        # well-conditioned blocks are taken; every kind near or below the
        # singular threshold takes the eigenvalue policy
        assert list(taken) == [pair == ("spd", "spd") for pair in kinds]

    def test_certified_slices_skip_eigvalsh(self, rng, monkeypatch):
        checked = []
        eigvalsh = _umath_linalg.eigvalsh_lo

        def counting(m, **kwargs):
            checked.append(len(m))
            return eigvalsh(m, **kwargs)
        monkeypatch.setattr(_umath_linalg, "eigvalsh_lo", counting)
        b_mat = np.array([block_slice(rng, ("spd", "spd")) for _ in range(5)])
        b_vec = rng.normal(size=(5, 4))
        model = block_model(rng)
        fused_step(b_mat, b_vec, 10, *model)
        assert checked == []
        b_mat[3] = 0.0
        fused_step(b_mat, b_vec, 10, *model)
        # one call for the zero slice alone: its B for the estimate and its
        # posterior 10 B for the prediction
        assert checked == [2]


class TestAxisBlockRouting:
    """A slice whose sym(B) is block-diagonal in the axis blocks, and whose
    certificate holds, is recovered and predicted in closed form; every
    other slice takes the LAPACK path, which makes every event."""

    @given(BLOCK_KINDS, SEEDS, st.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_block_path_equals_lapack_path(self, kinds, seed, scale):
        rng = np.random.default_rng(seed)
        b_mat = np.array([block_slice(rng, pair) for pair in kinds])
        b_vec = rng.normal(size=(len(kinds), 4))
        model = block_model(rng)
        scales = np.full(len(kinds), float(scale))

        def routed(pair, log):
            _, x, nxt = fused_step(*pair, scale, *model, log)
            return x, nxt.omega, nxt.q

        def lapack(pair, log):
            x, nxt = info_filter._recover_lapack(*pair, scales, np.arange(len(kinds)), log,
                                                 True, model)
            return x, nxt.omega, nxt.q

        with pytest.MonkeyPatch.context() as mp:
            sent = lapack_sends(mp)
            got, got_log = outcome(routed, (b_mat, b_vec))
        expected, expected_log = outcome(lapack, (b_mat, b_vec))
        if expected is None:
            assert got is None
            return
        # well-conditioned blocks of both axes take the closed form; a block
        # of any other kind is near or below the singular threshold
        assert sum(sent, []) == [k for k, pair in enumerate(kinds) if pair != ("spd", "spd")]
        for g, e in zip(got, expected):
            for g_k, e_k in zip(g, e):
                assert_rel_close(g_k, e_k, 1e-13)
        assert got_log.events == expected_log.events

    @given(st.lists(st.sampled_from(["block", "flagged", "ill_conditioned", "dense"]),
                    min_size=1, max_size=12), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_each_slice_gets_what_it_gets_alone(self, kinds, seed):
        rng = np.random.default_rng(seed)
        # Q is large on positions and tiny on velocities, so a certified
        # slice of a well-conditioned 1e6 I predicts to a covariance with a
        # condition estimate near 1e13
        a, q_cov = constant_velocity_matrix(0.1), np.diag([1e7, 1e7, 1e-8, 1e-8])

        def axis_blocks(first):
            # the axis blocks `first` and an spd block at unit scale: at the
            # top of block_slice's 1e-3..1e3 spd scales, this Q predicts a
            # "block" or "flagged" slice past ILL_CONDITIONED too
            out = np.zeros((4, 4))
            out[0::2, 0::2], out[1::2, 1::2] = first, random_spd(rng, 2)
            return out
        make = {"block": lambda: axis_blocks(random_spd(rng, 2)),
                "flagged": lambda: axis_blocks(
                    mixed_slice(rng, rng.choice(["zero", "rank_deficient"]), 2)),
                "ill_conditioned": lambda: 1e6 * np.eye(4),
                "dense": lambda: random_spd(rng, 4)}
        b_mat = np.array([make[kind]() for kind in kinds])
        b_vec = rng.normal(size=(len(kinds), 4))

        def run(pair):
            log = NumericsLog()
            _, x, nxt = fused_step(*pair, 10, a, q_cov, log)
            return (x, nxt.omega, nxt.q), log.events

        stacked, events = run((b_mat, b_vec))
        for k, kind in enumerate(kinds):
            alone, alone_events = run((b_mat[k:k + 1], b_vec[k:k + 1]))
            for got, expected in zip(stacked, alone):
                assert np.array_equal(got[k], expected[0])
            mine = [{**e, "node": 0} for e in events if e["node"] == k]
            assert mine == alone_events
            kinds_logged = {e["kind"] for e in mine}
            assert kinds_logged == {"block": set(), "dense": set(),
                                    "ill_conditioned": {"ill_conditioned"},
                                    "flagged": {"singular_solve", "regularize"}}[kind]

    def test_block_path_makes_no_event_and_no_lapack_call(self, rng, monkeypatch):
        # the fused step takes the closed form with no LAPACK call; the
        # unfused entries are the LAPACK path, which logs no event for
        # these slices either
        b_mat = np.array([block_slice(rng, ("spd", "spd")) for _ in range(91)])
        b_vec = rng.normal(size=(91, 4))
        sent = lapack_sends(monkeypatch)
        log = NumericsLog()
        fused_step(b_mat, b_vec, 10, *block_model(rng), log)
        assert sent == []
        predict(InformationState(b_mat, b_vec), *block_model(rng), log)
        to_state_estimate(InformationState(b_mat, b_vec), log)
        assert log.events == []

    @pytest.mark.parametrize("model", ["constant_velocity", "diagonal"])
    def test_only_the_fused_step_takes_the_closed_form(self, rng, monkeypatch, model):
        # predict and to_state_estimate are the LAPACK path. The fused step
        # tries the model's one split once per call, and sends every slice
        # that it declines to the LAPACK path in one call, also when A and
        # Q are block-diagonal in more than one split (the diagonal model,
        # in every split: the first one takes none of these slices)
        b_mat = np.array([block_slice(rng, ("spd", "spd")) for _ in range(9)])
        b_mat[[2, 5]] = 0.0
        b_vec = rng.normal(size=(9, 4))
        a, q_cov = (block_model(rng) if model == "constant_velocity"
                    else (np.eye(4), np.diag(rng.uniform(0.5, 2.0, size=4))))
        tried = []
        recover_blocks = info_filter._recover_blocks

        def spy(b_mat, *rest):
            tried.append(len(b_mat))
            return recover_blocks(b_mat, *rest)
        monkeypatch.setattr(info_filter, "_recover_blocks", spy)
        sent = lapack_sends(monkeypatch)
        state = InformationState(b_mat, b_vec)
        predict(state, a, q_cov)
        to_state_estimate(state)
        assert tried == []
        assert sent == [list(range(9))] * 2
        declined = [2, 5] if model == "constant_velocity" else list(range(9))
        for calls in range(1, 4):
            sent.clear()
            fused_step(b_mat, b_vec, 10, a, q_cov)
            assert tried == [9] * calls
            assert sent == [declined]

    def test_zero_information_stack_factors_in_one_call(self, monkeypatch):
        # at t = 0 every slice of a run is zero-information: each one fails
        # the batched factorization, and none is factored again alone
        single = []
        cholesky = np.linalg.cholesky

        def counting(m, *args, **kwargs):
            single.append(m.shape)
            return cholesky(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        log = NumericsLog()
        _, x, _ = fused_step(np.zeros((91, 4, 4)), np.zeros((91, 4)), 10,
                             constant_velocity_matrix(0.1), np.eye(4), log)
        assert single == []
        assert np.array_equal(x, np.zeros((91, 4)))
        assert log.count("singular_solve") == 91 and log.count("regularize") == 91

    @pytest.mark.parametrize("perm, exact", [([0, 1, 2, 3], True), ([0, 2, 1, 3], True),
                                             ([3, 1, 0, 2], False)])
    def test_any_state_order_takes_the_closed_form(self, rng, monkeypatch, perm, exact):
        # the split into blocks comes from A's and Q's zeros: a state whose
        # entries are reordered is recovered in closed form all the same,
        # reordered; with the same bits while each block keeps its order
        # (the last order factors each block from its velocity)
        b_mat = np.array([block_slice(rng, ("spd", "spd")) for _ in range(7)])
        b_vec = rng.normal(size=(7, 4))
        a, q_cov = block_model(rng)
        def reorder(m):
            return m[..., perm, :][..., perm]
        sent = lapack_sends(monkeypatch)
        _, x, nxt = fused_step(b_mat, b_vec, 10, a, q_cov)
        b_vec_p = b_vec[:, perm]
        _, x_p, nxt_p = fused_step(reorder(b_mat), b_vec_p, 10, reorder(a), reorder(q_cov))
        assert sent == []
        # to_state_estimate is the LAPACK path, whose rounding differs
        alone = to_state_estimate(InformationState(reorder(b_mat), b_vec_p))
        for g_k, e_k in zip(x_p, alone):
            assert_rel_close(g_k, e_k, 1e-13)
        for got, expected in ((x_p, x[:, perm]), (nxt_p.omega, reorder(nxt.omega)),
                              (nxt_p.q, nxt.q[:, perm])):
            if exact:
                assert np.array_equal(got, expected)
            for g_k, e_k in zip(got, expected):
                assert_rel_close(g_k, e_k, 1e-13)

    def test_condition_threshold_events_match_lapack_path(self, monkeypatch):
        # slices whose posterior, or predicted covariance, has a condition
        # estimate within a few ulps of ILL_CONDITIONED or of the closed
        # form's own bound of half of it: the closed form keeps none that
        # the LAPACK path would log as ill-conditioned
        eps, ill = np.finfo(float).eps, info_filter.ILL_CONDITIONED
        ulps = [j * eps for j in range(-4, 5)]
        cases = []
        for t in (ill / 2, ill):
            # sym(B) = diag(c, 1, 1, 1)
            cases.append((t, 1, np.array([np.diag([t * (1 + d), 1, 1, 1])
                                          for d in ulps + [-1e-3, 1e-3]]),
                          constant_velocity_matrix(0.1), np.diag([10.0, 10.0, 1.0, 1.0])))
            # P = diag(1 + t d, 1, 1, 1) predicts through A = I and
            # Q = diag(t - 1, 0, 0, 0) to diag(t (1 + d), 1, 1, 1)
            cases.append((t, 1, np.array([np.diag([1 / (1 + t * d), 1, 1, 1]) for d in ulps]),
                          np.eye(4), np.diag([t - 1, 0.0, 0.0, 0.0])))
        # found by search: the (x, vx) block scaled by 1 + j eps, j in
        # -100..100, and Q's vx entry, so that the LAPACK path's predicted
        # condition estimate runs through ILL_CONDITIONED along the stack,
        # where the closed form's own estimate reads a few ulps lower
        rng = np.random.default_rng(4)
        blocks = [m @ m.T + 0.5 * np.eye(2) for m in rng.normal(size=(2, 2, 2))]
        b_mat = np.zeros((201, 4, 4))
        b_mat[:, 0::2, 0::2] = blocks[0] * (1 + np.arange(-100, 101) * eps)[:, None, None]
        b_mat[:, 1::2, 1::2] = blocks[1]
        searched = (ill, 3, b_mat, constant_velocity_matrix(0.1),
                    np.diag([1e-3, float.fromhex("0x1.3e57ae53b57d8p+36"), 1e-3, 1e-3]))
        cases.append(searched)
        lapack_path, sent = info_filter._recover_lapack, lapack_sends(monkeypatch)
        for t, scale, b_mat, a, q_cov in cases:
            k = len(b_mat)
            b_vec = np.ones((k, 4))
            sent.clear()
            routed, lapack = NumericsLog(), NumericsLog()
            _, x, nxt = fused_step(b_mat, b_vec, scale, a, q_cov, routed)
            x_l, nxt_l = lapack_path(b_mat, b_vec, np.full(k, float(scale)), np.arange(k), lapack,
                                     True, (a, q_cov))
            assert routed.events == lapack.events
            for got, expected in ((x, x_l), (nxt.omega, nxt_l.omega), (nxt.q, nxt_l.q)):
                for g_k, e_k in zip(got, expected):
                    assert_rel_close(g_k, e_k, 1e-13)
            nodes = sum(sent, [])
            if t == ill:  # at the threshold: every slice
                assert nodes == list(range(k))
            elif k > len(ulps):  # 1e-3 below half of it, and above
                assert len(ulps) not in nodes and len(ulps) + 1 in nodes
        # the margin is what sends the searched stack's threshold slices to
        # the LAPACK path: at ILL_CONDITIONED the closed form would take a
        # slice that the LAPACK path logs as ill-conditioned, and lose its event
        logged = [e["node"] for e in lapack.events if e["kind"] == "ill_conditioned"]
        _, scale, b_mat, a, q_cov = searched
        k = len(b_mat)
        layout, blocks = info_filter.block_layouts(4, (a, q_cov))
        monkeypatch.setattr(info_filter, "_BLOCK_COND", ill)
        taken, _, _ = info_filter._recover_blocks(b_mat, np.ones((k, 4)), np.full(k, float(scale)),
                                                  layout, blocks)
        assert taken[logged].any()
