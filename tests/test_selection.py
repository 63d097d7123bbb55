import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_reference import mask_vector
from icfpie.errors import ConfigurationError
from icfpie.harness import AlgorithmSpec, ScenarioConfig, make_algorithms
from icfpie.selection import build_schedule, default_schedule


class TestBuildSchedule:
    def test_two_entry_case(self):
        sched = build_schedule(4, [[1, 3], [2, 4]])
        assert sched.theta_bar == 2
        assert np.array_equal(sched.rows_at(0), [0, 2])
        assert np.array_equal(sched.rows_at(1), [1, 3])

    def test_single_entry_case(self):
        sched = build_schedule(4, [[1], [2], [3], [4]])
        assert sched.theta_bar == 4
        for z in range(4):
            assert np.array_equal(sched.rows_at(z), [z])

    def test_full_exchange(self):
        sched = build_schedule(4, [[1, 2, 3, 4]])
        assert sched.theta_bar == 1
        assert np.array_equal(sched.rows_at(0), np.arange(4))

    def test_overlap_rejected(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            build_schedule(4, [[1, 2], [2, 3, 4]])

    def test_coverage_rejected(self):
        with pytest.raises(ConfigurationError, match="cover"):
            build_schedule(4, [[1, 2], [3]])

    def test_empty_subset_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            build_schedule(4, [[1, 2, 3, 4], []])

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            build_schedule(4, [[1, 2], [3, 5]])

    def test_defaults_match_explicit(self):
        assert default_schedule(4, "case1").subsets == ((1, 3), (2, 4))
        assert default_schedule(4, "case2").subsets == ((1,), (2,), (3,), (4,))
        assert default_schedule(4, "identity").subsets == ((1, 2, 3, 4),)


class TestScheduleEquality:
    def test_equal_subsets_compare_and_hash_equal(self):
        # rows is derived from subsets, so n and subsets decide equality
        named = default_schedule(4, "case1")
        explicit = build_schedule(4, [[1, 3], [2, 4]])
        assert named == explicit and hash(named) == hash(explicit)
        assert named != default_schedule(4, "case2")
        assert len({named, explicit, default_schedule(4, "identity")}) == 2
        assert AlgorithmSpec("icfpie", "1", named) == AlgorithmSpec("icfpie", "1", explicit)
        cfg = ScenarioConfig()
        assert make_algorithms(cfg) == make_algorithms(cfg)


class TestMaskAt:
    """The diagonal of the selection matrix at step l, in the mask form that
    the step-by-step consensus reference consumes."""

    def test_cyclic_alternation(self):
        sched = build_schedule(4, [[1, 3], [2, 4]])
        assert np.array_equal(mask_vector(sched, 0), [1.0, 0.0, 1.0, 0.0])
        assert np.array_equal(mask_vector(sched, 1), [0.0, 1.0, 0.0, 1.0])
        assert np.array_equal(mask_vector(sched, 2), [1.0, 0.0, 1.0, 0.0])

    def test_identity_for_all_steps(self):
        sched = build_schedule(4, [[1, 2, 3, 4]])
        for l in range(6):
            assert np.array_equal(mask_vector(sched, l), np.ones(4))

    def test_single_entry_step_seven(self):
        # 7 mod 4 = 3, so the fourth subset {4} is selected
        sched = build_schedule(4, [[1], [2], [3], [4]])
        assert np.array_equal(mask_vector(sched, 7), [0.0, 0.0, 0.0, 1.0])


@st.composite
def random_partition(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    indices = list(range(1, n + 1))
    perm = draw(st.permutations(indices))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1), max_size=n - 1))) \
        if n > 1 else []
    bounds = [0] + cuts + [n]
    subsets = [perm[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return n, subsets


@given(random_partition())
@settings(max_examples=50, deadline=None)
def test_masks_sum_to_identity(np_subsets):
    """The selection matrices of one cycle sum to the identity: the row
    sets of one cycle partition 0..n-1."""
    n, subsets = np_subsets
    sched = build_schedule(n, subsets)
    rows = np.concatenate([sched.rows_at(z) for z in range(sched.theta_bar)])
    assert np.array_equal(np.sort(rows), np.arange(n))


@given(random_partition(), st.integers(min_value=0, max_value=30))
@settings(max_examples=50, deadline=None)
def test_mask_periodicity_and_idempotence(np_subsets, l):
    """The rows selected at step l repeat with period theta, are the
    subset of phase l mod theta, and hold no row twice (a 0/1 selection)."""
    n, subsets = np_subsets
    sched = build_schedule(n, subsets)
    rows = sched.rows_at(l)
    assert np.array_equal(rows, sched.rows_at(l + sched.theta_bar))
    assert np.array_equal(rows, np.unique(rows))
    assert set(rows + 1) == set(subsets[l % sched.theta_bar])
