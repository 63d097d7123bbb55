"""Entry-selection schedules for partial information exchange.

A schedule partitions the state indices {1..n} into ordered subsets
J_1..J_theta. At consensus step l every node broadcasts only the rows of
its information matrix (and entries of its information vector) whose
indices lie in the subset for that step; subsets cycle with period theta.
The subsets must be nonempty, pairwise disjoint, and cover {1..n}, so one
full cycle selects every row exactly once. The paper writes each subset
as a diagonal 0/1 selection matrix; the package keeps only its 0-based
row indices.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class EntrySelectionSchedule:
    """Cyclic family of selected row sets over an n-dim state.

    `subsets` keeps the user-facing 1-based index sets; `rows` holds the
    equivalent 0-based row-index arrays used everywhere internally.
    """

    n: int
    subsets: tuple[tuple[int, ...], ...]
    rows: tuple[np.ndarray, ...] = field(repr=False, compare=False)  # derived from subsets

    @property
    def theta_bar(self) -> int:
        """Number of distinct subsets in one cycle."""
        return len(self.subsets)

    def rows_at(self, l: int) -> np.ndarray:
        """0-based selected row indices for consensus step l."""
        return self.rows[l % self.theta_bar]


def build_schedule(n: int, subsets) -> EntrySelectionSchedule:
    """Validate 1-based index subsets and build the schedule.

    The subsets must partition {1..n}: every subset a sequence of integer
    indices, nonempty, pairwise disjoint, union equal to {1..n}. Raises
    ConfigurationError otherwise.
    """
    if n < 1:
        raise ConfigurationError(f"state dimension must be >= 1, got {n}")
    try:
        subsets = [tuple(s) for s in subsets]
    except TypeError:
        raise ConfigurationError(
            f"subsets must be a list of index lists like [[1, 3], [2, 4]], got {subsets!r}"
        ) from None
    if not subsets:
        raise ConfigurationError("schedule needs at least one subset")
    for s in subsets:
        bad = [i for i in s if not isinstance(i, numbers.Integral) or isinstance(i, bool)]
        if bad:
            raise ConfigurationError(f"subset {list(s)} holds non-integer indices {bad}")
    subsets = [tuple(sorted(int(i) for i in s)) for s in subsets]

    full = set(range(1, n + 1))
    seen: set[int] = set()
    for s in subsets:
        if len(s) == 0:
            raise ConfigurationError("empty selection subset (cardinality must be >= 1)")
        if len(set(s)) != len(s):
            raise ConfigurationError(f"duplicate indices within subset {s}")
        if not set(s) <= full:
            raise ConfigurationError(f"subset {s} has indices outside 1..{n}")
        if seen & set(s):
            raise ConfigurationError(
                f"subsets overlap on indices {sorted(seen & set(s))}; "
                "selection subsets must be pairwise disjoint"
            )
        seen |= set(s)
    if seen != full:
        missing = sorted(full - seen)
        raise ConfigurationError(f"subsets do not cover indices {missing} of 1..{n}")

    rows = tuple(np.array([i - 1 for i in s], dtype=np.intp) for s in subsets)
    return EntrySelectionSchedule(n=n, subsets=tuple(subsets), rows=rows)


def default_schedule(n: int, kind: str) -> EntrySelectionSchedule:
    """Built-in schedules: 'case1' (2 entries/step, strided), 'case2'
    (1 entry/step), 'identity' (full exchange)."""
    if kind == "identity":
        return build_schedule(n, [tuple(range(1, n + 1))])
    if kind == "case1":
        tb = -(-n // 2)  # ceil(n / 2) subsets of at most 2 entries
        return build_schedule(n, [tuple(range(z + 1, n + 1, tb)) for z in range(tb)])
    if kind == "case2":
        return build_schedule(n, [(i,) for i in range(1, n + 1)])
    raise ConfigurationError(f"unknown schedule kind {kind!r}")
