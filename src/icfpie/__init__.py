"""Distributed information-weighted consensus filtering with partial
(entry-selected) information exchange, a centralized information-filter
benchmark, and a reproducible Monte-Carlo tracking harness."""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    ConsensusCycleWarning,
    DegenerateHeadingWarning,
    FilterNumericsError,
    PlacementError,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "ConsensusCycleWarning",
    "DegenerateHeadingWarning",
    "FilterNumericsError",
    "PlacementError",
]
