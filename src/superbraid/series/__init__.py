"""The reference generating series, each built from its factor list."""

from .bivariate import BivariateSeries
from .poincare import (
    compare_local,
    local_series,
    local_series_collapsed,
    stable_series,
)

__all__ = [
    "BivariateSeries",
    "compare_local",
    "local_series",
    "local_series_collapsed",
    "stable_series",
]
