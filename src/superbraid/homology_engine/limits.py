"""Budget guard for the exact linear algebra.

The budget is a crude upper bound, in bits, for the dense working set of a
Smith normal form; it exists so runaway inputs fail fast with a typed error
instead of thrashing.  Configured via SUPERBRAID_BIT_BUDGET.
"""

from __future__ import annotations

import os

DEFAULT_BIT_BUDGET = 1 << 34


class ResourceLimitError(RuntimeError):
    """A computation would exceed the configured bit budget."""


def bit_budget() -> int:
    raw = os.environ.get("SUPERBRAID_BIT_BUDGET")
    if raw is None:
        return DEFAULT_BIT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ResourceLimitError(f"SUPERBRAID_BIT_BUDGET={raw!r} is not an integer")
    if value <= 0:
        raise ResourceLimitError("SUPERBRAID_BIT_BUDGET must be positive")
    return value


def charge(nrows: int, ncols: int, max_abs: int):
    """Raise ResourceLimitError if a dense reduction might not fit."""
    limit = bit_budget()
    entry_bits = max(max_abs, 1).bit_length() + 1
    needed = nrows * ncols * entry_bits
    if needed > limit:
        raise ResourceLimitError(
            f"estimated {needed} bits for a {nrows}x{ncols} reduction "
            f"exceeds the budget of {limit} bits")
