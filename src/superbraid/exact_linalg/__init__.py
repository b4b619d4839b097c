"""Exact integer linear algebra: sparse matrices, Smith form, modular ranks."""

from .matrix import IntMatrix, product_is_zero
from .snf import AbelianGroup, SmithForm, rank_mod_p, snf

__all__ = [
    "IntMatrix",
    "product_is_zero",
    "AbelianGroup",
    "SmithForm",
    "rank_mod_p",
    "snf",
]
