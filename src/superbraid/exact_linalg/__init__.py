"""Exact integer linear algebra: sparse matrices, Smith form, modular ranks,
integer factorisation, and the primality of the moduli."""

from .matrix import (CooMatrix, IntMatrix, exact, first_nonzero_product,
                     product_is_zero)
from .primes import prime_power_base, require_prime
from .snf import AbelianGroup, SmithForm, prime_factors, rank_mod_p, snf

__all__ = [
    "CooMatrix",
    "IntMatrix",
    "exact",
    "first_nonzero_product",
    "prime_factors",
    "prime_power_base",
    "product_is_zero",
    "AbelianGroup",
    "SmithForm",
    "rank_mod_p",
    "require_prime",
    "snf",
]
