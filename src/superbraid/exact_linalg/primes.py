"""Certified primality of the moduli that name prime fields."""

from __future__ import annotations

from math import isqrt

# Miller-Rabin with these bases is exact for every n < 3.3 * 10^24
# (Sorenson and Webster, Math. Comp. 86 (2017)), so for every n < 2^64.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_LIMIT = 1 << 64


def require_prime(p: int) -> int:
    """Return p if it is a certified prime below 2^64; else raise ValueError.

    Trial division by the bases settles every p below 41^2; a deterministic
    Miller-Rabin test settles the rest.  Nothing at or above 2^64 is
    accepted, since the bases certify no further.
    """
    if p < 2:
        raise ValueError(f"{p} is not prime")
    if p >= _LIMIT:
        raise ValueError(f"{p} is not below 2^64, so its primality is "
                         "not certified")
    root = isqrt(p)
    for q in _BASES:
        if q > root:
            return p
        if p % q == 0:
            raise ValueError(f"{p} is not prime")
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _BASES:
        x = pow(a, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not prime")
    return p
