"""Certified primality of the moduli that name prime fields, and of the
primes of prime-power torsion."""

from __future__ import annotations

import math

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
    root = math.isqrt(p)
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


# A prime modulus for a cheap first test of r^k == q.
_QUICK_MODULUS = (1 << 61) - 1


def _iroot(q: int, k: int, guess: float) -> int:
    """floor(q ** (1/k)), by Newton's method from just above guess, a
    floating-point estimate good to far better than 2^-30."""
    r = int(guess * (1 + 2.0**-30)) + 1
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power_base(q: int) -> int:
    """The prime p of a prime power q = p^k (k >= 1), if require_prime
    certifies p; else raise ValueError.

    A certifiable p is below 2^64, so p^k = q only for k >= bits(q) / 64,
    and the largest k for which q has an exact k-th root gives p itself,
    since a prime is no perfect power.  Each root is estimated in floating
    point (exact below 2^32, refined by Newton's method above) and tested
    mod a prime before the exact power, so even a q of thousands of digits
    is settled in milliseconds.
    """
    if q >= 2:
        bits, log_q, residue = q.bit_length(), math.log2(q), q % _QUICK_MODULUS
        for k in range(bits, (bits + 63) // 64 - 1, -1):
            guess = 2 ** (log_q / k)
            # Below 2^32 the estimate rounds to any exact root; Newton's
            # method there, on every k, makes a 4 000-digit q 18x slower.
            r = round(guess) if guess < 1 << 32 else _iroot(q, k, guess)
            if r > 1 and pow(r, k, _QUICK_MODULUS) == residue and r ** k == q:
                try:
                    return require_prime(r)
                except ValueError:
                    break
    raise ValueError(f"{q} is not a power of a certified prime")
