"""Exact integer power series in two variables, truncated to a window."""

from __future__ import annotations


class BivariateSeries:
    """Integer series in q and t with degrees capped at (max_q, max_t).

    Coefficients outside the window are dropped, so every kept
    coefficient is exact.
    """

    __slots__ = ("max_q", "max_t", "coeffs")

    def __init__(self, max_q: int, max_t: int, coeffs=None):
        if max_q < 0 or max_t < 0:
            raise ValueError("truncation orders must be >= 0")
        self.max_q = max_q
        self.max_t = max_t
        self.coeffs = {}
        for (i, n), c in (coeffs or {}).items():
            if c and 0 <= i <= max_q and 0 <= n <= max_t:
                self.coeffs[(i, n)] = c

    @classmethod
    def product(cls, max_q: int, max_t: int, lead, factors):
        """q^i t^n, lead = (i, n), times each factor (a, b, e) in turn.

        e = 1 multiplies by 1 + q^a t^b and e = -1 divides by
        1 - q^a t^b; (a, b) must not be (0, 0).  Each factor is one pass
        over a dense window that adds to each coefficient of q^k t^m the
        one of q^(k-a) t^(m-b): downward for a product, so that one still
        holds its old value; upward for a quotient, so it is already
        divided.
        """
        i, n = lead
        window = [[0] * (max_t + 1) for _ in range(max_q + 1)]
        if 0 <= i <= max_q and 0 <= n <= max_t:
            window[i][n] = 1
        for a, b, e in factors:
            if a < 0 or b < 0 or a == b == 0 or e not in (1, -1):
                raise ValueError(f"factor {(a, b, e)} is not 1 + q^a t^b "
                                 "or 1/(1 - q^a t^b)")
            qs, ts = range(a, max_q + 1), range(b, max_t + 1)
            if e == 1:
                qs, ts = qs[::-1], ts[::-1]
            for k in qs:
                src, dst = window[k - a], window[k]
                for m in ts:
                    dst[m] += src[m - b]
        return cls(max_q, max_t, {(k, m): c for k, row in enumerate(window)
                                  for m, c in enumerate(row)})

    def coefficient(self, i: int, n: int = 0) -> int:
        if not (0 <= i <= self.max_q and 0 <= n <= self.max_t):
            raise KeyError(f"({i}, {n}) is outside the truncation window")
        return self.coeffs.get((i, n), 0)

    def q_coefficients(self, n: int = 0) -> list[int]:
        """Coefficients of q^0..q^max_q in the t^n slice."""
        return [self.coefficient(i, n) for i in range(self.max_q + 1)]

    def __eq__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return ((self.max_q, self.max_t, self.coeffs)
                == (other.max_q, other.max_t, other.coeffs))

    def to_json(self) -> dict:
        return {
            "max_q": self.max_q,
            "max_t": self.max_t,
            "coeffs": [[i, n, c] for (i, n), c in sorted(self.coeffs.items())],
        }
