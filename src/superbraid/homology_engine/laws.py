"""Cross-checks of computed tables against the structural theorems.

Each verifier is report-only: it returns a Report listing violations
instead of raising, so a full verification run can show every failure.
Each report names its law and the d of its tables, as torsion-law d=3
or universal-coefficients p=2 d=3.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exact_linalg import prime_factors
from .cache import parse_coeff
from .engine import HomologyTable


@dataclass(frozen=True)
class Report:
    name: str
    ok: bool
    checked: int
    violations: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        state = "pass" if self.ok else "FAIL"
        out = f"{self.name}: {state} ({self.checked} cells checked)"
        for v in self.violations:
            out += f"\n  violation: {v}"
        for n in self.notes:
            out += f"\n  note: {n}"
        return out


def _require_integral(table: HomologyTable):
    if table.coeff != "z":
        raise ValueError("this law applies to integer-coefficient tables")


def verify_torsion_law(table: HomologyTable) -> Report:
    """Torsion orders divide d, and odd rows are pure torsion above degree 0.

    Scope: cells with n odd or d odd.  For squarefree d the odd rows are
    additionally checked to have no repeated prime factor p^2, read off
    prime_factors, which certifies a large prime instead of dividing up
    to it.
    """
    _require_integral(table)
    d = table.d
    squarefree = all(k == 1 for _, k in prime_factors(d))
    violations = []
    checked = 0
    for (n, i), g in sorted(table.cells.items()):
        if n % 2 == 0 and d % 2 == 0:
            continue
        checked += 1
        for q in g.primary():
            if d % q != 0:
                violations.append(
                    f"(n={n}, i={i}): factor Z_{q} with {q} not dividing d={d}")
            # q is a primary part p^k, so prime_factors(q) == ((p, k),)
            if squarefree and n % 2 == 1 and prime_factors(q)[0][1] > 1:
                violations.append(
                    f"(n={n}, i={i}): repeated prime factor Z_{q} "
                    f"with d={d} squarefree")
        if i >= 1 and g.rank != 0:
            violations.append(f"(n={n}, i={i}): free rank {g.rank} in a "
                              f"torsion-only cell")
    return Report(f"torsion-law d={d}", not violations, checked,
                  tuple(violations))


def stable_bound(i: int, d: int) -> int:
    """First row at which column i of the d-table is provably constant.

    The binding constraint is p-local over the primes p dividing d: the
    column maps are isomorphisms once (p - 1)(n - 2) > p * i, so the value
    is fixed from n = (p * i) // (p - 1) + 3 on.  The rational bound
    n = i + 3 never exceeds these.  The primes p come from prime_factors.
    """
    if i < 1 or d < 2:
        raise ValueError("need i >= 1 and d >= 2")
    return max((p * i) // (p - 1) + 3 for p, _ in prime_factors(d))


def verify_stability(table: HomologyTable, highlights=None) -> Report:
    """Column constancy inside the range i < n/2 - 1, plus highlight checks.

    A highlighted cell (n, i) asserts the column has reached its stable
    value at n: it must sit at the stable_bound row for its column, and
    every later computed cell in the column must equal it.  Highlights
    beyond the computed window are skipped with a note.
    """
    _require_integral(table)
    ns = table.n_values()
    violations = []
    notes = []
    checked = 0
    for n in ns:
        if (n + 1, 0) not in table.cells:
            continue
        for i in range(n):
            if not i < n / 2 - 1:
                continue
            here = table.cell(n, i)
            there = table.cell(n + 1, i)
            if there is None:
                continue
            checked += 1
            if here != there:
                violations.append(
                    f"i={i} < {n}/2 - 1 but cell ({n}, {i}) = "
                    f"{here.describe()} differs from cell ({n + 1}, {i}) = "
                    f"{there.describe()}")
    for (n_h, i) in sorted(highlights or ()):
        bound = stable_bound(i, table.d)
        if bound != n_h:
            violations.append(
                f"highlight ({n_h}, {i}) is not at the stable bound "
                f"n = {bound} for d = {table.d}")
        tail = [m for m in ns if m >= n_h and table.cell(m, i) is not None]
        if n_h not in ns or len(tail) < 2:
            notes.append(f"highlight ({n_h}, {i}) outside computed window")
            continue
        checked += 1
        stable = table.cell(n_h, i)
        for m in tail[1:]:
            if table.cell(m, i) != stable:
                violations.append(
                    f"highlighted cell ({n_h}, {i}) = {stable.describe()} "
                    f"but cell ({m}, {i}) = {table.cell(m, i).describe()}")
    return Report(f"stability d={table.d}", not violations, checked,
                  tuple(violations), tuple(notes))


def first_stable_rows(table: HomologyTable) -> dict[int, int]:
    """Least n per column i after which the computed column stays constant."""
    _require_integral(table)
    ns = table.n_values()
    out = {}
    max_i = max((i for (_, i) in table.cells), default=-1)
    for i in range(max_i + 1):
        column = [(n, table.cell(n, i)) for n in ns
                  if table.cell(n, i) is not None]
        if not column:
            continue
        final = column[-1][1]
        stable_n = column[-1][0]
        for n, g in reversed(column):
            if g != final:
                break
            stable_n = n
        out[i] = stable_n
    return out


def verify_unstable_free(table: HomologyTable) -> Report:
    """Even rows: free rank 1 exactly in the top two degrees when d is even.

    Degree 0 is out of scope (the tables start at degree 1).
    """
    _require_integral(table)
    d = table.d
    violations = []
    checked = 0
    for (n, i), g in sorted(table.cells.items()):
        if n % 2 == 1 or i == 0:
            continue
        checked += 1
        expected = 1 if (d % 2 == 0 and i in (n - 1, n - 2)) else 0
        if g.rank != expected:
            violations.append(
                f"(n={n}, i={i}): free rank {g.rank}, expected {expected} "
                f"for d={d}")
    return Report(f"unstable-free-part d={d}", not violations, checked,
                  tuple(violations))


def verify_covering_iso(d: int, d_prime: int, p: int, tables) -> Report:
    """Mod-p dimensions agree between the d and d' = dm tables.

    Requires d | d' and p not dividing m.  When neither 2 | d nor d' is odd,
    the comparison only applies to odd n (for odd rows the dimensions do
    not depend on d at all); even rows are then skipped with a note.
    """
    if d < 1 or d_prime % d != 0:
        raise ValueError("need d dividing d'")
    m = d_prime // d
    if p < 2 or m % p == 0:
        raise ValueError(f"p={p} must be a prime not dividing m={m}")
    low, high = tables[d], tables[d_prime]
    for t, dd in ((low, d), (high, d_prime)):
        if t.d != dd or parse_coeff(t.coeff) != ("f", p):
            raise ValueError(f"expected a mod-{p} table for d={dd}")
    all_n = d % 2 == 0 or d_prime % 2 == 1
    notes = ()
    if not all_n:
        notes = (f"2 does not divide d={d} and d'={d_prime} is even: "
                 "only odd rows are comparable",)
    violations = []
    checked = 0
    shared = sorted(set(low.n_values()) & set(high.n_values()))
    for n in shared:
        if not all_n and n % 2 == 0:
            continue
        for i in range(n):
            a, b = low.cell(n, i), high.cell(n, i)
            if a is None or b is None:
                continue
            checked += 1
            if a.rank != b.rank:
                violations.append(
                    f"(n={n}, i={i}): dim over F_{p} is {a.rank} for d={d} "
                    f"but {b.rank} for d'={d_prime}")
    return Report(f"covering-iso d={d} d'={d_prime} p={p}", not violations,
                  checked, tuple(violations), notes)


def verify_uct(table_z: HomologyTable, table_p: HomologyTable) -> Report:
    """Mod-p dimensions match ranks plus p-torsion counts in degrees i, i-1."""
    _require_integral(table_z)
    kind, p = parse_coeff(table_p.coeff)
    if kind != "f" or table_p.d != table_z.d:
        raise ValueError("second table must be mod-p for the same d")
    violations = []
    checked = 0
    shared = sorted(set(table_z.cells) & set(table_p.cells))
    for (n, i) in shared:
        z = table_z.cell(n, i)
        below = table_z.cell(n, i - 1)
        expected = (z.rank + z.p_primary_count(p)
                    + (below.p_primary_count(p) if below else 0))
        got = table_p.cell(n, i).rank
        checked += 1
        if got != expected:
            violations.append(
                f"(n={n}, i={i}): dim over F_{p} is {got}, integer data "
                f"predicts {expected}")
    return Report(f"universal-coefficients p={p} d={table_z.d}",
                  not violations, checked, tuple(violations))
