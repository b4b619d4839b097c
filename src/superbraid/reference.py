"""Reference homology tables embedded as verification fixtures.

Cells are written in the printed notation: "Z" is a free summand, "Zq" a
cyclic summand of order q, "^k" a repeated factor, and "?" marks the one
cell whose value is not recorded.  Group comparison is by rank and primary
multiset, so "Z6" and "Z2 Z3" denote the same fixture value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType

from .exact_linalg import AbelianGroup


class _Unknown:
    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = _Unknown()

_TOKEN = re.compile(r"Z(?:_?(\d+))?(?:\^(\d+))?$")


def parse_cell(text: str):
    """Parse a printed table cell such as "Z2^3 Z3 Z" into a group."""
    if text.strip() == "?":
        return UNKNOWN
    rank = 0
    torsion = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"bad cell token {token!r} in {text!r}")
        order, power = m.groups()
        count = int(power) if power else 1
        if order is None:
            rank += count
        else:
            torsion.extend([int(order)] * count)
    return AbelianGroup.from_divisors(rank, torsion)


@dataclass(frozen=True)
class Fixture:
    """One reference table: printed cells plus its first-stable highlights."""

    d: int
    label: str
    cells: MappingProxyType
    highlights: frozenset

    def cell(self, n: int, i: int):
        """The printed group, UNKNOWN, or None when the cell is not printed."""
        return self.cells.get((n, i))

    def n_values(self) -> list[int]:
        return sorted({n for (n, _) in self.cells})


def _fixture(d: int, label: str, rows: dict, highlights: set) -> Fixture:
    cells = {}
    for n, row in rows.items():
        for i, text in row.items():
            cells[(n, i)] = parse_cell(text)
    return Fixture(d, label, MappingProxyType(cells), frozenset(highlights))


def _constant_row(width: int, text: str) -> dict:
    return {i: text for i in range(1, width + 1)}


# Table 1 (d = 2)
_TABLE_1 = _fixture(2, "Table 1", {
    3: {1: "Z2"},
    4: {1: "Z2^2", 2: "Z", 3: "Z"},
    5: {1: "Z2", 2: "Z2", 3: "Z2"},
    6: {1: "Z2", 2: "Z2^2", 3: "Z2^2 Z3", 4: "Z", 5: "Z"},
    7: {1: "Z2", 2: "Z2", 3: "Z2^2", 4: "Z2^2", 5: "Z2"},
    8: {1: "Z2", 2: "Z2", 3: "Z2^3", 4: "Z2^3 Z3", 5: "Z2^3 Z3",
        6: "Z", 7: "Z"},
    9: {1: "Z2", 2: "Z2", 3: "Z2^2", 4: "Z2^3", 5: "Z2^3", 6: "Z2^2",
        7: "Z2"},
    10: {1: "Z2", 2: "Z2", 3: "Z2^2", 4: "Z2^4", 5: "Z2^4", 6: "Z2^4 Z3",
         7: "Z2^3 Z3 Z5", 8: "Z", 9: "Z"},
    11: {1: "Z2", 2: "Z2", 3: "Z2^2", 4: "Z2^3", 5: "Z2^4", 6: "Z2^4",
         7: "Z2^4", 8: "Z2^3", 9: "Z2"},
    12: {1: "Z2", 2: "Z2", 3: "Z2^2", 4: "Z2^3", 5: "Z2^5", 6: "Z2^5",
         7: "Z2^6 Z3", 8: "Z2^6 Z3 Z5", 9: "Z2^3 Z3 Z5", 10: "Z", 11: "Z"},
    13: {1: "Z2", 2: "Z2", 3: "Z2^2", 4: "Z2^3", 5: "Z2^4", 6: "Z2^5",
         7: "Z2^6", 8: "Z2^6", 9: "Z2^5", 10: "Z2^3", 11: "Z2"},
}, {(5, 1), (7, 2), (9, 3), (11, 4), (13, 5)})

# Table 2 (d = 3)
_TABLE_2 = _fixture(3, "Table 2", {
    3: {1: "Z3"},
    4: {1: "Z3", 2: "Z3"},
    5: _constant_row(3, "Z3"),
    6: {1: "Z3", 2: "Z3", 3: "Z3^2", 4: "Z3^2"},
    7: _constant_row(5, "Z3"),
    8: _constant_row(6, "Z3"),
    9: {1: "Z3", 2: "Z3", 3: "Z3", 4: "Z3", 5: "Z3^2", 6: "Z3^2", 7: "Z3"},
    10: {1: "Z3", 2: "Z3", 3: "Z3", 4: "Z3", 5: "Z3^2", 6: "Z3^3",
         7: "Z3^2", 8: "Z3"},
}, {(4, 1), (6, 2), (7, 3), (9, 4)})

# Table 3 (d = 4)
_TABLE_3 = _fixture(4, "Table 3", {
    3: {1: "Z4"},
    4: {1: "Z2 Z4", 2: "Z2^2 Z", 3: "Z"},
    5: _constant_row(3, "Z4"),
    6: {1: "Z4", 2: "Z2 Z4", 3: "Z2 Z3 Z4", 4: "Z2 Z", 5: "Z"},
    7: {1: "Z4", 2: "Z4", 3: "Z2 Z4", 4: "Z2 Z4", 5: "Z4"},
    8: {1: "Z4", 2: "Z4", 3: "Z2^2 Z4", 4: "Z2^3 Z3 Z4", 5: "Z2^3 Z3 Z4",
        6: "Z4 Z8 Z", 7: "Z"},
    9: {1: "Z4", 2: "Z4", 3: "Z2 Z4", 4: "Z2^2 Z4", 5: "Z2^2 Z4",
        6: "Z2 Z4", 7: "Z4"},
    10: {1: "Z4", 2: "Z4", 3: "Z2 Z4", 4: "Z2^3 Z4", 5: "Z2^3 Z4",
         6: "Z2^3 Z4 Z6", 7: "Z2^3 Z60", 8: "Z2 Z", 9: "Z"},
}, {(5, 1), (7, 2), (9, 3)})

# Table 4 (d = 5)
_TABLE_4 = _fixture(5, "Table 4", {
    3: {1: "Z5"},
    4: _constant_row(2, "Z5"),
    5: _constant_row(3, "Z5"),
    6: _constant_row(4, "Z5"),
    7: _constant_row(5, "Z5"),
    8: _constant_row(6, "Z5"),
    9: _constant_row(7, "Z5"),
    10: {**_constant_row(6, "Z5"), 7: "Z5^4", 8: "Z5^4"},
}, {(4, 1), (5, 2), (6, 3), (8, 4), (9, 5)})

# Table 5 (d = 6)
_TABLE_5 = _fixture(6, "Table 5", {
    3: {1: "Z6"},
    4: {1: "Z2 Z6", 2: "Z3 Z", 3: "Z"},
    5: _constant_row(3, "Z6"),
    6: {1: "Z6", 2: "Z2 Z6", 3: "Z3^2 Z6^2", 4: "Z3^4 Z", 5: "Z"},
    7: {1: "Z6", 2: "Z6", 3: "Z2 Z6", 4: "Z2 Z6", 5: "Z6"},
    8: {1: "Z6", 2: "Z6", 3: "Z2^2 Z6", 4: "Z2 Z6^2", 5: "Z2 Z6^2",
        6: "Z3 Z", 7: "Z"},
    9: {1: "Z6", 2: "Z6", 3: "Z2 Z6", 4: "Z2^2 Z6", 5: "Z2 Z6^2",
        6: "Z6^2", 7: "Z6"},
    10: {1: "Z6", 2: "Z6", 3: "Z2 Z6", 4: "?", 5: "Z2^2 Z6^2", 6: "Z6^4",
         7: "Z6^3 Z5", 8: "Z3 Z", 9: "Z"},
}, {(5, 1), (7, 2), (9, 3)})

FIXTURES = MappingProxyType(
    {f.d: f for f in (_TABLE_1, _TABLE_2, _TABLE_3, _TABLE_4, _TABLE_5)})


def fixture(d: int) -> Fixture:
    if d not in FIXTURES:
        raise KeyError(f"no reference table for d={d}")
    return FIXTURES[d]
