"""The reference tables, under the name the command line has always used.

They live in :mod:`superbraid.reference`, outside the front end; the
golden-table checks of the command line and the tests read them.
"""

from ..reference import FIXTURES, UNKNOWN, Fixture, fixture, parse_cell

__all__ = ["FIXTURES", "UNKNOWN", "Fixture", "fixture", "parse_cell"]
