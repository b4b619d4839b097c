"""The reference tables, under the name the command line has always used.

They live in :mod:`superbraid.reference`, outside the front end, so that
the engine can gate calibration on them without importing the CLI.
"""

from ..reference import FIXTURES, UNKNOWN, Fixture, fixture, parse_cell

__all__ = ["FIXTURES", "UNKNOWN", "Fixture", "fixture", "parse_cell"]
