"""Command-line front end.

The entry point lives in :mod:`superbraid.cli.main`; it is not imported
here, so importing the package stays cheap.  The reference tables are
re-exported from :mod:`superbraid.reference` as ``superbraid.cli.fixtures``.
"""

from .fixtures import FIXTURES, UNKNOWN, Fixture, fixture, parse_cell

__all__ = ["FIXTURES", "UNKNOWN", "Fixture", "fixture", "parse_cell"]
