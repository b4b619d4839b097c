"""Command-line front end.

The entry point lives in :mod:`superbraid.cli.main`; it is not imported
here, so importing the package stays cheap: numpy is not loaded.
"""
