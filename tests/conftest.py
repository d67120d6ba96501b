"""Test-suite settings: every hypothesis test runs derandomized, so a
property test draws the same examples on every run and machine, keeps no
example database, and has no per-example deadline. A test sets only its own
max_examples and examples on top of this profile."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
