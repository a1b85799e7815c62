"""Test-session settings shared by every test module."""

from hypothesis import settings

# Every run draws the same examples and neither reads nor writes a local
# example database, so a pass or a failure does not depend on an earlier run.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
