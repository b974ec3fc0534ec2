"""Shared test configuration.

Property tests run under a derandomized Hypothesis profile, so that they
draw the same examples on every run, like every other check in the suite.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None, print_blob=True)
settings.load_profile("deterministic")
