"""Pytest settings: hypothesis runs derandomized and without a deadline,
so property tests draw the same examples on every run and do not fail on a
slow or drifting host."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
