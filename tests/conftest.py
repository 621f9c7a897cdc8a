"""Hypothesis runs derandomized, so every run tries the same examples."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
