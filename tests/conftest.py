"""Hypothesis draws the same examples on every run, so a run's failures repeat.

``derandomize`` also turns off Hypothesis's example database.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
