"""Hypothesis profiles.

``pytest --hypothesis-profile=fuzz`` runs the fuzz tests with many more
examples, at random; a plain run keeps every test's own settings.
"""

from hypothesis import settings

settings.register_profile("fuzz", max_examples=5_000)
