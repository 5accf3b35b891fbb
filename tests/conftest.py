"""Shared test configuration.

Every hypothesis property runs without a deadline, from a fixed seed and
without an example database, so a run is reproducible; each test sets its
own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("hypermatch", deadline=None, derandomize=True, database=None)
settings.load_profile("hypermatch")
