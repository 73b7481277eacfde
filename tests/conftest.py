"""One hypothesis profile for the whole suite: examples are derived from
each test's name, so every run draws the same ones; no example database
is written; and no deadline applies, since the exact kernels take no fixed
time per example.  Each property test sets its own max_examples."""

from hypothesis import settings

settings.register_profile("crepant", derandomize=True, database=None, deadline=None)
settings.load_profile("crepant")
