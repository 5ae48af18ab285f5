"""One Hypothesis profile for every property test: the examples are drawn
from a fixed seed, nothing is stored between runs, and no example is
timed out, so a run is reproducible and does not flake on a slow host.
Each test keeps its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("defreg", derandomize=True, database=None, deadline=None)
settings.load_profile("defreg")
