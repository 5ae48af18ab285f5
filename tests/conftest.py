"""One Hypothesis profile for every property test: the examples are drawn
from a fixed seed, nothing is stored between runs, and no example is
timed out, so a run is reproducible and does not flake on a slow host.
Each test keeps its own ``max_examples``.

The ``traced_peak`` fixture is the one way the memory-bound tests read a
peak: ``traced_peak(fn)`` calls ``fn()`` under tracemalloc and returns the
peak of the bytes traced during the call, ``fn``'s result included."""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("defreg", derandomize=True, database=None, deadline=None)
settings.load_profile("defreg")


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
