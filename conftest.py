"""Fixtures shared by ``tests/`` and ``benchmarks/``."""

import pytest

from repro.transpiler import get_transpile_cache


@pytest.fixture()
def transpile_cache_off():
    """Compile afresh on every ``transpile`` call; yields the cache.

    The cache's ``enabled`` flag is its only switch; the previous value
    is restored however the test ends.
    """
    cache = get_transpile_cache()
    enabled = cache.enabled
    cache.enabled = False
    try:
        yield cache
    finally:
        cache.enabled = enabled
