"""Set-up shared by the test modules."""

import pytest

from rmtcorr import engine


@pytest.fixture(autouse=True)
def cold_factor_cache():
    """Every test starts from an empty point factor cache: no stack built
    by an earlier test, or before a test replaced a function that a factor
    calls, is read in it, and call counts see every build."""
    engine._point_factors.cache_clear()
