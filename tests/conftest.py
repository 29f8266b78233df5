import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rsstego import CodeParams, GF2m


@pytest.fixture(scope="session")
def gf8():
    return GF2m(3)


@pytest.fixture(scope="session")
def gf32():
    return GF2m(5)


@pytest.fixture(scope="session")
def rs7(gf8):
    return CodeParams(field=gf8, n=7, k=3)


@pytest.fixture(scope="session")
def rs31(gf32):
    return CodeParams(field=gf32, n=31, k=19)


@pytest.fixture(scope="session")
def rs15_10():
    """An odd number of parity symbols: n - k = 5 = 2t + 1."""
    return CodeParams(field=GF2m(4), n=15, k=10)
