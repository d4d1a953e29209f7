import pytest


@pytest.fixture
def padded():
    """`padded(minima, n)`: engine._min_weights of a code of length n as the
    full (0, d_1, ..., d_n), every width it leaves out at n."""
    return lambda minima, n: minima + (n,) * (n + 1 - len(minima))
