import pytest

from cubic7.forms import CubicForm


@pytest.fixture(scope="session")
def f_star():
    """x1(x1 x2 + x3^2) + x4(x4 x5 + x6^2) + x7^3: both deltas vanish."""
    return CubicForm((1, 0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1))


@pytest.fixture(scope="session")
def f_fac1():
    """Q2 = x5 x6 factorizes over Q: three linear spaces, tags 1/2/3."""
    return CubicForm((1, 0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 0, 0))


@pytest.fixture(scope="session")
def f_fac2():
    """delta2 = 1 with D'' a rational cube: spaces with tags 1/2'/3'."""
    return CubicForm((1, 0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), (1, 0, 0, 1, 0, 0))


@pytest.fixture(scope="session")
def f_content2():
    """Content 2 with multipliers (1, 2, 3): exercises the content plumbing."""
    return CubicForm((2, 0, 0, 4, 0, 0, 6), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1))


@pytest.fixture(scope="session")
def f_iii():
    """Both blocks hit the p = 3 special orbit: gamma = 3, gamma' = 1."""
    return CubicForm((1, 0, 0, 1, 0, 0, 1), (2, 0, 1, 0, 0, 6), (2, 0, 1, 0, 0, 6))
