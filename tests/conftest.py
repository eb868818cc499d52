import numpy as np
import pytest
from hypothesis import strategies as st

from myhpo.model import Dataset, LossSpec


@pytest.fixture
def ls_spec():
    return LossSpec("least_squares")


@pytest.fixture
def logit_spec():
    return LossSpec("logistic")


def random_regression(rng, n, d, role="train", noise=0.1):
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = x @ w + noise * rng.standard_normal(n)
    return Dataset(x, y, role)


def random_classification(rng, n, d, role="train"):
    x = rng.standard_normal((n, d))
    y = rng.choice([-1.0, 1.0], size=n)
    return Dataset(x, y, role)


def ridge_solution(train, lam):
    """Direct linear solve of the regularized normal equations."""
    a = train.X.T @ train.X / train.n + 2.0 * np.exp(lam) * np.eye(train.d)
    b = train.X.T @ train.y / train.n
    return np.linalg.solve(a, b)


# the cells of one trace row: each optional column may be None or any float
# (NaN, infinities and -0.0 among them) from row to row
TRACE_ROW_CELLS = st.tuples(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**40),
    st.floats(), st.floats(), st.floats(),
    st.none() | st.floats(), st.none() | st.floats(),
    st.none() | st.floats(), st.none() | st.floats(),
    st.integers(min_value=0, max_value=2**40),
)
