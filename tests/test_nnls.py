import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls as scipy_nnls

from mta_engine.calibration import nnls

from conftest import nnls_brute_force


def random_instance(rng, max_features=3):
    n = int(rng.integers(1, max_features + 1))
    m = int(rng.integers(n + 1, n + 12))
    return rng.normal(size=(m, n)), rng.normal(size=m)


def test_single_column_ratio():
    x, rnorm = nnls(np.array([[1000.0]]), np.array([900.0]))
    assert abs(x[0] - 0.9) < 1e-9
    assert rnorm == pytest.approx(0.0, abs=1e-9)


def test_negative_relationship_clamps_to_zero():
    A = np.array([[1000.0], [500.0]])
    b = -A[:, 0]
    x, rnorm = nnls(A, b)
    assert x[0] == 0.0
    assert rnorm == pytest.approx(np.linalg.norm(b))


def test_exact_two_feature_recovery():
    A = np.array([[1000.0, 800.0], [500.0, 900.0], [2000.0, 1500.0], [300.0, 250.0]])
    b = A @ np.array([0.6, 0.4])
    x, rnorm = nnls(A, b)
    assert np.allclose(x, [0.6, 0.4], atol=1e-10)
    assert rnorm < 1e-9


def test_zero_column_gets_zero_weight():
    A = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    b = np.array([2.0, 4.0, 6.0])
    x, _ = nnls(A, b)
    assert x[1] == 0.0
    assert x[0] == pytest.approx(2.0)


def test_shape_mismatch():
    with pytest.raises(ValueError):
        nnls(np.ones((3, 2)), np.ones(4))


def test_matches_brute_force_on_100_random_instances():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        A, b = random_instance(rng)
        x, rnorm = nnls(A, b)
        x_oracle, rnorm_oracle = nnls_brute_force(A, b)
        assert np.allclose(x, x_oracle, atol=1e-8)
        assert abs(rnorm - rnorm_oracle) < 1e-8


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(100):
        A, b = random_instance(rng, max_features=6)
        x, _ = nnls(A, b)
        x_ref, _ = scipy_nnls(A, b)
        assert np.allclose(x, x_ref, atol=1e-8)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kkt_conditions_hold(seed):
    rng = np.random.default_rng(seed)
    A, b = random_instance(rng, max_features=5)
    x, _ = nnls(A, b)
    gradient = A.T @ (A @ x - b)
    scale = max(1.0, float(np.max(np.abs(A.T @ b))))
    assert np.all(x >= 0.0)
    positive = x > 0
    assert np.all(np.abs(gradient[positive]) <= 1e-8 * scale)
    assert np.all(gradient[~positive] >= -1e-8 * scale)
