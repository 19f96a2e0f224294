import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import wextrap.weights as weights
from wextrap import (
    DimensionMismatch,
    NegativeQuadraticForm,
    NonpositiveWeight,
    NotHermitian,
    NotPositiveDefinite,
    WeightOperator,
    mgs_factorize,
    validate,
)

from conftest import random_pd_matrix


def test_identity_factory():
    w = WeightOperator.identity(3)
    assert w.kind == "identity"
    assert w.dimension == 3
    z = np.array([1.0, 2.0, 2.0])
    assert_allclose(w.apply(z), z)
    assert w.norm(z) == 3.0


def test_diag_inner_small():
    w = WeightOperator.diagonal([2.0, 3.0])
    assert w.inner([1.0, 1.0], [1.0, 1.0]) == pytest.approx(5.0)


def test_dense_indefinite_rejected():
    # eigenvalues 3 and -1
    with pytest.raises(NotPositiveDefinite):
        WeightOperator.dense([[1.0, 2.0], [2.0, 1.0]])


def test_dense_nonhermitian_rejected():
    with pytest.raises(NotHermitian):
        WeightOperator.dense([[1.0, 1.0], [0.0, 1.0]])


def test_diag_nonpositive_rejected():
    with pytest.raises(NonpositiveWeight):
        WeightOperator.diagonal([1.0, 0.0])
    with pytest.raises(NonpositiveWeight):
        WeightOperator.diagonal([1.0, -2.0])


def test_inner_standard_basis_orthogonal():
    w = WeightOperator.identity(2)
    assert w.inner([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_inner_conjugate_first_slot():
    w = WeightOperator.identity(2)
    assert w.inner([1j, 0.0], [1.0, 0.0]) == pytest.approx(-1j)


def test_inner_diag_quadratic_form():
    w = WeightOperator.diagonal([4.0, 9.0])
    assert w.inner([1.0, 1.0], [1.0, 1.0]) == pytest.approx(13.0)


def test_norm_pythagorean():
    assert WeightOperator.identity(2).norm([3.0, 4.0]) == pytest.approx(5.0)


def test_norm_diag():
    w = WeightOperator.diagonal([4.0, 9.0])
    assert w.norm([1.0, 0.0]) == pytest.approx(2.0)
    assert w.norm([1.0, 1.0]) == pytest.approx(np.sqrt(13.0))


def test_norm_zero_vector():
    for w in (WeightOperator.identity(4),
              WeightOperator.diagonal([1.0, 2.0, 3.0, 4.0]),
              WeightOperator.dense(random_pd_matrix(
                  np.random.default_rng(0), 4))):
        assert w.norm(np.zeros(4)) == 0.0


def test_dimension_mismatch():
    w = WeightOperator.diagonal([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        w.norm([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        w.inner([1.0], [1.0, 2.0])


def test_conjugate_symmetry_property():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(2, 12))
        w = WeightOperator.dense(random_pd_matrix(rng, n))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = w.inner(y, z)
        b = w.inner(z, y)
        assert abs(a - np.conj(b)) <= 1e-13 * max(1.0, abs(a))


def test_conjugate_linearity_first_argument():
    rng = np.random.default_rng(7)
    w = WeightOperator.dense(random_pd_matrix(rng, 5))
    y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    a = 0.3 - 1.7j
    assert_allclose(w.inner(a * y, z), np.conj(a) * w.inner(y, z),
                    rtol=1e-13)


def test_norm_positive_definite():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(1, 10))
        w = WeightOperator.dense(random_pd_matrix(rng, n))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nz = w.norm(z)
        assert nz > 0.0
        assert_allclose(nz * nz, w.inner(z, z).real, rtol=1e-12)


def test_norm_matches_cholesky_route():
    # |||z|||^2 = ||L* z||_2^2 with M = L L* gives an independent route
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        w = WeightOperator.dense(random_pd_matrix(rng, n))
        lower = scipy.linalg.cholesky(w.matrix(), lower=True)
        assert_allclose(lower @ lower.conj().T, w.matrix(), atol=1e-10)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_allclose(w.norm(z), np.linalg.norm(lower.conj().T @ z),
                        rtol=1e-12)


def test_isometry_of_weighted_orthonormal_columns():
    """P with P*MP = I maps the standard inner product onto the weighted one."""
    rng = np.random.default_rng(19)
    for trial in range(10):
        n = int(rng.integers(3, 10))
        j = int(rng.integers(1, n))
        w = WeightOperator.dense(random_pd_matrix(rng, n))
        a = rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))
        p = mgs_factorize(a, w).q
        y = rng.standard_normal(j) + 1j * rng.standard_normal(j)
        z = rng.standard_normal(j) + 1j * rng.standard_normal(j)
        assert_allclose(w.inner(p @ y, p @ z), np.vdot(y, z), rtol=1e-12,
                        atol=1e-12)
        assert_allclose(w.norm(p @ z), np.linalg.norm(z), rtol=1e-12)


def test_norm_is_one_application(weight_calls):
    w = WeightOperator.dense(random_pd_matrix(np.random.default_rng(29), 4))
    weight_calls.clear()
    w.norm(np.ones(4))
    assert weight_calls == ["norm", "apply"]


def test_negative_quadratic_form_detects_corruption():
    # no public constructor produces an indefinite operator, so corrupt one
    bad = WeightOperator("dense", 2, matrix=np.array([[1.0, 0.0],
                                                     [0.0, -1.0]]))
    with pytest.raises(NegativeQuadraticForm):
        bad.norm([0.0, 1.0])


def test_validate_dispatch():
    assert validate(np.array([1.0, 2.0])).kind == "diagonal"
    assert validate(np.eye(3) * 2.0).kind == "dense"
    w = WeightOperator.identity(2)
    assert validate(w) is w


def test_validate_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        validate(np.ones((2, 3)))


def test_hermiticity_tolerance_boundary():
    m = np.array([[2.0, 1.0], [1.0 + 5e-13, 2.0]])
    w = WeightOperator.dense(m)  # asymmetry below 1e-12 is accepted
    assert w.kind == "dense"
    with pytest.raises(NotHermitian):
        WeightOperator.dense(np.array([[2.0, 1.0], [1.0 + 1e-11, 2.0]]))


def test_dense_matrix_is_a_read_only_view():
    # the operator is immutable, so its matrix is lent, not copied
    m = random_pd_matrix(np.random.default_rng(24), 5)
    w = WeightOperator.dense(m)
    view = w.matrix()
    assert np.shares_memory(view, w.matrix())
    assert not view.flags.writeable
    assert np.array_equal(view, m)
    with pytest.raises(ValueError):
        view[0, 0] = 0.0


def test_apply_matches_explicit_matrix():
    rng = np.random.default_rng(23)
    n = 6
    m = random_pd_matrix(rng, n)
    w = WeightOperator.dense(m)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert_allclose(w.apply(z), m @ z, rtol=1e-13)
    d = rng.uniform(0.5, 2.0, n)
    wd = WeightOperator.diagonal(d)
    assert_allclose(wd.apply(z), d * z, rtol=1e-13)
    assert_allclose(wd.inner(z, z).real, (np.abs(z) ** 2 * d).sum(),
                    rtol=1e-13)
