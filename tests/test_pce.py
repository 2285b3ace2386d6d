import math
import re

import numpy as np
import pytest

from gustuq import (FitError, InputSpace, PCESurrogate, UncertainInput,
                    fit_regression, latin_hypercube, pce_moments, pce_quantile,
                    to_standard, total_degree_basis)
from gustuq.pce import legendre_table


@pytest.fixture
def cube2():
    return InputSpace((UncertainInput("a", -1, 1), UncertainInput("b", -1, 1)))


@pytest.fixture
def cube3():
    return InputSpace(tuple(UncertainInput(n, -1, 1) for n in "abc"))


def std_lhs(n, space, seed):
    return to_standard(latin_hypercube(n, space, seed), space)


# -- basis ---------------------------------------------------------------------

def test_legendre_degree_zero():
    assert legendre_table(0.37, 0)[0, 0] == 1.0


def test_legendre_degree_two_closed_form():
    assert legendre_table(0.5, 2)[0, 2] == pytest.approx(-0.125 * math.sqrt(5))


def test_legendre_orthonormal_by_quadrature():
    # Gauss-Legendre quadrature oracle against the uniform density on [-1, 1]
    nodes, weights = np.polynomial.legendre.leggauss(12)
    table = legendre_table(nodes, 5)
    gram = 0.5 * (table.T * weights) @ table
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-13)


def test_basis_counts():
    assert len(total_degree_basis(3, 2)) == 10
    assert len(total_degree_basis(1, 3)) == 4
    assert total_degree_basis(2, 0) == [(0, 0)]


def test_basis_graded_order():
    basis = total_degree_basis(3, 3)
    totals = [sum(alpha) for alpha in basis]
    assert totals == sorted(totals)
    assert basis[0] == (0, 0, 0)


# -- regression fit --------------------------------------------------------------

def test_fit_constant(cube3):
    pts = std_lhs(30, cube3, 0)
    s = fit_regression(pts, np.full(30, 2.5), 2, cube3)
    assert s.coefficients[0] == pytest.approx(2.5, abs=1e-12)
    np.testing.assert_allclose(s.coefficients[1:], 0.0, atol=1e-12)


def test_fit_recovers_orthonormal_basis_function(cube3):
    pts = std_lhs(40, cube3, 1)
    values = legendre_table(pts[:, 0], 1)[:, 1]  # P~1 of the first input
    s = fit_regression(pts, values, 2, cube3)
    expected = {alpha: (1.0 if alpha == (1, 0, 0) else 0.0) for alpha in s.basis}
    for alpha, c in zip(s.basis, s.coefficients):
        assert c == pytest.approx(expected[alpha], abs=1e-10)


def test_fit_bilinear_variance(cube2):
    pts = std_lhs(40, cube2, 3)
    s = fit_regression(pts, pts[:, 0] * pts[:, 1], 2, cube2)
    mean, std = pce_moments(s)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert std**2 == pytest.approx(1.0 / 9.0, rel=1e-10)


def test_fit_rejects_undersampling(cube3):
    pts = std_lhs(10, cube3, 0)
    with pytest.raises(ValueError, match="20"):
        fit_regression(pts, np.zeros(10), 2, cube3)  # needs 2 * C(5,2) = 20


def test_fit_rejects_rank_deficiency(cube2):
    # all samples on a line: the quadratic design matrix loses rank
    t = np.linspace(-1, 1, 40)
    pts = np.column_stack([t, t])
    with pytest.raises(FitError):
        fit_regression(pts, t, 2, cube2)


def test_duplicate_samples_do_not_move_coefficients(cube2):
    pts = std_lhs(30, cube2, 5)
    values = 1.0 + pts[:, 0] + 0.5 * pts[:, 1] ** 2
    s1 = fit_regression(pts, values, 2, cube2)
    pts2 = np.vstack([pts, pts])
    s2 = fit_regression(pts2, np.concatenate([values, values]), 2, cube2)
    np.testing.assert_allclose(s1.coefficients, s2.coefficients, atol=1e-10)


def test_polynomial_exactness_random(cube3):
    # any total-degree <= p polynomial is exactly recovered
    rng = np.random.default_rng(9)
    p = 3
    basis = total_degree_basis(3, p)
    coeffs = rng.normal(size=len(basis))
    pts = std_lhs(2 * len(basis) + 10, cube3, 11)
    reference = PCESurrogate(space=cube3, basis=tuple(basis), coefficients=coeffs)
    s = fit_regression(pts, reference.predict(pts), p, cube3)
    np.testing.assert_allclose(s.coefficients, coeffs, atol=1e-8)


# -- moments and quantiles ---------------------------------------------------

def test_moments_linear(cube3):
    pts = std_lhs(30, cube3, 2)
    s = fit_regression(pts, pts[:, 0], 1, cube3)
    mean, std = pce_moments(s)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert std == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-10)


def test_moments_additive(cube2):
    pts = std_lhs(30, cube2, 2)
    s = fit_regression(pts, pts[:, 0] + pts[:, 1], 1, cube2)
    _, std = pce_moments(s)
    assert std**2 == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_quantile_constant(cube2):
    pts = std_lhs(30, cube2, 4)
    s = fit_regression(pts, np.full(30, 7.0), 1, cube2)
    assert pce_quantile(s, 0.5, 10**4, 0) == pytest.approx(7.0, abs=1e-10)


def test_quantile_of_uniform():
    cube1 = InputSpace((UncertainInput("x", -1, 1),))
    pts = std_lhs(30, cube1, 4)
    s = fit_regression(pts, pts[:, 0], 1, cube1)
    q = pce_quantile(s, 0.95, 10**6, 1)
    assert q == pytest.approx(0.9, abs=0.005)


def test_quantile_scaling_equivariance(cube2):
    pts = std_lhs(30, cube2, 4)
    values = pts[:, 0] + 0.2 * pts[:, 1]
    s1 = fit_regression(pts, values, 1, cube2)
    s2 = fit_regression(pts, 2 * values, 1, cube2)
    assert pce_quantile(s2, 0.9, 10**4, 3) == pytest.approx(
        2 * pce_quantile(s1, 0.9, 10**4, 3), rel=1e-12)


def test_parseval_consistency(cube3):
    rng = np.random.default_rng(17)
    basis = total_degree_basis(3, 3)
    s = PCESurrogate(space=cube3, basis=tuple(basis),
                     coefficients=rng.normal(size=len(basis)))
    xi = rng.uniform(-1, 1, (10**6, 3))
    sample_var = s.predict(xi).var(ddof=1)
    assert sample_var == pytest.approx(np.sum(s.coefficients[1:] ** 2), rel=0.01)


@pytest.mark.parametrize("shape", [(2, 4), (2, 2), (4,)])
def test_predict_names_a_wrong_column_count(cube3, shape):
    basis = total_degree_basis(3, 2)
    s = PCESurrogate(space=cube3, basis=tuple(basis), coefficients=np.ones(len(basis)))
    with pytest.raises(ValueError, match=re.escape(
            f"PCESurrogate.predict: points must have 3 columns, got shape {shape}")):
        s.predict(np.zeros(shape))
