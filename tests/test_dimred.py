import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import KroghInterpolator

from gustuq import (CountingOracle, InputSpace, UncertainInput, dr_moments,
                    dr_quantile, gauss_legendre, gudr_build, gudr_build_scalar,
                    udr_build, udr_build_scalar)
from gustuq.dimred import _NODE_TOL, _assemble, _legendre_slopes
from gustuq.pce import legendre_table

CUBE1 = InputSpace((UncertainInput("x", -1, 1),))
CUBE2 = InputSpace((UncertainInput("a", -1, 1), UncertainInput("b", -1, 1)))
CUBE3 = InputSpace(tuple(UncertainInput(n, -1, 1) for n in "abc"))


# -- quadrature ----------------------------------------------------------------

def test_gauss_legendre_order_one():
    nodes, weights = gauss_legendre(1)
    np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
    np.testing.assert_allclose(weights, [2.0])


def test_gauss_legendre_order_two():
    nodes, weights = gauss_legendre(2)
    np.testing.assert_allclose(nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)])
    np.testing.assert_allclose(weights, [1.0, 1.0])


def test_gauss_legendre_exactness():
    nodes, weights = gauss_legendre(2)
    assert weights @ nodes**2 == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_gauss_legendre_range_checked():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(21)


# -- construction -------------------------------------------------------------

def test_udr_evaluation_count(constant_oracle):
    counting = CountingOracle(constant_oracle)
    udr_build(counting, CUBE3, 5)
    assert counting.evaluations == 3 * 5 + 1


def test_gudr_evaluation_count(constant_oracle):
    counting = CountingOracle(constant_oracle)
    gudr_build(counting, CUBE3, 4)
    assert counting.evaluations == 3 * 4 + 1
    assert counting.gradient_evaluations == 3 * 4


def test_additive_polynomials_are_fixed_points():
    def f(x):
        return 2.0 + x[0] ** 3 - 1.5 * x[1] ** 2 + 0.5 * x[2]

    approx = udr_build_scalar(f, CUBE3, 5)
    rng = np.random.default_rng(0)
    xi = rng.uniform(-1, 1, (1000, 3))
    exact = 2.0 + xi[:, 0] ** 3 - 1.5 * xi[:, 1] ** 2 + 0.5 * xi[:, 2]
    np.testing.assert_allclose(approx(xi), exact, atol=1e-10)


def test_bilinear_interaction_vanishes():
    approx = udr_build_scalar(lambda x: float(x[0] * x[1]), CUBE2, 3)
    rng = np.random.default_rng(1)
    xi = rng.uniform(-1, 1, (100, 2))
    np.testing.assert_allclose(approx(xi), 0.0, atol=1e-12)


def test_center_consistency():
    space = InputSpace((UncertainInput("a", 2, 4), UncertainInput("b", -3, 5)))

    def f(x):
        return math.sin(x[0]) * math.exp(0.2 * x[1])

    for k in (2, 3, 4):
        approx = udr_build_scalar(f, space, k)
        assert approx(np.zeros(2)) == pytest.approx(f(space.midpoint), rel=1e-12)


def test_gudr_cubic_exact_udr_not():
    f = lambda x: float(x[0] ** 3)
    df = lambda x, i: 3.0 * float(x[0]) ** 2

    gudr = gudr_build_scalar(f, df, CUBE1, 2)
    xi = np.linspace(-1, 1, 21)[:, None]
    np.testing.assert_allclose(gudr(xi), xi[:, 0] ** 3, atol=1e-12)

    udr = udr_build_scalar(f, CUBE1, 2)
    np.testing.assert_allclose(udr(xi), xi[:, 0] / 3.0, atol=1e-12)


def test_linear_function_udr_equals_gudr():
    f = lambda x: 1.0 + 2.0 * float(x[0])
    df = lambda x, i: 2.0
    udr = udr_build_scalar(f, CUBE1, 2)
    gudr = gudr_build_scalar(f, df, CUBE1, 2)
    xi = np.linspace(-1, 1, 11)[:, None]
    np.testing.assert_allclose(udr(xi), gudr(xi), atol=1e-12)


class RecordingOracle:
    """Passes calls through to an inner oracle and records their shape."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def evaluate(self, x):
        self.calls.append(("evaluate", np.array(x, dtype=float)))
        return self.inner.evaluate(x)

    def evaluate_batch(self, points):
        self.calls.append(("evaluate_batch", np.array(points, dtype=float)))
        return self.inner.evaluate_batch(points)

    def gradient(self, x):
        self.calls.append(("gradient", np.array(x, dtype=float)))
        return self.inner.gradient(x)

    def points(self, kind):
        return [x for name, x in self.calls if name == kind]


def _all_slice_nodes(space, k):
    """Every slice node of every dimension, dimension-major, in physical units."""
    nodes, _ = gauss_legendre(k)
    mu, half = space.midpoint, 0.5 * (space.upper - space.lower)
    pts = []
    for i in range(space.dimension):
        for t in nodes:
            x = mu.copy()
            x[i] += t * half[i]
            pts.append(x)
    return np.array(pts)


@pytest.mark.parametrize("k", [1, 4, 7])
def test_udr_build_one_center_call_and_one_batch(constant_oracle, k):
    space = InputSpace(tuple(UncertainInput(n, 0, 2 + i) for i, n in enumerate("abc")))
    recorder = RecordingOracle(constant_oracle)
    udr_build(recorder, space, k)
    assert [name for name, _ in recorder.calls] == ["evaluate", "evaluate_batch"]
    np.testing.assert_array_equal(recorder.points("evaluate")[0], space.midpoint)
    np.testing.assert_array_equal(recorder.points("evaluate_batch")[0],
                                  _all_slice_nodes(space, k))


@pytest.mark.parametrize("k", [1, 4, 7])
def test_gudr_build_adds_one_gradient_per_node(constant_oracle, k):
    recorder = RecordingOracle(constant_oracle)
    gudr_build(recorder, CUBE3, k)
    names = [name for name, _ in recorder.calls]
    assert names == ["evaluate", "evaluate_batch"] + ["gradient"] * (3 * k)
    assert recorder.points("evaluate_batch")[0].shape == (3 * k, 3)
    np.testing.assert_array_equal(np.array(recorder.points("gradient")),
                                  _all_slice_nodes(CUBE3, k))


def _pointwise_node_data(oracle, space, k, with_gradients):
    """Center, (d, k, 2) node values and node derivatives, one oracle call per node."""
    d = space.dimension
    half = 0.5 * (space.upper - space.lower)
    pts = _all_slice_nodes(space, k).reshape(d, k, d)
    center = oracle.evaluate(space.midpoint).as_array()
    values = np.array([[oracle.evaluate(x).as_array() for x in row] for row in pts])
    derivs = None
    if with_gradients:
        derivs = np.array([[oracle.gradient(x)[:, i] * half[i] for x in pts[i]]
                           for i in range(d)])
    return center, values, derivs


@pytest.mark.parametrize("with_gradients", [False, True])
@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_batched_build_matches_pointwise_reference(oracle, space, k, with_gradients):
    build = gudr_build if with_gradients else udr_build
    batched = build(oracle, space, k)
    center, values, derivs = _pointwise_node_data(oracle, space, k, with_gradients)
    batch_values = oracle.evaluate_batch(_all_slice_nodes(space, k)).reshape(values.shape)
    np.testing.assert_array_equal(batch_values[..., 0], values[..., 0])
    ulps = np.abs(batch_values[..., 1] - values[..., 1]) / np.spacing(np.abs(values[..., 1]))
    assert ulps.max() <= 16
    nodes, _ = gauss_legendre(k)

    def assemble(node_values, j):
        return _assemble(space, nodes, float(center[j]), node_values[..., j],
                         None if derivs is None else derivs[..., j])

    for j, got in enumerate(batched):
        # the build is the assembly of the batched node data, bit for bit
        assert got.center_value == center[j]
        for gc, wc in zip(got.coefficients, assemble(batch_values, j).coefficients):
            assert gc.tobytes() == wc.tobytes()
        reference = assemble(values, j)
        if j == 0:  # displacement node data is bit-identical, so are its coefficients
            for gc, wc in zip(got.coefficients, reference.coefficients):
                assert gc.tobytes() == wc.tobytes()
        np.testing.assert_allclose(dr_moments(got), dr_moments(reference), rtol=1e-12, atol=0)


def test_gudr_requires_gradient_capability():
    class NoGrad:
        def evaluate(self, x):
            raise NotImplementedError

    with pytest.raises(TypeError):
        gudr_build(NoGrad(), CUBE3, 2)


# -- moments -------------------------------------------------------------------

def test_moments_constant():
    approx = udr_build_scalar(lambda x: 4.0, CUBE3, 3)
    mean, std = dr_moments(approx)
    assert mean == pytest.approx(4.0, rel=1e-12)
    assert std == pytest.approx(0.0, abs=1e-12)


def test_moments_linear():
    approx = udr_build_scalar(lambda x: float(x[0]), CUBE3, 3)
    mean, std = dr_moments(approx)
    assert mean == pytest.approx(0.0, abs=1e-14)
    assert std == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)


def test_moments_cubic_gudr():
    approx = gudr_build_scalar(lambda x: float(x[0] ** 3),
                               lambda x, i: 3.0 * float(x[0]) ** 2, CUBE1, 2)
    mean, std = dr_moments(approx)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert std == pytest.approx(math.sqrt(1.0 / 7.0), rel=1e-10)


def test_gudr_k_matches_udr_2k_on_polynomials():
    rng = np.random.default_rng(5)
    for k in (2, 3):
        coeffs = rng.normal(size=2 * k)  # univariate degree 2k-1

        def f(x, c=coeffs):
            return float(np.polyval(c, x[0]))

        def df(x, i, c=coeffs):
            return float(np.polyval(np.polyder(c), x[0]))

        m_g = dr_moments(gudr_build_scalar(f, df, CUBE1, k))
        m_u = dr_moments(udr_build_scalar(f, CUBE1, 2 * k))
        assert m_g[0] == pytest.approx(m_u[0], abs=1e-10)
        assert m_g[1] == pytest.approx(m_u[1], abs=1e-10)


# -- quantiles -----------------------------------------------------------------

def test_quantile_constant():
    approx = udr_build_scalar(lambda x: 1.5, CUBE2, 3)
    assert dr_quantile(approx, 0.3, 10**4, 0) == pytest.approx(1.5, rel=1e-12)


def test_quantile_uniform():
    approx = udr_build_scalar(lambda x: float(x[0]), CUBE1, 3)
    assert dr_quantile(approx, 0.95, 10**6, 1) == pytest.approx(0.9, abs=0.005)


def test_assembled_surrogate_reproduces_approximation():
    def f(x):
        return math.exp(0.5 * x[0]) + x[1] ** 2

    approx = udr_build_scalar(f, CUBE2, 4)
    rng = np.random.default_rng(2)
    xi = rng.uniform(-1, 1, (100, 2))
    # slice-wise chaos evaluation is exactly what __call__ implements; check
    # it against direct Krogh interpolation of f at the slice points
    nodes, _ = gauss_legendre(4)
    mid = np.searchsorted(nodes, 0.0)
    total = np.full(100, -(2 - 1) * f(np.zeros(2)))
    for i in range(2):
        pts = np.zeros((4, 2))
        pts[:, i] = nodes
        xs = np.insert(nodes, mid, 0.0)
        ys = np.insert([f(x) for x in pts], mid, f(np.zeros(2)))
        total += KroghInterpolator(xs, ys)(xi[:, i])
    np.testing.assert_allclose(approx(xi), total, atol=1e-10)


@pytest.mark.parametrize("shape", [(2, 4), (2, 2), (4,)])
def test_call_names_a_wrong_column_count(shape):
    approx = udr_build_scalar(lambda x: float(x.sum()), CUBE3, 2)
    with pytest.raises(ValueError, match=re.escape(
            f"UDRApprox: points must have 3 columns, got shape {shape}")):
        approx(np.zeros(shape))


# -- the slice solve ------------------------------------------------------------

@pytest.mark.parametrize("degree", [1, 2, 7, 28, 40])
def test_legendre_slopes_are_the_basis_derivatives(degree):
    # P'_n = n (x P_n - P_{n-1}) / (x^2 - 1) inside (-1, 1), at Gauss nodes
    # and points of [-1, 1]; at +-1, P'_n is exactly +-n(n+1)/2
    x = np.concatenate([[-1.0, 1.0], np.linspace(-0.98, 0.98, 9), gauss_legendre(20)[0]])
    n = np.arange(degree + 1)
    scale = np.sqrt(2.0 * n + 1.0)
    p = legendre_table(x[2:], degree) / scale
    want = np.zeros((x.size, degree + 1))
    want[0], want[1] = (-1.0) ** (n + 1) * n * (n + 1) / 2, n * (n + 1) / 2
    want[2:, 1:] = n[1:] * (x[2:, None] * p[:, 1:] - p[:, :-1]) / (x[2:, None] ** 2 - 1)
    want *= scale
    got = _legendre_slopes(x, degree)
    np.testing.assert_allclose(got[:2], want[:2], rtol=1e-14)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


# Slice data as the oracle gives it: zero, negative, or up to 1e4 in magnitude.
# No subnormals: a tolerance relative to one would underflow to zero.
slice_value = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_subnormal=False),
                        st.floats(-1e4, 1e4, allow_subnormal=False))


@st.composite
def slice_data(draw):
    # k runs to 20 for GUDR too, past the protocol's cap of 14
    k = draw(st.integers(1, 20))
    values = np.array(draw(st.lists(slice_value, min_size=k, max_size=k)))
    derivs = (np.array(draw(st.lists(slice_value, min_size=k, max_size=k)))
              if draw(st.booleans()) else None)
    return k, values, draw(slice_value), derivs


@settings(max_examples=200, deadline=None)
@given(slice_data())
def test_slice_meets_every_condition(data):
    # UDR and GUDR slices, odd k (a node at the center) and even k. The
    # residual is taken in the solve's own rows: at degree 40 another
    # double-precision derivative formula differs from them by up to 1e-11,
    # coarser than the solve (the test above checks the rows).
    k, values, center, derivs = data
    nodes, _ = gauss_legendre(k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        approx = _assemble(CUBE1, nodes, center, values[None],
                           None if derivs is None else derivs[None])
    c = approx.coefficients[0]
    degree = c.size - 1
    got, want = legendre_table(nodes, degree) @ c, values
    if np.abs(nodes).min() > _NODE_TOL:
        got, want = np.append(got, legendre_table(0.0, degree) @ c), np.append(want, center)
    if derivs is not None:
        got = np.append(got, _legendre_slopes(nodes, degree) @ c)
        want = np.append(want, derivs)
    assert c.size == want.size
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
