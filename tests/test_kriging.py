import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from gustuq import (InputSpace, KrigingModel, UncertainInput, kriging_fit,
                    kriging_predict, kriging_risk, latin_hypercube, to_standard)
from gustuq.kriging import _MAX_NUGGET, _THETA_BOUNDS, _correlation, _sq_dists


@pytest.fixture
def line():
    return InputSpace((UncertainInput("x", -1, 1),))


def std_lhs(n, space, seed):
    return to_standard(latin_hypercube(n, space, seed), space)


def test_rejects_tiny_design(line):
    with pytest.raises(ValueError):
        kriging_fit(np.array([[0.0]]), np.array([1.0]))


def test_interpolates_collinear_values(line):
    pts = np.array([[-0.8], [0.1], [0.7]])
    values = 2.0 + 3.0 * pts[:, 0]
    model = kriging_fit(pts, values)
    np.testing.assert_allclose(kriging_predict(model, pts), values, atol=1e-8)


def test_constant_values(line):
    pts = np.array([[-0.5], [0.0], [0.5]])
    model = kriging_fit(pts, np.full(3, 3.3))
    assert model.trend == pytest.approx(3.3)
    query = np.linspace(-1, 1, 7)[:, None]
    np.testing.assert_allclose(kriging_predict(model, query), 3.3, rtol=1e-12)


def _log_likelihood(points, values, theta, nugget):
    # direct evaluation of the concentrated likelihood, independent of the fit code
    n = points.shape[0]
    d2 = (points[:, None, :] - points[None, :, :]) ** 2
    corr = np.exp(-d2 @ theta) + nugget * np.eye(n)
    factor = cho_factor(corr, lower=True)
    diag = np.diag(factor[0])
    if diag.min() < 1e-3 * diag.max():
        return None  # rejected as ill-conditioned by the fit as well
    ones = np.ones(n)
    beta = ones @ cho_solve(factor, values) / (ones @ cho_solve(factor, ones))
    resid = values - beta
    sigma2 = resid @ cho_solve(factor, resid) / n
    return -0.5 * n * np.log(sigma2) - np.log(diag).sum()


def test_likelihood_beats_grid_starts(space):
    pts = std_lhs(40, space, 2)
    values = np.sin(2 * pts[:, 0]) + pts[:, 1] * pts[:, 2]
    model = kriging_fit(pts, values)
    best = _log_likelihood(pts, values, model.lengthscales, model.nugget)
    grid = np.logspace(-2, 2, 5)
    for t1 in grid:
        for t2 in grid:
            for t3 in grid:
                ll = _log_likelihood(pts, values, np.array([t1, t2, t3]), model.nugget)
                if ll is not None:
                    assert best >= ll - 1e-9


def test_interpolation_property(space):
    pts = std_lhs(50, space, 3)
    values = np.exp(-pts[:, 0]) + 0.3 * pts[:, 1] ** 3 + pts[:, 2]
    model = kriging_fit(pts, values)
    err = np.abs(kriging_predict(model, pts) - values).max()
    assert err / np.abs(values).max() < 1e-6


def test_far_field_returns_trend(space):
    pts = std_lhs(20, space, 4)
    values = np.cos(pts).sum(axis=1)
    model = kriging_fit(pts, values)
    far = kriging_predict(model, np.full(3, 1e4))
    assert far == pytest.approx(model.trend, rel=1e-12)


def test_symmetric_data_prediction_at_origin(line):
    # direct evaluation of the predictor formula as the oracle
    pts = np.array([[-0.9], [-0.4], [0.4], [0.9]])
    values = np.array([1.0, 2.0, 4.0, 3.0])
    model = kriging_fit(pts, values)
    d2 = (pts[:, None, :] - pts[None, :, :]) ** 2
    corr = np.exp(-d2 @ model.lengthscales) + model.nugget * np.eye(4)
    r0 = np.exp(-(0.0 - pts[:, 0]) ** 2 * model.lengthscales[0])
    expected = model.trend + r0 @ np.linalg.solve(corr, values - model.trend)
    assert kriging_predict(model, np.zeros(1)) == pytest.approx(expected, rel=1e-10)


def test_translation_equivariance(space):
    pts = std_lhs(30, space, 5)
    values = pts[:, 0] ** 2 + pts[:, 1]
    query = std_lhs(10, space, 6)
    base = kriging_fit(pts, values)
    shifted = kriging_fit(pts, values + 5.0)
    np.testing.assert_allclose(kriging_predict(shifted, query),
                               kriging_predict(base, query) + 5.0, rtol=1e-8)


def test_scale_equivariance(space):
    pts = std_lhs(30, space, 7)
    values = np.sin(pts[:, 0]) + pts[:, 2]
    query = std_lhs(10, space, 8)
    base = kriging_fit(pts, values)
    scaled = kriging_fit(pts, 3.0 * values)
    np.testing.assert_allclose(kriging_predict(scaled, query),
                               3.0 * kriging_predict(base, query), rtol=1e-8)


def test_duplicates_rejected(line):
    pts = np.array([[0.1], [0.1], [0.5], [0.9]])
    with pytest.raises(ValueError, match="duplicate"):
        kriging_fit(pts, np.arange(4.0))


def test_risk_constant_data(line):
    pts = np.array([[-0.5], [0.0], [0.5]])
    model = kriging_fit(pts, np.full(3, 2.0))
    risk = kriging_risk(model, 0.95, 10**4, 0)
    assert risk.mean == pytest.approx(2.0, rel=1e-10)
    assert risk.std_dev == pytest.approx(0.0, abs=1e-9)
    assert risk.p95 == pytest.approx(2.0, rel=1e-10)


def test_risk_linear_model(line):
    pts = std_lhs(50, line, 9)
    model = kriging_fit(pts, pts[:, 0])
    risk = kriging_risk(model, 0.95, 10**5, 1)
    assert risk.mean == pytest.approx(0.0, abs=0.01)
    assert risk.std_dev == pytest.approx(np.sqrt(1.0 / 3.0), abs=0.01)


def test_risk_seed_stability(line):
    # two seeds agree within a few standard errors of the empirical quantile
    pts = std_lhs(50, line, 10)
    model = kriging_fit(pts, pts[:, 0] ** 2)
    n = 10**5
    q1 = kriging_risk(model, 0.95, n, 1).p95
    q2 = kriging_risk(model, 0.95, n, 2).p95
    # bootstrap oracle for the quantile standard error
    rng = np.random.default_rng(0)
    base = kriging_predict(model, rng.uniform(-1, 1, (n, 1)))
    reps = [np.sort(rng.choice(base, n))[int(np.ceil(0.95 * n)) - 1] for _ in range(30)]
    se = np.std(reps, ddof=1)
    assert abs(q1 - q2) < 3 * max(se, 1e-12) + 3 * se


def test_json_round_trip(space):
    pts = std_lhs(25, space, 11)
    values = pts[:, 0] + pts[:, 1] * pts[:, 2]
    model = kriging_fit(pts, values)
    model2 = KrigingModel.from_json(model.to_json())
    query = std_lhs(15, space, 12)
    np.testing.assert_allclose(kriging_predict(model2, query),
                               kriging_predict(model, query), rtol=1e-12)


@st.composite
def designs(draw):
    """Random design (n 5-60, d 1-3), theta anywhere in the search box, and an rng."""
    n = draw(st.integers(5, 60))
    d = draw(st.integers(1, 3))
    lo, hi = (math.log10(b) for b in _THETA_BOUNDS)
    log_theta = draw(st.lists(st.floats(lo, hi), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(-1.0, 1.0, (n, d)), 10.0 ** np.array(log_theta), rng


def _nugget_ladder(start=1e-10):
    # the escalation sequence kriging_fit walks when factorizations fail
    ladder = [start]
    while ladder[-1] < _MAX_NUGGET:
        ladder.append(min(ladder[-1] * 10.0, _MAX_NUGGET))
    return ladder


@settings(max_examples=200, deadline=None)
@given(design=designs(), chunk=st.integers(1, 64))
def test_predict_matches_direct_kernel(design, chunk):
    pts, theta, rng = design
    n, d = pts.shape
    model = KrigingModel(train_points=pts, train_values=rng.normal(size=n),
                         lengthscales=theta, process_variance=1.0,
                         trend=float(rng.normal()), nugget=1e-10,
                         _alpha=rng.normal(size=n))
    query = np.vstack([
        pts,                                                 # the training points
        rng.uniform(-1.0, 1.0, (10, d)),                     # inside the box
        rng.uniform(-4.0, 4.0, (10, d)),                     # near field
        rng.choice([-1.0, 1.0], (5, d)) * rng.uniform(1e3, 1e4, (5, d)),  # far field
    ])
    # direct sum_k theta_k (a_k - b_k)^2 kernel as the reference
    dist = ((query[:, None, :] - pts[None, :, :]) ** 2 * theta).sum(axis=2)
    r = np.exp(-dist)
    want = model.trend + r @ model._alpha
    # rounding scale of the predictor's dot product
    scale = abs(model.trend) + r @ np.abs(model._alpha)
    got = kriging_predict(model, query, chunk=chunk)
    assert np.all(np.abs(got - want) <= 1e-10 * scale)
    assert np.array_equal(got[-5:], np.full(5, model.trend))


@settings(max_examples=100, deadline=None)
@given(design=designs())
def test_cached_correlation_equals_from_points_formula(design):
    pts, theta, _ = design
    n = pts.shape[0]
    sq = _sq_dists(pts, pts)
    for nugget in _nugget_ladder():
        corr = _correlation(sq, theta, nugget)
        assert np.array_equal(corr, np.exp(-_sq_dists(pts, pts) @ theta) + nugget * np.eye(n))
    assert np.array_equal(sq, _sq_dists(pts, pts))
