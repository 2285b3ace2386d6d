import json
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from gustuq import (FitError, InputSpace, KrigingModel, UncertainInput, kriging_fit,
                    kriging_predict, kriging_risk, latin_hypercube, to_standard)
from gustuq import kriging
from gustuq.kriging import (_GRID_POINTS, _MAX_NUGGET, _MIN_DIAG_RATIO, _THETA_BOUNDS,
                            _concentrated_fit, _correlation, _sq_dists)


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
    assert model2._alpha.tobytes() == model._alpha.tobytes()
    query = std_lhs(15, space, 12)
    np.testing.assert_allclose(kriging_predict(model2, query),
                               kriging_predict(model, query), rtol=1e-12)


@st.composite
def designs(draw, min_n=5):
    """Random design (n min_n-60, d 1-3), theta anywhere in the search box, and an rng."""
    n = draw(st.integers(min_n, 60))
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
@given(design=designs())
def test_predict_matches_direct_kernel(design):
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
    got = kriging_predict(model, query)
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


@pytest.mark.parametrize("argument, index, bad", [
    ("values", (3,), math.nan),
    ("values", (0,), -math.inf),
    ("points", (2, 1), math.inf),
    ("points", (5, 0), math.nan),
])
def test_rejects_non_finite_inputs_by_name(space, argument, index, bad):
    pts = std_lhs(8, space, 13)
    inputs = {"points": pts, "values": np.sin(pts).sum(axis=1)}
    inputs[argument][index] = bad
    inputs[argument].flat[-1] = math.inf  # a later bad entry is not the one named
    label = f"{argument}[{', '.join(map(str, index))}]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the distance tensor either
        with pytest.raises(ValueError, match=re.escape(
                f"kriging_fit: {label} is {bad}; it must be finite")):
            kriging_fit(inputs["points"], inputs["values"])


@pytest.mark.parametrize("nugget", [math.nan, math.inf])
def test_rejects_non_finite_nugget_by_name(line, nugget):
    pts = np.array([[-0.5], [0.0], [0.5]])
    with pytest.raises(ValueError, match=f"kriging_fit: nugget is {nugget}; it must be finite"):
        kriging_fit(pts, pts[:, 0], nugget=nugget)


@pytest.mark.parametrize("nugget", [0.0, -1e-10])
def test_rejects_non_positive_nugget_by_name(nugget):
    # at nugget 0 the tenfold escalation never grows, so this design retried forever
    pts = np.array([[0.0], [1e-9], [0.5], [1.0]])
    with pytest.raises(ValueError, match=re.escape(
            f"kriging_fit: nugget is {nugget}; it must be positive")):
        kriging_fit(pts, np.arange(4.0), nugget=nugget)


def test_fit_keeps_its_own_copy_of_the_training_data():
    rng = np.random.default_rng(18)
    pts = rng.uniform(-1.0, 1.0, (20, 2))
    values = np.sin(3.0 * pts).sum(axis=1)
    want = _fresh_fit(pts.copy(), values.copy())
    model = _fresh_fit(pts, values)
    _assert_same_model(model, want)
    at = np.array([0.1, 0.2])
    before = model.predict(at)
    pts[:] = rng.uniform(-1.0, 1.0, pts.shape)
    values[:] = 10.0
    assert model.predict(at) == before
    _assert_same_model(model, want)


@pytest.mark.parametrize("shape", [(2, 4), (2, 2), (4,)])
def test_predict_names_a_wrong_column_count(space, shape):
    pts = std_lhs(10, space, 14)
    model = kriging_fit(pts, pts.sum(axis=1))
    with pytest.raises(ValueError, match=re.escape(
            f"kriging_predict: points must have 3 columns, got shape {shape}")):
        model.predict(np.zeros(shape))


def test_from_json_rejects_non_finite_fields_by_name(space):
    pts = std_lhs(10, space, 14)
    doc = json.loads(kriging_fit(pts, pts.sum(axis=1)).to_json())
    doc["train_values"][1] = math.nan
    with pytest.raises(ValueError, match=re.escape(
            "KrigingModel.from_json: train_values[1] is nan; it must be finite")):
        KrigingModel.from_json(json.dumps(doc))


# A program-written document edited one field at a time: (field, edit).
MALFORMED = {
    "two lengthscales": ("lengthscales", lambda xs: xs[:2]),
    "a negative lengthscale": ("lengthscales", lambda xs: [-xs[0]] + xs[1:]),
    "a zero lengthscale": ("lengthscales", lambda xs: [0.0] + xs[1:]),
    "five train_values": ("train_values", lambda xs: xs[:5]),
    "1-D train_points": ("train_points", lambda xs: [x[0] for x in xs]),
    "a duplicate training point": ("train_points", lambda xs: xs[:-1] + [xs[0]]),
    "a negative nugget": ("nugget", lambda x: -x),
    "nugget 0": ("nugget", lambda x: 0.0),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_from_json_names_the_malformed_field(space, case):
    field, edit = MALFORMED[case]
    pts = std_lhs(20, space, 14)
    doc = json.loads(kriging_fit(pts, pts.sum(axis=1)).to_json())
    doc[field] = edit(doc[field])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^KrigingModel.from_json: .*{field}"):
            KrigingModel.from_json(json.dumps(doc))


def _reference_concentrated_fit(sq, values, theta, nugget):
    """(log-likelihood, trend, process variance, cholesky factor) at fixed theta.

    Raises LinAlgError for non-SPD or numerically near-singular
    correlation matrices, so the optimizer treats both alike.
    """
    n = sq.shape[0]
    corr = _correlation(sq, theta, nugget)
    factor = cho_factor(corr, lower=True)
    diag = np.diag(factor[0])
    if diag.min() < _MIN_DIAG_RATIO * diag.max():
        raise LinAlgError("correlation matrix too ill-conditioned")
    ones = np.ones(n)
    rinv_ones = cho_solve(factor, ones)
    rinv_y = cho_solve(factor, values)
    beta = float(ones @ rinv_y) / float(ones @ rinv_ones)
    resid = values - beta
    sigma2 = float(resid @ cho_solve(factor, resid)) / n
    logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
    scale = max(float(values @ values) / n, 1.0)
    if sigma2 <= 1e-15 * scale:
        # Degenerate (e.g. constant data): flat likelihood, any theta works.
        return math.inf, beta, max(sigma2, 0.0), factor
    ll = -0.5 * n * math.log(sigma2) - 0.5 * logdet
    return ll, beta, sigma2, factor


def _bits(*xs):
    return [np.asarray(x, dtype=float).tobytes() for x in xs]


@settings(max_examples=150, deadline=None)
@given(design=designs(min_n=4), constant=st.booleans())
def test_concentrated_fit_matches_cho_factor_reference_bit_for_bit(design, constant):
    pts, theta, rng = design
    n = pts.shape[0]
    values = np.full(n, 2.5) if constant else rng.normal(size=n)
    sq = _sq_dists(pts, pts)
    for nugget in _nugget_ladder():
        try:
            want = _reference_concentrated_fit(sq, values, theta, nugget)
        except LinAlgError as exc:
            with pytest.raises(LinAlgError, match=f"^{re.escape(str(exc))}$"):
                _concentrated_fit(sq, values, theta, nugget)
            continue
        got = _concentrated_fit(sq, values, theta, nugget)
        assert _bits(*got[:3]) == _bits(*want[:3])
        # alpha, the model's prediction weights when this θ wins the search
        assert _bits(got[3]) == _bits(cho_solve(want[3], values - want[1]))


_MODEL_FIELDS = ("lengthscales", "trend", "process_variance", "nugget", "_alpha",
                 "train_points", "train_values")


def _assert_same_model(got, want):
    for field in _MODEL_FIELDS:
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field


@pytest.fixture
def empty_memo():
    kriging._rejected_thetas.cache_clear()
    yield
    kriging._rejected_thetas.cache_clear()


def _fresh_fit(points, values, **kwargs):
    """A fit that starts from an empty rejection memo."""
    kriging._rejected_thetas.cache_clear()
    return kriging_fit(points, values, **kwargs)


def _factored_thetas(monkeypatch):
    """Record the theta of every correlation matrix kriging hands to dpotrf."""
    built, factored = [], []
    correlation, (dpotrf, dpotrs) = kriging._correlation, kriging._lapack()

    def spy_correlation(sq, theta, nugget):
        built.append(np.asarray(theta).tobytes())
        return correlation(sq, theta, nugget)

    def spy_dpotrf(*args, **kwargs):
        factored.append(built[-1])
        return dpotrf(*args, **kwargs)

    monkeypatch.setattr(kriging, "_correlation", spy_correlation)
    monkeypatch.setattr(kriging, "_lapack", lambda: (spy_dpotrf, dpotrs))
    return factored


def _reference_rejects(points, theta_bytes):
    sq = _sq_dists(points, points)
    try:
        _reference_concentrated_fit(sq, np.zeros(len(points)), np.frombuffer(theta_bytes),
                                    1e-10)
    except LinAlgError:
        return True
    return False


def _qois(pts):
    return np.sin(2.0 * pts[:, 0]) + pts[:, 1] * pts[:, 2], np.exp(pts[:, 0]) - pts[:, 2] ** 2


def test_second_qoi_factors_no_theta_the_first_rejected(space, empty_memo, monkeypatch):
    pts = std_lhs(60, space, 15)
    first, second = _qois(pts)
    want = _fresh_fit(pts, second)
    kriging._rejected_thetas.cache_clear()
    factored = _factored_thetas(monkeypatch)
    kriging_fit(pts, first)
    rejected = {t for t in factored if _reference_rejects(pts, t)}
    assert rejected  # the design is dense enough to provoke the guard
    del factored[:]
    _assert_same_model(kriging_fit(pts, second), want)
    assert factored and not rejected.intersection(factored)


def test_a_fit_factors_each_theta_once(space, empty_memo, monkeypatch):
    pts = std_lhs(32, space, 18)
    factored = _factored_thetas(monkeypatch)
    for values in _qois(pts):
        del factored[:]
        model = kriging_fit(pts, values)
        counts = Counter(factored)
        assert counts[model.lengthscales.tobytes()] == 1  # the model is the scored fit
        assert max(counts.values()) == 1


def test_memo_follows_the_design(space, empty_memo):
    # The clustered copy of a design rejects many more theta than the design itself,
    # so a memo served across designs would change the spread design's fit.
    spread = std_lhs(40, space, 16)
    clustered = 0.2 * spread
    want = {name: _fresh_fit(pts, _qois(pts)[0])
            for name, pts in (("clustered", clustered), ("spread", spread))}
    kriging._rejected_thetas.cache_clear()
    for name, pts in (("clustered", clustered), ("spread", spread), ("clustered", clustered)):
        _assert_same_model(kriging_fit(pts, _qois(pts)[0]), want[name])

    # an in-place edit of the same array is a new design
    pts = clustered.copy()
    kriging_fit(pts, _qois(pts)[0])
    pts /= 0.2
    got = kriging_fit(pts, _qois(pts)[0])
    _assert_same_model(got, _fresh_fit(pts, _qois(pts)[0]))


def test_memo_is_not_served_across_nuggets_or_guard_ratios(space, empty_memo, monkeypatch):
    pts = std_lhs(60, space, 17)
    first, second = _qois(pts)
    want_nugget = _fresh_fit(pts, second, nugget=1e-6)
    monkeypatch.setattr(kriging, "_MIN_DIAG_RATIO", 1e-5)
    want_ratio = _fresh_fit(pts, second)
    monkeypatch.setattr(kriging, "_MIN_DIAG_RATIO", _MIN_DIAG_RATIO)

    factored = _factored_thetas(monkeypatch)
    kriging._rejected_thetas.cache_clear()
    kriging_fit(pts, first)
    rejected = {t for t in factored if _reference_rejects(pts, t)}
    assert rejected

    del factored[:]
    _assert_same_model(kriging_fit(pts, second, nugget=1e-6), want_nugget)
    assert rejected.intersection(factored)

    kriging_fit(pts, first)
    del factored[:]
    monkeypatch.setattr(kriging, "_MIN_DIAG_RATIO", 1e-5)
    _assert_same_model(kriging_fit(pts, second), want_ratio)
    assert rejected.intersection(factored)


@pytest.mark.parametrize("start", [1e-10, _MAX_NUGGET])
def test_a_nugget_that_rejects_every_grid_theta_raises_the_nugget(space, empty_memo, monkeypatch,
                                                                   start):
    pts = std_lhs(30, space, 19)
    values = _qois(pts)[0]
    concentrated_fit, tried = kriging._concentrated_fit, []

    def reject_at_start(sq, values, theta, nugget):
        if nugget == start:
            tried.append(theta.tobytes())
            raise LinAlgError("rejected at the starting nugget")
        return concentrated_fit(sq, values, theta, nugget)

    monkeypatch.setattr(kriging, "_concentrated_fit", reject_at_start)
    if start == _MAX_NUGGET:
        with pytest.raises(FitError, match="not positive definite even at nugget 0.0001"):
            kriging_fit(pts, values, nugget=start)
    else:
        got = kriging_fit(pts, values, nugget=start)
        monkeypatch.setattr(kriging, "_concentrated_fit", concentrated_fit)
        assert got.nugget == _nugget_ladder(start)[1]
        _assert_same_model(got, _fresh_fit(pts, values, nugget=got.nugget))
    # every grid θ was tried once at the starting nugget, and no descent step followed
    assert len(tried) == len(set(tried)) == _GRID_POINTS ** pts.shape[1]
