import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gustuq import (InputSpace, UncertainInput, dr_quantile, export_pdf_data,
                    fit_regression, kriging_fit, kriging_risk,
                    latin_hypercube, nearest_rank_quantile, pce_quantile,
                    risk_from_samples, to_standard, udr_build_scalar)
from gustuq.core import (_SAMPLE_CHUNK, sample_surrogate, substream,
                         uniform_physical_samples)


def test_bounds_map_to_standard_corners(space):
    np.testing.assert_allclose(to_standard(np.array([40.0, 4.0, 5.0]), space), [-1, -1, -1])
    np.testing.assert_allclose(to_standard(np.array([50.0, 6.0, 10.0]), space), [0, 0, 0])
    np.testing.assert_allclose(to_standard(np.array([60.0, 8.0, 15.0]), space), [1, 1, 1])


def test_out_of_bounds_names_offender(space):
    with pytest.raises(ValueError, match="gust_length"):
        to_standard(np.array([50.0, 9.5, 10.0]), space)


@pytest.mark.parametrize("point, name", [
    ([np.nan, 5.0, 10.0], "freestream_velocity"),
    ([50.0, 5.0, np.nan], "peak_gust_velocity"),
    ([[50.0, 5.0, 10.0], [np.nan, 5.0, 10.0]], "freestream_velocity"),
])
def test_nan_input_is_outside_its_range(space, point, name):
    with pytest.raises(ValueError, match=re.escape(f"input {name!r} outside its "
                                                   "[lower, upper] range")):
        to_standard(np.array(point), space)


def test_round_trip(space):
    # the box's lower corner, upper corner and midpoint, one at a time and stacked
    corners = np.stack([space.lower, space.upper, space.midpoint])
    want = np.array([[-1.0] * 3, [1.0] * 3, [0.0] * 3])
    for x, w in zip(corners, want):
        np.testing.assert_array_equal(to_standard(x, space), w)
    np.testing.assert_array_equal(to_standard(corners, space), want)


@pytest.mark.parametrize("shape", [(2, 4), (4,), (2, 2), (2, 3, 3)])
def test_to_standard_names_a_wrong_column_count(space, shape):
    with pytest.raises(ValueError, match=re.escape(
            f"to_standard: points must have 3 columns, got shape {shape}")):
        to_standard(np.full(shape, 50.0), space)


def test_every_predictor_returns_a_float_for_one_point(space):
    # a (d,) point gives a float: the value of that point as a (1, d) stack
    x = latin_hypercube(20, space, 3)
    pts = to_standard(x, space)
    values = np.sin(pts).sum(axis=1)
    predictors = {
        "PCESurrogate": fit_regression(pts, values, 2, space).predict,
        "KrigingModel": kriging_fit(pts, values).predict,
        "UDRApprox": udr_build_scalar(lambda p: float(np.sin(to_standard(p, space)).sum()),
                                      space, 3),
    }
    point = np.array([0.1, -0.2, 0.3])
    for name, predict in predictors.items():
        got = predict(point)
        assert type(got) is float, name
        assert got == predict(point[None, :])[0], name


def test_input_validation():
    with pytest.raises(ValueError):
        UncertainInput("x", 1.0, 1.0)
    with pytest.raises(ValueError):
        InputSpace((UncertainInput("x", 0, 1), UncertainInput("x", 0, 2)))
    with pytest.raises(ValueError):
        InputSpace(())


def test_lhs_single_point_inside_box(space):
    pts = latin_hypercube(1, space, seed=4)
    assert pts.shape == (1, 3)
    assert (pts >= space.lower).all() and (pts <= space.upper).all()


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_lhs_stratification(space, seed):
    n = 10
    pts = latin_hypercube(n, space, seed)
    u = (pts - space.lower) / (space.upper - space.lower)
    strata = np.floor(u * n).astype(int)
    for j in range(3):
        assert sorted(strata[:, j]) == list(range(n))


def test_lhs_deterministic(space):
    np.testing.assert_array_equal(latin_hypercube(25, space, 7),
                                  latin_hypercube(25, space, 7))


def test_lhs_rejects_zero(space):
    with pytest.raises(ValueError):
        latin_hypercube(0, space, 0)


def test_risk_small_sample():
    r = risk_from_samples([1.0, 2.0, 3.0], 0.95)
    assert r.mean == pytest.approx(2.0)
    assert r.std_dev == pytest.approx(1.0)
    assert r.p95 == 3.0


def test_risk_nearest_rank_by_hand():
    values = np.arange(1, 101, dtype=float)
    assert risk_from_samples(values, 0.95).p95 == 95.0


def test_risk_constant_sample():
    r = risk_from_samples([4.2] * 10, 0.95)
    assert r.mean == pytest.approx(4.2)
    assert r.std_dev == pytest.approx(0.0, abs=1e-14)
    assert r.p95 == 4.2


def test_risk_needs_two_values():
    with pytest.raises(ValueError):
        risk_from_samples([1.0], 0.95)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
       st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_risk_permutation_invariant(values, rand):
    shuffled = list(values)
    rand.shuffle(shuffled)
    a = risk_from_samples(values, 0.9)
    b = risk_from_samples(shuffled, 0.9)
    assert a.mean == pytest.approx(b.mean, abs=1e-9, rel=1e-12)
    assert a.std_dev == pytest.approx(b.std_dev, abs=1e-9, rel=1e-12)
    assert a.p95 == b.p95


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.floats(0.01, 0.99))
@settings(max_examples=100, deadline=None)
def test_quantile_is_sample_element(values, p):
    assert nearest_rank_quantile(values, p) in values


@pytest.mark.parametrize("reduce, name", [(lambda v: risk_from_samples(v, 0.95),
                                            "risk_from_samples"),
                                           (lambda v: nearest_rank_quantile(v, 0.5),
                                            "nearest_rank_quantile")],
                         ids=["risk", "quantile"])
@pytest.mark.parametrize("values, index, shown", [
    ([1.0, np.inf, 2.0], 1, "inf"),
    ([np.nan, 1.0, 2.0], 0, "nan"),
    ([1.0, 2.0, -np.inf, np.nan], 2, "-inf"),
])
def test_non_finite_samples_are_named_by_index(reduce, name, values, index, shown):
    with pytest.raises(ValueError, match=re.escape(f"{name}: values[{index}] is {shown}; "
                                                   "it must be finite")):
        reduce(values)


def test_uniform_sampling_prefix_stable(space):
    short = uniform_physical_samples(100, space, 3)
    long = uniform_physical_samples(200, space, 3)
    np.testing.assert_array_equal(long[:100], short)


# -- surrogate sampling ---------------------------------------------------------

@pytest.fixture(scope="module")
def surrogates():
    space = InputSpace((UncertainInput("a", 0.0, 2.0), UncertainInput("b", -1.0, 3.0),
                        UncertainInput("c", 5.0, 6.0)))
    xi = to_standard(latin_hypercube(20, space, 4), space)
    values = np.sin(2.0 * xi[:, 0]) + xi[:, 1] * xi[:, 2]
    return {
        "kriging": kriging_fit(xi, values),
        "pce": fit_regression(xi, values, 2, space),
        "dr": udr_build_scalar(lambda x: float(np.sin(x).sum()), space, 4),
    }


def _histogram(samples, bins):
    densities, edges = np.histogram(samples, bins=bins, range=(samples.min(), samples.max()),
                                    density=True)
    return 0.5 * (edges[:-1] + edges[1:]), densities


# tag -> (surrogate, entry point at (n, seed), its reduction of the sampled values)
ENTRY_POINTS = {
    "kriging-risk": ("kriging", lambda s, n, seed: kriging_risk(s, 0.9, n, seed),
                     lambda v: risk_from_samples(v, 0.9)),
    "pce-quantile": ("pce", lambda s, n, seed: pce_quantile(s, 0.9, n, seed),
                     lambda v: nearest_rank_quantile(v, 0.9)),
    "dr-quantile": ("dr", lambda s, n, seed: dr_quantile(s, 0.9, n, seed),
                    lambda v: nearest_rank_quantile(v, 0.9)),
    "pdf": ("kriging", lambda s, n, seed: export_pdf_data(s, n, 30, seed),
            lambda v: _histogram(v, 30)),
}


def _predict(surrogate):
    return surrogate if callable(surrogate) else surrogate.predict


# n = 10**4 is a whole number of sampling chunks; 10**4 + 37 is not
@pytest.mark.parametrize("tag, n", [pytest.param(tag, n, id=tag if n == 10**4 else f"{tag}-{n}")
                                    for n in (10**4, 10**4 + 37) for tag in sorted(ENTRY_POINTS)])
def test_each_entry_point_reduces_its_own_tagged_cloud_bit_for_bit(surrogates, tag, n):
    kind, entry, reduce = ENTRY_POINTS[tag]
    seed = 7
    cloud = substream(seed, tag).random((n, 3)) * 2.0 - 1.0
    got = entry(surrogates[kind], n, seed)
    want = reduce(_predict(surrogates[kind])(cloud))
    if tag == "pdf":
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    else:
        assert got == want


@pytest.mark.parametrize("n", [1, _SAMPLE_CHUNK, _SAMPLE_CHUNK + 1, 3 * _SAMPLE_CHUNK - 7])
def test_sampling_hands_predict_the_cloud_in_bounded_blocks_in_order(n):
    blocks = []

    def spy(xi):
        blocks.append(xi.copy())
        return xi.sum(axis=1)

    got = sample_surrogate(spy, 3, n, 5, "spy")
    cloud = substream(5, "spy").random((n, 3)) * 2.0 - 1.0
    assert all(1 <= len(b) <= _SAMPLE_CHUNK for b in blocks)
    np.testing.assert_array_equal(np.vstack(blocks), cloud)
    np.testing.assert_array_equal(got, np.concatenate([b.sum(axis=1) for b in blocks]))


def test_sampling_memory_beyond_the_output_does_not_grow_with_the_cloud():
    def extra_peak(n):
        tracemalloc.start()
        try:
            sample_surrogate(lambda xi: xi.sum(axis=1), 3, n, 5, "spy")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - 8 * n  # less the output array

    extra_peak(2 * 10**4)  # first-call allocations
    small, large = extra_peak(2 * 10**4), extra_peak(2 * 10**5)
    assert large <= small + 1024


@pytest.mark.parametrize("tag", ["kriging-risk", "dr-quantile", "pdf"])
@pytest.mark.parametrize("n", [0, -5])
def test_sampling_rejects_fewer_than_one_sample_by_name(surrogates, tag, n):
    kind, entry, _ = ENTRY_POINTS[tag]
    with pytest.raises(ValueError, match=f"n_samples must be at least 1, got {n}"):
        entry(surrogates[kind], n, 0)


def test_pce_quantile_keeps_its_sample_floor(surrogates):
    with pytest.raises(ValueError, match="at least 1e4 samples"):
        pce_quantile(surrogates["pce"], 0.9, 10**4 - 1, 0)
