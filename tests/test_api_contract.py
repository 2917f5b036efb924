"""The library's entry points on malformed arguments.

Hypothesis draws arguments of the wrong rank, empty ones, NaN and ±inf
cells, finite values near the float limit, mismatched lengths, and bool or
float counts and seeds. Every call must return, or raise a
``WorkbenchError`` subclass; any other exception fails the test, and so
does a leaked numpy ``RuntimeWarning``, which pytest turns into an error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marginlab import (
    Dataset,
    DomainError,
    NumericalError,
    SearchConfig,
    WorkbenchError,
    adv_directions,
    cross_validate_predictor,
    cumulative_share,
    extract_signature,
    fit_linear_predictor,
    fit_pca,
    kendall_tau,
    max_margin,
    normalize,
    predict_gap,
    r_squared,
    search_margins,
)
from marginlab.margin import compute_total_variation, tv_normalize
from marginlab.nnet import DenseLayer, Network

CONTRACT = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

# the edges first, then any float; an array's cells come either from these
# or from the finite ones alone, so that values near the float limit reach
# the arithmetic that a non-finite cell would stop at the entry check
_EDGES = [1e308, -1e308, 1e200, -1e200, 5e-324, 0.0, -0.0, 1.0, -1.0]
FINITE = st.one_of(st.sampled_from(_EDGES),
                   st.floats(allow_nan=False, allow_infinity=False))
CELLS = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, *_EDGES]),
                  st.floats(allow_nan=True, allow_infinity=True))


def _filled(shape):
    return st.sampled_from([CELLS, FINITE]).flatmap(
        lambda cells: hnp.arrays(np.float64, shape, elements=cells))


def arrays(max_dims=3, max_side=5):
    """Float arrays of rank 0 to ``max_dims``, empty ones included."""
    return _filled(hnp.array_shapes(min_dims=0, max_dims=max_dims,
                                    min_side=0, max_side=max_side))


def matrices(max_rows=8, max_cols=6):
    """Float matrices with zero rows or columns included."""
    return _filled(st.tuples(st.integers(0, max_rows),
                             st.integers(0, max_cols)))


# counts and seeds: integers, negative ones included, bools and floats
COUNTS = st.one_of(st.integers(-2, 6), st.booleans(),
                   st.sampled_from([1.5, 2.0, 2.5, -1.0, np.nan, np.inf]))


def _returns_or_raises_workbench_error(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except WorkbenchError:
        pass


def _fixed_fit():
    rng = np.random.default_rng(0)
    features = rng.uniform(0.1, 2.0, size=(12, 5))
    return fit_linear_predictor(features, rng.normal(size=12))


_FIT = _fixed_fit()
_PCA = fit_pca(np.random.default_rng(1).normal(size=(20, 3)))


def _fixed_net():
    """A 3-input ReLU net with three classes, its weights of order one."""
    rng = np.random.default_rng(3)
    return Network([DenseLayer(rng.normal(size=(4, 3)), rng.normal(size=4),
                               "relu"),
                    DenseLayer(rng.normal(size=(3, 4)), rng.normal(size=3),
                               "none")], 3, 3)


_NET = _fixed_net()


@CONTRACT
@given(st.one_of(arrays(), matrices(max_cols=3),
                 _filled(st.tuples(st.integers(0, 8), st.just(2)))))
def test_kendall_tau(pairs):
    _returns_or_raises_workbench_error(kendall_tau, pairs)


@CONTRACT
@given(arrays(), arrays())
def test_r_squared(z, z_hat):
    _returns_or_raises_workbench_error(r_squared, z, z_hat)


@CONTRACT
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(_filled((n,)),
                        _filled((n,)))))
def test_r_squared_equal_lengths(pair):
    _returns_or_raises_workbench_error(r_squared, *pair)


@CONTRACT
@given(st.one_of(arrays(), matrices()), arrays(max_dims=2, max_side=8))
def test_fit_linear_predictor(features, gaps):
    _returns_or_raises_workbench_error(fit_linear_predictor, features, gaps)


@CONTRACT
@given(st.one_of(arrays(), matrices(), matrices(max_cols=0).map(
    lambda a: np.resize(a, (a.shape[0], 5)))))
def test_predict_gap(features):
    _returns_or_raises_workbench_error(predict_gap, _FIT, features)


@CONTRACT
@given(st.one_of(arrays(), matrices()), arrays(max_dims=2, max_side=8),
       COUNTS, COUNTS, st.one_of(COUNTS, st.integers(-5, 2 ** 40)))
def test_cross_validate_predictor(features, gaps, k, shuffles, seed):
    _returns_or_raises_workbench_error(cross_validate_predictor, features,
                                       gaps, k=k, shuffles=shuffles,
                                       seed=seed)


@CONTRACT
@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(_filled((n, 5)),
                        _filled((n,)))),
       COUNTS, COUNTS, COUNTS)
def test_cross_validate_predictor_matching_rows(data, k, shuffles, seed):
    _returns_or_raises_workbench_error(cross_validate_predictor, *data,
                                       k=k, shuffles=shuffles, seed=seed)


@CONTRACT
@given(arrays())
def test_extract_signature(margins):
    _returns_or_raises_workbench_error(extract_signature, margins)


@CONTRACT
@given(st.one_of(
    st.tuples(arrays(), arrays()),
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(_filled((n, 3)),
                            _filled((n, 3))))))
def test_adv_directions(points):
    _returns_or_raises_workbench_error(adv_directions, _PCA, *points)


@CONTRACT
@given(arrays(), arrays())
def test_cumulative_share(p_share, explained_ratio):
    _returns_or_raises_workbench_error(cumulative_share, p_share,
                                       explained_ratio)


@CONTRACT
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(_filled((n,)),
                        _filled((n,)))))
def test_cumulative_share_equal_lengths(pair):
    _returns_or_raises_workbench_error(cumulative_share, *pair)


@CONTRACT
@given(st.one_of(
    st.tuples(st.one_of(arrays(), matrices(max_cols=3)),
              st.lists(st.integers(0, 2), max_size=9)),
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(_filled((n, 2)),
                            st.lists(st.integers(0, 2), min_size=n,
                                     max_size=n)))))
def test_max_margin(data):
    features, labels = data
    labels = np.array(labels, dtype=np.int64)
    flags = np.zeros(labels.size, dtype=np.int64)
    ds = Dataset(features, labels, np.zeros(3), np.ones(3), flags, 3)
    _returns_or_raises_workbench_error(max_margin, ds)


@CONTRACT
@given(st.one_of(arrays(), matrices()),
       st.one_of(st.none(), COUNTS))
def test_fit_pca(X, n_components):
    _returns_or_raises_workbench_error(fit_pca, X, n_components)


@CONTRACT
@given(st.integers(0, 6).flatmap(
    lambda n: _filled((n, 2))),
    st.sampled_from(["znorm", "minmax", "none", "zscore"]))
def test_normalize(features, scheme):
    n = len(features)
    ds = Dataset(features, np.zeros(n, dtype=np.int64),
                 features.min(axis=0, initial=0.0),
                 features.max(axis=0, initial=1.0),
                 np.zeros(n, dtype=np.int64), 2)
    _returns_or_raises_workbench_error(normalize, ds, scheme)


@CONTRACT
@given(st.one_of(arrays(), _filled(st.tuples(st.integers(0, 5),
                                             st.just(3)))),
       st.sampled_from([None, SearchConfig(max_iters=5)]), st.booleans())
def test_search_margins(X, cfg, batch_mean):
    _returns_or_raises_workbench_error(search_margins, _NET, 0, X, cfg,
                                       batch_mean=batch_mean)


@CONTRACT
@given(arrays())
def test_compute_total_variation(acts):
    _returns_or_raises_workbench_error(compute_total_variation, acts)


@CONTRACT
@given(arrays(), st.one_of(arrays(), matrices()))
def test_tv_normalize(margins, acts):
    _returns_or_raises_workbench_error(tv_normalize, margins, acts)


# the cases first probed by hand, each named once more outright
_FEATURES = np.random.default_rng(2).uniform(0.1, 2.0, size=(9, 5))
_GAPS = np.linspace(0.0, 1.0, 9)


@pytest.mark.parametrize("call", [
    lambda: cross_validate_predictor(_FEATURES, _GAPS, k=2.5),
    lambda: cross_validate_predictor(_FEATURES, _GAPS, shuffles=1.5),
    lambda: cross_validate_predictor(_FEATURES, _GAPS, shuffles=True),
    lambda: cross_validate_predictor(_FEATURES, _GAPS, seed=1.5),
    lambda: cross_validate_predictor(_FEATURES, _GAPS, seed=-1),
    lambda: cross_validate_predictor(_FEATURES, _GAPS[:-1]),
    lambda: r_squared(np.array([1.0, np.nan, 2.0]), np.ones(3)),
    lambda: r_squared(np.arange(3.0), np.array([1.0, np.inf, 2.0])),
    lambda: cumulative_share(np.array([0.5, np.nan]), np.array([0.6, 0.4])),
    lambda: max_margin(Dataset(np.arange(6.0).reshape(3, 2),
                               np.array([0, 1]), np.zeros(2), np.ones(2),
                               np.zeros(2, dtype=np.int64), 2)),
], ids=["k-float", "shuffles-float", "shuffles-bool", "seed-float",
        "seed-negative", "rows-mismatch", "r2-nan", "r2-inf",
        "share-nan", "labels-short"])
def test_probed_edges_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    lambda: compute_total_variation(np.array([[1e200, 0.0], [-1e200, 0.0]])),
    lambda: tv_normalize(np.ones(2), np.array([[1e200, 0.0], [-1e200, 0.0]])),
    lambda: max_margin(Dataset(np.array([[1e308, 0.0], [-1e308, 0.0]]),
                               np.array([0, 1]), np.zeros(2), np.ones(2),
                               np.zeros(2, dtype=np.int64), 2)),
    lambda: adv_directions(_PCA, np.full((1, 3), 1e308),
                           np.full((1, 3), -1e308)),
    lambda: cumulative_share(np.array([1e308, 1e308]), np.array([0.5, 0.5])),
    lambda: fit_pca(np.array([[1e308, 0.0], [-1e308, 1.0], [0.0, 2.0]])),
    lambda: normalize(Dataset(np.array([[1e308], [-1e308]]), np.arange(2),
                              np.array([-1e308]), np.array([1e308]),
                              np.zeros(2, dtype=np.int64), 2), "znorm"),
    lambda: extract_signature(np.array([1e308, -1e308, 1e308, -1e308])),
    lambda: search_margins(_NET, 0, np.array([[1e308, -1e308, 1e308]])),
    lambda: tv_normalize(np.array([1e308]), np.array([[0.0], [1.0]])),
], ids=["total-variation", "tv-normalize", "max-margin", "adv-directions",
        "cumulative-share", "fit-pca", "normalize", "extract-signature",
        "search-margins", "tv-normalize-quotient"])
def test_values_that_overflow_are_numerical_errors(call):
    with pytest.raises(NumericalError):
        call()
