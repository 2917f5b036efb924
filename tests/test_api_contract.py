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
    EvaluatedModel,
    HyperparamConfig,
    ModelTable,
    NumericalError,
    SearchConfig,
    WorkbenchError,
    adv_directions,
    cmi_score,
    cross_validate_predictor,
    cumulative_share,
    extract_signature,
    fit_linear_predictor,
    fit_pca,
    granulated_kendall,
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


# ranking tables: token columns of every kind of value a models file holds,
# of matching length or not, and things that are not columns at all
_TOKEN_VALUES = st.one_of(
    st.integers(-2, 3), st.integers(2 ** 63, 2 ** 64), FINITE,
    st.sampled_from([np.nan, np.inf, True, None, "a", "1", (1,)]),
    st.lists(st.integers(0, 1), max_size=2))
_NOT_COLUMNS = st.sampled_from([None, 3, 2.5, np.zeros((2, 2)),
                                np.zeros(()), np.arange(3.0)])
_NAMES = st.sampled_from(["a", "b", "c", "d"])
TARGETS = st.sampled_from(["gen_gap", "test_accuracy", "accuracy"])


def _token_tables(n):
    """from_tokens arguments for n models: half of them well formed, the
    others with a column or value array now and then of another length or
    kind, or values numpy cannot read as floats."""
    matched = st.lists(_TOKEN_VALUES, min_size=n, max_size=n)
    finite = hnp.arrays(np.float64, (n,), elements=FINITE)
    columns = st.one_of(matched, st.lists(_TOKEN_VALUES, max_size=6),
                        _NOT_COLUMNS)
    tokens = st.one_of(st.dictionaries(_NAMES, columns, max_size=4),
                       st.sampled_from([None, [], ["a"], {1: [1]},
                                        {"a": 1}]))
    unreadable = st.sampled_from([["a"] * n, [[1.0]] + [[2.0, 3.0]] * n,
                                  {"a": 1.0}, [2 ** 1100] * n, "1.0"])
    values = st.one_of(_filled((n,)), arrays(max_dims=2, max_side=6),
                       unreadable)
    return st.one_of(
        st.tuples(st.dictionaries(_NAMES, matched, max_size=4), finite,
                  finite, finite),
        st.tuples(tokens, values, values, values))


def _scores_or_errors(models, target):
    """Every ranking metric of ``models``: each returns or raises a
    WorkbenchError."""
    for name in ("a", "b", "c", "d", "missing"):
        _returns_or_raises_workbench_error(granulated_kendall, models, name,
                                           target)
    _returns_or_raises_workbench_error(cmi_score, models, target)


@CONTRACT
@given(st.integers(0, 6).flatmap(_token_tables), TARGETS)
def test_model_table_from_tokens(args, target):
    try:
        table = ModelTable.from_tokens(*args)
    except WorkbenchError:
        return
    _scores_or_errors(table, target)


def _direct_tables(shape):
    """ModelTable fields for an (n x axes) table: half of them well formed,
    the others with ids from -1 to n, of intp or another dtype, and value
    arrays of any shape."""
    n, axes = shape
    names = st.lists(_NAMES, min_size=axes, max_size=axes,
                     unique=True).map(tuple)
    finite = hnp.arrays(np.float64, (n,), elements=FINITE)
    codes = st.one_of(
        hnp.arrays(np.intp, (n, axes), elements=st.integers(-1, n)),
        hnp.arrays(st.sampled_from([np.int32, np.uint64, np.float64]),
                   hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                    max_side=4)),
        st.just([[0] * axes] * n))
    values = st.one_of(_filled((n,)), arrays(max_dims=2, max_side=6),
                       st.just([0.0] * n))
    return st.one_of(
        st.tuples(names, hnp.arrays(np.intp, (n, axes),
                                    elements=st.integers(0, max(n - 1, 0))),
                  finite, finite, finite),
        st.tuples(st.one_of(names, st.sampled_from([(), ("a",),
                                                    ["a", "b"]])),
                  codes, values, values, values))


@CONTRACT
@given(st.tuples(st.integers(0, 6), st.integers(0, 4)).flatmap(
    _direct_tables), TARGETS)
def test_model_table(fields, target):
    try:
        table = ModelTable(*fields)
    except WorkbenchError:
        return
    _scores_or_errors(table, target)


def _model_lists(axes):
    """Lists of models that name ``axes``, and lists holding other
    things."""
    config = st.fixed_dictionaries(
        {name: st.sampled_from(["0", "1", 2, 2.5]) for name in axes}).map(
            HyperparamConfig)
    models = st.builds(EvaluatedModel, config, FINITE, FINITE, FINITE)
    # a model whose config is a plain dict, not a HyperparamConfig
    loose = st.builds(EvaluatedModel, st.just({name: "0" for name in axes}),
                      FINITE, FINITE, FINITE)
    return st.one_of(
        st.lists(models, max_size=8),
        st.lists(st.one_of(models, loose, st.none(), st.integers(),
                           st.text(max_size=2)), max_size=4),
        st.sampled_from([None, 3, "abc", np.zeros(3)]))


@CONTRACT
@given(st.lists(_NAMES, min_size=1, max_size=4, unique=True).flatmap(
    _model_lists), TARGETS)
def test_ranking_metrics_on_model_lists(models, target):
    _scores_or_errors(models, target)


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
