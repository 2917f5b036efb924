"""The library's entry points on malformed arguments.

Hypothesis draws arguments of the wrong rank, empty ones, NaN and ±inf
cells, finite values near the float limit, mismatched lengths, bool or
float counts and seeds, and values that are not real numbers a float can
hold: text cells, ragged rows, complex numbers and ints beyond the float
range. Every call must return, or raise a ``WorkbenchError`` subclass;
any other exception fails the test, and so does a leaked numpy
``RuntimeWarning`` (numpy's ``ComplexWarning`` is one), which pytest turns
into an error.
"""

import functools
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marginlab import (
    BlobConfig,
    ConfigError,
    Dataset,
    DomainError,
    EvaluatedModel,
    HyperparamConfig,
    ModelTable,
    NumericalError,
    PcaModel,
    SearchConfig,
    SearchStatus,
    TrainConfig,
    WorkbenchError,
    accuracy,
    adv_directions,
    cmi_score,
    corrupt_inputs_gaussian,
    corrupt_labels,
    cross_validate_predictor,
    cumulative_share,
    extract_signature,
    fit_linear_predictor,
    fit_pca,
    gen_blobs,
    granulated_kendall,
    init_network,
    kendall_tau,
    load_dataset,
    max_margin,
    normalize,
    predict_gap,
    r_squared,
    save_dataset,
    search_margins,
    select_components_kneedle,
    train_sgd,
)
from marginlab.data import NormalizationMeta
from marginlab.errors import _as_floats, _checked_rows
from marginlab.margin import compute_total_variation, tv_normalize
from marginlab.nnet import (DenseLayer, Network, forward_batch,
                            logit_diffs_all_batch)
from marginlab.sweep import ExperimentConfig, run_capacity_sweep

CONTRACT = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
# for tests that draw ``_values``: twice the examples, a third of them
# marked by ``_UNREADABLE``
VALUES = settings(CONTRACT, max_examples=300)

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


def _unreadable(a):
    """The values of the float array ``a`` handed over in ways that are not
    real numbers a float can hold: with a text cell, as ragged rows, as
    Python complex numbers, as a complex array, and as an object array with
    an int beyond the float range."""
    text, huge = a.astype(object), a.astype(object)
    if a.size:
        text.flat[0], huge.flat[0] = "a", 2 ** 1100
    else:
        text, huge = np.array(["a"]), np.array([2 ** 1100], dtype=object)
    return [text.tolist(), [a.tolist(), [1.0]],
            a.astype(np.complex128).tolist(), a.astype(np.complex128), huge]


# drawn once per example: False makes every ``_values`` array of the
# example a float array, so that about two thirds of a ``VALUES`` test's
# examples draw what its ``CONTRACT`` settings drew from float arrays alone
_UNREADABLE = st.shared(st.sampled_from([False, False, True]),
                        key="unreadable")


def _values(shape):
    """Float arrays of ``shape``; in an example that ``_UNREADABLE`` marks,
    each may instead hand its values over in a form ``_unreadable``
    makes."""
    return st.tuples(_UNREADABLE, _filled(shape)).flatmap(
        lambda drawn: st.sampled_from([drawn[1], *_unreadable(drawn[1])])
        if drawn[0] else st.just(drawn[1]))


def arrays(max_dims=3, max_side=5):
    """Arrays of rank 0 to ``max_dims``, empty ones included."""
    return _values(hnp.array_shapes(min_dims=0, max_dims=max_dims,
                                    min_side=0, max_side=max_side))


def matrices(max_rows=8, max_cols=6):
    """Matrices with zero rows or columns included."""
    return _values(st.tuples(st.integers(0, max_rows),
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


@VALUES
@given(st.one_of(arrays(), matrices(max_cols=3),
                 _values(st.tuples(st.integers(0, 8), st.just(2)))))
def test_kendall_tau(pairs):
    _returns_or_raises_workbench_error(kendall_tau, pairs)


@VALUES
@given(arrays(), arrays())
def test_r_squared(z, z_hat):
    _returns_or_raises_workbench_error(r_squared, z, z_hat)


@VALUES
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(_values((n,)),
                        _values((n,)))))
def test_r_squared_equal_lengths(pair):
    _returns_or_raises_workbench_error(r_squared, *pair)


@VALUES
@given(st.one_of(arrays(), matrices()), arrays(max_dims=2, max_side=8))
def test_fit_linear_predictor(features, gaps):
    _returns_or_raises_workbench_error(fit_linear_predictor, features, gaps)


@VALUES
@given(st.one_of(arrays(), matrices(), _filled(
    st.tuples(st.integers(0, 8), st.just(0))).map(
        lambda a: np.resize(a, (a.shape[0], 5)))))
def test_predict_gap(features):
    _returns_or_raises_workbench_error(predict_gap, _FIT, features)


@VALUES
@given(st.one_of(arrays(), matrices()), arrays(max_dims=2, max_side=8),
       COUNTS, COUNTS, st.one_of(COUNTS, st.integers(-5, 2 ** 40)))
def test_cross_validate_predictor(features, gaps, k, shuffles, seed):
    _returns_or_raises_workbench_error(cross_validate_predictor, features,
                                       gaps, k=k, shuffles=shuffles,
                                       seed=seed)


@VALUES
@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(_values((n, 5)),
                        _values((n,)))),
       COUNTS, COUNTS, COUNTS)
def test_cross_validate_predictor_matching_rows(data, k, shuffles, seed):
    _returns_or_raises_workbench_error(cross_validate_predictor, *data,
                                       k=k, shuffles=shuffles, seed=seed)


@VALUES
@given(arrays())
def test_extract_signature(margins):
    _returns_or_raises_workbench_error(extract_signature, margins)


@VALUES
@given(st.one_of(
    st.tuples(arrays(), arrays()),
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(_values((n, 3)),
                            _values((n, 3))))))
def test_adv_directions(points):
    _returns_or_raises_workbench_error(adv_directions, _PCA, *points)


@VALUES
@given(arrays(), arrays())
def test_cumulative_share(p_share, explained_ratio):
    _returns_or_raises_workbench_error(cumulative_share, p_share,
                                       explained_ratio)


@VALUES
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(_values((n,)),
                        _values((n,)))))
def test_cumulative_share_equal_lengths(pair):
    _returns_or_raises_workbench_error(cumulative_share, *pair)


@VALUES
@given(st.one_of(
    st.tuples(st.one_of(arrays(), matrices(max_cols=3)),
              st.lists(st.integers(0, 2), max_size=9)),
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(_values((n, 2)),
                            st.lists(st.integers(0, 2), min_size=n,
                                     max_size=n)))))
def test_max_margin(data):
    features, labels = data
    labels = np.array(labels, dtype=np.int64)
    flags = np.zeros(labels.size, dtype=np.int64)
    ds = Dataset(features, labels, np.zeros(3), np.ones(3), flags, 3)
    _returns_or_raises_workbench_error(max_margin, ds)


@VALUES
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


# clip boxes: a (lower, upper) pair for the 3-input net, or any array
BOXES = st.one_of(_values((2, 3)), arrays(max_dims=2)).map(
    lambda box: SearchConfig(max_iters=5, bounds=box))


@VALUES
@given(st.one_of(arrays(), _values(st.tuples(st.integers(0, 5),
                                             st.just(3)))),
       st.one_of(st.sampled_from([None, SearchConfig(max_iters=5)]), BOXES),
       st.booleans())
def test_search_margins(X, cfg, batch_mean):
    _returns_or_raises_workbench_error(search_margins, _NET, 0, X, cfg,
                                       batch_mean=batch_mean)


@VALUES
@given(arrays())
def test_compute_total_variation(acts):
    _returns_or_raises_workbench_error(compute_total_variation, acts)


@VALUES
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
    values = st.one_of(_values((n,)), arrays(max_dims=2, max_side=6),
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


@VALUES
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
    values = st.one_of(_values((n,)), arrays(max_dims=2, max_side=6),
                       st.just([0.0] * n))
    return st.one_of(
        st.tuples(names, hnp.arrays(np.intp, (n, axes),
                                    elements=st.integers(0, max(n - 1, 0))),
                  finite, finite, finite),
        st.tuples(st.one_of(names, st.sampled_from([(), ("a",),
                                                    ["a", "b"]])),
                  codes, values, values, values))


@VALUES
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


# the rest of marginlab.__all__: knee selection, networks, blobs, the
# corrupters and the config dataclasses

# real-valued fields: numbers of every kind, and values that are not real
# numbers or not one number
REALS = st.one_of(CELLS, COUNTS, st.integers(2 ** 1100, 2 ** 1101),
                  st.sampled_from([np.float32(0.5), np.int64(3), "a", "0.5",
                                   None, 1j, np.complex128(0.5), [0.5],
                                   np.full(2, 0.5)]))
SEEDS = st.one_of(COUNTS, st.integers(-5, 2 ** 64))


@VALUES
@given(st.one_of(arrays(max_dims=2), _values((6,))),
       st.one_of(arrays(max_dims=2), _values((6,))))
def test_select_components_kneedle(variance, ratio):
    pca = PcaModel(_PCA.mean, _PCA.components, variance, ratio)
    _returns_or_raises_workbench_error(select_components_kneedle, pca)


@CONTRACT
@given(COUNTS, st.one_of(st.lists(COUNTS, max_size=3),
                         st.sampled_from([None, 3, "12", [[4]]])),
       COUNTS, SEEDS)
def test_init_network(input_dim, hidden_widths, num_classes, seed):
    _returns_or_raises_workbench_error(init_network, input_dim,
                                       hidden_widths, num_classes, seed)


def _datasets(n):
    """Datasets of n rows for the 3-input, 3-class net: features of any
    width and kind, labels in range or not, of n values or not, and class
    counts that match the net or not."""
    features = st.one_of(_values((n, 3)), matrices(max_cols=4))
    labels = st.one_of(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                       st.lists(st.integers(-1, 3), max_size=7))
    return st.builds(
        lambda X, y, classes: Dataset(X, np.array(y, dtype=np.int64),
                                      np.zeros(3), np.ones(3),
                                      np.zeros(len(y), dtype=np.int64),
                                      classes),
        features, labels, st.integers(1, 4))


@VALUES
@given(st.integers(0, 6).flatmap(_datasets))
def test_train_sgd(ds):
    _returns_or_raises_workbench_error(
        train_sgd, _NET, ds, TrainConfig(epochs=2, batch_size=3,
                                         learning_rate=0.1))


@VALUES
@given(st.integers(0, 6).flatmap(_datasets))
def test_accuracy(ds):
    _returns_or_raises_workbench_error(accuracy, _NET, ds)


def _blobs(*fields):
    return gen_blobs(BlobConfig(*fields))


@VALUES
@given(COUNTS, COUNTS, COUNTS, REALS, SEEDS,
       st.one_of(st.none(), _values((2, 2)), arrays(max_dims=2)))
def test_gen_blobs(classes, samples_per_class, dim, spread, seed, centers):
    _returns_or_raises_workbench_error(_blobs, classes, samples_per_class,
                                       dim, spread, seed, centers)


@CONTRACT
@given(st.integers(0, 6).flatmap(lambda n: _filled((n, 2))),
       st.integers(1, 3), REALS, SEEDS,
       st.sampled_from([corrupt_labels, corrupt_inputs_gaussian]))
def test_corrupters(features, class_count, fraction, seed, corrupt):
    n = len(features)
    ds = Dataset(features, np.arange(n) % class_count,
                 features.min(axis=0, initial=0.0),
                 features.max(axis=0, initial=1.0),
                 np.zeros(n, dtype=np.int64), class_count)
    _returns_or_raises_workbench_error(corrupt, ds, fraction, seed)


@CONTRACT
@given(REALS, REALS, st.one_of(COUNTS, REALS))
def test_search_config(learning_rate, stop_tolerance, max_iters):
    _returns_or_raises_workbench_error(SearchConfig, learning_rate,
                                       stop_tolerance, max_iters)


@CONTRACT
@given(st.one_of(COUNTS, REALS), COUNTS, REALS, REALS, SEEDS)
def test_train_config(epochs, batch_size, learning_rate, momentum, seed):
    _returns_or_raises_workbench_error(TrainConfig, epochs, batch_size,
                                       learning_rate, momentum, seed)


def _evaluated_model(values, *numbers):
    return EvaluatedModel(HyperparamConfig(values), *numbers)


@CONTRACT
@given(st.one_of(st.dictionaries(_NAMES, _TOKEN_VALUES, max_size=3),
                 st.sampled_from([None, [], "ab", [("a", 1)], 3])),
       REALS, REALS, REALS)
def test_evaluated_model(values, complexity, gen_gap, test_accuracy):
    _returns_or_raises_workbench_error(_evaluated_model, values, complexity,
                                       gen_gap, test_accuracy)


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
    lambda: search_margins(_NET, 0, np.ones((4, 3)), SearchConfig(
        max_iters=5, bounds=(np.array([np.nan, -9, -9]), np.full(3, 9.0)))),
], ids=["k-float", "shuffles-float", "shuffles-bool", "seed-float",
        "seed-negative", "rows-mismatch", "r2-nan", "r2-inf",
        "share-nan", "labels-short", "search-nan-box"])
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


_TEXT = [["a", "b"], ["c", "d"]]
_SWEEP = dict(blob=BlobConfig(2, 4, 2, 1.0, 0), dataset_path=None,
              test_path=None, corruptions=(("label", 0.2),), widths=(4,),
              seeds=(0,), train=TrainConfig(2, 4, 0.1),
              search=SearchConfig(max_iters=5),
              normalize="znorm", output_dir="unused", seed=0)


@pytest.mark.parametrize("call,error", [
    (lambda: _checked_rows([["a"]]), DomainError),
    (lambda: _checked_rows([[1.0], [2.0, 3.0]]), DomainError),
    (lambda: _checked_rows([1j, 2.0]), DomainError),
    (lambda: _checked_rows(np.array([1.0 + 0j])), DomainError),
    (lambda: cumulative_share(["a"], [1.0]), DomainError),
    (lambda: r_squared(["a", "b"], [1.0, 2.0]), DomainError),
    (lambda: fit_pca(_TEXT), DomainError),
    (lambda: _blobs(2, 3, 2, 1.0, 0, _TEXT), DomainError),
    (lambda: tv_normalize(["a"], np.arange(4.0).reshape(2, 2)),
     DomainError),
    (lambda: extract_signature(["a"]), DomainError),
    (lambda: fit_linear_predictor(_TEXT, [0.0, 1.0]), DomainError),
    (lambda: kendall_tau(np.ones((3, 2), dtype=complex)), DomainError),
    (lambda: ModelTable.from_tokens({"a": [1, 2]}, np.ones(2, dtype=complex),
                                    np.ones(2), np.ones(2)), DomainError),
    (lambda: search_margins(_NET, 0, np.zeros((1, 3)),
                            SearchConfig(bounds=(["a"] * 3, ["b"] * 3))),
     DomainError),
    (lambda: cross_validate_predictor(np.ones((5, 5)),
                                      np.array([0, 0, 0, 1, 1e300]), k=2,
                                      shuffles=1, seed=0), NumericalError),
    (lambda: SearchConfig(learning_rate="a"), DomainError),
    (lambda: TrainConfig(1, 1, "a"), DomainError),
    (lambda: _evaluated_model({"a": "1"}, "a", 0.0, 0.5), DomainError),
    (lambda: search_margins(_NET, 0, np.zeros((1, 3)), None,
                            fit_pca(np.eye(3)[:, :2]), 1), DomainError),
    (lambda: run_capacity_sweep(ExperimentConfig(**{**_SWEEP,
                                                    "widths": ()})),
     DomainError),
    (lambda: run_capacity_sweep(ExperimentConfig(**{**_SWEEP,
                                                    "search": "foo"})),
     DomainError),
    (lambda: run_capacity_sweep(ExperimentConfig(**{**_SWEEP,
                                                    "blob": None})),
     DomainError),
    (lambda: ExperimentConfig(**{**_SWEEP, "corruptions": ("label", 0.2)}),
     DomainError),
    (lambda: ExperimentConfig(**{**_SWEEP, "corruptions": ((["label"], 0.2),)}),
     DomainError),
    (lambda: ExperimentConfig(**{**_SWEEP, "widths": 4}), DomainError),
    (lambda: ExperimentConfig(**{**_SWEEP, "seeds": None}), DomainError),
    (lambda: ExperimentConfig(**{**_SWEEP, "blob": {"classes": 2}}),
     DomainError),
    (lambda: ExperimentConfig(**{**_SWEEP, "train": {"epochs": 2}}),
     DomainError),
    (lambda: ExperimentConfig(**{**_SWEEP, "output_dir": 7}), DomainError),
    (lambda: ExperimentConfig(**{**_SWEEP, "blob": None, "dataset_path": 7,
                                 "test_path": "test.csv"}), DomainError),
], ids=["rows-text", "rows-ragged", "rows-complex-list", "rows-complex-array",
        "cumulative-share-text", "r2-text", "fit-pca-text", "gen-blobs-text",
        "tv-normalize-text", "extract-signature-text", "fit-predictor-text",
        "kendall-complex", "from-tokens-complex", "search-text-box",
        "cross-validation-non-finite-score", "search-config-text",
        "train-config-text", "evaluated-model-text", "search-pca-width",
        "sweep-no-widths", "sweep-unknown-estimator", "sweep-no-data",
        "sweep-flat-corruption", "sweep-list-mode", "sweep-scalar-widths",
        "sweep-no-seeds", "sweep-blob-dict", "sweep-train-dict",
        "sweep-output-dir-int", "sweep-dataset-path-int"])
def test_probed_leaks_raise_workbench_errors(call, error):
    # each leaked a numpy or Python exception, or a ComplexWarning, or (the
    # sweep without widths or data) failed late, or (the unknown estimator)
    # wrote a closed-form sweep; a sweep config of the wrong shape (a flat
    # corruption pair, a list as its mode, widths or seeds that are not a
    # list) leaked Python's unpacking, hashing or iteration error; a blob
    # or train config given as a dict, or a path that is not a string,
    # leaked Python's attribute or type error, the last only once every net
    # had trained
    with pytest.raises(error):
        call()


def test_sweep_config_refuses_blob_centers():
    # the sweep draws the blob centers from its master seed, so centers
    # given in the config were silently replaced
    blob = BlobConfig(2, 4, 2, 1.0, 0, centers=np.zeros((2, 2)))
    with pytest.raises(DomainError, match="centers"):
        ExperimentConfig(**{**_SWEEP, "blob": blob})


@pytest.mark.parametrize("key,value", [("blob", BlobConfig(2, 4, 2, 1.0, 5)),
                                       ("train", TrainConfig(2, 4, 0.1,
                                                             seed=5))])
def test_sweep_config_refuses_placeholder_seeds(key, value):
    # the sweep derives the blob and training seeds from its master seed, so
    # a seed given in these configs was silently replaced
    with pytest.raises(DomainError, match="with seed 0"):
        ExperimentConfig(**{**_SWEEP, key: value})


# ---------------------------------------------------------------------------
# the value types: for every function that takes a network, a basis or a
# dataset, a well-formed value or one with a field changed to a value of
# another shape, kind or range, which the function checks as the loaders do;
# each function is a test of its own, with CONTRACT's example count, since
# half of the drawn values are well formed

def _changed(value, change):
    """``value`` with ``change``, a (field, new value) pair, made; a field
    ``layers[k].name`` is a field of layer k, and a callable new value
    maps the old one. None changes nothing."""
    if change is None:
        return value
    name, new = change
    if name.startswith("layers["):
        k, field_name = int(name[7]), name[10:]
        layers = list(value.layers)
        layers[k] = replace(layers[k], **{field_name: new})
        return replace(value, layers=layers)
    if callable(new):
        new = new(getattr(value, name))
    return replace(value, **{name: new})


def _changes(fields):
    """No change for half of the examples, else one of ``fields`` (a
    mapping of field name to strategy) changed."""
    return st.one_of(st.none(), st.one_of(
        [st.tuples(st.just(name), values) for name, values in
         fields.items()]))


# moderate weights reach the search; FINITE's edges reach its overflows
_WEIGHTS = st.one_of(st.floats(-3.0, 3.0), FINITE)
_ACTS = st.sampled_from(["tanh", "", None, 1, "relu", "none"])


def _metas(n):
    """Normalizations for an n-input net: a well-formed one or one with
    any scheme and arrays of n values or of any shape and kind."""
    fields = st.one_of(_values((n,)), arrays(max_dims=2))
    return st.one_of(
        st.just(NormalizationMeta("znorm", np.zeros(n), np.ones(n),
                                  np.full(n, -2.0), np.full(n, 2.0))),
        st.builds(NormalizationMeta,
                  st.sampled_from(["znorm", "minmax", "none", None]),
                  fields, fields, fields, fields))


# the value strategies are built once per size: building them is most of
# what drawing an example costs
@functools.lru_cache(maxsize=None)
def _nets(hidden):
    """3-input, 3-class ReLU nets with the ``hidden`` widths (a tuple),
    and rows for them."""
    widths = [3, *hidden, 3]
    layers = st.tuples(*(
        st.builds(DenseLayer,
                  hnp.arrays(np.float64, (b, a), elements=_WEIGHTS),
                  hnp.arrays(np.float64, (b,), elements=_WEIGHTS),
                  st.just("relu" if k < len(hidden) else "none"))
        for k, (a, b) in enumerate(zip(widths, widths[1:])))).map(list)
    last = len(widths) - 2
    change = _changes({
        f"layers[{last}].weights": _values(st.tuples(st.integers(0, 5),
                                                     st.integers(0, 5))),
        "layers[0].weights": _filled((widths[1], 3)),
        "layers[0].bias": st.one_of(_values((widths[1],)),
                                    arrays(max_dims=2)),
        "layers[0].activation": _ACTS,
        "input_dim": COUNTS,
        "num_classes": COUNTS,
        "layers": st.sampled_from([lambda ls: [], tuple,
                                   lambda ls: [*ls, None],
                                   lambda ls: ls[:-1], lambda ls: 3]),
        "norm_meta": _metas(3)})
    net = st.tuples(layers.map(lambda ls: Network(ls, 3, 3)), change).map(
        lambda drawn: _changed(*drawn))
    return st.tuples(net, _filled(st.tuples(st.integers(0, 4), st.just(3))))


NETS = st.lists(st.integers(1, 4), max_size=2).map(tuple).flatmap(_nets)


def _labelled(net, X):
    """A dataset of the rows ``X`` labelled for ``net``'s classes."""
    n = len(X)
    return Dataset(X, np.arange(n) % 2, np.full(X.shape[1], -1e308),
                   np.full(X.shape[1], 1e308), np.zeros(n, dtype=np.int64),
                   net.num_classes)


_NET_CALLS = {
    "forward": lambda net, X: forward_batch(net, X),
    "logit-diffs": lambda net, X: logit_diffs_all_batch(
        net, 0, X, np.zeros(len(X), dtype=np.int64)),
    "taylor": lambda net, X: search_margins(net, 0, X),
    "deepfool": lambda net, X: search_margins(net, 0, X,
                                              SearchConfig(max_iters=5)),
    "deepfool-batch": lambda net, X: search_margins(
        net, 0, X, SearchConfig(max_iters=5), batch_mean=True),
    "constrained": lambda net, X: search_margins(net, 0, X, None, _PCA, 2),
    "accuracy": lambda net, X: accuracy(net, _labelled(net, X)),
    "train": lambda net, X: train_sgd(net, _labelled(net, X),
                                      TrainConfig(2, 3, 0.1)),
}


@pytest.mark.parametrize("call", sorted(_NET_CALLS))
@CONTRACT
@given(NETS)
def test_functions_taking_a_network(call, net_and_rows):
    _returns_or_raises_workbench_error(_NET_CALLS[call], *net_and_rows)


@functools.lru_cache(maxsize=None)
def _pcas(k):
    """Orthonormal bases of k components for 3 features, as ``fit_pca``
    makes them or with a field changed."""
    rows = np.linalg.qr(np.random.default_rng(k).normal(size=(3, 3)))[0][:k]
    variances = hnp.arrays(np.float64, (k,), elements=st.floats(0.0, 10.0))
    vectors = st.one_of(_values((k,)), _values((k + 1,)), arrays(max_dims=2))
    change = _changes({
        "mean": st.one_of(_values((3,)), _values((2,)), arrays(max_dims=2)),
        "components": st.one_of(st.just(2 * rows), _values((k, 3)),
                                _values((k, 2)), arrays()),
        "explained_variance": vectors, "explained_ratio": vectors})
    return st.tuples(st.builds(PcaModel, st.just(np.zeros(3)), st.just(rows),
                               variances, variances.map(lambda v: v / 30.0)),
                     change).map(lambda drawn: _changed(*drawn))


PCAS = st.integers(1, 3).flatmap(_pcas)
_ROWS = np.random.default_rng(5).normal(size=(4, 3))
_PCA_CALLS = {
    "knee": lambda pca: select_components_kneedle(pca),
    "advdir": lambda pca: adv_directions(pca, _ROWS, _ROWS + 0.5),
    "constrained-taylor": lambda pca: search_margins(_NET, 0, _ROWS, None,
                                                     pca, 1),
    "constrained-deepfool": lambda pca: search_margins(
        _NET, 0, _ROWS, SearchConfig(max_iters=5), pca, 1),
}


@pytest.mark.parametrize("call", sorted(_PCA_CALLS))
@CONTRACT
@given(PCAS)
def test_functions_taking_a_pca_basis(call, pca):
    _returns_or_raises_workbench_error(_PCA_CALLS[call], pca)


@functools.lru_cache(maxsize=None)
def _any_datasets(n):
    """Datasets of n samples of 3 features and 3 classes, well formed or
    with a field changed: features of any shape and kind, labels of any
    count, value or kind, flags and bounds of any length, and class counts
    of every kind."""
    features = hnp.arrays(np.float64, (n, 3), elements=FINITE)
    labels = hnp.arrays(np.int64, (n,), elements=st.integers(0, 2))
    any_labels = st.one_of(
        st.tuples(hnp.arrays(np.int64, hnp.array_shapes(
            min_dims=0, max_dims=2, min_side=0, max_side=7),
            elements=st.integers(-1, 3)),
            st.sampled_from([np.int64, np.uint8, np.float64, np.bool_])).map(
                lambda drawn: drawn[0].astype(drawn[1])),
        st.just([0, 1] * n))
    bounds = st.one_of(_values((3,)), _values((2,)), arrays(max_dims=2))
    change = _changes({
        "features": st.one_of(_values((n, 3)), matrices(max_cols=4),
                              arrays()),
        "labels": any_labels,
        "corrupt_flags": st.one_of(arrays(max_dims=2), st.just([0] * n)),
        "lower": bounds, "upper": bounds,
        "class_count": st.one_of(st.integers(1, 4), COUNTS)})
    ds = st.builds(lambda X, y: Dataset(
        X, y, X.min(axis=0, initial=0.0), X.max(axis=0, initial=1.0),
        np.zeros(n, dtype=np.int64), 3), features, labels)
    return st.tuples(ds, change).map(lambda drawn: _changed(*drawn))


DATASETS = st.integers(0, 6).flatmap(_any_datasets)
_DATASET_CALLS = {
    "znorm": lambda ds: normalize(ds, "znorm"),
    "minmax": lambda ds: normalize(ds, "minmax"),
    "none": lambda ds: normalize(ds, "none"),
    "labels": lambda ds: corrupt_labels(ds, 0.5, 0),
    "gaussian": lambda ds: corrupt_inputs_gaussian(ds, 1.0, 0),
    "max-margin": max_margin,
    "train": lambda ds: train_sgd(_NET, ds, TrainConfig(2, 3, 0.1)),
    "accuracy": lambda ds: accuracy(_NET, ds),
}


@pytest.mark.parametrize("call", sorted(_DATASET_CALLS))
@CONTRACT
@given(DATASETS)
def test_functions_taking_a_dataset(call, ds):
    _returns_or_raises_workbench_error(_DATASET_CALLS[call], ds)


# the dataset files: any CSV text loads or raises, and a dataset saves and
# loads back with its features and labels, or raises without making the
# file

_CSV_CELLS = st.sampled_from(["0", "1", "2", "-1", "1.5", "nan", "inf",
                              "1e400", "x", "", " 3 ", "1e308", "f0",
                              "label", '"1"'])
CSV_TEXT = st.one_of(
    st.text(max_size=40),
    st.lists(st.lists(_CSV_CELLS, min_size=1, max_size=4).map(",".join),
             max_size=6).map("\n".join))


@VALUES
@given(st.one_of(CSV_TEXT.map(str.encode), st.binary(max_size=30)))
def test_load_dataset(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        path.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning leaks too
            _returns_or_raises_workbench_error(load_dataset, path)


@VALUES
@given(DATASETS)
def test_save_dataset(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        try:
            save_dataset(ds, path)
        except WorkbenchError:
            assert not path.exists()
            return
        loaded = load_dataset(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)


# the value-type cases first probed by hand: each leaked a numpy exception
# or gave an answer for a value its loader would refuse; after them, a
# dataset too narrow for the net, which only the check between the two
# catches, and values that are not of the type a function takes, which
# leaked AttributeError

def _net_with(index, **fields):
    """``_NET`` with the fields of layer ``index`` replaced."""
    layers = list(_NET.layers)
    old = layers[index]
    layers[index] = DenseLayer(**{"weights": old.weights, "bias": old.bias,
                                  "activation": old.activation, **fields})
    return Network(layers, 3, 3)


_NARROW = _net_with(1, weights=np.ones((3, 5)))  # fed 5 units, not 4
_ROW3 = np.ones((2, 3))


def _flat(labels=(0, 1, 0), lower=np.zeros(2), flags=np.zeros(3), classes=2):
    """Three samples of two features, with the other fields as given."""
    return Dataset(np.arange(6.0).reshape(3, 2), np.array(labels), lower,
                   lower + 1.0, np.asarray(flags, dtype=np.int64), classes)


@pytest.mark.parametrize("call,error", [
    (lambda: forward_batch(_NARROW, _ROW3), DomainError),
    (lambda: search_margins(_NARROW, 0, _ROW3), DomainError),
    (lambda: forward_batch(_net_with(0, bias=np.zeros(5)), _ROW3),
     DomainError),
    (lambda: search_margins(_net_with(0, activation="tanh"), 0, _ROW3),
     DomainError),
    (lambda: search_margins(Network(_NET.layers, 3, 4), 0, _ROW3),
     DomainError),
    (lambda: search_margins(_NET, 0, _ROW3, None, PcaModel(
        _PCA.mean, 2 * _PCA.components, _PCA.explained_variance,
        _PCA.explained_ratio), 1), DomainError),
    (lambda: select_components_kneedle(PcaModel(
        _PCA.mean, _PCA.components, _PCA.explained_variance[:2],
        _PCA.explained_ratio)), DomainError),
    (lambda: adv_directions(PcaModel(
        _PCA.mean, _PCA.components[:, :2], _PCA.explained_variance,
        _PCA.explained_ratio), _ROW3, _ROW3 + 1.0), DomainError),
    (lambda: normalize(_flat(lower=np.zeros(3)), "znorm"), DomainError),
    (lambda: corrupt_inputs_gaussian(_flat(lower=np.zeros(3)), 1.0, 0),
     DomainError),
    (lambda: corrupt_labels(_flat(flags=np.zeros(2)), 1.0, 0), DomainError),
    (lambda: corrupt_labels(_flat(labels=(0, 1, 2)), 1.0, 0), DomainError),
    (lambda: corrupt_labels(_flat(labels=(0.0, 1.0, 0.0)), 1.0, 0),
     DomainError),
    (lambda: max_margin(_flat(labels=(0.0, 1.0, 0.0))), DomainError),
    (lambda: r_squared(np.array([0.0, 0.0, 1e300]),
                       np.array([0.0, 0.0, -1e300])), NumericalError),
    (lambda: train_sgd(_NET, _flat(classes=3), TrainConfig(1, 2, 0.1)),
     DomainError),
    (lambda: forward_batch(_PCA, _ROW3), DomainError),
    (lambda: select_components_kneedle(_NET), DomainError),
    (lambda: normalize(_PCA, "znorm"), DomainError),
], ids=["forward-layer-width", "search-layer-width", "forward-bias-length",
        "search-tanh", "search-class-count", "search-non-orthonormal-basis", "knee-variance-count",
        "advdir-narrow-components", "normalize-bound-width",
        "gaussian-bound-width", "labels-few-flags", "labels-beyond-classes",
        "labels-float", "max-margin-float-labels", "r2-overflow",
        "train-feature-count", "forward-not-a-net", "knee-not-a-basis",
        "normalize-not-a-dataset"])
def test_value_type_probes_raise_workbench_errors(call, error):
    with pytest.raises(error):
        call()


def test_train_sgd_refuses_non_finite_weights_before_training():
    # it used to train an epoch and raise TrainingDivergedError
    net = _net_with(0, weights=np.full((4, 3), np.nan))
    with pytest.raises(NumericalError, match="layer 0 holds non-finite"):
        train_sgd(net, _labelled(_NET, _ROW3), TrainConfig(1, 2, 0.1))


@pytest.mark.parametrize("name,ds", [
    ("ds.csv", _flat(labels=(0, 0, 0))),
    ("ds.csv", _flat(labels=(0, -1, 1))),
    ("ds.csv", Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64),
                       np.zeros(2), np.ones(2), np.zeros(0), 2)),
    ("ds.csv", Dataset(np.zeros((3, 0)), np.array([0, 1, 0]), np.zeros(0),
                       np.ones(0), np.zeros(3), 2)),
], ids=["csv-one-class", "csv-negative-label", "csv-no-samples",
        "csv-no-features"])
def test_dataset_writers_refuse_what_their_loaders_refuse(tmp_path, name, ds):
    # each was written, and its loader then refused the file
    with pytest.raises(ConfigError):
        save_dataset(ds, tmp_path / name)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("features", [
    np.array([[1.0, 2.0], ["a", 3.0]], dtype=object),
    np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex),
], ids=["text", "complex"])
def test_save_dataset_refuses_text_and_complex_features(tmp_path, features):
    # numpy's ValueError (text) or ComplexWarning (complex) leaked from the
    # float conversion, which ran before the dataset check
    ds = Dataset(features, np.array([0, 1]), np.zeros(2), np.ones(2),
                 np.zeros(2, dtype=np.int64), 2)
    with pytest.raises(ConfigError, match="ds.csv"):
        save_dataset(ds, tmp_path / "ds.csv")
    assert list(tmp_path.iterdir()) == []


# error branches that only generated examples reached: each has a named
# example here, so that tests/unreached.py, which runs no generated
# example, lists none of them whatever a Hypothesis release draws

_MODELS = [EvaluatedModel(HyperparamConfig({"a": str(k)}), k, 0.1 * k, 0.5)
           for k in range(3)]


def _empty(classes=3, features=3):
    """A dataset of no samples."""
    return Dataset(np.zeros((0, features)), np.zeros(0, dtype=np.int64),
                   np.zeros(features), np.ones(features),
                   np.zeros(0, dtype=np.int64), classes)


def _flat_ints():
    """``_flat()`` with the same features as integers."""
    ds = _flat()
    return replace(ds, features=ds.features.astype(np.int64))


@pytest.mark.parametrize("call", [
    lambda: normalize(_empty(), "znorm"),
    lambda: compute_total_variation(np.ones((1, 3))),
    lambda: ModelTable(["a"], np.zeros((1, 1), dtype=np.intp), np.zeros(1),
                       np.zeros(1), np.zeros(1)),
    lambda: ModelTable.from_tokens([("a", [1])], [1.0], [1.0], [1.0]),
    lambda: ModelTable.from_tokens({"a": [1]}, [[1.0]], [1.0], [1.0]),
    lambda: granulated_kendall([_MODELS[0], None], "a"),
    lambda: granulated_kendall([], "a"),
    lambda: granulated_kendall(_MODELS, "a", target="margin"),
    lambda: granulated_kendall(_MODELS, "b"),
    lambda: forward_batch(Network([None], 3, 3), _ROW3),
    lambda: forward_batch(replace(_NET, norm_meta=NormalizationMeta(
        "tanh", np.zeros(3), np.ones(3), np.zeros(3), np.ones(3))), _ROW3),
    lambda: train_sgd(_NET, _empty(), TrainConfig(1, 2, 0.1)),
    lambda: accuracy(_NET, _empty()),
    lambda: fit_pca(np.ones(3)),
    lambda: fit_pca(np.ones((1, 3))),
    lambda: ExperimentConfig(**{**_SWEEP, "seeds": ()}),
    lambda: corrupt_inputs_gaussian(_flat_ints(), 1.0, 0),
], ids=["normalize-no-samples", "total-variation-one-row",
        "table-list-names", "tokens-not-a-mapping", "tokens-matrix-complexity",
        "models-not-evaluated", "models-none", "kendall-unknown-target",
        "kendall-unknown-axis", "forward-layer-not-dense",
        "forward-unknown-scheme", "train-no-samples", "accuracy-no-samples",
        "fit-pca-vector", "fit-pca-one-sample", "sweep-no-seeds",
        "gaussian-integer-features"])
def test_named_examples_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_as_floats_takes_python_ints_beyond_int64():
    assert np.array_equal(_as_floats([2 ** 70, 1]), [2.0 ** 70, 1.0])


def test_value_types_of_integer_arrays_work_as_their_floats():
    # the checks take any real array, as the conversion the functions ran
    # before them did; the answers are those of the same values as floats
    ints = _flat_ints()
    assert np.array_equal(normalize(ints, "minmax")[0].features,
                          normalize(_flat(), "minmax")[0].features)
    assert np.array_equal(max_margin(ints), max_margin(_flat()))
    rng = np.random.default_rng(4)
    # int8 output weights, whose class-pair differences overflow int8
    net = Network([DenseLayer(rng.integers(-2, 3, (4, 3)),
                              rng.integers(-2, 3, 4), "relu"),
                   DenseLayer(rng.integers(-128, 128, (3, 4), dtype=np.int8),
                              np.zeros(3, dtype=np.int64), "none")], 3, 3)
    floats = Network([DenseLayer(layer.weights.astype(np.float64),
                                 layer.bias.astype(np.float64),
                                 layer.activation)
                      for layer in net.layers], 3, 3)
    assert np.array_equal(forward_batch(net, _ROW3)[-1],
                          forward_batch(floats, _ROW3)[-1])
    labels = np.zeros(2, dtype=np.int64)
    for got, want in zip(logit_diffs_all_batch(net, 0, _ROW3, labels),
                         logit_diffs_all_batch(floats, 0, _ROW3, labels)):
        assert np.array_equal(got, want)
    ds = _labelled(_NET, np.random.default_rng(0).normal(size=(6, 3)))
    trained = train_sgd(net, ds, TrainConfig(1, 2, 0.1))
    assert trained.layers[0].weights.dtype == np.float64
    assert np.array_equal(trained.layers[0].weights,
                          train_sgd(floats, ds, TrainConfig(1, 2, 0.1))
                          .layers[0].weights)


# ---------------------------------------------------------------------------
# a row's outcome is its status: a closed-form row has a margin (a finite
# d_best) exactly where its status is neither DEGENERATE nor UNREACHABLE,
# and a search reports neither; drawn nets that a call refuses are the
# contract tests' concern

_NO_MARGIN = (SearchStatus.DEGENERATE, SearchStatus.UNREACHABLE)
# hidden units on only where x0 > 1, so every gradient lies along x0
_X0_NET = _net_with(0, weights=np.tile([1.0, 0.0, 0.0], (4, 1)),
                    bias=np.full(4, -1.0))
_X0_ROWS = np.array([[0.0, 1.0, 2.0], [2.0, -1.0, 0.0], [3.0, 0.5, 0.5],
                     [1.0, 0.0, 0.0]])
# a basis orthogonal to x0
_YZ = PcaModel(np.zeros(3), np.eye(3)[1:], np.ones(2), np.full(2, 0.5))
_CLOSED_FORMS = {
    "input": lambda net, X: search_margins(net, 0, X),
    "hidden": lambda net, X: search_margins(net, 1, forward_batch(net, X)[1]),
    "constrained": lambda net, X: search_margins(net, 0, X, None, _YZ, 2),
}
_SEARCHES = {
    "search": lambda net, X: search_margins(net, 0, X,
                                            SearchConfig(max_iters=5)),
    "batch-mean": lambda net, X: search_margins(
        net, 0, X, SearchConfig(max_iters=5), batch_mean=True),
    "constrained": lambda net, X: search_margins(
        net, 0, X, SearchConfig(max_iters=5), _YZ, 2),
}


def _outcomes(call, net_and_rows):
    """The table ``call`` makes and its statuses, or (None, None) when the
    call raises."""
    try:
        table = call(*net_and_rows)
    except WorkbenchError:
        return None, None
    return table, [tuple(SearchStatus)[k] for k in table.status]


@pytest.mark.parametrize("call", sorted(_CLOSED_FORMS))
@CONTRACT
@given(NETS)
@example((_NET, _X0_ROWS))
@example((_X0_NET, _X0_ROWS))
def test_closed_form_rows_have_a_margin_exactly_where_the_status_says(
        call, net_and_rows):
    table, statuses = _outcomes(_CLOSED_FORMS[call], net_and_rows)
    if table is None:
        return
    none = np.array([status in _NO_MARGIN for status in statuses], bool)
    assert np.array_equal(np.isfinite(table.d_best), ~none)
    # a constrained call has no margin because its subspace misses every
    # gradient, an unconstrained one because no gradient is usable
    assert set(statuses) <= {SearchStatus.CONVERGED,
                             _NO_MARGIN[call == "constrained"]}


def test_the_outcome_examples_hold_every_closed_form_outcome():
    # the named examples reach both statuses without a margin and rows
    # with one, whatever the drawn examples reach
    codes = np.concatenate([_CLOSED_FORMS[call](net, _X0_ROWS).status
                            for call in _CLOSED_FORMS
                            for net in (_NET, _X0_NET)])
    assert {tuple(SearchStatus)[k] for k in codes} == {
        SearchStatus.CONVERGED, *_NO_MARGIN}


@pytest.mark.parametrize("call", sorted(_SEARCHES))
@CONTRACT
@given(NETS)
@example((_X0_NET, _X0_ROWS))
def test_search_tables_never_report_a_missing_margin(call, net_and_rows):
    _, statuses = _outcomes(_SEARCHES[call], net_and_rows)
    assert not set(statuses or ()) & set(_NO_MARGIN)
