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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marginlab import (
    BlobConfig,
    Dataset,
    DomainError,
    EvaluatedModel,
    HyperparamConfig,
    ModelTable,
    NumericalError,
    PcaModel,
    SearchConfig,
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
    max_margin,
    normalize,
    predict_gap,
    r_squared,
    search_margins,
    select_components_kneedle,
    train_sgd,
)
from marginlab.errors import _checked_rows
from marginlab.margin import compute_total_variation, tv_normalize
from marginlab.nnet import DenseLayer, Network
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


_TEXT = [["a", "b"], ["c", "d"]]
_SWEEP = dict(blob=BlobConfig(2, 4, 2, 1.0, 0), dataset_path=None,
              test_path=None, corruptions=(("label", 0.2),), widths=(4,),
              seeds=(0,), train=TrainConfig(2, 4, 0.1),
              estimator="deepfool", search=SearchConfig(max_iters=5),
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
                                                    "estimator": "foo"})),
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
], ids=["rows-text", "rows-ragged", "rows-complex-list", "rows-complex-array",
        "cumulative-share-text", "r2-text", "fit-pca-text", "gen-blobs-text",
        "tv-normalize-text", "extract-signature-text", "fit-predictor-text",
        "kendall-complex", "from-tokens-complex", "search-text-box",
        "cross-validation-non-finite-score", "search-config-text",
        "train-config-text", "evaluated-model-text", "search-pca-width",
        "sweep-no-widths", "sweep-unknown-estimator", "sweep-no-data",
        "sweep-flat-corruption", "sweep-list-mode", "sweep-scalar-widths",
        "sweep-no-seeds"])
def test_probed_leaks_raise_workbench_errors(call, error):
    # each leaked a numpy or Python exception, or a ComplexWarning, or (the
    # sweep without widths or data) failed late, or (the unknown estimator)
    # wrote a closed-form sweep; a sweep config of the wrong shape (a flat
    # corruption pair, a list as its mode, widths or seeds that are not a
    # list) leaked Python's unpacking, hashing or iteration error
    with pytest.raises(error):
        call()
