import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import marginlab.margin
import marginlab.nnet
from marginlab.data import BlobConfig, gen_blobs, normalize
from marginlab.errors import (
    DegenerateVarianceError,
    DomainError,
    NumericalError,
)
from marginlab.margin import (
    SearchConfig,
    SearchStatus,
    compute_total_variation,
    search_margins,
    tv_normalize,
)
from marginlab.nnet import (
    DenseLayer,
    Network,
    TrainConfig,
    forward_batch,
    init_network,
    logit_diffs_all_batch,
    predict_batch,
    train_sgd,
)
from marginlab.pca import PcaModel, fit_pca

# a MarginTable's status codes index this tuple
STATUSES = tuple(SearchStatus)


def one_row(net, lam, x, cfg=None, pca=None, m=None, **kwargs):
    """The table of ``search_margins`` on the single sample ``x`` alone."""
    return search_margins(net, lam, np.reshape(x, (1, -1)), cfg, pca, m,
                          **kwargs)


def two_class_line():
    """f1 = x1, f2 = 1 - x1: the decision boundary is the line x1 = 0.5."""
    layer = DenseLayer(weights=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                       bias=np.array([0.0, 1.0]), activation="none")
    return Network(layers=[layer], input_dim=2, num_classes=2, norm_meta=None)


def random_affine(rng, dim=10, classes=3):
    layer = DenseLayer(weights=rng.normal(size=(classes, dim)),
                       bias=rng.normal(size=classes), activation="none")
    return Network(layers=[layer], input_dim=dim, num_classes=classes,
                   norm_meta=None)


def analytic_linear_margin(net, x):
    """Point-to-hyperplane distance for a one-layer linear net."""
    w = net.layers[0].weights
    b = net.layers[0].bias
    logits = w @ x + b
    i = int(np.argmax(logits))
    best = np.inf
    for j in range(net.num_classes):
        if j == i:
            continue
        denom = np.linalg.norm(w[i] - w[j])
        if denom < 1e-12:
            continue
        best = min(best, (logits[i] - logits[j]) / denom)
    return best


def orthonormal_pca(rng, n, m=None):
    X = rng.normal(size=(max(4 * n, 20), n))
    return fit_pca(X, n_components=m)


# ---------------------------------------------------------------------------
# Taylor margin


def test_taylor_margin_linear_hand_example():
    net = two_class_line()
    r = one_row(net, 0, np.array([1.0, 0.0]))
    assert r.d_best[0] == pytest.approx(0.5, abs=1e-15)
    assert (r.base[0], r.competitor[0]) == (0, 1)
    assert r.v_best[0] == pytest.approx(1.0)
    assert r.steps[0] == 0
    assert r.boundary is None
    assert STATUSES[r.status[0]] is SearchStatus.CONVERGED


def test_taylor_margin_on_boundary_is_zero():
    net = two_class_line()
    r = one_row(net, 0, np.array([0.5, 3.0]))
    assert r.d_best[0] == 0.0


def test_taylor_margin_matches_formula_rederivation():
    rng = np.random.default_rng(17)
    for _ in range(30):
        net = random_affine(rng, dim=6, classes=4)
        hidden = DenseLayer(weights=rng.normal(size=(8, 6)),
                            bias=rng.normal(size=8), activation="relu")
        out = DenseLayer(weights=rng.normal(size=(4, 8)),
                         bias=rng.normal(size=4), activation="none")
        net = Network(layers=[hidden, out], input_dim=6, num_classes=4,
                      norm_meta=None)
        x = rng.normal(size=6)
        i = int(predict_batch(net, x[None, :])[0])
        expected = np.inf
        expected_pair = None
        o, G, _ = logit_diffs_all_batch(net, 0, x[None, :], np.array([i]))
        for j in range(4):
            if j == i:
                continue
            nrm = np.linalg.norm(G[0, j])
            if nrm < 1e-12:
                continue
            if o[0, j] / nrm < expected:
                expected = o[0, j] / nrm
                expected_pair = (i, j)
        r = one_row(net, 0, x)
        assert abs(r.d_best[0] - expected) <= 1e-12
        assert (r.base[0], r.competitor[0]) == expected_pair


@pytest.mark.parametrize("shape", [(600, 5, 64), (37, 3, 11), (1, 2, 1),
                                   (0, 4, 8), (5000, 2, 1)])
def test_row_norms_match_linalg_norm_bit_for_bit(shape):
    # blocks of rows may not change a single bit of the per-row norms
    G = (np.random.default_rng(31).normal(size=shape)
         * np.logspace(-3, 3, shape[2]))
    got = marginlab.margin._row_norms(G)
    want = np.linalg.norm(G, axis=2)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("m", [None, 2])
def test_closed_form_search_makes_one_gradient_call(monkeypatch, m):
    # the closed form is the search's opening evaluation alone: one forward
    # pass over every row and one backward pass, with or without a
    # projector; with no ReLU in the net, that pass takes one row per class
    rng = np.random.default_rng(29)
    net = random_affine(rng, dim=5, classes=4)
    X = rng.normal(size=(40, 5))
    pca = None if m is None else fit_pca(X)
    seen = _count_rows(monkeypatch)
    results = search_margins(net, 0, X, pca=pca, m=m)
    assert seen == {"evaluated": [40], "backprop": [4]}
    assert results.d_best.shape == (40,)


@pytest.mark.parametrize("cfg", [None, SearchConfig(stop_tolerance=1e-3)],
                         ids=["closed-form", "search"])
def test_search_opens_with_one_forward_pass(monkeypatch, cfg):
    # one forward pass gives the base class, the logit differences and the
    # pre-activations of the opening backward pass
    rng = np.random.default_rng(37)
    net = init_network(5, [12], 4, seed=2)
    X = 2.0 * rng.normal(size=(30, 5))
    forwards, before_backprop = [], []
    forward = marginlab.nnet._forward
    grads = marginlab.margin._logit_diff_grads

    def counted_forward(net, lam, A):
        forwards.append(len(A))
        return forward(net, lam, A)

    def counted_grads(net, lam, pres, base):
        before_backprop.append(len(forwards))
        return grads(net, lam, pres, base)

    monkeypatch.setattr(marginlab.nnet, "_forward", counted_forward)
    monkeypatch.setattr(marginlab.margin, "_logit_diff_grads", counted_grads)
    results = search_margins(net, 0, X, cfg)
    assert before_backprop[0] == 1
    if cfg is None:
        assert forwards == [30]
    else:
        assert len(forwards) > 2
        assert results.steps.max() > 1


def _dead_relu_net():
    """Two hidden ReLUs, both off wherever x0 <= 1, under three logits:
    f0 = 1, f1 = h1 + h2 and f2 = h1 / 2 with h1 = relu(x0 - 1) and
    h2 = relu(2 x0 - 2). Where the units are off every gradient vanishes;
    beyond, class 1 overtakes class 0 at x0 = 4/3."""
    hidden = DenseLayer(weights=np.array([[1.0, 0.0], [2.0, 0.0]]),
                        bias=np.array([-1.0, -2.0]), activation="relu")
    out = DenseLayer(weights=np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.0]]),
                     bias=np.array([1.0, 0.0, 0.0]), activation="none")
    return Network(layers=[hidden, out], input_dim=2, num_classes=3,
                   norm_meta=None)


@pytest.mark.parametrize("batch_mean", [False, True])
def test_closed_form_none_rows_are_the_search_no_descent_rows(batch_mean):
    # "stuck" is decided once, by the opening's nearest-boundary rule: the
    # closed form returns None exactly where the search stops at NO_DESCENT
    net = _dead_relu_net()
    x0 = np.arange(-8, 25) / 8.0  # x0 = 1 exactly: relu'(0) = 0, stuck too
    X = np.column_stack([x0, np.random.default_rng(3).normal(size=x0.size)])
    closed = search_margins(net, 0, X)
    searched = search_margins(net, 0, X, SearchConfig(),
                              batch_mean=batch_mean)
    dead = np.flatnonzero(x0 <= 1.0).tolist()
    degenerate = STATUSES.index(SearchStatus.DEGENERATE)
    assert np.flatnonzero(closed.status == degenerate).tolist() == dead
    no_descent = STATUSES.index(SearchStatus.NO_DESCENT)
    assert np.flatnonzero(searched.status == no_descent).tolist() == dead
    for k in dead:
        assert (searched.steps[k], searched.d_best[k],
                searched.v_best[k]) == (0, 0.0, np.inf)
        assert np.array_equal(searched.boundary[k], X[k])
    live = np.flatnonzero(x0 > 1.0)
    assert all(closed.d_best[live] > 0.0)
    assert all(searched.steps[live] > 0)


def test_taylor_margin_degenerate_pair_errors():
    layer = DenseLayer(weights=np.array([[1.0, 0.0], [1.0, 0.0]]),
                       bias=np.array([0.5, 0.0]), activation="none")
    net = Network(layers=[layer], input_dim=2, num_classes=2, norm_meta=None)
    # no competitor is reachable: the row is stuck and has no margin
    assert [STATUSES[k] for k in one_row(net, 0, np.array([1.0, 2.0])).status
            ] == [SearchStatus.DEGENERATE]


def overflowing_distance_net():
    """A linear 2-class net whose gap at x = (1, 0) is 1e300 and whose
    logit-difference gradient has norm 1e-11: the linearized distance,
    1e311, overflows."""
    layer = DenseLayer(weights=np.array([[5e-12, 0.0], [-5e-12, 0.0]]),
                       bias=np.array([1e300, 0.0]), activation="none")
    return Network(layers=[layer], input_dim=2, num_classes=2, norm_meta=None)


@pytest.mark.parametrize("cfg, batch_mean", [(None, False),
                                             (SearchConfig(), False),
                                             (SearchConfig(), True)])
def test_an_overflowing_linearized_distance_is_a_numerical_error(
        cfg, batch_mean):
    # a finite gap over a usable gradient norm: not a stuck row
    with pytest.raises(NumericalError, match="boundary distance overflows"):
        one_row(overflowing_distance_net(), 0, np.array([1.0, 0.0]), cfg,
                batch_mean=batch_mean)


@pytest.mark.parametrize("batch_mean", [False, True])
def test_rows_whose_every_gradient_vanishes_stay_stuck(batch_mean):
    # the same gap with no usable gradient: stuck, not an overflow
    layer = DenseLayer(weights=np.zeros((2, 2)),
                       bias=np.array([1e300, 0.0]), activation="none")
    net = Network(layers=[layer], input_dim=2, num_classes=2, norm_meta=None)
    X = np.array([[1.0, 0.0], [-3.0, 2.0]])
    closed = search_margins(net, 0, X)
    assert [STATUSES[k] for k in closed.status] == [
        SearchStatus.DEGENERATE] * 2
    assert np.isinf(closed.d_best).all()
    searched = search_margins(net, 0, X, SearchConfig(),
                              batch_mean=batch_mean)
    assert [STATUSES[k] for k in searched.status] == [
        SearchStatus.NO_DESCENT] * 2
    assert searched.steps.tolist() == [0, 0]


# ---------------------------------------------------------------------------
# DeepFool margin, single sample


def test_deepfool_linear_one_step_with_unit_rate():
    net = two_class_line()
    cfg = SearchConfig(learning_rate=1.0)
    r = one_row(net, 0, np.array([1.0, 0.0]), cfg)
    assert r.d_best[0] == pytest.approx(0.5, abs=1e-12)
    assert r.v_best[0] <= 1e-10
    assert r.steps[0] == 1
    assert STATUSES[r.status[0]] == SearchStatus.VIOLATION_ROSE
    assert np.allclose(r.boundary[0], [0.5, 0.0], atol=1e-12)
    assert (r.base[0], r.competitor[0]) == (0, 1)


def test_deepfool_quarter_rate_refines_to_same_boundary():
    net = two_class_line()
    cfg = SearchConfig(learning_rate=0.25, stop_tolerance=1e-8)
    r = one_row(net, 0, np.array([1.0, 0.0]), cfg)
    assert r.d_best[0] == pytest.approx(0.5, abs=1e-6)
    assert r.steps[0] > 1


def test_deepfool_matches_analytic_distance_on_random_linear_nets():
    rng = np.random.default_rng(31)
    for gamma in (1.0, 0.25):
        cfg = SearchConfig(learning_rate=gamma, stop_tolerance=1e-9, max_iters=200)
        for _ in range(20):
            net = random_affine(rng)
            x = rng.normal(size=10)
            expected = analytic_linear_margin(net, x)
            r = one_row(net, 0, x, cfg)
            assert abs(r.d_best[0] - expected) <= 1e-4
            assert r.v_best[0] <= 1e-3


def test_deepfool_clips_to_bounds():
    net = two_class_line()
    lower = np.array([0.8, -1.0])
    upper = np.array([2.0, 1.0])
    cfg = SearchConfig(learning_rate=1.0, bounds=(lower, upper))
    r = one_row(net, 0, np.array([1.0, 0.0]), cfg)
    # true boundary (x1=0.5) lies outside the box; search pins at x1=0.8
    assert r.d_best[0] == pytest.approx(0.2, abs=1e-12)
    assert STATUSES[r.status[0]] == SearchStatus.VIOLATION_ROSE
    assert np.all(r.boundary[0] >= lower - 1e-12)
    assert np.all(r.boundary[0] <= upper + 1e-12)


def test_deepfool_near_boundary_sample_returns_the_degenerate_zero():
    # first accepted distance would sit within delta of the initial d=0, so the
    # search reports (0, inf) exactly as the bookkeeping dictates
    net = two_class_line()
    cfg = SearchConfig(learning_rate=1.0, stop_tolerance=0.01)
    r = one_row(net, 0, np.array([0.5 + 1e-6, 0.0]), cfg)
    assert r.d_best[0] == 0.0
    assert r.v_best[0] == np.inf
    assert r.steps[0] == 0
    assert STATUSES[r.status[0]] == SearchStatus.CONVERGED


def test_deepfool_no_descent_when_all_gradients_vanish():
    layer = DenseLayer(weights=np.zeros((3, 2)), bias=np.array([0.1, 0.0, -0.2]),
                       activation="none")
    net = Network(layers=[layer], input_dim=2, num_classes=3, norm_meta=None)
    r = one_row(net, 0, np.array([1.0, 1.0]), SearchConfig())
    assert STATUSES[r.status[0]] == SearchStatus.NO_DESCENT
    assert r.steps[0] == 0
    assert r.d_best[0] == 0.0


def test_deepfool_max_iters_never_raises():
    net = two_class_line()
    cfg = SearchConfig(learning_rate=0.01, stop_tolerance=1e-15, max_iters=3)
    r = one_row(net, 0, np.array([1.0, 0.0]), cfg)
    assert STATUSES[r.status[0]] == SearchStatus.MAX_ITERS
    assert r.steps[0] == 3


def test_deepfool_violation_trace_is_strictly_decreasing():
    ds, _ = _normalized_blobs(seed=2)
    net = _trained_net(ds, seed=3)
    X = ds.features[predict_batch(net, ds.features) == ds.labels]
    cfg = SearchConfig(learning_rate=0.25, stop_tolerance=1e-6, max_iters=150)
    traced = 0
    for x in X[:10]:
        r = one_row(net, 0, x, cfg, collect_trace=True)
        vs = [v for _, _, v in r.trace]
        assert all(b < a for a, b in zip(vs, vs[1:]))
        traced += len(vs)
    assert traced > 0


def test_deepfool_hidden_layer_runs_without_clipping():
    ds, _ = _normalized_blobs(seed=4)
    net = _trained_net(ds, seed=5)
    h = forward_batch(net, ds.features[:1])[1][0]
    cfg = SearchConfig(learning_rate=0.25, stop_tolerance=1e-6, max_iters=200)
    r = one_row(net, 1, h, cfg)
    assert r.d_best[0] >= 0.0
    assert r.boundary[0].shape == h.shape


def test_search_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(learning_rate=0.0)
    with pytest.raises(DomainError):
        SearchConfig(learning_rate=1.2)
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            SearchConfig(stop_tolerance=tol)
    for rate in (np.inf, np.nan):
        with pytest.raises(DomainError):
            SearchConfig(learning_rate=rate)
    with pytest.raises(DomainError):
        SearchConfig(max_iters=0)


@pytest.mark.parametrize("bounds,complaint", [
    ((np.zeros(3), np.ones(3)), "do not match the input dimension"),
    ((np.zeros(2), np.ones(2), np.ones(2)), "do not match the input dimension"),
    ((np.array([0.0, 1.0]), np.array([1.0, 1.0])), "lower < upper"),
], ids=["width", "three-bounds", "empty-box"])
def test_search_rejects_a_bad_clip_box(bounds, complaint):
    cfg = SearchConfig(bounds=bounds)
    with pytest.raises(DomainError, match=complaint):
        search_margins(two_class_line(), 0, np.array([[0.2, 0.5]]), cfg)


# ---------------------------------------------------------------------------
# DeepFool margin, batched


def _normalized_blobs(seed=0, classes=3, spc=50, dim=4, spread=0.9):
    ds = gen_blobs(BlobConfig(classes=classes, samples_per_class=spc, dim=dim,
                              spread=spread, seed=seed))
    return normalize(ds, "znorm")


def _trained_net(ds, seed=0, width=16, epochs=60):
    net = init_network(ds.feature_count, [width], ds.class_count, seed=seed)
    return train_sgd(net, ds, TrainConfig(epochs=epochs, batch_size=16,
                                          learning_rate=0.05, seed=seed))


def test_batch_of_identical_samples_gives_identical_results():
    ds, _ = _normalized_blobs(seed=6)
    net = _trained_net(ds, seed=7)
    x = ds.features[0]
    batch = np.tile(x, (5, 1))
    results = search_margins(net, 0, batch, SearchConfig(), batch_mean=True)
    for column in (results.d_best, results.v_best, results.steps,
                   results.status):
        assert (column == column[0]).all()


def test_batch_of_one_close_to_single_mode():
    ds, _ = _normalized_blobs(seed=8)
    net = _trained_net(ds, seed=9)
    cfg = SearchConfig(learning_rate=0.25, stop_tolerance=0.01, max_iters=100)
    correct = ds.features[predict_batch(net, ds.features) == ds.labels]
    for x in correct[:8]:
        single = one_row(net, 0, x, cfg)
        batched = search_margins(net, 0, x[None, :], cfg, batch_mean=True)
        assert abs(single.d_best[0] - batched.d_best[0]) \
            <= cfg.stop_tolerance


def test_rows_searched_alone_match_one_call_up_to_rounding():
    # the forward pass's matrix products may round differently with the
    # number of rows, so a row alone is held to its batch's steps and
    # status and to its distance within rounding, not to its bits
    ds, _ = _normalized_blobs(seed=14, spc=40, dim=12)
    net = _trained_net(ds, seed=15, width=64)
    rows = ds.features[predict_batch(net, ds.features) == ds.labels][:60]
    cfg = SearchConfig(stop_tolerance=1e-3)
    together = search_margins(net, 0, rows, cfg)
    for i, x in enumerate(rows):
        alone = search_margins(net, 0, x[None, :], cfg)
        assert alone.steps[0] == together.steps[i]
        assert alone.status[0] == together.status[i]
        assert alone.d_best[0] == pytest.approx(together.d_best[i],
                                                rel=1e-12, abs=0.0)


def test_batch_converged_samples_meet_equality_threshold():
    ds, _ = _normalized_blobs(seed=10, spc=40)
    net = _trained_net(ds, seed=11)
    correct = ds.features[predict_batch(net, ds.features) == ds.labels][:50]
    cfg = SearchConfig(learning_rate=0.25, stop_tolerance=1e-6, max_iters=500)
    results = search_margins(net, 0, correct, cfg, batch_mean=True)
    assert results.d_best.shape == (len(correct),)
    converged = results.status == STATUSES.index(SearchStatus.CONVERGED)
    assert converged.any()
    assert (results.v_best[converged] <= 1e-3).all()


def test_batch_steps_count_accepted_updates():
    # the first row pins at the box edge after one step while the second
    # keeps the batch running; steps count only the updates each row kept
    net = two_class_line()
    cfg = SearchConfig(learning_rate=0.25,
                       bounds=(np.array([0.8, -1.0]), np.array([2.0, 1.0])))
    rows = np.array([[0.85, 0.0], [1.9, 0.0]])
    both = search_margins(net, 0, rows, cfg, batch_mean=True)
    assert both.steps.tolist() == [1, 6]
    assert one_row(net, 0, rows[0], cfg).steps[0] == 1
    assert both.d_best[0] == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize("cfg,batch_mean", [
    (None, False), (SearchConfig(), False), (SearchConfig(), True)],
    ids=["closed-form", "search", "batch-mean"])
def test_input_without_rows_gives_an_empty_table(cfg, batch_mean):
    net = init_network(4, [8], 3, seed=12)
    table = search_margins(net, 0, np.empty((0, 4)), cfg,
                           batch_mean=batch_mean)
    assert table.d_best.shape == table.status.shape == (0,)
    assert table.trace is None


def test_closed_form_refuses_batch_mean():
    # batch_mean sets how a search stops; the closed form used to ignore it
    with pytest.raises(DomainError, match="batch_mean"):
        search_margins(two_class_line(), 0, np.array([[1.0, 0.0]]),
                       batch_mean=True)


def test_closed_form_refuses_collect_trace():
    # the closed form takes no step, so it used to return no trace
    with pytest.raises(DomainError, match="collect_trace"):
        search_margins(two_class_line(), 0, np.array([[1.0, 0.0]]),
                       collect_trace=True)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "rank-3"])
@pytest.mark.parametrize("lam", [0, 1])
def test_non_finite_or_high_rank_activations_are_rejected(lam, bad):
    # a NaN row used to give d_best 0.0 with a leaked RuntimeWarning, an
    # inf row d_best NaN, and a rank-3 input an IndexError
    net = init_network(4, [8], 3, seed=2)
    A = forward_batch(net, np.random.default_rng(5).normal(size=(6, 4)))[lam]
    if bad == "rank-3":
        A = A.reshape(2, 3, -1)
    else:
        A = A.copy()
        A[3, 1] = float(bad)
    with pytest.raises(DomainError):
        forward_batch(net, A, lam)
    for cfg, batch_mean in ((None, False), (SearchConfig(), False),
                            (SearchConfig(), True)):
        with pytest.raises(DomainError):
            search_margins(net, lam, A, cfg, batch_mean=batch_mean)
    if bad != "rank-3":
        with pytest.raises(DomainError):
            one_row(net, lam, A[3], SearchConfig())


def test_activations_are_checked_once_per_search(monkeypatch):
    # the entry check runs once, not on each iteration's evaluation
    net, lam, X, cfg, pca, m = _reuse_case("input-clipped")
    checked = []
    check = marginlab.margin._checked_rows

    def counted(A):
        checked.append(len(A))
        return check(A)

    monkeypatch.setattr(marginlab.margin, "_checked_rows", counted)
    seen = _count_rows(monkeypatch)
    search_margins(net, lam, X, cfg, pca, m)
    assert checked == [len(X)]
    assert len(seen["evaluated"]) > 2


# ---------------------------------------------------------------------------
# constrained estimators


@pytest.mark.parametrize("m", [None, 2.0, True, np.float64(2.0), "2", 0,
                               5], ids=["none", "float", "bool", "np-float",
                                        "str", "zero", "above"])
def test_subspace_dimension_must_be_an_integer_in_range(m):
    rng = np.random.default_rng(19)
    net = init_network(4, [8], 3, seed=2)
    X = rng.normal(size=(10, 4))
    pca = fit_pca(X)
    for cfg in (None, SearchConfig()):
        with pytest.raises(DomainError, match="must be an integer in"):
            search_margins(net, 0, X, cfg, pca, m)
    for ok in (1, np.int64(2), 4):
        assert search_margins(net, 0, X, None, pca, ok).d_best.shape == (10,)


def test_subspace_dimension_without_a_basis_is_rejected():
    # m alone used to be ignored, which gave unconstrained margins
    rng = np.random.default_rng(19)
    net = init_network(4, [8], 3, seed=2)
    X = rng.normal(size=(10, 4))
    H = forward_batch(net, X)[1]
    for lam, rows, m in ((0, X, 3), (0, X, np.int64(1)), (1, H, "x")):
        for cfg in (None, SearchConfig()):
            with pytest.raises(DomainError, match="needs a pca basis"):
                search_margins(net, lam, rows, cfg, None, m)
    for cfg in (None, SearchConfig()):
        with pytest.raises(DomainError, match="needs a pca basis"):
            one_row(net, 0, X[0], cfg, None, 2)


def test_constrained_taylor_orthogonal_subspace_unreachable():
    net = two_class_line()
    pca = PcaModel(mean=np.zeros(2), components=np.array([[0.0, 1.0]]),
                   explained_variance=np.array([1.0]),
                   explained_ratio=np.array([0.6]))
    # no competitor is reachable inside the subspace: the row is stuck
    assert [STATUSES[k] for k in one_row(net, 0, np.array([1.0, 0.0]), None,
                                         pca, 1).status
            ] == [SearchStatus.UNREACHABLE]


def test_constrained_taylor_aligned_subspace_equals_unconstrained():
    net = two_class_line()
    pca = PcaModel(mean=np.zeros(2), components=np.array([[1.0, 0.0]]),
                   explained_variance=np.array([1.0]),
                   explained_ratio=np.array([0.6]))
    r = one_row(net, 0, np.array([1.0, 0.0]), None, pca, 1)
    assert r.d_best[0] == pytest.approx(0.5, abs=1e-15)


def test_constrained_taylor_full_rank_equals_taylor():
    rng = np.random.default_rng(41)
    for _ in range(25):
        hidden = DenseLayer(weights=rng.normal(size=(7, 5)),
                            bias=rng.normal(size=7), activation="relu")
        out = DenseLayer(weights=rng.normal(size=(3, 7)),
                         bias=rng.normal(size=3), activation="none")
        net = Network(layers=[hidden, out], input_dim=5, num_classes=3,
                      norm_meta=None)
        x = rng.normal(size=5)
        pca = orthonormal_pca(rng, 5)
        assert pca.components.shape == (5, 5)
        full = one_row(net, 0, x, None, pca, 5)
        plain = one_row(net, 0, x)
        assert abs(full.d_best[0] - plain.d_best[0]) <= 1e-10


def test_constrained_deepfool_full_rank_matches_standard_on_linear():
    rng = np.random.default_rng(43)
    cfg = SearchConfig(learning_rate=1.0, stop_tolerance=1e-9, max_iters=200)
    for _ in range(15):
        net = random_affine(rng, dim=6, classes=3)
        x = rng.normal(size=6)
        pca = orthonormal_pca(rng, 6)
        standard = one_row(net, 0, x, cfg)
        constrained = one_row(net, 0, x, cfg, pca, 6)
        assert abs(standard.d_best[0] - constrained.d_best[0]) <= 1e-6
        assert not constrained.left_subspace[0]


def test_constrained_deepfool_orthogonal_subspace_no_descent():
    net = two_class_line()
    pca = PcaModel(mean=np.zeros(2), components=np.array([[0.0, 1.0]]),
                   explained_variance=np.array([1.0]),
                   explained_ratio=np.array([0.6]))
    r = one_row(net, 0, np.array([1.0, 0.0]), SearchConfig(), pca, 1)
    assert STATUSES[r.status[0]] == SearchStatus.NO_DESCENT


def test_constrained_deepfool_steps_by_gap_magnitude():
    # f0 - f1 = 6(x - 0.5) - 5 relu(x - 1): a full step from x = 2 overshoots
    # to x = -2; signed steps walk back to the boundary at 0.5, while the
    # magnitude steps of the constrained search walk on and stop there
    hidden = DenseLayer(weights=np.array([[1.0], [-1.0], [1.0]]),
                        bias=np.array([0.0, 0.0, -1.0]), activation="relu")
    out = DenseLayer(weights=np.array([[6.0, -6.0, -5.0], [0.0, 0.0, 0.0]]),
                     bias=np.array([-3.0, 0.0]), activation="none")
    net = Network(layers=[hidden, out], input_dim=1, num_classes=2,
                  norm_meta=None)
    pca = PcaModel(mean=np.zeros(1), components=np.array([[1.0]]),
                   explained_variance=np.array([1.0]),
                   explained_ratio=np.array([1.0]))
    cfg = SearchConfig(learning_rate=1.0)
    x = np.array([2.0])
    assert one_row(net, 0, x, cfg).d_best[0] == pytest.approx(1.5)
    constrained = one_row(net, 0, x, cfg, pca, 1)
    assert constrained.d_best[0] == pytest.approx(4.0)
    assert STATUSES[constrained.status[0]] == SearchStatus.VIOLATION_ROSE


def test_constrained_deepfool_stays_in_span_without_clipping():
    ds, _ = _normalized_blobs(seed=14, classes=2, dim=3)
    net = _trained_net(ds, seed=15)
    bare = Network(net.layers, net.input_dim, net.num_classes, norm_meta=None)
    pca = fit_pca(ds.features, n_components=2)
    cfg = SearchConfig(learning_rate=0.25, stop_tolerance=1e-7, max_iters=300)
    correct = ds.features[predict_batch(bare, ds.features) == ds.labels]
    x = correct[0]
    r = one_row(bare, 0, x, cfg, pca, 2)
    if r.steps[0] > 0:
        p = r.boundary[0] - x
        residual = p - (p @ pca.components.T) @ pca.components
        assert np.linalg.norm(residual) <= 1e-9
        assert not r.left_subspace[0]


def test_constrained_deepfool_records_when_clipping_leaves_span():
    net = two_class_line()
    u = np.sqrt(0.5)
    pca = PcaModel(mean=np.zeros(2), components=np.array([[u, u]]),
                   explained_variance=np.array([1.0]),
                   explained_ratio=np.array([0.6]))
    lower = np.array([0.8, -0.1])
    upper = np.array([2.0, 0.1])
    cfg = SearchConfig(learning_rate=1.0, bounds=(lower, upper))
    r = one_row(net, 0, np.array([1.0, 0.0]), cfg, pca, 1)
    assert r.steps[0] >= 1
    assert r.left_subspace[0]


def test_constrained_deepfool_single_direction_matches_bisection_oracle():
    ds, _ = _normalized_blobs(seed=16, classes=2, dim=2, spread=0.7)
    net = _trained_net(ds, seed=17, width=12, epochs=80)
    bare = Network(net.layers, net.input_dim, net.num_classes, norm_meta=None)
    pca = fit_pca(ds.features)
    direction = pca.components[0]
    cfg = SearchConfig(learning_rate=0.25, stop_tolerance=1e-7, max_iters=500)
    correct = np.flatnonzero(predict_batch(bare, ds.features) == ds.labels)
    checked = 0
    for idx in correct:
        x = ds.features[idx]
        oracle = _line_boundary_distance(bare, x, direction)
        if oracle is None:
            continue
        r = one_row(bare, 0, x, cfg, pca, 1)
        assert abs(r.d_best[0] - oracle) <= 1e-4
        checked += 1
        if checked >= 5:
            break
    assert checked >= 3


def _line_boundary_distance(net, x, u, reach=10.0, grid=4000):
    """Smallest |t| with a predicted-class change along x + t*u (bisected)."""
    def predict(point):
        return int(predict_batch(net, point[None, :])[0])

    base = predict(x)
    best = None
    for sign in (1.0, -1.0):
        prev = 0.0
        for t in np.linspace(0.0, reach, grid)[1:]:
            if predict(x + sign * t * u) != base:
                a, b = prev, t
                for _ in range(60):
                    mid = 0.5 * (a + b)
                    if predict(x + sign * mid * u) != base:
                        b = mid
                    else:
                        a = mid
                cand = 0.5 * (a + b)
                if best is None or cand < best:
                    best = cand
                break
            prev = t
    return best


def test_constrained_distance_dominates_standard_on_linear_nets():
    rng = np.random.default_rng(47)
    cfg = SearchConfig(learning_rate=0.5, stop_tolerance=1e-9, max_iters=300)
    for _ in range(15):
        net = random_affine(rng, dim=6, classes=3)
        x = rng.normal(size=6)
        pca = orthonormal_pca(rng, 6)
        m = int(rng.integers(2, 6))
        standard = one_row(net, 0, x, cfg)
        constrained = one_row(net, 0, x, cfg, pca, m)
        if STATUSES[constrained.status[0]] == SearchStatus.NO_DESCENT:
            continue
        assert constrained.d_best[0] >= standard.d_best[0] - 1e-6


# ---------------------------------------------------------------------------
# gradients reused while a row's activation pattern is unchanged


def _reuse_case(name):
    """(net, lam, X, cfg, pca, m) for one kind of boundary search."""
    rng = np.random.default_rng(61)
    X = 2.0 * rng.normal(size=(60, 6))
    one = init_network(6, [24], 4, seed=3)
    two = init_network(6, [16, 12], 4, seed=5)
    free = SearchConfig(stop_tolerance=1e-3, max_iters=60)
    clip = SearchConfig(stop_tolerance=1e-3, max_iters=60,
                        bounds=(X.min(axis=0) - 0.1, X.max(axis=0) + 0.1))
    return {
        "input-clipped": (one, 0, X, clip, None, None),
        "input-pca": (one, 0, X, clip, fit_pca(X), 3),
        "hidden-no-relu-above": (one, 1, forward_batch(one, X)[1], free,
                                 None, None),
        "two-hidden-input": (two, 0, X, free, None, None),
        "two-hidden-pca": (two, 0, X, free, fit_pca(X), 2),
        "two-hidden-hidden": (two, 1, forward_batch(two, X)[1], free, None,
                              None),
    }[name]


def _reference_search(net, lam, X, cfg, pca=None, m=None, *,
                      batch_mean=False):
    """The boundary search as a plain loop over full-size state: every
    column is kept for every row and updated in place on each iteration, so
    a row's outputs are whatever the last update left. Returns the
    ``search_margins`` columns as a dict, the trace included."""
    mm = marginlab.margin
    X0 = np.atleast_2d(np.asarray(X, dtype=np.float64))
    s = X0.shape[0]
    projector = None if pca is None else pca.components[:m]
    o, logits, pres, base = mm._logit_diffs(net, lam, X0)
    grads = mm._RowGradients(net, lam, projector, pres, base)
    pair = mm._runner_up(logits, base)
    bounds = mm._resolve_bounds(net, lam, cfg)
    rows = np.arange(s)
    step, stuck = mm._next_step(o, base, grads, rows, cfg.learning_rate)
    d_best = np.zeros(s)
    v_best = np.full(s, np.inf)
    boundary = X0.copy()
    steps = np.zeros(s, dtype=np.int64)
    code = {status: k for k, status in enumerate(SearchStatus)}
    status = np.full(s, code[SearchStatus.NO_DESCENT], dtype=np.int8)
    active = np.ones(s, dtype=bool)
    Xhat = X0.copy()
    d_cur = np.zeros(s)
    mean_prev = 0.0
    iters = 0
    trace = []
    while True:
        active &= ~stuck
        if not active.any():
            break
        a = rows if batch_mean else np.flatnonzero(active)
        Xp = Xhat[a] - step[a]
        if bounds is not None:
            np.clip(Xp, bounds[0], bounds[1], out=Xp)
        o, logits, pres, _ = mm._logit_diffs(net, lam, Xp, base[a])
        grads.move(a, pres, base[a])
        next_step, next_stuck = mm._next_step(o, base[a], grads, a,
                                              cfg.learning_rate)
        runner = mm._runner_up(logits, base[a])
        v = np.abs(o[np.arange(a.size), runner])
        d = np.linalg.norm(X0[a] - Xp, axis=1)
        iters += 1
        if batch_mean:
            moved = active.copy()
            kept = moved & (v < v_best)
        else:
            rose = v >= v_best[a]
            settled = ~rose & (np.abs(d - d_best[a]) < cfg.stop_tolerance)
            status[a[rose]] = code[SearchStatus.VIOLATION_ROSE]
            status[a[settled]] = code[SearchStatus.CONVERGED]
            moved = kept = ~(rose | settled)
        k = a[kept]
        d_best[k], v_best[k], boundary[k], pair[k] = (
            d[kept], v[kept], Xp[kept], runner[kept])
        steps[k] += 1
        trace.extend(zip(k.tolist(), d[kept].tolist(), v[kept].tolist()))
        mv = a[moved]
        Xhat[mv], d_cur[mv] = Xp[moved], d[moved]
        step[mv], stuck[mv] = next_step[moved], next_stuck[moved]
        active[a[~moved]] = False
        if batch_mean:
            mean_d = float(d_cur.mean())
            settled = abs(mean_d - mean_prev) < cfg.stop_tolerance
            mean_prev = mean_d
            if settled or iters >= cfg.max_iters:
                status[active] = code[SearchStatus.CONVERGED if settled
                                      else SearchStatus.MAX_ITERS]
                break
        else:
            done = mv[steps[mv] >= cfg.max_iters]
            status[done] = code[SearchStatus.MAX_ITERS]
            active[done] = False
    if projector is not None:
        P = boundary - X0
        left = np.linalg.norm(P - (P @ projector.T) @ projector,
                              axis=1) > mm._SPAN_TOL
    else:
        left = np.zeros(s, dtype=bool)
    return {"d_best": d_best, "v_best": v_best, "base": base,
            "competitor": pair, "steps": steps, "status": status,
            "left_subspace": left, "boundary": boundary, "trace": trace}


def _overshoot_case():
    """(net, lam, X, cfg, pca, m) whose rows stop in every way: f0 = 1 and
    f1 = 10 h1 - 9 h2 with h1 = relu(x0 - 1) and h2 = relu(x0 - 2), so
    the gradients vanish wherever x0 <= 1, and a step from far out, where
    f1 is shallow, overshoots the boundary into that dead region."""
    hidden = DenseLayer(weights=np.array([[1.0, 0.0], [1.0, 0.0]]),
                        bias=np.array([-1.0, -2.0]), activation="relu")
    out = DenseLayer(weights=np.array([[0.0, 0.0], [10.0, -9.0],
                                       [0.5, 0.0]]),
                     bias=np.array([1.0, 0.0, 0.0]), activation="none")
    net = Network(layers=[hidden, out], input_dim=2, num_classes=3,
                  norm_meta=None)
    rng = np.random.default_rng(23)
    x0 = np.concatenate([np.arange(-8, 25) / 8.0, rng.uniform(1.0, 40.0, 40)])
    X = np.column_stack([x0, rng.normal(size=x0.size)])
    return net, 0, X, SearchConfig(stop_tolerance=1e-3), None, None


@pytest.mark.parametrize("max_iters", [1, 3, 100])
@pytest.mark.parametrize("batch_mean", [False, True])
@pytest.mark.parametrize("case", ["input-clipped", "input-pca",
                                  "hidden-no-relu-above", "two-hidden-input",
                                  "two-hidden-pca", "two-hidden-hidden",
                                  "overshoot"])
def test_search_matches_the_full_state_reference_loop(case, batch_mean,
                                                      max_iters):
    # the engine keeps only the rows still searching and writes a row out
    # when it stops; the reference keeps every row and updates it in place
    net, lam, X, cfg, pca, m = (_overshoot_case() if case == "overshoot"
                                else _reuse_case(case))
    cfg = replace(cfg, max_iters=max_iters)
    want = _reference_search(net, lam, X, cfg, pca, m, batch_mean=batch_mean)
    got = search_margins(net, lam, X, cfg, pca, m, batch_mean=batch_mean,
                         collect_trace=True)
    for name, column in want.items():
        if name == "trace":
            assert repr(got.trace) == repr(column)
        else:
            assert getattr(got, name).dtype == column.dtype, name
            assert getattr(got, name).tobytes() == column.tobytes(), name


def _count_rows(monkeypatch):
    """Rows evaluated and rows backpropagated by the search, call by call."""
    seen = {"evaluated": [], "backprop": []}
    diffs = marginlab.margin._logit_diffs
    grads = marginlab.margin._logit_diff_grads

    def evaluated(net, lam, X, base=None):
        seen["evaluated"].append(len(X))
        return diffs(net, lam, X, base)

    def backprop(net, lam, pres, base):
        seen["backprop"].append(len(base))
        return grads(net, lam, pres, base)

    monkeypatch.setattr(marginlab.margin, "_logit_diffs", evaluated)
    monkeypatch.setattr(marginlab.margin, "_logit_diff_grads", backprop)
    return seen


@pytest.mark.parametrize("batch_mean", [False, True])
@pytest.mark.parametrize("case", ["input-clipped", "input-pca",
                                  "hidden-no-relu-above", "two-hidden-input",
                                  "two-hidden-pca", "two-hidden-hidden"])
def test_reused_gradients_give_the_results_of_a_full_backprop(
        monkeypatch, case, batch_mean):
    net, lam, X, cfg, pca, m = _reuse_case(case)
    seen = _count_rows(monkeypatch)
    cached = search_margins(net, lam, X, cfg, pca, m, batch_mean=batch_mean,
                            collect_trace=True)
    # the first evaluation backprops every row, or one row per base class
    # where no ReLU lies above the layer; later ones only the rows whose
    # pattern changed, which leaves some rows to reuse
    assert seen["backprop"][0] == (np.unique(cached.base).size
                                   if case == "hidden-no-relu-above"
                                   else len(X))
    assert sum(seen["backprop"]) < sum(seen["evaluated"])
    if case != "hidden-no-relu-above":
        assert len(seen["backprop"]) > 1

    # a pattern that differs on every call makes every row read as changed,
    # so every evaluation backprops every row
    calls = iter(range(10 ** 6))
    monkeypatch.setattr(marginlab.margin, "_activation_pattern",
                        lambda net, lam, pres: np.full((len(pres[0]), 1),
                                                       next(calls)))
    seen["evaluated"].clear()
    seen["backprop"].clear()
    full = search_margins(net, lam, X, cfg, pca, m, batch_mean=batch_mean,
                          collect_trace=True)
    assert seen["backprop"] == seen["evaluated"]

    assert cached.d_best.shape == full.d_best.shape == (len(X),)
    for name in ("d_best", "v_best", "base", "competitor", "steps",
                 "status", "left_subspace", "boundary"):
        assert (getattr(cached, name).tobytes()
                == getattr(full, name).tobytes()), name
    assert repr(cached.trace) == repr(full.trace)
    assert cached.steps.max() > 1


@pytest.mark.parametrize("lam,m", [(0, None), (0, 3), (1, None)])
def test_moved_rows_hold_the_gradients_of_their_new_points(lam, m):
    # the per-row state after a move equals state built afresh at the new
    # points, bit for bit, whether or not a row's pattern changed
    rng = np.random.default_rng(71)
    net = init_network(6, [16, 12], 4, seed=5)
    X = 2.0 * rng.normal(size=(80, 6))
    projector = None if m is None else fit_pca(X).components[:m]
    A = forward_batch(net, X)[lam]
    moved = np.sort(rng.choice(80, size=50, replace=False))
    B = A.copy()
    B[moved] += 0.3 * rng.normal(size=(50, A.shape[1]))
    base = rng.integers(0, 4, size=80)

    def pres(acts):
        return marginlab.nnet._forward(net, lam, acts)[1]

    grads = marginlab.margin._RowGradients(net, lam, projector, pres(A), base)
    before = grads.pattern.copy()
    grads.move(moved, pres(B[moved]), base[moved])
    fresh = marginlab.margin._RowGradients(net, lam, projector, pres(B), base)
    changed = np.any(fresh.pattern[moved] != before[moved], axis=1)
    assert 0 < changed.sum() < changed.size
    for got, want in ((grads.pattern, fresh.pattern),
                      (grads.grads, fresh.grads), (grads.norms, fresh.norms)):
        assert got.tobytes() == want.tobytes()


def _one_flip_per_row(widths, rng):
    """Pre-activations of a net with ReLU layers ``widths`` over 3 inputs
    and 2 logits: row u flips the sign of unit u (counted across layers)
    of the last row, the reference."""
    n = sum(widths)
    Z = np.tile(rng.choice([-1.0, 1.0], size=n), (n + 1, 1))
    Z[np.arange(n), np.arange(n)] *= -1.0
    layers = np.split(Z, np.cumsum(widths)[:-1], axis=1)
    return init_network(3, list(widths), 2, seed=3), layers + [
        rng.normal(size=(n + 1, 2))]


@pytest.mark.parametrize("widths", [(1,), (7,), (8,), (13,), (64,), (65,),
                                    (13, 7)])
def test_packed_patterns_see_a_change_at_every_unit(widths):
    # the pattern packs the masks into uint64 words; a flip of any unit,
    # in any word and on either layer, must read as a change
    rng = np.random.default_rng(sum(widths))
    net, pres = _one_flip_per_row(widths, rng)
    n = sum(widths)
    pattern = marginlab.margin._activation_pattern(net, 0, pres)
    assert pattern.dtype == np.uint64
    assert pattern.shape == (n + 1, -(-n // 64))
    bits = np.unpackbits(pattern.view(np.uint8), axis=1)
    assert np.array_equal(bits[:, :n].astype(bool),
                          np.concatenate(pres[:-1], axis=1) > 0.0)
    assert not bits[:, n:].any()  # the padding units are off
    changed = np.any(pattern != pattern[-1], axis=1)
    assert changed.tolist() == [True] * n + [False]


@pytest.mark.parametrize("widths", [(1,), (8,), (65,), (13, 7)])
def test_a_move_backprops_exactly_the_rows_with_a_flipped_unit(
        monkeypatch, widths):
    rng = np.random.default_rng(sum(widths) + 1)
    net, pres = _one_flip_per_row(widths, rng)
    n = sum(widths)
    base = np.zeros(n + 1, dtype=np.int64)
    reference = [np.tile(Z[-1], (n + 1, 1)) for Z in pres]
    grads = marginlab.margin._RowGradients(net, 0, None, reference, base)
    seen = _count_rows(monkeypatch)
    grads.move(None, pres, base)
    assert seen["backprop"] == [n]
    fresh = marginlab.margin._RowGradients(net, 0, None, pres, base)
    assert grads.pattern.tobytes() == fresh.pattern.tobytes()
    assert grads.grads.tobytes() == fresh.grads.tobytes()


@pytest.mark.parametrize("batch_mean", [False, True])
@pytest.mark.parametrize("hidden,lam", [([24], 1), ([16, 12], 2)])
def test_no_relu_above_the_layer_means_one_backprop_per_search(
        monkeypatch, hidden, lam, batch_mean):
    # between the last hidden layer and the logits no ReLU can switch, so
    # a row's gradients depend on its base class alone: the first
    # evaluation backprops one row per class, and that serves the search
    rng = np.random.default_rng(67)
    net = init_network(6, hidden, 4, seed=7)
    X = forward_batch(net, 2.0 * rng.normal(size=(40, 6)))[lam]
    seen = _count_rows(monkeypatch)
    results = search_margins(net, lam, X, SearchConfig(stop_tolerance=1e-3),
                             batch_mean=batch_mean)
    assert seen["backprop"] == [np.unique(results.base).size]
    assert len(seen["evaluated"]) > 2
    assert results.steps.max() > 1


@pytest.mark.parametrize("batch_mean", [False, True])
@pytest.mark.parametrize("case", ["hidden", "linear-pca"])
def test_shared_class_gradients_are_each_rows_own_bit_for_bit(
        monkeypatch, case, batch_mean):
    # with no ReLU above the layer the search keeps one gradient entry per
    # base class; every norm and step direction it reads through that
    # entry has the bits of the row's own gradients, backpropagated alone
    rng = np.random.default_rng(73)
    if case == "hidden":
        net = init_network(6, [24], 4, seed=7)
        lam, pca, m = 1, None, None
        A = forward_batch(net, 2.0 * rng.normal(size=(50, 6)))[1]
    else:
        net = random_affine(rng, dim=6, classes=4)
        lam, A = 0, rng.normal(size=(50, 6))
        pca, m = fit_pca(A), 3
    projector = None if pca is None else pca.components[:m]
    base = np.argmax(forward_batch(net, A, lam)[-1], axis=1)
    assert np.unique(base).size > 1
    G = np.concatenate([logit_diffs_all_batch(net, lam, A[r:r + 1],
                                              base[r:r + 1])[1]
                        for r in range(len(A))])
    if projector is not None:
        G = G @ projector.T
    norms = np.linalg.norm(G, axis=2)
    step = marginlab.margin._next_step
    calls = []

    def checked(o, b, grads, rows, rate):
        at = np.arange(len(b)) if rows is None else rows
        assert grads.slot is not None
        assert len(grads.grads) == np.unique(base).size
        assert grads.norms.take(at, 0).tobytes() == norms[at].tobytes()
        own = SimpleNamespace(grads=G[at], norms=norms[at],
                              projector=projector, slot=None)
        got, want = step(o, b, grads, rows, rate), step(o, b, own, None, rate)
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()
        calls.append(len(b))
        return got

    monkeypatch.setattr(marginlab.margin, "_next_step", checked)
    table = search_margins(net, lam, A, SearchConfig(stop_tolerance=1e-3),
                           pca, m, batch_mean=batch_mean)
    assert len(calls) > 2
    assert table.steps.max() > 1


def test_rows_that_stop_cost_no_copy_of_the_gradient_tensor():
    # a search at layer 1 of a 20-64-16-10 net, whose second ReLU keeps its
    # gradients per row, holds a 300 x 10 x 64 gradient tensor (1.46 MiB)
    # while its rows stop over some twenty iterations; the search peaks
    # near 2.8 MiB, and copying the tensor down to the rows still
    # searching whenever some stop lifts that past 4.2 MiB
    rng = np.random.default_rng(7)
    net = init_network(20, [64, 16], 10, seed=11)
    H = forward_batch(net, 3.0 * rng.normal(size=(300, 20)))[1]
    tracemalloc.start()
    try:
        table = search_margins(net, 1, H, SearchConfig(stop_tolerance=1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 5 <= np.median(table.steps) < table.steps.max()
    assert peak < 3.5 * 2 ** 20


def test_layer_closed_form_keeps_one_gradient_entry_per_class():
    # 2,000 rows at layer 1 of a 32-128-10 net: no ReLU lies above, so one
    # 10 x 128 gradient entry per base class serves every row; per-row
    # state, a 2,000 x 10 x 128 tensor, peaked at 20.5 MiB
    rng = np.random.default_rng(83)
    net = init_network(32, [128], 10, seed=13)
    A = forward_batch(net, rng.normal(size=(2000, 32)))[1]
    tracemalloc.start()
    try:
        table = search_margins(net, 1, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.d_best.shape == (2000,)
    assert np.unique(table.base).size > 1
    assert peak < 2 * 2 ** 20


# ---------------------------------------------------------------------------
# total-variation normalization


def test_tv_single_feature_hand_example():
    acts = np.array([[0.0], [4.0]])  # population variance 4 -> TV 2
    assert compute_total_variation(acts) == pytest.approx(2.0)
    assert tv_normalize(np.array([6.0]), acts)[0] == pytest.approx(3.0)


def test_tv_homogeneity():
    rng = np.random.default_rng(51)
    acts = rng.normal(size=(30, 6))
    for c in (0.5, 2.0, 7.3):
        assert compute_total_variation(c * acts) == pytest.approx(
            c * compute_total_variation(acts), rel=1e-12)


def test_tv_matches_sum_of_variances_oracle():
    rng = np.random.default_rng(53)
    acts = rng.normal(size=(40, 9)) * rng.uniform(0.1, 3.0, size=9)
    total = 0.0
    for col in acts.T:
        mu = sum(col) / len(col)
        total += sum((v - mu) ** 2 for v in col) / len(col)
    assert compute_total_variation(acts) == pytest.approx(np.sqrt(total), abs=1e-10)


def test_tv_zero_variance_is_degenerate():
    acts = np.ones((5, 3))
    with pytest.raises(DegenerateVarianceError):
        tv_normalize(np.array([1.0]), acts)


@pytest.mark.parametrize("acts", [np.array([[np.nan, 1.0], [1.0, 2.0]]),
                                  np.array([[np.inf, 1.0], [1.0, 2.0]]),
                                  np.zeros((2, 2, 2))],
                         ids=["nan", "inf", "rank-3"])
def test_tv_rejects_non_finite_or_misshapen_activations(acts):
    with pytest.raises(DomainError):
        compute_total_variation(acts)
    with pytest.raises(DomainError):
        tv_normalize(np.array([1.0, 2.0]), acts)


def test_tv_normalize_keeps_nan_margins():
    # mw measure passes NaN for the rows without a margin
    out = tv_normalize(np.array([np.nan, 6.0]), np.array([[0.0], [4.0]]))
    assert np.isnan(out[0]) and out[1] == 3.0


def test_tv_normalizer_over_network_layers():
    ds, _ = _normalized_blobs(seed=18)
    net = _trained_net(ds, seed=19)
    acts = forward_batch(net, ds.features)
    assert len(acts) == 3
    margins = np.array([1.0, 2.0])
    for A in acts:
        tv = compute_total_variation(A)
        assert tv > 0
        assert np.allclose(tv_normalize(margins, A), margins / tv)


# ---------------------------------------------------------------------------
# overflow


def _half_line():
    """A linear two-class net whose logit gap at x is x[0] and whose
    gradient is (1, 0): the closed-form margin of x is |x[0]|."""
    return Network([DenseLayer(np.array([[0.5, 0.0], [-0.5, 0.0]]),
                               np.zeros(2), "none")], 2, 2)


@pytest.mark.parametrize("batch_mean", [False, True])
def test_search_whose_iterate_distance_overflows_raises(batch_mean):
    # the first step from 1e308 lands 0.25e308 away, whose square overflows
    X = np.array([[1e308, 0.0], [-1.0, 0.0]])
    with pytest.raises(NumericalError, match="iterate's distance or logit "
                                             "gap overflows"):
        search_margins(_half_line(), 0, X, SearchConfig(),
                       batch_mean=batch_mean)


def test_closed_form_near_the_float_limit_is_finite_or_raises():
    net = _half_line()
    # the gap 1e308 is finite, and so is the margin
    table = search_margins(net, 0, np.array([[1e308, 0.0]]))
    assert table.d_best.tolist() == [1e308]
    # the logits 2e308 apart overflow their difference
    wide = Network([DenseLayer(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                               np.zeros(2), "none")], 2, 2)
    with pytest.raises(NumericalError, match="logit gap or gradient norm "
                                             "overflows"):
        search_margins(wide, 0, np.array([[1e308, 0.0]]))
