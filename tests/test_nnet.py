import io
import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from marginlab import nnet
from marginlab.data import BlobConfig, gen_blobs, normalize
from marginlab.errors import (
    ConfigError,
    DomainError,
    NumericalError,
    TrainingDivergedError,
)
from marginlab.margin import SearchConfig
from marginlab.nnet import (
    DenseLayer,
    Network,
    TrainConfig,
    accuracy,
    forward_batch,
    init_network,
    load_model,
    logit_diffs_all_batch,
    predict_batch,
    save_model,
    train_sgd,
)


def logit_diff_grad(net, lam, x, i, j):
    """(f_i - f_j, its gradient) at the activation vector ``x``, read from
    ``logit_diffs_all_batch`` with base class i."""
    o, G, _ = logit_diffs_all_batch(net, lam, x[None, :], [i])
    return o[0, j], G[0, j]


def random_net(rng, input_dim=4, hidden=(6, 5), num_classes=3):
    widths = [input_dim, *hidden, num_classes]
    layers = []
    for k in range(len(widths) - 1):
        w = rng.normal(size=(widths[k + 1], widths[k]))
        b = rng.normal(size=widths[k + 1])
        act = "relu" if k < len(widths) - 2 else "none"
        layers.append(DenseLayer(weights=w, bias=b, activation=act))
    return Network(layers=layers, input_dim=input_dim, num_classes=num_classes,
                   norm_meta=None)


def oracle_logits(net, x):
    """Forward pass written as explicit per-unit loops, independent of numpy matmul."""
    a = [float(v) for v in x]
    for layer in net.layers:
        out = []
        for row, b in zip(layer.weights, layer.bias):
            z = float(b)
            for wj, aj in zip(row, a):
                z += float(wj) * aj
            if layer.activation == "relu" and z < 0.0:
                z = 0.0
            out.append(z)
        a = out
    return np.array(a)


def test_forward_matches_hand_rolled_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        net = random_net(rng)
        X = rng.normal(size=(3, net.input_dim))
        acts = forward_batch(net, X)
        assert len(acts) == len(net.layers) + 1
        assert np.array_equal(acts[0], X)
        for x, logits in zip(X, acts[-1]):
            assert np.max(np.abs(logits - oracle_logits(net, x))) <= 1e-12


def test_forward_is_deterministic():
    rng = np.random.default_rng(1)
    net = random_net(rng)
    X = rng.normal(size=(4, net.input_dim))
    a = forward_batch(net, X)[-1]
    b = forward_batch(net, X)[-1]
    assert np.array_equal(a, b)


def test_forward_batch_from_hidden_layer_matches_full_pass():
    rng = np.random.default_rng(8)
    net = random_net(rng, hidden=(7, 5, 6))
    acts = forward_batch(net, rng.normal(size=(5, net.input_dim)))
    for lam in range(len(net.layers) + 1):
        tail = forward_batch(net, acts[lam], lam)
        assert len(tail) == len(acts) - lam
        for a, b in zip(tail, acts[lam:]):
            assert np.array_equal(a, b)
    for lam in (-1, len(net.layers) + 1):
        with pytest.raises(DomainError):
            forward_batch(net, acts[0], lam)
    with pytest.raises(DomainError):
        forward_batch(net, acts[2], 1)  # width of layer 2, not layer 1


def test_predict_breaks_ties_toward_lowest_index():
    # logits are (x0, x0, 0): classes 0 and 1 always tie
    layer = DenseLayer(weights=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
                       bias=np.zeros(3), activation="none")
    net = Network(layers=[layer], input_dim=2, num_classes=3, norm_meta=None)
    assert list(predict_batch(net, np.array([[5.0, 1.0], [-3.0, 0.0]]))) == [0, 2]


# ---------------------------------------------------------------------------
# logit difference gradients


def _away_from_kinks(net, x, tol=1e-3):
    a = x
    for layer in net.layers:
        z = layer.weights @ a + layer.bias
        if layer.activation == "relu":
            if np.min(np.abs(z)) < tol:
                return False
            a = np.maximum(z, 0.0)
        else:
            a = z
    return True


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 120:
        net = random_net(rng, input_dim=int(rng.integers(3, 7)),
                         hidden=tuple(rng.integers(4, 9, size=int(rng.integers(1, 3)))),
                         num_classes=int(rng.integers(2, 5)))
        x = rng.normal(size=net.input_dim)
        if not _away_from_kinks(net, x):
            continue
        i, j = rng.choice(net.num_classes, size=2, replace=False)
        o, w = logit_diff_grad(net, 0, x, int(i), int(j))
        logits = forward_batch(net, x[None, :])[-1][0]
        assert o == pytest.approx(logits[i] - logits[j], abs=1e-12)
        h = 1e-5
        for k in range(net.input_dim):
            e = np.zeros(net.input_dim)
            e[k] = h
            lp, lm = forward_batch(net, np.stack([x + e, x - e]))[-1]
            num = ((lp[i] - lp[j]) - (lm[i] - lm[j])) / (2 * h)
            assert abs(w[k] - num) <= 1e-6
        checked += 1


def test_gradient_at_hidden_layer_matches_suffix_finite_differences():
    rng = np.random.default_rng(19)
    done = 0
    while done < 20:
        net = random_net(rng, input_dim=5, hidden=(8, 6), num_classes=3)
        x = rng.normal(size=5)
        lam = 1
        h_vec = forward_batch(net, x[None, :])[lam][0]
        # keep away from downstream kinks when perturbing the hidden activation
        sub = Network(net.layers[lam:], input_dim=len(h_vec),
                      num_classes=net.num_classes, norm_meta=None)
        if not _away_from_kinks(sub, h_vec):
            continue
        o, w = logit_diff_grad(net, lam, h_vec, 0, 2)
        h = 1e-5
        for k in range(len(h_vec)):
            e = np.zeros(len(h_vec))
            e[k] = h
            lp, lm = forward_batch(net, np.stack([h_vec + e, h_vec - e]),
                                   lam)[-1]
            num = ((lp[0] - lp[2]) - (lm[0] - lm[2])) / (2 * h)
            assert abs(w[k] - num) <= 1e-6
        done += 1


def test_relu_subgradient_at_zero_is_zero():
    # one hidden unit exactly at 0 pre-activation: gradient must treat relu'(0)=0
    l1 = DenseLayer(weights=np.array([[1.0]]), bias=np.array([0.0]), activation="relu")
    l2 = DenseLayer(weights=np.array([[2.0], [0.0]]), bias=np.zeros(2), activation="none")
    net = Network(layers=[l1, l2], input_dim=1, num_classes=2, norm_meta=None)
    o, w = logit_diff_grad(net, 0, np.array([0.0]), 0, 1)
    assert o == 0.0
    assert w[0] == 0.0


def test_logit_diff_grad_rejects_bad_args():
    rng = np.random.default_rng(3)
    net = random_net(rng)
    x = rng.normal(size=net.input_dim)
    with pytest.raises(DomainError):
        logit_diff_grad(net, len(net.layers),
                        forward_batch(net, x[None, :])[-1][0], 0, 1)
    with pytest.raises(DomainError):
        logit_diff_grad(net, -1, x, 0, 1)


@pytest.mark.parametrize("rows,dim,hidden,classes,lam", [
    (480, 20, (64,), 5, 0), (600, 5, (64,), 5, 0), (333, 32, (16, 12), 7, 0),
    (333, 32, (16, 12), 7, 1), (50, 3, (8, 8, 8), 4, 2)])
def test_gradients_of_a_row_subset_match_the_full_batch(rows, dim, hidden,
                                                        classes, lam):
    # margin searches backprop only the rows whose activation pattern
    # changed and reuse the rest, which needs a row's gradients to come out
    # bit for bit the same in any subset of rows
    rng = np.random.default_rng(rows + lam)
    net = random_net(rng, dim, hidden, classes)
    X = forward_batch(net, rng.normal(size=(rows, dim)))[lam]
    base = rng.integers(0, classes, size=rows)
    pres = nnet._forward(net, lam, X)[1]
    full = nnet._logit_diff_grads(net, lam, pres, base)
    for subset in (rng.choice(rows, size=rows // 3, replace=False),
                   np.arange(rows - 7, rows), np.array([rows // 2])):
        got = nnet._logit_diff_grads(net, lam, [Z[subset] for Z in pres],
                                     base[subset])
        assert np.array_equal(got.view(np.int64), full[subset].view(np.int64))



def stacked_identity_grads(net, lam, pres, base):
    """The gradients as the stacked product of e_i − e_j with each layer's
    weights, the formulation the class-pair table replaced, kept here as
    its oracle."""
    s, c = len(base), net.num_classes
    G = np.broadcast_to(-np.eye(c), (s, c, c)).copy()
    G[np.arange(s), :, base] += 1.0
    for layer, Z in zip(reversed(net.layers[lam:]), reversed(pres)):
        if layer.activation == "relu":
            G *= (Z > 0.0)[:, None, :]
        G = G @ layer.weights
    return G


@pytest.mark.parametrize("output", ["none", "relu"])
@pytest.mark.parametrize("hidden", [(9,), (9, 6)])
def test_class_pair_table_matches_the_stacked_identity_product(hidden,
                                                               output):
    # the output layer's gradient for classes (i, j) is W[i] − W[j], read
    # from a table; it must carry the stacked product's bits, the signs of
    # its zeros included, at every layer
    rng = np.random.default_rng(len(hidden))
    net = random_net(rng, 5, hidden, 4)
    W = net.layers[-1].weights
    W[1] = W[0]  # the table's (0, 1) and (1, 0) entries are exact zeros
    W[2, :3], W[3, :3] = [0.0, -0.0, -0.0], [-0.0, 0.0, -0.0]
    net.layers[-1] = replace(net.layers[-1], activation=output)
    X = rng.normal(size=(60, 5))
    base = np.arange(60) % 4
    for lam in range(len(net.layers)):
        pres = nnet._forward(net, lam, forward_batch(net, X)[lam])[1]
        got = nnet._logit_diff_grads(net, lam, pres, base)
        want = stacked_identity_grads(net, lam, pres, base)
        assert got.shape == (60, 4, net.layers[lam].weights.shape[1])
        assert got.tobytes() == want.tobytes()
    if output == "relu":
        on = pres[-1] > 0.0
        assert on.any() and not on.all()
    else:
        assert not got[base == 0, 1].any() and not got[base == 1, 0].any()


@pytest.mark.parametrize("base", [[3], [0], [-1, 0], [0, 1.0], [True, False],
                                  [[0, 1]], "01"])
def test_logit_diffs_all_batch_rejects_bad_base_classes(base):
    # one integer class in [0, num_classes) per row, checked at entry
    net = random_net(np.random.default_rng(5))
    with pytest.raises(DomainError):
        logit_diffs_all_batch(net, 0, np.zeros((2, net.input_dim)), base)


@pytest.mark.parametrize("X", [[[np.nan, 0.0, 0.0, 0.0]],
                               [[np.inf, 0.0, 0.0, 0.0]], np.zeros((1, 1, 4))],
                         ids=["nan", "inf", "rank-3"])
def test_logit_diffs_all_batch_rejects_non_finite_or_misshapen_rows(X):
    net = random_net(np.random.default_rng(5))
    with pytest.raises(DomainError):
        logit_diffs_all_batch(net, 0, X, [0])


def test_logit_diffs_all_batch_takes_any_integer_dtype():
    rng = np.random.default_rng(6)
    net = random_net(rng)
    X = rng.normal(size=(4, net.input_dim))
    want = logit_diffs_all_batch(net, 0, X, [0, 2, 1, 2])
    for base in (np.array([0, 2, 1, 2], dtype=np.uint8),
                 np.array([0, 2, 1, 2], dtype=np.int32)):
        got = logit_diffs_all_batch(net, 0, X, base)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert logit_diffs_all_batch(net, 0, X[:0], [])[1].shape == (0, 3, 4)


# ---------------------------------------------------------------------------
# initialization and training


def test_init_network_uniform_range_and_determinism():
    net = init_network(6, [10, 8], 3, seed=5)
    again = init_network(6, [10, 8], 3, seed=5)
    other = init_network(6, [10, 8], 3, seed=6)
    for a, b in zip(net.layers, again.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
    assert any(not np.array_equal(a.weights, c.weights)
               for a, c in zip(net.layers, other.layers))
    fan_ins = [6, 10, 8]
    for layer, fan_in in zip(net.layers, fan_ins):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.max(np.abs(layer.weights)) <= bound
        assert np.max(np.abs(layer.bias)) <= bound
    assert [l.activation for l in net.layers] == ["relu", "relu", "none"]


def _blob_task(seed=0):
    ds = gen_blobs(BlobConfig(classes=3, samples_per_class=40, dim=4, spread=0.8, seed=seed))
    return normalize(ds, "znorm")


def test_train_sgd_deterministic_and_learns():
    ds, meta = _blob_task()
    net = init_network(4, [16], 3, seed=1, norm_meta=meta)
    cfg = TrainConfig(epochs=40, batch_size=16, learning_rate=0.05, momentum=0.9, seed=2)
    m1 = train_sgd(net, ds, cfg)
    m2 = train_sgd(net, ds, cfg)
    for a, b in zip(m1.layers, m2.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
    assert accuracy(m1, ds) >= 0.9


def test_train_sgd_zero_learning_rate_is_identity():
    ds, meta = _blob_task(3)
    net = init_network(4, [8], 3, seed=4, norm_meta=meta)
    cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=0.0, momentum=0.9, seed=0)
    out = train_sgd(net, ds, cfg)
    for a, b in zip(net.layers, out.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_train_sgd_divergence_raises():
    ds, meta = _blob_task(5)
    net = init_network(4, [8], 3, seed=4, norm_meta=meta)
    cfg = TrainConfig(epochs=10, batch_size=8, learning_rate=1e12, momentum=0.9, seed=0)
    with pytest.raises(TrainingDivergedError):
        train_sgd(net, ds, cfg)


def test_train_sgd_logs_final_epoch_loss_without_a_prediction_pass(
        caplog, monkeypatch):
    # a zero learning rate keeps the net fixed, so every epoch's mean loss
    # is the initial net's mean cross-entropy over the whole dataset
    ds, meta = _blob_task(3)
    net = init_network(4, [8], 3, seed=4, norm_meta=meta)
    logits = forward_batch(net, ds.features)[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expect = -log_probs[np.arange(len(ds.labels)), ds.labels].mean()

    def no_prediction(*args, **kwargs):
        raise AssertionError("train_sgd ran a prediction pass")

    monkeypatch.setattr(nnet, "predict_batch", no_prediction)
    cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.0, seed=0)
    with caplog.at_level(logging.INFO, logger="marginlab.nnet"):
        train_sgd(net, ds, cfg)
    [record] = [r for r in caplog.records if r.name == "marginlab.nnet"]
    assert record.getMessage().startswith("final epoch mean loss: ")
    assert record.args[0] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0), True, "3"],
                         ids=["float", "integral-float", "np-float", "bool",
                              "str"])
def test_count_fields_must_be_integers(value):
    # a float count used to leak TypeError from range or be accepted
    blob = dict(classes=3, samples_per_class=10, dim=2, spread=1.0, seed=0)
    train = dict(epochs=2, batch_size=4, learning_rate=0.1)
    ds = gen_blobs(BlobConfig(**blob))
    net = init_network(2, [4], 3, seed=0)
    for field in ("classes", "samples_per_class", "dim"):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            gen_blobs(BlobConfig(**{**blob, field: value}))
    for field in ("epochs", "batch_size"):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            train_sgd(net, ds, TrainConfig(**{**train, field: value}))
    with pytest.raises(DomainError, match="max_iters must be an integer"):
        SearchConfig(max_iters=value)
    # numpy integers are integers
    assert gen_blobs(BlobConfig(**{**blob, "dim": np.int64(2)})).feature_count == 2
    train_sgd(net, ds, TrainConfig(**{**train, "epochs": np.int32(1)}))
    assert SearchConfig(max_iters=np.int64(3)).max_iters == 3


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0), True, "3"],
                         ids=["float", "integral-float", "np-float", "bool",
                              "str"])
def test_seeds_and_widths_must_be_integers(value):
    # a float seed used to leak numpy's TypeError, a bool seed was taken as
    # 0 or 1, and a float width was truncated to an integer
    blob = dict(classes=3, samples_per_class=10, dim=2, spread=1.0, seed=0)
    train = dict(epochs=2, batch_size=4, learning_rate=0.1)
    with pytest.raises(DomainError, match="seed must be an integer"):
        gen_blobs(BlobConfig(**{**blob, "seed": value}))
    with pytest.raises(DomainError, match="seed must be an integer"):
        TrainConfig(**train, seed=value)
    with pytest.raises(DomainError, match="seed must be an integer"):
        init_network(2, [4], 3, seed=value)
    with pytest.raises(DomainError,
                       match=r"hidden_widths\[1\] must be an integer"):
        init_network(2, [4, value], 3, seed=2)
    with pytest.raises(DomainError, match="input_dim must be an integer"):
        init_network(value, [4], 3, seed=2)
    with pytest.raises(DomainError, match="num_classes must be an integer"):
        init_network(2, [4], value, seed=2)


def test_negative_seeds_are_rejected():
    # numpy's ValueError used to leak from default_rng
    with pytest.raises(DomainError, match="seed must be >= 0"):
        BlobConfig(classes=3, samples_per_class=10, dim=2, spread=1.0,
                   seed=-1)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        TrainConfig(epochs=2, batch_size=4, learning_rate=0.1, seed=-1)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        init_network(2, [4], 3, seed=-1)


def test_numpy_integer_seeds_and_widths_draw_what_python_ints_draw():
    blob = dict(classes=3, samples_per_class=10, dim=2, spread=1.0)
    a = gen_blobs(BlobConfig(**blob, seed=7))
    b = gen_blobs(BlobConfig(**blob, seed=np.int64(7)))
    assert a.features.tobytes() == b.features.tobytes()
    n = init_network(2, [4, 5], 3, seed=7)
    m = init_network(np.int32(2), [np.int64(4), np.uint8(5)], np.int64(3),
                     seed=np.uint64(7))
    for x, y in zip(n.layers, m.layers):
        assert x.weights.tobytes() == y.weights.tobytes()
        assert x.bias.tobytes() == y.bias.tobytes()


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(epochs=0, batch_size=8, learning_rate=0.1)
    with pytest.raises(DomainError):
        TrainConfig(epochs=1, batch_size=0, learning_rate=0.1)
    for rate in (-0.1, np.inf, np.nan):
        with pytest.raises(DomainError):
            TrainConfig(epochs=1, batch_size=8, learning_rate=rate)


# ---------------------------------------------------------------------------
# model file


def test_model_json_round_trip_full_precision(tmp_path):
    ds, meta = _blob_task(7)
    net = init_network(4, [9, 7], 3, seed=11, norm_meta=meta)
    net = train_sgd(net, ds, TrainConfig(epochs=3, batch_size=16, learning_rate=0.05, seed=1))
    path = tmp_path / "model.json"
    save_model(net, path)
    loaded = load_model(path)
    assert loaded.input_dim == 4
    assert loaded.num_classes == 3
    for a, b in zip(net.layers, loaded.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation
    assert loaded.norm_meta is not None
    assert loaded.norm_meta.scheme == "znorm"
    assert np.array_equal(loaded.norm_meta.offsets, net.norm_meta.offsets)
    assert np.array_equal(loaded.norm_meta.lower, net.norm_meta.lower)
    # the bytes are what json.dump into a text stream writes for the document
    text = path.read_text(encoding="utf-8")
    stream = io.StringIO()
    json.dump(json.loads(text), stream, sort_keys=True)
    assert text == stream.getvalue() + "\n"


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other/9"}')
    with pytest.raises(ConfigError):
        load_model(path)
    path.write_text("not json at all")
    with pytest.raises(ConfigError):
        load_model(path)
    path.write_text('{"format": "mw-model/1", "input_dim": 2, '
                    '"num_classes": 2, "layers": 5}')
    with pytest.raises(ConfigError):
        load_model(path)
    # numbers beyond float range: 1e400 parses as inf, 10**400 as an int
    path.write_text('{"format": "mw-model/1", "input_dim": 1e400, '
                    '"num_classes": 2, "layers": []}')
    with pytest.raises(ConfigError):
        load_model(path)
    path.write_text('{"format": "mw-model/1", "input_dim": 1, '
                    '"num_classes": 2, "layers": [{"w": [[1' + '0' * 400
                    + '], [1]], "b": [0, 0], "act": "none"}]}')
    with pytest.raises(ConfigError):
        load_model(path)


def _model_doc(tmp_path):
    _, meta = _blob_task(7)
    save_model(init_network(4, [5], 3, seed=2, norm_meta=meta),
               tmp_path / "model.json")
    return json.loads((tmp_path / "model.json").read_text())


@pytest.mark.parametrize("where", ["w", "b", "offsets", "scales", "lower",
                                   "upper"])
def test_load_model_rejects_non_finite_values(tmp_path, where):
    doc = _model_doc(tmp_path)
    if where in ("w", "b"):
        target = doc["layers"][1][where]
        if where == "w":
            target = target[0]
    else:
        target = doc["norm"][where]
    target[-1] = float("inf") if where == "upper" else float("nan")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NumericalError, match="non-finite"):
        load_model(path)


@pytest.mark.parametrize("where", ["offsets", "scales", "lower", "upper"])
def test_load_model_rejects_norm_length_mismatch(tmp_path, where):
    doc = _model_doc(tmp_path)
    doc["norm"][where] = doc["norm"][where][:1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="input_dim"):
        load_model(path)


def test_load_model_rejects_non_positive_scale(tmp_path):
    doc = _model_doc(tmp_path)
    doc["norm"]["scales"][0] = 0.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="scales must be positive"):
        load_model(path)


@pytest.mark.parametrize("key,value", [
    ("input_dim", 3.9), ("input_dim", "4"), ("input_dim", True),
    ("input_dim", None), ("input_dim", [4]), ("num_classes", 3.5),
    ("num_classes", "3"), ("num_classes", False), ("num_classes", 1e400)])
def test_load_model_rejects_non_integer_sizes(tmp_path, key, value):
    doc = _model_doc(tmp_path)
    doc[key] = value
    path = tmp_path / "bad.json"
    # json.dumps writes 1e400 (inf) as Infinity, which json.loads reads back
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        load_model(path)


def test_load_model_accepts_integral_float_sizes(tmp_path):
    doc = _model_doc(tmp_path)
    doc["input_dim"], doc["num_classes"] = 4.0, 3.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    net = load_model(path)
    assert (net.input_dim, net.num_classes) == (4, 3)
    assert type(net.input_dim) is int and type(net.num_classes) is int
