"""Dense feedforward classifiers: forward pass, exact gradients, SGD training.

Networks are plain values: a list of dense layers (ReLU or linear), the input
dimension, the class count, and optionally the normalization that produced the
space the net operates in. The gradient op differentiates the *logit
difference* f_i − f_j with respect to any layer's activation vector — the
quantity every boundary-distance estimator in this package is built on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from ._atomic import read_json, write_json
from .data import Dataset, NormalizationMeta, _checked_dataset
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    TrainingDivergedError,
    _as_floats,
    _check_reals,
    _checked_file,
    _checked_rows,
    _real_arrays,
    check_integers,
    check_overflow,
    check_seed,
)

logger = logging.getLogger(__name__)

_ACTIVATIONS = ("relu", "none")
MODEL_FORMAT = "mw-model/1"
# the NormalizationMeta arrays a model file stores, under these keys
_NORM_ARRAYS = ("offsets", "scales", "lower", "upper")


@dataclass(frozen=True)
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str  # "relu" | "none"


@dataclass
class Network:
    layers: list[DenseLayer]
    input_dim: int
    num_classes: int
    norm_meta: NormalizationMeta | None = None


def _checked_network(net: Network) -> Network:
    """``net`` itself, if it is a net ``load_model`` would load: integer
    sizes, two classes or more, one layer or more, each a real weight
    matrix fed by the width before it with a bias per output and a known
    activation, the last as wide as ``num_classes``, and no normalization
    or a known scheme with four ``input_dim``-long arrays, positive scales
    and lower < upper. Else a DomainError, or a NumericalError on a
    non-finite parameter or normalization value."""
    if not isinstance(net, Network):
        raise DomainError(f"expected a Network, got {type(net).__name__}")
    check_integers(input_dim=net.input_dim, num_classes=net.num_classes)
    if net.num_classes < 2:
        raise DomainError("num_classes must be >= 2")
    layers = net.layers
    if not (isinstance(layers, (list, tuple))
            and all(isinstance(layer, DenseLayer) for layer in layers)):
        raise DomainError("layers must be a list of DenseLayer")
    prev = net.input_dim
    for idx, layer in enumerate(layers):
        w, b, act = layer.weights, layer.bias, layer.activation
        if not (isinstance(act, str) and act in _ACTIVATIONS):
            raise DomainError(f"layer {idx} has unknown activation {act!r}")
        if not (_real_arrays(w, b) and w.ndim == 2 and w.shape[1] == prev
                and b.shape == (w.shape[0],)):
            raise DomainError(f"layer {idx} shapes are inconsistent")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise NumericalError(f"layer {idx} holds non-finite parameters")
        prev = w.shape[0]
    if not layers:
        raise DomainError("model has no layers")
    if prev != net.num_classes:
        raise DomainError(f"final layer width {prev} != num_classes")

    meta = net.norm_meta
    if meta is None:
        return net
    scheme = getattr(meta, "scheme", None)
    if not (isinstance(meta, NormalizationMeta) and isinstance(scheme, str)
            and scheme in ("znorm", "minmax")):
        raise DomainError(f"unknown normalization scheme {scheme!r}")
    arrays = [getattr(meta, key) for key in _NORM_ARRAYS]
    if not (_real_arrays(*arrays)
            and all(a.shape == (net.input_dim,) for a in arrays)):
        raise DomainError(f"normalization arrays must each hold "
                          f"input_dim={net.input_dim} values")
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError("normalization holds non-finite values")
    if not np.all(meta.scales > 0):
        raise DomainError("normalization scales must be positive")
    if not np.all(meta.lower < meta.upper):
        raise DomainError("normalization bounds must satisfy lower < upper")
    return net


def _check_activations(net: Network, lam: int, X: np.ndarray, top: int) -> None:
    """DomainError unless ``X`` holds activations at layer ``lam`` in [0, top]."""
    if not 0 <= lam <= top:
        raise DomainError(f"layer index {lam} outside [0, {top + 1})")
    # the width of the activations at layer lam, 0 being the input
    expected = net.layers[lam - 1].weights.shape[0] if lam else net.input_dim
    if X.shape[-1] != expected:
        raise DomainError(f"activation width {X.shape[-1]} does not match "
                          f"layer {lam} width {expected}")


def _forward(net: Network, lam: int, A: np.ndarray):
    """Run layers ``lam``.. of the net on activations ``A`` at layer ``lam``.

    Returns the activations x^lam..x^L, each layer's input followed by the
    logits, and every layer's pre-activation, which backprop needs.
    """
    acts, pres = [A], []
    for layer in net.layers[lam:]:
        Z = acts[-1] @ layer.weights.T
        Z += layer.bias
        pres.append(Z)
        acts.append(np.maximum(Z, 0.0) if layer.activation == "relu" else Z)
    return acts, pres


@np.errstate(over="ignore", invalid="ignore")  # check_overflow names it
def forward_batch(net: Network, X: np.ndarray, lam: int = 0) -> list[np.ndarray]:
    """Activation matrices x^lam..x^L for a batch ``X`` of activations at
    layer ``lam``; by default X holds inputs, shape (s, input_dim). An
    activation that overflows raises NumericalError. A net
    ``load_model`` would not load raises as it does, without the file."""
    A = _checked_rows(X)
    _check_activations(_checked_network(net), lam, A, len(net.layers))
    acts = _forward(net, lam, A)[0]
    check_overflow("the forward pass", *acts)
    return acts


def predict_batch(net: Network, X: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest index."""
    return np.argmax(forward_batch(net, X)[-1], axis=-1)


# ---------------------------------------------------------------------------
# logit-difference gradients


@np.errstate(over="ignore", invalid="ignore")  # check_overflow names it
def logit_diffs_all_batch(net: Network, lam: int, X: np.ndarray, base: np.ndarray):
    """Logit differences and their gradients for every competitor class.

    For each row s of ``X`` (an activation matrix at layer ``lam``) and each
    class j, computes o[s, j] = f_i(x_s) − f_j(x_s) and the exact reverse-mode
    gradient G[s, j] = ∇_{x^lam}(f_i − f_j), where i = base[s]. Row j = base[s]
    is identically zero. Also returns the logits.

    ``net`` must pass ``_checked_network``, ``X`` must be one row or a
    matrix of rows of finite values, and ``base`` must hold one integer
    class in [0, num_classes) per row; anything else is a ``DomainError``.
    A logit, difference or gradient that overflows is a ``NumericalError``.
    """
    _checked_network(net)
    X = np.atleast_2d(_checked_rows(X))
    b = np.asarray(base)
    if b.size == 0:
        b = b.astype(np.int64)
    if (b.shape != X.shape[:1] or b.dtype.kind not in "iu"
            or b.size and not 0 <= b.min() <= b.max() < net.num_classes):
        raise DomainError(f"base must hold one integer class in [0, "
                          f"{net.num_classes}) for each of the "
                          f"{X.shape[0]} rows of X")
    base = b.astype(np.int64, copy=False)
    o, logits, pres, _ = _logit_diffs(net, lam, X, base)
    G = _logit_diff_grads(net, lam, pres, base)
    check_overflow("a logit difference or its gradient", o, G, logits)
    return o, G, logits


def _logit_diffs(net: Network, lam: int, X: np.ndarray, base=None):
    """Forward half of :func:`logit_diffs_all_batch`: the logit differences
    o, the logits, the pre-activations that :func:`_logit_diff_grads`
    takes, and the base classes, which default to each row's prediction
    (the argmax of its logits)."""
    _check_activations(net, lam, X, len(net.layers) - 1)
    acts, pres = _forward(net, lam, X)
    logits = acts[-1]
    if base is None:
        base = np.argmax(logits, axis=1)
    o = logits[np.arange(X.shape[0]), base][:, None] - logits
    return o, logits, pres, base


def _logit_diff_grads(net: Network, lam: int, pres, base: np.ndarray):
    """Backward half of :func:`logit_diffs_all_batch`: the gradients G from
    the pre-activations ``_forward`` returned for the same rows.

    At the output layer the gradient of f_i − f_j is the weight-row
    difference W[i] − W[j], so each row gathers its block from one class-pair
    table instead of multiplying (e_i − e_j) by W; each layer below then
    applies its ReLU mask ``Z > 0`` and its weights. G depends on a row only
    through its base class and its masks, and each row's slice of every
    stacked product is computed on its own, so a row gets the same bits in
    any subset of rows.
    """
    out, c = net.layers[-1], net.num_classes
    if out.activation == "relu":
        # a class whose output unit is off passes no gradient: it reads the
        # zero row appended as class c
        W = np.vstack([out.weights, np.zeros_like(out.weights[:1])])
        on = pres[-1] > 0.0
        i = np.where(on[np.arange(len(base)), base], base, c)[:, None]
        j = np.where(on, np.arange(c), c)
    else:
        W, i, j = out.weights, base, slice(None)
    # in floats, which integer or bool weights would not give
    table = np.subtract(W[:, None, :], W[None, :, :], dtype=np.float64)
    # (e_i − e_j) W, summed from 0.0, holds no -0.0 even where W does;
    # adding 0.0 gives the table the same zeros
    table += 0.0
    G = table[i, j]
    for layer, Z in zip(reversed(net.layers[lam:-1]), reversed(pres[:-1])):
        if layer.activation == "relu":
            G *= (Z > 0.0)[:, None, :]  # relu'(0) = 0; G is our own copy
        G = G @ layer.weights
    return G


# ---------------------------------------------------------------------------
# initialization and training


def init_network(input_dim: int, hidden_widths, num_classes: int, seed: int,
                 norm_meta: NormalizationMeta | None = None) -> Network:
    """Uniform ±1/sqrt(fan_in) init; ReLU hidden layers, linear output."""
    try:
        widths = [input_dim, *hidden_widths, num_classes]
    except TypeError:  # not iterable
        raise DomainError(f"hidden_widths must be a sequence of integers, "
                          f"got {hidden_widths!r}") from None
    check_integers(input_dim=input_dim, num_classes=num_classes,
                   **{f"hidden_widths[{k}]": w
                      for k, w in enumerate(widths[1:-1])})
    check_seed(seed)
    widths = [int(w) for w in widths]  # NumPy integers become ints
    if num_classes < 2:
        raise DomainError("num_classes must be >= 2")
    if input_dim < 1:
        raise DomainError("input_dim must be >= 1")
    if any(w < 1 for w in widths):
        raise DomainError("layer widths must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(widths) - 1):
        fan_in = widths[k]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(widths[k + 1], fan_in))
        b = rng.uniform(-bound, bound, size=widths[k + 1])
        act = "relu" if k < len(widths) - 2 else "none"
        layers.append(DenseLayer(weights=w, bias=b, activation=act))
    return Network(layers=layers, input_dim=widths[0],
                   num_classes=widths[-1], norm_meta=norm_meta)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        check_integers(epochs=self.epochs, batch_size=self.batch_size)
        check_seed(self.seed)
        _check_reals(learning_rate=self.learning_rate,
                     momentum=self.momentum)
        if self.epochs < 1:
            raise DomainError("epochs must be >= 1")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if not self.learning_rate >= 0.0:
            raise DomainError(f"learning_rate must be >= 0, got "
                              f"{self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError("momentum must lie in [0, 1)")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def train_sgd(net: Network, dataset: Dataset, config: TrainConfig) -> Network:
    """Mini-batch SGD with momentum on softmax cross-entropy.

    Deterministic for a fixed config seed. Raises TrainingDivergedError when
    the loss or any parameter stops being finite. Returns a new network; the
    input net provides the initial parameters and is left untouched. The
    net and the dataset are checked as their loaders check them, and the
    dataset needs samples of ``input_dim`` features and the net's class
    count, else it is a DomainError.
    """
    _checked_network(net)
    X, y = _as_floats(_checked_dataset(dataset).features), dataset.labels
    if X.shape[1] != net.input_dim:
        raise DomainError("dataset feature count does not match network input_dim")
    if dataset.class_count != net.num_classes:
        raise DomainError("dataset class_count does not match network num_classes")
    if not len(X):
        raise DomainError("training needs samples")

    # SGD updates float64 copies of the parameters in place
    trained = replace(net, layers=[
        DenseLayer(layer.weights.astype(np.float64),
                   layer.bias.astype(np.float64), layer.activation)
        for layer in net.layers])
    # divergence shows up as overflow/nan before the finiteness check catches
    # it; the warnings are noise, the typed error below is the signal
    with np.errstate(over="ignore", invalid="ignore"):
        loss = _run_epochs(trained, X, y, np.random.default_rng(config.seed),
                           config)

    logger.info("final epoch mean loss: %.6f", loss)
    return trained


def _run_epochs(net: Network, X, y, rng, config: TrainConfig) -> float:
    """Run every epoch in place; returns the last epoch's mean loss."""
    layers = net.layers
    vel_w = [np.zeros_like(layer.weights) for layer in layers]
    vel_b = [np.zeros_like(layer.bias) for layer in layers]
    s = X.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(s)
        epoch_loss = 0.0
        for start in range(0, s, config.batch_size):
            batch = order[start:start + config.batch_size]
            xb, yb = X[batch], y[batch]
            b = len(batch)

            inputs, pres = _forward(net, 0, xb)
            log_probs = _log_softmax(inputs.pop())
            epoch_loss += -float(log_probs[np.arange(b), yb].sum())

            # backprop softmax cross-entropy
            delta = np.exp(log_probs)
            delta[np.arange(b), yb] -= 1.0
            delta /= b
            grads_w, grads_b = [None] * len(layers), [None] * len(layers)
            for k in range(len(layers) - 1, -1, -1):
                grads_w[k] = delta.T @ inputs[k]
                grads_b[k] = delta.sum(axis=0)
                if k > 0:
                    delta = delta @ layers[k].weights
                    if layers[k - 1].activation == "relu":
                        delta = delta * (pres[k - 1] > 0.0)

            for k, layer in enumerate(layers):
                vel_w[k] *= config.momentum
                vel_w[k] += grads_w[k]
                vel_b[k] *= config.momentum
                vel_b[k] += grads_b[k]
                layer.weights[...] -= config.learning_rate * vel_w[k]
                layer.bias[...] -= config.learning_rate * vel_b[k]

        if not np.isfinite(epoch_loss) or any(
            not np.all(np.isfinite(layer.weights)) for layer in layers
        ):
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch + 1} (non-finite loss or weights)"
            )
    return epoch_loss / s


def accuracy(net: Network, dataset: Dataset) -> float:
    """Share of the samples of ``dataset`` that ``net`` classifies as
    labelled; a DomainError without samples, or as ``_checked_dataset`` or
    ``forward_batch`` raises one."""
    if not _checked_dataset(dataset).sample_count:
        raise DomainError("accuracy needs at least one sample")
    return float(np.mean(predict_batch(net, dataset.features)
                         == dataset.labels))


# ---------------------------------------------------------------------------
# model file


def save_model(net: Network, path) -> None:
    m = net.norm_meta
    norm = None if m is None else {
        "scheme": m.scheme,
        **{key: getattr(m, key).tolist() for key in _NORM_ARRAYS}}
    layers = [{"w": layer.weights.tolist(), "b": layer.bias.tolist(),
               "act": layer.activation} for layer in net.layers]
    doc = {"format": MODEL_FORMAT, "input_dim": net.input_dim,
           "num_classes": net.num_classes, "norm": norm, "layers": layers}
    write_json(path, doc)


def _model_size(value, key: str, path) -> int:
    """A model-file size: a JSON integer, or an integral number such as
    ``3.0``, as dataset labels are read; not a bool, string or fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{path}: {key} must be an integer, got {value!r}")
    return int(value)


def load_model(path) -> Network:
    """Read a model file; a net ``_checked_network`` rejects raises its
    error naming the file, a DomainError as a ConfigError."""
    doc = read_json(path, "model file")
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a {MODEL_FORMAT} model file")
    try:
        input_dim = _model_size(doc["input_dim"], "input_dim", path)
        num_classes = _model_size(doc["num_classes"], "num_classes", path)
        raw_layers = doc["layers"]
    except KeyError as exc:
        raise ConfigError(f"{path}: malformed model file ({exc})") from exc
    if not isinstance(raw_layers, list):
        raise ConfigError(f"{path}: layers must be a list")

    layers = []
    for idx, entry in enumerate(raw_layers):
        try:
            layers.append(DenseLayer(
                weights=np.asarray(entry["w"], dtype=np.float64),
                bias=np.asarray(entry["b"], dtype=np.float64),
                activation=entry["act"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: malformed layer {idx} ({exc})") from exc

    norm_meta = None
    if doc.get("norm") is not None:
        n = doc["norm"]
        try:
            norm_meta = NormalizationMeta(
                scheme=n["scheme"],
                **{key: np.asarray(n[key], dtype=np.float64)
                   for key in _NORM_ARRAYS})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: malformed norm block ({exc})") from exc

    return _checked_file(_checked_network, Network(
        layers=layers, input_dim=input_dim, num_classes=num_classes,
        norm_meta=norm_meta), path)
