"""Dense feedforward classifiers: forward pass, exact gradients, SGD training.

Networks are plain values: a list of dense layers (ReLU or linear), the input
dimension, the class count, and optionally the normalization that produced the
space the net operates in. The gradient op differentiates the *logit
difference* f_i − f_j with respect to any layer's activation vector — the
quantity every boundary-distance estimator in this package is built on.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import atomic_open
from .data import Dataset, NormalizationMeta
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    TrainingDivergedError,
    check_integers,
)

logger = logging.getLogger(__name__)

_ACTIVATIONS = ("relu", "none")
MODEL_FORMAT = "mw-model/1"


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


def layer_width(net: Network, lam: int) -> int:
    """Width of the activation vector at layer index ``lam`` (0 = input)."""
    if lam == 0:
        return net.input_dim
    return net.layers[lam - 1].weights.shape[0]


def _check_activations(net: Network, lam: int, X: np.ndarray, top: int) -> None:
    """DomainError unless ``X`` holds activations at layer ``lam`` in [0, top]."""
    if not 0 <= lam <= top:
        raise DomainError(f"layer index {lam} outside [0, {top + 1})")
    expected = layer_width(net, lam)
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
        Z = acts[-1] @ layer.weights.T + layer.bias
        pres.append(Z)
        acts.append(np.maximum(Z, 0.0) if layer.activation == "relu" else Z)
    return acts, pres


def forward_batch(net: Network, X: np.ndarray, lam: int = 0) -> list[np.ndarray]:
    """Activation matrices x^lam..x^L for a batch ``X`` of activations at
    layer ``lam``; by default X holds inputs, shape (s, input_dim)."""
    A = np.asarray(X, dtype=np.float64)
    _check_activations(net, lam, A, len(net.layers))
    return _forward(net, lam, A)[0]


def predict_batch(net: Network, X: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest index."""
    return np.argmax(forward_batch(net, X)[-1], axis=1)


# ---------------------------------------------------------------------------
# logit-difference gradients


def logit_diffs_all_batch(net: Network, lam: int, X: np.ndarray, base: np.ndarray):
    """Logit differences and their gradients for every competitor class.

    For each row s of ``X`` (an activation matrix at layer ``lam``) and each
    class j, computes o[s, j] = f_i(x_s) − f_j(x_s) and the exact reverse-mode
    gradient G[s, j] = ∇_{x^lam}(f_i − f_j), where i = base[s]. Row j = base[s]
    is identically zero. Also returns the logits.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    base = np.asarray(base, dtype=np.int64)
    o, logits, pres, _ = _logit_diffs(net, lam, X, base)
    return o, _logit_diff_grads(net, lam, pres, base), logits


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

    G depends on a row only through its base class and the ReLU masks
    ``Z > 0``, and each row's slice of every stacked product is computed on
    its own, so a row gets the same bits in any subset of rows.
    """
    s, c = len(base), net.num_classes
    G = np.broadcast_to(-np.eye(c), (s, c, c)).copy()
    G[np.arange(s), :, base] += 1.0
    for layer, Z in zip(reversed(net.layers[lam:]), reversed(pres)):
        if layer.activation == "relu":
            G *= (Z > 0.0)[:, None, :]  # relu'(0) = 0; G is our own copy
        G = G @ layer.weights
    return G


def logit_diff_grad(net: Network, lam: int, x_lam: np.ndarray, i: int, j: int):
    """(f_i − f_j, ∇_{x^lam}(f_i − f_j)) at one activation vector."""
    if i == j:
        raise DomainError("class pair must be distinct")
    for k in (i, j):
        if not 0 <= k < net.num_classes:
            raise DomainError(f"class index {k} outside [0, {net.num_classes})")
    o, G, _ = logit_diffs_all_batch(net, lam, np.asarray(x_lam)[None, :],
                                    np.array([i]))
    return float(o[0, j]), G[0, j]


# ---------------------------------------------------------------------------
# initialization and training


def init_network(input_dim: int, hidden_widths, num_classes: int, seed: int,
                 norm_meta: NormalizationMeta | None = None) -> Network:
    """Uniform ±1/sqrt(fan_in) init; ReLU hidden layers, linear output."""
    if num_classes < 2:
        raise DomainError("num_classes must be >= 2")
    if input_dim < 1:
        raise DomainError("input_dim must be >= 1")
    widths = [int(input_dim), *[int(w) for w in hidden_widths], int(num_classes)]
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
    return Network(layers=layers, input_dim=input_dim, num_classes=num_classes,
                   norm_meta=norm_meta)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        check_integers(epochs=self.epochs, batch_size=self.batch_size)
        if self.epochs < 1:
            raise DomainError("epochs must be >= 1")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if not 0.0 <= self.learning_rate < np.inf:
            raise DomainError(f"learning_rate must be finite and >= 0, got "
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
    input net provides the initial parameters and is left untouched.
    """
    X = dataset.features
    y = dataset.labels
    if X.shape[1] != net.input_dim:
        raise DomainError("dataset feature count does not match network input_dim")
    if dataset.class_count != net.num_classes:
        raise DomainError("dataset class_count does not match network num_classes")

    # SGD updates the copied parameters in place
    trained = Network(
        layers=[DenseLayer(layer.weights.copy(), layer.bias.copy(),
                           layer.activation) for layer in net.layers],
        input_dim=net.input_dim,
        num_classes=net.num_classes,
        norm_meta=net.norm_meta,
    )
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
    return float(np.mean(predict_batch(net, dataset.features) == dataset.labels))


# ---------------------------------------------------------------------------
# model file


def save_model(net: Network, path) -> None:
    norm = None
    if net.norm_meta is not None:
        m = net.norm_meta
        norm = {
            "scheme": m.scheme,
            "offsets": m.offsets.tolist(),
            "scales": m.scales.tolist(),
            "lower": m.lower.tolist(),
            "upper": m.upper.tolist(),
        }
    doc = {
        "format": MODEL_FORMAT,
        "input_dim": net.input_dim,
        "num_classes": net.num_classes,
        "norm": norm,
        "layers": [
            {"w": layer.weights.tolist(), "b": layer.bias.tolist(),
             "act": layer.activation}
            for layer in net.layers
        ],
    }
    # dumps runs the C encoder; dump into a file would run the Python one
    text = json.dumps(doc, sort_keys=True) + "\n"
    with atomic_open(path) as fh:
        fh.write(text)


def _model_size(value, key: str, path) -> int:
    """A model-file size: a JSON integer, or an integral number such as
    ``3.0``, as dataset labels are read; not a bool, string or fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{path}: {key} must be an integer, got {value!r}")
    return int(value)


def load_model(path) -> Network:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: cannot read model file ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a {MODEL_FORMAT} model file")
    try:
        input_dim = _model_size(doc["input_dim"], "input_dim", path)
        num_classes = _model_size(doc["num_classes"], "num_classes", path)
        raw_layers = doc["layers"]
    except KeyError as exc:
        raise ConfigError(f"{path}: malformed model file ({exc})") from exc
    if num_classes < 2:
        raise ConfigError(f"{path}: num_classes must be >= 2")
    if not isinstance(raw_layers, list):
        raise ConfigError(f"{path}: layers must be a list")

    layers = []
    prev = input_dim
    for idx, entry in enumerate(raw_layers):
        try:
            w = np.asarray(entry["w"], dtype=np.float64)
            b = np.asarray(entry["b"], dtype=np.float64)
            act = entry["act"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: malformed layer {idx} ({exc})") from exc
        if act not in _ACTIVATIONS:
            raise ConfigError(f"{path}: layer {idx} has unknown activation {act!r}")
        if w.ndim != 2 or w.shape[1] != prev or b.shape != (w.shape[0],):
            raise ConfigError(f"{path}: layer {idx} shapes are inconsistent")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise NumericalError(f"{path}: layer {idx} holds non-finite "
                                 f"parameters")
        layers.append(DenseLayer(weights=w, bias=b, activation=act))
        prev = w.shape[0]
    if not layers:
        raise ConfigError(f"{path}: model has no layers")
    if prev != num_classes:
        raise ConfigError(f"{path}: final layer width {prev} != num_classes")

    norm_meta = None
    if doc.get("norm") is not None:
        n = doc["norm"]
        try:
            norm_meta = NormalizationMeta(
                scheme=n["scheme"],
                offsets=np.asarray(n["offsets"], dtype=np.float64),
                scales=np.asarray(n["scales"], dtype=np.float64),
                lower=np.asarray(n["lower"], dtype=np.float64),
                upper=np.asarray(n["upper"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: malformed norm block ({exc})") from exc
        if norm_meta.scheme not in ("znorm", "minmax"):
            raise ConfigError(f"{path}: unknown normalization scheme "
                              f"{norm_meta.scheme!r}")
        arrays = (norm_meta.offsets, norm_meta.scales, norm_meta.lower,
                  norm_meta.upper)
        if any(a.shape != (input_dim,) for a in arrays):
            raise ConfigError(f"{path}: normalization arrays must each hold "
                              f"input_dim={input_dim} values")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise NumericalError(f"{path}: normalization holds non-finite "
                                 f"values")
        if not np.all(norm_meta.scales > 0):
            raise ConfigError(f"{path}: normalization scales must be positive")
        if not np.all(norm_meta.lower < norm_meta.upper):
            raise ConfigError(f"{path}: normalization bounds must satisfy lower < upper")

    return Network(layers=layers, input_dim=input_dim, num_classes=num_classes,
                   norm_meta=norm_meta)
