"""Principal components via covariance eigendecomposition, plus knee selection.

The component count for constrained-margin work is either given explicitly or
chosen by a Kneedle-style knee search on the log-variance curve, falling back
to a cumulative-variance rule when the curve has no knee.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import atomic_open
from .errors import ConfigError, DomainError, NumericalError

PCA_FORMAT = "mw-pca/1"


@dataclass(frozen=True)
class PcaModel:
    """Rows of ``components`` are orthonormal directions, variance-descending."""

    mean: np.ndarray
    components: np.ndarray  # (m, n)
    explained_variance: np.ndarray  # (m,)
    explained_ratio: np.ndarray  # (m,), fractions of total variance


@dataclass(frozen=True)
class ElbowChoice:
    m: int
    curve: np.ndarray  # log10 explained variance the knee search ran on
    fallback_used: bool


def fit_pca(X: np.ndarray, n_components: int | None = None) -> PcaModel:
    """Eigendecompose the sample covariance (divisor s−1) of ``X``.

    At most min(s−1, n) components exist. Component signs are fixed so each
    row's largest-magnitude entry is positive; tiny negative eigenvalues from
    round-off are clamped to zero.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DomainError("fit_pca expects a (samples, features) matrix")
    s, n = X.shape
    if s < 2:
        raise DomainError("need at least 2 samples to fit")
    limit = min(s - 1, n)
    m = limit if n_components is None else int(n_components)
    if not 1 <= m <= limit:
        raise DomainError(f"n_components must lie in [1, {limit}] for this data")

    mean = X.mean(axis=0)
    centered = X - mean
    cov = (centered.T @ centered) / (s - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:m]
    variances = np.maximum(eigvals[order], 0.0)
    components = eigvecs[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0

    total = float(np.trace(cov))
    if total <= 0.0:
        raise DomainError("data has zero total variance")
    return PcaModel(mean=mean, components=components,
                    explained_variance=variances,
                    explained_ratio=variances / total)


def transform(pca: PcaModel, X: np.ndarray) -> np.ndarray:
    return (np.asarray(X, dtype=np.float64) - pca.mean) @ pca.components.T


def inverse_transform(pca: PcaModel, Y: np.ndarray) -> np.ndarray:
    return np.asarray(Y, dtype=np.float64) @ pca.components + pca.mean


def validate_orthonormal(components: np.ndarray) -> bool:
    gram = components @ components.T
    return bool(np.max(np.abs(gram - np.eye(len(components)))) <= 1e-8)


def select_components_kneedle(pca: PcaModel) -> ElbowChoice:
    """Pick a component count at the knee of the log10-variance curve.

    Kneedle on the concave decreasing curve: normalize both axes to [0, 1],
    reflect y so the curve increases, take the difference series y − x, and
    walk it; the knee is the last interior local maximum whose threshold,
    one x step below it, the series later drops below. No smoothing
    is applied (the curve is an eigenvalue spectrum, already monotone). When no
    knee exists the smallest count reaching 70% of the total variance (or,
    when the ratios never get there, every component) is returned with the
    fallback flagged.
    """
    positive = pca.explained_variance[pca.explained_variance > 0]
    k = len(positive)
    if k < 3:
        raise DomainError("knee selection needs at least 3 positive-variance components")
    curve = np.log10(positive)

    x = np.arange(k, dtype=np.float64)
    xn = x / (k - 1)
    span = curve[0] - curve[-1]
    knee_original_index = None
    if span > 0:
        yn = (curve - curve[-1]) / span
        reflected = yn[::-1]  # decreasing -> increasing, concavity preserved
        yd = reflected - xn
        step = float(np.mean(np.diff(xn)))
        current_max = None
        threshold = None
        for idx in range(1, k):
            is_local_max = (idx < k - 1 and yd[idx] >= yd[idx - 1]
                            and yd[idx] >= yd[idx + 1])
            if is_local_max:
                current_max = idx
                threshold = yd[idx] - step
            elif current_max is not None and yd[idx] < threshold:
                knee_original_index = (k - 1) - current_max
                break

    if knee_original_index is not None:
        return ElbowChoice(m=knee_original_index + 1, curve=curve, fallback_used=False)

    cumulative = np.cumsum(pca.explained_ratio[:k])
    reached = np.nonzero(cumulative >= 0.70 - 1e-12)[0]
    m = int(reached[0]) + 1 if reached.size else k
    return ElbowChoice(m=m, curve=curve, fallback_used=True)


# ---------------------------------------------------------------------------
# file format


def save_pca(pca: PcaModel, path) -> None:
    doc = {
        "format": PCA_FORMAT,
        "mean": pca.mean.tolist(),
        "components": pca.components.tolist(),
        "explained_variance": pca.explained_variance.tolist(),
        "explained_ratio": pca.explained_ratio.tolist(),
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_pca(path) -> PcaModel:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: cannot read projection file ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != PCA_FORMAT:
        raise ConfigError(f"{path}: not a {PCA_FORMAT} file")
    try:
        pca = PcaModel(
            mean=np.asarray(doc["mean"], dtype=np.float64),
            components=np.asarray(doc["components"], dtype=np.float64),
            explained_variance=np.asarray(doc["explained_variance"], dtype=np.float64),
            explained_ratio=np.asarray(doc["explained_ratio"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed projection file ({exc})") from exc
    if (pca.mean.ndim != 1 or pca.components.ndim != 2
            or pca.components.shape[1] != pca.mean.size):
        raise ConfigError(f"{path}: component/mean shapes are inconsistent")
    count = (len(pca.components),)
    if pca.explained_variance.shape != count:
        raise ConfigError(f"{path}: variance count does not match components")
    if pca.explained_ratio.shape != count:
        raise ConfigError(f"{path}: explained_ratio count does not match "
                          f"components")
    if not all(np.all(np.isfinite(a)) for a in (
            pca.mean, pca.components, pca.explained_variance,
            pca.explained_ratio)):
        raise NumericalError(f"{path}: projection holds non-finite values")
    if not validate_orthonormal(pca.components):
        raise ConfigError(f"{path}: component rows are not orthonormal")
    return pca
