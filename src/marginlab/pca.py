"""Principal components via covariance eigendecomposition, plus knee selection.

The component count for constrained-margin work is either given explicitly or
chosen by a Kneedle-style knee search on the log-variance curve, falling back
to a cumulative-variance rule when the curve has no knee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._atomic import read_json, write_json
from .errors import (ConfigError, DomainError, NumericalError, _as_floats,
                     _checked_file, _checked_rows, _real_arrays,
                     check_integers, check_overflow)

PCA_FORMAT = "mw-pca/1"
# the PcaModel fields, each an array a projection file stores under its name
_FIELDS = ("mean", "components", "explained_variance", "explained_ratio")


@dataclass(frozen=True)
class PcaModel:
    """Rows of ``components`` are orthonormal directions, variance-descending."""

    mean: np.ndarray
    components: np.ndarray  # (m, n)
    explained_variance: np.ndarray  # (m,)
    explained_ratio: np.ndarray  # (m,), fractions of total variance


def _checked_pca(pca: PcaModel) -> PcaModel:
    """``pca`` itself, if it is a basis ``load_pca`` would load: arrays of
    real numbers, a mean vector, one or more component rows as wide as it, one
    variance and one ratio per component, and orthonormal rows. Else a
    DomainError, or a NumericalError on a non-finite value."""
    if not isinstance(pca, PcaModel):
        raise DomainError(f"expected a PcaModel, got {type(pca).__name__}")
    arrays = [getattr(pca, key) for key in _FIELDS]
    if not (_real_arrays(*arrays) and pca.mean.ndim == 1
            and pca.components.ndim == 2 and len(pca.components)
            and pca.components.shape[1] == pca.mean.size):
        raise DomainError("component/mean shapes are inconsistent")
    count = (len(pca.components),)
    if pca.explained_variance.shape != count:
        raise DomainError("variance count does not match components")
    if pca.explained_ratio.shape != count:
        raise DomainError("explained_ratio count does not match components")
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError("projection holds non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):  # NaN fails too
        C = _as_floats(pca.components)
        gram = C @ C.T
        if not np.abs(gram - np.eye(len(gram))).max() <= 1e-8:
            raise DomainError("component rows are not orthonormal")
    return pca


@dataclass(frozen=True)
class ElbowChoice:
    m: int
    curve: np.ndarray  # log10 explained variance the knee search ran on
    fallback_used: bool


def fit_pca(X: np.ndarray, n_components: int | None = None) -> PcaModel:
    """Eigendecompose the sample covariance (divisor s−1) of ``X``.

    At most min(s−1, n) components exist. Component signs are fixed so each
    row's largest-magnitude entry is positive; tiny negative eigenvalues from
    round-off are clamped to zero. A covariance that overflows raises
    NumericalError.
    """
    X = _checked_rows(X)
    if X.ndim != 2:
        raise DomainError("fit_pca expects a (samples, features) matrix")
    s, n = X.shape
    if s < 2:
        raise DomainError("need at least 2 samples to fit")
    m = limit = min(s - 1, n)
    if n_components is not None:
        check_integers(n_components=n_components)
        m = n_components
    if not 1 <= m <= limit:
        raise DomainError(f"n_components must lie in [1, {limit}] for this data")

    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        centered = X - mean
        cov = (centered.T @ centered) / (s - 1)
        total = float(np.trace(cov))  # bounds every eigenvalue
    check_overflow("the data's covariance", cov, total)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:m]
    variances = np.maximum(eigvals[order], 0.0)
    components = eigvecs[:, order].T.copy()
    lead = components[np.arange(m), np.argmax(np.abs(components), axis=1)]
    components[lead < 0] *= -1.0

    if total <= 0.0:
        raise DomainError("data has zero total variance")
    return PcaModel(mean=mean, components=components,
                    explained_variance=variances,
                    explained_ratio=variances / total)


def select_components_kneedle(pca: PcaModel) -> ElbowChoice:
    """Pick a component count at the knee of the log10-variance curve.

    Kneedle on the concave decreasing curve: normalize both axes to [0, 1],
    reflect y so the curve increases, take the difference series y − x, and
    walk it; the knee is the last interior local maximum whose threshold,
    one x step below it, the series later drops below. No smoothing
    is applied (the curve is an eigenvalue spectrum, already monotone). When no
    knee exists the smallest count reaching 70% of the total variance (or,
    when the ratios never get there, every component) is returned with the
    fallback flagged. A basis ``_checked_pca`` rejects raises as it does.
    """
    _checked_pca(pca)
    variance, ratio = map(_as_floats, (pca.explained_variance,
                                       pca.explained_ratio))
    positive = variance[variance > 0]
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

    with np.errstate(over="ignore"):  # an overflow still reaches 70%
        cumulative = np.cumsum(ratio[:k])
    return ElbowChoice(m=_coverage_count(cumulative, 0.70), curve=curve,
                       fallback_used=True)


def _coverage_count(cum_ratio: np.ndarray, threshold: float) -> int:
    """The smallest component count whose cumulative explained-variance
    ratio ``cum_ratio`` reaches ``threshold``, or every component when the
    ratios never get there (a truncated basis)."""
    reached = cum_ratio >= threshold - 1e-12
    return int(np.argmax(reached)) + 1 if reached.any() else cum_ratio.size


# ---------------------------------------------------------------------------
# file format


def save_pca(pca: PcaModel, path) -> None:
    write_json(path, {"format": PCA_FORMAT,
                      **{key: getattr(pca, key).tolist() for key in _FIELDS}})


def load_pca(path) -> PcaModel:
    """Read a projection file; a basis ``_checked_pca`` rejects raises its
    error naming the file, a DomainError as a ConfigError."""
    doc = read_json(path, "projection file")
    if not isinstance(doc, dict) or doc.get("format") != PCA_FORMAT:
        raise ConfigError(f"{path}: not a {PCA_FORMAT} file")
    try:
        pca = PcaModel(**{key: np.asarray(doc[key], dtype=np.float64)
                          for key in _FIELDS})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed projection file ({exc})") from exc
    return _checked_file(_checked_pca, pca, path)
