"""Datasets: synthetic blob generation, corruption, normalization, file I/O.

A :class:`Dataset` is a plain value: a feature matrix with integer labels,
per-feature domain bounds, and a per-sample corruption flag. Every operation
returns a new dataset; nothing mutates its input.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from ._atomic import write_file
from ._csvio import csv_text, read_numeric_csv
from .errors import (
    ConfigError,
    DomainError,
    _as_floats,
    _check_reals,
    _checked_rows,
    _is_finite_real,
    check_integers,
    check_overflow,
    check_seed,
)

_MAGIC = b"MWDS"
_BIN_VERSION = 1


class SampleFlag(IntEnum):
    CLEAN = 0
    LABEL_CORRUPTED = 1
    INPUT_CORRUPTED = 2


@dataclass
class Dataset:
    """Feature matrix (s, n), labels (s,), per-feature bounds, per-sample flags."""

    features: np.ndarray
    labels: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    corrupt_flags: np.ndarray
    class_count: int

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class NormalizationMeta:
    """How a dataset was normalized, plus the bounds in normalized space.

    ``x_normalized = (x - offsets) / scales``; the inverse is exact to float
    round-off. ``lower``/``upper`` are the dataset bounds pushed through the
    same map and are the clip domain for input-space boundary searches.
    """

    scheme: str
    offsets: np.ndarray
    scales: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class CorruptionReport:
    fraction_requested: float
    indices_corrupted: np.ndarray
    seed: int
    mode: str


@dataclass(frozen=True)
class BlobConfig:
    """Blob-generation settings, range-checked when built."""

    classes: int
    samples_per_class: int
    dim: int
    spread: float
    seed: int
    centers: np.ndarray | None = None

    def __post_init__(self):
        check_integers(classes=self.classes,
                       samples_per_class=self.samples_per_class, dim=self.dim)
        check_seed(self.seed)
        if self.classes < 2:
            raise DomainError("blob generation needs at least 2 classes")
        if self.samples_per_class < 1:
            raise DomainError("samples_per_class must be >= 1")
        if self.dim < 2:
            raise DomainError("dim must be >= 2")
        _check_reals(spread=self.spread)
        if not self.spread > 0:
            raise DomainError("spread must be positive")
        if self.centers is not None:
            shape = _checked_rows(self.centers).shape
            if shape != (self.classes, self.dim):
                raise DomainError(f"centers shape {shape} does not match "
                                  f"({self.classes}, {self.dim})")


def _expanded_bounds(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observed min/max per feature, widened by 1% of the range per side.

    Zero-range features get an absolute 0.01 pad. A range too wide for a
    float is padded by 1% of each end instead. A bound whose pad is lost to
    rounding (a constant 1e20, say) moves to the adjacent float. The bounds
    are clamped to the largest finite float, so they stay finite, and every
    feature gets lower < upper.
    """
    lo = features.min(axis=0)
    hi = features.max(axis=0)
    limit = np.finfo(np.float64).max
    with np.errstate(over="ignore"):  # the clamps below handle overflow
        span = hi - lo
        pad = np.where(np.isfinite(span),
                       0.01 * np.where(span > 0, span, 1.0),
                       0.01 * hi - 0.01 * lo)
        lower, upper = lo - pad, hi + pad
        lower = np.where(lower == lo, np.nextafter(lo, -np.inf), lower)
        upper = np.where(upper == hi, np.nextafter(hi, np.inf), upper)
    return np.maximum(lower, -limit), np.minimum(upper, limit)


def gen_blobs(config: BlobConfig) -> Dataset:
    """Sample isotropic Gaussian blobs, one per class, deterministically."""
    rng = np.random.default_rng(config.seed)
    centers = (rng.uniform(-10.0, 10.0, size=(config.classes, config.dim))
               if config.centers is None else _as_floats(config.centers))

    # one draw fills the classes' blocks in order, as a draw per class would
    n = config.samples_per_class
    features = np.repeat(centers, n, axis=0) + rng.normal(
        0.0, config.spread, size=(config.classes * n, config.dim))
    labels = np.repeat(np.arange(config.classes, dtype=np.int64), n)
    return Dataset(features, labels, *_expanded_bounds(features),
                   np.zeros(len(labels), dtype=np.int64), config.classes)


def _corruption_indices(sample_count: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    if not (_is_finite_real(fraction) and 0.0 <= fraction <= 1.0):
        raise DomainError(f"corruption fraction must be a number in [0, 1], "
                          f"got {fraction!r}")
    # round half up: 2.5 -> 3
    count = int(np.floor(fraction * sample_count + 0.5))
    return np.sort(rng.choice(sample_count, size=count, replace=False))


def corrupt_labels(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, CorruptionReport]:
    """Reassign a uniformly chosen *different* label on round(fraction*s) samples."""
    check_seed(seed)
    if ds.class_count < 2:
        raise DomainError("label corruption needs at least 2 classes")
    rng = np.random.default_rng(seed)
    indices = _corruption_indices(ds.sample_count, fraction, rng)

    labels = ds.labels.copy()
    flags = ds.corrupt_flags.copy()
    for i in indices:
        # uniform over the class_count-1 labels that differ from the current one
        draw = int(rng.integers(0, ds.class_count - 1))
        labels[i] = draw if draw < labels[i] else draw + 1
    flags[indices] = SampleFlag.LABEL_CORRUPTED

    out = Dataset(ds.features.copy(), labels, ds.lower.copy(), ds.upper.copy(),
                  flags, ds.class_count)
    return out, CorruptionReport(fraction, indices, seed, mode="label")


def corrupt_inputs_gaussian(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, CorruptionReport]:
    """Replace chosen samples with Gaussian noise fit to each sample's own features.

    Every feature of a chosen sample is redrawn from N(mean(x), std(x)) where
    the statistics are over that sample's feature vector (population std). A
    zero-std sample is reproduced exactly. Results are clipped to the dataset
    bounds. A mean or std that overflows raises NumericalError.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    indices = _corruption_indices(ds.sample_count, fraction, rng)

    features = ds.features.copy()
    flags = ds.corrupt_flags.copy()
    n = ds.feature_count
    for i in indices:
        x = ds.features[i]
        with np.errstate(over="ignore", invalid="ignore"):
            mu = float(x.mean())
            sigma = float(x.std())
        check_overflow(f"sample {i}'s feature mean or spread", mu, sigma)
        if sigma == 0.0:
            continue  # redrawing from N(mu, 0) reproduces the sample exactly
        noise = rng.normal(mu, sigma, size=n)
        features[i] = np.clip(noise, ds.lower, ds.upper)
    flags[indices] = SampleFlag.INPUT_CORRUPTED

    out = Dataset(features, ds.labels.copy(), ds.lower.copy(), ds.upper.copy(),
                  flags, ds.class_count)
    return out, CorruptionReport(fraction, indices, seed, mode="gaussian")


def max_margin(ds: Dataset) -> np.ndarray:
    """Exact distance from each sample to its nearest different-class sample.
    Features must be one row or a matrix of finite rows, with one label per
    row, else DomainError; a distance that overflows a float is a
    NumericalError."""
    X = np.atleast_2d(_checked_rows(ds.features))
    if np.shape(ds.labels) != (len(X),):
        raise DomainError(f"{np.size(ds.labels)} labels for {len(X)} "
                          f"samples")
    present = np.unique(ds.labels)
    if present.size < 2:
        raise DomainError("max margin is undefined with a single class present")
    out = np.empty(len(X), dtype=np.float64)
    with np.errstate(over="ignore"):
        for i in range(len(X)):
            mask = ds.labels != ds.labels[i]
            diff = X[mask] - X[i]
            out[i] = np.sqrt(np.min(np.einsum("ij,ij->i", diff, diff)))
    check_overflow("a nearest-other-class distance", out)
    return out


NORMALIZE_SCHEMES = ("znorm", "minmax", "none")


def normalize(ds: Dataset,
              scheme: str) -> tuple[Dataset, NormalizationMeta | None]:
    """Normalize features per the scheme and return the dataset plus its meta.

    znorm: per-feature zero mean, unit (population) std; zero-variance features
    keep scale 1. minmax: observed range mapped onto [0, 1]; constant features
    map to 0. The dataset bounds are pushed through the same affine map.
    none: ``ds`` itself and no meta. Other schemes need finite features
    (DomainError); an overflow raises NumericalError.
    """
    if scheme == "none":
        return ds, None
    X = _checked_rows(ds.features)
    if X.ndim != 2 or not len(X):
        raise DomainError("normalization needs at least one row of features")
    with np.errstate(over="ignore", invalid="ignore"):
        if scheme == "znorm":
            offsets = X.mean(axis=0)
            scales = X.std(axis=0)
            scales = np.where(scales == 0.0, 1.0, scales)
        elif scheme == "minmax":
            offsets = X.min(axis=0)
            span = X.max(axis=0) - offsets
            scales = np.where(span > 0.0, span, 1.0)
        else:
            raise DomainError(f"unknown normalization scheme: {scheme!r}")
        features = (X - offsets) / scales
        lower = (ds.lower - offsets) / scales
        upper = (ds.upper - offsets) / scales
    check_overflow(f"{scheme} normalization", offsets, scales, lower, upper,
                   features)
    meta = NormalizationMeta(scheme=scheme, offsets=offsets, scales=scales,
                             lower=lower, upper=upper)
    out = Dataset(features, ds.labels.copy(), lower, upper,
                  ds.corrupt_flags.copy(), ds.class_count)
    return out, meta


def apply_normalization(features: np.ndarray,
                        meta: NormalizationMeta | None) -> np.ndarray:
    """Map raw features into the normalized space described by ``meta``;
    None, a model without normalization, leaves them as they are. A
    feature the map overflows raises NumericalError."""
    if meta is None:
        return features
    with np.errstate(over="ignore", invalid="ignore"):
        out = (np.asarray(features) - meta.offsets) / meta.scales
    check_overflow("a normalized feature", out)
    return out


# corruption mode -> corrupter, as ``mw corrupt --mode`` and the sweep's
# ``corruptions`` name them
CORRUPTERS = {"label": corrupt_labels, "input": corrupt_inputs_gaussian}


# ---------------------------------------------------------------------------
# file formats


def _check_finite(features: np.ndarray, path) -> None:
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path}: {bad.size} sample(s) hold non-finite "
                          f"features (first: sample {bad[0]})")


def save_dataset_bin(ds: Dataset, path) -> None:
    """Write the MWDS binary layout (f32 features, u32 labels, little-endian).

    Features that are not finite once stored as f32 raise ConfigError, as
    the loader would, before the file is opened.
    """
    with np.errstate(over="ignore"):  # the check below names the overflow
        features = np.ascontiguousarray(ds.features, dtype="<f4")
    _check_finite(features, path)
    write_file(path, b"".join((
        _MAGIC, struct.pack("<IQQI", _BIN_VERSION, ds.sample_count,
                            ds.feature_count, ds.class_count),
        features.tobytes(),
        np.ascontiguousarray(ds.labels, dtype="<u4").tobytes())))


def load_dataset_bin(path) -> Dataset:
    """Read the MWDS layout. Bounds are recomputed; flags reset to clean."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 + 24 or raw[:4] != _MAGIC:
        raise ConfigError(f"{path}: not an MWDS dataset file")
    version, s, n, class_count = struct.unpack_from("<IQQI", raw, 4)
    if version != _BIN_VERSION:
        raise ConfigError(f"{path}: unsupported MWDS version {version}")
    offset = 4 + 24
    need = offset + s * n * 4 + s * 4
    if len(raw) != need:
        raise ConfigError(f"{path}: truncated or oversized MWDS payload")
    features = np.frombuffer(raw, dtype="<f4", count=s * n, offset=offset)
    features = features.reshape(s, n).astype(np.float64)
    _check_finite(features, path)
    labels = np.frombuffer(raw, dtype="<u4", count=s, offset=offset + s * n * 4)
    labels = labels.astype(np.int64)
    if class_count < 2:
        raise ConfigError(f"{path}: class_count must be >= 2")
    if labels.size and labels.max() >= class_count:
        raise ConfigError(f"{path}: label exceeds class_count")
    lower, upper = _expanded_bounds(features)
    return Dataset(features, labels, lower, upper,
                   np.zeros(s, dtype=np.int64), int(class_count))


def save_dataset_csv(ds: Dataset, path) -> None:
    """Write the CSV layout; non-finite features raise ConfigError, as the
    loader would, before the file is opened."""
    features = np.asarray(ds.features, dtype=np.float64)
    _check_finite(features, path)
    write_file(path, csv_text(
        [f"f{j}" for j in range(ds.feature_count)] + ["label"],
        [*features.T, np.asarray(ds.labels, dtype=np.int64)]))


def load_dataset_csv(path) -> Dataset:
    """Last column is the label, a non-negative integer written as a number
    (``1`` or ``1.0``); the file grammar is :func:`read_numeric_csv`'s."""
    _, values = read_numeric_csv(path)
    if not len(values):
        raise ConfigError(f"{path}: CSV has a header but no data rows")
    if values.shape[1] < 2:
        raise ConfigError(f"{path}: need at least one feature column")
    features = np.ascontiguousarray(values[:, :-1])
    _check_finite(features, path)
    y = values[:, -1]
    bad = np.flatnonzero(~((y >= 0) & (y < 2.0 ** 63) & (y == np.floor(y))))
    if bad.size:
        raise ConfigError(f"{path}: data row {bad[0] + 1}: label "
                          f"{y[bad[0]].item()!r} is not a non-negative "
                          f"integer")
    labels = y.astype(np.int64)
    class_count = int(labels.max()) + 1
    if class_count < 2:
        raise ConfigError(f"{path}: need at least 2 classes")
    lower, upper = _expanded_bounds(features)
    return Dataset(features, labels, lower, upper,
                   np.zeros(len(labels), dtype=np.int64), class_count)


def load_dataset(path) -> Dataset:
    """A ``.csv`` path is read as CSV, any other as MWDS."""
    if str(path).endswith(".csv"):
        return load_dataset_csv(path)
    return load_dataset_bin(path)


def save_dataset(ds: Dataset, path) -> None:
    """A ``.csv`` path is written as CSV, any other as MWDS."""
    if str(path).endswith(".csv"):
        save_dataset_csv(ds, path)
    else:
        save_dataset_bin(ds, path)
