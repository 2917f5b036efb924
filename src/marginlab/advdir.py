"""Decomposition of boundary-point perturbations along principal directions.

Given original samples and the near-boundary points a margin search found
for them, each perturbation is expressed in principal-component
coordinates, rescaled per sample so its largest component is 1, and the
rescaled mass is summed per component into ``p_share`` — the fraction of
adversarial perturbation attributed to each direction. Prefix sums of that
share, with markers at the components covering 70% and 99% of the data
variance, give the plot-ready cumulative view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, NumericalError, _as_floats, _checked_rows,
                     check_overflow)
from .pca import PcaModel


@dataclass(frozen=True)
class AdvShare:
    """Per-component share of adversarial perturbation over a sample set.

    ``b_adv`` holds one row per retained sample, max-normalized to [0, 1];
    rows whose projected perturbation was identically zero are excluded
    and counted in ``dropped_rows``.
    """

    b_adv: np.ndarray
    p_share: np.ndarray
    dropped_rows: int


def adv_directions(pca: PcaModel, originals: np.ndarray,
                   boundary_points: np.ndarray) -> AdvShare:
    """Share of perturbation mass per principal component.

    Each row of |(x - x_hat) @ components.T| is divided by its own
    maximum, so every retained sample contributes the same total weight
    regardless of how far its boundary point lies. Inputs other than one
    row or a matrix of finite rows raise DomainError; perturbations too
    large for a float raise NumericalError.
    """
    X = np.atleast_2d(_checked_rows(originals))
    Xhat = np.atleast_2d(_checked_rows(boundary_points))
    if X.shape != Xhat.shape or X.shape[0] < 1:
        raise DomainError("originals and boundary points must be equal-shape, "
                          "non-empty sample matrices")
    if X.shape[1] != pca.mean.size:
        raise DomainError(f"samples have {X.shape[1]} features but the "
                          f"projection expects {pca.mean.size}")

    with np.errstate(over="ignore", invalid="ignore"):
        B = np.abs((X - Xhat) @ pca.components.T)
    check_overflow("a projected perturbation", B)
    maxima = B.max(axis=1)
    keep = maxima > 0.0
    dropped = int(np.count_nonzero(~keep))
    if not keep.any():
        raise NumericalError("every projected perturbation is zero; "
                             "no direction shares can be attributed")
    Bn = B[keep] / maxima[keep, None]
    p_share = Bn.sum(axis=0) / Bn.sum()
    return AdvShare(b_adv=Bn, p_share=p_share, dropped_rows=dropped)


@dataclass(frozen=True)
class CumulativeShare:
    """Prefix sums of a component share plus variance-coverage markers.

    Markers are 1-based component counts: the smallest m whose cumulative
    explained-variance ratio reaches the threshold, clamped to the
    component count when the ratios never get there (truncated bases).
    """

    cumulative: np.ndarray
    marker_70: int
    marker_99: int


def _coverage_marker(cum_ratio: np.ndarray, threshold: float) -> int:
    reached = cum_ratio >= threshold - 1e-12
    if not reached.any():
        return int(cum_ratio.size)
    return int(np.argmax(reached)) + 1


def cumulative_share(p_share: np.ndarray,
                     explained_ratio: np.ndarray) -> CumulativeShare:
    """Cumulative perturbation share with 70%/99% variance markers.

    Both inputs must be equal-length, non-empty vectors of finite values,
    else it is a ``DomainError``; a prefix sum that overflows a float is a
    ``NumericalError``.
    """
    p, ratio = (_as_floats(v).ravel() for v in (p_share, explained_ratio))
    if p.size != ratio.size or p.size == 0 \
            or not (np.isfinite(p).all() and np.isfinite(ratio).all()):
        raise DomainError("p_share and explained_ratio must be equal-length, "
                          "non-empty vectors of finite values")
    with np.errstate(over="ignore"):  # the check below names the overflow
        cumulative, cum_ratio = np.cumsum(p), np.cumsum(ratio)
    check_overflow("cumulative share", cumulative, cum_ratio)
    return CumulativeShare(cumulative=cumulative,
                           marker_70=_coverage_marker(cum_ratio, 0.70),
                           marker_99=_coverage_marker(cum_ratio, 0.99))
