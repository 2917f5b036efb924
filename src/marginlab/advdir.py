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

from .errors import DomainError, NumericalError
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

    Each row of |transform(x) - transform(x_hat)| is divided by its own
    maximum, so every retained sample contributes the same total weight
    regardless of how far its boundary point lies.
    """
    X = np.atleast_2d(np.asarray(originals, dtype=np.float64))
    Xhat = np.atleast_2d(np.asarray(boundary_points, dtype=np.float64))
    if X.shape != Xhat.shape or X.shape[0] < 1:
        raise DomainError("originals and boundary points must be equal-shape, "
                          "non-empty sample matrices")
    if X.shape[1] != pca.mean.size:
        raise DomainError(f"samples have {X.shape[1]} features but the "
                          f"projection expects {pca.mean.size}")

    B = np.abs((X - Xhat) @ pca.components.T)
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
    """Cumulative perturbation share with 70%/99% variance markers."""
    p = np.asarray(p_share, dtype=np.float64).ravel()
    ratio = np.asarray(explained_ratio, dtype=np.float64).ravel()
    if p.size != ratio.size or p.size == 0:
        raise DomainError("p_share and explained_ratio must be equal-length "
                          "and non-empty")
    cum_ratio = np.cumsum(ratio)
    return CumulativeShare(cumulative=np.cumsum(p),
                           marker_70=_coverage_marker(cum_ratio, 0.70),
                           marker_99=_coverage_marker(cum_ratio, 0.99))
