"""Margin estimation: one batched engine for linearized bounds and
iterative boundary search.

``search_margins`` measures every row of an activation matrix at layer
``lam``. Every estimate opens with one evaluation: the logits, the
predicted (base) class i, the logit differences o_j = f_i - f_j and their
gradients, optionally projected onto the span of the leading principal
directions, while distance is still measured in the original space. From
it one rule picks each row's nearest linearized boundary, the competitor
minimizing o_j / ||grad o_j||, or finds the row stuck when every gradient
vanishes. Without a ``SearchConfig`` the engine stops there: the
first-order margin (Elsayed et al. 2018) is that distance, the search's
zero-step case. With one it runs the DeepFool-style search
(Moosavi-Dezfooli et al. 2016): each row repeatedly steps toward its
nearest linearized boundary and keeps its best (smallest-violation)
iterate, stopping row by row or, in batch-mean mode, all together when the
mean distance settles. Between iterations the engine keeps only per-row
state: the best iterate with its gap and runner-up class, the current
iterate, the next step, and the gradients at the current iterate with
their ReLU activation pattern and per-class norms. For a ReLU net the
gradients depend only on the base class and that pattern, so each
iteration runs the forward pass on the active rows and backpropagates only
the rows whose pattern changed; the others reuse their gradients, which
are the bits a fresh backprop would give.

The engine returns one ``MarginTable``: a NumPy column per field, so a
caller that writes or averages margins reads whole columns, and
``table[i]`` gives one row as a ``MarginResult`` (None for a closed-form row
without a margin). ``taylor_margin``, ``deepfool_margin`` and the
constrained variants are one-row calls into the engine,
``deepfool_margin_batch`` an all-rows call.
The total-variation helpers normalize hidden-layer margins so that values
from layers of different scale become comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateGradientError,
    DegenerateVarianceError,
    DomainError,
    UnreachableSubspaceError,
)
# forward_batch and logit_diffs_all_batch are imported for the benchmark's
# tracer (bench/tracing.py), which wraps the nnet calls made through here
from .nnet import (
    Network,
    _logit_diff_grads,
    _logit_diffs,
    forward_batch,
    logit_diffs_all_batch,
)
from .pca import PcaModel

_DEGENERATE = 1e-12
_SPAN_TOL = 1e-9
# float64 elements per block in _row_norms: its temporaries stay small
_NORM_BLOCK = 8192


class SearchStatus(str, Enum):
    """Why a boundary search stopped."""

    CONVERGED = "converged"
    VIOLATION_ROSE = "violation-rose"
    MAX_ITERS = "max-iters"
    NO_DESCENT = "no-descent"


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the iterative boundary search.

    ``learning_rate`` scales each step toward the nearest linearized
    boundary; ``stop_tolerance`` is the distance-stabilization threshold.
    ``bounds``, when given as (lower, upper) arrays, clips input-space
    iterates to the data box; hidden-layer searches never clip.
    """

    learning_rate: float = 0.25
    stop_tolerance: float = 0.01
    max_iters: int = 100
    bounds: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise DomainError(f"learning_rate must lie in (0, 1], got "
                              f"{self.learning_rate}")
        if not 0.0 < self.stop_tolerance < np.inf:
            raise DomainError(f"stop_tolerance must be positive and finite, "
                              f"got {self.stop_tolerance}")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")


@dataclass(frozen=True)
class MarginResult:
    """Outcome of one margin estimate.

    ``d_best`` is the distance to the best near-boundary iterate found
    (for the closed-form estimators, the linearized distance itself).
    ``v_best`` is the logit gap |f_i - f_j| at that iterate —
    ``inf`` when no iterate was ever accepted. ``steps`` counts accepted
    updates, in batch mode too. ``trace`` (opt-in) lists (distance,
    violation) per accepted iterate, in order.
    """

    d_best: float
    v_best: float
    class_pair: tuple[int, int]
    steps: int
    status: SearchStatus
    boundary_point: np.ndarray | None = None
    left_subspace: bool = False
    trace: list[tuple[float, float]] | None = None


# a MarginTable's status codes index this tuple
_STATUSES = tuple(SearchStatus)
_CODE = {status: code for code, status in enumerate(_STATUSES)}


@dataclass(frozen=True)
class MarginTable:
    """Margin estimates of ``search_margins``, one row per measured point,
    as NumPy columns.

    ``d_best``, ``v_best``, ``base`` (the predicted class), ``competitor``,
    ``steps`` and ``left_subspace`` are the ``MarginResult`` fields of every
    row; ``status`` holds codes, indices into ``tuple(SearchStatus)``.
    ``boundary`` is the (rows x width) matrix of boundary points, None for
    the closed form. ``stuck`` marks the closed form's rows without a usable
    gradient, which have no margin; their other cells are meaningless.
    ``trace``, when collected, lists (row, distance, violation) per accepted
    iterate, in order.

    ``len(table)`` is the row count and ``table[i]`` row i as a
    ``MarginResult``, or None for a stuck row; iterating yields the rows.
    """

    d_best: np.ndarray
    v_best: np.ndarray
    base: np.ndarray
    competitor: np.ndarray
    steps: np.ndarray
    status: np.ndarray
    left_subspace: np.ndarray
    boundary: np.ndarray | None
    stuck: np.ndarray
    trace: list[tuple[int, float, float]] | None = None

    def __len__(self) -> int:
        return self.d_best.size

    def __getitem__(self, i: int) -> MarginResult | None:
        i = range(len(self))[i]
        if self.stuck[i]:
            return None
        return MarginResult(
            d_best=float(self.d_best[i]), v_best=float(self.v_best[i]),
            class_pair=(int(self.base[i]), int(self.competitor[i])),
            steps=int(self.steps[i]), status=_STATUSES[self.status[i]],
            boundary_point=None if self.boundary is None else self.boundary[i],
            left_subspace=bool(self.left_subspace[i]),
            trace=None if self.trace is None
            else [(d, v) for k, d, v in self.trace if k == i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


# ---------------------------------------------------------------------------
# the engine


def _resolve_bounds(net: Network, lam: int, cfg: SearchConfig):
    """Clipping box for input-space searches; None when nothing applies."""
    if lam != 0:
        return None
    if cfg.bounds is not None:
        lower = np.asarray(cfg.bounds[0], dtype=np.float64)
        upper = np.asarray(cfg.bounds[1], dtype=np.float64)
    elif net.norm_meta is not None:
        lower = np.asarray(net.norm_meta.lower, dtype=np.float64)
        upper = np.asarray(net.norm_meta.upper, dtype=np.float64)
    else:
        return None
    if lower.shape != (net.input_dim,) or upper.shape != (net.input_dim,):
        raise DomainError("clip bounds do not match the input dimension")
    if np.any(lower >= upper):
        raise DomainError("clip bounds require lower < upper everywhere")
    return lower, upper


def _runner_up(logits: np.ndarray, base: np.ndarray) -> np.ndarray:
    masked = logits.copy()
    masked[np.arange(logits.shape[0]), base] = -np.inf
    return np.argmax(masked, axis=1)


def _row_norms(G: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(G, axis=2)``, bit for bit, computed a block of rows
    at a time so that no temporary as large as ``G`` is made."""
    out = np.empty(G.shape[:2])
    rows = max(1, _NORM_BLOCK // max(1, G.shape[1] * G.shape[2]))
    for i in range(0, G.shape[0], rows):
        block = G[i:i + rows]
        np.sqrt(np.add.reduce(block * block, axis=2), out=out[i:i + rows])
    return out


def _activation_pattern(net: Network, lam: int, pres) -> np.ndarray:
    """Which units are on, ``Z > 0``, on every ReLU layer from ``lam`` on:
    the masks the backward pass multiplies by, one row per point."""
    masks = [Z > 0.0 for layer, Z in zip(net.layers[lam:], pres)
             if layer.activation == "relu"]
    if not masks:
        return np.zeros((len(pres[0]), 0), dtype=bool)
    return np.concatenate(masks, axis=1)


class _RowGradients:
    """Per-row state of a search at each row's current iterate: the
    activation pattern, the logit-difference gradients (projected when a
    projector is given) and their per-class norms.

    ``move`` takes rows to the points just evaluated for them and
    backpropagates only the rows whose pattern changed. A row that does not
    move onto its evaluated point is never evaluated again, unless it is a
    stuck row of a batch-mean search, whose step is zero; so the state is
    the current iterate's whenever it is read.
    """

    def __init__(self, net: Network, lam: int, projector, pres,
                 base: np.ndarray):
        self.net, self.lam, self.projector = net, lam, projector
        self.pattern = _activation_pattern(net, lam, pres)
        self.grads, self.norms = self._backprop(pres, base)

    def _backprop(self, pres, base):
        G = _logit_diff_grads(self.net, self.lam, pres, base)
        if self.projector is not None:
            G = G @ self.projector.T
        return G, _row_norms(G)

    def move(self, rows: np.ndarray, pres, base: np.ndarray) -> None:
        """Take ``rows`` to the points whose pre-activations are ``pres``."""
        pattern = _activation_pattern(self.net, self.lam, pres)
        changed = np.any(pattern != self.pattern[rows], axis=1)
        if changed.any():
            k = rows[changed]
            self.pattern[k] = pattern[changed]
            self.grads[k], self.norms[k] = self._backprop(
                [Z[changed] for Z in pres], base[changed])


def _nearest_boundary(o, base, norms):
    """Each row's nearest linearized boundary: the competitor j minimizing
    |o_j| / ||grad o_j||, that distance, and whether the row is stuck, with
    no competitor whose gradient norm reaches ``_DEGENERATE``."""
    r = np.arange(o.shape[0])
    ratios = np.where(norms < _DEGENERATE, np.inf,
                      np.abs(o) / np.maximum(norms, _DEGENERATE))
    ratios[r, base] = np.inf
    j = np.argmin(ratios, axis=1)
    dist = ratios[r, j]
    return j, dist, np.isinf(dist)


def _next_step(o, base, grads: _RowGradients, rows, rate: float):
    """Step toward each row's nearest linearized boundary, and the rows
    with no usable descent direction (their step is zero). ``o`` holds the
    logit differences of ``rows``, whose gradients ``grads`` holds.

    With a projector P (rows orthonormal), the gradients are projected
    before norms are taken, so both the nearest-boundary choice and the
    step length are made inside the subspace. Steps use the signed gap,
    which lets a search walk back after overshooting, unless a projector is
    given; then they use its magnitude.
    """
    r = np.arange(o.shape[0])
    projector = grads.projector
    norms = grads.norms[rows]
    j, _, stuck = _nearest_boundary(o, base, norms)
    gap = o[r, j] if projector is None else np.abs(o[r, j])
    coef = np.divide(gap, norms[r, j] ** 2, out=np.zeros_like(gap),
                     where=~stuck)
    direction = grads.grads[rows, j]
    if projector is not None:
        direction = direction @ projector
    return (rate * coef)[:, None] * direction, stuck


def search_margins(net: Network, lam: int, X: np.ndarray,
                   cfg: SearchConfig | None = None,
                   pca: PcaModel | None = None, m: int | None = None, *,
                   batch_mean: bool = False,
                   collect_trace: bool = False) -> MarginTable:
    """One margin estimate per row of ``X`` (activations at layer ``lam``),
    measured from each row's predicted class, as a ``MarginTable``; an
    input without rows gives an empty table.

    Without ``cfg``, the closed-form first-order margin: the opening
    evaluation's nearest-boundary distance o_j / ||grad o_j||, the target
    of the search's first step. Competitors whose gradient vanishes are
    skipped; a row left with none is stuck, and ``table[i]`` is None.

    With ``cfg``, the iterative boundary search. By default each row stops
    on its own: its violation rose, its distance settled, it hit
    ``max_iters`` or it has no descent direction (``NO_DESCENT``, where a
    stuck row stops at once). With ``batch_mean`` the whole batch stops
    once the mean distance over all rows settles, and each status reports
    how that row stood then.

    ``pca`` and ``m`` restrict the perturbation to the top-``m`` principal
    directions (input space only); distance is still measured in the
    original space.

    The search keeps each row's (projected) gradients, their per-class
    norms and the activation pattern ``Z > 0`` of every ReLU layer from
    ``lam`` on, for the row's current iterate. An iteration backpropagates
    only the rows whose pattern changed. The reuse is exact: a row's
    gradients depend on nothing else, and the backward pass computes each
    row on its own, so a subset of rows gets the bits of the full batch.
    Above the last hidden layer no ReLU can switch, and a hidden-layer
    search there backpropagates once.
    """
    X0 = np.atleast_2d(np.asarray(X, dtype=np.float64))
    s = X0.shape[0]
    projector = None
    if pca is not None:
        if lam != 0:
            raise DomainError("subspace-constrained margins are measured in "
                              "input space only")
        if not 1 <= m <= pca.components.shape[0]:
            raise DomainError(f"m={m} outside [1, {pca.components.shape[0]}]")
        projector = pca.components[:m]

    o, logits, pres, base = _logit_diffs(net, lam, X0)
    grads = _RowGradients(net, lam, projector, pres, base)

    if cfg is None:
        j, dist, stuck = _nearest_boundary(o, base, grads.norms)
        return MarginTable(
            d_best=dist, v_best=np.abs(o[np.arange(s), j]), base=base,
            competitor=j, steps=np.zeros(s, dtype=np.int64),
            status=np.full(s, _CODE[SearchStatus.CONVERGED], dtype=np.int8),
            left_subspace=np.zeros(s, dtype=bool), boundary=None,
            stuck=stuck)

    pair = _runner_up(logits, base)
    bounds = _resolve_bounds(net, lam, cfg)
    rows = np.arange(s)
    step, stuck = _next_step(o, base, grads, rows, cfg.learning_rate)
    d_best = np.zeros(s)
    v_best = np.full(s, np.inf)
    boundary = X0.copy()
    steps = np.zeros(s, dtype=np.int64)
    status = np.full(s, _CODE[SearchStatus.NO_DESCENT], dtype=np.int8)
    active = np.ones(s, dtype=bool)
    Xhat = X0.copy()
    d_cur = np.zeros(s)
    mean_prev = 0.0
    iters = 0
    trace = [] if collect_trace else None

    while True:
        active &= ~stuck  # rows without a descent direction keep NO_DESCENT
        if not active.any():
            break
        # batch-mean mode evaluates every row, stuck ones in place, so the
        # matrix shapes, and with them the rounding, do not depend on which
        # rows got stuck
        a = rows if batch_mean else np.flatnonzero(active)
        Xp = Xhat[a] - step[a]
        if bounds is not None:
            np.clip(Xp, bounds[0], bounds[1], out=Xp)
        o, logits, pres, _ = _logit_diffs(net, lam, Xp, base[a])
        grads.move(a, pres, base[a])
        next_step, next_stuck = _next_step(o, base[a], grads, a,
                                           cfg.learning_rate)
        runner = _runner_up(logits, base[a])
        v = np.abs(o[np.arange(a.size), runner])
        d = np.linalg.norm(X0[a] - Xp, axis=1)
        iters += 1

        if batch_mean:  # every active row moves and keeps its best iterate
            moved = active.copy()
            kept = moved & (v < v_best)
        else:  # a row moves only onto an iterate it keeps
            rose = v >= v_best[a]
            settled = ~rose & (np.abs(d - d_best[a]) < cfg.stop_tolerance)
            status[a[rose]] = _CODE[SearchStatus.VIOLATION_ROSE]
            status[a[settled]] = _CODE[SearchStatus.CONVERGED]
            moved = kept = ~(rose | settled)
        k = a[kept]
        d_best[k], v_best[k], boundary[k], pair[k] = (
            d[kept], v[kept], Xp[kept], runner[kept])
        steps[k] += 1
        if trace is not None:
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
                status[active] = _CODE[SearchStatus.CONVERGED if settled
                                       else SearchStatus.MAX_ITERS]
                break
        else:
            done = mv[steps[mv] >= cfg.max_iters]
            status[done] = _CODE[SearchStatus.MAX_ITERS]
            active[done] = False

    if projector is not None:
        P = boundary - X0
        left = np.linalg.norm(P - (P @ projector.T) @ projector,
                              axis=1) > _SPAN_TOL
    else:
        left = np.zeros(s, dtype=bool)
    return MarginTable(d_best=d_best, v_best=v_best, base=base,
                       competitor=pair, steps=steps, status=status,
                       left_subspace=left, boundary=boundary,
                       stuck=np.zeros(s, dtype=bool), trace=trace)


# ---------------------------------------------------------------------------
# single-sample and batch entry points


def taylor_margin(net: Network, lam: int,
                  x_lam: np.ndarray) -> MarginResult:
    """First-order margin (f_i - f_j) / ||grad(f_i - f_j)|| at one point:
    the distance to the nearest linearized boundary, from the predicted
    class i over every competitor j, which is where the search's first step
    aims. Competitor pairs whose gradient difference vanishes cannot be
    reached by a first-order step and are skipped; if every competitor is
    degenerate this raises DegenerateGradientError.
    """
    result = search_margins(net, lam, np.reshape(x_lam, (1, -1)))[0]
    if result is None:
        raise DegenerateGradientError(
            "every candidate logit-difference gradient vanishes at this point")
    return result


def constrained_taylor_margin(net: Network, x: np.ndarray, pca: PcaModel,
                              m: int) -> MarginResult:
    """First-order margin with the perturbation restricted to the span of
    the top ``m`` principal directions; distance is measured in the
    original input space. If no competitor's gradient has a component
    inside the subspace, the boundary is unreachable there and
    UnreachableSubspaceError is raised.
    """
    result = search_margins(net, 0, np.reshape(x, (1, -1)), pca=pca, m=m)[0]
    if result is None:
        raise UnreachableSubspaceError(
            f"no decision boundary is reachable within the top-{m} subspace")
    return result


def deepfool_margin(net: Network, lam: int, activ: np.ndarray,
                    cfg: SearchConfig,
                    collect_trace: bool = False) -> MarginResult:
    """Iterative boundary search from one activation vector at layer ``lam``.

    Steps use the signed logit gap, which lets the search walk back after
    overshooting the boundary.
    """
    return search_margins(net, lam, np.reshape(activ, (1, -1)), cfg,
                          collect_trace=collect_trace)[0]


def deepfool_margin_batch(net: Network, lam: int, samples: np.ndarray,
                          cfg: SearchConfig) -> list[MarginResult]:
    """Batched boundary search; one result per row of ``samples``.

    Unlike the single-sample mode, the only stopping rule is stabilization
    of the mean distance across the batch, so per-sample statuses report
    how each row stood when the batch stopped. Each result carries the
    smallest-violation iterate that row ever visited, and ``steps`` counts
    the updates that improved it.
    """
    if len(samples) < 1:
        raise DomainError("margin search needs at least one sample")
    return list(search_margins(net, lam, samples, cfg, batch_mean=True))


def constrained_deepfool_margin(net: Network, x: np.ndarray, pca: PcaModel,
                                m: int, cfg: SearchConfig,
                                collect_trace: bool = False) -> MarginResult:
    """Boundary search restricted to the span of the top ``m`` principal
    directions (input space only); distance is measured in the original
    space. Steps use the magnitude of the logit gap. When clipping to the
    data box pushes the returned iterate off the subspace, the result's
    ``left_subspace`` flag records it.
    """
    return search_margins(net, 0, np.reshape(x, (1, -1)), cfg, pca, m,
                          collect_trace=collect_trace)[0]


# ---------------------------------------------------------------------------
# total-variation normalization


def compute_total_variation(acts: np.ndarray) -> float:
    """sqrt of the summed per-feature population variance of ``acts``."""
    A = np.atleast_2d(np.asarray(acts, dtype=np.float64))
    if A.shape[0] < 2:
        raise DomainError("total variation needs at least two samples")
    return float(np.sqrt(np.var(A, axis=0).sum()))


def tv_normalize(margins: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """Divide margins by the total variation of the activations they were
    measured at; raises DegenerateVarianceError when that scale vanishes."""
    tv = compute_total_variation(acts)
    if tv < _DEGENERATE:
        raise DegenerateVarianceError(
            "activation total variation is numerically zero")
    return np.asarray(margins, dtype=np.float64) / tv
