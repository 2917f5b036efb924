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
mean distance settles. ``search_margins`` says what state it keeps between
iterations and which rows it backpropagates.

The engine returns one ``MarginTable``: a NumPy column per field, so a
caller that writes or averages margins reads whole columns. It is the only
margin entry point; one sample is a one-row call.
The total-variation helpers normalize hidden-layer margins so that values
from layers of different scale become comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .data import apply_normalization
from .errors import (
    DegenerateVarianceError,
    DomainError,
    NumericalError,
    _as_floats,
    _check_reals,
    _checked_rows,
    check_integers,
    check_overflow,
)
# the benchmark's tracer (bench/tracing.py) wraps the nnet calls made
# through here; logit_diffs_all_batch is imported for it alone
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
        check_integers(max_iters=self.max_iters)
        _check_reals(learning_rate=self.learning_rate,
                     stop_tolerance=self.stop_tolerance)
        if not 0.0 < self.learning_rate <= 1.0:
            raise DomainError(f"learning_rate must lie in (0, 1], got "
                              f"{self.learning_rate}")
        if not self.stop_tolerance > 0.0:
            raise DomainError(f"stop_tolerance must be positive, got "
                              f"{self.stop_tolerance}")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")


# a MarginTable's status codes index tuple(SearchStatus)
_CODE = {status: code for code, status in enumerate(SearchStatus)}


@dataclass(frozen=True)
class MarginTable:
    """Margin estimates of ``search_margins``, one row per measured point,
    as NumPy columns.

    ``d_best`` is the distance to the best near-boundary iterate found (for
    the closed form, the linearized distance itself) and ``v_best`` the
    logit gap |f_i - f_j| there, ``inf`` when no iterate was ever accepted.
    ``base`` is the predicted class i and ``competitor`` the class j.
    ``steps`` counts accepted updates, in batch mode too. ``status`` holds
    codes, indices into ``tuple(SearchStatus)``. ``left_subspace`` flags a
    constrained row whose boundary point clipping pushed off the subspace.
    ``boundary`` is the (rows x width) matrix of boundary points, None for
    the closed form. ``stuck`` marks the closed form's rows without a usable
    gradient, which have no margin; their other cells are meaningless.
    ``trace``, when collected, lists (row, distance, violation) per accepted
    iterate, in order.
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


# ---------------------------------------------------------------------------
# the engine


def _resolve_bounds(net: Network, lam: int, cfg: SearchConfig):
    """Clip box of input-space searches, rows lower and upper; or None."""
    if lam != 0:
        return None
    if cfg.bounds is not None:
        box = cfg.bounds
    elif net.norm_meta is not None:
        box = net.norm_meta.lower, net.norm_meta.upper
    else:
        return None
    bounds = _as_floats(box)
    if bounds.shape != (2, net.input_dim):
        raise DomainError("clip bounds do not match the input dimension")
    if np.any(bounds[0] >= bounds[1]):
        raise DomainError("clip bounds require lower < upper everywhere")
    return bounds


def _runner_up(logits: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Each row's highest logit other than its base class; masks
    ``logits`` in place, so it must be their last reader."""
    logits[np.arange(logits.shape[0]), base] = -np.inf
    return np.argmax(logits, axis=1)


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
    the masks the backward pass multiplies by, one row per point, packed
    into uint64 words (the units padded with off ones to a multiple of 64),
    so that comparing two patterns reads one word per 64 units."""
    masks = [Z > 0.0 for layer, Z in zip(net.layers[lam:], pres)
             if layer.activation == "relu"]
    s = len(pres[0])
    pad = -sum(mask.shape[1] for mask in masks) % 64
    if pad:
        masks.append(np.zeros((s, pad), dtype=bool))
    if not masks:
        return np.zeros((s, 0), dtype=np.uint64)
    units = masks[0] if len(masks) == 1 else np.concatenate(masks, axis=1)
    return np.packbits(units, axis=1).view(np.uint64)


class _RowGradients:
    """Per-row state of a search at each row's current iterate: the
    activation pattern, the logit-difference gradients (projected when a
    projector is given) and their per-class norms.

    ``move`` takes rows to the points just evaluated for them and
    backpropagates only the rows whose pattern changed. A row that does not
    move onto its evaluated point is never evaluated again, unless it is a
    stuck row of a batch-mean search, whose step is zero; so the state is
    the current iterate's whenever it is read.

    The state is keyed by the original row and never compacted: ``move``
    and ``_next_step`` take the rows evaluated, or None for every row, and
    read only their entries, so rows that stop searching cost no copy of
    the gradient tensor. Rows are read with ``take``, which copies them
    several times faster than fancy indexing does.
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

    def move(self, rows, pres, base: np.ndarray) -> None:
        """Take ``rows`` (None: every row) to the points whose
        pre-activations are ``pres``."""
        if not self.pattern.shape[1]:
            return  # no ReLU from lam on: no row's gradients can change
        pattern = _activation_pattern(self.net, self.lam, pres)
        held = self.pattern if rows is None else self.pattern.take(rows, 0)
        changed = np.flatnonzero(np.any(pattern != held, axis=1))
        if changed.size:
            k = changed if rows is None else rows[changed]
            self.pattern[k] = pattern[changed]
            self.grads[k], self.norms[k] = self._backprop(
                [Z.take(changed, 0) for Z in pres], base[changed])


def _nearest_boundary(o, base, norms):
    """Each row's nearest linearized boundary: the competitor j minimizing
    |o_j| / ||grad o_j||, that distance, and whether the row is stuck, with
    no competitor whose gradient norm reaches ``_DEGENERATE``. A distance
    that overflows, a finite gap over such a norm, is a NumericalError."""
    r = np.arange(o.shape[0])
    usable = norms >= _DEGENERATE
    ratios = np.where(usable, np.abs(o) / np.maximum(norms, _DEGENERATE),
                      np.inf)
    ratios[r, base] = np.inf
    j = np.argmin(ratios, axis=1)
    dist = ratios[r, j]
    stuck = np.isinf(dist)
    rows = np.flatnonzero(stuck)
    if rows.size:
        usable = usable.take(rows, 0)
        usable[np.arange(rows.size), base.take(rows)] = False
        if usable.any():
            raise NumericalError("a linearized boundary distance overflows")
    return j, dist, stuck


def _next_step(o, base, grads: _RowGradients, rows, rate: float):
    """Step toward each row's nearest linearized boundary, and the rows
    with no usable descent direction (their step is zero). ``o`` holds the
    logit differences of ``rows`` (None: every row), whose gradients
    ``grads`` holds.

    With a projector P (rows orthonormal), the gradients are projected
    before norms are taken, so both the nearest-boundary choice and the
    step length are made inside the subspace. Steps use the signed gap,
    which lets a search walk back after overshooting, unless a projector is
    given; then they use its magnitude.
    """
    r = np.arange(o.shape[0])
    projector = grads.projector
    norms = grads.norms if rows is None else grads.norms.take(rows, 0)
    j, _, stuck = _nearest_boundary(o, base, norms)
    gap = o[r, j] if projector is None else np.abs(o[r, j])
    coef = np.divide(gap, norms[r, j] ** 2, out=np.zeros_like(gap),
                     where=~stuck)
    _, c, width = grads.grads.shape
    direction = grads.grads.reshape(-1, width).take(
        (r if rows is None else rows) * c + j, 0)
    if projector is not None:
        direction = direction @ projector
    direction *= (rate * coef)[:, None]  # a gathered copy, ours to scale
    return direction, stuck


@np.errstate(over="ignore", invalid="ignore")  # check_overflow names it
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
    skipped; a row left with none is stuck (``table.stuck``): no competitor
    is reachable, or none inside the subspace of a constrained search.

    With ``cfg``, the iterative boundary search. By default each row stops
    on its own: its violation rose, its distance settled, it hit
    ``max_iters`` or it has no descent direction (``NO_DESCENT``, where a
    stuck row stops at once). With ``batch_mean`` the whole batch stops
    once the mean distance over all rows settles, and each status reports
    how that row stood then.

    ``X`` must be one row or a matrix of rows of finite values; anything
    else is a ``DomainError``. A logit gap, gradient norm or distance that
    overflows is a ``NumericalError``.

    ``pca`` and ``m`` restrict the perturbation to the top-``m`` principal
    directions (input space only); distance is still measured in the
    original space. ``m`` without ``pca`` is a ``DomainError``, and so is a
    basis whose width is not that of ``X``.

    The search keeps each row's (projected) gradients, their per-class
    norms and the activation pattern ``Z > 0`` of every ReLU layer from
    ``lam`` on, for the row's current iterate. An iteration backpropagates
    only the rows whose pattern changed. The reuse is exact: a row's
    gradients depend on nothing else, and the backward pass computes each
    row on its own, so a subset of rows gets the bits of the full batch.
    Above the last hidden layer no ReLU can switch, and a hidden-layer
    search there backpropagates once.

    In the per-row mode the iterate state holds only the rows still
    searching, compact and in row order, so each iteration steps them with
    whole-array arithmetic and the forward pass sees the rows it always
    did, in the same order. A row is written into the table when it stops:
    with its last kept iterate when its violation rose or its distance
    settled, with the iterate it just kept at ``max_iters`` or when it has
    no descent direction from there. The batch-mean mode evaluates every
    row on every iteration and reads whole arrays.
    """
    X0 = np.atleast_2d(_checked_rows(X))
    s = X0.shape[0]
    projector = None
    if pca is not None:
        if lam != 0:
            raise DomainError("subspace-constrained margins are measured in "
                              "input space only")
        k, width = pca.components.shape
        if width != X0.shape[1]:
            raise DomainError(f"the pca basis spans {width} features, the "
                              f"rows of X hold {X0.shape[1]}")
        if (isinstance(m, bool) or not isinstance(m, (int, np.integer))
                or not 1 <= m <= k):
            raise DomainError(f"m={m!r} must be an integer in [1, {k}]")
        projector = pca.components[:m]
    elif m is not None:
        raise DomainError(f"m={m!r} restricts the search to a subspace, "
                          f"which needs a pca basis")

    o, logits, pres, base = _logit_diffs(net, lam, X0)
    grads = _RowGradients(net, lam, projector, pres, base)
    del pres  # the search's own evaluations make theirs
    check_overflow("a logit gap or gradient norm", o, grads.norms)

    if cfg is None:
        j, dist, stuck = _nearest_boundary(o, base, grads.norms)
        return MarginTable(
            d_best=dist, v_best=np.abs(o[np.arange(s), j]), base=base,
            competitor=j, steps=np.zeros(s, dtype=np.int64),
            status=np.full(s, _CODE[SearchStatus.CONVERGED], dtype=np.int8),
            left_subspace=np.zeros(s, dtype=bool), boundary=None,
            stuck=stuck)

    bounds = _resolve_bounds(net, lam, cfg)
    step, stuck = _next_step(o, base, grads, None, cfg.learning_rate)
    # the output columns; a row stuck before its first step keeps these
    d_best = np.zeros(s)
    v_best = np.full(s, np.inf)
    boundary = X0.copy()
    pair = _runner_up(logits, base)
    steps = np.zeros(s, dtype=np.int64)
    status = np.full(s, _CODE[SearchStatus.NO_DESCENT], dtype=np.int8)
    trace = [] if collect_trace else None

    def advance(Xhat, step, x0, b, rows):
        """Evaluate the next iterate ``Xhat - step`` of ``rows`` (None:
        every row), whose start points are ``x0`` and base classes ``b``,
        and move their gradients there. Returns the iterate, its distance,
        gap and runner-up class, and the step and stuck flags from it."""
        Xp = Xhat - step
        if bounds is not None:
            np.maximum(Xp, bounds[0], out=Xp)
            np.minimum(Xp, bounds[1], out=Xp)
        diff = x0 - Xp
        diff *= diff
        d = np.sqrt(np.add.reduce(diff, axis=1))  # np.linalg.norm's sum
        o, logits, pres, _ = _logit_diffs(net, lam, Xp, b)
        grads.move(rows, pres, b)
        next_step, next_stuck = _next_step(o, b, grads, rows,
                                           cfg.learning_rate)
        runner = _runner_up(logits, b)  # the logits' last reader
        v = np.abs(o[np.arange(b.size), runner])
        check_overflow("a search iterate's distance or logit gap", d, v)
        return Xp, d, v, runner, next_step, next_stuck

    if batch_mean:
        # every row is evaluated, stuck ones in place, so the matrix shapes,
        # and with them the rounding, do not depend on which rows got stuck;
        # every active row moves and keeps its best iterate
        active = ~stuck
        Xhat, d_cur = X0, np.zeros(s)
        mean_prev = 0.0
        iters = 0
        while active.any():
            Xp, d, v, runner, next_step, next_stuck = advance(
                Xhat, step, X0, base, None)
            iters += 1
            k = np.flatnonzero(active & (v < v_best))
            d_best[k], v_best[k], boundary[k], pair[k] = (
                d[k], v[k], Xp[k], runner[k])
            steps[k] += 1
            if trace is not None:
                trace.extend(zip(k.tolist(), d[k].tolist(), v[k].tolist()))
            # the rows that are not active stay where they are
            rest = ~active
            np.copyto(Xp, Xhat, where=rest[:, None])
            np.copyto(d, d_cur, where=rest)
            np.copyto(next_step, step, where=rest[:, None])
            Xhat, d_cur, step = Xp, d, next_step
            mean_d = float(d_cur.mean())
            settled = abs(mean_d - mean_prev) < cfg.stop_tolerance
            mean_prev = mean_d
            if settled or iters >= cfg.max_iters:
                status[active] = _CODE[SearchStatus.CONVERGED if settled
                                       else SearchStatus.MAX_ITERS]
                break
            active &= ~next_stuck  # these keep NO_DESCENT
    else:
        # the state of the rows still searching, compact and in row order:
        # original row, start point, base class, current iterate (the last
        # kept one), step from it, and its distance, gap, runner-up and
        # step count
        idx = np.flatnonzero(~stuck)
        x0 = Xhat = X0 if idx.size == s else X0[idx]
        b, step, d_hat, v_hat, j_hat, n_hat = (
            base[idx], step[idx], d_best[idx], v_best[idx], pair[idx],
            steps[idx])

        def stop(out, code):
            """Write the rows ``out`` of the state, as it stands, into the
            output columns with status ``code``."""
            rows = idx[out]
            boundary[rows], d_best[rows], v_best[rows] = (
                Xhat[out], d_hat[out], v_hat[out])
            pair[rows], steps[rows], status[rows] = (
                j_hat[out], n_hat[out], code)

        while idx.size:
            Xp, d, v, runner, step, next_stuck = advance(
                Xhat, step, x0, b, None if idx.size == s else idx)
            # a row moves only onto an iterate it keeps; one whose violation
            # rose or whose distance settled stops on its last kept iterate
            rose = v >= v_hat
            kept = ~(rose | (np.abs(d - d_hat) < cfg.stop_tolerance))
            if not kept.all():
                stop(~kept, np.where(rose[~kept],
                                     _CODE[SearchStatus.VIOLATION_ROSE],
                                     _CODE[SearchStatus.CONVERGED]))
            Xhat, d_hat, v_hat, j_hat, n_hat = Xp, d, v, runner, n_hat + 1
            del Xp  # so that compacting Xhat frees the full-size iterate
            if trace is not None:
                trace.extend(zip(idx[kept].tolist(), d_hat[kept].tolist(),
                                 v_hat[kept].tolist()))
            # a kept row stops on it at max_iters or without a next step
            full = n_hat >= cfg.max_iters
            out = kept & (full | next_stuck)
            if out.any():
                stop(out, np.where(full[out], _CODE[SearchStatus.MAX_ITERS],
                                   _CODE[SearchStatus.NO_DESCENT]))
            keep = kept & ~out
            if not keep.all():
                stay = np.flatnonzero(keep)
                idx, x0, b, Xhat, step, d_hat, v_hat, j_hat, n_hat = (
                    col.take(stay, 0) for col in (idx, x0, b, Xhat, step,
                                                  d_hat, v_hat, j_hat,
                                                  n_hat))

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


def _measure_correct(net, ds, layer: int, search, pca=None, m=None, *,
                     batch_mean: bool, keep_all: bool = False):
    """Margins at ``layer`` of the samples of the raw dataset ``ds`` that
    ``net`` classifies correctly, or of every sample with ``keep_all``.

    The features are mapped into the model's space first, and a feature or
    activation that overflows raises NumericalError. A model without
    normalization takes them as they are, so its search is clipped to the
    bounds of ``ds``; a normalized model's box comes from its meta.

    Returns every sample's activations at ``layer``, the kept sample
    indices, the ``search_margins`` table of the kept samples and their
    margins, NaN where the table marks a row ``stuck``.
    """
    if search is not None and net.norm_meta is None:
        search = replace(search, bounds=(ds.lower, ds.upper))
    acts = forward_batch(net, apply_normalization(ds.features, net.norm_meta))
    kept = (np.arange(ds.sample_count) if keep_all else
            np.flatnonzero(np.argmax(acts[-1], axis=1) == ds.labels))
    table = search_margins(net, layer, acts[layer][kept], search, pca, m,
                           batch_mean=batch_mean)
    return (acts[layer], kept, table,
            np.where(table.stuck, np.nan, table.d_best))


# ---------------------------------------------------------------------------
# total-variation normalization


def compute_total_variation(acts: np.ndarray) -> float:
    """sqrt of the summed per-feature population variance of ``acts``, one
    row or a matrix of rows of finite values; anything else is a
    ``DomainError``. Activations so large that the variance overflows a
    float on the way raise ``NumericalError``."""
    A = np.atleast_2d(_checked_rows(acts))
    if A.shape[0] < 2:
        raise DomainError("total variation needs at least two samples")
    with np.errstate(over="ignore", invalid="ignore"):
        tv = float(np.sqrt(np.var(A, axis=0).sum()))
    check_overflow("activation total variation", tv)
    return tv


def tv_normalize(margins: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """Divide margins by the total variation of the activations they were
    measured at; raises DegenerateVarianceError when that scale vanishes.
    The activations are checked as ``compute_total_variation`` checks them;
    the margins may hold NaN, which stays NaN."""
    return _scale_by_tv(margins, compute_total_variation(acts))


def _scale_by_tv(margins: np.ndarray, tv: float) -> np.ndarray:
    """``margins / tv``; DegenerateVarianceError when ``tv`` vanishes."""
    if tv < _DEGENERATE:
        raise DegenerateVarianceError(
            "activation total variation is numerically zero")
    with np.errstate(over="ignore"):
        scaled = _as_floats(margins) / tv
    check_overflow("a margin divided by the total variation",
                   scaled[~np.isnan(scaled)])
    return scaled
