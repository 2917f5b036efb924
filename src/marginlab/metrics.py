"""Ranking metrics, margin signatures, and the linear gap predictor.

Everything here consumes plain values produced elsewhere: complexity
measures, generalization gaps, test accuracies, and margin distributions.
``kendall_tau`` is its defining double sum over model pairs (the common
tau-b variant handles ties differently, so a library routine would not
match); the granulated variant averages tau over single-axis model groups;
``cmi_score`` runs a plug-in conditional-independence estimate over sign
patterns. The last two read a ``ModelTable``, the models as columns of
integer-coded tokens and float values. All three count pairs with one
numpy kernel, ``_concordance``, which evaluates the same double sum with
each model compared only with the other members of its own group: small
groups pairwise, many at a time, and large ones by sorting, so no
statistic loops over pairs in Python, compares pairs across groups, or
holds an n x n temporary. Signatures
condense a margin distribution into five robust statistics that feed a
small ridge-stabilized linear predictor.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ._seed import derive_seed
from .errors import (
    DomainError,
    FitError,
    NumericalError,
    UndefinedMetricError,
    _as_floats,
    _check_reals,
    _checked_rows,
    check_integers,
    check_seed,
)

_LOG_CLAMP = 1e-12
_RIDGE = 1e-10


@dataclass(frozen=True)
class HyperparamConfig:
    """Named discrete hyperparameter tokens for one trained model.

    Tokens are stringified on construction so that numerically-sourced and
    text-sourced configurations compare equal.
    """

    values: Mapping[str, str]

    def __post_init__(self):
        if not isinstance(self.values, Mapping) or not self.values:
            raise DomainError("hyperparameter config must be a non-empty "
                              "mapping")
        coerced = {str(k): str(v) for k, v in self.values.items()}
        object.__setattr__(self, "values", coerced)


@dataclass(frozen=True)
class EvaluatedModel:
    """One model's complexity measure and generalization outcome."""

    config: HyperparamConfig
    complexity: float
    gen_gap: float
    test_accuracy: float

    def __post_init__(self):
        _check_reals(complexity=self.complexity, gen_gap=self.gen_gap,
                     test_accuracy=self.test_accuracy)


_TARGETS = ("gen_gap", "test_accuracy")


@dataclass(frozen=True)
class ModelTable:
    """Evaluated models as columns, the input of every ranking metric.

    ``names`` are the sorted hyperparameter axis names and ``codes`` an
    (n x axes) intp matrix of token ids. Within an axis, ids follow sorted
    token-string order, so sorting rows of ids orders the models exactly as
    sorting their token tuples would. ``complexity``, ``gen_gap`` and
    ``test_accuracy`` are finite float64 arrays of length n >= 1.
    ``granulated_kendall`` and ``cmi_score`` also take a sequence of
    ``EvaluatedModel``, which they turn into a table with ``from_models``.
    """

    names: tuple[str, ...]
    codes: np.ndarray
    complexity: np.ndarray
    gen_gap: np.ndarray
    test_accuracy: np.ndarray

    def __post_init__(self):
        codes = self.codes
        if not (isinstance(self.names, tuple) and isinstance(codes, np.ndarray)
                and codes.dtype == np.intp and codes.ndim == 2):
            raise DomainError("a model table needs a tuple of axis names "
                              "and an intp matrix of token ids")
        n = len(codes)
        if n == 0:
            raise DomainError("no models given")
        values = (self.complexity, self.gen_gap, self.test_accuracy)
        if codes.shape[1] != len(self.names) or not all(
                isinstance(v, np.ndarray) and v.dtype == np.float64
                and v.shape == (n,) for v in values):
            raise DomainError("model table columns differ in length")
        if not np.isfinite(values).all():
            raise DomainError("model table values must be finite")
        # an axis has at most n tokens
        if codes.size and not 0 <= codes.min() <= codes.max() < n:
            raise DomainError(f"token ids must lie in [0, {n})")

    @classmethod
    def from_tokens(cls, tokens: Mapping[str, Sequence], complexity,
                    gen_gap, test_accuracy) -> "ModelTable":
        """The table whose axis ``name`` holds the tokens ``str(v)`` of the
        values ``tokens[name]``, a sequence with one value per model; a
        string is its own token, and values with one string share a token
        (``1`` and ``1.0`` do not; ``10`` sorts before ``2``). Each
        distinct value of an all-int or all-float column is turned into
        its token once (``_token_codes``), with the codes that
        stringifying every value would give. Columns of another length
        than ``complexity``, names that are not strings and values that
        are not finite numbers are a ``DomainError``."""
        if not isinstance(tokens, Mapping) \
                or not all(isinstance(name, str) for name in tokens):
            raise DomainError("tokens must map axis names to token columns")
        complexity, gen_gap, test_accuracy = map(
            _as_floats, (complexity, gen_gap, test_accuracy))
        if complexity.ndim != 1:
            raise DomainError("complexity must hold one value per model")
        n = complexity.size
        names = tuple(sorted(tokens))
        codes = np.empty((n, len(names)), dtype=np.intp)
        for j, name in enumerate(names):
            column = tokens[name]
            if not (isinstance(column, Sequence) or isinstance(
                    column, np.ndarray) and column.ndim == 1) \
                    or len(column) != n:
                raise DomainError(f"token column {name!r} needs one value "
                                  f"per model, {n} in all")
            codes[:, j] = _token_codes(column)
        return cls(names, codes, complexity, gen_gap, test_accuracy)

    @classmethod
    def from_models(cls, models: Sequence[EvaluatedModel]) -> "ModelTable":
        """The table of ``models``, which must all name the same axes."""
        if not isinstance(models, Sequence) or not all(
                isinstance(m, EvaluatedModel)
                and isinstance(m.config, HyperparamConfig) for m in models):
            raise DomainError("models must be a ModelTable or a sequence of "
                              "EvaluatedModel with a HyperparamConfig")
        if not models:
            raise DomainError("no models given")
        keys = models[0].config.values.keys()
        if any(m.config.values.keys() != keys for m in models):
            raise DomainError("models do not share one hyperparameter schema")
        return cls.from_tokens(
            {name: [m.config.values[name] for m in models] for name in keys},
            [m.complexity for m in models], [m.gen_gap for m in models],
            [m.test_accuracy for m in models])


def _token_codes(column: Sequence) -> np.ndarray | list[int]:
    """Each value's id among the sorted distinct tokens ``str(v)`` of
    ``column``.

    In a column of only ``int``s that fit int64, or of only finite
    ``float``s none of which is -0.0, two values have one token exactly
    when they are equal, so one ``np.unique`` finds the distinct values and
    only those are stringified and sorted. Every other column (strings,
    bools, None, lists, ``1`` beside ``1.0``, -0.0, nan, inf, ints beyond
    int64) stringifies each value.
    """
    kinds = set(map(type, column))
    values = None
    if kinds == {int}:
        try:
            values = np.array(column, dtype=np.int64)
        except OverflowError:
            pass
    elif kinds == {float}:
        values = np.array(column, dtype=np.float64)
        # -0.0 equals 0.0 but its token differs
        if not np.isfinite(values).all() \
                or np.signbit(values[values == 0]).any():
            values = None
    if values is None:
        strings = list(map(str, column))
        ids = {token: k for k, token in enumerate(sorted(set(strings)))}
        return list(map(ids.__getitem__, strings))
    distinct, inverse = np.unique(values, return_inverse=True)
    strings = list(map(str, distinct.tolist()))
    rank = np.empty(len(strings), dtype=np.intp)
    rank[sorted(range(len(strings)), key=strings.__getitem__)] = \
        np.arange(len(strings))
    return rank[inverse]


def _as_table(models: ModelTable | Sequence[EvaluatedModel]) -> ModelTable:
    if isinstance(models, ModelTable):
        return models
    return ModelTable.from_models(models)


def _target_values(table: ModelTable, target: str) -> np.ndarray:
    if target not in _TARGETS:
        raise DomainError(f"unknown target {target!r}; expected one of "
                          f"{_TARGETS}")
    return getattr(table, target)


_BLOCK = 256


def _compare(padded: np.ndarray) -> np.ndarray:
    """Whether slot i exceeds slot j, for every (i, j) in each row of a
    (k x m) matrix: a (k x m x m) bool array. NaN, -0.0 against 0.0 and
    inf against inf compare false both ways."""
    return padded[:, :, None] > padded[:, None, :]


def _concordance(values, targets, groups=None) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """Concordant and discordant unordered pair counts within each group.

    A pair is concordant when ``values`` and ``targets`` order it the same
    way and discordant when they order it oppositely; a tie in either
    coordinate, including any comparison with NaN, counts as neither.
    ``groups`` gives each element a non-negative integer group id (default:
    one group); the counts come back as int64 arrays indexed by group id,
    zero at ids no group of two or more uses.

    The path is chosen from each group's size. A group of more than
    ``_BLOCK`` members is counted by Knight's method (``_sorted_ties`` and
    ``_inversions``) in O(m log m) time and O(m) memory, all such groups in
    one pass. Smaller groups are compared pairwise: each group's members
    fill one row of a NaN-padded (groups x m) matrix, and members are
    compared only with the m slots of their own row; the NaN padding ties
    with everything, so it adds no counts. Groups are taken smallest first
    and stacked while the step's k x m x m compare holds at most
    ``_BLOCK**2`` cells, so each step is padded only to its own largest
    group.

    Measured on 1000 elements (numpy 2.4, 2 vCPUs), sorting took about
    0.8 ms however they were grouped, and the padded compare 0.24 ms in
    groups of 5, 0.38 ms in groups of 40, 0.58 ms in groups of 100 and
    5.9 ms as one group; one group of 256 took 0.37-0.40 ms either way,
    which is where ``_BLOCK`` sits.
    """
    v = np.asarray(values, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if groups is None:
        g = np.zeros(v.size, dtype=np.intp)
    else:
        g = np.asarray(groups, dtype=np.intp)
    sizes = np.bincount(g)
    concordant = np.zeros(sizes.size, dtype=np.int64)
    discordant = np.zeros(sizes.size, dtype=np.int64)

    # a NaN ties with everything, so its rows add no counts to a large group
    rows = (sizes > _BLOCK)[g] & ~np.isnan(v) & ~np.isnan(t)
    if rows.any():
        ids, untied, key, first = _sorted_ties(v[rows], t[rows], g[rows])
        discordant[ids] = _inversions(key, first)
        concordant[ids] = untied - discordant[ids]

    # groups of two to _BLOCK members, smallest first, and their members in
    # that order; a singleton has no pairs
    ids = np.argsort(sizes, kind="stable")
    ids = ids[(sizes[ids] >= 2) & (sizes[ids] <= _BLOCK)]
    if not ids.size:
        return concordant, discordant
    starts = np.concatenate(([0], np.cumsum(sizes[ids])))
    rank = np.full(sizes.size, ids.size, dtype=np.intp)
    rank[ids] = np.arange(ids.size)
    order = np.argsort(rank[g], kind="stable")[:starts[-1]]
    row = rank[g[order]]
    slot = np.arange(order.size) - starts[row]
    v, t = v[order], t[order]

    cells = _BLOCK ** 2
    i = 0
    while i < ids.size:
        # the most groups whose rows, padded to the last one, fit a step;
        # every later group is at least as large as the first
        window = sizes[ids[i:i + cells // sizes[ids[i]] ** 2]]
        k = int(np.count_nonzero(
            np.arange(1, window.size + 1) * window ** 2 <= cells))
        j = i + k
        m = int(window[k - 1])
        a, b = starts[i], starts[j]
        pv = np.full((k, m), np.nan)
        pt = np.full((k, m), np.nan)
        pv[row[a:b] - i, slot[a:b]] = v[a:b]
        pt[row[a:b] - i, slot[a:b]] = t[a:b]
        # a pair tied in neither coordinate is counted once, in the order
        # (i, j) whose value is greater: concordant if its target is too
        above, over = _compare(pv), _compare(pt)
        agree = (above & over).reshape(k, -1)
        oppose = (above & over.transpose(0, 2, 1)).reshape(k, -1)
        # a one-group step counts flat: numpy's count along an axis is
        # several times slower than its count of a whole array
        axis = None if k == 1 else 1
        concordant[ids[i:j]] = np.count_nonzero(agree, axis=axis)
        discordant[ids[i:j]] = np.count_nonzero(oppose, axis=axis)
        i = j
    return concordant, discordant


def _sorted_ties(v: np.ndarray, t: np.ndarray, g: np.ndarray):
    """The first half of Knight's O(m log m) pair count, for every group of
    NaN-free rows at once.

    The rows are sorted by (group, value, target), and ``==`` on neighbours
    finds the runs of ties, so -0.0 ties with 0.0 and inf with inf, as in
    ``_compare``. With P pairs in a group, V and T pairs tied in value and
    in target and B tied in both, P - V - T + B pairs are concordant or
    discordant. In that order a pair is discordant exactly when its targets
    are inverted, so the discordant count is the inversion count of the
    targets, which ``_inversions`` takes from the returned keys.

    Returns the group ids present, their P - V - T + B, each sorted row's
    target key and the first row of each group.
    """
    order = np.lexsort((t, v, g))
    v, t, g = v[order], t[order], g[order]
    n = g.size
    same_g = g[1:] == g[:-1]
    first = np.flatnonzero(np.concatenate(([True], ~same_g)))
    size = np.diff(first, append=n)
    same_v = same_g & (v[1:] == v[:-1])
    tied_v = _tied_pairs(same_v, first)
    tied_both = _tied_pairs(same_v & (t[1:] == t[:-1]), first)
    # each row's key is where its run of equal targets starts in the
    # (group, target) order: dense, equal for ties, and group-major
    by_t = np.lexsort((t, g))
    ts = t[by_t]
    same_t = same_g & (ts[1:] == ts[:-1])
    tied_t = _tied_pairs(same_t, first)
    key = np.empty(n, dtype=np.int64)
    key[by_t] = np.maximum.accumulate(np.where(
        np.concatenate(([True], ~same_t)), np.arange(n), 0))
    untied = size * (size - 1) // 2 - tied_v - tied_t + tied_both
    return g[first], untied, key, first


def _tied_pairs(same: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Pairs inside runs per group, from ``same[i]``: row i + 1 ties with
    row i. Every group starts at a row in ``first`` and a new run."""
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    runs = np.diff(starts, append=same.size + 1)
    return np.add.reduceat(runs * (runs - 1) // 2,
                           np.searchsorted(starts, first))


def _inversions(key: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Pairs i < j with ``key[i] > key[j]`` per group, by a bottom-up merge.

    Each level merges aligned blocks of 2w rows with one stable sort; a
    row of a block's right half that moves left passes exactly the larger
    rows of its left half. Keys are group-major, so no row leaves its
    group's rows and no pair across groups counts.
    """
    n = key.size
    pos = np.arange(n)
    moved = np.zeros(n, dtype=np.int64)
    w = 1
    while w < n:
        order = np.argsort(pos // (2 * w) * n + key, kind="stable")
        moved += np.maximum(order - pos, 0)
        key = key[order]
        w *= 2
    return np.add.reduceat(moved, first)


# ---------------------------------------------------------------------------
# Kendall rank correlation


def kendall_tau(pairs: Sequence[tuple[float, float]] | np.ndarray) -> float:
    """Rank correlation from the defining double sum over ordered pairs.

    ``pairs`` holds (measure, target) pairs, as a sequence or an (n x 2)
    array; anything else is a ``DomainError``. Tied pairs contribute zero
    in either coordinate; the normalization is n(n-1), so heavy ties
    shrink |tau| rather than being renormalized away.
    """
    array = _as_floats(pairs)
    if array.ndim != 2 or array.shape[1] != 2:
        raise DomainError(f"kendall_tau needs an (n x 2) array of pairs, "
                          f"got shape {array.shape}")
    n = len(array)
    if n < 2:
        raise DomainError("kendall_tau needs at least two pairs")
    measure, target = array.T
    concordant, discordant = _concordance(measure, target)
    return _tau(int(concordant[0]), int(discordant[0]), n)


def _tau(concordant: int, discordant: int, n: int) -> float:
    # the ordered-pair sum is twice the unordered one
    return 2 * (concordant - discordant) / (n * (n - 1))


@dataclass(frozen=True)
class GranulatedResult:
    """Single-axis rank correlation with grouping diagnostics."""

    psi: float
    included_groups: int
    skipped_groups: int


def granulated_kendall(models: ModelTable | Sequence[EvaluatedModel],
                       hyperparam: str,
                       target: str = "gen_gap") -> GranulatedResult:
    """Mean Kendall tau over groups in which only ``hyperparam`` varies.

    Models are grouped by their values on every other axis; a group enters
    the average only if it holds at least two models with at least two
    distinct tokens for ``hyperparam`` (a group where the axis never moves
    says nothing about it). Groups failing that bar are skipped and
    counted. When no group qualifies the statistic is undefined.
    """
    table = _as_table(models)
    if hyperparam not in table.names:
        raise DomainError(f"unknown hyperparameter {hyperparam!r}")
    targets = _target_values(table, target)
    axis = table.names.index(hyperparam)
    codes = table.codes
    spans = codes.max(axis=0) + 1

    # group ids in sorted order of the other axes' tokens: a mixed-radix key
    # over those columns, made dense by one np.unique; it is made dense
    # early only where the next column would take it past 2**62, so it
    # never overflows at any number of axes
    key = np.zeros(len(codes), dtype=np.intp)
    bound = 1  # every key is below it
    for j in range(codes.shape[1]):
        if j != axis:
            if bound * int(spans[j]) > 2 ** 62:
                _, key = np.unique(key, return_inverse=True)
                bound = int(key.max()) + 1
            key = key * spans[j] + codes[:, j]
            bound *= int(spans[j])
    _, group_of = np.unique(key, return_inverse=True)
    count = int(group_of.max()) + 1
    sizes = np.bincount(group_of, minlength=count)
    span = spans[axis]
    seen = np.unique(group_of * span + codes[:, axis])  # (group, token) pairs
    distinct = np.bincount(seen // span, minlength=count)
    concordant, discordant = _concordance(table.complexity, targets,
                                          group_of)

    # two distinct tokens imply two members
    varies = distinct >= 2
    taus = [_tau(c, d, n) for c, d, n in zip(concordant[varies].tolist(),
                                             discordant[varies].tolist(),
                                             sizes[varies].tolist())]
    if not taus:
        raise UndefinedMetricError(
            f"no group varies hyperparameter {hyperparam!r}; its granulated "
            f"correlation is undefined")
    return GranulatedResult(psi=sum(taus) / len(taus),
                            included_groups=len(taus),
                            skipped_groups=count - len(taus))


def mean_granulated(psis: Sequence[float]) -> float:
    """Average of per-axis granulated correlations."""
    if not psis:
        raise DomainError("mean_granulated needs at least one value")
    return sum(psis) / len(psis)


# ---------------------------------------------------------------------------
# conditional mutual information score


@dataclass(frozen=True)
class CmiScore:
    """Per-axis-pair normalized conditional mutual information and the
    final minimum, scaled to [0, 100]."""

    per_pair: Mapping[tuple[str, str], float]
    final: float
    # non-tied model pairs counted for each axis pair (T in ``cmi_score``)
    retained_pairs: Mapping[tuple[str, str], int] = field(default_factory=dict)


def cmi_score(models: ModelTable | Sequence[EvaluatedModel],
              target: str = "gen_gap") -> CmiScore:
    """Conditional-independence score between measure and gap sign changes.

    For every pair S of hyperparameter axes, models are partitioned by
    their values on S. Within each cell, every unordered model pair yields
    a (sign of measure difference, sign of target difference) event; tied
    events are dropped, and each retained event is counted in both
    orientations so the tables do not depend on enumeration order. Cells
    are weighted by their retained-pair counts. The per-S statistic is the
    mutual information of the sign variables given the cell, normalized by
    the conditional entropy of the target signs (zero entropy, or no
    retained pairs, scores 0). The final score is 100 times the minimum
    over S.

    Counting both orientations makes every cell's table symmetric, so its
    sign marginals are exactly 1/2 and its target entropy is ln 2. With C
    concordant and D discordant pairs in a cell, R = C + D, and T the sum
    of R over cells, the per-S statistic therefore has the closed form

        (1/T) * sum over cells of [C ln(2C/R) + D ln(2D/R)] / ln 2,

    where zero counts drop out and T = 0 scores 0.
    """
    table = _as_table(models)
    names, codes = table.names, table.codes
    if len(names) < 3:
        raise DomainError("cmi_score needs at least three hyperparameter axes")
    targets = _target_values(table, target)
    measure = table.complexity
    spans = codes.max(axis=0) + 1

    per_pair: dict[tuple[str, str], float] = {}
    retained_pairs: dict[tuple[str, str], int] = {}
    for i, j in itertools.combinations(range(len(names)), 2):
        # cells numbered by first appearance, which fixes the summation order
        _, first, cell_of = np.unique(codes[:, i] * spans[j] + codes[:, j],
                                      return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        S = (names[i], names[j])
        per_pair[S], retained_pairs[S] = _normalized_sign_information(
            *_concordance(measure, targets, rank[cell_of]))

    return CmiScore(per_pair=per_pair, final=100.0 * min(per_pair.values()),
                    retained_pairs=retained_pairs)


def _normalized_sign_information(concordant: np.ndarray,
                                 discordant: np.ndarray) -> tuple[float, int]:
    """The closed-form per-S statistic of ``cmi_score`` from per-cell pair
    counts, clamped to [0, 1], and the retained-pair count T."""
    retained = concordant + discordant
    total = int(retained.sum())
    if total == 0:
        return 0.0, 0
    info = 0.0
    for counts in (concordant, discordant):
        kept = counts > 0
        info += float(np.sum(counts[kept]
                             * np.log(2 * counts[kept] / retained[kept])))
    return min(max(info / total / math.log(2), 0.0), 1.0), total


# ---------------------------------------------------------------------------
# coefficient of determination


def r_squared(z: np.ndarray, z_hat: np.ndarray) -> float:
    """1 - SSE/SST; unbounded below, at most 1. ``z`` and ``z_hat`` must be
    equal-length vectors of finite values, else it is a ``DomainError``; a
    score left non-finite by sums that overflow is a ``NumericalError``."""
    z, z_hat = (_as_floats(v).ravel() for v in (z, z_hat))
    if z.shape != z_hat.shape or z.size < 2 \
            or not (np.isfinite(z).all() and np.isfinite(z_hat).all()):
        raise DomainError("r_squared needs two equal-length vectors of at "
                          "least two finite values")
    # a sum that overflows gives inf or NaN, which the check below names;
    # numpy's warning would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        sst = float(np.sum((z - z.mean()) ** 2))
        sse = float(np.sum((z_hat - z) ** 2))
    if sst == 0.0:
        raise UndefinedMetricError("r_squared is undefined for a constant "
                                   "target")
    score = 1.0 - sse / sst
    if not math.isfinite(score):
        raise NumericalError(f"R^2 = {score}, a non-finite score")
    return score


# ---------------------------------------------------------------------------
# margin-distribution signatures


@dataclass(frozen=True)
class MarginSignature:
    """Five-number summary of a margin distribution: quartiles plus the
    Tukey fences at 1.5 IQR."""

    q1: float
    q2: float
    q3: float
    lower_fence: float
    upper_fence: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.q1, self.q2, self.q3,
                         self.lower_fence, self.upper_fence])


def extract_signature(margins: np.ndarray) -> MarginSignature:
    """Quartiles via linear interpolation between order statistics.

    This is the type-7 rule that ``np.percentile`` applies by default. For
    n sorted values s and a fraction q the virtual index is v = (n - 1) q,
    with lo = floor(v) and t = v - lo. The quantile is
    s[lo] + (s[lo+1] - s[lo]) t when t < 0.5 and
    s[lo+1] - (s[lo+1] - s[lo]) (1 - t) otherwise; when v >= n - 1 it is
    the last value. The sample is sorted once and the formula evaluated in
    that order, so the quartiles equal ``np.percentile``'s bit for bit,
    except that a zero quartile of a sample holding both +0.0 and -0.0 may
    carry the other sign. A quartile or fence that overflows raises
    NumericalError.
    """
    # flatten copies, so the in-place sort never touches the caller's array
    s = _as_floats(margins).flatten()
    s.sort()
    n = s.size
    if n == 0:
        raise DomainError("cannot summarize an empty margin distribution")
    # NaN sorts last, so the two ends show every non-finite value
    if not (math.isfinite(s.item(0)) and math.isfinite(s.item(-1))):
        raise DomainError("margin distribution contains non-finite values")
    if n == 1:
        q1 = q2 = q3 = s.item(0)
    else:
        quartiles = []
        for k in (1, 2, 3):
            # v = (n - 1) k / 4 is a multiple of 1/4, so lo and t are exact;
            # lo + 1 <= n - 1 for k <= 3
            lo, quarters = divmod((n - 1) * k, 4)
            a, b, t = s.item(lo), s.item(lo + 1), quarters / 4
            quartiles.append(a + (b - a) * t if t < 0.5
                             else b - (b - a) * (1 - t))
        q1, q2, q3 = quartiles
    iqr = q3 - q1
    lower, upper = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    if not all(map(math.isfinite, (q2, lower, upper))):  # q1, q3: fences
        raise NumericalError("a margin quartile or fence overflows")
    return MarginSignature(q1=q1, q2=q2, q3=q3, lower_fence=lower,
                           upper_fence=upper)


# ---------------------------------------------------------------------------
# linear generalization predictor


@dataclass(frozen=True)
class PredictorFit:
    """Coefficients of ghat = alpha . ln(theta) + intercept."""

    alpha: np.ndarray
    intercept: float
    underdetermined: bool


def _log_features(F: np.ndarray) -> np.ndarray:
    """ln of the clamped signatures ``F``, rows that ``_checked_rows``
    returned, as a matrix."""
    # lower fences can be negative or zero; clamp before the log transform
    return np.log(np.maximum(np.atleast_2d(F), _LOG_CLAMP))


def fit_linear_predictor(features: np.ndarray,
                         gaps: np.ndarray) -> PredictorFit:
    """Least squares on log-transformed signatures via normal equations.

    A tiny ridge keeps the system solvable when signatures are collinear;
    fits with fewer samples than coefficients are flagged, not rejected.
    """
    Phi = _log_features(_checked_rows(features))
    g = _as_floats(gaps).ravel()
    if Phi.shape[0] != g.size or not np.isfinite(g).all():
        raise DomainError("each feature row needs one finite gap value")
    return _solve_normal_equations(_design(Phi), g)


def _design(Phi: np.ndarray) -> np.ndarray:
    """The design matrix [ln theta, 1] of the log features ``Phi``."""
    return np.hstack([Phi, np.ones((Phi.shape[0], 1))])


def _solve_normal_equations(X: np.ndarray, g: np.ndarray) -> PredictorFit:
    """The ridge-stabilized least-squares fit of the finite gaps ``g`` on
    the design matrix ``X``; a FitError when it has no finite solution."""
    A = X.T @ X + _RIDGE * np.eye(X.shape[1])
    try:
        # gaps near the float limit overflow X.T @ g; the check below
        # names the non-finite coefficients that follow
        with np.errstate(over="ignore", invalid="ignore"):
            beta = np.linalg.solve(A, X.T @ g)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"normal equations unsolvable: {exc}") from exc
    if not np.all(np.isfinite(beta)):
        raise FitError("predictor coefficients are non-finite")
    return PredictorFit(alpha=beta[:-1], intercept=float(beta[-1]),
                        underdetermined=g.size < X.shape[1])


def predict_gap(fit: PredictorFit, features: np.ndarray):
    """Predicted gap(s); a single signature vector yields a scalar. The
    signatures must be finite and as wide as the fit's, or it is a
    ``DomainError``."""
    F = _checked_rows(features)
    if F.shape[-1] != fit.alpha.size:
        raise DomainError(f"signatures hold {F.shape[-1]} features; the fit "
                          f"takes {fit.alpha.size}")
    out = _log_features(F) @ fit.alpha + fit.intercept
    return float(out[0]) if F.ndim == 1 else out


def kfold_splits(n: int, k: int, seed: int,
                 shuffle_index: int) -> list[np.ndarray]:
    """Deterministic k-fold index partition for one shuffle round."""
    if not 2 <= k <= n:
        raise DomainError(f"k={k} must lie in [2, {n}]")
    rng = np.random.default_rng(derive_seed(seed, "cv", shuffle_index))
    return np.array_split(rng.permutation(n), k)


@dataclass(frozen=True)
class CrossValResult:
    mean_r2: float
    per_fold: tuple[float, ...]


def cross_validate_predictor(features: np.ndarray, gaps: np.ndarray,
                             k: int = 3, shuffles: int = 5,
                             seed: int = 0) -> CrossValResult:
    """Held-out R^2 of the linear predictor over k folds x shuffle rounds.

    ``k`` and ``shuffles`` are integers, ``seed`` an integer >= 0, and
    ``features`` a matrix of finite values with one row per finite gap
    value; anything else is a ``DomainError``, raised before any fold is
    fitted. The features are log-transformed and the design matrix built
    once per call; each fold fits its rows of them as
    ``fit_linear_predictor`` would and scores ``predict_gap``'s
    predictions, so every score has the bits of that per-fold loop. A
    fold whose score, or a mean of scores, is not finite, as sums that
    overflow leave it, is a ``NumericalError`` that names the fold.
    """
    check_integers(k=k, shuffles=shuffles)
    check_seed(seed)
    if shuffles < 1:
        raise DomainError(f"shuffles={shuffles} must be at least 1")
    F = _checked_rows(features)
    g = _as_floats(gaps).ravel()
    if F.ndim != 2 or F.shape[0] != g.size or not np.isfinite(g).all():
        raise DomainError(f"features of shape {F.shape} need one row per "
                          f"finite gap value, of which there are {g.size}")
    Phi = _log_features(F)
    X = _design(Phi)
    scores = []
    for shuffle_index in range(shuffles):
        folds = kfold_splits(g.size, k, seed, shuffle_index)
        for fold_index, fold in enumerate(folds):
            mask = np.ones(g.size, dtype=bool)
            mask[fold] = False
            fit = _solve_normal_equations(X[mask], g[mask])
            try:
                scores.append(r_squared(
                    g[fold], Phi[fold] @ fit.alpha + fit.intercept))
            except NumericalError as exc:
                raise NumericalError(f"fold {fold_index} of shuffle "
                                     f"{shuffle_index} scores {exc}") from exc
    mean_r2 = sum(scores) / len(scores)
    if not math.isfinite(mean_r2):
        raise NumericalError("the mean held-out R^2 overflows")
    return CrossValResult(mean_r2=mean_r2, per_fold=tuple(scores))
