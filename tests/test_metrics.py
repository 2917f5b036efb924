import contextlib
import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import metrics
from marginlab.errors import (
    DomainError,
    FitError,
    NumericalError,
    UndefinedMetricError,
    WorkbenchError,
)
from marginlab.metrics import (
    CmiScore,
    CrossValResult,
    EvaluatedModel,
    HyperparamConfig,
    MarginSignature,
    ModelTable,
    cmi_score,
    cross_validate_predictor,
    extract_signature,
    fit_linear_predictor,
    granulated_kendall,
    kendall_tau,
    kfold_splits,
    mean_granulated,
    predict_gap,
    r_squared,
)


def _sgn(x):
    return int(x > 0) - int(x < 0)


def oracle_tau(pairs):
    """Concordant-minus-discordant count over unordered pairs."""
    n = len(pairs)
    total = 0
    for (s1, g1), (s2, g2) in itertools.combinations(pairs, 2):
        total += _sgn(s1 - s2) * _sgn(g1 - g2)
    return 2.0 * total / (n * (n - 1))


def model(tokens, comp, gap, acc=0.0, names=("alpha", "beta", "gamma")):
    cfg = HyperparamConfig(dict(zip(names, map(str, tokens))))
    return EvaluatedModel(config=cfg, complexity=float(comp),
                          gen_gap=float(gap), test_accuracy=float(acc))


def oracle_granulated(models, axis, target="gen_gap"):
    groups = {}
    for m in models:
        key = tuple(sorted((n, v) for n, v in m.config.values.items()
                           if n != axis))
        groups.setdefault(key, []).append(m)
    taus = []
    skipped = 0
    for key in sorted(groups):
        ms = groups[key]
        distinct = {m.config.values[axis] for m in ms}
        if len(ms) < 2 or len(distinct) < 2:
            skipped += 1
            continue
        taus.append(oracle_tau([(m.complexity, getattr(m, target))
                                for m in ms]))
    if not taus:
        return None, 0, skipped
    return sum(taus) / len(taus), len(taus), skipped


def oracle_cmi(models, target="gen_gap"):
    names = sorted(models[0].config.values)
    per = {}
    for S in itertools.combinations(names, 2):
        groups = {}
        for m in models:
            key = (m.config.values[S[0]], m.config.values[S[1]])
            groups.setdefault(key, []).append(m)
        tables = {}
        weights = {}
        for key, ms in groups.items():
            table = {}
            retained = 0
            for a, b in itertools.combinations(ms, 2):
                vs = _sgn(a.complexity - b.complexity)
                vg = _sgn(getattr(a, target) - getattr(b, target))
                if vs == 0 or vg == 0:
                    continue
                table[(vs, vg)] = table.get((vs, vg), 0) + 1
                table[(-vs, -vg)] = table.get((-vs, -vg), 0) + 1
                retained += 1
            if retained:
                tables[key] = table
                weights[key] = retained
        total = sum(weights.values())
        if total == 0:
            per[S] = 0.0
            continue
        info = 0.0
        ent = 0.0
        for key, table in tables.items():
            p_u = weights[key] / total
            count = sum(table.values())
            joint = {vw: c / count for vw, c in table.items()}
            p_s = {}
            p_g = {}
            for (vs, vg), p in joint.items():
                p_s[vs] = p_s.get(vs, 0.0) + p
                p_g[vg] = p_g.get(vg, 0.0) + p
            for (vs, vg), p in joint.items():
                info += p_u * p * math.log(p / (p_s[vs] * p_g[vg]))
            for vg, p in p_g.items():
                ent -= p_u * p * math.log(p)
        per[S] = 0.0 if ent == 0.0 else min(max(info / ent, 0.0), 1.0)
    return 100.0 * min(per.values()), per


# ---------------------------------------------------------------------------
# Kendall tau


def test_kendall_hand_examples():
    assert kendall_tau([(1, 1), (2, 2), (3, 3)]) == 1.0
    assert kendall_tau([(1, 3), (2, 2), (3, 1)]) == -1.0
    assert kendall_tau([(1, 1), (2, 3), (3, 2)]) == pytest.approx(1 / 3)


def test_kendall_needs_two_pairs():
    with pytest.raises(DomainError):
        kendall_tau([(1.0, 1.0)])


@pytest.mark.parametrize("pairs", [
    [1.0, 2.0],                  # not pairs at all
    [(1, 2, 3), (4, 5, 6)],      # triples
    [(1.0, 2.0), (3.0,)],        # ragged
    [(1.0, 2.0), ("x", 3.0)],    # not numeric
    np.zeros((3, 2, 1)),
    7.0,
])
def test_kendall_rejects_malformed_pairs(pairs):
    with pytest.raises(DomainError):
        kendall_tau(pairs)


def test_kendall_matches_pair_count_oracle_with_ties():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        s = rng.integers(0, 4, size=n).astype(float)
        g = rng.integers(0, 4, size=n).astype(float)
        pairs = list(zip(s, g))
        assert kendall_tau(pairs) == oracle_tau(pairs)


def test_kendall_antisymmetry_and_monotone_invariance():
    rng = np.random.default_rng(63)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        s = rng.normal(size=n)
        g = rng.normal(size=n)
        tau = kendall_tau(list(zip(s, g)))
        assert kendall_tau(list(zip(-s, g))) == pytest.approx(-tau)
        assert kendall_tau(list(zip(np.exp(s), 3 * g + 1))) == pytest.approx(tau)


# ---------------------------------------------------------------------------
# granulated Kendall


def eight_model_grid():
    """2x2x2 grid: four (beta, gamma) groups each containing one alpha pair."""
    data = [
        ((0, 0, 0), 1, 1), ((1, 0, 0), 2, 2),   # concordant
        ((0, 1, 0), 1, 1), ((1, 1, 0), 2, 2),   # concordant
        ((0, 0, 1), 1, 2), ((1, 0, 1), 2, 1),   # discordant
        ((0, 1, 1), 1, 1), ((1, 1, 1), 2, 2),   # concordant
    ]
    return [model(t, c, g) for t, c, g in data]


def test_granulated_eight_model_grouping():
    models = eight_model_grid()
    res = granulated_kendall(models, "alpha")
    assert res.psi == pytest.approx((1 + 1 - 1 + 1) / 4)
    assert res.included_groups == 4
    assert res.skipped_groups == 0
    # varying beta never changes the measure within a (alpha, gamma) group:
    # every group tau is 0 by the tie convention
    assert granulated_kendall(models, "beta").psi == 0.0


def test_granulated_perfect_measure_is_one_on_every_axis():
    rng = np.random.default_rng(67)
    models = []
    for tokens in itertools.product(range(2), range(2), range(2)):
        g = float(rng.uniform(0, 1))
        models.append(model(tokens, g, g))
    for axis in ("alpha", "beta", "gamma"):
        assert granulated_kendall(models, axis).psi == 1.0
    assert mean_granulated(
        [granulated_kendall(models, a).psi for a in ("alpha", "beta", "gamma")]
    ) == 1.0


def test_granulated_matches_brute_force_oracle():
    rng = np.random.default_rng(71)
    for trial in range(60):
        models = random_model_set(rng)
        for axis in ("alpha", "beta", "gamma"):
            expect, included, skipped = oracle_granulated(models, axis)
            if expect is None:
                with pytest.raises(UndefinedMetricError):
                    granulated_kendall(models, axis)
                continue
            res = granulated_kendall(models, axis)
            assert res.psi == expect
            assert res.included_groups == included
            assert res.skipped_groups == skipped


def test_granulated_never_varying_axis_is_undefined():
    models = [model((0, b, c), 1.0 * b, 2.0 * c)
              for b in range(2) for c in range(2)]
    with pytest.raises(UndefinedMetricError):
        granulated_kendall(models, "alpha")


def test_granulated_target_selection():
    models = [
        model((0, 0, 0), 1, 5, acc=0.9),
        model((1, 0, 0), 2, 6, acc=0.1),
    ]
    assert granulated_kendall(models, "alpha").psi == 1.0
    assert granulated_kendall(models, "alpha",
                              target="test_accuracy").psi == -1.0


def test_mean_granulated_empty_rejected():
    with pytest.raises(DomainError):
        mean_granulated([])


# ---------------------------------------------------------------------------
# CMI score


def test_cmi_perfect_measure_scores_100():
    rng = np.random.default_rng(73)
    gaps = rng.permutation(8) + 1.0
    models = []
    for k, tokens in enumerate(itertools.product(range(2), repeat=3)):
        models.append(model(tokens, gaps[k], gaps[k]))
    score = cmi_score(models)
    assert score.final == pytest.approx(100.0)
    for value in score.per_pair.values():
        assert value == pytest.approx(1.0)


def test_cmi_constant_measure_scores_zero():
    models = [model(t, 1.0, float(k))
              for k, t in enumerate(itertools.product(range(2), repeat=3))]
    assert cmi_score(models).final == 0.0


def test_cmi_measure_blind_to_one_axis_gives_zero_minimum():
    # complexity ignores gamma entirely, so conditioning on (alpha, beta)
    # leaves only tied measure pairs -> that slice carries no information
    models = []
    for a, b, c in itertools.product(range(2), repeat=3):
        models.append(model((a, b, c), a + 2 * b, a + 2 * b + 4 * c))
    score = cmi_score(models)
    assert score.final == 0.0
    assert score.per_pair[("alpha", "beta")] == 0.0
    assert score.per_pair[("alpha", "gamma")] == pytest.approx(1.0)
    assert score.per_pair[("beta", "gamma")] == pytest.approx(1.0)
    expect_final, expect_pairs = oracle_cmi(models)
    assert score.final == pytest.approx(expect_final, abs=1e-10)
    for S, val in expect_pairs.items():
        assert score.per_pair[S] == pytest.approx(val, abs=1e-10)


def test_cmi_matches_brute_force_oracle():
    rng = np.random.default_rng(79)
    for trial in range(60):
        models = random_model_set(rng)
        score = cmi_score(models)
        expect_final, expect_pairs = oracle_cmi(models)
        assert score.final == pytest.approx(expect_final, abs=1e-10)
        assert set(score.per_pair) == set(expect_pairs)
        for S, val in expect_pairs.items():
            assert score.per_pair[S] == pytest.approx(val, abs=1e-10)
        assert 0.0 <= score.final <= 100.0


def oracle_retained_pairs(models, target="gen_gap"):
    """Non-tied model pairs inside the cells of each axis pair."""
    names = sorted(models[0].config.values)
    counts = {}
    for S in itertools.combinations(names, 2):
        counts[S] = sum(
            1 for a, b in itertools.combinations(models, 2)
            if all(a.config.values[n] == b.config.values[n] for n in S)
            and _sgn(a.complexity - b.complexity) != 0
            and _sgn(getattr(a, target) - getattr(b, target)) != 0)
    return counts


def first_appearance_cmi(models, target="gen_gap"):
    """Per-pair CMI with cells keyed by token strings and numbered by first
    appearance, fed to the same kernel: the summation order cmi_score
    promises to keep."""
    names = sorted(models[0].config.values)
    measure = [m.complexity for m in models]
    targets = [getattr(m, target) for m in models]
    per = {}
    for S in itertools.combinations(names, 2):
        cells = {}
        cell_of = [cells.setdefault(tuple(m.config.values[n] for n in S),
                                    len(cells)) for m in models]
        per[S], _ = metrics._normalized_sign_information(
            *metrics._concordance(measure, targets, cell_of))
    return per


def test_numeric_tokens_group_in_string_order():
    # numeric and string orders differ on every axis: 9 < 10 but "10" < "9",
    # 5e-05 < 0.05 but "0.05" < "5e-05"
    axes = ((9, 10, 100), (0.05, 0.1, 5e-05), (2, 11, 0.5))
    grid = list(itertools.product(*axes))
    rng = np.random.default_rng(137)
    for trial in range(20):
        picks = rng.integers(0, len(grid), size=int(rng.integers(8, 60)))
        models = [model(grid[k], float(rng.integers(0, 4)),
                        float(rng.integers(0, 4)),
                        acc=float(rng.integers(0, 4))) for k in picks]
        for axis in ("alpha", "beta", "gamma"):
            for target in ("gen_gap", "test_accuracy"):
                expect, included, skipped = oracle_granulated(models, axis,
                                                              target)
                if expect is None:
                    with pytest.raises(UndefinedMetricError):
                        granulated_kendall(models, axis, target)
                    continue
                res = granulated_kendall(models, axis, target)
                assert (res.psi, res.included_groups,
                        res.skipped_groups) == (expect, included, skipped)
        score = cmi_score(models)
        # the closed form and the oracle's probabilities round differently,
        # so values match the oracle to rounding and the old cell order
        # exactly; the pair counts are integers and match exactly
        assert score.per_pair == first_appearance_cmi(models)
        assert score.retained_pairs == oracle_retained_pairs(models)
        expect_final, expect_pairs = oracle_cmi(models)
        assert score.final == pytest.approx(expect_final, abs=1e-12)
        for S, val in expect_pairs.items():
            assert score.per_pair[S] == pytest.approx(val, abs=1e-12)


def test_cmi_requires_three_hyperparams():
    cfg = HyperparamConfig({"alpha": "0", "beta": "1"})
    models = [EvaluatedModel(cfg, 1.0, 1.0, 0.5),
              EvaluatedModel(cfg, 2.0, 2.0, 0.5)]
    with pytest.raises(DomainError):
        cmi_score(models)


def test_cmi_invariant_under_monotone_transforms():
    rng = np.random.default_rng(83)
    models = random_model_set(rng, min_models=8)
    base = cmi_score(models)
    warped = [EvaluatedModel(m.config, math.exp(m.complexity),
                             3.0 * m.gen_gap + 2.0, m.test_accuracy)
              for m in models]
    again = cmi_score(warped)
    assert again.final == pytest.approx(base.final, abs=1e-10)


def random_model_set(rng, min_models=4):
    sizes = [int(rng.integers(2, 4)) for _ in range(3)]
    grid = list(itertools.product(*(range(s) for s in sizes)))
    count = int(rng.integers(min_models, 13))
    picks = rng.integers(0, len(grid), size=count)
    models = []
    for k in picks:
        if rng.random() < 0.5:
            comp = float(rng.integers(0, 3))
            gap = float(rng.integers(0, 3))
        else:
            comp = float(rng.normal())
            gap = float(rng.normal())
        models.append(model(grid[k], comp, gap, acc=float(rng.random())))
    return models


# ---------------------------------------------------------------------------
# the blocked pair-count kernel behind all three ranking statistics


def grid_models(rng, n, sizes, levels):
    """n models drawn with repeats from a grid of the given axis sizes;
    measures and gaps take ``levels`` distinct values, so ties are heavy."""
    grid = list(itertools.product(*(range(k) for k in sizes)))
    picks = rng.integers(0, len(grid), size=n)
    comps = rng.integers(0, levels, size=n)
    gaps = rng.integers(0, levels, size=n)
    return [model(grid[k], c, g, acc=float(rng.integers(0, levels)))
            for k, c, g in zip(picks, comps, gaps)]


def assert_matches_oracles(models):
    pairs = [(m.complexity, m.gen_gap) for m in models]
    assert kendall_tau(pairs) == oracle_tau(pairs)
    for axis in ("alpha", "beta", "gamma"):
        for target in ("gen_gap", "test_accuracy"):
            expect, included, skipped = oracle_granulated(models, axis,
                                                          target)
            if expect is None:
                with pytest.raises(UndefinedMetricError):
                    granulated_kendall(models, axis, target)
                continue
            res = granulated_kendall(models, axis, target)
            assert (res.psi, res.included_groups, res.skipped_groups) == \
                (expect, included, skipped)
    score = cmi_score(models)
    expect_final, expect_pairs = oracle_cmi(models)
    assert score.final == pytest.approx(expect_final, abs=1e-12)
    assert set(score.per_pair) == set(expect_pairs)
    for S, val in expect_pairs.items():
        assert score.per_pair[S] == pytest.approx(val, abs=1e-12)


def test_kernel_matches_oracles_across_blocks_with_heavy_ties():
    # 600 models span three 256-row blocks; with axis sizes (40, 3, 5) the
    # groups of up to 40 models straddle block boundaries
    rng = np.random.default_rng(131)
    assert_matches_oracles(grid_models(rng, 600, (40, 3, 5), levels=6))
    assert_matches_oracles(grid_models(rng, 590, (2, 2, 150), levels=3))


def test_kernel_single_group_spanning_every_block():
    # alpha and beta are constant, so granulating gamma sees one group of
    # 600 models and equals plain tau over all of them
    rng = np.random.default_rng(137)
    models = [model((0, 0, int(rng.integers(0, 30))), int(rng.integers(0, 8)),
                    int(rng.integers(0, 8))) for _ in range(600)]
    res = granulated_kendall(models, "gamma")
    assert (res.included_groups, res.skipped_groups) == (1, 0)
    pairs = [(m.complexity, m.gen_gap) for m in models]
    assert res.psi == kendall_tau(pairs) == oracle_tau(pairs)
    assert_matches_oracles(models)


def test_kernel_all_tied_targets_score_zero():
    rng = np.random.default_rng(139)
    models = [model(m.config.values.values(), m.complexity, 0.25, acc=0.5)
              for m in grid_models(rng, 600, (6, 5, 4), levels=50)]
    assert kendall_tau([(m.complexity, m.gen_gap) for m in models]) == 0.0
    for axis in ("alpha", "beta", "gamma"):
        assert granulated_kendall(models, axis).psi == 0.0
    score = cmi_score(models)
    assert score.final == 0.0
    assert set(score.per_pair.values()) == {0.0}
    assert_matches_oracles(models)


def test_kendall_non_finite_values_count_as_ties():
    rng = np.random.default_rng(149)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, 1.0])
    s = rng.choice(specials, size=600)
    g = rng.choice(specials, size=600)
    s[::7] = rng.normal(size=s[::7].size)
    pairs = list(zip(s.tolist(), g.tolist()))
    assert kendall_tau(pairs) == oracle_tau(pairs)
    assert kendall_tau([(np.nan, 1.0), (np.nan, 2.0)]) == 0.0
    assert kendall_tau([(np.inf, 1.0), (np.inf, 2.0), (0.0, 0.0)]) == \
        oracle_tau([(np.inf, 1.0), (np.inf, 2.0), (0.0, 0.0)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 70),
       block=st.integers(1, 9), levels=st.integers(1, 5),
       sizes=st.tuples(*[st.integers(1, 6)] * 3))
def test_kernel_matches_oracles_for_any_block_size(seed, n, block, levels,
                                                   sizes):
    models = grid_models(np.random.default_rng(seed), n, sizes, levels)
    with mock.patch.object(metrics, "_BLOCK", block):
        assert_matches_oracles(models)


def test_kendall_memory_stays_linear_in_n():
    # one n x n float64 temporary at n = 4000 would be 122 MiB
    rng = np.random.default_rng(151)
    for n in (4000, 100_000):
        pairs = list(zip(rng.normal(size=n).tolist(),
                         rng.integers(0, 9, size=n).tolist()))
        tracemalloc.start()
        try:
            kendall_tau(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def oracle_counts(values, targets, groups):
    """Concordant and discordant unordered pairs inside each group, one
    pair at a time."""
    members = {}
    for k, gid in enumerate(groups):
        members.setdefault(gid, []).append(k)
    concordant = [0] * (max(groups) + 1)
    discordant = [0] * (max(groups) + 1)
    for gid, rows in members.items():
        for a, b in itertools.combinations(rows, 2):
            s = (int(values[a] > values[b]) - int(values[a] < values[b])) * \
                (int(targets[a] > targets[b]) - int(targets[a] < targets[b]))
            concordant[gid] += s > 0
            discordant[gid] += s < 0
    return concordant, discordant


def assert_kernel_matches_oracle(values, targets, groups):
    concordant, discordant = metrics._concordance(values, targets, groups)
    assert concordant.dtype == discordant.dtype == np.int64
    expect = oracle_counts(values, targets, groups)
    assert (concordant.tolist(), discordant.tolist()) == expect


def skewed_layout(rng, n):
    """Group ids for n elements with a few large groups among many small
    ones and singletons, shuffled, with some ids left unused."""
    sizes = rng.zipf(1.6, size=n)
    ids = np.repeat(np.arange(sizes.size), sizes)[:n]
    unused = rng.integers(0, 3, size=ids.max() + 1).cumsum()
    return rng.permutation(ids + unused[ids])


def test_kernel_group_larger_than_block_beside_singletons():
    rng = np.random.default_rng(163)
    groups = np.concatenate([np.zeros(300, dtype=np.intp),
                             np.arange(1, 201), np.full(9, 201)])
    groups = rng.permutation(groups)
    values = rng.integers(0, 20, size=groups.size).astype(float)
    targets = rng.normal(size=groups.size)
    assert_kernel_matches_oracle(values, targets, groups)


def test_kernel_unused_group_ids_count_zero():
    rng = np.random.default_rng(167)
    groups = rng.permutation(np.repeat([3, 7, 8, 20], [6, 1, 40, 5]))
    values = rng.normal(size=groups.size)
    targets = values + rng.normal(size=groups.size)
    concordant, discordant = metrics._concordance(values, targets, groups)
    assert concordant.shape == discordant.shape == (21,)
    unused = np.setdiff1d(np.arange(21), [3, 8, 20])
    assert not concordant[unused].any() and not discordant[unused].any()
    assert_kernel_matches_oracle(values, targets, groups)


def test_kernel_only_singletons_count_nothing():
    rng = np.random.default_rng(173)
    groups = rng.permutation(600) + 5
    values, targets = rng.normal(size=(2, 600))
    concordant, discordant = metrics._concordance(values, targets, groups)
    assert concordant.shape == discordant.shape == (605,)
    assert not concordant.any() and not discordant.any()


def test_kernel_non_finite_and_signed_zero_cells_tie_as_compared():
    rng = np.random.default_rng(179)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0])
    for k in range(6):
        # the last layout holds a group larger than the shipped _BLOCK, so
        # the sorting path meets every special value too
        groups = skewed_layout(rng, 400) if k < 5 else rng.permutation(
            np.repeat([0, 3, 4], [600, 40, 1]))
        values = rng.choice(specials, size=groups.size)
        targets = rng.choice(specials, size=groups.size)
        assert_kernel_matches_oracle(values, targets, groups)
    assert 600 > metrics._BLOCK


@pytest.mark.parametrize("block", range(1, 10))
def test_kernel_matches_pair_loop_for_small_blocks(block):
    rng = np.random.default_rng(181 + block)
    with mock.patch.object(metrics, "_BLOCK", block):
        for n in (1, 2, 7, 60, 150):
            groups = skewed_layout(rng, n)
            values = rng.integers(0, 4, size=n).astype(float)
            targets = rng.normal(size=n)
            targets[::5] = np.nan
            assert_kernel_matches_oracle(values, targets, groups)
        # no groups: one group of every element
        concordant, discordant = metrics._concordance(values, targets)
        assert (concordant.tolist(), discordant.tolist()) == \
            oracle_counts(values, targets, [0] * n)


def test_pairwise_compare_never_sees_a_group_larger_than_block():
    # groups of more than _BLOCK members are sorted; the padded compare
    # takes the others, stacked into steps of at most _BLOCK**2 cells
    rng = np.random.default_rng(193)
    sizes = [600, metrics._BLOCK, metrics._BLOCK + 1, 40, 40, 7] + [5] * 30
    groups = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    values = rng.integers(0, 50, size=groups.size).astype(float)
    targets = rng.normal(size=groups.size)
    shapes = []
    compare = metrics._compare

    def spy(padded):
        shapes.append(padded.shape)
        return compare(padded)

    with mock.patch.object(metrics, "_compare", spy):
        assert_kernel_matches_oracle(values, targets, groups)
    assert max(m for _, m in shapes) == metrics._BLOCK
    assert all(k * m * m <= metrics._BLOCK ** 2 for k, m in shapes)
    # at the shipped _BLOCK the 33 groups of 5 to 40 share one step
    assert set(shapes) == {(33, 40), (1, metrics._BLOCK)}


@pytest.mark.parametrize("small", [1, 2])
def test_kernel_memory_pads_each_step_only_to_its_own_groups(small):
    # one 4000-member group beside 4000 more elements in groups of
    # ``small``; padding every group to the largest would take 61 MiB or
    # more
    rng = np.random.default_rng(191)
    groups = rng.permutation(np.concatenate([
        np.zeros(4000, dtype=np.intp), 1 + np.arange(4000) // small]))
    values, targets = rng.normal(size=(2, groups.size))
    tracemalloc.start()
    try:
        metrics._concordance(values, targets, groups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# R squared


def test_r_squared_examples():
    z = np.array([1.0, 2.0, 3.0])
    assert r_squared(z, z) == 1.0
    assert r_squared(z, np.full(3, z.mean())) == 0.0
    assert r_squared(z, np.array([1.0, 2.0, 4.0])) == pytest.approx(0.5)


def test_r_squared_constant_target_undefined():
    with pytest.raises(UndefinedMetricError):
        r_squared(np.ones(4), np.arange(4.0))


def test_r_squared_can_be_negative():
    z = np.array([1.0, 2.0, 3.0])
    assert r_squared(z, np.array([3.0, 1.0, 2.0])) < 0.0


# ---------------------------------------------------------------------------
# margin signatures


def test_signature_hand_example():
    sig = extract_signature(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert (sig.q1, sig.q2, sig.q3) == (2.0, 3.0, 4.0)
    assert sig.lower_fence == -1.0
    assert sig.upper_fence == 7.0
    assert np.array_equal(sig.as_vector(), [2.0, 3.0, 4.0, -1.0, 7.0])


def test_signature_constant_and_single():
    sig = extract_signature(np.full(6, 2.5))
    assert sig.as_vector().tolist() == [2.5] * 5
    sig = extract_signature(np.array([7.0]))
    assert sig.as_vector().tolist() == [7.0] * 5


def percentile_signature(values):
    """The signature as np.percentile computes its quartiles."""
    q1, q2, q3 = (float(q) for q in np.percentile(np.asarray(values),
                                                  [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    return [q1, q2, q3, q1 - 1.5 * iqr, q3 + 1.5 * iqr]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


# a quartile of a sample holding both +0.0 and -0.0 may take either sign,
# so samples hold +0.0 only (x + 0.0 turns -0.0 into +0.0)
_SAMPLE_VALUES = st.one_of(
    st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0]),
    st.integers(-4, 4).map(float),
    st.floats(min_value=-1e300, max_value=1e300).map(lambda x: x + 0.0),
    st.floats(min_value=-1e-300, max_value=1e-300).map(lambda x: x + 0.0),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(values=st.integers(1, 300).flatmap(
    lambda n: st.lists(_SAMPLE_VALUES, min_size=n, max_size=n)))
def test_signature_matches_percentile_bit_for_bit(values):
    got = extract_signature(np.array(values)).as_vector()
    assert bits(got) == bits(percentile_signature(values))


def test_signature_matches_percentile_on_tied_and_large_samples():
    rng = np.random.default_rng(139)
    for n in list(range(1, 60)) + [200, 1001, 4096]:
        for values in (rng.normal(size=n), np.round(rng.normal(size=n)) + 0.0,
                       np.exp(rng.normal(scale=20.0, size=n))):
            got = extract_signature(values).as_vector()
            assert bits(got) == bits(percentile_signature(values))


def test_signature_matches_percentile_on_any_input_layout():
    # the sample is copied once and sorted in place: every layout must give
    # the flattened sample's quartiles, and the caller's values must stay
    rng = np.random.default_rng(149)
    grid = rng.normal(size=(6, 7))
    for values in (rng.normal(size=30), grid.ravel().tolist(),
                   tuple(grid.ravel()), rng.integers(-50, 50, size=23),
                   rng.integers(-50, 50, size=(4, 5)).astype(np.int32), grid,
                   np.asfortranarray(grid), grid.T, grid[::2, ::3],
                   grid.ravel()[::3], grid[:, 5]):
        before = np.array(values, dtype=np.float64)
        got = extract_signature(values).as_vector()
        assert bits(got) == bits(percentile_signature(np.ravel(values)))
        assert bits(np.array(values, dtype=np.float64).ravel()) \
            == bits(before.ravel())


def test_signature_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            extract_signature(np.array([1.0, bad, 2.0]))


def test_signature_empty_rejected():
    with pytest.raises(DomainError):
        extract_signature(np.array([]))


def test_signature_quartiles_ordered():
    rng = np.random.default_rng(89)
    for _ in range(25):
        sig = extract_signature(rng.normal(size=int(rng.integers(1, 40))))
        assert sig.q1 <= sig.q2 <= sig.q3
        assert sig.lower_fence <= sig.q1
        assert sig.upper_fence >= sig.q3


# ---------------------------------------------------------------------------
# linear predictor and cross-validation


def synthetic_signatures(rng, n, noise=0.0):
    theta = rng.uniform(0.5, 3.0, size=(n, 5))
    alpha = np.array([0.8, -0.4, 0.3, 1.1, -0.7])
    gaps = np.log(theta) @ alpha + 0.3 + noise * rng.normal(size=n)
    return theta, gaps


def test_predictor_recovers_exact_linear_law():
    rng = np.random.default_rng(97)
    theta, gaps = synthetic_signatures(rng, 30)
    fit = fit_linear_predictor(theta, gaps)
    assert fit.underdetermined is False
    pred = predict_gap(fit, theta)
    assert r_squared(gaps, pred) == pytest.approx(1.0, abs=1e-10)


def test_predictor_heldout_r2_on_noiseless_data():
    rng = np.random.default_rng(101)
    theta, gaps = synthetic_signatures(rng, 36)
    cv = cross_validate_predictor(theta, gaps, k=3, shuffles=5, seed=0)
    assert cv.mean_r2 >= 1.0 - 1e-8
    assert len(cv.per_fold) == 15


def test_predictor_flat_signatures_predict_the_mean():
    rng = np.random.default_rng(103)
    theta = np.ones((10, 5)) * 2.0
    gaps = rng.normal(size=10)
    fit = fit_linear_predictor(theta, gaps)
    pred = predict_gap(fit, theta)
    assert np.allclose(pred, gaps.mean(), atol=1e-5)
    assert abs(r_squared(gaps, pred)) <= 1e-6


def test_predictor_underdetermined_flagged():
    rng = np.random.default_rng(107)
    theta, gaps = synthetic_signatures(rng, 4)
    assert fit_linear_predictor(theta, gaps).underdetermined is True


def test_predictor_single_vector_prediction_is_scalar():
    rng = np.random.default_rng(109)
    theta, gaps = synthetic_signatures(rng, 12)
    fit = fit_linear_predictor(theta, gaps)
    value = predict_gap(fit, theta[0])
    assert isinstance(value, float)


@pytest.mark.parametrize("features", [
    np.full(5, np.nan), np.full((2, 5), np.inf),
    np.array([2.0, 2.0, 2.0, 2.0, -np.inf]), np.ones(3), np.ones((2, 6)),
    np.ones((2, 2, 5))],
    ids=["nan", "inf", "minus-inf", "narrow", "wide", "rank-3"])
def test_predict_gap_rejects_non_finite_or_misfit_signatures(features):
    rng = np.random.default_rng(113)
    theta, gaps = synthetic_signatures(rng, 12)
    fit = fit_linear_predictor(theta, gaps)
    with pytest.raises(DomainError):
        predict_gap(fit, features)


def test_kfold_sizes_disjoint_and_seeded():
    folds = kfold_splits(96, 3, seed=5, shuffle_index=0)
    assert [len(f) for f in folds] == [32, 32, 32]
    joined = np.concatenate(folds)
    assert len(set(joined.tolist())) == 96
    again = kfold_splits(96, 3, seed=5, shuffle_index=0)
    for a, b in zip(folds, again):
        assert np.array_equal(a, b)
    other = kfold_splits(96, 3, seed=5, shuffle_index=1)
    assert any(not np.array_equal(a, b) for a, b in zip(folds, other))


def test_kfold_rejects_bad_k():
    with pytest.raises(DomainError):
        kfold_splits(4, 1, seed=0, shuffle_index=0)
    with pytest.raises(DomainError):
        kfold_splits(4, 5, seed=0, shuffle_index=0)


@pytest.mark.parametrize("shuffles", [0, -1])
def test_cross_validation_rejects_fewer_than_one_shuffle(shuffles):
    theta, gaps = synthetic_signatures(np.random.default_rng(113), 12)
    with pytest.raises(DomainError):
        cross_validate_predictor(theta, gaps, k=3, shuffles=shuffles)


def per_fold_cross_validation(features, gaps, k, shuffles, seed):
    """Cross-validation as a loop of public calls: each fold is fitted by
    ``fit_linear_predictor``, predicted by ``predict_gap`` and scored by
    ``r_squared``; a score or mean that is not finite is a NumericalError."""
    F = np.asarray(features, dtype=np.float64)
    g = np.asarray(gaps, dtype=np.float64).ravel()
    scores = []
    for shuffle_index in range(shuffles):
        for fold in kfold_splits(g.size, k, seed, shuffle_index):
            mask = np.ones(g.size, dtype=bool)
            mask[fold] = False
            fit = fit_linear_predictor(F[mask], g[mask])
            scores.append(r_squared(g[fold], predict_gap(fit, F[fold])))
            if not math.isfinite(scores[-1]):
                raise NumericalError("a non-finite fold score")
    mean_r2 = sum(scores) / len(scores)
    if not math.isfinite(mean_r2):
        raise NumericalError("a non-finite mean score")
    return CrossValResult(mean_r2=mean_r2, per_fold=tuple(scores))


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type of the error it raises."""
    try:
        return fn(*args)
    except WorkbenchError as exc:
        return type(exc)


# signature cells: ordinary, at or below the log clamp, and large enough
# that a fit's normal equations lose their ridge
_SIGNATURE_CELLS = st.one_of(
    st.floats(0.01, 100.0),
    st.sampled_from([0.0, -1.0, 1e-13, 1e-12, 1.0, 1e100, 1e300]))
_GAP_CELLS = st.one_of(st.floats(-10.0, 10.0),
                       st.sampled_from([0.0, 1.0, 1e300, -1e308]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cross_validation_equals_the_per_fold_loop(data):
    n = data.draw(st.integers(2, 24))
    features = np.array(data.draw(st.lists(
        st.lists(_SIGNATURE_CELLS, min_size=5, max_size=5),
        min_size=n, max_size=n)))
    gaps = np.array(data.draw(st.lists(_GAP_CELLS, min_size=n, max_size=n)))
    k = data.draw(st.integers(2, min(n, 5)))
    args = (features, gaps, k, data.draw(st.integers(1, 3)),
            data.draw(st.integers(0, 2 ** 32)))
    got = outcome(cross_validate_predictor, *args)
    want = outcome(per_fold_cross_validation, *args)
    if isinstance(want, CrossValResult):
        assert isinstance(got, CrossValResult)  # bit for bit
        assert np.array([got.mean_r2, *got.per_fold]).tobytes() == \
            np.array([want.mean_r2, *want.per_fold]).tobytes()
    else:
        # a held-out gap of 1e300 overflows r_squared's sums to a score of
        # -inf or NaN, a NumericalError on both paths
        assert got is want


def test_cross_validation_names_the_fold_whose_score_is_not_finite():
    with pytest.raises(NumericalError, match="fold 0 of shuffle 0 scores"):
        cross_validate_predictor(np.ones((5, 5)),
                                 np.array([0, 0, 0, 1, 1e300]), k=2,
                                 shuffles=1, seed=0)


def test_cross_validation_rejects_a_mean_score_that_overflows():
    # two finite fold scores whose sum overflows
    theta, gaps = synthetic_signatures(np.random.default_rng(113), 12)
    with mock.patch.object(metrics, "r_squared", return_value=-1e308), \
            pytest.raises(NumericalError, match="mean held-out R"):
        cross_validate_predictor(theta, gaps, k=2, shuffles=1)


_CV_FEATURES = np.random.default_rng(127).uniform(0.5, 3.0, size=(9, 5))


def _singular_after_fold_one():
    """Signatures that only row 0 keeps from being constant near the float
    limit: a fold that holds row 0 out has singular normal equations."""
    features = np.full((9, 5), 1e300)
    features[0] = _CV_FEATURES[0]
    return features


@pytest.mark.parametrize("features,gaps,error", [
    (_CV_FEATURES, np.where(np.arange(9) == 4, np.nan, 1.0 * np.arange(9)),
     DomainError),
    (_CV_FEATURES, np.where(np.arange(9) == 7, np.inf, 1.0 * np.arange(9)),
     DomainError),
    (np.full((9, 5), 1e300), np.arange(9.0), FitError),
    (_singular_after_fold_one(), np.arange(9.0), FitError),
    (_CV_FEATURES, np.full(9, 1e308) * (-1.0) ** np.arange(9), FitError),
], ids=["nan-gap", "inf-gap", "singular", "singular-later-fold",
        "non-finite-coefficients"])
def test_cross_validation_raises_what_the_per_fold_loop_raises(features,
                                                               gaps, error):
    for seed in range(4):
        args = (features, gaps, 3, 2, seed)
        assert outcome(per_fold_cross_validation, *args) is error
        assert outcome(cross_validate_predictor, *args) is error


# ---------------------------------------------------------------------------
# model bookkeeping


def test_hyperparam_config_tokens_are_stringified():
    cfg = HyperparamConfig({"lr": 0.1, "width": 32})
    assert cfg.values == {"lr": "0.1", "width": "32"}


@pytest.mark.parametrize("values", [{}, None, "ab", [("a", "1")]])
def test_hyperparam_config_needs_a_non_empty_mapping(values):
    with pytest.raises(DomainError, match="non-empty mapping"):
        HyperparamConfig(values)


def test_evaluated_model_rejects_non_finite():
    cfg = HyperparamConfig({"a": "x", "b": "y", "c": "z"})
    with pytest.raises(DomainError):
        EvaluatedModel(cfg, float("nan"), 0.0, 0.5)


@pytest.mark.parametrize("value", [float("inf"), "1.0", True, 2 ** 1100,
                                   np.ones(1)])
def test_evaluated_model_takes_finite_numbers_only(value):
    # text leaked numpy's TypeError; a bool and a one-value array passed
    cfg = HyperparamConfig({"a": "x"})
    with pytest.raises(DomainError, match="complexity must be a finite"):
        EvaluatedModel(cfg, value, 0.0, 0.5)


def test_evaluated_model_takes_numpy_scalars_as_python_numbers():
    cfg = HyperparamConfig({"a": "x"})
    model = EvaluatedModel(cfg, np.float32(0.5), np.int64(1), 0.5)
    assert table_of([model]).complexity.tolist() == [0.5]


def test_metric_schema_mismatch_rejected():
    good = model((0, 0, 0), 1.0, 1.0)
    bad = EvaluatedModel(HyperparamConfig({"alpha": "0", "beta": "0"}),
                         2.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        granulated_kendall([good, bad], "alpha")
    with pytest.raises(DomainError):
        cmi_score([good, bad])


# ---------------------------------------------------------------------------
# the columnar model table


# numeric tokens whose string order differs from their numeric order
_TOKENS = [str(3 ** k % 101) for k in range(20)]


def perturbed_models(rng, n, protos):
    """n models, each a copy of a row of the token-index matrix ``protos``
    with one axis redrawn, so single-axis groups form at any number of
    axes."""
    tokens, axes = int(protos.max()) + 1, protos.shape[1]
    names = tuple(f"h{j:02d}" for j in range(axes))
    rows = protos[rng.integers(0, len(protos), size=n)]
    rows[np.arange(n), rng.integers(0, axes, size=n)] = \
        rng.integers(0, tokens, size=n)
    values = rng.integers(0, 4, size=(n, 3)).astype(float)
    return [model([_TOKENS[t] for t in row], c, g, acc=a, names=names)
            for row, (c, g, a) in zip(rows, values)], names


def table_of(models):
    """The table built from token columns and value arrays, as the CLI
    loader builds it, without going through ``EvaluatedModel``."""
    names = models[0].config.values
    return ModelTable.from_tokens(
        {name: [m.config.values[name] for m in models] for name in names},
        np.array([m.complexity for m in models]),
        np.array([m.gen_gap for m in models]),
        np.array([m.test_accuracy for m in models]))


def assert_table_matches_models(models, names):
    table = table_of(models)
    assert table.names == tuple(sorted(names))
    for axis in names:
        for target in ("gen_gap", "test_accuracy"):
            expect, included, skipped = oracle_granulated(models, axis,
                                                          target)
            if expect is None:
                for arg in (table, models):
                    with pytest.raises(UndefinedMetricError):
                        granulated_kendall(arg, axis, target)
                continue
            res = granulated_kendall(table, axis, target)
            assert res == granulated_kendall(models, axis, target)
            assert (res.psi, res.included_groups, res.skipped_groups) == \
                (expect, included, skipped)
    if len(names) >= 3:
        score = cmi_score(table)
        # dataclass equality: per_pair, final and retained_pairs, bit for bit
        assert score == cmi_score(models)
        assert score.per_pair == first_appearance_cmi(models)
        assert score.retained_pairs == oracle_retained_pairs(models)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60),
       axes=st.integers(1, 6), tokens=st.integers(1, 20))
def test_table_scores_match_models_bit_for_bit(seed, n, axes, tokens):
    rng = np.random.default_rng(seed)
    protos = rng.integers(0, tokens, size=(max(1, n // 6), axes))
    models, names = perturbed_models(rng, n, protos)
    assert_table_matches_models(models, names)


def test_table_groups_where_a_mixed_radix_key_would_overflow():
    # every axis holds all 20 tokens, so the other axes of any one span
    # 20**15 > 2**63 keys
    protos = (7 * np.arange(20)[:, None] + np.arange(16)) % 20
    models, names = perturbed_models(np.random.default_rng(157), 160, protos)
    table = table_of(models)
    assert (table.codes.max(axis=0) == 19).all()
    assert_table_matches_models(models, names)
    # group ids follow the sorted order of the other axes' token tuples,
    # which fixes the order in which the group taus are summed
    for axis in names:
        with mock.patch.object(metrics, "_concordance",
                               wraps=metrics._concordance) as kernel:
            with contextlib.suppress(UndefinedMetricError):
                granulated_kendall(table, axis)
        others = [tuple(v for n, v in sorted(m.config.values.items())
                        if n != axis) for m in models]
        rank = {key: k for k, key in enumerate(sorted(set(others)))}
        assert kernel.call_args.args[2].tolist() == [rank[key]
                                                     for key in others]


# raw hyperparameter values of every kind a JSON models file can hold
_NAN, _INF = float("nan"), float("inf")
_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_BEYOND_INT64 = st.one_of(st.integers(2 ** 63, 2 ** 70),
                          st.integers(-2 ** 70, -2 ** 63 - 1))
_FINITE = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(allow_nan=False, allow_infinity=False))
_ODD_VALUES = [_NAN, _INF, -_INF, True, False, None, "x", "1", "", [1],
               [1, 2.0], 1, 1.0, -0.0, 0.0, 0, 2 ** 63]
# each column draws its values from one of these: a few ints or floats
# whose string order is not their order, so groups form, then wider draws
_TOKEN_KINDS = [
    st.integers(-3, 12), st.sampled_from([9, 10, 100, -2 ** 63, 2 ** 63 - 1]),
    _INT64, st.one_of(_INT64, _BEYOND_INT64),
    st.sampled_from([0.5, 0.05, 5e-05, 10.0, 1e16, 1e-07, -2.5]),
    _FINITE, st.sampled_from([0.0, -0.0, 1.0]),
    st.one_of(_FINITE, st.sampled_from([_NAN, _INF, -_INF])),
    st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2), st.sampled_from([1, 1.0, True]),
    st.sampled_from(_ODD_VALUES),
    st.one_of(st.integers(-3, 3), _FINITE, st.sampled_from(_ODD_VALUES)),
]


def stringified_table(columns, n):
    """The reference: the table of each value's str()."""
    zeros = np.zeros(n)
    return ModelTable.from_tokens(
        {name: [str(v) for v in column] for name, column in columns.items()},
        zeros, zeros, zeros)


def assert_codes_of_strings(columns, n):
    zeros = np.zeros(n)
    got = ModelTable.from_tokens(columns, zeros, zeros, zeros)
    want = stringified_table(columns, n)
    assert got.names == want.names
    assert got.codes.dtype == want.codes.dtype
    assert got.codes.tolist() == want.codes.tolist()
    # the reference's ids are ranks in sorted string order
    for j, column in enumerate(columns[name] for name in want.names):
        strings = [str(v) for v in column]
        rank = {s: r for r, s in enumerate(sorted(set(strings)))}
        assert want.codes[:, j].tolist() == [rank[s] for s in strings]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_from_tokens_codes_raw_values_as_their_strings(data):
    n = data.draw(st.integers(1, 30))
    columns = {f"h{j}": data.draw(st.lists(
        data.draw(st.sampled_from(_TOKEN_KINDS)), min_size=n, max_size=n))
        for j in range(data.draw(st.integers(1, 4)))}
    assert_codes_of_strings(columns, n)


@pytest.mark.parametrize("column", [
    [0.0, -0.0, 0.5, 0.0], [-0.0, -0.0], [1, 1.0, True, 1], [2 ** 63, 1, 1],
    [-2 ** 63 - 1, 5], [_NAN, _NAN, 1.0], [_INF, 1.0, _INF], [None, 0],
    [9, 10, 100, 9], [0.05, 5e-05, 0.1, 0.05], ["10", "9"], [[1], [1]],
    [True, False, True], [1, 1.0, 2]],
    ids=["signed-zeros", "minus-zeros", "one-int-float-bool", "beyond-int64",
         "below-int64", "nan", "inf", "none", "int-order", "float-order",
         "strings", "lists", "bools", "ints-and-floats"])
def test_from_tokens_codes_each_kind_of_value_as_its_string(column):
    assert_codes_of_strings({"a": column}, len(column))


def test_from_tokens_gives_each_string_its_own_token_in_string_order():
    zeros = np.zeros(2)
    # 1 and 1.0 have two strings; "10" sorts before "2"
    for column, codes in (([1, 1.0], [[0], [1]]), ([2, 10], [[1], [0]])):
        table = ModelTable.from_tokens({"a": column}, zeros, zeros, zeros)
        assert table.codes.tolist() == codes


def test_from_tokens_rejects_a_short_column():
    with pytest.raises(DomainError, match="one value per model, 2 in all"):
        ModelTable.from_tokens({"a": [1, 2], "b": [1]}, np.ones(2),
                               np.ones(2), np.ones(2))


def test_model_table_rejects_bad_columns():
    good = table_of([model((0, 0, 0), 1.0, 1.0), model((1, 0, 0), 2.0, 2.0)])
    for change in ({"complexity": np.array([1.0, np.nan])},
                   {"gen_gap": np.array([1.0])},
                   {"codes": good.codes[:, :2]},
                   {"codes": good.codes + 1},
                   {"codes": good.codes[:0], "complexity": np.array([]),
                    "gen_gap": np.array([]), "test_accuracy": np.array([])}):
        with pytest.raises(DomainError):
            dataclasses.replace(good, **change)
