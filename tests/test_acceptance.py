"""End-to-end acceptance checks for the margin workbench.

Each test exercises one externally visible guarantee of the package, from
closed-form exactness on linear classifiers up to full CLI pipelines, at the
tolerances the guarantee is stated with. Tests that train networks pin every
seed, so their behavior is a deterministic property of the code under test.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

import test_margin
import test_metrics
import test_pca
from marginlab.advdir import adv_directions, cumulative_share
from marginlab.cli import ExperimentConfig, main, run_capacity_sweep
from marginlab.data import (BlobConfig, Dataset, corrupt_labels, gen_blobs,
                            normalize, save_dataset)
from marginlab.errors import UndefinedMetricError
from marginlab.margin import (SearchConfig, constrained_deepfool_margin,
                              constrained_taylor_margin, deepfool_margin,
                              deepfool_margin_batch, taylor_margin)
from marginlab.metrics import (cmi_score, cross_validate_predictor,
                               extract_signature, granulated_kendall,
                               kendall_tau)
from marginlab.nnet import (DenseLayer, Network, TrainConfig, forward_batch,
                            init_network, logit_diff_grad, predict_batch,
                            train_sgd)
from marginlab.pca import fit_pca, select_components_kneedle


# ---------------------------------------------------------------------------
# 1. closed-form exactness on linear classifiers


def test_linear_classifiers_all_estimators_match_analytic_distance():
    rng = np.random.default_rng(7)
    fine = SearchConfig(learning_rate=0.25, stop_tolerance=1e-7,
                        max_iters=300)
    unit = SearchConfig(learning_rate=1.0, stop_tolerance=1e-7,
                        max_iters=300)
    started = time.monotonic()
    for _ in range(100):
        net = test_margin.random_affine(rng, dim=10, classes=3)
        x = rng.normal(size=10)
        expected = test_margin.analytic_linear_margin(net, x)
        pca = test_margin.orthonormal_pca(rng, 10)

        closed_form = taylor_margin(net, 0, x)
        assert abs(closed_form.d_best - expected) <= 1e-4
        # the closed form returns no iterate, so evaluate the logit gap at
        # the boundary point it implies
        i, j = closed_form.class_pair
        _, grad = logit_diff_grad(net, 0, x, i, j)
        implied = x - closed_form.d_best * grad / np.linalg.norm(grad)
        logits = forward_batch(net, implied[None, :])[-1][0]
        assert abs(logits[i] - logits[j]) <= 1e-3

        iterative = [
            deepfool_margin(net, 0, x, unit),
            deepfool_margin(net, 0, x, fine),
            constrained_deepfool_margin(net, x, pca, 10, unit),
        ]
        for r in iterative:
            assert abs(r.d_best - expected) <= 1e-4
            assert r.v_best <= 1e-3
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# 2. analytic gradients against central finite differences


def _hidden_preacts(net, x):
    """Pre-activation vectors of every ReLU layer at input x."""
    a = np.asarray(x, dtype=np.float64)
    out = []
    for layer in net.layers:
        z = layer.weights @ a + layer.bias
        if layer.activation == "relu":
            out.append(z)
            a = np.maximum(z, 0.0)
        else:
            a = z
    return out


def test_logit_difference_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    checked = 0
    for trial in range(100):
        dim = int(rng.integers(4, 8))
        hidden = ([int(rng.integers(5, 12))] if trial % 2 == 0
                  else [int(rng.integers(5, 10)), int(rng.integers(4, 8))])
        classes = int(rng.integers(2, 5))
        net = init_network(dim, hidden, classes, seed=trial)

        x = None
        for _ in range(50):
            cand = rng.normal(scale=2.0, size=dim)
            if all(np.min(np.abs(z)) > 1e-3
                   for z in _hidden_preacts(net, cand)):
                x = cand
                break
        assert x is not None, "could not find a point away from ReLU kinks"

        i = int(rng.integers(0, classes))
        j = (i + 1 + int(rng.integers(0, classes - 1))) % classes
        _, grad = logit_diff_grad(net, 0, x, i, j)

        grad_fd = np.empty(dim)
        for k in range(dim):
            bump = np.zeros(dim)
            bump[k] = h
            lo = forward_batch(net, (x - bump)[None, :])[-1][0]
            hi = forward_batch(net, (x + bump)[None, :])[-1][0]
            grad_fd[k] = ((hi[i] - hi[j]) - (lo[i] - lo[j])) / (2.0 * h)
        assert np.max(np.abs(grad - grad_fd)) <= 1e-6
        checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# 3. full-rank projection reduces to the unconstrained estimate


def test_full_rank_projection_margin_equals_unconstrained():
    rng = np.random.default_rng(13)
    for _ in range(50):
        hidden = DenseLayer(weights=rng.normal(size=(7, 5)),
                            bias=rng.normal(size=7), activation="relu")
        out = DenseLayer(weights=rng.normal(size=(3, 7)),
                         bias=rng.normal(size=3), activation="none")
        net = Network(layers=[hidden, out], input_dim=5, num_classes=3,
                      norm_meta=None)
        # a point where every ReLU unit is dead has no margin at all;
        # resample so the comparison is made where the estimate exists
        while True:
            x = rng.normal(size=5)
            if np.any(hidden.weights @ x + hidden.bias > 1e-6):
                break
        pca = test_margin.orthonormal_pca(rng, 5)
        full = constrained_taylor_margin(net, x, pca, 5)
        plain = taylor_margin(net, 0, x)
        assert abs(full.d_best - plain.d_best) <= 1e-10


# ---------------------------------------------------------------------------
# 4. a smaller search rate refines distances using more steps


def test_quarter_rate_search_refines_distances_with_more_steps():
    coarse = SearchConfig(learning_rate=1.0, stop_tolerance=1e-6,
                          max_iters=100)
    fine = SearchConfig(learning_rate=0.25, stop_tolerance=1e-6,
                        max_iters=100)
    trace_cfg = SearchConfig(learning_rate=0.25, stop_tolerance=1e-6,
                             max_iters=100)
    for seed in range(5):
        ds, _ = normalize(gen_blobs(BlobConfig(classes=3, samples_per_class=40,
                                               dim=4, spread=0.9, seed=seed)),
                          "znorm")
        net = init_network(4, [16], 3, seed=seed)
        net = train_sgd(net, ds, TrainConfig(epochs=60, batch_size=16,
                                             learning_rate=0.05, seed=seed))
        kept = np.flatnonzero(predict_batch(net, ds.features) == ds.labels)
        assert kept.size > 0

        coarse_runs = deepfool_margin_batch(net, 0, ds.features[kept], coarse)
        fine_runs = deepfool_margin_batch(net, 0, ds.features[kept], fine)
        mean_coarse = np.mean([r.d_best for r in coarse_runs])
        mean_fine = np.mean([r.d_best for r in fine_runs])
        assert mean_fine <= mean_coarse + 1e-9
        assert (sum(r.steps for r in fine_runs)
                >= sum(r.steps for r in coarse_runs))

        for idx in kept[:10]:
            trace = deepfool_margin(net, 0, ds.features[idx], trace_cfg,
                                    collect_trace=True).trace
            violations = [v for _, v in trace]
            assert all(b < a for a, b in zip(violations, violations[1:]))


# ---------------------------------------------------------------------------
# 5. ranking metrics against brute-force enumeration


def test_ranking_metrics_match_enumeration_oracles():
    rng = np.random.default_rng(17)
    for _ in range(200):
        models = test_metrics.random_model_set(rng)

        pairs = [(m.complexity, m.gen_gap) for m in models]
        assert kendall_tau(pairs) == test_metrics.oracle_tau(pairs)

        for axis in ("alpha", "beta", "gamma"):
            expect, included, skipped = test_metrics.oracle_granulated(
                models, axis)
            if expect is None:
                with pytest.raises(UndefinedMetricError):
                    granulated_kendall(models, axis)
                continue
            res = granulated_kendall(models, axis)
            assert res.psi == expect
            assert res.included_groups == included
            assert res.skipped_groups == skipped

        score = cmi_score(models)
        expect_final, expect_pairs = test_metrics.oracle_cmi(models)
        assert score.final == pytest.approx(expect_final, abs=1e-10)
        for S, val in expect_pairs.items():
            assert score.per_pair[S] == pytest.approx(val, abs=1e-10)


def test_measure_equal_to_gap_is_a_perfect_predictor():
    rng = np.random.default_rng(21)
    gaps = rng.permutation(8) + 1.0
    models = [test_metrics.model(tokens, gaps[k], gaps[k])
              for k, tokens in enumerate(itertools.product(range(2),
                                                           repeat=3))]
    assert kendall_tau([(m.complexity, m.gen_gap) for m in models]) == 1.0
    for axis in ("alpha", "beta", "gamma"):
        assert granulated_kendall(models, axis).psi == 1.0
    assert cmi_score(models).final == pytest.approx(100.0, abs=1e-10)


# ---------------------------------------------------------------------------
# 6. capacity sweep reproduces the margin ordering on a hard grid task


def _checkerboard(seed, per_cluster, cell=4.0, sigma=0.8):
    """3x3 grid of clusters labeled diagonally, so capacity is strained."""
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for i in range(3):
        for j in range(3):
            center = np.array([cell * i, cell * j])
            feats.append(center + rng.normal(0, sigma, size=(per_cluster, 2)))
            labels.append(np.full(per_cluster, (i + j) % 3))
    X = np.concatenate(feats)
    y = np.concatenate(labels).astype(np.int64)
    pad = 0.05 * (X.max(axis=0) - X.min(axis=0))
    return Dataset(features=X, labels=y, lower=X.min(axis=0) - pad,
                   upper=X.max(axis=0) + pad,
                   corrupt_flags=np.zeros(len(y), dtype=np.int64),
                   class_count=3)


def test_capacity_sweep_reproduces_margin_ordering(tmp_path):
    master = 2
    train_path = tmp_path / "train.csv"
    test_path = tmp_path / "test.csv"
    save_dataset(_checkerboard(master * 7 + 1, 20), train_path)
    save_dataset(_checkerboard(master * 7 + 2, 20), test_path)

    widths = (8, 16, 32, 64, 128)
    cfg = ExperimentConfig(
        blob=None, dataset_path=str(train_path), test_path=str(test_path),
        corruptions=(("label", 0.2), ("input", 0.2)),
        widths=widths, seeds=(0, 1, 2),
        train=TrainConfig(epochs=1000, batch_size=16, learning_rate=0.1,
                          momentum=0.9),
        estimator="deepfool",
        search=SearchConfig(learning_rate=0.25, stop_tolerance=1e-3,
                            max_iters=100),
        normalize="znorm", output_dir=str(tmp_path / "out"), seed=master)

    started = time.monotonic()
    info = run_capacity_sweep(cfg)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    assert set(info["files"]) == {"margins.csv", "per_sample_margins.csv",
                                  "max_margins.csv", "summary.json"}

    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    per_width = summary["per_width"]
    clean_clean = [per_width[str(w)]["clean:clean"] for w in widths]
    clean_on_corrupted = [per_width[str(w)]["clean:label-corrupted"]
                          for w in widths]
    corrupt_on_corrupted = [per_width[str(w)]["corrupt:label-corrupted"]
                            for w in widths]

    # (a) clean-sample margins grow with capacity, at most one inversion
    inversions = sum(1 for a, b in zip(clean_clean, clean_clean[1:])
                     if b < a)
    assert inversions <= 1
    # (b) within corrupted models, flipped samples sit closer to the boundary
    assert all(r < c for r, c in zip(corrupt_on_corrupted,
                                     clean_on_corrupted))
    # (c) label corruption shrinks clean-sample margins at matched width
    assert all(l < c for l, c in zip(clean_on_corrupted, clean_clean))
    # (d) label corruption shrinks the data's own separability ceiling
    assert (summary["max_margin"]["label-corrupted"]
            < summary["max_margin"]["clean"])


# ---------------------------------------------------------------------------
# 7. projected margins rank models at least as well as raw input margins


def _grid_with_nuisance(seed, per_cluster, nuisance_dims, nuisance_scale,
                        cell=4.0, sigma=0.8):
    """Checkerboard task in two informative dims plus tiny nuisance dims."""
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for i in range(3):
        for j in range(3):
            center = np.array([cell * (i - 1), cell * (j - 1)])
            block = np.zeros((per_cluster, 2 + nuisance_dims))
            block[:, :2] = center + rng.normal(0, sigma,
                                               size=(per_cluster, 2))
            block[:, 2:] = rng.normal(0, nuisance_scale,
                                      size=(per_cluster, nuisance_dims))
            feats.append(block)
            labels.append(np.full(per_cluster, (i + j) % 3))
    X = np.concatenate(feats)
    y = np.concatenate(labels).astype(np.int64)
    pad = 0.05 * (X.max(axis=0) - X.min(axis=0)) + 1e-9
    return Dataset(features=X, labels=y, lower=X.min(axis=0) - pad,
                   upper=X.max(axis=0) + pad,
                   corrupt_flags=np.zeros(len(y), dtype=np.int64),
                   class_count=3)


def test_projected_margins_rank_models_at_least_as_well():
    master = 2
    widths = (8, 16, 32, 64, 128, 256)
    train_ds = _grid_with_nuisance(master * 31 + 1, 12, 16, 0.02)
    test_ds = _grid_with_nuisance(master * 31 + 2, 40, 16, 0.02)
    corrupt_ds, _ = corrupt_labels(train_ds, 0.4, master * 31 + 3)

    batch_cfg = SearchConfig(learning_rate=0.25, stop_tolerance=1e-3,
                             max_iters=60)
    single_cfg = SearchConfig(learning_rate=0.25, stop_tolerance=1e-3,
                              max_iters=60)
    rows = []
    for tag, ds in (("clean", train_ds), ("corrupt", corrupt_ds)):
        pca = fit_pca(ds.features)
        m = select_components_kneedle(pca).m
        assert m == 2  # the informative plane is found automatically
        for w in widths:
            net = init_network(ds.feature_count, [w, w], ds.class_count,
                               seed=master * 1000 + w)
            net = train_sgd(net, ds, TrainConfig(epochs=1500, batch_size=16,
                                                 learning_rate=0.05,
                                                 seed=master * 1000 + w + 7))
            acc = float(np.mean(predict_batch(net, test_ds.features)
                                == test_ds.labels))
            kept = np.flatnonzero(predict_batch(net, ds.features)
                                  == ds.labels)
            assert kept.size > 0
            standard = np.mean(
                [r.d_best for r in deepfool_margin_batch(
                    net, 0, ds.features[kept], batch_cfg)])
            constrained = np.mean(
                [constrained_deepfool_margin(net, ds.features[idx], pca, m,
                                             single_cfg).d_best
                 for idx in kept])
            rows.append((tag, acc, float(standard), float(constrained)))

    assert len(rows) == 12
    clean_accs = [acc for tag, acc, _, _ in rows if tag == "clean"]
    corrupt_accs = [acc for tag, acc, _, _ in rows if tag == "corrupt"]
    assert max(corrupt_accs) < min(clean_accs)

    tau_standard = kendall_tau([(std, acc) for _, acc, std, _ in rows])
    tau_constrained = kendall_tau([(con, acc) for _, acc, _, con in rows])
    assert tau_constrained >= tau_standard
    assert tau_constrained >= 0.5


# ---------------------------------------------------------------------------
# 8. distribution signatures linearly predict a held-out performance gap


def test_distribution_signature_predicts_held_out_gap():
    rng = np.random.default_rng(23)
    coeffs = np.array([0.8, -0.5, 0.3, 0.6, -0.4])
    intercept = 0.2
    features = []
    gaps = []
    for _ in range(60):
        base = rng.uniform(1.0, 3.0)
        width = rng.uniform(0.2, 0.6)
        margins = rng.uniform(base, base + width, size=160)
        signature = extract_signature(margins).as_vector()
        assert np.all(signature > 0)
        features.append(signature)
        gaps.append(float(np.log(signature) @ coeffs + intercept
                          + rng.normal(0.0, 0.01)))
    result = cross_validate_predictor(np.array(features), np.array(gaps),
                                      k=3, shuffles=5, seed=29)
    assert result.mean_r2 >= 0.95


# ---------------------------------------------------------------------------
# 9. perturbation decomposition concentrates on the injected component


def test_perturbation_shares_concentrate_on_injected_component():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(40, 12))
    pca = fit_pca(X)
    for component in (0, 3, 11):
        scales = rng.uniform(0.5, 2.0, size=(40, 1))
        boundary = X + scales * pca.components[component]
        share = adv_directions(pca, X, boundary)
        assert share.p_share[component] >= 0.999
        assert abs(float(share.p_share.sum()) - 1.0) <= 1e-10
        assert share.dropped_rows == 0

        prefix = []
        running = 0.0
        for value in share.p_share:
            running += float(value)
            prefix.append(running)
        cum = cumulative_share(share.p_share, pca.explained_ratio)
        assert np.allclose(cum.cumulative, prefix, rtol=0.0, atol=1e-12)
        ratio_prefix = np.cumsum(pca.explained_ratio)
        expect_70 = next((k + 1 for k, v in enumerate(ratio_prefix)
                          if v >= 0.70 - 1e-12), ratio_prefix.size)
        expect_99 = next((k + 1 for k, v in enumerate(ratio_prefix)
                          if v >= 0.99 - 1e-12), ratio_prefix.size)
        assert cum.marker_70 == expect_70
        assert cum.marker_99 == expect_99


# ---------------------------------------------------------------------------
# 10. knee selection and projection-basis integrity


def test_knee_selection_and_projection_basis_integrity():
    plateaus = test_pca._model_with_variances(
        10.0 ** np.array([0.0, -0.1, -0.2, -3.0, -3.1, -3.2]))
    choice = select_components_kneedle(plateaus)
    assert choice.m == 3
    assert choice.fallback_used is False

    rng = np.random.default_rng(31)
    X = rng.normal(size=(200, 20))
    pca = fit_pca(X)
    V = pca.components
    assert np.max(np.abs(V @ V.T - np.eye(20))) <= 1e-8

    centered = X - X.mean(axis=0)
    covariance = centered.T @ centered / (X.shape[0] - 1)
    reconstruction = V.T @ np.diag(pca.explained_variance) @ V
    assert np.max(np.abs(reconstruction - covariance)) <= 1e-8


# ---------------------------------------------------------------------------
# 11. CLI pipelines rewrite byte-identical outputs on rerun


def _pipeline_steps(tmp: Path) -> tuple[list[list[str]], list[Path]]:
    data = tmp / "blobs.csv"
    corrupted = tmp / "corrupted.csv"
    model = tmp / "model.json"
    margins = tmp / "margins.csv"
    boundary = tmp / "boundary.csv"
    pca_path = tmp / "pca.json"
    shares = tmp / "shares.csv"
    scores = tmp / "scores.csv"
    sweep_dir = tmp / "sweep"

    models_json = tmp / "models.json"
    if not models_json.exists():
        entries = []
        for w in (8, 16):
            for s in (0, 1):
                entries.append({"hyperparams": {"width": str(w),
                                                "seed": str(s)},
                                "train_acc": 1.0,
                                "test_acc": 0.5 + 0.1 * (w == 16),
                                "measures": {"mm": float(w + s)}})
        models_json.write_text(json.dumps(entries))

    sweep_cfg = tmp / "sweep.json"
    if not sweep_cfg.exists():
        sweep_cfg.write_text(json.dumps({
            "dataset": {"classes": 2, "samples_per_class": 30, "dim": 3,
                        "spread": 1.0},
            "corruptions": [{"mode": "label", "fraction": 0.2}],
            "widths": [16, 24], "seeds": [0],
            "train": {"epochs": 300, "batch_size": 16,
                      "learning_rate": 0.1},
            "estimator": {"name": "deepfool", "learning_rate": 0.25,
                          "stop_tolerance": 0.01, "max_iters": 50},
            "normalize": "znorm",
            "output_dir": str(sweep_dir), "seed": 3}))

    steps = [
        ["gen-data", "--classes", "3", "--samples-per-class", "40",
         "--dim", "4", "--spread", "1.2", "--seed", "5", "--out", str(data)],
        ["corrupt", "--in", str(data), "--out", str(corrupted),
         "--mode", "label", "--fraction", "0.2", "--seed", "6"],
        ["train", "--data", str(corrupted), "--hidden", "16",
         "--epochs", "80", "--batch-size", "16", "--learning-rate", "0.1",
         "--seed", "7", "--out", str(model)],
        ["measure", "--model", str(model), "--data", str(corrupted),
         "--estimator", "deepfool", "--batch", "--gamma", "0.25",
         "--tol", "0.001", "--out", str(margins),
         "--boundary-out", str(boundary)],
        ["pca", "--data", str(corrupted), "--knee", "--out", str(pca_path)],
        ["advdir", "--pca", str(pca_path), "--boundary-csv", str(boundary),
         "--out", str(shares)],
        ["evaluate", "--models", str(models_json), "--metric", "granulated",
         "--measure-col", "mm", "--out", str(scores)],
        ["sweep", "--config", str(sweep_cfg)],
    ]
    outputs = [data, corrupted, model, margins, boundary, pca_path, shares,
               scores, sweep_dir / "margins.csv",
               sweep_dir / "per_sample_margins.csv",
               sweep_dir / "max_margins.csv", sweep_dir / "summary.json"]
    return steps, outputs


def test_pipeline_reruns_write_identical_bytes(tmp_path):
    started = time.monotonic()
    steps, outputs = _pipeline_steps(tmp_path)
    for argv in steps:
        assert main(argv) == 0
    first = {path: path.read_bytes() for path in outputs}

    for path in outputs:
        path.unlink()
    for argv in steps:
        assert main(argv) == 0

    for path in outputs:
        assert path.read_bytes() == first[path], path.name
    assert time.monotonic() - started < 120.0
