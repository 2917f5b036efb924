import json

import numpy as np
import pytest

from marginlab.errors import ConfigError, DomainError, NumericalError
from marginlab.pca import (
    PcaModel,
    fit_pca,
    inverse_transform,
    load_pca,
    save_pca,
    select_components_kneedle,
    transform,
)


def test_fit_pca_components_orthonormal_and_variances_descending():
    rng = np.random.default_rng(0)
    for trial in range(20):
        s = int(rng.integers(10, 80))
        n = int(rng.integers(3, 12))
        X = rng.normal(size=(s, n)) * rng.uniform(0.1, 5.0, size=n)
        p = fit_pca(X)
        gram = p.components @ p.components.T
        assert np.max(np.abs(gram - np.eye(len(p.components)))) <= 1e-8
        assert np.all(np.diff(p.explained_variance) <= 1e-12)
        assert np.all(p.explained_variance >= 0)
        assert p.explained_ratio.sum() <= 1 + 1e-12


def test_fit_pca_matches_covariance_eigendecomposition():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 7)) @ rng.normal(size=(7, 7))
    p = fit_pca(X)
    cov = np.cov(X, rowvar=False, ddof=1)
    # eigenvalue equation: cov v = lambda v for every component
    for vec, lam in zip(p.components, p.explained_variance):
        assert np.allclose(cov @ vec, lam * vec, atol=1e-8)
    # full-rank reconstruction of the covariance
    recon = p.components.T @ np.diag(p.explained_variance) @ p.components
    assert np.max(np.abs(recon - cov)) <= 1e-8
    # ratios against total variance
    assert np.allclose(p.explained_ratio, p.explained_variance / np.trace(cov))


def test_fit_pca_sign_convention_is_reproducible():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 6))
    p1 = fit_pca(X)
    p2 = fit_pca(X.copy())
    assert np.array_equal(p1.components, p2.components)
    for row in p1.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_fit_pca_component_cap():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(5, 10))  # rank of the centered data is at most 4
    p = fit_pca(X)
    assert p.components.shape == (4, 10)
    with pytest.raises(DomainError):
        fit_pca(X, n_components=5)
    with pytest.raises(DomainError):
        fit_pca(X, n_components=0)


def test_transform_round_trip_full_rank():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 8))
    p = fit_pca(X)
    Y = transform(p, X)
    back = inverse_transform(p, Y)
    assert np.max(np.abs(back - X)) <= 1e-10
    # single-vector path
    x = X[0]
    assert np.max(np.abs(inverse_transform(p, transform(p, x)) - x)) <= 1e-10


def test_truncated_inverse_is_the_orthogonal_projection():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 6))
    m = 3
    p = fit_pca(X, n_components=m)
    x = rng.normal(size=6)
    back = inverse_transform(p, transform(p, x))
    P = p.components
    oracle = p.mean + (x - p.mean) @ P.T @ P
    assert np.max(np.abs(back - oracle)) <= 1e-12


def test_transform_centers_on_mean():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 5)) + 7.0
    p = fit_pca(X)
    assert np.max(np.abs(transform(p, p.mean))) <= 1e-12


# ---------------------------------------------------------------------------
# knee selection
#
# The three-plateau curve below was worked through by hand: normalized x is
# (0, .2, .4, .6, .8, 1), normalized log-variance is
# (1, 0.96875, 0.9375, 0.0625, 0.03125, 0); after reflecting the decreasing
# curve the difference series is (0, -.16875, -.3375, .3375, .16875, 0) with
# its interior maximum 0.3375 at reflected index 3, threshold
# 0.3375 - 1*0.2 = 0.1375, first drop below at reflected index 5, so the knee
# sits at reflected index 3 -> original index 2 -> three components.


def _model_with_variances(variances):
    variances = np.asarray(variances, dtype=np.float64)
    n = len(variances)
    return PcaModel(
        mean=np.zeros(n),
        components=np.eye(n),
        explained_variance=variances,
        explained_ratio=variances / variances.sum(),
    )


def test_kneedle_three_plateau_curve_picks_three_components():
    p = _model_with_variances(10.0 ** np.array([0.0, -0.1, -0.2, -3.0, -3.1, -3.2]))
    choice = select_components_kneedle(p)
    assert choice.m == 3
    assert choice.fallback_used is False
    assert len(choice.curve) == 6


def test_kneedle_log_linear_curve_falls_back_to_variance_share():
    # 8,4,2,1 is exactly linear in log space: no knee exists
    p = _model_with_variances([8.0, 4.0, 2.0, 1.0])
    choice = select_components_kneedle(p)
    assert choice.fallback_used is True
    # cumulative ratios: 8/15, 12/15 >= 0.7 -> two components
    assert choice.m == 2


def test_kneedle_needs_three_positive_variances():
    p = _model_with_variances([4.0, 2.0])
    with pytest.raises(DomainError):
        select_components_kneedle(p)
    p0 = _model_with_variances([4.0, 2.0, 1.0])
    zeroed = PcaModel(p0.mean, p0.components,
                      np.array([4.0, 2.0, 0.0]), p0.explained_ratio)
    with pytest.raises(DomainError):
        select_components_kneedle(zeroed)


def test_kneedle_truncated_basis_falls_back_to_every_component():
    # no knee (log-linear), and a truncated basis whose ratios sum to
    # 15/60 never reaches the 70% fallback share: every component is kept
    p = _model_with_variances([8.0, 4.0, 2.0, 1.0])
    p = PcaModel(p.mean, p.components, p.explained_variance,
                 p.explained_variance / 60.0)
    choice = select_components_kneedle(p)
    assert choice.fallback_used is True
    assert choice.m == 4


# ---------------------------------------------------------------------------
# file format


def test_pca_file_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 5))
    p = fit_pca(X, n_components=3)
    path = tmp_path / "proj.json"
    save_pca(p, path)
    loaded = load_pca(path)
    assert np.array_equal(loaded.mean, p.mean)
    assert np.array_equal(loaded.components, p.components)
    assert np.array_equal(loaded.explained_variance, p.explained_variance)
    assert np.array_equal(loaded.explained_ratio, p.explained_ratio)


def test_load_pca_rejects_non_orthonormal_rows(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        '{"format": "mw-pca/1", "mean": [0.0, 0.0],'
        ' "components": [[1.0, 1.0]],'
        ' "explained_variance": [1.0], "explained_ratio": [0.5]}'
    )
    with pytest.raises(ConfigError):
        load_pca(path)


def test_load_pca_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "mw-model/1"}')
    with pytest.raises(ConfigError):
        load_pca(path)


def _pca_doc(tmp_path):
    path = tmp_path / "proj.json"
    save_pca(fit_pca(np.random.default_rng(9).normal(size=(30, 4)),
                     n_components=3), path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("key", ["mean", "components", "explained_variance",
                                 "explained_ratio"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), None])
def test_load_pca_rejects_non_finite_values(tmp_path, key, bad):
    path, doc = _pca_doc(tmp_path)
    if key == "components":
        doc[key][0][1] = bad
    else:
        doc[key][0] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(NumericalError):
        load_pca(path)


@pytest.mark.parametrize("key", ["explained_variance", "explained_ratio"])
@pytest.mark.parametrize("length", [2, 4])
def test_load_pca_rejects_count_mismatch(tmp_path, key, length):
    path, doc = _pca_doc(tmp_path)
    doc[key] = [0.1] * length
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_pca(path)


@pytest.mark.parametrize("key,value", [("mean", 0.5), ("mean", [[0.0] * 4]),
                                       ("mean", [10 ** 400] * 4),
                                       ("explained_ratio", 0.5)])
def test_load_pca_rejects_malformed_arrays(tmp_path, key, value):
    path, doc = _pca_doc(tmp_path)
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_pca(path)
