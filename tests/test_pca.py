import io
import json

import numpy as np
import pytest

from marginlab.errors import ConfigError, DomainError, NumericalError
from marginlab.pca import (
    PcaModel,
    fit_pca,
    load_pca,
    save_pca,
    select_components_kneedle,
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
    # the bytes are what json.dump into a text stream writes for the document
    text = path.read_text(encoding="utf-8")
    stream = io.StringIO()
    json.dump(json.loads(text), stream, sort_keys=True)
    assert text == stream.getvalue() + "\n"


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_pca_rejects_non_finite_data(bad):
    # NaN data used to give a PcaModel full of NaNs
    X = np.random.default_rng(8).normal(size=(10, 3))
    X[4, 2] = bad
    with pytest.raises(DomainError, match="non-finite"):
        fit_pca(X)


@pytest.mark.parametrize("n", [2.7, 2.0, True, "2"],
                         ids=["fraction", "integral-float", "bool", "str"])
def test_fit_pca_component_count_must_be_an_integer(n):
    # int() used to truncate 2.7 to 2 and take True as 1
    X = np.random.default_rng(8).normal(size=(10, 3))
    with pytest.raises(DomainError, match="n_components must be an integer"):
        fit_pca(X, n_components=n)
    assert fit_pca(X, n_components=np.int64(2)).components.shape == (2, 3)
