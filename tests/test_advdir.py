import numpy as np
import pytest

from marginlab.advdir import AdvShare, adv_directions, cumulative_share
from marginlab.errors import DomainError, NumericalError
from marginlab.pca import PcaModel, fit_pca


def axis_pca(n):
    return PcaModel(mean=np.zeros(n), components=np.eye(n),
                    explained_variance=np.linspace(n, 1, n),
                    explained_ratio=np.full(n, 1.0 / n))


def random_pca(rng, n):
    return fit_pca(rng.normal(size=(5 * n, n)))


def test_single_component_perturbations_concentrate_fully():
    pca = axis_pca(4)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 4))
    offsets = rng.uniform(0.5, 2.0, size=6)
    Xhat = X.copy()
    Xhat[:, 2] += offsets  # every perturbation is a multiple of component 2
    share = adv_directions(pca, X, Xhat)
    assert share.p_share[2] == pytest.approx(1.0, abs=1e-12)
    assert np.all(share.p_share[[0, 1, 3]] == 0.0)
    assert share.dropped_rows == 0
    assert np.allclose(share.b_adv[:, 2], 1.0)


def test_even_two_component_split():
    pca = axis_pca(3)
    X = np.zeros((4, 3))
    Xhat = X + np.array([0.7, 0.7, 0.0])
    share = adv_directions(pca, X, Xhat)
    assert share.p_share[0] == pytest.approx(0.5, abs=1e-12)
    assert share.p_share[1] == pytest.approx(0.5, abs=1e-12)
    assert share.p_share[2] == 0.0
    cum = cumulative_share(share.p_share, pca.explained_ratio)
    assert np.allclose(cum.cumulative, [0.5, 1.0, 1.0])


def test_random_perturbations_match_column_sum_oracle():
    rng = np.random.default_rng(5)
    pca = random_pca(rng, 6)
    X = rng.normal(size=(20, 6))
    Xhat = X + rng.normal(scale=0.3, size=(20, 6))
    share = adv_directions(pca, X, Xhat)

    B = np.abs((X - Xhat) @ pca.components.T)
    B = B / B.max(axis=1, keepdims=True)
    expect = B.sum(axis=0) / B.sum()
    assert np.allclose(share.p_share, expect, atol=1e-12)
    assert share.p_share.sum() == pytest.approx(1.0, abs=1e-10)
    cum = cumulative_share(share.p_share, pca.explained_ratio).cumulative
    assert np.all(np.diff(cum) >= -1e-15)
    assert cum[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(share.b_adv.max(axis=1), 1.0)


def test_share_invariant_under_global_scale_and_permutation():
    rng = np.random.default_rng(7)
    pca = random_pca(rng, 5)
    X = rng.normal(size=(12, 5))
    Xhat = X + rng.normal(scale=0.2, size=(12, 5))
    base = adv_directions(pca, X, Xhat)

    scaled = adv_directions(pca, X, X + 3.7 * (Xhat - X))
    assert np.allclose(scaled.p_share, base.p_share, atol=1e-12)

    perm = rng.permutation(12)
    shuffled = adv_directions(pca, X[perm], Xhat[perm])
    assert np.allclose(shuffled.p_share, base.p_share, atol=1e-12)


def test_zero_perturbation_rows_dropped_and_counted():
    pca = axis_pca(3)
    X = np.zeros((3, 3))
    Xhat = X.copy()
    Xhat[0, 1] = 1.0  # rows 1 and 2 are untouched
    share = adv_directions(pca, X, Xhat)
    assert share.dropped_rows == 2
    assert share.b_adv.shape == (1, 3)
    assert share.p_share[1] == pytest.approx(1.0)


def test_all_zero_perturbations_degenerate():
    pca = axis_pca(3)
    X = np.ones((4, 3))
    with pytest.raises(NumericalError):
        adv_directions(pca, X, X.copy())


def test_mismatched_inputs_rejected():
    pca = axis_pca(3)
    with pytest.raises(DomainError):
        adv_directions(pca, np.zeros((3, 3)), np.zeros((4, 3)))
    with pytest.raises(DomainError):
        adv_directions(pca, np.zeros((3, 2)), np.zeros((3, 2)))


@pytest.mark.parametrize("bad", ["nan", "inf", "rank-3"])
def test_non_finite_or_misshapen_inputs_rejected(bad):
    # an inf boundary point used to leak a divide warning, a NaN one was
    # dropped as if its perturbation were zero, and (2, 2, 2) inputs gave a
    # 4-row b_adv
    pca = axis_pca(2)
    X = np.zeros((3, 2))
    Xhat = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    if bad == "rank-3":
        X, Xhat = np.zeros((2, 2, 2)), np.ones((2, 2, 2))
    else:
        Xhat[2, 0] = float(bad)
    with pytest.raises(DomainError):
        adv_directions(pca, X, Xhat)
    with pytest.raises(DomainError):
        adv_directions(pca, Xhat, X)


def test_cumulative_share_hand_examples():
    ratio = np.array([0.5, 0.3, 0.2])
    res = cumulative_share(np.array([1.0, 0.0, 0.0]), ratio)
    assert np.allclose(res.cumulative, [1.0, 1.0, 1.0])
    assert res.marker_70 == 2
    assert res.marker_99 == 3

    res = cumulative_share(np.full(4, 0.25), np.array([0.7, 0.2, 0.06, 0.04]))
    assert np.allclose(res.cumulative, [0.25, 0.5, 0.75, 1.0])
    assert res.marker_70 == 1
    assert res.marker_99 == 4


def test_cumulative_share_threshold_never_reached_clamps_to_count():
    res = cumulative_share(np.array([0.6, 0.4]), np.array([0.4, 0.2]))
    assert res.marker_70 == 2
    assert res.marker_99 == 2


def test_cumulative_share_length_mismatch_rejected():
    with pytest.raises(DomainError):
        cumulative_share(np.array([1.0]), np.array([0.5, 0.5]))
