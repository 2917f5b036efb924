import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from marginlab.data import (
    BlobConfig,
    Dataset,
    SampleFlag,
    corrupt_inputs_gaussian,
    corrupt_labels,
    gen_blobs,
    load_dataset,
    max_margin,
    normalize,
    save_dataset,
)
from marginlab.cli import main
from marginlab.errors import ConfigError, DomainError


def test_gen_blobs_deterministic():
    cfg = BlobConfig(classes=3, samples_per_class=20, dim=4, spread=0.7, seed=11)
    a = gen_blobs(cfg)
    b = gen_blobs(cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.class_count == 3
    assert a.features.shape == (60, 4)
    assert np.all(a.corrupt_flags == SampleFlag.CLEAN)


def test_gen_blobs_bounds_expand_observed_range():
    ds = gen_blobs(BlobConfig(classes=2, samples_per_class=30, dim=3, spread=1.0, seed=0))
    lo = ds.features.min(axis=0)
    hi = ds.features.max(axis=0)
    pad = 0.01 * (hi - lo)
    assert np.allclose(ds.lower, lo - pad)
    assert np.allclose(ds.upper, hi + pad)
    assert np.all(ds.lower < ds.upper)


def test_bounds_stay_finite_near_the_float_limit(tmp_path):
    # columns: a range wider than the float limit, a finite range whose pad
    # crosses the limit, a constant column at the limit, an ordinary column
    top = np.finfo(np.float64).max
    features = np.array([[1e308, 1e308, top, 1.0],
                         [-1e308, 1.79e308, top, 3.0]])
    path = tmp_path / "ds.csv"
    save_dataset(Dataset(features, np.array([0, 1]), np.zeros(4),
                         np.ones(4), np.zeros(2, dtype=np.int64), 2), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        ds = load_dataset(path)
    assert np.isfinite(ds.lower).all() and np.isfinite(ds.upper).all()
    assert np.all(ds.lower <= features.min(axis=0))
    assert np.all(ds.upper >= features.max(axis=0))
    varies = [0, 1, 3]
    assert np.all(ds.lower[varies] < ds.upper[varies])
    pad = 0.01 * 1e308 - 0.01 * -1e308
    assert (ds.lower[0], ds.upper[0]) == (-1e308 - pad, 1e308 + pad)
    assert ds.upper[1] == top
    # a finite range keeps the bits it always had
    assert (ds.lower[3], ds.upper[3]) == (1.0 - 0.01 * 2.0, 3.0 + 0.01 * 2.0)


def test_gen_blobs_respects_explicit_centers():
    centers = np.array([[0.0, 0.0], [100.0, 100.0]])
    ds = gen_blobs(
        BlobConfig(classes=2, samples_per_class=25, dim=2, spread=0.5, seed=3, centers=centers)
    )
    # With centers 100 apart and spread 0.5, each block must hug its center.
    for k in range(2):
        block = ds.features[ds.labels == k]
        assert np.linalg.norm(block.mean(axis=0) - centers[k]) < 1.0


def test_gen_blobs_validation():
    with pytest.raises(DomainError):
        gen_blobs(BlobConfig(classes=1, samples_per_class=5, dim=2, spread=1.0, seed=0))
    with pytest.raises(DomainError):
        gen_blobs(BlobConfig(classes=2, samples_per_class=0, dim=2, spread=1.0, seed=0))
    with pytest.raises(DomainError):
        gen_blobs(BlobConfig(classes=2, samples_per_class=5, dim=1, spread=1.0, seed=0))
    with pytest.raises(DomainError):
        gen_blobs(BlobConfig(classes=2, samples_per_class=5, dim=2, spread=0.0, seed=0))
    with pytest.raises(DomainError, match="centers shape"):
        BlobConfig(classes=2, samples_per_class=5, dim=2, spread=1.0, seed=0,
                   centers=np.zeros((3, 2)))
    with pytest.raises(DomainError, match="non-finite"):
        BlobConfig(classes=2, samples_per_class=5, dim=2, spread=1.0, seed=0,
                   centers=[[0.0, np.nan], [1.0, 1.0]])


# ---------------------------------------------------------------------------
# corruption


def _toy_dataset():
    features = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0], [6.0, 8.0]])
    labels = np.array([0, 0, 1, 1])
    return Dataset(
        features=features,
        labels=labels,
        lower=features.min(axis=0) - 0.1,
        upper=features.max(axis=0) + 0.1,
        corrupt_flags=np.zeros(4, dtype=np.int64),
        class_count=2,
    )


def test_corrupt_labels_full_fraction_two_classes_flips_all():
    ds = _toy_dataset()
    out, report = corrupt_labels(ds, fraction=1.0, seed=5)
    # With two classes the only different label is the other one.
    assert np.array_equal(out.labels, 1 - ds.labels)
    assert np.all(out.corrupt_flags == SampleFlag.LABEL_CORRUPTED)
    assert len(report.indices_corrupted) == 4
    # input dataset untouched
    assert np.array_equal(ds.labels, np.array([0, 0, 1, 1]))


def test_corrupt_labels_never_keeps_original_label():
    rng = np.random.default_rng(0)
    for trial in range(20):
        classes = int(rng.integers(2, 6))
        s = int(rng.integers(5, 40))
        features = rng.normal(size=(s, 3))
        labels = rng.integers(0, classes, size=s)
        ds = Dataset(
            features=features,
            labels=labels,
            lower=features.min(axis=0),
            upper=features.max(axis=0),
            corrupt_flags=np.zeros(s, dtype=np.int64),
            class_count=classes,
        )
        out, report = corrupt_labels(ds, fraction=0.5, seed=trial)
        idx = report.indices_corrupted
        assert np.all(out.labels[idx] != labels[idx])
        untouched = np.setdiff1d(np.arange(s), idx)
        assert np.array_equal(out.labels[untouched], labels[untouched])
        assert out.class_count == classes
        assert len(out.labels) == s


def test_corrupt_count_rounds_half_up():
    ds = gen_blobs(BlobConfig(classes=2, samples_per_class=5, dim=2, spread=1.0, seed=1))
    # 10 samples, fraction 0.25 -> 2.5 -> 3 corrupted
    _, report = corrupt_labels(ds, fraction=0.25, seed=0)
    assert len(report.indices_corrupted) == 3
    _, report = corrupt_labels(ds, fraction=0.2, seed=0)
    assert len(report.indices_corrupted) == 2


def test_corrupt_labels_rejects_single_class():
    ds = _toy_dataset()
    ds = Dataset(ds.features, np.zeros(4, dtype=np.int64), ds.lower, ds.upper,
                 np.zeros(4, dtype=np.int64), class_count=1)
    with pytest.raises(DomainError):
        corrupt_labels(ds, fraction=0.5, seed=0)


def test_corrupt_inputs_gaussian_clips_and_flags():
    ds = gen_blobs(BlobConfig(classes=2, samples_per_class=50, dim=3, spread=2.0, seed=9))
    out, report = corrupt_inputs_gaussian(ds, fraction=0.3, seed=4)
    assert len(report.indices_corrupted) == 30
    assert np.all(out.features >= ds.lower - 1e-12)
    assert np.all(out.features <= ds.upper + 1e-12)
    assert np.all(out.corrupt_flags[report.indices_corrupted] == SampleFlag.INPUT_CORRUPTED)
    untouched = np.setdiff1d(np.arange(100), report.indices_corrupted)
    assert np.array_equal(out.features[untouched], ds.features[untouched])
    assert np.array_equal(out.labels, ds.labels)


def test_corrupt_inputs_gaussian_zero_std_is_exact_copy():
    features = np.full((4, 3), 2.5)
    features[0] = [1.0, 2.0, 3.0]
    ds = Dataset(
        features=features,
        labels=np.array([0, 1, 0, 1]),
        lower=np.zeros(3),
        upper=np.full(3, 10.0),
        corrupt_flags=np.zeros(4, dtype=np.int64),
        class_count=2,
    )
    out, report = corrupt_inputs_gaussian(ds, fraction=1.0, seed=8)
    # rows 1..3 are constant vectors: per-sample std is 0 -> replacement equals original
    for i in range(1, 4):
        assert np.array_equal(out.features[i], features[i])


# ---------------------------------------------------------------------------
# max margin


def test_max_margin_hand_computed():
    ds = _toy_dataset()
    got = max_margin(ds)
    expected = np.array([1.0, np.sqrt(18.0), 1.0, 5.0])
    assert np.allclose(got, expected, atol=1e-12)


def test_max_margin_matches_brute_force():
    rng = np.random.default_rng(13)
    features = rng.normal(size=(40, 5))
    labels = rng.integers(0, 3, size=40)
    ds = Dataset(features, labels, features.min(0), features.max(0),
                 np.zeros(40, dtype=np.int64), class_count=3)
    got = max_margin(ds)
    for i in range(40):
        best = np.inf
        for j in range(40):
            if labels[j] != labels[i]:
                best = min(best, float(np.linalg.norm(features[i] - features[j])))
        assert got[i] == pytest.approx(best, abs=1e-12)


def test_max_margin_single_class_error():
    ds = _toy_dataset()
    single = Dataset(ds.features, np.zeros(4, dtype=np.int64), ds.lower, ds.upper,
                     np.zeros(4, dtype=np.int64), class_count=2)
    with pytest.raises(DomainError):
        max_margin(single)


@pytest.mark.parametrize("bad", ["nan", "inf", "rank-3"])
def test_max_margin_rejects_non_finite_or_misshapen_features(bad):
    # a NaN row used to poison every row that had it as a neighbour, an inf
    # row gave inf, and 3-D features leaked numpy's einsum ValueError
    ds = _toy_dataset()
    features = ds.features.copy()
    if bad == "rank-3":
        features = features[:, :, None]
    else:
        features[1, 0] = float(bad)
    with pytest.raises(DomainError):
        max_margin(Dataset(features, ds.labels, ds.lower, ds.upper,
                           ds.corrupt_flags, ds.class_count))


def test_mean_max_margin_does_not_increase_after_label_corruption():
    for seed in range(5):
        ds = gen_blobs(BlobConfig(classes=3, samples_per_class=40, dim=4, spread=0.8, seed=seed))
        corrupted, _ = corrupt_labels(ds, fraction=0.2, seed=seed + 100)
        assert max_margin(corrupted).mean() <= max_margin(ds).mean() + 1e-12


# ---------------------------------------------------------------------------
# normalization


def test_znorm_hand_computed_zero_variance_scale_one():
    features = np.array([[1.0, 2.0], [3.0, 2.0]])
    ds = Dataset(features, np.array([0, 1]), np.array([0.0, 1.0]), np.array([4.0, 3.0]),
                 np.zeros(2, dtype=np.int64), class_count=2)
    out, meta = normalize(ds, "znorm")
    assert np.allclose(out.features, [[-1.0, 0.0], [1.0, 0.0]])
    assert meta.scheme == "znorm"
    assert np.allclose(meta.offsets, [2.0, 2.0])
    assert np.allclose(meta.scales, [1.0, 1.0])  # second feature: zero variance -> 1


def test_minmax_hand_computed_constant_feature_maps_to_zero():
    features = np.array([[1.0, 5.0], [3.0, 5.0]])
    ds = Dataset(features, np.array([0, 1]), np.array([0.9, 4.9]), np.array([3.1, 5.1]),
                 np.zeros(2, dtype=np.int64), class_count=2)
    out, meta = normalize(ds, "minmax")
    assert np.allclose(out.features, [[0.0, 0.0], [1.0, 0.0]])
    assert meta.scheme == "minmax"


def test_normalize_round_trips_to_1e12():
    for scheme in ("znorm", "minmax"):
        ds = gen_blobs(BlobConfig(classes=2, samples_per_class=60, dim=6, spread=1.4, seed=21))
        out, meta = normalize(ds, scheme)
        # x = x_normalized * scales + offsets inverts the map
        back = out.features * meta.scales + meta.offsets
        assert np.max(np.abs(back - ds.features)) <= 1e-12
        # bounds transform consistently and stay ordered
        assert np.all(out.lower < out.upper)
        assert np.allclose(out.lower * meta.scales + meta.offsets, ds.lower,
                           atol=1e-12)


def test_normalize_rejects_unknown_scheme():
    ds = _toy_dataset()
    with pytest.raises(DomainError):
        normalize(ds, "rank")


# ---------------------------------------------------------------------------
# file formats


@pytest.mark.parametrize("name", ["ds.bin", "ds.dat", "ds", "ds.csv.gz",
                                  "csv"])
def test_dataset_paths_must_end_in_csv(tmp_path, name):
    ds = gen_blobs(BlobConfig(classes=2, samples_per_class=5, dim=3,
                              spread=1.0, seed=4))
    path = tmp_path / name
    with pytest.raises(ConfigError, match=r"is CSV, and its path must end "
                                          r"in \.csv"):
        save_dataset(ds, path)
    assert list(tmp_path.iterdir()) == []
    # a CSV file under such a name is refused by the name alone
    save_dataset(ds, tmp_path / "ds.csv")
    (tmp_path / "ds.csv").rename(path)
    with pytest.raises(ConfigError, match="must end in"):
        load_dataset(path)


def test_csv_round_trip(tmp_path):
    ds = gen_blobs(BlobConfig(classes=2, samples_per_class=10, dim=3, spread=1.0, seed=7))
    path = tmp_path / "blobs.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert np.allclose(loaded.features, ds.features, atol=0)
    assert np.array_equal(loaded.labels, ds.labels)


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    good = gen_blobs(BlobConfig(classes=2, samples_per_class=10, dim=3, spread=1.0, seed=7))
    path = tmp_path / "blobs.csv"
    save_dataset(good, path)
    before = path.read_bytes()
    features = good.features.astype(object)
    features[-1, 0] = "not a number"  # the writer raises on the last row
    bad = Dataset(features, good.labels, good.lower, good.upper,
                  good.corrupt_flags, good.class_count)
    with pytest.raises(ConfigError):
        save_dataset(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["blobs.csv"]


def test_csv_loader_accepts_headerless(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("0.5,1.5,0\n2.5,3.5,1\n")
    ds = load_dataset(path)
    assert ds.features.shape == (2, 2)
    assert list(ds.labels) == [0, 1]


@pytest.mark.parametrize("fmt", ["csv", "CSV"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_loaders_reject_non_finite_features(tmp_path, fmt, value):
    from marginlab.errors import ConfigError

    ds = gen_blobs(BlobConfig(classes=2, samples_per_class=5, dim=3, spread=1.0, seed=4))
    path = tmp_path / f"blobs.{fmt}"
    save_dataset(ds, path)
    # the writer refuses a non-finite cell, so plant it in the file itself
    lines = path.read_text().splitlines()
    cells = lines[4].split(",")  # data row 3, after the header
    cells[1] = repr(float(value))
    lines[4] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="non-finite"):
        load_dataset(path)


@pytest.mark.parametrize("fmt,value", [
    (fmt, value) for fmt in ("csv", "CSV")
    for value in (np.nan, np.inf, -np.inf)])
def test_writers_refuse_what_the_loaders_reject(tmp_path, fmt, value):
    from marginlab.errors import ConfigError

    ds = gen_blobs(BlobConfig(classes=2, samples_per_class=5, dim=3, spread=1.0, seed=4))
    ds.features[3, 1] = value
    with pytest.raises(ConfigError, match="non-finite"):
        save_dataset(ds, tmp_path / f"blobs.{fmt}")
    assert list(tmp_path.iterdir()) == []


def test_csv_loader_rejects_infinite_label(tmp_path):
    from marginlab.errors import ConfigError

    path = tmp_path / "plain.csv"
    path.write_text("0.5,1.5,0\n2.5,3.5,inf\n")
    with pytest.raises(ConfigError):
        load_dataset(path)


@pytest.mark.parametrize("label", ["1.7", "-1", "0.5", "nan", "-inf",
                                   "1e20"])
def test_csv_loader_rejects_non_integral_label(tmp_path, capsys, label):
    # labels used to go through int(float(v)): 1.7 loaded as class 1
    path = tmp_path / "plain.csv"
    path.write_text(f"f0,f1,label\n0.5,1.5,0\n2.5,3.5,{label}\n4.5,5.5,1\n")
    with pytest.raises(ConfigError, match="data row 2: label"):
        load_dataset(path)
    code = main(["pca", "--data", str(path), "--out", str(tmp_path / "p.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "data row 2" in err
    assert not (tmp_path / "p.json").exists()


def test_csv_loader_accepts_integral_labels(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("0.5,1.5,0\n2.5,3.5,1.0\n4.5,5.5,2e0\n6.5,7.5,-0.0\n")
    ds = load_dataset(path)
    assert ds.labels.dtype == np.int64
    assert list(ds.labels) == [0, 1, 2, 0]
    assert ds.class_count == 3


def test_csv_loader_skips_blank_lines(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("\n  \nf0,f1,label\n\n0.5,1.5,0\n \t \n2.5,3.5,1\n\n")
    ds = load_dataset(path)
    assert ds.features.tolist() == [[0.5, 1.5], [2.5, 3.5]]
    assert list(ds.labels) == [0, 1]


# Rows that float() and csv.reader took and the numpy parser does not; each
# now exits 2 and names the row.
@pytest.mark.parametrize("row", [
    "1_0.5,1.5,1",        # a digit separator
    '"2.5",1.5,1',        # a quoted number
    "\u0662.5,1.5,1",     # a non-ASCII digit
])
def test_csv_loader_rejects_rows_float_accepted(tmp_path, row):
    path = tmp_path / "plain.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n" + row + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="data row 2"):
        load_dataset(path)


@pytest.mark.parametrize("text,complaint", [
    ("label\n0\n1\n", "need at least one feature column"),
    ("f0,label\n0.5,0\n1.5,0\n", "need at least 2 classes"),
], ids=["labels-only", "one-class"])
def test_csv_loader_rejects_degenerate_tables(tmp_path, text, complaint):
    path = tmp_path / "plain.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=complaint):
        load_dataset(path)


def test_csv_loader_rejects_header_width_mismatch(tmp_path):
    # the old loader ignored the header's cell count
    path = tmp_path / "plain.csv"
    path.write_text("f0,f1,f2,label\n0.5,1.5,0\n2.5,3.5,1\n")
    with pytest.raises(ConfigError, match="data row 1 has 3 cells, the "
                                          "header 4"):
        load_dataset(path)


def test_csv_loader_rejects_non_utf8(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_bytes(b"f0,f1,label\n0.5,1.5,0\n2.5,\xff,1\n")
    with pytest.raises(ConfigError, match="cannot read"):
        load_dataset(path)


_EXTREME = [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-5]
_FEATURE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from(_EXTREME),
                     st.integers(-2 ** 60, 2 ** 60).map(float))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 4))
def test_csv_round_trip_is_bit_identical(data, rows, cols):
    features = np.array(data.draw(st.lists(
        st.lists(_FEATURE, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)), dtype=np.float64).reshape(rows, cols)
    labels = np.array(data.draw(st.lists(st.integers(0, 4), min_size=rows,
                                         max_size=rows)), dtype=np.int64)
    assume(labels.max() >= 1)
    ds = Dataset(features, labels, np.zeros(cols), np.ones(cols),
                 np.zeros(rows, dtype=np.int64), int(labels.max()) + 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        save_dataset(ds, path)
        text = path.read_text()
        headerless = Path(tmp) / "plain.csv"
        headerless.write_text(text.partition("\n")[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # features near the float limit
            loaded_pair = (load_dataset(path),
                           load_dataset(headerless))
        for loaded in loaded_pair:
            assert np.isfinite(loaded.lower).all()
            assert np.isfinite(loaded.upper).all()
            assert loaded.features.shape == (rows, cols)
            assert np.array_equal(loaded.features.view(np.int64),
                                  features.view(np.int64))
            assert np.array_equal(loaded.labels, labels)
            assert loaded.class_count == labels.max() + 1


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", -1],
                         ids=["float", "integral-float", "bool", "str",
                              "negative"])
@pytest.mark.parametrize("corrupt", [corrupt_labels, corrupt_inputs_gaussian])
def test_corruption_seed_must_be_a_non_negative_integer(corrupt, seed):
    # numpy's TypeError or ValueError used to leak, and True was seed 1
    ds = _toy_dataset()
    with pytest.raises(DomainError, match="seed must be"):
        corrupt(ds, 0.5, seed)
