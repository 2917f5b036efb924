import csv
import itertools
import json
import warnings
from unittest import mock

import numpy as np
import pytest

import marginlab.cli
import marginlab.margin
import marginlab.sweep
from marginlab._csvio import read_numeric_csv
from marginlab.cli import main
from marginlab.data import (
    BlobConfig,
    Dataset,
    NormalizationMeta,
    apply_normalization,
    load_dataset,
    normalize,
    save_dataset,
)
from marginlab.errors import ConfigError
from marginlab.margin import (
    SearchConfig,
    SearchStatus,
    compute_total_variation,
    search_margins,
)
from marginlab.nnet import (
    DenseLayer,
    Network,
    TrainConfig,
    forward_batch,
    load_model,
    save_model,
)
from marginlab.pca import (
    fit_pca,
    load_pca,
    save_pca,
    select_components_kneedle,
)
from marginlab.sweep import (
    ExperimentConfig,
    _load_sweep_config,
    _train_entry,
    run_capacity_sweep,
)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(capsys, tmp_path, name="blobs.csv", classes=2, spc=40, dim=3,
        spread=1.0, seed=11):
    path = tmp_path / name
    code, _, _ = run(capsys, "gen-data", "--classes", classes,
                     "--samples-per-class", spc, "--dim", dim,
                     "--spread", spread, "--seed", seed, "--out", path)
    assert code == 0
    return path


def train(capsys, tmp_path, data, name="model.json", hidden="12",
          epochs=40, seed=5):
    path = tmp_path / name
    code, out, _ = run(capsys, "train", "--data", data, "--hidden", hidden,
                       "--epochs", epochs, "--batch-size", 16,
                       "--learning-rate", 0.05, "--seed", seed,
                       "--out", path)
    assert code == 0
    return path, json.loads(out)


# ---------------------------------------------------------------------------
# data commands


def test_gen_data_roundtrip_and_determinism(capsys, tmp_path):
    p1 = gen(capsys, tmp_path, "a.csv")
    p2 = gen(capsys, tmp_path, "b.csv")
    ds = load_dataset(p1)
    assert ds.sample_count == 80
    assert ds.feature_count == 3
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupt_labels_via_cli(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    out = tmp_path / "corrupted.csv"
    report_path = tmp_path / "report.json"
    code, out_text, _ = run(capsys, "corrupt", "--in", data, "--out", out,
                            "--mode", "label", "--fraction", 0.25,
                            "--seed", 3, "--report", report_path)
    assert code == 0
    report = json.loads(out_text)
    assert report["num_corrupted"] == 20  # quarter of 80
    sidecar = json.loads(report_path.read_text())
    assert len(sidecar["indices_corrupted"]) == 20
    before = load_dataset(data)
    after = load_dataset(out)
    changed = np.flatnonzero(before.labels != after.labels)
    assert sorted(changed.tolist()) == sorted(sidecar["indices_corrupted"])


def test_corrupt_rejects_bad_fraction(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    code, _, err = run(capsys, "corrupt", "--in", data,
                       "--out", tmp_path / "x.csv",
                       "--mode", "label", "--fraction", 1.5, "--seed", 0)
    assert code == 2
    assert err


@pytest.mark.parametrize("argv", [
    ("gen-data",), ("corrupt", "--mode", "label", "--fraction", 0.2),
    ("corrupt", "--mode", "input", "--fraction", 0.2)],
    ids=["gen-data", "corrupt-label", "corrupt-input"])
def test_negative_seed_exits_2(capsys, tmp_path, argv):
    # numpy's ValueError used to end these in a traceback
    if argv[0] == "corrupt":
        argv += ("--in", gen(capsys, tmp_path))
    code, out, err = run(capsys, *argv, "--out", tmp_path / "x.csv",
                         "--seed", -1)
    assert (code, out) == (2, "")
    assert "seed must be >= 0" in err
    assert not (tmp_path / "x.csv").exists()


def test_missing_input_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "corrupt", "--in", tmp_path / "nope.csv",
                       "--out", tmp_path / "x.csv",
                       "--mode", "label", "--fraction", 0.1, "--seed", 0)
    assert code == 2
    assert err


def test_unwritable_output_exits_2(capsys, tmp_path):
    # the operating system's refusal to write is one error line
    out = tmp_path / "missing-dir" / "blobs.csv"
    code, out_text, err = run(capsys, "gen-data", "--out", out)
    assert (code, out_text) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing-dir" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen-data", "corrupt"])
def test_non_csv_output_is_refused_before_the_dataset_is_made(
        capsys, tmp_path, monkeypatch, command):
    # the name the write would refuse is refused first: no dataset is
    # drawn, read or corrupted, and no file is made
    argv = ("gen-data",)
    if command == "corrupt":
        argv = ("corrupt", "--in", gen(capsys, tmp_path, "ok.csv"),
                "--mode", "label", "--fraction", 0.2, "--seed", 0,
                "--report", tmp_path / "r.json")
    before = sorted(tmp_path.iterdir())
    work = mock.Mock(side_effect=AssertionError("the dataset was made"))
    monkeypatch.setattr(marginlab.cli, "gen_blobs", work)
    monkeypatch.setattr(marginlab.cli, "load_dataset", work)
    monkeypatch.setitem(marginlab.cli.CORRUPTERS, "label", work)
    code, out_text, err = run(capsys, *argv, "--out", tmp_path / "x.bin")
    work.assert_not_called()
    assert (code, out_text) == (2, "")
    assert err == (f"error: {tmp_path / 'x.bin'}: a dataset file is CSV, "
                   f"and its path must end in .csv\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("message", ["Unable to allocate 146. TiB", ""])
def test_out_of_memory_exits_2(capsys, tmp_path, monkeypatch, message):
    # the step raises as numpy would on a size beyond memory; nothing large
    # is ever allocated
    def too_big(config):
        raise MemoryError(message)

    monkeypatch.setattr(marginlab.cli, "gen_blobs", too_big)
    out = tmp_path / "blobs.csv"
    code, out_text, err = run(capsys, "gen-data", "--samples-per-class",
                              10 ** 13, "--out", out)
    assert (code, out_text) == (2, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("spread,suffix", [("1e308", "csv"), ("inf", "csv")])
def test_gen_data_non_finite_features_exit_2(capsys, tmp_path, spread,
                                             suffix):
    # the writer refuses what the loader would reject: float64 overflow
    # (1e308); an infinite spread is refused before any sample is drawn
    out = tmp_path / f"blobs.{suffix}"
    code, out_text, err = run(capsys, "gen-data", "--spread", spread,
                              "--seed", 0, "--out", out)
    assert (code, out_text) == (2, "")
    expected = ("spread must be a finite number" if spread == "inf"
                else "non-finite features")
    assert expected in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# training


def test_train_writes_model_and_reports_accuracy(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    model_path, summary = train(capsys, tmp_path, data)
    net = load_model(model_path)
    assert net.input_dim == 3
    assert net.norm_meta is not None
    assert summary["train_accuracy"] >= 0.9


def test_train_divergence_exits_3(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    code, _, err = run(capsys, "train", "--data", data, "--hidden", "8",
                       "--epochs", 5, "--batch-size", 16,
                       "--learning-rate", 1e12, "--seed", 0,
                       "--out", tmp_path / "m.json")
    assert code == 3
    assert err


def test_train_determinism(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    p1, _ = train(capsys, tmp_path, data, name="m1.json")
    p2, _ = train(capsys, tmp_path, data, name="m2.json")
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("hidden", ["4,x", "4,0"])
def test_train_bad_hidden_widths_exit_2(capsys, tmp_path, hidden):
    data = gen(capsys, tmp_path)
    out = tmp_path / "model.json"
    code, out_text, err = run(capsys, "train", "--data", data, "--hidden",
                              hidden, "--out", out)
    assert (code, out_text) == (2, "")
    assert "--hidden" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("measure", "--tol", "inf"), ("measure", "--tol", "nan"),
    ("train", "--learning-rate", "nan"), ("train", "--learning-rate", "inf")])
def test_non_finite_settings_exit_2(capsys, tmp_path, command, flag, value):
    # an infinite tolerance used to stop every search at once, a NaN one
    # switched the stop rule off, and a non-finite rate trained to exit 3
    data = gen(capsys, tmp_path)
    out = tmp_path / "out.csv"
    if command == "measure":
        model_path, _ = train(capsys, tmp_path, data)
        argv = ["measure", "--model", model_path, "--data", data,
                "--estimator", "deepfool"]
    else:
        argv = ["train", "--data", data, "--hidden", "8", "--epochs", 2,
                "--batch-size", 16, "--seed", 0]
    code, out_text, err = run(capsys, *argv, flag, value, "--out", out)
    assert (code, out_text) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# measuring


def test_measure_taylor_skips_misclassified(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    model_path, _ = train(capsys, tmp_path, data)
    out = tmp_path / "margins.csv"
    code, out_text, _ = run(capsys, "measure", "--model", model_path,
                            "--data", data, "--estimator", "taylor",
                            "--out", out)
    assert code == 0
    summary = json.loads(out_text)
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["sample_index", "margin", "violation", "steps",
                          "status"]
    assert len(lines) - 1 == summary["measured"]
    assert summary["measured"] + summary["skipped_misclassified"] == 80
    margins = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(m > 0 for m in margins)
    assert summary["mean_margin"] == pytest.approx(np.mean(margins))


def test_measure_deepfool_batch_with_boundary_out(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    model_path, _ = train(capsys, tmp_path, data)
    out = tmp_path / "m.csv"
    bout = tmp_path / "b.csv"
    code, out_text, _ = run(capsys, "measure", "--model", model_path,
                            "--data", data, "--estimator", "deepfool",
                            "--batch", "--gamma", 0.25, "--tol", 0.001,
                            "--out", out, "--boundary-out", bout)
    assert code == 0
    summary = json.loads(out_text)
    assert summary["measured"] > 0
    blines = bout.read_text().splitlines()
    assert blines[0].split(",")[:4] == ["sample_index", "orig_0", "orig_1",
                                        "orig_2"]
    assert "bound_0" in blines[0]
    assert len(blines) - 1 == summary["measured"]


def test_measure_hidden_layer_with_tv_normalization(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    model_path, _ = train(capsys, tmp_path, data)
    out = tmp_path / "m.csv"
    code, out_text, _ = run(capsys, "measure", "--model", model_path,
                            "--data", data, "--estimator", "deepfool",
                            "--layer", 1, "--tv-normalize", "--out", out)
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header[-1] == "margin_tv"
    assert json.loads(out_text)["total_variation"] > 0


def test_measure_constrained_with_auto_m(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    model_path, _ = train(capsys, tmp_path, data)
    pca_path = tmp_path / "pca.json"
    code, _, _ = run(capsys, "pca", "--data", data, "--out", pca_path)
    assert code == 0
    out = tmp_path / "m.csv"
    code, out_text, _ = run(capsys, "measure", "--model", model_path,
                            "--data", data, "--estimator",
                            "constrained-deepfool", "--pca", pca_path,
                            "--m", "auto", "--out", out)
    assert code == 0
    summary = json.loads(out_text)
    assert summary["subspace_dims"] >= 1
    assert summary["measured"] > 0


@pytest.mark.parametrize("layer", [5, -1])
def test_measure_layer_out_of_range_exits_2(capsys, tmp_path, layer):
    data = gen(capsys, tmp_path)
    model_path, _ = train(capsys, tmp_path, data)
    out = tmp_path / "m.csv"
    code, out_text, err = run(capsys, "measure", "--model", model_path,
                              "--data", data, "--layer", layer, "--out", out)
    assert code == 2
    assert f"--layer {layer} outside [0, 2)" in err
    assert out_text == ""
    assert not out.exists()


def _tiny_data(tmp_path, features=3):
    X = np.random.default_rng(3).normal(size=(12, features))
    y = np.arange(12) % 2
    save_dataset(Dataset(X, y, X.min(axis=0), X.max(axis=0),
                         np.zeros(12, dtype=np.int64), 2), tmp_path / "d.csv")
    return tmp_path / "d.csv"


@pytest.mark.parametrize("options,complaint", [
    (["--estimator", "constrained-deepfool", "--pca", "pca.json",
      "--layer", 1], "input space only"),
    (["--estimator", "constrained-taylor", "--pca", "wide.json"],
     "the pca basis spans 4 features"),
    (["--estimator", "constrained-taylor"], "need --pca"),
    (["--estimator", "constrained-taylor", "--pca", "pca.json", "--m", "x"],
     "--m must be an integer"),
    (["--estimator", "taylor", "--boundary-out", "b.csv"],
     "--boundary-out needs"),
    (["--estimator", "constrained-taylor", "--pca", "pca.json", "--batch"],
     "--batch needs"),
    (["--estimator", "deepfool", "--pca", "no_such_file.json", "--m", 7],
     "--pca and --m need a constrained estimator"),
    (["--estimator", "taylor", "--m", "auto"],
     "--pca and --m need a constrained estimator"),
], ids=["constrained-hidden-layer", "pca-width", "no-pca", "m-text",
        "boundary-out-closed-form", "batch-closed-form",
        "pca-unconstrained", "m-unconstrained"])
def test_measure_bad_options_exit_2(capsys, tmp_path, monkeypatch, options,
                                    complaint):
    data = _tiny_data(tmp_path)
    model, _ = train(capsys, tmp_path, data, hidden="4", epochs=2)
    save_pca(fit_pca(load_dataset(data).features), tmp_path / "pca.json")
    save_pca(fit_pca(np.random.default_rng(4).normal(size=(9, 4))),
             tmp_path / "wide.json")
    monkeypatch.chdir(tmp_path)
    code, out_text, err = run(capsys, "measure", "--model", model, "--data",
                              data, *options, "--out", "m.csv")
    assert (code, out_text) == (2, "")
    assert complaint in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "m.csv").exists()
    assert not (tmp_path / "b.csv").exists()


def test_measure_nan_weight_model_exits_3(capsys, tmp_path):
    data = _tiny_data(tmp_path)
    nan = np.nan
    net = Network([DenseLayer(np.full((4, 3), nan), np.full(4, nan), "relu"),
                   DenseLayer(np.full((2, 4), nan), np.full(2, nan), "none")],
                  3, 2)
    save_model(net, tmp_path / "model.json")
    code, out_text, err = run(capsys, "measure", "--model",
                              tmp_path / "model.json", "--data", data,
                              "--out", tmp_path / "m.csv")
    assert code == 3
    assert out_text == ""
    assert "non-finite" in err
    assert not (tmp_path / "m.csv").exists()


def test_measure_feature_count_mismatch_exits_2(capsys, tmp_path):
    data = gen(capsys, tmp_path, dim=4)
    model_path, _ = train(capsys, tmp_path, data)
    out = tmp_path / "m.csv"
    code, out_text, err = run(capsys, "measure", "--model", model_path,
                              "--data", _tiny_data(tmp_path, features=5),
                              "--out", out)
    assert code == 2
    assert "5 features" in err and "takes 4" in err
    assert out_text == ""
    assert not out.exists()


def test_measure_non_finite_feature_exits_2(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    model_path, _ = train(capsys, tmp_path, data)
    bad = tmp_path / "bad.csv"
    lines = _tiny_data(tmp_path).read_text().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m.csv"
    code, out_text, err = run(capsys, "measure", "--model", model_path,
                              "--data", bad, "--out", out)
    assert code == 2
    assert "non-finite" in err
    assert not out.exists()


def test_measure_norm_length_mismatch_exits_2(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    model_path, _ = train(capsys, tmp_path, data)
    doc = json.loads(model_path.read_text())
    doc["norm"]["offsets"] = doc["norm"]["offsets"][:1]
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "m.csv"
    code, _, err = run(capsys, "measure", "--model", model_path, "--data",
                       data, "--out", out)
    assert code == 2
    assert "input_dim" in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("input_dim", 3.9),
                                       ("num_classes", "2"),
                                       ("num_classes", True)])
def test_measure_non_integer_model_size_exits_2(capsys, tmp_path, key,
                                                value):
    data = _tiny_data(tmp_path)
    net = Network([DenseLayer(np.ones((4, 3)), np.zeros(4), "relu"),
                   DenseLayer(np.ones((2, 4)), np.zeros(2), "none")], 3, 2)
    model_path = tmp_path / "model.json"
    save_model(net, model_path)
    doc = json.loads(model_path.read_text())
    doc[key] = value
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "m.csv"
    code, out_text, err = run(capsys, "measure", "--model", model_path,
                              "--data", data, "--estimator", "taylor",
                              "--out", out)
    assert code == 2
    assert f"{key} must be an integer" in err
    assert out_text == ""
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["znorm", "minmax"])
def test_constant_large_feature_trains_a_model_measure_accepts(
        capsys, tmp_path, scheme):
    # the 0.01 pad of a constant 1e20 column is lost to rounding; its clip
    # box must still have lower < upper, or measure rejects the model
    rng = np.random.default_rng(9)
    X = np.column_stack([rng.normal(size=40), rng.normal(size=40),
                         np.full(40, 1e20)])
    y = (X[:, 0] > 0).astype(np.int64)
    save_dataset(Dataset(X, y, X.min(axis=0), X.max(axis=0),
                         np.zeros(40, dtype=np.int64), 2), tmp_path / "d.csv")
    model_path = tmp_path / "model.json"
    code, _, err = run(capsys, "train", "--data", tmp_path / "d.csv",
                       "--hidden", "4", "--epochs", "5", "--normalize",
                       scheme, "--out", model_path)
    assert code == 0, err
    meta = load_model(model_path).norm_meta
    assert np.all(meta.lower < meta.upper)
    code, out_text, err = run(capsys, "measure", "--model", model_path,
                              "--data", tmp_path / "d.csv", "--out",
                              tmp_path / "m.csv")
    assert code == 0, err
    assert json.loads(out_text)["measured"] > 0


def test_measure_tv_normalize_zero_variation_exits_3(capsys, tmp_path):
    # every hidden unit is dead, so layer 1 is constant, while the logit
    # gradients there, and with them the margins, are not zero
    net = Network([DenseLayer(np.zeros((4, 3)), np.full(4, -1.0), "relu"),
                   DenseLayer(np.array([[1.0, 0.0, 2.0, 0.0],
                                        [0.0, 1.0, 0.0, 1.0]]),
                              np.array([1.0, 0.0]), "none")], 3, 2)
    save_model(net, tmp_path / "model.json")
    out = tmp_path / "m.csv"
    code, out_text, err = run(capsys, "measure", "--model",
                              tmp_path / "model.json", "--data",
                              _tiny_data(tmp_path), "--layer", 1,
                              "--tv-normalize", "--out", out)
    assert code == 3
    assert "total variation" in err
    assert out_text == ""
    assert not out.exists()


def _half_dead_net(rng):
    """Two ReLU layers over 3 inputs; every first-layer unit is off for
    x0 <= -4, so there the input gradient of every logit vanishes."""
    w1 = rng.normal(0.0, 0.3, size=(6, 3))
    w1[:, 0] = 3.0
    layers = [DenseLayer(w1, rng.uniform(0.0, 1.0, 6), "relu"),
              DenseLayer(rng.normal(size=(5, 6)), rng.uniform(0.1, 1.0, 5),
                         "relu"),
              DenseLayer(rng.normal(size=(3, 5)), rng.normal(size=3), "none")]
    # an identity normalization whose tight data box makes input searches
    # clip, and so pushes constrained ones off their subspace
    meta = NormalizationMeta(scheme="znorm", offsets=np.zeros(3),
                             scales=np.ones(3),
                             lower=np.array([-7.0, -0.3, -0.3]),
                             upper=np.array([4.0, 0.3, 0.3]))
    return Network(layers, 3, 3, norm_meta=meta)


# whether each estimator searches (takes the SearchConfig) and whether it
# is constrained to the top-2 principal subspace
_SINGLE = {"taylor": (False, False), "deepfool": (True, False),
           "constrained-taylor": (False, True),
           "constrained-deepfool": (True, True)}


@pytest.mark.parametrize("estimator,layer", [
    ("taylor", 0), ("deepfool", 0), ("constrained-taylor", 0),
    ("constrained-deepfool", 0), ("deepfool", 1)])
def test_measure_rows_match_single_sample_calls(capsys, tmp_path, estimator,
                                                layer):
    rng = np.random.default_rng(61)
    net = _half_dead_net(rng)
    X = rng.normal(0.0, 0.3, size=(40, 3))
    X[:, 0] = np.where(np.arange(40) % 4 == 0, rng.uniform(-6.0, -4.0, 40),
                       rng.uniform(1.0, 3.0, 40))
    y = rng.integers(0, 3, 40)
    save_dataset(Dataset(X, y, X.min(axis=0), X.max(axis=0),
                         np.zeros(40, dtype=np.int64), 3),
                 tmp_path / "d.csv")
    save_model(net, tmp_path / "model.json")
    pca = fit_pca(X)
    save_pca(pca, tmp_path / "pca.json")
    searches, constrained = _SINGLE[estimator]
    subspace_flags = ["--pca", tmp_path / "pca.json", "--m", 2] \
        if constrained else []
    out = tmp_path / "m.csv"
    code, _, _ = run(capsys, "measure", "--model", tmp_path / "model.json",
                     "--data", tmp_path / "d.csv", "--estimator", estimator,
                     "--layer", layer, *subspace_flags, "--tol", 0.001,
                     "--max-iters", 8, "--include-misclassified",
                     "--out", out)
    assert code == 0

    acts = forward_batch(net, X)[layer]
    cfg = SearchConfig(stop_tolerance=0.001, max_iters=8) if searches \
        else None
    subspace = (pca, 2) if constrained else (None, None)
    lines = out.read_text().splitlines()
    assert len(lines) == 41
    unusable = 0
    for line in lines[1:]:
        idx, margin, _, steps, status, base, comp, left = line.split(",")
        ref = search_margins(net, layer, acts[int(idx)][None, :], cfg,
                             *subspace)
        if tuple(SearchStatus)[ref.status[0]] in (SearchStatus.DEGENERATE,
                                                  SearchStatus.UNREACHABLE):
            assert status == ("unreachable" if constrained
                              else "degenerate")
            assert margin == steps == base == comp == left == ""
            unusable += 1
            continue
        assert status == tuple(SearchStatus)[ref.status[0]].value
        assert int(steps) == ref.steps[0]
        assert (int(base), int(comp)) == (ref.base[0], ref.competitor[0])
        assert left == ("true" if ref.left_subspace[0] else "false")
        assert abs(float(margin) - ref.d_best[0]) <= 1e-12
        unusable += status == "no-descent" and ref.steps[0] == 0
    assert unusable >= (10 if layer == 0 else 0)


def test_measure_constrained_deepfool_batch_with_boundary_out(capsys,
                                                             tmp_path):
    rng = np.random.default_rng(61)
    net = _half_dead_net(rng)
    X = rng.normal(0.0, 0.3, size=(40, 3))
    X[:, 0] = np.where(np.arange(40) % 4 == 0, rng.uniform(-6.0, -4.0, 40),
                       rng.uniform(1.0, 3.0, 40))
    y = rng.integers(0, 3, 40)
    save_dataset(Dataset(X, y, X.min(axis=0), X.max(axis=0),
                         np.zeros(40, dtype=np.int64), 3),
                 tmp_path / "d.csv")
    save_model(net, tmp_path / "model.json")
    pca = fit_pca(X)
    save_pca(pca, tmp_path / "pca.json")
    out = tmp_path / "m.csv"
    bout = tmp_path / "b.csv"
    code, out_text, _ = run(capsys, "measure", "--model",
                            tmp_path / "model.json", "--data",
                            tmp_path / "d.csv", "--estimator",
                            "constrained-deepfool", "--batch", "--pca",
                            tmp_path / "pca.json", "--m", 2, "--tol", 0.001,
                            "--max-iters", 8, "--include-misclassified",
                            "--out", out, "--boundary-out", bout)
    assert code == 0
    assert json.loads(out_text)["measured"] == 40

    cfg = SearchConfig(stop_tolerance=0.001, max_iters=8)
    refs = search_margins(net, 0, X, cfg, pca, 2, batch_mean=True)
    lines = out.read_text().splitlines()
    assert len(lines) == 41
    flags = set()
    for i, line in enumerate(lines[1:]):
        _, margin, _, steps, status, base, comp, left = line.split(",")
        assert 0.0 <= float(margin) < np.inf
        assert abs(float(margin) - refs.d_best[i]) <= 1e-12
        assert (status, int(steps)) == (
            tuple(SearchStatus)[refs.status[i]].value, refs.steps[i])
        assert (int(base), int(comp)) == (refs.base[i], refs.competitor[i])
        assert left == ("true" if refs.left_subspace[i] else "false")
        flags.add(left)
    # the tight data box pushes some searches off the subspace
    assert flags == {"true", "false"}
    assert len(bout.read_text().splitlines()) == 41


# ---------------------------------------------------------------------------
# the measure CSV format, byte for byte


_MEASURE_HEADER = ("sample_index,margin,violation,steps,status,base_class,"
                   "competitor_class,left_subspace")


def _line(cells) -> str:
    """One CSV line as ``mw`` writes it, cell by cell: a float as its
    ``repr``, a bool as true/false, a missing cell empty, anything else
    by ``str``."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(value) if isinstance(value, float) else str(value)
    return ",".join(map(cell, cells))


# the benchmark's six measure settings: estimator, layer and extra flags
_BENCH_MEASURES = {
    "taylor": ("taylor", 0, ()),
    "deepfool": ("deepfool", 0, ()),
    "deepfool_batch": ("deepfool", 0, ("--batch",)),
    "constrained_taylor": ("constrained-taylor", 0, ()),
    "constrained_deepfool": ("constrained-deepfool", 0, ("--boundary-out",)),
    "deepfool_layer1": ("deepfool", 1, ("--tv-normalize",)),
}


@pytest.mark.parametrize("include_all", [False, True],
                         ids=["correct", "all"])
@pytest.mark.parametrize("setting", sorted(_BENCH_MEASURES))
def test_measure_csv_bytes_render_the_search_table(capsys, tmp_path, setting,
                                                   include_all):
    estimator, layer, flags = _BENCH_MEASURES[setting]
    constrained = estimator.startswith("constrained-")
    data = gen(capsys, tmp_path, "d.csv", classes=4, spc=20, dim=5,
               spread=8.0, seed=13)
    model_path, _ = train(capsys, tmp_path, data, hidden="16", epochs=15)
    pca_path = tmp_path / "pca.json"
    assert run(capsys, "pca", "--data", data, "--out", pca_path)[0] == 0
    out, bout = tmp_path / "m.csv", tmp_path / "b.csv"
    argv = ["measure", "--model", model_path, "--data", data,
            "--estimator", estimator, "--layer", layer, "--tol", 0.001,
            "--out", out]
    if constrained:
        argv += ["--pca", pca_path, "--m", "auto"]
    for flag in flags:
        argv += [flag, bout] if flag == "--boundary-out" else [flag]
    if include_all:
        argv.append("--include-misclassified")
    assert run(capsys, *argv)[0] == 0

    net = load_model(model_path)
    raw = load_dataset(data)
    acts = forward_batch(net, apply_normalization(raw.features,
                                                  net.norm_meta))
    correct = np.argmax(acts[-1], axis=1) == raw.labels
    assert 0 < correct.sum() < raw.sample_count
    kept = np.flatnonzero(np.ones_like(correct) if include_all else correct)
    pca = m = None
    if constrained:
        pca = load_pca(pca_path)
        m = select_components_kneedle(pca).m
    cfg = None if estimator.endswith("taylor") else SearchConfig(
        stop_tolerance=0.001)
    table = search_margins(net, layer, acts[layer][kept], cfg, pca, m,
                           batch_mean="--batch" in flags)
    tv = (compute_total_variation(acts[layer])
          if "--tv-normalize" in flags else None)

    lines = [_MEASURE_HEADER + (",margin_tv" if tv else "")]
    boundary = [_line(["sample_index"]
                      + [f"orig_{j}" for j in range(acts[layer].shape[1])]
                      + [f"bound_{j}" for j in range(acts[layer].shape[1])])]
    statuses = tuple(SearchStatus)
    for i, idx in enumerate(kept.tolist()):
        stuck = statuses[table.status[i]] in (SearchStatus.DEGENERATE,
                                              SearchStatus.UNREACHABLE)
        d_best = float(table.d_best[i])
        cells = ([idx, None, None, None,
                  "unreachable" if constrained else "degenerate",
                  None, None, None] if stuck else
                 [idx, d_best, float(table.v_best[i]), int(table.steps[i]),
                  statuses[table.status[i]].value, int(table.base[i]),
                  int(table.competitor[i]), bool(table.left_subspace[i])])
        if tv:
            cells.append(None if stuck else d_best / tv)
        lines.append(_line(cells))
        if not stuck and table.boundary is not None:
            boundary.append(_line([idx, *acts[layer][idx].tolist(),
                                   *table.boundary[i].tolist()]))
    assert out.read_text() == "\n".join(lines) + "\n"
    if "--boundary-out" in flags:
        assert bout.read_text() == "\n".join(boundary) + "\n"


def _all_off_net():
    """A net whose hidden units are off everywhere (zero weights, bias -1),
    so no logit difference has a gradient; class 0 leads, class 1 next."""
    return Network([DenseLayer(np.zeros((4, 2)), np.full(4, -1.0), "relu"),
                    DenseLayer(np.ones((3, 4)), np.array([1.0, 0.5, 0.0]),
                               "none")], 2, 3, norm_meta=None)


@pytest.mark.parametrize("estimator,row", [
    ("taylor", "0,,,,degenerate,,,"),
    ("deepfool", "0,0.0,inf,0,no-descent,0,1,false"),
])
def test_measure_all_off_net_writes_todays_rows(capsys, tmp_path, estimator,
                                                row):
    save_model(_all_off_net(), tmp_path / "model.json")
    data = tmp_path / "d.csv"
    data.write_text("f0,f1,label\n0.5,-0.5,0\n1.5,2.0,1\n")
    out = tmp_path / "m.csv"
    code, _, _ = run(capsys, "measure", "--model", tmp_path / "model.json",
                     "--data", data, "--estimator", estimator, "--out", out)
    assert code == 0
    assert out.read_text() == f"{_MEASURE_HEADER}\n{row}\n"


def test_measure_status_counts_name_why_rows_have_no_margin(capsys,
                                                            tmp_path):
    # "degenerate" counts every row without a margin; status_counts says
    # that these two are unreachable in the subspace, not degenerate
    save_model(_all_off_net(), tmp_path / "model.json")
    save_pca(fit_pca(np.random.default_rng(2).normal(size=(20, 2))),
             tmp_path / "pca.json")
    data = tmp_path / "d.csv"
    data.write_text("f0,f1,label\n0.5,-0.5,0\n1.5,2.0,1\n")
    code, out, _ = run(capsys, "measure", "--model", tmp_path / "model.json",
                       "--data", data, "--estimator", "constrained-taylor",
                       "--pca", tmp_path / "pca.json", "--m", 1,
                       "--include-misclassified", "--out", tmp_path / "m.csv")
    assert code == 0
    summary = json.loads(out)
    assert (summary["measured"], summary["degenerate"]) == (0, 2)
    assert summary["status_counts"] == {
        status.value: 2 if status is SearchStatus.UNREACHABLE else 0
        for status in SearchStatus}


def test_measure_status_counts_match_the_status_column(capsys, tmp_path):
    data = gen(capsys, tmp_path, classes=3, spc=20, dim=3, seed=4)
    model, _ = train(capsys, tmp_path, data, epochs=10)
    out = tmp_path / "m.csv"
    code, stdout, _ = run(capsys, "measure", "--model", model, "--data", data,
                          "--max-iters", 12, "--include-misclassified",
                          "--out", out)
    assert code == 0
    summary = json.loads(stdout)
    with out.open(newline="") as f:
        column = [row["status"] for row in csv.DictReader(f)]
    counts = summary["status_counts"]
    assert list(counts) == sorted(status.value for status in SearchStatus)
    assert counts == {status.value: column.count(status.value)
                      for status in SearchStatus}
    assert sum(counts.values()) == len(column) == (summary["measured"]
                                                   + summary["degenerate"])
    assert counts["converged"] and counts["max-iters"]


def test_unnormalized_model_searches_stay_in_the_data_box(capsys, tmp_path):
    # a model trained with --normalize none carries no clip box of its own;
    # its input-space searches are clipped to the measured data's bounds
    data = gen(capsys, tmp_path, "d.csv", classes=3, spc=30, dim=2,
               spread=1.0, seed=0)
    model_path = tmp_path / "model.json"
    code, _, _ = run(capsys, "train", "--data", data, "--hidden", 16,
                     "--epochs", 40, "--batch-size", 16, "--learning-rate",
                     0.05, "--normalize", "none", "--seed", 5,
                     "--out", model_path)
    assert code == 0
    assert load_model(model_path).norm_meta is None
    bout = tmp_path / "b.csv"
    code, _, _ = run(capsys, "measure", "--model", model_path, "--data", data,
                     "--estimator", "deepfool", "--include-misclassified",
                     "--out", tmp_path / "m.csv", "--boundary-out", bout)
    assert code == 0
    ds = load_dataset(data)
    header, values = read_numeric_csv(bout)
    bound = values[:, [k for k, name in enumerate(header)
                       if name.startswith("bound_")]]
    assert bound.shape == (90, 2)
    assert np.all((ds.lower <= bound) & (bound <= ds.upper))


def test_removed_measure_and_sweep_options_exit_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--model", "m.json", "--data", "d.csv",
              "--epsilon", "0.001", "--out", str(tmp_path / "m.csv")])
    assert exc.value.code == 2
    cfg_path, _ = sweep_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["estimator"]["equality_threshold"] = 1e-3
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "sweep", "--config", cfg_path)
    assert code == 2
    assert "equality_threshold" in err


def test_one_parser_serves_consecutive_calls(capsys, tmp_path):
    # the parser is built once per process; parsing must leave it as it was,
    # so no value of one call reaches the next
    assert marginlab.cli._build_parser() is marginlab.cli._build_parser()
    data = gen(capsys, tmp_path, dim=3)
    model_path, _ = train(capsys, tmp_path, data, epochs=5)
    measure = ["measure", "--model", model_path, "--data", data]

    def parsed(argv):
        ns = vars(marginlab.cli._build_parser().parse_args(
            [str(a) for a in argv]))
        fresh = vars(marginlab.cli._build_parser.__wrapped__().parse_args(
            [str(a) for a in argv]))
        assert ns == fresh
        return ns

    assert parsed(measure + ["--batch", "--out", "a.csv"])["batch"] is True
    assert parsed(measure + ["--out", "b.csv"])["batch"] is False

    outs = {}
    for name, extra in [("batch", ["--batch"]), ("plain", []),
                        ("error", ["--estimator", "nope"]), ("again", [])]:
        outs[name] = tmp_path / f"{name}.csv"
        argv = measure + extra + ["--out", outs[name]]
        if name == "error":
            with pytest.raises(SystemExit) as exc:
                main([str(a) for a in argv])
            assert exc.value.code == 2
            capsys.readouterr()
            continue
        assert run(capsys, *argv)[0] == 0
    assert outs["plain"].read_bytes() == outs["again"].read_bytes()
    assert outs["plain"].read_bytes() != outs["batch"].read_bytes()
    assert not outs["error"].exists()

    for knee in (["--knee"], []):
        code, out_text, _ = run(capsys, "pca", "--data", data, *knee,
                                "--out", tmp_path / "pca.json")
        assert code == 0
        assert ("knee_m" in json.loads(out_text)) == bool(knee)
    assert parsed(["gen-data", "--out", "x.csv"])["classes"] == 2
    assert parsed(["sweep", "--config", "c.json"])["seed"] is None


# ---------------------------------------------------------------------------
# pca command


def test_pca_fit_and_knee(capsys, tmp_path):
    data = gen(capsys, tmp_path, dim=4)
    out = tmp_path / "pca.json"
    code, out_text, _ = run(capsys, "pca", "--data", data, "--out", out,
                            "--knee")
    assert code == 0
    model = load_pca(out)
    assert model.components.shape[1] == 4
    info = json.loads(out_text)
    assert 1 <= info["knee_m"] <= model.components.shape[0]
    assert isinstance(info["knee_fallback"], bool)


# ---------------------------------------------------------------------------
# evaluate command


def models_file(tmp_path, entries):
    path = tmp_path / "models.json"
    path.write_text(json.dumps(entries))
    return path


def test_evaluate_kendall_single_line(capsys, tmp_path):
    entries = [
        {"hyperparams": {"width": str(w)}, "train_acc": 1.0,
         "test_acc": acc, "measures": {"mean_margin": mm}}
        for w, acc, mm in [(8, 0.4, 1.0), (16, 0.3, 2.0),
                           (32, 0.2, 3.0), (64, 0.1, 4.0)]
    ]
    path = models_file(tmp_path, entries)
    code, out_text, _ = run(capsys, "evaluate", "--models", path,
                            "--metric", "kendall",
                            "--measure-col", "mean_margin")
    assert code == 0
    lines = [l for l in out_text.splitlines() if l.strip()]
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["tau"] == -1.0


def test_evaluate_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "evaluate", "--models", tmp_path / "no.json",
                       "--metric", "kendall", "--measure-col", "m")
    assert code == 2
    assert err


def test_evaluate_granulated_and_csv_output(capsys, tmp_path):
    entries = []
    for w in (8, 16):
        for s in (0, 1):
            acc = 0.5 + 0.1 * (w == 16)
            entries.append({"hyperparams": {"width": str(w), "seed": str(s)},
                            "train_acc": 1.0, "test_acc": acc,
                            "measures": {"mm": float(w + s)}})
    path = models_file(tmp_path, entries)
    out = tmp_path / "scores.csv"
    code, out_text, _ = run(capsys, "evaluate", "--models", path,
                            "--metric", "granulated", "--measure-col", "mm",
                            "--out", out)
    assert code == 0
    result = json.loads(out_text)
    assert result["per_axis"]["width"]["psi"] == 1.0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis,psi,included_groups,skipped_groups"
    assert len(lines) == 4  # two axes + mean row + header


def test_evaluate_granulated_reports_an_undefined_axis(capsys, tmp_path):
    # seed never varies inside a width group, so its psi is undefined
    entries = [{"hyperparams": {"width": str(w), "seed": "0"},
                "train_acc": 1.0, "test_acc": 0.5 + 0.1 * (w == 16),
                "measures": {"mm": float(w)}} for w in (8, 16)]
    out = tmp_path / "scores.csv"
    code, out_text, _ = run(capsys, "evaluate", "--models",
                            models_file(tmp_path, entries), "--metric",
                            "granulated", "--measure-col", "mm", "--out", out)
    assert code == 0
    result = json.loads(out_text)
    assert result["per_axis"]["seed"] == {"psi": None, "undefined": True}
    assert result["mean_psi"] == result["per_axis"]["width"]["psi"] == 1.0
    assert _csv_rows(out) == [
        ["axis", "psi", "included_groups", "skipped_groups"],
        ["seed", "", "", ""], ["width", "1.0", "1", "0"],
        ["mean", "1.0", "", ""]]


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_evaluate_quotes_a_measure_name_holding_csv_syntax(capsys,
                                                          tmp_path):
    # a comma, a quote or a line break in a text cell is quoted as the csv
    # module quotes it, so the data row stays one row of three cells
    name = 'm,1"\n'
    entries = [{"hyperparams": {"width": str(w)}, "train_acc": 1.0,
                "test_acc": acc, "measures": {name: mm}}
               for w, acc, mm in [(8, 0.4, 1.0), (16, 0.3, 2.0)]]
    out = tmp_path / "scores.csv"
    code, _, _ = run(capsys, "evaluate", "--models",
                     models_file(tmp_path, entries), "--metric", "kendall",
                     "--measure-col", name, "--out", out)
    assert code == 0
    assert out.read_text() == ('metric,measure,value\n'
                               'kendall,"m,1""\n",-1.0\n')
    assert _csv_rows(out) == [["metric", "measure", "value"],
                              ["kendall", name, "-1.0"]]


def test_evaluate_granulated_quotes_an_axis_name_holding_a_comma(capsys,
                                                                tmp_path):
    entries = [{"hyperparams": {"wid,th": str(w), "seed": str(s)},
                "train_acc": 1.0, "test_acc": 0.5 + 0.1 * (w == 16),
                "measures": {"mm": float(w + s)}}
               for w in (8, 16) for s in (0, 1)]
    out = tmp_path / "scores.csv"
    code, _, _ = run(capsys, "evaluate", "--models",
                     models_file(tmp_path, entries), "--metric",
                     "granulated", "--measure-col", "mm", "--out", out)
    assert code == 0
    rows = _csv_rows(out)
    assert [len(r) for r in rows] == [4, 4, 4, 4]
    assert sorted(r[0] for r in rows[1:]) == ["mean", "seed", "wid,th"]


def test_evaluate_cmi_negates_measure(capsys, tmp_path):
    # measure = -gap exactly, so with the sign convention complexity == gap
    # and the score must be perfect
    entries = []
    k = 0
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                gap = float(k + 1)
                k += 1
                entries.append({
                    "hyperparams": {"a": str(a), "b": str(b), "c": str(c)},
                    "train_acc": 1.0, "test_acc": 1.0 - gap / 10,
                    "measures": {"mm": -gap}})
    path = models_file(tmp_path, entries)
    code, out_text, _ = run(capsys, "evaluate", "--models", path,
                            "--metric", "cmi", "--measure-col", "mm")
    assert code == 0
    assert json.loads(out_text)["final"] == pytest.approx(100.0)


def test_evaluate_cmi_reports_retained_pairs(capsys, tmp_path):
    # one model per cell of a 2x2x2 grid plus a tied twin of the first:
    # every axis pair's cells hold two models each, except the twin's cell
    entries = [{"hyperparams": {"a": a, "b": b, "c": c}, "train_acc": 1.0,
                "test_acc": 0.1 * k, "measures": {"mm": float(k)}}
               for k, (a, b, c) in enumerate(
                   [(a, b, c) for a in (9, 10) for b in (0, 1)
                    for c in (0, 1)])]
    entries.append(dict(entries[0]))
    path = models_file(tmp_path, entries)
    out = tmp_path / "cmi.csv"
    code, out_text, _ = run(capsys, "evaluate", "--models", path,
                            "--metric", "cmi", "--measure-col", "mm",
                            "--out", out)
    assert code == 0
    result = json.loads(out_text)
    # four one-pair cells per axis pair; the twin joins the first model's
    # cell, where its pair with the first model ties and its pair with the
    # other model counts
    assert result["retained_pairs"] == {"a|b": 5, "a|c": 5, "b|c": 5}
    assert set(result["retained_pairs"]) == set(result["per_pair"])
    assert out.read_text().splitlines()[0] == "pair,normalized_cmi"
    assert len(out.read_text().splitlines()) == 5


# hyperparameter values of every JSON kind, one axis each: ints whose
# string order is not their order ("10" < "9"), finite floats, ints beyond
# int64, -0.0 beside 0.0, and one axis mixing 1, 1.0, true, null, a string,
# a list, NaN and Infinity. A token is str(value), so 1, 1.0 and true are
# three tokens and -0.0 is not 0.0
_MIXED_AXES = {"int": [9, 10, -3], "lr": [0.1, 5e-05],
               "wide": [2 ** 63, 7, -2 ** 63 - 1],
               "zero": [0.0, -0.0, 0.5],
               "mixed": [1, 1.0, True, None, "1", [1], float("nan"),
                         float("inf")]}


def _mixed_token_entries():
    """About half of the grid of ``_MIXED_AXES``, with tied accuracies and
    measures."""
    rng = np.random.default_rng(29)
    entries = []
    for point in itertools.product(*_MIXED_AXES.values()):
        if rng.random() < 0.5:
            continue
        test = int(rng.integers(4, 17)) / 20
        entries.append({"hyperparams": dict(zip(_MIXED_AXES, point)),
                        "train_acc": min(1.0, test
                                         + int(rng.integers(0, 4)) / 20),
                        "test_acc": test,
                        "measures": {"mm": float(rng.integers(0, 12))}})
    return entries


# stdout and CSV of each metric on ``_mixed_token_entries``, as written
# when every token was made by str() of its value
_MIXED_EXPECTED = {
    "kendall": (
        '{"measure": "mm", "metric": "kendall", "models": 218,'
        ' "target": "test_accuracy", "tau": -0.03559802139263518}\n',
        'metric,measure,value\n'
        'kendall,mm,-0.03559802139263518\n'),
    "granulated": (
        '{"mean_psi": -0.03377069406156974, "measure": "mm",'
        ' "metric": "granulated",'
        ' "per_axis": {"int": {"included_groups": 74,'
        ' "psi": -0.1563063063063063, "skipped_groups": 38},'
        ' "lr": {"included_groups": 55, "psi": 0.0030303030303030355,'
        ' "skipped_groups": 91}, "mixed": {"included_groups": 52,'
        ' "psi": -0.04239926739926737, "skipped_groups": 2},'
        ' "wide": {"included_groups": 71, "psi": 0.07464788732394367,'
        ' "skipped_groups": 42}, "zero": {"included_groups": 69,'
        ' "psi": -0.04782608695652173, "skipped_groups": 42}},'
        ' "target": "test_accuracy"}\n',
        'axis,psi,included_groups,skipped_groups\n'
        'int,-0.1563063063063063,74,38\n'
        'lr,0.0030303030303030355,55,91\n'
        'mixed,-0.04239926739926737,52,2\n'
        'wide,0.07464788732394367,71,42\n'
        'zero,-0.04782608695652173,69,42\n'
        'mean,-0.03377069406156974,,\n'),
    "cmi": (
        '{"final": 1.1951993768792766, "measure": "mm", "metric": "cmi",'
        ' "per_pair": {"int|lr": 0.011951993768792765,'
        ' "int|mixed": 0.08014241325511658,'
        ' "int|wide": 0.02399314711858824,'
        ' "int|zero": 0.022908274007769854,'
        ' "lr|mixed": 0.06833251832556445, "lr|wide": 0.014902149212799141,'
        ' "lr|zero": 0.02197659649603477,'
        ' "mixed|wide": 0.08995703154581935,'
        ' "mixed|zero": 0.09370079647181717,'
        ' "wide|zero": 0.012186813818206799},'
        ' "retained_pairs": {"int|lr": 2941, "int|mixed": 896,'
        ' "int|wide": 1980, "int|zero": 1954, "lr|mixed": 1357,'
        ' "lr|wide": 2959, "lr|zero": 2907, "mixed|wide": 936,'
        ' "mixed|zero": 880, "wide|zero": 1915}, "sign": "negated-measure",'
        ' "target": "gen_gap"}\n',
        'pair,normalized_cmi\n'
        'int|lr,0.011951993768792765\n'
        'int|mixed,0.08014241325511658\n'
        'int|wide,0.02399314711858824\n'
        'int|zero,0.022908274007769854\n'
        'lr|mixed,0.06833251832556445\n'
        'lr|wide,0.014902149212799141\n'
        'lr|zero,0.02197659649603477\n'
        'mixed|wide,0.08995703154581935\n'
        'mixed|zero,0.09370079647181717\n'
        'wide|zero,0.012186813818206799\n'
        'final,1.1951993768792766\n'),
    "r2": (
        '{"measure": "mm", "metric": "r2", "r2": -12857.432102992536,'
        ' "target": "gen_gap"}\n',
        'metric,measure,value\n'
        'r2,mm,-12857.432102992536\n'),
}


@pytest.mark.parametrize("reorder", [False, True],
                         ids=["one-key-order", "mixed-key-orders"])
def test_evaluate_mixed_tokens_write_the_stringified_scores(capsys, tmp_path,
                                                            reorder):
    entries = _mixed_token_entries()
    if reorder:  # every fifth entry lists its axes backwards
        for entry in entries[::5]:
            entry["hyperparams"] = dict(
                reversed(list(entry["hyperparams"].items())))
    path = models_file(tmp_path, entries)
    out = tmp_path / "scores.csv"
    for metric, (stdout, csv_text) in _MIXED_EXPECTED.items():
        code, out_text, err = run(capsys, "evaluate", "--models", path,
                                  "--metric", metric, "--measure-col", "mm",
                                  "--out", out)
        assert (code, err) == (0, "")
        assert out_text == stdout
        assert out.read_text() == csv_text


def test_evaluate_non_finite_score_exits_3_before_writing(capsys, tmp_path):
    # a measure near the float limit overflows the r2 error sum to inf
    entries = [{"hyperparams": {"a": str(k)}, "train_acc": 1.0,
                "test_acc": 0.5, "measures": {"mm": 1e200 * (k == 0)}}
               for k in range(3)]
    entries[1]["test_acc"] = 0.4
    path = models_file(tmp_path, entries)
    out = tmp_path / "r2.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print too
        code, out_text, err = run(capsys, "evaluate", "--models", path,
                                  "--metric", "r2", "--measure-col", "mm",
                                  "--out", out)
    assert code == 3
    assert "non-finite" in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out_text == ""
    assert not out.exists()


def test_evaluate_rejects_unknown_entry_keys(capsys, tmp_path):
    path = models_file(tmp_path, [{"hyperparams": {"a": "1"},
                                   "train_acc": 1.0, "test_acc": 0.5,
                                   "measures": {"m": 1.0},
                                   "surprise": True}])
    code, _, err = run(capsys, "evaluate", "--models", path,
                       "--metric", "kendall", "--measure-col", "m")
    assert code == 2
    assert "surprise" in err


def _thirty_entries():
    return [{"hyperparams": {"a": str(k % 3), "b": str(k % 5),
                             "c": str(k // 15)},
             "train_acc": 1.0, "test_acc": 0.5 + k / 100,
             "measures": {"mm": float(k % 7)}}
            for k in range(30)]


@pytest.mark.parametrize("field,value,complaint", [
    ("measure", "abc", "measure 'mm' must be a finite number"),
    ("measure", float("nan"), "measure 'mm' must be a finite number"),
    ("measure", True, "measure 'mm' must be a finite number"),
    ("measure", 10 ** 400, "measure 'mm' must be a finite number"),
    ("test_acc", float("nan"), "test_acc must be a finite number"),
    ("train_acc", float("inf"), "train_acc must be a finite number"),
    ("train_acc", None, "train_acc must be a finite number"),
    ("hyperparams", [1], "hyperparams must be a non-empty object"),
    ("hyperparams", {}, "hyperparams must be a non-empty object"),
    ("measures", [1.0], "measures must be an object"),
], ids=["measure-text", "measure-nan", "measure-bool", "measure-huge-int",
        "test_acc-nan", "train_acc-inf", "train_acc-null", "hyperparams-list",
        "hyperparams-empty", "measures-list"])
def test_evaluate_rejects_malformed_entry(capsys, tmp_path, field, value,
                                          complaint):
    entries = _thirty_entries()
    if field == "measure":
        entries[17]["measures"]["mm"] = value
    else:
        entries[17][field] = value
    path = models_file(tmp_path, entries)
    for metric in ("kendall", "granulated", "cmi", "r2"):
        code, out_text, err = run(capsys, "evaluate", "--models", path,
                                  "--metric", metric, "--measure-col", "mm")
        assert code == 2, (metric, err)
        assert f"entry 17 {complaint}" in err
        assert out_text == ""
    # the untouched file scores on every metric
    path = models_file(tmp_path, _thirty_entries())
    for metric in ("kendall", "granulated", "cmi", "r2"):
        code, _, err = run(capsys, "evaluate", "--models", path,
                           "--metric", metric, "--measure-col", "mm")
        assert code == 0, (metric, err)


def test_evaluate_schema_mismatch_names_the_entry(capsys, tmp_path):
    entries = _thirty_entries()
    entries[12]["hyperparams"]["d"] = "1"
    entries[20]["hyperparams"].pop("a")
    path = models_file(tmp_path, entries)
    for metric in ("granulated", "cmi"):
        code, out_text, err = run(capsys, "evaluate", "--models", path,
                                  "--metric", metric, "--measure-col", "mm")
        assert code == 2, (metric, err)
        assert "entry 12 hyperparams name axes ['a', 'b', 'c', 'd'], " \
               "entry 0 names ['a', 'b', 'c']" in err
        assert out_text == ""
    # kendall and r2 read no hyperparameters
    for metric in ("kendall", "r2"):
        code, _, err = run(capsys, "evaluate", "--models", path,
                           "--metric", metric, "--measure-col", "mm")
        assert code == 0, (metric, err)


def test_evaluate_names_a_bad_last_entry_of_a_long_file(capsys, tmp_path):
    entries = [{"hyperparams": {"a": k % 10, "b": k // 10 % 10,
                                "c": k // 100},
                "train_acc": 1.0, "test_acc": 0.5 + k / 4000,
                "measures": {"mm": float(k % 7)}} for k in range(1000)]
    entries[999]["test_acc"] = True
    path = models_file(tmp_path, entries)
    for metric in ("kendall", "granulated", "cmi", "r2"):
        code, out_text, err = run(capsys, "evaluate", "--models", path,
                                  "--metric", metric, "--measure-col", "mm")
        assert code == 2, (metric, err)
        assert "entry 999 test_acc must be a finite number, got True" in err
        assert out_text == ""


# ---------------------------------------------------------------------------
# advdir command


def test_advdir_pipeline(capsys, tmp_path):
    data = gen(capsys, tmp_path)
    model_path, _ = train(capsys, tmp_path, data)
    pca_path = tmp_path / "pca.json"
    run(capsys, "pca", "--data", data, "--out", pca_path)
    bout = tmp_path / "bounds.csv"
    code, _, _ = run(capsys, "measure", "--model", model_path, "--data", data,
                     "--estimator", "deepfool", "--out", tmp_path / "m.csv",
                     "--boundary-out", bout)
    assert code == 0
    out = tmp_path / "shares.csv"
    code, out_text, _ = run(capsys, "advdir", "--pca", pca_path,
                            "--boundary-csv", bout, "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "component_index,explained_ratio,p_share,cumulative"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 3
    p = [float(r[2]) for r in rows]
    assert sum(p) == pytest.approx(1.0, abs=1e-10)
    summary = json.loads(out_text)
    assert summary["marker_70"] >= 1


def test_advdir_non_finite_projection_exits_3(capsys, tmp_path):
    pca_path = tmp_path / "pca.json"
    save_pca(fit_pca(np.random.default_rng(2).normal(size=(20, 2))),
             pca_path)
    doc = json.loads(pca_path.read_text())
    doc["mean"][0] = float("nan")
    pca_path.write_text(json.dumps(doc))
    bout = tmp_path / "bounds.csv"
    bout.write_text("sample_index,orig_0,orig_1,bound_0,bound_1\n"
                    "0,0.1,0.2,0.3,0.4\n")
    out = tmp_path / "shares.csv"
    code, out_text, err = run(capsys, "advdir", "--pca", pca_path,
                              "--boundary-csv", bout, "--out", out)
    assert code == 3
    assert "non-finite" in err
    assert out_text == ""
    assert not out.exists()


@pytest.mark.parametrize("row", [
    "1,0.5,x,0.4", "2,0.5,0.1",
    # non-finite orig_* and bound_* cells
    "1,nan,0.2,0.4", "1,0.5,inf,0.4", "1,-inf,0.2,0.4",
    "1,0.5,0.2,nan", "1,0.5,0.2,inf", "1,0.5,0.2,-inf",
])
def test_advdir_rejects_malformed_boundary_csv(capsys, tmp_path, row):
    pca_path = tmp_path / "pca.json"
    save_pca(fit_pca(np.random.default_rng(2).normal(size=(20, 2))),
             pca_path)
    bout = tmp_path / "bounds.csv"
    bout.write_text("sample_index,orig_0,orig_1,bound_0,bound_1\n"
                    "0,0.1,0.2,0.3,0.4\n" + row + ",0.7\n")
    out = tmp_path / "shares.csv"
    code, out_text, err = run(capsys, "advdir", "--pca", pca_path,
                              "--boundary-csv", bout, "--out", out)
    assert code == 2
    assert "data row 2" in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out_text == ""
    assert not out.exists()


def test_advdir_boundary_csv_without_rows_exits_2(capsys, tmp_path):
    pca_path = tmp_path / "pca.json"
    save_pca(fit_pca(np.random.default_rng(2).normal(size=(20, 2))),
             pca_path)
    bout = tmp_path / "bounds.csv"
    bout.write_text("sample_index,orig_0,orig_1,bound_0,bound_1\n")
    out = tmp_path / "shares.csv"
    code, out_text, err = run(capsys, "advdir", "--pca", pca_path,
                              "--boundary-csv", bout, "--out", out)
    assert (code, out_text) == (2, "")
    assert "holds no samples" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("sample_index", ["a7", "1_0", '"3"'])
def test_advdir_rejects_non_numeric_cell_outside_orig_bound(capsys, tmp_path,
                                                            sample_index):
    # the old reader parsed only the orig_*/bound_* cells; every cell of a
    # boundary CSV is now a number
    pca_path = tmp_path / "pca.json"
    save_pca(fit_pca(np.random.default_rng(2).normal(size=(20, 2))),
             pca_path)
    bout = tmp_path / "bounds.csv"
    bout.write_text("sample_index,orig_0,orig_1,bound_0,bound_1\n"
                    "0,0.1,0.2,0.3,0.4\n"
                    f"{sample_index},0.5,0.2,0.4,0.7\n")
    out = tmp_path / "shares.csv"
    code, out_text, err = run(capsys, "advdir", "--pca", pca_path,
                              "--boundary-csv", bout, "--out", out)
    assert (code, out_text) == (2, "")
    assert "data row 2" in err and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep command


def sweep_config(tmp_path, widths=(16, 24, 32), out_name="sweep_out"):
    # Widths and epochs are chosen so every trained model fits at least one
    # of its flipped labels; otherwise no corrupted sample is correctly
    # classified, nothing in that group is measured, and the
    # "corrupt:label-corrupted" summary cell is absent by design.
    cfg = {
        "dataset": {"classes": 2, "samples_per_class": 30, "dim": 3,
                    "spread": 1.0},
        "corruptions": [{"mode": "label", "fraction": 0.2}],
        "widths": list(widths),
        "seeds": [0],
        "train": {"epochs": 300, "batch_size": 16, "learning_rate": 0.1},
        "estimator": {"name": "deepfool", "learning_rate": 0.25,
                      "stop_tolerance": 0.01, "max_iters": 50},
        "normalize": "znorm",
        "output_dir": str(tmp_path / out_name),
        "seed": 3,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / out_name


def test_sweep_structure_and_determinism(capsys, tmp_path):
    cfg_path, out_dir = sweep_config(tmp_path)
    code, out_text, _ = run(capsys, "sweep", "--config", cfg_path)
    assert code == 0
    files = json.loads(out_text)["files"]
    margins = (out_dir / "margins.csv").read_text()
    lines = margins.splitlines()
    assert lines[0].split(",") == [
        "width", "seed", "variant", "train_accuracy", "test_accuracy",
        "margin_clean", "margin_corrupt", "margin_overall"]
    assert len(lines) - 1 == 6  # 3 widths x 1 seed x 2 variants
    variants = {l.split(",")[2] for l in lines[1:]}
    assert variants == {"clean", "label-corrupted"}

    summary = json.loads((out_dir / "summary.json").read_text())
    for width in ("16", "24", "32"):
        per = summary["per_width"][width]
        assert "clean:clean" in per
        assert "clean:label-corrupted" in per
        assert "corrupt:label-corrupted" in per
        assert "overall:label-corrupted" in per
    assert "label-corrupted" in summary["max_margin"]

    first = {name: (out_dir / name).read_bytes() for name in files}
    code, _, _ = run(capsys, "sweep", "--config", cfg_path)
    assert code == 0
    for name, blob in first.items():
        assert (out_dir / name).read_bytes() == blob


def test_sweep_empty_widths_exits_2(capsys, tmp_path):
    cfg_path, _ = sweep_config(tmp_path, widths=())
    code, _, err = run(capsys, "sweep", "--config", cfg_path)
    assert code == 2
    assert err


def test_sweep_unknown_key_exits_2(capsys, tmp_path):
    cfg_path, _ = sweep_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["surprise"] = 1
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "sweep", "--config", cfg_path)
    assert code == 2
    assert "surprise" in err


def test_sweep_flag_overrides_config(capsys, tmp_path):
    cfg_path, out_dir = sweep_config(tmp_path, widths=(4,))
    other = tmp_path / "other_out"
    code, out_text, _ = run(capsys, "sweep", "--config", cfg_path,
                            "--output-dir", other)
    assert code == 0
    assert (other / "margins.csv").exists()
    assert not (out_dir / "margins.csv").exists()


@pytest.mark.parametrize("section,key,value", [
    ("train", "epochs", "abc"),
    ("dataset", "spread", "x"),
    (None, "widths", [4, True]),
    (None, "seeds", [0, True]),
    ("train", "epochs", 2.7),
    ("estimator", "max_iters", 1.9),
    (None, "train", 5),
    (None, "estimator", None),
    (None, "corruptions", 5),
    ("dataset", "classes", 2.0),
    ("train", "learning_rate", True),
    (None, "seed", "3"),
    (None, "output_dir", 7),
    # well-typed values out of the library types' ranges
    ("train", "epochs", 0),
    ("train", "batch_size", 0),
    ("train", "momentum", 1.0),
    ("train", "learning_rate", -1),
    ("dataset", "classes", 1),
    ("dataset", "dim", 1),
    ("dataset", "spread", 0.0),
    ("dataset", "samples_per_class", 0),
    (None, "corruptions", [{"mode": "flip"}]),
    (None, "corruptions", [{"mode": "label", "fraction": 1.5}]),
    ("estimator", "name", "foo"),
    (None, "normalize", "zscore"),
])
def test_sweep_bad_config_value_exits_2(capsys, tmp_path, section, key,
                                        value):
    cfg_path, out_dir = sweep_config(tmp_path, widths=(4,))
    cfg = json.loads(cfg_path.read_text())
    (cfg if section is None else cfg[section])[key] = value
    cfg_path.write_text(json.dumps(cfg))
    code, out_text, err = run(capsys, "sweep", "--config", cfg_path)
    assert code == 2
    assert key in err
    assert out_text == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("key,value", [("learning_rate", 0.25),
                                       ("stop_tolerance", 0.001),
                                       ("max_iters", 100)])
def test_sweep_taylor_with_a_search_key_exits_2(capsys, tmp_path, key,
                                                value):
    # the closed form takes no search setting; these were range-checked
    # and then ignored
    cfg_path, out_dir = sweep_config(tmp_path, widths=(4,))
    cfg = json.loads(cfg_path.read_text())
    cfg["estimator"] = {"name": "taylor", key: value}
    cfg_path.write_text(json.dumps(cfg))
    code, out_text, err = run(capsys, "sweep", "--config", cfg_path)
    assert code == 2
    assert key in err and "taylor" in err
    assert out_text == ""
    assert not out_dir.exists()


def test_sweep_taylor_measures_the_closed_form(capsys, tmp_path):
    cfg_path, out_dir = sweep_config(tmp_path, widths=(4,))
    cfg = json.loads(cfg_path.read_text())
    cfg["estimator"] = {"name": "taylor"}
    cfg_path.write_text(json.dumps(cfg))
    assert run(capsys, "sweep", "--config", cfg_path)[0] == 0
    assert json.loads((out_dir / "summary.json").read_text())[
        "estimator"] == "taylor"
    loaded = _load_sweep_config(cfg, "sweep.json", None, None)
    assert loaded.search is None


def test_sweep_integer_fraction_draws_the_float_fractions_corruption(
        capsys, tmp_path):
    # a corruption's seed was derived from the fraction's text, so a library
    # config's fraction 1 drew another corruption than the JSON loader's 1.0;
    # with 3 classes the relabelling depends on that seed
    doc = {"dataset": {"classes": 3, "samples_per_class": 5, "dim": 2,
                       "spread": 1.0},
           "corruptions": [{"mode": "label", "fraction": 1}],
           "widths": [3], "train": {"epochs": 2, "batch_size": 4,
                                    "learning_rate": 0.1},
           "estimator": {"stop_tolerance": 0.001, "max_iters": 5},
           "output_dir": str(tmp_path / "json"), "seed": 1}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(doc))
    assert run(capsys, "sweep", "--config", cfg_path)[0] == 0
    info = run_capacity_sweep(ExperimentConfig(
        blob=BlobConfig(3, 5, 2, 1.0, 0), dataset_path=None, test_path=None,
        corruptions=(("label", 1),), widths=(3,), seeds=(0,),
        train=TrainConfig(2, 4, 0.1),
        search=SearchConfig(stop_tolerance=0.001, max_iters=5),
        normalize="znorm", output_dir=str(tmp_path / "library"), seed=1))
    assert len(info["files"]) == 4
    for name in info["files"]:
        assert ((tmp_path / "library" / name).read_bytes()
                == (tmp_path / "json" / name).read_bytes()), name


def test_sweep_single_class_dataset_writes_nothing(capsys, tmp_path,
                                                  monkeypatch):
    # labels 0..1 declare two classes, but only class 1 is present, so the
    # report stage's max margin would be undefined: the run stops once the
    # data are loaded, before any model is trained
    rng = np.random.default_rng(5)
    for name in ("train.csv", "test.csv"):
        save_dataset(Dataset(rng.normal(size=(12, 2)), np.ones(12, int),
                             np.full(2, -9.0), np.full(2, 9.0),
                             np.zeros(12, int), class_count=2),
                     tmp_path / name)
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"path": str(tmp_path / "train.csv"),
                    "test_path": str(tmp_path / "test.csv")},
        "widths": [3], "train": {"epochs": 2, "batch_size": 4},
        "output_dir": str(out_dir)}))
    train = mock.Mock(side_effect=AssertionError("train_sgd called"))
    monkeypatch.setattr(marginlab.sweep, "train_sgd", train)
    code, out_text, err = run(capsys, "sweep", "--config", cfg_path)
    train.assert_not_called()
    assert code == 2
    assert "stage generate" in err and "single class" in err
    assert out_text == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("scheme", ["znorm", "none"])
def test_sweep_margins_match_mw_measure(capsys, tmp_path, scheme):
    # the sweep and mw measure measure a model through one function: the
    # sweep's clean entry, rebuilt and measured with the sweep's search
    # settings, gives the same margin cell for every measured sample
    train_csv = gen(capsys, tmp_path, "train.csv", classes=3, spc=30, dim=3,
                    spread=1.5, seed=4)
    test_csv = gen(capsys, tmp_path, "test.csv", classes=3, spc=20, dim=3,
                   spread=1.5, seed=5)
    doc = {"dataset": {"path": str(train_csv), "test_path": str(test_csv)},
           "corruptions": [{"mode": "label", "fraction": 0.2}],
           "widths": [8], "seeds": [0],
           "train": {"epochs": 60, "batch_size": 16, "learning_rate": 0.1},
           "estimator": {"name": "deepfool", "learning_rate": 0.25,
                         "stop_tolerance": 0.001, "max_iters": 100},
           "normalize": scheme, "output_dir": str(tmp_path / "out"),
           "seed": 2}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "sweep", "--config", cfg_path)
    assert code == 0

    cfg = _load_sweep_config(doc, "sweep.json", None, None)
    ds, meta = normalize(load_dataset(train_csv), scheme)
    model = tmp_path / "model.json"
    save_model(_train_entry(cfg, "clean", ds, meta, 8, 0), model)
    out = tmp_path / "m.csv"
    code, _, _ = run(capsys, "measure", "--model", model, "--data", train_csv,
                     "--estimator", "deepfool", "--batch", "--gamma", 0.25,
                     "--tol", 0.001, "--max-iters", 100, "--out", out)
    assert code == 0

    with open(tmp_path / "out" / "per_sample_margins.csv", newline="") as fh:
        expected = {r["sample_index"]: r["margin"]
                    for r in csv.DictReader(fh)
                    if r["variant"] == "clean" and r["margin"]}
    with open(out, newline="") as fh:
        got = {r["sample_index"]: r["margin"] for r in csv.DictReader(fh)}
    assert len(got) > 60
    assert got == expected


def test_measure_tv_normalize_overflow_exits_3(capsys, tmp_path):
    # hidden activations near 1e200 overflow the layer's variance; that is
    # a numerical error with one error line, not a leaked numpy warning
    net = Network([DenseLayer(np.array([[1e200, 0.0], [0.0, 1.0]]),
                              np.zeros(2), "relu"),
                   DenseLayer(np.array([[1.0, 0.0], [0.0, 1.0]]),
                              np.zeros(2), "none")], 2, 2, norm_meta=None)
    save_model(net, tmp_path / "model.json")
    data = tmp_path / "d.csv"
    data.write_text("f0,f1,label\n1.0,0.0,0\n-1.0,0.5,1\n2.0,0.0,0\n")
    out = tmp_path / "m.csv"
    code, stdout, err = run(capsys, "measure", "--model",
                            tmp_path / "model.json", "--data", data,
                            "--estimator", "taylor", "--layer", 1,
                            "--tv-normalize", "--out", out)
    assert code == 3
    assert err.splitlines() == ["error: activation total variation "
                                "overflows"]
    assert stdout == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# a failing command writes nothing: every payload and the summary line are
# built before the first file is written


# finite features near the float limit, two rows per class
_NEAR_LIMIT = ("f0,f1,label\n1e308,-1e308,0\n-1e308,1e308,1\n"
               "1e308,1e308,0\n-1e308,-1e308,1\n")


def test_measure_overflowing_search_exits_3_and_writes_nothing(capsys,
                                                               tmp_path):
    # a model trained on small values searches from rows near the float
    # limit: the distance to the first iterate overflows
    model, _ = train(capsys, tmp_path, gen(capsys, tmp_path, dim=2))
    data = tmp_path / "big.csv"
    data.write_text(_NEAR_LIMIT)
    out, boundary = tmp_path / "m.csv", tmp_path / "b.csv"
    code, stdout, err = run(capsys, "measure", "--model", model, "--data",
                            data, "--include-misclassified",
                            "--boundary-out", boundary, "--out", out)
    assert code == 3
    assert err.splitlines() == ["error: a search iterate's distance or "
                                "logit gap overflows"]
    assert stdout == ""
    assert not out.exists() and not boundary.exists()


@pytest.mark.parametrize("estimator", ["taylor", "deepfool"])
def test_measure_overflowing_linearized_distance_exits_3_and_writes_nothing(
        capsys, tmp_path, estimator):
    # gap 1e300 over a gradient norm of 1e-11 at the one correctly
    # classified row: the first linearized distance overflows
    net = Network([DenseLayer(np.array([[5e-12, 0.0], [-5e-12, 0.0]]),
                              np.array([1e300, 0.0]), "none")], 2, 2,
                  norm_meta=None)
    save_model(net, tmp_path / "model.json")
    data = tmp_path / "d.csv"
    data.write_text("f0,f1,label\n1,0,0\n-1,0,1\n")
    out = tmp_path / "m.csv"
    code, stdout, err = run(capsys, "measure", "--model",
                            tmp_path / "model.json", "--data", data,
                            "--estimator", estimator, "--out", out)
    assert code == 3
    assert err.splitlines() == ["error: a linearized boundary distance "
                                "overflows"]
    assert stdout == ""
    assert not out.exists()


def test_measure_summary_overflow_writes_nothing(capsys, tmp_path):
    # a linear net whose closed-form margins are the rows' first features:
    # each is finite, but their mean overflows, and the table is not
    # written either
    net = Network([DenseLayer(np.array([[0.5, 0.0], [-0.5, 0.0]]),
                              np.zeros(2), "none")], 2, 2, norm_meta=None)
    save_model(net, tmp_path / "model.json")
    data = tmp_path / "d.csv"
    data.write_text("f0,f1,label\n1e308,0,0\n1.5e308,0,0\n-1,0,1\n")
    out = tmp_path / "m.csv"
    code, stdout, err = run(capsys, "measure", "--model",
                            tmp_path / "model.json", "--data", data,
                            "--estimator", "taylor", "--out", out)
    assert code == 3
    assert err.startswith("error: summary holds a non-finite value")
    assert stdout == ""
    assert not out.exists()


def test_measure_tv_normalize_computes_the_total_variation_once(
        capsys, tmp_path, monkeypatch):
    calls = []
    original = marginlab.margin.compute_total_variation

    def counted(acts):
        calls.append(acts.shape)
        return original(acts)

    monkeypatch.setattr(marginlab.margin, "compute_total_variation", counted)
    monkeypatch.setattr(marginlab.cli, "compute_total_variation", counted)
    model, _ = train(capsys, tmp_path, gen(capsys, tmp_path))
    code, stdout, _ = run(capsys, "measure", "--model", model, "--data",
                          tmp_path / "blobs.csv", "--estimator", "taylor",
                          "--layer", 1, "--tv-normalize",
                          "--out", tmp_path / "m.csv")
    assert code == 0
    assert len(calls) == 1
    assert json.loads(stdout)["total_variation"] > 0


@pytest.mark.parametrize("scheme", ["znorm", "minmax"])
def test_train_overflowing_normalization_exits_3_and_writes_nothing(
        capsys, tmp_path, scheme):
    # the spread of features near the float limit overflows a float, so
    # the model's scales would be infinite, a model no reader takes
    data = tmp_path / "big.csv"
    data.write_text(_NEAR_LIMIT)
    out = tmp_path / "model.json"
    code, stdout, err = run(capsys, "train", "--data", data, "--hidden", 4,
                            "--normalize", scheme, "--out", out)
    assert code == 3
    assert err.splitlines() == [f"error: {scheme} normalization overflows"]
    assert stdout == ""
    assert not out.exists()


def test_sweep_overflowing_normalization_fails_at_its_stage(capsys,
                                                            tmp_path):
    for name in ("train.csv", "test.csv"):
        (tmp_path / name).write_text(_NEAR_LIMIT)
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"path": str(tmp_path / "train.csv"),
                    "test_path": str(tmp_path / "test.csv")},
        "corruptions": [{"mode": "label", "fraction": 0.5}],
        "widths": [3], "train": {"epochs": 2, "batch_size": 4},
        "output_dir": str(out_dir)}))
    code, stdout, err = run(capsys, "sweep", "--config", cfg_path)
    assert code == 3
    assert err.splitlines() == ["error: stage normalize: znorm "
                                "normalization overflows"]
    assert stdout == ""
    assert not out_dir.exists()


def test_pca_knee_failure_writes_nothing(capsys, tmp_path):
    # two features give two components, too few for a knee
    data = gen(capsys, tmp_path, dim=2)
    out = tmp_path / "pca.json"
    code, stdout, err = run(capsys, "pca", "--data", data, "--knee",
                            "--out", out)
    assert code == 2
    assert "knee selection needs at least 3" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command, what", [("evaluate", "models file"),
                                           ("sweep", "sweep config")])
@pytest.mark.parametrize("content", [None, b"[{", b"\xff[]"],
                         ids=["missing", "bad-json", "bad-utf8"])
def test_unreadable_json_input_is_named_with_its_role(capsys, tmp_path,
                                                      command, what,
                                                      content):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_bytes(content)
    argv = (["evaluate", "--models", path, "--metric", "kendall",
             "--measure-col", "m"] if command == "evaluate"
            else ["sweep", "--config", path])
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {path}: cannot read {what} (")
    assert len(err.splitlines()) == 1
    assert stdout == ""


def test_measure_overflowing_forward_pass_exits_3_and_writes_nothing(
        capsys, tmp_path):
    # weights of 10 take a row near the float limit past it in layer 1
    net = Network([DenseLayer(np.array([[10.0, 10.0], [1.0, -1.0]]),
                              np.zeros(2), "relu"),
                   DenseLayer(np.eye(2), np.zeros(2), "none")], 2, 2,
                  norm_meta=None)
    save_model(net, tmp_path / "model.json")
    data = tmp_path / "d.csv"
    data.write_text("f0,f1,label\n1e308,1e308,0\n-1,2,1\n")
    out = tmp_path / "m.csv"
    code, stdout, err = run(capsys, "measure", "--model",
                            tmp_path / "model.json", "--data", data,
                            "--include-misclassified", "--out", out)
    assert code == 3
    assert err.splitlines() == ["error: the forward pass overflows"]
    assert stdout == ""
    assert not out.exists()


def test_corrupt_overflowing_input_noise_exits_3_and_writes_nothing(
        capsys, tmp_path):
    data = tmp_path / "big.csv"
    data.write_text(_NEAR_LIMIT)
    out, report = tmp_path / "c.csv", tmp_path / "r.json"
    code, stdout, err = run(capsys, "corrupt", "--in", data, "--out", out,
                            "--mode", "input", "--fraction", 1.0,
                            "--report", report)
    assert code == 3
    assert err.splitlines() == ["error: sample 0's feature mean or spread "
                                "overflows"]
    assert stdout == ""
    assert not out.exists() and not report.exists()


# file errors that only generated examples reached: each has a named example
# here, so that tests/unreached.py, which runs no generated example, lists
# none of them whatever a Hypothesis release draws

def _model_doc_without(tmp_path, key, norm=None):
    """A model file of a 3-4-3 net with ``key`` left out of the model, or
    of its normalization block when ``norm`` is given."""
    path = tmp_path / "model.json"
    meta = NormalizationMeta("znorm", np.zeros(3), np.ones(3),
                             np.full(3, -1.0), np.ones(3))
    save_model(Network(
        [DenseLayer(np.ones((4, 3)), np.zeros(4), "relu"),
         DenseLayer(np.ones((3, 4)), np.zeros(3), "none")], 3, 3, meta), path)
    doc = json.loads(path.read_text())
    del (doc if norm is None else doc["norm"])[key]
    path.write_text(json.dumps(doc))
    return path


def _written(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("load", [
    lambda tmp_path: load_model(_model_doc_without(tmp_path, "layers")),
    lambda tmp_path: load_model(_model_doc_without(tmp_path, "scales",
                                                   norm=True)),
    lambda tmp_path: _load_sweep_config({}, "sweep.json", None, None),
    lambda tmp_path: load_dataset(_written(tmp_path / "ds.csv", "f0,label\n")),
], ids=["model-no-layers", "model-norm-no-scales", "sweep-no-keys",
        "csv-header-only"])
def test_named_malformed_files_raise_config_error(tmp_path, load):
    with pytest.raises(ConfigError):
        load(tmp_path)


@pytest.mark.parametrize("command,name,text", [
    (["evaluate", "--metric", "kendall", "--measure-col", "m", "--models"],
     "models.json", "[]"),
    (["advdir", "--pca", "{pca}", "--boundary-csv"], "bounds.csv",
     "sample_index,orig_0,orig_1\n0,0.1,0.2\n"),
], ids=["evaluate-no-models", "advdir-no-bound-columns"])
def test_named_malformed_inputs_exit_2(capsys, tmp_path, command, name, text):
    pca_path = tmp_path / "pca.json"
    save_pca(fit_pca(np.random.default_rng(2).normal(size=(20, 2))),
             pca_path)
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out.csv"
    argv = [str(pca_path) if a == "{pca}" else a for a in command]
    code, out_text, err = run(capsys, *argv, path, "--out", out)
    assert (code, out_text) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
