"""Mutated input files never crash ``mw``: every run exits 0, 2 or 3.

Each example starts from a valid ``models.json`` (for ``mw evaluate``), a
valid trained model (for ``mw measure``), a valid projection file (for
``mw advdir``) or a valid sweep config (for ``mw sweep``) and changes one
node of its JSON tree, chosen among all its nodes: the node is replaced
by an arbitrary JSON value (including NaN, ±inf, integers beyond float
range and nested containers) or deleted, or a sibling is added. CSV
inputs (a dataset for ``mw measure``, a boundary file for ``mw advdir``)
get one textual edit instead: a cell replaced by arbitrary text or an
awkward number, a cell or row deleted, added or duplicated, a blank line
inserted, or the file cut short. A Python exception escaping ``main``
would be a traceback for a user, so the test fails on any.

The dataset commands (``mw gen-data``, ``mw corrupt``) get drawn flags
and output names, CSV or not: a dataset a run writes must load with the
counts it printed, and a refused run must leave its outputs as they were.
So do ``mw train`` and ``mw pca``, whose model and projection files must
load with the widths and component counts they printed.
"""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import marginlab.cli
from marginlab.cli import main
from marginlab.data import NORMALIZE_SCHEMES, BlobConfig, load_dataset
from marginlab.errors import ConfigError
from marginlab.margin import SearchConfig
from marginlab.metrics import ModelTable
from marginlab.nnet import TrainConfig, load_model
from marginlab.pca import fit_pca, load_pca, save_pca
from marginlab.sweep import ExperimentConfig

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.sampled_from([10 ** 30, -(10 ** 400), 10 ** 400]),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308,
                     -0.0, 0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
_EMPTY = st.one_of(st.builds(dict), st.builds(list))
_JSON = st.recursive(
    st.one_of(_SCALARS, _EMPTY),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every node's key path in a JSON tree, the root's being ()."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(data, doc):
    """A copy of ``doc`` with one node replaced, emptied (made an empty
    object or list) or deleted, or a sibling added next to it."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(_JSON)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "empty", "delete",
                                        "add"]))
    if action == "replace":
        parent[path[-1]] = data.draw(_JSON)
    elif action == "empty":
        parent[path[-1]] = data.draw(_EMPTY)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(max_size=6))] = data.draw(_JSON)
    else:
        parent.insert(path[-1], data.draw(_JSON))
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _models_doc():
    grid = itertools.product((9, 10), (0.05, 0.1), ("x", "y"))
    return [{"hyperparams": {"width": w, "lr": lr, "opt": opt},
             "train_acc": 1.0, "test_acc": 0.5 + 0.05 * k,
             "measures": {"mm": float((k * 5) % 8)}}
            for k, (w, lr, opt) in enumerate(grid)]


def _pca_doc():
    pca = fit_pca(np.random.default_rng(4).normal(size=(30, 3)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pca.json"
        save_pca(pca, path)
        return json.loads(path.read_text())


_BOUNDARY_CSV = ("sample_index,orig_0,orig_1,orig_2,bound_0,bound_1,bound_2\n"
                 "0,0.1,0.2,0.3,0.4,0.1,0.2\n"
                 "1,1.0,-1.0,0.5,0.9,-0.8,0.1\n")


def test_unmutated_inputs_succeed():
    with tempfile.TemporaryDirectory() as tmp:
        models = Path(tmp) / "models.json"
        models.write_text(json.dumps(_models_doc()))
        for metric in ("kendall", "granulated", "cmi", "r2"):
            code, _, _ = _run(["evaluate", "--models", models, "--metric",
                               metric, "--measure-col", "mm"])
            assert code == 0, metric
        pca = Path(tmp) / "pca.json"
        pca.write_text(json.dumps(_pca_doc()))
        bounds = Path(tmp) / "bounds.csv"
        bounds.write_text(_BOUNDARY_CSV)
        code, _, _ = _run(["advdir", "--pca", pca, "--boundary-csv", bounds,
                           "--out", Path(tmp) / "shares.csv"])
        assert code == 0


def _check_exit(code, out, err, written: Path):
    """Exit 0 writes finite outputs; exit 2 or 3 writes nothing."""
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
        assert not re.search(r"\b(nan|inf)\b", written.read_text())
    else:
        assert out == ""
        assert "error: " in err
        assert not written.exists()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(),
       metric=st.sampled_from(["kendall", "granulated", "cmi", "r2"]))
def test_mutated_models_file_exits_0_2_or_3(data, metric):
    doc = _mutate(data, _models_doc())
    with tempfile.TemporaryDirectory() as tmp:
        models = Path(tmp) / "models.json"
        models.write_text(json.dumps(doc))
        scores = Path(tmp) / "scores.csv"
        code, out, err = _run(["evaluate", "--models", models, "--metric",
                               metric, "--measure-col", "mm", "--out",
                               scores])
        _check_exit(code, out, err, scores)


def _reference_models_table(data, measure_col, axes):
    """The models table built entry by entry: the reference that the
    loader's whole-list passes must match, rejections and bits."""
    cli = marginlab.cli
    if not all(type(e) is dict
               and cli._ENTRY_REQUIRED <= e.keys() <= cli._ENTRY_ALLOWED
               for e in data):
        return None
    hyper = [e["hyperparams"] for e in data]
    measures = [e["measures"] for e in data]
    if not (all(type(h) is dict and h for h in hyper)
            and all(type(m) is dict and measure_col in m for m in measures)):
        return None
    cells = [(e["train_acc"], e["test_acc"], m[measure_col])
             for e, m in zip(data, measures)]
    if not set(map(type, itertools.chain.from_iterable(cells))) <= {int,
                                                                    float}:
        return None
    try:
        values = np.array(cells, dtype=np.float64)
    except OverflowError:
        return None
    if not np.isfinite(values).all():
        return None
    keys = hyper[0].keys()
    if axes and any(h.keys() != keys for h in hyper):
        return None
    train, test, measure = values.T
    tokens = {name: [str(h[name]) for h in hyper] for name in keys} \
        if axes else {}
    return ModelTable.from_tokens(tokens, measure, train - test, test)


def _check_models_table(doc) -> list:
    """For both ``axes`` values: the loader's table is None exactly when
    the entry-by-entry scan raises, and otherwise equals the reference bit
    for bit. Returns whether each was rejected."""
    cli = marginlab.cli
    rejected = []
    for axes in (False, True):
        table = cli._models_table(doc, "mm", axes)
        want = _reference_models_table(doc, "mm", axes)
        try:
            cli._raise_first_bad_entry("models.json", doc, "mm", axes)
        except ConfigError:
            assert table is None and want is None
            rejected.append(True)
            continue
        rejected.append(False)
        assert table is not None and want is not None
        assert table.names == want.names
        assert table.codes.dtype == want.codes.dtype
        assert table.codes.tolist() == want.codes.tolist()
        for column in ("complexity", "gen_gap", "test_accuracy"):
            got, expect = getattr(table, column), getattr(want, column)
            assert got.dtype == expect.dtype
            assert got.tobytes() == expect.tobytes()
    return rejected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_models_table_rejects_exactly_what_the_entry_scan_names(data):
    doc = json.loads(json.dumps(_mutate(data, _models_doc())))
    # the loader rejects anything but a non-empty list before either runs
    if isinstance(doc, list) and doc:
        _check_models_table(doc)


_TABLE_CASES = {
    "unmutated": ([False, False], lambda d: None),
    "model-path": ([False, False],
                   lambda d: d[2].__setitem__("model_path", "m.json")),
    "int-cells": ([False, False],
                  lambda d: d[3].update(train_acc=1, test_acc=0)),
    "one-axis": ([False, False],
                 lambda d: [e.__setitem__("hyperparams",
                                          {"width": e["hyperparams"]["lr"]})
                            for e in d]),
    "bool-cell": ([True, True],
                  lambda d: d[3]["measures"].__setitem__("mm", True)),
    "huge-int": ([True, True], lambda d: d[5].__setitem__("train_acc",
                                                          10 ** 400)),
    "json-nan": ([True, True], lambda d: d[2].__setitem__("test_acc",
                                                          float("nan"))),
    "empty-hyperparams": ([True, True],
                          lambda d: d[1].__setitem__("hyperparams", {})),
    "non-dict-entry": ([True, True], lambda d: d.__setitem__(4, [1, 2])),
    "non-dict-measures": ([True, True],
                          lambda d: d[6].__setitem__("measures", [0.5])),
    "unknown-key": ([True, True], lambda d: d[7].__setitem__("extra", 1)),
    "missing-key": ([True, True], lambda d: d[0].pop("train_acc")),
    "mismatched-axes": ([False, True],
                        lambda d: d[7]["hyperparams"].pop("opt")),
    "missing-measure": ([True, True],
                        lambda d: d[0].__setitem__("measures",
                                                   {"other": 1.0})),
}


@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_models_table_cases_match_the_entry_scan(case):
    # the rejections the fuzzer may reach only rarely, one by one
    rejected, edit = _TABLE_CASES[case]
    doc = _models_doc()
    edit(doc)
    doc = json.loads(json.dumps(doc))
    assert _check_models_table(doc) == rejected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_projection_file_exits_0_2_or_3(data):
    doc = _mutate(data, _pca_doc())
    with tempfile.TemporaryDirectory() as tmp:
        pca = Path(tmp) / "pca.json"
        pca.write_text(json.dumps(doc))
        bounds = Path(tmp) / "bounds.csv"
        bounds.write_text(_BOUNDARY_CSV)
        shares = Path(tmp) / "shares.csv"
        code, out, err = _run(["advdir", "--pca", pca, "--boundary-csv",
                               bounds, "--out", shares])
        _check_exit(code, out, err, shares)


def _sweep_doc():
    return {"dataset": {"classes": 2, "samples_per_class": 5, "dim": 2,
                        "spread": 1.0},
            "corruptions": [{"mode": "label", "fraction": 0.2}],
            "widths": [3], "seeds": [0],
            "train": {"epochs": 2, "batch_size": 4, "learning_rate": 0.1,
                      "momentum": 0.5},
            "estimator": {"name": "deepfool", "learning_rate": 0.25,
                          "stop_tolerance": 0.01, "max_iters": 5},
            "normalize": "znorm", "output_dir": "sweep_out", "seed": 1}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_sweep_config_exits_0_or_2(data):
    doc = _mutate(data, _sweep_doc())
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "sweep.json"
        cfg_path.write_text(json.dumps(doc))
        # the config is all that is under test: a mutated size never trains
        with mock.patch.object(marginlab.cli, "run_capacity_sweep",
                               return_value={"files": []}) as stub:
            code, out, err = _run(["sweep", "--config", cfg_path])
    assert code in (0, 2)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
        assert err.startswith("error: ")
        stub.assert_not_called()
        return
    json.loads(out)
    (cfg,), _ = stub.call_args
    assert isinstance(cfg, ExperimentConfig)
    for value, kind in ((cfg.train, TrainConfig), (cfg.search, SearchConfig),
                        (cfg.blob, BlobConfig)):
        assert type(value) is kind
        dataclasses.replace(value)  # re-runs the range checks


@pytest.mark.parametrize("content", [b"\xff\xfe[]", b"[" * 100000],
                         ids=["invalid-utf8", "deep-nesting"])
def test_undecodable_json_files_exit_2(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    bounds = tmp_path / "bounds.csv"
    bounds.write_text(_BOUNDARY_CSV)
    shares = tmp_path / "shares.csv"
    for argv in (["evaluate", "--models", bad, "--metric", "kendall",
                  "--measure-col", "mm"],
                 ["advdir", "--pca", bad, "--boundary-csv", bounds,
                  "--out", shares],
                 ["sweep", "--config", bad]):
        code, out, err = _run(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ")
    assert not shares.exists()
    for loader in (load_model, load_pca):
        with pytest.raises(ConfigError):
            loader(bad)


_CSV_CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "-1e400",
                     "1e308", "-1e308", "5e-324", "-0.0", "1.7", "-1", "2",
                     "9", "1e20", "1_0", '"0.5"', "0x10", "x", "9" * 30]),
    st.floats().map(repr),
    st.integers(-10, 10).map(str),
    st.text(max_size=4),
)


def _mutate_csv(data, text: str) -> str:
    """``text`` with one edit to one of its lines."""
    lines = text.splitlines()
    k = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[k].split(",")
    j = data.draw(st.integers(0, len(cells) - 1))
    action = data.draw(st.sampled_from(
        ["replace", "delete-cell", "add-cell", "delete-row", "duplicate-row",
         "blank-line", "truncate"]))
    if action == "replace":
        cells[j] = data.draw(_CSV_CELLS)
    elif action == "delete-cell":
        del cells[j]
    elif action == "add-cell":
        cells.insert(j, data.draw(_CSV_CELLS))
    elif action == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    lines[k] = ",".join(cells)
    if action == "delete-row":
        del lines[k]
    elif action == "duplicate-row":
        lines.insert(k, lines[k])
    elif action == "blank-line":
        lines.insert(k, data.draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def dataset_and_model():
    """A 3-class CSV dataset and the text of a model trained on it."""
    rng = np.random.default_rng(8)
    X = np.concatenate([c + rng.normal(size=(4, 3))
                        for c in ([0, 0, 0], [4, 0, 0], [0, 4, 0])])
    lines = ["f0,f1,f2,label"] + [
        ",".join([*map(repr, row.tolist()), str(k // 4)])
        for k, row in enumerate(X)]
    text = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        data, model = Path(tmp) / "data.csv", Path(tmp) / "model.json"
        data.write_text(text)
        code, _, _ = _run(["train", "--data", data, "--hidden", "6",
                           "--epochs", "30", "--batch-size", "4",
                           "--out", model])
        assert code == 0
        return text, model.read_text()


def test_unmutated_dataset_measures(dataset_and_model):
    data_csv, model_json = dataset_and_model
    with tempfile.TemporaryDirectory() as tmp:
        data, model = Path(tmp) / "data.csv", Path(tmp) / "model.json"
        data.write_text(data_csv)
        model.write_text(model_json)
        code, out, _ = _run(["measure", "--model", model, "--data", data,
                             "--out", Path(tmp) / "m.csv"])
        assert code == 0 and json.loads(out)["measured"] > 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), estimator=st.sampled_from(["taylor", "deepfool"]))
def test_mutated_dataset_csv_exits_0_2_or_3(dataset_and_model, data,
                                           estimator):
    data_csv, model_json = dataset_and_model
    text = _mutate_csv(data, data_csv)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, model = Path(tmp) / "data.csv", Path(tmp) / "model.json"
        csv_path.write_text(text)
        model.write_text(model_json)
        margins, bounds = Path(tmp) / "m.csv", Path(tmp) / "b.csv"
        argv = ["measure", "--model", model, "--data", csv_path,
                "--estimator", estimator, "--max-iters", "20",
                "--out", margins]
        if estimator == "deepfool":
            argv += ["--boundary-out", bounds]
        code, out, err = _run(argv)
        _check_exit(code, out, err, margins)
        if estimator == "deepfool":
            _check_exit(code, out, err, bounds)


def _check_margins_exit(code, out, err, written: Path):
    """``_check_exit`` for a ``mw measure`` margins table, whose
    ``violation`` cell may be ``inf`` in a ``no-descent`` row, as
    documented: the search never took a step there."""
    if code != 0:
        _check_exit(code, out, err, written)
        return
    assert "Traceback" not in err
    json.loads(out)
    lines = written.read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if row["status"] == "no-descent" and row["violation"] == "inf":
            row["violation"] = ""
        assert not re.search(r"\b(nan|inf)\b", ",".join(row.values()))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), estimator=st.sampled_from(["taylor", "deepfool"]))
def test_mutated_model_file_exits_0_2_or_3(dataset_and_model, data,
                                          estimator):
    data_csv, model_json = dataset_and_model
    doc = _mutate(data, json.loads(model_json))
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, model = Path(tmp) / "data.csv", Path(tmp) / "model.json"
        csv_path.write_text(data_csv)
        model.write_text(json.dumps(doc))
        margins, bounds = Path(tmp) / "m.csv", Path(tmp) / "b.csv"
        argv = ["measure", "--model", model, "--data", csv_path,
                "--estimator", estimator, "--max-iters", "20",
                "--out", margins]
        if estimator == "deepfool":
            argv += ["--boundary-out", bounds]
        code, out, err = _run(argv)
        _check_margins_exit(code, out, err, margins)
        if estimator == "deepfool":
            _check_exit(code, out, err, bounds)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_boundary_csv_exits_0_2_or_3(data):
    text = _mutate_csv(data, _BOUNDARY_CSV)
    with tempfile.TemporaryDirectory() as tmp:
        pca = Path(tmp) / "pca.json"
        pca.write_text(json.dumps(_pca_doc()))
        bounds = Path(tmp) / "bounds.csv"
        bounds.write_text(text)
        shares = Path(tmp) / "shares.csv"
        code, out, err = _run(["advdir", "--pca", pca, "--boundary-csv",
                               bounds, "--out", shares])
        _check_exit(code, out, err, shares)


# the dataset commands: every dataset ``mw gen-data`` or ``mw corrupt``
# writes is one ``mw`` reads, and a refused command leaves its outputs,
# the ``--report`` sidecar included, as they were

# a CSV name half the time
_SUFFIXES = st.one_of(st.sampled_from([".csv", ".CSV"]),
                      st.sampled_from([".dat", ".bin", ""]))


@st.composite
def _flags(draw, valid, bad):
    """Flags drawn from ``valid``; in half the draws, one of them drawn
    from ``bad`` instead."""
    flags = draw(st.fixed_dictionaries(valid))
    key = draw(st.one_of(st.none(), st.sampled_from(sorted(bad))))
    if key is not None:
        flags[key] = draw(bad[key])
    return flags


_GEN_FLAGS = _flags(
    {"--classes": st.integers(2, 4), "--samples-per-class": st.integers(1, 5),
     "--dim": st.integers(2, 4), "--spread": st.sampled_from([0.5, 1.0, 3.0]),
     "--seed": st.integers(0, 3)},
    {"--classes": st.integers(0, 1), "--samples-per-class": st.just(0),
     "--dim": st.integers(0, 1),
     "--spread": st.sampled_from([0.0, -1.0, 1e308, float("inf")]),
     "--seed": st.just(-1)})
_CORRUPT_FLAGS = _flags(
    {"--mode": st.sampled_from(["label", "input"]),
     "--fraction": st.sampled_from([0.0, 0.25, 1.0]),
     "--seed": st.integers(0, 3)},
    {"--fraction": st.sampled_from([1.5, -0.1, float("nan")]),
     "--seed": st.just(-1)})
_GEN_OK = {"--classes": 3, "--samples-per-class": 4, "--dim": 2,
           "--spread": 1.0, "--seed": 1}
_CORRUPT_OK = {"--mode": "label", "--fraction": 0.25, "--seed": 2}


def _run_command(tmp: Path, argv, outputs):
    """The summary of ``mw`` run on ``argv``, or None when it exits
    non-zero, which must leave the directory and each of ``outputs`` as
    they were."""
    def state():
        return (sorted(tmp.iterdir()),
                [p.read_bytes() if p.is_file() else p.exists()
                 for p in outputs])

    before = state()
    code, out, err = _run(argv)
    assert code in (0, 2, 3) and "Traceback" not in err
    if code == 0:
        return json.loads(out)
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert state() == before
    return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gen=_GEN_FLAGS, corrupt=_CORRUPT_FLAGS, gen_suffix=_SUFFIXES,
       corrupt_suffix=_SUFFIXES, report=st.booleans(),
       existing=st.booleans())
# the refusals by name: gen-data's, then corrupt's with a report, over
# files already there, then a suffix in capitals, which is CSV
@example(gen=_GEN_OK, corrupt=_CORRUPT_OK, gen_suffix=".dat",
         corrupt_suffix=".csv", report=True, existing=False)
@example(gen=_GEN_OK, corrupt=_CORRUPT_OK, gen_suffix=".csv",
         corrupt_suffix=".bin", report=True, existing=True)
@example(gen=_GEN_OK, corrupt=_CORRUPT_OK, gen_suffix=".CSV",
         corrupt_suffix="", report=False, existing=False)
def test_dataset_commands_write_what_mw_reads(gen, corrupt, gen_suffix,
                                              corrupt_suffix, report,
                                              existing):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        made = tmp / f"gen{gen_suffix}"
        out, sidecar = tmp / f"corrupted{corrupt_suffix}", tmp / "r.json"
        if existing:
            for path in (made, out, sidecar):
                path.write_bytes(b"old\n")
        summary = _run_command(
            tmp, ["gen-data", *itertools.chain(*gen.items()), "--out", made],
            [made])
        if summary is not None:
            ds = load_dataset(made)
            assert (ds.sample_count, ds.feature_count, ds.class_count) == (
                summary["samples"], summary["features"], summary["classes"])
        else:  # corrupt a dataset that gen-data does write
            made = tmp / "source.csv"
            _run(["gen-data", *itertools.chain(*_GEN_OK.items()),
                  "--out", made])
        argv = ["corrupt", "--in", made, "--out", out,
                *itertools.chain(*corrupt.items())]
        summary = _run_command(
            tmp, argv + (["--report", sidecar] if report else []),
            [out, sidecar])
        if summary is not None:
            source, ds = load_dataset(made), load_dataset(out)
            assert (ds.sample_count, ds.feature_count) == (
                source.sample_count, source.feature_count)
            if report:
                indices = json.loads(sidecar.read_text())["indices_corrupted"]
                assert len(indices) == summary["num_corrupted"]


def _argv(flags):
    """The words of ``flags``: a flag drawn as True stands alone, and one
    drawn as None or False is left out."""
    return [word for key, value in flags.items()
            if value is not None and value is not False
            for word in ((key,) if value is True else (key, value))]


_TRAIN_FLAGS = _flags(
    {"--hidden": st.lists(st.integers(1, 6), min_size=1, max_size=3).map(
        lambda widths: ",".join(map(str, widths))),
     "--epochs": st.integers(1, 3), "--batch-size": st.integers(1, 30),
     "--learning-rate": st.sampled_from([0.0, 0.05, 0.5]),
     "--momentum": st.sampled_from([0.0, 0.5, 0.9]),
     "--normalize": st.sampled_from(NORMALIZE_SCHEMES),
     "--seed": st.integers(0, 3)},
    {"--hidden": st.sampled_from(["3,x", "0", ""]),
     "--epochs": st.integers(-1, 0), "--batch-size": st.integers(-1, 0),
     "--learning-rate": st.sampled_from([-0.1, float("nan"), float("inf"),
                                         1e12]),
     "--momentum": st.sampled_from([1.0, -0.1, float("nan")])})
# the dataset has 24 samples of 4 features, so 1 to 4 components
_PCA_FLAGS = _flags(
    {"--components": st.one_of(st.none(), st.integers(1, 4)),
     "--knee": st.booleans()},
    {"--components": st.sampled_from([0, -1, 5])})
_TRAIN_OK = {"--hidden": "5,3", "--epochs": 2, "--batch-size": 5,
             "--learning-rate": 0.05, "--momentum": 0.9,
             "--normalize": "znorm", "--seed": 1}
_PCA_OK = {"--components": 3, "--knee": True}
# any file name, with "in", the dataset's directory, and a path through a
# directory that does not exist among them
_OUT_NAMES = st.one_of(
    st.sampled_from(["model.json", "M.JSON", "x.bin", "in",
                     "missing/out.json"]),
    st.text("abzAZ09._ -", min_size=1, max_size=12).filter(
        lambda name: name.strip(".") and not name.startswith("-")))


def _model_example(train=None, pca=None, train_name="model.json",
                   pca_name="pca.json", existing=False):
    """A named example: the valid flags, but for the ones given."""
    return example(train={**_TRAIN_OK, **(train or {})},
                   pca={**_PCA_OK, **(pca or {})}, train_name=train_name,
                   pca_name=pca_name, existing=existing)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(train=_TRAIN_FLAGS, pca=_PCA_FLAGS, train_name=_OUT_NAMES,
       pca_name=_OUT_NAMES, existing=st.booleans())
# each refusal by name: the hidden widths, each training setting, a
# divergence, an output in a missing directory or on a directory, the
# component count and a knee without three components; then a run that
# succeeds over files already there
@_model_example({"--hidden": "3,x"}, {"--components": 5})
@_model_example({"--hidden": "0"}, {"--components": 2})
@_model_example({"--epochs": 0}, {"--components": 0})
@_model_example({"--batch-size": 0}, pca_name="missing/out.json")
@_model_example({"--learning-rate": -0.1}, pca_name="in")
@_model_example({"--learning-rate": float("inf")})
@_model_example({"--momentum": 1.0})
@_model_example({"--hidden": "3", "--batch-size": 1, "--learning-rate": 1e12})
@_model_example(train_name="missing/out.json", existing=True)
@_model_example(train_name="in")
@_model_example({"--normalize": "minmax"}, {"--components": None},
                train_name="M.JSON", pca_name="x.bin", existing=True)
def test_model_commands_write_what_mw_reads(train, pca, train_name,
                                            pca_name, existing):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "in" / "data.csv"
        data.parent.mkdir()
        assert _run(["gen-data", *itertools.chain(*{
            **_GEN_OK, "--samples-per-class": 8, "--dim": 4}.items()),
            "--out", data])[0] == 0
        model, projection = tmp / train_name, tmp / pca_name
        if existing:
            for path in (model, projection):
                if path.parent.is_dir() and not path.is_dir():
                    path.write_bytes(b"old\n")
        summary = _run_command(
            tmp, ["train", "--data", data, *_argv(train), "--out", model],
            [model])
        if summary is not None:
            net = load_model(model)
            assert [layer.weights.shape[0] for layer in net.layers[:-1]] == (
                summary["hidden"])
            assert (net.input_dim, net.num_classes) == (4, 3)
        summary = _run_command(
            tmp, ["pca", "--data", data, *_argv(pca), "--out", projection],
            [projection])
        if summary is not None:
            basis = load_pca(projection)
            assert basis.components.shape == (summary["components"],
                                              summary["features"])
            assert summary["features"] == 4
            if pca["--knee"]:
                assert 1 <= summary["knee_m"] <= summary["components"]
