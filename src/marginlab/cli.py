"""Command-line front end: data generation, training, margin measurement,
metric evaluation, perturbation decomposition, and capacity sweeps.

Every subcommand is a thin driver over the library modules. Datasets on
disk always hold raw (unnormalized) features; models carry their own
normalization, which ``measure`` and ``sweep`` apply internally. All
tables are CSV with a one-line header, all summaries are single-line JSON
on stdout, and a fixed ``--seed`` reproduces every byte of output.

Exit codes: 0 success, 2 configuration/domain errors (a size too large
for memory included), 3 numerical errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._atomic import atomic_open
from ._csvio import csv_text, read_numeric_csv, write_csv
from ._seed import derive_seed
from .advdir import adv_directions, cumulative_share
from .data import (
    BlobConfig,
    Dataset,
    apply_normalization,
    corrupt_inputs_gaussian,
    corrupt_labels,
    gen_blobs,
    load_dataset,
    max_margin,
    normalize,
    save_dataset,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    UndefinedMetricError,
    WorkbenchError,
)
from .margin import (
    SearchConfig,
    SearchStatus,
    compute_total_variation,
    search_margins,
    tv_normalize,
)
from .metrics import (
    ModelTable,
    cmi_score,
    granulated_kendall,
    kendall_tau,
    mean_granulated,
    r_squared,
)
from .nnet import (
    TrainConfig,
    accuracy,
    forward_batch,
    init_network,
    load_model,
    predict_batch,
    save_model,
    train_sgd,
)
from .pca import fit_pca, load_pca, save_pca, select_components_kneedle

# ---------------------------------------------------------------------------
# output helpers


def _write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _json_line(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"summary holds a non-finite value: {exc}") \
            from exc


def _print_json(obj) -> None:
    print(_json_line(obj))


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers bad JSON and bad UTF-8; deep nesting recurses
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _mean(values) -> float | None:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def _optional(values, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as one table column, a None among them a missing cell."""
    return (np.array([0 if v is None else v for v in values], dtype=dtype),
            np.array([v is None for v in values], dtype=bool))


def _texts(values) -> np.ndarray:
    """``values`` as a table column written by ``str``: an object array,
    which keeps every Python int and every string as it is."""
    return np.array(values, dtype=object)


# ---------------------------------------------------------------------------
# pipeline steps shared by the single commands and the sweep


_CORRUPTERS = {"label": corrupt_labels, "input": corrupt_inputs_gaussian}
_NORMALIZE_SCHEMES = ("znorm", "minmax", "none")


def _normalized(ds: Dataset, scheme: str):
    """``ds`` normalized by ``scheme`` and its meta; ``none`` keeps ``ds``
    and gives no meta."""
    return (ds, None) if scheme == "none" else normalize(ds, scheme)


def _model_inputs(net, raw: Dataset) -> np.ndarray:
    """The raw dataset's features in the space ``net`` operates in."""
    if net.norm_meta is None:
        return raw.features
    return apply_normalization(raw.features, net.norm_meta)


def _measure_correct(net, X, labels, layer: int, search, pca=None, m=None,
                     *, batch_mean: bool, keep_all: bool = False):
    """Margins at ``layer`` of the rows of ``X`` that ``net`` classifies
    correctly, or of every row with ``keep_all``.

    Returns every row's activations at ``layer``, the kept row indices and
    the ``search_margins`` table of the kept rows.
    """
    acts = forward_batch(net, X)
    kept = (np.arange(len(labels)) if keep_all else
            np.flatnonzero(np.argmax(acts[-1], axis=1) == labels))
    table = search_margins(net, layer, acts[layer][kept], search, pca, m,
                           batch_mean=batch_mean)
    return acts[layer], kept, table


def _clip_box(net, ds: Dataset):
    """The clip box of ``net``'s input-space searches on the dataset ``ds``:
    None when the model's normalization carries one, else the bounds of
    ``ds``, whose raw features such a model takes as they are."""
    return None if net.norm_meta is not None else (ds.lower, ds.upper)


# ---------------------------------------------------------------------------
# gen-data / corrupt / train


def _cmd_gen_data(args) -> None:
    ds = gen_blobs(BlobConfig(classes=args.classes,
                              samples_per_class=args.samples_per_class,
                              dim=args.dim, spread=args.spread,
                              seed=args.seed))
    save_dataset(ds, args.out)
    _print_json({"classes": ds.class_count, "features": ds.feature_count,
                 "path": str(args.out), "samples": ds.sample_count})


def _cmd_corrupt(args) -> None:
    ds = load_dataset(args.infile)
    out_ds, report = _CORRUPTERS[args.mode](ds, args.fraction, args.seed)
    save_dataset(out_ds, args.out)
    if args.report:
        payload = {"mode": report.mode,
                   "fraction_requested": float(report.fraction_requested),
                   "seed": int(report.seed),
                   "indices_corrupted": [int(i) for i in
                                         report.indices_corrupted]}
        _write_text(args.report, json.dumps(payload, sort_keys=True) + "\n")
    _print_json({"mode": report.mode,
                 "fraction_requested": float(report.fraction_requested),
                 "num_corrupted": len(report.indices_corrupted),
                 "path": str(args.out), "seed": int(report.seed)})


def _parse_hidden(text: str) -> list[int]:
    try:
        widths = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--hidden expects comma-separated integers, "
                          f"got {text!r}") from exc
    if not widths or any(w < 1 for w in widths):
        raise ConfigError(f"--hidden widths must be positive, got {text!r}")
    return widths


def _cmd_train(args) -> None:
    ds, meta = _normalized(load_dataset(args.data), args.normalize)
    hidden = _parse_hidden(args.hidden)
    net = init_network(ds.feature_count, hidden, ds.class_count,
                       seed=derive_seed(args.seed, "init"), norm_meta=meta)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                      learning_rate=args.learning_rate,
                      momentum=args.momentum,
                      seed=derive_seed(args.seed, "shuffle"))
    net = train_sgd(net, ds, cfg)
    save_model(net, args.out)
    _print_json({"hidden": hidden, "path": str(args.out),
                 "train_accuracy": float(accuracy(net, ds))})


# ---------------------------------------------------------------------------
# measure


_DEEPFOOL_ESTIMATORS = ("deepfool", "constrained-deepfool")
_ESTIMATORS = ("taylor", "deepfool", "constrained-taylor",
               "constrained-deepfool")
# the measure CSV's status text, indexed by a MarginTable's status codes
_STATUS_TEXT = np.array([status.value for status in SearchStatus])


def _resolve_subspace(args, X):
    """PCA model and component count for the constrained estimators."""
    if args.pca is None:
        raise ConfigError("constrained estimators need --pca")
    pca = load_pca(args.pca)
    if args.m == "auto":
        m = select_components_kneedle(pca).m
    else:
        try:
            m = int(args.m)
        except ValueError as exc:
            raise ConfigError(f"--m must be an integer or 'auto', "
                              f"got {args.m!r}") from exc
    if X.shape[1] != pca.mean.size:
        raise ConfigError("pca feature count does not match the dataset")
    return pca, m


def _cmd_measure(args) -> None:
    if args.estimator not in _ESTIMATORS:
        raise ConfigError(f"unknown estimator {args.estimator!r}")
    constrained = args.estimator.startswith("constrained-")
    if constrained and args.layer != 0:
        raise ConfigError("constrained estimators measure input space only")
    if args.boundary_out and args.estimator not in _DEEPFOOL_ESTIMATORS:
        raise ConfigError("--boundary-out needs a deepfool-family estimator")
    if args.batch and args.estimator not in _DEEPFOOL_ESTIMATORS:
        raise ConfigError("--batch needs a deepfool-family estimator")

    net = load_model(args.model)
    if not 0 <= args.layer < len(net.layers):
        raise ConfigError(f"--layer {args.layer} outside "
                          f"[0, {len(net.layers)})")
    raw = load_dataset(args.data)
    if raw.feature_count != net.input_dim:
        raise ConfigError(f"{args.data} has {raw.feature_count} features; "
                          f"the model takes {net.input_dim}")
    X = _model_inputs(net, raw)
    cfg = SearchConfig(learning_rate=args.gamma, stop_tolerance=args.tol,
                       max_iters=args.max_iters, bounds=_clip_box(net, raw))
    pca, m = _resolve_subspace(args, X) if constrained else (None, None)

    search = None if args.estimator.endswith("taylor") else cfg
    acts, kept, table = _measure_correct(
        net, X, raw.labels, args.layer, search, pca, m,
        batch_mean=args.batch, keep_all=args.include_misclassified)
    skipped = int(raw.sample_count - kept.size)
    # a closed-form row without a usable gradient has no margin
    stuck = table.stuck
    margins = table.d_best[~stuck]
    status = np.where(stuck, "unreachable" if constrained else "degenerate",
                      _STATUS_TEXT[table.status])

    header = ["sample_index", "margin", "violation", "steps", "status",
              "base_class", "competitor_class", "left_subspace"]
    columns = [kept, (table.d_best, stuck), (table.v_best, stuck),
               (table.steps, stuck), status, (table.base, stuck),
               (table.competitor, stuck), (table.left_subspace, stuck)]
    summary = {"estimator": args.estimator, "layer": int(args.layer),
               "measured": int(margins.size),
               "degenerate": int(np.count_nonzero(stuck)),
               "skipped_misclassified": skipped,
               "mean_margin": float(np.mean(margins)) if margins.size
               else None}
    if constrained:
        summary["subspace_dims"] = int(m)
    if args.tv_normalize:
        # raises DegenerateVarianceError, before any file is written, when
        # the layer's total variation vanishes
        scaled = tv_normalize(np.where(stuck, np.nan, table.d_best), acts)
        header.append("margin_tv")
        columns.append((scaled, stuck))
        summary["total_variation"] = compute_total_variation(acts)

    write_csv(args.out, header, columns)
    if args.boundary_out:
        width = acts.shape[1]
        bheader = (["sample_index"]
                   + [f"orig_{j}" for j in range(width)]
                   + [f"bound_{j}" for j in range(width)])
        write_csv(args.boundary_out, bheader,
                  [kept, *acts[kept].T, *table.boundary.T])
    _print_json(summary)


# ---------------------------------------------------------------------------
# pca


def _cmd_pca(args) -> None:
    ds = load_dataset(args.data)
    model = fit_pca(ds.features, n_components=args.components)
    save_pca(model, args.out)
    info = {"components": int(model.components.shape[0]),
            "features": int(model.components.shape[1]),
            "explained_ratio_sum": float(model.explained_ratio.sum()),
            "path": str(args.out)}
    if args.knee:
        choice = select_components_kneedle(model)
        info["knee_m"] = int(choice.m)
        info["knee_fallback"] = bool(choice.fallback_used)
    _print_json(info)


# ---------------------------------------------------------------------------
# evaluate


_ENTRY_REQUIRED = {"hyperparams", "train_acc", "test_acc", "measures"}
_ENTRY_ALLOWED = _ENTRY_REQUIRED | {"model_path"}
_ENTRY_FIELDS = operator.itemgetter("hyperparams", "train_acc", "test_acc",
                                    "measures")


def _is_finite_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _load_models_file(path, measure_col: str, axes: bool) -> ModelTable:
    """The models file at ``path`` as one table, its complexity being the
    measure ``measure_col``. With ``axes`` the hyperparameters are coded,
    and every entry must name the same axes as entry 0; without, the
    table has no axes.

    The whole list is checked in a few passes and its numbers converted in
    one numpy call. Only when that fails does an entry-by-entry scan run,
    to name the first bad entry.
    """
    data = _load_json(path)
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{path}: expected a non-empty JSON list of models")
    table = _models_table(data, measure_col, axes)
    if table is None:
        _raise_first_bad_entry(path, data, measure_col, axes)
    return table


def _models_table(data: list, measure_col: str,
                  axes: bool) -> ModelTable | None:
    """The entries of ``data`` as a table, or None when one of them fails a
    check of ``_raise_first_bad_entry``. Each check is one pass over all
    entries in C: ``map``, ``set``, ``all`` and ``operator.itemgetter``."""
    if set(map(type, data)) != {dict} \
            or not all(map(_ENTRY_ALLOWED.issuperset, data)):
        return None
    try:
        hyper, train, test, measures = zip(*map(_ENTRY_FIELDS, data))
        if set(map(type, hyper)) != {dict} or not all(hyper) \
                or set(map(type, measures)) != {dict}:
            return None
        measure = tuple(map(operator.itemgetter(measure_col), measures))
    except KeyError:  # a required key or the measure is missing
        return None
    kinds = set(map(type, itertools.chain(train, test, measure)))
    if not kinds <= {int, float}:  # a bool's type is neither
        return None
    try:
        values = np.array((train, test, measure), dtype=np.float64)
    except OverflowError:  # an int too large for a float
        return None
    if not np.isfinite(values).all():
        return None
    keys = hyper[0].keys()
    if axes and not all(map(keys.__eq__, map(dict.keys, hyper))):
        return None
    train, test, measure = values
    tokens = {name: list(map(str, map(operator.itemgetter(name), hyper)))
              for name in keys} if axes else {}
    return ModelTable.from_tokens(tokens, measure, train - test, test)


def _raise_first_bad_entry(path, data: list, measure_col: str,
                           axes: bool) -> None:
    """Raise ConfigError naming the first entry of ``data`` that fails a
    check."""
    for k, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: entry {k} is not an object")
        unknown = sorted(set(entry) - _ENTRY_ALLOWED)
        if unknown:
            raise ConfigError(f"{path}: entry {k} has unknown keys {unknown}")
        missing = sorted(_ENTRY_REQUIRED - set(entry))
        if missing:
            raise ConfigError(f"{path}: entry {k} is missing keys {missing}")
        if not isinstance(entry["hyperparams"], dict) \
                or not entry["hyperparams"]:
            raise ConfigError(f"{path}: entry {k} hyperparams must be a "
                              f"non-empty object")
        if not isinstance(entry["measures"], dict):
            raise ConfigError(f"{path}: entry {k} measures must be an object")
        if measure_col not in entry["measures"]:
            raise ConfigError(f"{path}: entry {k} has no measure "
                              f"{measure_col!r}")
        for name, value in (("train_acc", entry["train_acc"]),
                            ("test_acc", entry["test_acc"]),
                            (f"measure {measure_col!r}",
                             entry["measures"][measure_col])):
            if not _is_finite_real(value):
                raise ConfigError(f"{path}: entry {k} {name} must be a "
                                  f"finite number, got {value!r}")
        names = entry["hyperparams"].keys()
        if axes and names != data[0]["hyperparams"].keys():
            raise ConfigError(f"{path}: entry {k} hyperparams name axes "
                              f"{sorted(names)}, entry 0 names "
                              f"{sorted(data[0]['hyperparams'])}")


def _cmd_evaluate(args) -> None:
    table = _load_models_file(args.models, args.measure_col,
                              axes=args.metric in ("granulated", "cmi"))

    if args.metric == "kendall":
        tau = kendall_tau(np.column_stack((table.complexity,
                                           table.test_accuracy)))
        result = {"measure": args.measure_col, "metric": "kendall",
                  "models": len(table.codes), "target": "test_accuracy",
                  "tau": float(tau)}
        csv_header = ["metric", "measure", "value"]
        csv_columns = [_texts(["kendall"]), _texts([args.measure_col]),
                       np.array([tau])]
    elif args.metric == "granulated":
        per_axis = {}
        psis = []
        for axis in table.names:
            try:
                res = granulated_kendall(table, axis, target="test_accuracy")
            except UndefinedMetricError:
                per_axis[axis] = {"psi": None, "undefined": True}
                continue
            per_axis[axis] = {"psi": float(res.psi),
                              "included_groups": res.included_groups,
                              "skipped_groups": res.skipped_groups}
            psis.append(res.psi)
        mu = mean_granulated(psis)  # DomainError when no axis is defined
        result = {"mean_psi": float(mu), "measure": args.measure_col,
                  "metric": "granulated", "per_axis": per_axis,
                  "target": "test_accuracy"}
        cells = list(per_axis.values()) + [{"psi": float(mu)}]
        csv_header = ["axis", "psi", "included_groups", "skipped_groups"]
        csv_columns = [_texts([*per_axis, "mean"]),
                       _optional([c["psi"] for c in cells]),
                       *(_optional([c.get(key) for c in cells], np.int64)
                         for key in ("included_groups", "skipped_groups"))]
    elif args.metric == "cmi":
        score = cmi_score(replace(table, complexity=-table.complexity))
        per_pair = {f"{a}|{b}": float(v)
                    for (a, b), v in sorted(score.per_pair.items())}
        retained = {f"{a}|{b}": count
                    for (a, b), count in sorted(score.retained_pairs.items())}
        result = {"final": float(score.final), "measure": args.measure_col,
                  "metric": "cmi", "per_pair": per_pair,
                  "retained_pairs": retained,
                  "sign": "negated-measure", "target": "gen_gap"}
        csv_header = ["pair", "normalized_cmi"]
        csv_columns = [_texts([*per_pair, "final"]),
                       np.array([*per_pair.values(), score.final])]
    elif args.metric == "r2":
        r2 = r_squared(table.gen_gap, table.complexity)
        result = {"measure": args.measure_col, "metric": "r2",
                  "r2": float(r2), "target": "gen_gap"}
        csv_header = ["metric", "measure", "value"]
        csv_columns = [_texts(["r2"]), _texts([args.measure_col]),
                       np.array([r2])]
    else:
        raise ConfigError(f"unknown metric {args.metric!r}")

    summary = _json_line(result)  # a non-finite score fails before writing
    if args.out:
        write_csv(args.out, csv_header, csv_columns)
    print(summary)


# ---------------------------------------------------------------------------
# advdir


def _read_boundary_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The ``orig_*`` and ``bound_*`` columns of a ``--boundary-out`` file."""
    header, values = read_numeric_csv(path)
    names = header or []
    orig_cols = [k for k, name in enumerate(names) if name.startswith("orig_")]
    bound_cols = [k for k, name in enumerate(names)
                  if name.startswith("bound_")]
    if not orig_cols or len(orig_cols) != len(bound_cols):
        raise ConfigError(f"{path} must pair orig_* and bound_* columns")
    X = np.ascontiguousarray(values[:, orig_cols])
    Xhat = np.ascontiguousarray(values[:, bound_cols])
    bad = np.flatnonzero(~(np.isfinite(X).all(axis=1)
                           & np.isfinite(Xhat).all(axis=1)))
    if bad.size:
        raise ConfigError(f"{path}: data row {bad[0] + 1} holds a non-finite "
                          f"orig_*/bound_* value")
    if not len(values):
        raise ConfigError(f"{path} holds no samples")
    return X, Xhat


def _cmd_advdir(args) -> None:
    pca = load_pca(args.pca)
    X, Xhat = _read_boundary_csv(args.boundary_csv)
    share = adv_directions(pca, X, Xhat)
    cum = cumulative_share(share.p_share, pca.explained_ratio)
    write_csv(args.out, ["component_index", "explained_ratio", "p_share",
                         "cumulative"],
              [np.arange(1, share.p_share.size + 1), pca.explained_ratio,
               share.p_share, cum.cumulative])
    _print_json({"components": int(share.p_share.size),
                 "dropped_rows": int(share.dropped_rows),
                 "marker_70": int(cum.marker_70),
                 "marker_99": int(cum.marker_99),
                 "path": str(args.out),
                 "samples": int(share.b_adv.shape[0])})


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one capacity-sweep run.

    The data come from ``blob`` or from ``dataset_path``/``test_path``. The
    seeds in ``blob`` and ``train`` are placeholders: each run derives its
    own from ``seed``.
    """

    blob: BlobConfig | None
    dataset_path: str | None
    test_path: str | None
    corruptions: tuple[tuple[str, float], ...]
    widths: tuple[int, ...]
    seeds: tuple[int, ...]
    train: TrainConfig
    estimator: str
    search: SearchConfig
    normalize: str
    output_dir: str
    seed: int


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               dict: "an object", list: "a list"}


def _typed(value, kind: type, where: str):
    """``value`` if it is a JSON value of ``kind``; ConfigError otherwise.

    Integers exclude booleans and floats, so nothing is truncated; ``float``
    takes any finite number and returns it as a float.
    """
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is float:
        ok = _is_finite_real(value)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{where}: expected {_KIND_NAMES[kind]}, "
                          f"got {value!r}")
    return float(value) if kind is float else value


_REQUIRED = object()

# Each table maps a config object's keys to (kind, default); its keys are the
# object's allowed key set.
_SWEEP_FIELDS = {
    "dataset": (dict, _REQUIRED), "widths": (list, _REQUIRED),
    "output_dir": (str, _REQUIRED),
    "corruptions": (list, [{"mode": "label", "fraction": 0.2}]),
    "seeds": (list, [0]), "train": (dict, {}), "estimator": (dict, {}),
    "normalize": (str, "znorm"), "seed": (int, 0)}
_BLOB_FIELDS = {"classes": (int, _REQUIRED),
                "samples_per_class": (int, _REQUIRED),
                "dim": (int, _REQUIRED), "spread": (float, _REQUIRED)}
_PATH_FIELDS = {"path": (str, _REQUIRED), "test_path": (str, _REQUIRED)}
_CORRUPTION_FIELDS = {"mode": (str, _REQUIRED), "fraction": (float, 0.2)}
_TRAIN_FIELDS = {"epochs": (int, 40), "batch_size": (int, 32),
                 "learning_rate": (float, 0.05), "momentum": (float, 0.9)}
_ESTIMATOR_FIELDS = {"name": (str, "deepfool"),
                     "learning_rate": (float, 0.25),
                     "stop_tolerance": (float, 0.001),
                     "max_iters": (int, 100)}


def _section(obj, table: dict, where: str, prefix: str | None = None) -> dict:
    """Every key of ``table`` read from the JSON object ``obj``: its value
    checked against the key's kind, or the key's default when absent."""
    _typed(obj, dict, where)
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = [key for key, (_, default) in table.items()
               if default is _REQUIRED and key not in obj]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    prefix = f"{where}." if prefix is None else prefix
    return {key: _typed(obj.get(key, default), kind, prefix + key)
            for key, (kind, default) in table.items()}


def _built(cls, where: str, **fields):
    """``cls(**fields)``, with the section named in its range-check error."""
    try:
        return cls(**fields)
    except WorkbenchError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _load_sweep_config(args) -> ExperimentConfig:
    top = _section(_load_json(args.config), _SWEEP_FIELDS, str(args.config),
                   prefix="")
    if "path" in top["dataset"]:
        paths = _section(top["dataset"], _PATH_FIELDS, "dataset")
        blob = None
    else:
        paths = dict.fromkeys(_PATH_FIELDS)
        blob = _built(BlobConfig, "dataset",
                      **_section(top["dataset"], _BLOB_FIELDS, "dataset"),
                      seed=0)

    corruptions = []
    for k, entry in enumerate(top["corruptions"]):
        where = f"corruptions[{k}]"
        entry = _section(entry, _CORRUPTION_FIELDS, where)
        if entry["mode"] not in _CORRUPTERS:
            raise ConfigError(f"{where}: mode must be 'label' or 'input'")
        if not 0.0 < entry["fraction"] <= 1.0:
            raise ConfigError(f"{where}: fraction must lie in (0, 1]")
        corruptions.append((entry["mode"], entry["fraction"]))

    widths = [_typed(w, int, f"widths[{k}]")
              for k, w in enumerate(top["widths"])]
    if not widths or min(widths) < 1:
        raise ConfigError("widths: expected a non-empty list of positive "
                          "integers")
    seeds = [_typed(v, int, f"seeds[{k}]") for k, v in enumerate(top["seeds"])]
    if not seeds:
        raise ConfigError("seeds: expected a non-empty list of integers")

    est = _section(top["estimator"], _ESTIMATOR_FIELDS, "estimator")
    estimator = est.pop("name")
    if estimator not in ("deepfool", "taylor"):
        raise ConfigError("estimator: name must be 'deepfool' or 'taylor'")
    if top["normalize"] not in _NORMALIZE_SCHEMES:
        raise ConfigError("normalize: expected znorm, minmax, or none")

    return ExperimentConfig(
        blob=blob, dataset_path=paths["path"], test_path=paths["test_path"],
        corruptions=tuple(corruptions), widths=tuple(widths),
        seeds=tuple(seeds),
        train=_built(TrainConfig, "train",
                     **_section(top["train"], _TRAIN_FIELDS, "train")),
        estimator=estimator, search=_built(SearchConfig, "estimator", **est),
        normalize=top["normalize"],
        output_dir=args.output_dir if args.output_dir else top["output_dir"],
        seed=args.seed if args.seed is not None else top["seed"])


def _sweep_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if cfg.dataset_path is not None:
        return load_dataset(cfg.dataset_path), load_dataset(cfg.test_path)
    blob = cfg.blob
    rng = np.random.default_rng(derive_seed(cfg.seed, "centers"))
    centers = rng.uniform(-10.0, 10.0, size=(blob.classes, blob.dim))
    return tuple(gen_blobs(replace(blob, seed=derive_seed(cfg.seed, split),
                                   centers=centers))
                 for split in ("data", "test"))


def _run_sweep_entry(cfg: ExperimentConfig, variant: str, ds: Dataset,
                     meta, test_raw: Dataset, width: int, seed: int) -> dict:
    net = init_network(ds.feature_count, [width], ds.class_count,
                       seed=derive_seed(cfg.seed, "init", variant, width,
                                        seed),
                       norm_meta=meta)
    net = train_sgd(net, ds, replace(
        cfg.train, seed=derive_seed(cfg.seed, "train", variant, width, seed)))
    search = (replace(cfg.search, bounds=_clip_box(net, ds))
              if cfg.estimator == "deepfool" else None)
    _, kept, table = _measure_correct(net, ds.features, ds.labels, 0,
                                      search, batch_mean=True)
    test_acc = float(np.mean(predict_batch(net, _model_inputs(net, test_raw))
                             == test_raw.labels))

    values = np.full(ds.sample_count, np.nan)
    values[kept] = np.where(table.stuck, np.nan, table.d_best)
    finite = np.isfinite(values)
    clean_mask = (ds.corrupt_flags == 0) & finite
    corrupt_mask = (ds.corrupt_flags != 0) & finite
    return {
        "width": width, "seed": seed, "variant": variant,
        "train_accuracy": kept.size / ds.sample_count,
        "test_accuracy": test_acc,
        "margin_clean": _mean(values[clean_mask].tolist()),
        "margin_corrupt": _mean(values[corrupt_mask].tolist()),
        "margin_overall": _mean(values[finite].tolist()),
        "flags": ds.corrupt_flags,
        "margins": values,
    }


def run_capacity_sweep(cfg: ExperimentConfig) -> dict:
    """Train the width x seed x variant grid and write the report files.

    Every report table, the data-level ``max_margin`` columns included, is
    computed before the output directory is created, so a run that fails
    writes nothing. Its error carries the tag of the stage that failed.
    Returns the names of the written files and the output directory.
    """
    stage = "generate"
    try:
        train_raw, test_raw = _sweep_datasets(cfg)
        if np.unique(train_raw.labels).size < 2:
            # the report's max margin is undefined; fail before training
            raise DomainError("the training set has a single class present")

        stage = "corrupt"
        variants: list[tuple[str, Dataset]] = [("clean", train_raw)]
        for mode, fraction in cfg.corruptions:
            ds, _ = _CORRUPTERS[mode](
                train_raw, fraction,
                derive_seed(cfg.seed, "corrupt", mode, fraction))
            variants.append((f"{mode}-corrupted", ds))

        stage = "normalize"
        prepared = [(name, *_normalized(ds, cfg.normalize))
                    for name, ds in variants]

        stage = "train"
        rows = [_run_sweep_entry(cfg, name, ds, meta, test_raw, width, seed)
                for width in cfg.widths
                for seed in cfg.seeds
                for name, ds, meta in prepared]

        stage = "report"
        outputs = {}
        grid = [_texts([r[key] for r in rows])
                for key in ("width", "seed", "variant")]
        outputs["margins.csv"] = csv_text(
            ["width", "seed", "variant", "train_accuracy", "test_accuracy",
             "margin_clean", "margin_corrupt", "margin_overall"],
            [*grid,
             *(np.array([r[key] for r in rows])
               for key in ("train_accuracy", "test_accuracy")),
             *(_optional([r[key] for r in rows])
               for key in ("margin_clean", "margin_corrupt",
                           "margin_overall"))])
        counts = [r["margins"].size for r in rows]
        margins = np.concatenate([r["margins"] for r in rows])
        outputs["per_sample_margins.csv"] = csv_text(
            ["width", "seed", "variant", "sample_index", "flag", "margin"],
            [*(np.repeat(column, counts) for column in grid),
             np.concatenate([np.arange(n) for n in counts]),
             np.concatenate([r["flags"] for r in rows]),
             (margins, ~np.isfinite(margins))])

        # data-level nearest-other-label distances, one column per variant
        variant_names = [name for name, _, _ in prepared]
        mm_columns = {name: max_margin(ds) for name, ds, _ in prepared}
        outputs["max_margins.csv"] = csv_text(
            ["sample_index"] + [f"max_margin_{n}" for n in variant_names],
            [np.arange(train_raw.sample_count),
             *(mm_columns[name] for name in variant_names)])

        per_width = {}
        for width in cfg.widths:
            cell = {}
            for name in variant_names:
                sub = [r for r in rows
                       if r["width"] == width and r["variant"] == name]
                for kind, field in (("clean", "margin_clean"),
                                    ("corrupt", "margin_corrupt"),
                                    ("overall", "margin_overall")):
                    value = _mean([r[field] for r in sub])
                    if value is not None:
                        cell[f"{kind}:{name}"] = value
                cell[f"test_accuracy:{name}"] = _mean(
                    [r["test_accuracy"] for r in sub])
            per_width[str(width)] = cell
        summary = {
            "estimator": cfg.estimator,
            "max_margin": {name: float(np.mean(mm_columns[name]))
                           for name in variant_names},
            "per_width": per_width,
            "seed": cfg.seed,
            "seeds": list(cfg.seeds),
            "variants": variant_names,
            "widths": list(cfg.widths),
        }
        outputs["summary.json"] = json.dumps(summary, sort_keys=True,
                                             indent=2) + "\n"
    except WorkbenchError as exc:
        raise type(exc)(f"stage {stage}: {exc}") from exc

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        _write_text(out_dir / name, text)
    return {"files": list(outputs), "output_dir": str(out_dir)}


def _cmd_sweep(args) -> None:
    cfg = _load_sweep_config(args)
    _print_json(run_capacity_sweep(cfg))


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``mw`` parser, built once per process: parsing leaves it as it
    was, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="mw", description="margin measurement workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a Gaussian-blob dataset")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--samples-per-class", type=int, default=100)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("corrupt", help="corrupt labels or inputs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=tuple(_CORRUPTERS), required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None,
                   help="optional JSON sidecar with corrupted indices")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("train", help="train an MLP classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--hidden", required=True,
                   help="comma-separated hidden widths, e.g. 32,16")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--normalize", choices=_NORMALIZE_SCHEMES,
                   default="znorm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("measure", help="measure classification margins")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--estimator", choices=_ESTIMATORS, default="deepfool")
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--gamma", type=float, default=0.25,
                   help="search learning rate in (0, 1]")
    p.add_argument("--tol", type=float, default=0.01,
                   help="distance-stabilization stopping tolerance")
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--batch", action="store_true",
                   help="batched search with mean-distance stopping")
    p.add_argument("--pca", default=None,
                   help="fitted projection file for constrained estimators")
    p.add_argument("--m", default="auto",
                   help="subspace dimension or 'auto' for knee selection")
    p.add_argument("--include-misclassified", action="store_true")
    p.add_argument("--tv-normalize", action="store_true",
                   help="append a margin_tv column scaled by the layer's "
                        "total variation")
    p.add_argument("--out", required=True)
    p.add_argument("--boundary-out", default=None,
                   help="CSV of original and boundary points, for advdir")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("pca", help="fit principal components to a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--knee", action="store_true",
                   help="also report the knee-selected component count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pca)

    p = sub.add_parser("evaluate", help="score complexity measures against "
                                        "generalization outcomes")
    p.add_argument("--models", required=True,
                   help="JSON list of evaluated models")
    p.add_argument("--metric", choices=("kendall", "granulated", "cmi", "r2"),
                   required=True)
    p.add_argument("--measure-col", required=True)
    p.add_argument("--out", default=None, help="optional CSV score table")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("advdir", help="decompose boundary perturbations "
                                      "along principal components")
    p.add_argument("--pca", required=True)
    p.add_argument("--boundary-csv", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_advdir)

    p = sub.add_parser("sweep", help="train a capacity sweep and report "
                                     "margin statistics")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None,
                   help="override the config's output_dir")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's seed")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
