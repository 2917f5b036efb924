"""Command-line front end: data generation, training, margin measurement,
metric evaluation, perturbation decomposition, and capacity sweeps.

Every subcommand is a thin driver over the library modules that returns
its summary and its writes, each a writer and its arguments; ``main`` runs
the writes once the summary line is made. Datasets on disk always hold raw
(unnormalized) features; models carry their own normalization, which
``measure`` and ``sweep`` apply internally. All tables are CSV with a
one-line header, all summaries are single-line JSON on stdout, and a fixed
``--seed`` reproduces every byte of output.

Exit codes: 0 success, 2 configuration/domain errors (a size too large
for memory included), 3 numerical errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import sys
from dataclasses import replace

import numpy as np

from ._atomic import read_json, write_file, write_json
from ._csvio import _optional, _texts, csv_text, read_numeric_csv
from ._seed import derive_seed
from .advdir import adv_directions, cumulative_share
from .data import (
    CORRUPTERS,
    NORMALIZE_SCHEMES,
    BlobConfig,
    gen_blobs,
    load_dataset,
    normalize,
    save_dataset,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    UndefinedMetricError,
    _is_finite_real,
)
from .margin import (
    SearchConfig,
    SearchStatus,
    _measure_correct,
    _scale_by_tv,
    compute_total_variation,
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
    init_network,
    load_model,
    save_model,
    train_sgd,
)
from .pca import fit_pca, load_pca, save_pca, select_components_kneedle
from .sweep import _load_sweep_config, run_capacity_sweep

# ---------------------------------------------------------------------------
# output helpers


def _json_line(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"summary holds a non-finite value: {exc}") \
            from exc


# ---------------------------------------------------------------------------
# gen-data / corrupt / train


def _cmd_gen_data(args):
    ds = gen_blobs(BlobConfig(classes=args.classes,
                              samples_per_class=args.samples_per_class,
                              dim=args.dim, spread=args.spread,
                              seed=args.seed))
    return ({"classes": ds.class_count, "features": ds.feature_count,
             "path": str(args.out), "samples": ds.sample_count},
            [(save_dataset, ds, args.out)])


def _cmd_corrupt(args):
    ds = load_dataset(args.infile)
    out_ds, report = CORRUPTERS[args.mode](ds, args.fraction, args.seed)
    info = {"mode": report.mode, "seed": int(report.seed),
            "fraction_requested": float(report.fraction_requested)}
    writes = [(save_dataset, out_ds, args.out)]
    if args.report:
        writes.append((write_json, args.report, {
            **info, "indices_corrupted": report.indices_corrupted.tolist()}))
    return ({**info, "num_corrupted": len(report.indices_corrupted),
             "path": str(args.out)}, writes)


def _parse_hidden(text: str) -> list[int]:
    try:
        widths = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--hidden expects comma-separated integers, "
                          f"got {text!r}") from exc
    if not widths or any(w < 1 for w in widths):
        raise ConfigError(f"--hidden widths must be positive, got {text!r}")
    return widths


def _cmd_train(args):
    ds, meta = normalize(load_dataset(args.data), args.normalize)
    hidden = _parse_hidden(args.hidden)
    net = init_network(ds.feature_count, hidden, ds.class_count,
                       seed=derive_seed(args.seed, "init"), norm_meta=meta)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                      learning_rate=args.learning_rate,
                      momentum=args.momentum,
                      seed=derive_seed(args.seed, "shuffle"))
    net = train_sgd(net, ds, cfg)
    return ({"hidden": hidden, "path": str(args.out),
             "train_accuracy": float(accuracy(net, ds))},
            [(save_model, net, args.out)])


# ---------------------------------------------------------------------------
# measure


_DEEPFOOL_ESTIMATORS = ("deepfool", "constrained-deepfool")
_ESTIMATORS = ("taylor", "deepfool", "constrained-taylor",
               "constrained-deepfool")
# the measure CSV's status text, indexed by a MarginTable's status codes
_STATUS_TEXT = np.array([status.value for status in SearchStatus])


def _resolve_subspace(args):
    """PCA model and component count for the constrained estimators."""
    if args.pca is None:
        raise ConfigError("constrained estimators need --pca")
    pca = load_pca(args.pca)
    if args.m in (None, "auto"):
        m = select_components_kneedle(pca).m
    else:
        try:
            m = int(args.m)
        except ValueError as exc:
            raise ConfigError(f"--m must be an integer or 'auto', "
                              f"got {args.m!r}") from exc
    return pca, m


def _cmd_measure(args):
    constrained = args.estimator.startswith("constrained-")
    if args.boundary_out and args.estimator not in _DEEPFOOL_ESTIMATORS:
        raise ConfigError("--boundary-out needs a deepfool-family estimator")
    if args.batch and args.estimator not in _DEEPFOOL_ESTIMATORS:
        raise ConfigError("--batch needs a deepfool-family estimator")
    if not constrained and (args.pca is not None or args.m is not None):
        raise ConfigError("--pca and --m need a constrained estimator")

    net = load_model(args.model)
    if not 0 <= args.layer < len(net.layers):
        raise ConfigError(f"--layer {args.layer} outside "
                          f"[0, {len(net.layers)})")
    raw = load_dataset(args.data)
    if raw.feature_count != net.input_dim:
        raise ConfigError(f"{args.data} has {raw.feature_count} features; "
                          f"the model takes {net.input_dim}")
    cfg = SearchConfig(learning_rate=args.gamma, stop_tolerance=args.tol,
                       max_iters=args.max_iters)
    pca, m = _resolve_subspace(args) if constrained else (None, None)

    search = None if args.estimator.endswith("taylor") else cfg
    acts, kept, table, margins = _measure_correct(
        net, raw, args.layer, search, pca, m,
        batch_mean=args.batch, keep_all=args.include_misclassified)
    skipped = int(raw.sample_count - kept.size)
    # a row without a margin has only its index and status
    missing = np.isnan(margins)
    resolved = margins[~missing]

    header = ["sample_index", "margin", "violation", "steps", "status",
              "base_class", "competitor_class", "left_subspace"]
    columns = [kept, (table.d_best, missing), (table.v_best, missing),
               (table.steps, missing), _STATUS_TEXT[table.status],
               (table.base, missing), (table.competitor, missing),
               (table.left_subspace, missing)]
    with np.errstate(over="ignore"):  # _json_line names an overflow
        mean = float(np.mean(resolved)) if resolved.size else None
    summary = {"estimator": args.estimator, "layer": int(args.layer),
               "measured": int(resolved.size),
               "degenerate": int(np.count_nonzero(missing)),
               "status_counts": dict(zip(_STATUS_TEXT.tolist(), np.bincount(
                   table.status, minlength=_STATUS_TEXT.size).tolist())),
               "skipped_misclassified": skipped, "mean_margin": mean}
    if constrained:
        summary["subspace_dims"] = int(m)
    if args.tv_normalize:
        tv = compute_total_variation(acts)
        header.append("margin_tv")
        columns.append((_scale_by_tv(margins, tv), missing))
        summary["total_variation"] = tv

    writes = [(write_file, args.out, csv_text(header, columns))]
    if args.boundary_out:
        points = [f"{side}_{j}" for side in ("orig", "bound")
                  for j in range(acts.shape[1])]
        writes.append((write_file, args.boundary_out, csv_text(
            ["sample_index", *points],
            [kept, *acts[kept].T, *table.boundary.T])))
    return summary, writes


# ---------------------------------------------------------------------------
# pca


def _cmd_pca(args):
    ds = load_dataset(args.data)
    model = fit_pca(ds.features, n_components=args.components)
    info = {"components": int(model.components.shape[0]),
            "features": int(model.components.shape[1]),
            "explained_ratio_sum": float(model.explained_ratio.sum()),
            "path": str(args.out)}
    if args.knee:
        choice = select_components_kneedle(model)
        info["knee_m"] = int(choice.m)
        info["knee_fallback"] = bool(choice.fallback_used)
    return info, [(save_pca, model, args.out)]


# ---------------------------------------------------------------------------
# evaluate


_ENTRY_REQUIRED = {"hyperparams", "train_acc", "test_acc", "measures"}
_ENTRY_ALLOWED = _ENTRY_REQUIRED | {"model_path"}
_ENTRY_FIELDS = operator.itemgetter("hyperparams", "train_acc", "test_acc",
                                    "measures")


def _load_models_file(path, measure_col: str, axes: bool) -> ModelTable:
    """The models file at ``path`` as one table, its complexity being the
    measure ``measure_col``. With ``axes`` the hyperparameters are coded,
    and every entry must name the same axes as entry 0; without, the
    table has no axes.

    The whole list is checked in a few passes and its numbers converted in
    one numpy call. Only when that fails does an entry-by-entry scan run,
    to name the first bad entry.
    """
    data = read_json(path, "models file")
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
    entries in C: ``map``, ``set``, ``set.union``, ``all`` and
    ``operator.itemgetter``."""
    if set(map(type, data)) != {dict} \
            or not set().union(*data) <= _ENTRY_ALLOWED:
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
    tokens = {name: list(map(operator.itemgetter(name), hyper))
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


def _cmd_evaluate(args):
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
    else:  # "r2", the last of argparse's choices
        r2 = r_squared(table.gen_gap, table.complexity)
        result = {"measure": args.measure_col, "metric": "r2",
                  "r2": float(r2), "target": "gen_gap"}
        csv_header = ["metric", "measure", "value"]
        csv_columns = [_texts(["r2"]), _texts([args.measure_col]),
                       np.array([r2])]

    return result, ([(write_file, args.out, csv_text(csv_header, csv_columns))]
                    if args.out else [])


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


def _cmd_advdir(args):
    pca = load_pca(args.pca)
    X, Xhat = _read_boundary_csv(args.boundary_csv)
    share = adv_directions(pca, X, Xhat)
    cum = cumulative_share(share.p_share, pca.explained_ratio)
    return ({"components": int(share.p_share.size),
             "dropped_rows": int(share.dropped_rows),
             "marker_70": int(cum.marker_70),
             "marker_99": int(cum.marker_99), "path": str(args.out),
             "samples": int(share.b_adv.shape[0])},
            [(write_file, args.out, csv_text(
                ["component_index", "explained_ratio", "p_share",
                 "cumulative"],
                [np.arange(1, share.p_share.size + 1), pca.explained_ratio,
                 share.p_share, cum.cumulative]))])


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args):
    cfg = _load_sweep_config(read_json(args.config, "sweep config"),
                             str(args.config), args.output_dir, args.seed)
    return run_capacity_sweep(cfg), []  # it writes its own files


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``mw`` parser, built once per process: parsing leaves it as it
    was, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="mw", description="margin measurement workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    dataset = "dataset file, CSV; the path must end in .csv"
    p = sub.add_parser("gen-data", help="generate a Gaussian-blob dataset")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--samples-per-class", type=int, default=100)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help=dataset)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("corrupt", help="corrupt labels or inputs")
    p.add_argument("--in", dest="infile", required=True, help=dataset)
    p.add_argument("--out", required=True, help=dataset)
    p.add_argument("--mode", choices=tuple(CORRUPTERS), required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None,
                   help="optional JSON sidecar with corrupted indices")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("train", help="train an MLP classifier")
    p.add_argument("--data", required=True, help=dataset)
    p.add_argument("--hidden", required=True,
                   help="comma-separated hidden widths, e.g. 32,16")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--normalize", choices=NORMALIZE_SCHEMES,
                   default="znorm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("measure", help="measure classification margins")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help=dataset)
    p.add_argument("--estimator", choices=_ESTIMATORS, default="deepfool")
    p.add_argument("--layer", type=int, default=0)
    closed_form = "; checked, then ignored by taylor and constrained-taylor"
    p.add_argument("--gamma", type=float, default=0.25,
                   help="search learning rate in (0, 1]" + closed_form)
    p.add_argument("--tol", type=float, default=0.01,
                   help="distance-stabilization stopping tolerance, > 0"
                        + closed_form)
    p.add_argument("--max-iters", type=int, default=100,
                   help="search step limit, >= 1" + closed_form)
    p.add_argument("--batch", action="store_true",
                   help="batched search with mean-distance stopping")
    p.add_argument("--pca", default=None,
                   help="fitted projection file for constrained estimators")
    p.add_argument("--m", default=None,
                   help="subspace dimension, or 'auto' (default) for the knee")
    p.add_argument("--include-misclassified", action="store_true")
    p.add_argument("--tv-normalize", action="store_true",
                   help="append a margin_tv column scaled by the layer's "
                        "total variation")
    p.add_argument("--out", required=True)
    p.add_argument("--boundary-out", default=None,
                   help="CSV of original and boundary points, for advdir")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("pca", help="fit principal components to a dataset")
    p.add_argument("--data", required=True, help=dataset)
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
        summary, writes = args.func(args)
        line = _json_line(summary)  # made first: a failure writes nothing
        for write, *what in writes:
            write(*what)
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
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
