"""The capacity sweep: small ReLU nets trained across widths, seeds and
corrupted variants of one dataset, their margins compared.

``run_capacity_sweep`` runs an ``ExperimentConfig``'s width x seed x variant
grid, each entry trained by ``_train_entry`` and measured by
``_measure_entry``, and writes the report files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._atomic import write_file
from ._csvio import _optional, _texts, csv_text
from ._seed import derive_seed
from .data import (
    CORRUPTERS,
    NORMALIZE_SCHEMES,
    BlobConfig,
    Dataset,
    apply_normalization,
    gen_blobs,
    load_dataset,
    max_margin,
    normalize,
)
from .errors import (
    ConfigError,
    DomainError,
    WorkbenchError,
    _is_finite_real,
    check_integers,
)
from .margin import SearchConfig, _measure_correct
from .nnet import Network, TrainConfig, init_network, predict_batch, train_sgd

# ---------------------------------------------------------------------------
# config


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one capacity-sweep run, range-checked
    when built; each error names the config key at fault.

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

    def __post_init__(self):
        if (self.blob is None) == (self.dataset_path is None) \
                or (self.dataset_path is None) != (self.test_path is None):
            raise DomainError("dataset: expected a blob config or a path "
                              "and a test_path")
        for key in ("corruptions", "widths", "seeds"):
            if not isinstance(getattr(self, key), (tuple, list)):
                raise DomainError(f"{key}: expected a list, got "
                                  f"{getattr(self, key)!r}")
        for k, entry in enumerate(self.corruptions):
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
                raise DomainError(f"corruptions[{k}]: expected a (mode, "
                                  f"fraction) pair, got {entry!r}")
            mode, fraction = entry
            if not (isinstance(mode, str) and mode in CORRUPTERS):
                raise DomainError(f"corruptions[{k}]: mode must be 'label' "
                                  f"or 'input'")
            if not (_is_finite_real(fraction) and 0.0 < fraction <= 1.0):
                raise DomainError(f"corruptions[{k}]: fraction must lie in "
                                  f"(0, 1]")
        check_integers(seed=self.seed,
                       **{f"widths[{k}]": w for k, w in enumerate(self.widths)},
                       **{f"seeds[{k}]": v for k, v in enumerate(self.seeds)})
        if not self.widths or min(self.widths) < 1:
            raise DomainError("widths: expected a non-empty list of positive "
                              "integers")
        if not self.seeds:
            raise DomainError("seeds: expected a non-empty list of integers")
        if self.estimator not in ("deepfool", "taylor"):
            raise DomainError("estimator: name must be 'deepfool' or 'taylor'")
        if self.normalize not in NORMALIZE_SCHEMES:
            raise DomainError("normalize: expected znorm, minmax, or none")


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


def _load_sweep_config(doc, source: str, output_dir: str | None,
                       seed: int | None) -> ExperimentConfig:
    """The parsed JSON config ``doc`` as an ``ExperimentConfig``, which
    checks the ranges; here each key's presence and JSON kind are checked.
    ``source`` names the config in errors about its top level, and a given
    ``output_dir`` or ``seed`` overrides the config's."""
    top = _section(doc, _SWEEP_FIELDS, source, prefix="")
    if "path" in top["dataset"]:
        paths = _section(top["dataset"], _PATH_FIELDS, "dataset")
        blob = None
    else:
        paths = dict.fromkeys(_PATH_FIELDS)
        blob = _built(BlobConfig, "dataset",
                      **_section(top["dataset"], _BLOB_FIELDS, "dataset"),
                      seed=0)

    # each entry's (mode, fraction), in _CORRUPTION_FIELDS order
    corruptions = tuple(tuple(_section(entry, _CORRUPTION_FIELDS,
                                       f"corruptions[{k}]").values())
                        for k, entry in enumerate(top["corruptions"]))
    est = _section(top["estimator"], _ESTIMATOR_FIELDS, "estimator")
    estimator = est.pop("name")
    return ExperimentConfig(
        blob=blob, dataset_path=paths["path"], test_path=paths["test_path"],
        corruptions=corruptions,
        widths=tuple(_typed(w, int, f"widths[{k}]")
                     for k, w in enumerate(top["widths"])),
        seeds=tuple(_typed(v, int, f"seeds[{k}]")
                    for k, v in enumerate(top["seeds"])),
        train=_built(TrainConfig, "train",
                     **_section(top["train"], _TRAIN_FIELDS, "train")),
        estimator=estimator, search=_built(SearchConfig, "estimator", **est),
        normalize=top["normalize"],
        output_dir=output_dir if output_dir else top["output_dir"],
        seed=seed if seed is not None else top["seed"])


# ---------------------------------------------------------------------------
# the grid


def _mean(values) -> float | None:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def _sweep_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if cfg.dataset_path is not None:
        return load_dataset(cfg.dataset_path), load_dataset(cfg.test_path)
    blob = cfg.blob
    rng = np.random.default_rng(derive_seed(cfg.seed, "centers"))
    centers = rng.uniform(-10.0, 10.0, size=(blob.classes, blob.dim))
    return tuple(gen_blobs(replace(blob, seed=derive_seed(cfg.seed, split),
                                   centers=centers))
                 for split in ("data", "test"))


def _train_entry(cfg: ExperimentConfig, variant: str, ds: Dataset, meta,
                 width: int, seed: int) -> Network:
    """The network of one grid entry, trained on the normalized ``ds``."""
    net = init_network(ds.feature_count, [width], ds.class_count,
                       seed=derive_seed(cfg.seed, "init", variant, width,
                                        seed),
                       norm_meta=meta)
    return train_sgd(net, ds, replace(
        cfg.train, seed=derive_seed(cfg.seed, "train", variant, width, seed)))


def _measure_entry(cfg: ExperimentConfig, net: Network, ds: Dataset,
                   test_raw: Dataset) -> dict:
    """The accuracies and the input-space margins of the trained ``net`` on
    its raw training set ``ds``, per sample and as group means."""
    search = cfg.search if cfg.estimator == "deepfool" else None
    _, kept, _, margins = _measure_correct(net, ds, 0, search,
                                           batch_mean=True)
    X_test = apply_normalization(test_raw.features, net.norm_meta)
    test_acc = float(np.mean(predict_batch(net, X_test) == test_raw.labels))

    values = np.full(ds.sample_count, np.nan)
    values[kept] = margins
    finite = np.isfinite(values)
    clean = ds.corrupt_flags == 0
    return {
        "train_accuracy": kept.size / ds.sample_count,
        "test_accuracy": test_acc,
        "margin_clean": _mean(values[finite & clean].tolist()),
        "margin_corrupt": _mean(values[finite & ~clean].tolist()),
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
            ds, _ = CORRUPTERS[mode](
                train_raw, fraction,
                derive_seed(cfg.seed, "corrupt", mode, fraction))
            variants.append((f"{mode}-corrupted", ds))

        stage = "normalize"
        prepared = [(name, raw, *normalize(raw, cfg.normalize))
                    for name, raw in variants]

        stage = "train"
        rows = [{"width": width, "seed": seed, "variant": name,
                 **_measure_entry(
                     cfg, _train_entry(cfg, name, ds, meta, width, seed),
                     raw, test_raw)}
                for width in cfg.widths
                for seed in cfg.seeds
                for name, raw, ds, meta in prepared]

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
        mm_columns = {name: max_margin(ds) for name, _, ds, _ in prepared}
        variant_names = list(mm_columns)
        outputs["max_margins.csv"] = csv_text(
            ["sample_index"] + [f"max_margin_{n}" for n in variant_names],
            [np.arange(train_raw.sample_count), *mm_columns.values()])

        per_width = {}
        for width in cfg.widths:
            cell = {}
            for name in variant_names:
                sub = [r for r in rows
                       if r["width"] == width and r["variant"] == name]
                for kind in ("clean", "corrupt", "overall"):
                    value = _mean([r[f"margin_{kind}"] for r in sub])
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
        write_file(out_dir / name, text)
    return {"files": list(outputs), "output_dir": str(out_dir)}
