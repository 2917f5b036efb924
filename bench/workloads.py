"""The benchmark's three closed-loop workloads: inputs, operations, checks.

Each workload's set-up writes its inputs from the workload seed alone; the
program only ever sees those files and an argv. One iteration runs the
workload's operations in order, each an in-process call of
``marginlab.cli.main`` or of a public library function, each waiting for
the previous one.

Every check recomputes what it verifies independently of the code under
test (numpy oracles, a forward pass at the reported boundary point, the
data file parsed here), so an optimisation that reorders float arithmetic
still passes while a wrong answer does not.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import marginlab.cli
import marginlab.metrics
import marginlab.nnet
from tracing import ESTIMATORS

# the workloads BENCHMARK.json names; ``sweep`` can still be run by hand
# (see "The sweep workload" in README.md)
WORKLOADS = ("measure", "rank")
EVALUATE_METRICS = ("kendall", "granulated", "cmi")


def sub_seed(seed: int, tag: str) -> int:
    """A 31-bit seed for one consumer, derived from the workload seed."""
    digest = hashlib.sha256(f"{int(seed)}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


@dataclass
class Op:
    """One benchmark operation.

    ``call`` runs the operation and returns (exit code, output text); it is
    the only part that is timed. ``check`` gets the output text and returns
    the problems it finds. ``outputs`` are the files the operation writes.
    ``rows`` are the margins the operation measured, for rate metrics.
    """

    kind: str
    call: Callable[[], tuple[int, str]]
    check: Callable[[str], list[str]]
    outputs: tuple[Path, ...] = ()
    rows: Callable[[str], int] = lambda out: 0


@dataclass
class Workload:
    ops: list[Op]
    inputs: list[Path] = field(default_factory=list)


def run_cli(argv) -> tuple[int, str]:
    """``marginlab.cli.main(argv)`` with stdout captured.

    The attribute is looked up at call time, so a traced run sees the
    tracer's wrapper.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = marginlab.cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _cli_op(kind, argv, check, outputs=(), rows=lambda out: 0) -> Op:
    return Op(kind, lambda: run_cli(argv), check, tuple(outputs), rows)


def _setup_cli(argv) -> None:
    code, out = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited {code}: {out}")


def _summary(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _float(cell: str) -> float | None:
    return float(cell) if cell != "" else None


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-9) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _write_csv_dataset(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    lines = [",".join([f"f{j}" for j in range(X.shape[1])] + ["label"])]
    lines += [",".join([*map(repr, map(float, row)), str(int(label))])
              for row, label in zip(X, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# sweep: the README capacity sweep, end to end

SWEEP_FILES = ("margins.csv", "max_margins.csv", "per_sample_margins.csv",
               "summary.json")


def setup_sweep(workdir: Path, seed: int) -> Workload:
    out_dir = workdir / "sweep_out"
    config = {
        "dataset": {"classes": 3, "samples_per_class": 40, "dim": 4,
                    "spread": 1.2},
        "corruptions": [{"mode": "label", "fraction": 0.2}],
        "widths": [8, 16, 32],
        "seeds": [0, 1, 2],
        "train": {"epochs": 300, "batch_size": 16, "learning_rate": 0.1},
        "estimator": {"name": "deepfool", "learning_rate": 0.25,
                      "stop_tolerance": 0.001, "max_iters": 100},
        "normalize": "znorm",
        "output_dir": "sweep_out",
        "seed": sub_seed(seed, "sweep"),
    }
    cfg_path = workdir / "sweep.json"
    cfg_path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
    entries = len(config["widths"]) * len(config["seeds"]) * 2
    samples = 3 * 40

    def check(out: str) -> list[str]:
        problems = []
        present = sorted(p.name for p in out_dir.iterdir())
        if present != sorted(SWEEP_FILES):
            return [f"sweep wrote {present}"]
        rows = _read_csv(out_dir / "margins.csv")
        if len(rows) != entries:
            problems.append(f"margins.csv has {len(rows)} rows")
        per_sample = _read_csv(out_dir / "per_sample_margins.csv")
        if len(per_sample) != entries * samples:
            problems.append(f"per_sample_margins.csv has {len(per_sample)} "
                            f"rows")
        values = [_float(r[k]) for r in rows
                  for k in ("margin_clean", "margin_corrupt",
                            "margin_overall")]
        values += [_float(r["margin"]) for r in per_sample]
        bad = sum(1 for v in values
                  if v is not None and not (math.isfinite(v) and v > 0))
        if bad:
            problems.append(f"{bad} sweep margins are non-finite or not "
                            f"positive")
        if len(_read_csv(out_dir / "max_margins.csv")) != samples:
            problems.append("max_margins.csv row count")
        json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        return problems

    op = _cli_op("sweep", ["sweep", "--config", cfg_path,
                           "--output-dir", out_dir], check,
                 [out_dir / name for name in SWEEP_FILES])
    return Workload([op], [cfg_path])


# ---------------------------------------------------------------------------
# measure: every margin estimator on one trained model, then attribution

MEASURE_CLASSES, MEASURE_PER_CLASS, MEASURE_DIM = 5, 120, 20


def setup_measure(workdir: Path, seed: int) -> Workload:
    rng = np.random.default_rng(sub_seed(seed, "measure-data"))
    centers = rng.uniform(-10.0, 10.0, size=(MEASURE_CLASSES, MEASURE_DIM))
    X = np.concatenate([c + rng.normal(0.0, 10.0,
                                       size=(MEASURE_PER_CLASS, MEASURE_DIM))
                        for c in centers])
    y = np.repeat(np.arange(MEASURE_CLASSES), MEASURE_PER_CLASS)
    data = workdir / "data.csv"
    _write_csv_dataset(data, X, y)
    model_path = workdir / "model.json"
    pca_path = workdir / "pca.json"
    _setup_cli(["train", "--data", data, "--hidden", "64", "--epochs", "60",
                "--batch-size", "32", "--learning-rate", "0.05",
                "--seed", sub_seed(seed, "measure-train"),
                "--out", model_path])
    _setup_cli(["pca", "--data", data, "--out", pca_path])
    return Workload(_measure_ops(workdir, data, model_path, pca_path),
                    [data, model_path, pca_path])


def _measure_ops(workdir, data, model_path, pca_path) -> list[Op]:
    # reference values, computed once and outside every timed region
    raw = np.loadtxt(data, delimiter=",", skiprows=1)
    X, y = raw[:, :-1], raw[:, -1].astype(np.int64)
    net = marginlab.nnet.load_model(model_path)
    meta = net.norm_meta
    Xn = (X - meta.offsets) / meta.scales
    acts = marginlab.nnet.forward_batch(net, Xn)
    correct = int(np.count_nonzero(np.argmax(acts[-1], axis=1) == y))
    tv_layer1 = float(np.sqrt(np.var(acts[1], axis=0).sum()))
    components = json.loads(pca_path.read_text(encoding="utf-8"))["components"]
    boundary = workdir / "boundary.csv"
    pca_knee = workdir / "pca_knee.json"
    shares = workdir / "shares.csv"

    def margins_check(path, tv=None):
        def check(out: str) -> list[str]:
            summary = _summary(out)
            rows = _read_csv(path)
            problems = []
            if len(rows) != correct:
                problems.append(f"{path.name}: {len(rows)} rows for "
                                f"{correct} correctly classified samples")
            if summary["measured"] + summary["degenerate"] != correct:
                problems.append(f"{path.name}: measured "
                                f"{summary['measured']} + degenerate "
                                f"{summary['degenerate']} != {correct}")
            margins = [_float(r["margin"]) for r in rows]
            margins = [m for m in margins if m is not None]
            if len(margins) != summary["measured"]:
                problems.append(f"{path.name}: margin cells != measured")
            if not all(math.isfinite(m) and m >= 0 for m in margins):
                problems.append(f"{path.name}: margin non-finite or < 0")
            if tv is not None:
                if not _close(summary["total_variation"], tv):
                    problems.append(f"total variation "
                                    f"{summary['total_variation']} != {tv}")
                for r in rows:
                    if r["margin"] and not _close(float(r["margin_tv"]),
                                                  float(r["margin"]) / tv):
                        problems.append("margin_tv != margin / tv")
                        break
            return problems
        return check

    def boundary_check(path):
        base_check = margins_check(path)

        def check(out: str) -> list[str]:
            problems = base_check(out)
            m = _summary(out)["subspace_dims"]
            P = np.asarray(components, dtype=np.float64)[:m]
            by_index = {r["sample_index"]: r for r in _read_csv(path)
                        if r["margin"]}
            brows = _read_csv(boundary)
            if len(brows) != len(by_index):
                problems.append(f"boundary.csv has {len(brows)} rows")
            if not brows:
                return problems
            width = sum(1 for k in brows[0] if k.startswith("orig_"))
            orig = np.array([[float(r[f"orig_{j}"]) for j in range(width)]
                             for r in brows])
            bound = np.array([[float(r[f"bound_{j}"]) for j in range(width)]
                              for r in brows])
            logits = marginlab.nnet.forward_batch(net, bound)[-1]
            pert = bound - orig
            residual = np.linalg.norm(pert - (pert @ P.T) @ P, axis=1)
            for k, brow in enumerate(brows):
                row = by_index[brow["sample_index"]]
                violation = float(row["violation"])
                gap = abs(logits[k, int(row["base_class"])]
                          - logits[k, int(row["competitor_class"])])
                if math.isfinite(violation):
                    if not _close(gap, violation, rel=1e-7):
                        problems.append(f"sample {row['sample_index']}: "
                                        f"logit gap {gap} != violation "
                                        f"{violation}")
                elif int(row["steps"]) != 0:
                    problems.append("infinite violation after a step")
                if not _close(float(np.linalg.norm(pert[k])),
                              float(row["margin"])):
                    problems.append(f"sample {row['sample_index']}: margin "
                                    f"is not the boundary distance")
                if row["left_subspace"] != "true" and residual[k] > 1e-7:
                    problems.append(f"sample {row['sample_index']}: "
                                    f"perturbation leaves the top-{m} span")
                if len(problems) > 10:
                    break
            return problems
        return check

    def knee_check(out: str) -> list[str]:
        summary = _summary(out)
        comps = np.asarray(json.loads(pca_knee.read_text(
            encoding="utf-8"))["components"])
        problems = []
        if not 1 <= summary["knee_m"] <= summary["components"]:
            problems.append(f"knee_m {summary['knee_m']} out of range")
        if np.max(np.abs(comps @ comps.T - np.eye(len(comps)))) > 1e-8:
            problems.append("pca components are not orthonormal")
        return problems

    def advdir_check(out: str) -> list[str]:
        summary = _summary(out)
        rows = _read_csv(shares)
        p = np.array([float(r["p_share"]) for r in rows])
        cum = np.array([float(r["cumulative"]) for r in rows])
        problems = []
        if len(rows) != summary["components"]:
            problems.append("shares.csv row count")
        if np.any(p < 0) or not _close(p.sum(), 1.0):
            problems.append("p_share is not a distribution")
        if np.any(np.diff(cum) < -1e-12) or not _close(cum[-1], 1.0):
            problems.append("cumulative share is not monotone to 1")
        if summary["samples"] + summary["dropped_rows"] != len(
                _read_csv(boundary)):
            problems.append("advdir sample count")
        return problems

    base = ["measure", "--model", model_path, "--data", data, "--tol", "0.001"]
    variants = {
        "taylor": ["--estimator", "taylor"],
        "deepfool": ["--estimator", "deepfool"],
        "deepfool_batch": ["--estimator", "deepfool", "--batch"],
        "constrained_taylor": ["--estimator", "constrained-taylor",
                               "--pca", pca_path, "--m", "auto"],
        "constrained_deepfool": ["--estimator", "constrained-deepfool",
                                 "--pca", pca_path, "--m", "auto",
                                 "--boundary-out", boundary],
        "deepfool_layer1": ["--estimator", "deepfool", "--layer", "1",
                            "--tv-normalize"],
    }
    ops = []
    for kind in ESTIMATORS:
        out_csv = workdir / f"margins_{kind}.csv"
        if kind == "constrained_deepfool":
            check, outputs = boundary_check(out_csv), [out_csv, boundary]
        else:
            check = margins_check(out_csv, tv_layer1
                                  if kind == "deepfool_layer1" else None)
            outputs = [out_csv]
        ops.append(_cli_op(kind, base + variants[kind] + ["--out", out_csv],
                           check, outputs,
                           rows=lambda out: _summary(out)["measured"]))
    ops.append(_cli_op("pca_knee", ["pca", "--data", data, "--knee",
                                    "--out", pca_knee],
                       knee_check, [pca_knee]))
    ops.append(_cli_op("advdir", ["advdir", "--pca", pca_knee,
                                  "--boundary-csv", boundary,
                                  "--out", shares],
                       advdir_check, [shares]))
    return ops


# ---------------------------------------------------------------------------
# rank: scoring a collection of evaluated models

RANK_AXES = {
    "width": (8, 16, 32, 64, 128),
    "seed": (0, 1, 2, 3, 4),
    "corruption": (0.0, 0.1, 0.2, 0.3, 0.4),
    "lr": (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2),
}
RANK_SAMPLE = 200


def make_collection(seed: int):
    """1000 evaluated models over a 5x5x5x8 grid, with correlated measure,
    accuracies and a margin sample per model. Accuracies are quantized to
    a test-set granularity, so ties occur as they do in real collections."""
    rng = np.random.default_rng(sub_seed(seed, "rank"))
    grid = list(itertools.product(*RANK_AXES.values()))
    n = len(grid)
    width, _, corruption, lr = (np.array(col, dtype=np.float64)
                                for col in zip(*grid))
    quality = (0.3 * (np.log2(width) - 5.0) - 2.0 * corruption
               - 0.8 * (np.log10(lr) + 1.5) ** 2 + rng.normal(0.0, 0.3, n))
    test_acc = np.round(np.clip(0.6 + 0.3 * np.tanh(quality), 0, 1) * 500) / 500
    gap = np.clip(0.02 + 0.4 * corruption + rng.normal(0.0, 0.03, n), 0, None)
    train_acc = np.round(np.minimum(1.0, test_acc + gap) * 600) / 600
    mu = 0.5 * quality - 1.0 * corruption
    samples = np.exp(mu[:, None] + 0.4 * rng.normal(size=(n, RANK_SAMPLE)))
    measure = np.median(samples, axis=1) * np.exp(rng.normal(0.0, 0.1, n))
    entries = [{"hyperparams": dict(zip(RANK_AXES, point)),
                "train_acc": float(tr), "test_acc": float(te),
                "measures": {"mm": float(m)}}
               for point, tr, te, m in zip(grid, train_acc, test_acc, measure)]
    return entries, samples, train_acc - test_acc


def kendall_oracle(values, targets) -> float:
    """Kendall's defining double sum as a sign outer product."""
    v = np.asarray(values, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    n = v.size
    total = np.sum(np.sign(v[:, None] - v[None, :])
                   * np.sign(t[:, None] - t[None, :]))
    return float(total) / (n * (n - 1))


def granulated_oracle(entries, values, targets) -> float:
    """Mean over axes of the mean Kendall tau over single-axis groups."""
    axes = sorted(entries[0]["hyperparams"])
    psis = []
    for axis in axes:
        groups: dict[tuple, list[int]] = {}
        for idx, e in enumerate(entries):
            key = tuple(str(e["hyperparams"][a]) for a in axes if a != axis)
            groups.setdefault(key, []).append(idx)
        taus = [kendall_oracle([values[i] for i in g], [targets[i] for i in g])
                for g in groups.values()
                if len({str(entries[i]["hyperparams"][axis]) for i in g}) > 1]
        if taus:
            psis.append(float(np.mean(taus)))
    return float(np.mean(psis))


def setup_rank(workdir: Path, seed: int) -> Workload:
    entries, samples, gaps = make_collection(seed)
    models = workdir / "models.json"
    models.write_text(json.dumps(entries, sort_keys=True) + "\n",
                      encoding="utf-8")
    values = [e["measures"]["mm"] for e in entries]
    accs = [e["test_acc"] for e in entries]
    tau = kendall_oracle(values, accs)
    mean_psi = granulated_oracle(entries, values, accs)

    def kendall_check(out: str) -> list[str]:
        got = _summary(out)["tau"]
        return [] if _close(got, tau, rel=1e-12, abs_=1e-12) else \
            [f"kendall tau {got} != oracle {tau}"]

    def granulated_check(out: str) -> list[str]:
        got = _summary(out)["mean_psi"]
        return [] if _close(got, mean_psi, rel=1e-12, abs_=1e-12) else \
            [f"mean_psi {got} != oracle {mean_psi}"]

    def cmi_check(out: str) -> list[str]:
        final = _summary(out)["final"]
        return [] if 0.0 <= final <= 100.0 else [f"cmi final {final}"]

    checks = {"kendall": kendall_check, "granulated": granulated_check,
              "cmi": cmi_check}
    ops = []
    for metric in EVALUATE_METRICS:
        scores = workdir / f"scores_{metric}.csv"
        ops.append(_cli_op(f"evaluate_{metric}",
                           ["evaluate", "--models", models, "--metric", metric,
                            "--measure-col", "mm", "--out", scores],
                           checks[metric], [scores]))

    last: dict = {}
    cv_seed = sub_seed(seed, "rank-cv")

    def predictor() -> tuple[int, str]:
        m = marginlab.metrics
        sigs = [m.extract_signature(s) for s in samples]
        features = np.array([s.as_vector() for s in sigs])
        cv = m.cross_validate_predictor(features, gaps, k=3, shuffles=5,
                                        seed=cv_seed)
        last["sigs"] = sigs
        return 0, json.dumps({"mean_r2": cv.mean_r2,
                              "per_fold": list(cv.per_fold)})

    def predictor_check(out: str) -> list[str]:
        result = json.loads(out)
        problems = []
        if len(result["per_fold"]) != 15 or not math.isfinite(
                result["mean_r2"]):
            problems.append(f"cross-validation result {result}")
        sigs = last["sigs"]
        if len(sigs) != len(samples) or any(
                not s.q1 <= s.q2 <= s.q3 for s in sigs):
            problems.append("signature quartiles out of order")
        return problems

    ops.append(Op("predictor", predictor, predictor_check))
    return Workload(ops, [models])


SETUPS = {"sweep": setup_sweep, "measure": setup_measure, "rank": setup_rank}
