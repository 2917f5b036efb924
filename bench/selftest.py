"""Self-tests of the benchmark harness (not part of the repository's suite).

Run from the repository root:

    python3 -m pytest -q bench/selftest.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

from marginlab.errors import UndefinedMetricError  # noqa: E402
from marginlab.metrics import (  # noqa: E402
    EvaluatedModel,
    HyperparamConfig,
    granulated_kendall,
    kendall_tau,
    mean_granulated,
)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kendall_oracle_matches_library(seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 6, size=25).astype(float)  # ties included
    targets = rng.integers(0, 4, size=25).astype(float)
    assert workloads.kendall_oracle(values, targets) == pytest.approx(
        kendall_tau(list(zip(values, targets))), abs=1e-15)


def test_granulated_oracle_matches_library():
    entries, _, _ = workloads.make_collection(7)
    entries = entries[::7]  # a small, irregular subset of the grid
    values = [e["measures"]["mm"] for e in entries]
    accs = [e["test_acc"] for e in entries]
    models = [EvaluatedModel(HyperparamConfig(e["hyperparams"]), v,
                             e["train_acc"] - a, a)
              for e, v, a in zip(entries, values, accs)]
    psis = []
    for axis in sorted(entries[0]["hyperparams"]):
        try:
            psis.append(granulated_kendall(models, axis,
                                           target="test_accuracy").psi)
        except UndefinedMetricError:  # no group varies this axis
            pass
    assert workloads.granulated_oracle(entries, values, accs) == \
        pytest.approx(mean_granulated(psis), abs=1e-12)


def test_self_time_on_a_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["a.1", 1.5, 2.0, 1, 0, None],
        ["a.2", 3.0, 3.5, 1, 0, None],
        ["b", 5.0, 9.0, 0, 0, None],
        ["b.1", 4.5, 6.0, 4, 0, None],  # starts before its parent: clipped
        ["b.2", 5.5, 7.0, 4, 0, None],  # overlaps b.1: counted once
        ["leaf", 9.5, 9.75, 0, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 4.0 - 0.25, 3.0 - 1.0, 0.5, 0.5, 4.0 - 2.0, 1.5, 1.5,
         0.25])


def test_tracer_records_nesting_and_restores_functions():
    tracer = tracing.Tracer(clock=iter(range(100)).__next__)

    def inner(x):
        return x + 1

    outer_inner = tracer.wrap("nnet.inner", inner)

    def outer(x):
        return outer_inner(x) * 2

    traced = tracer.wrap("margin.outer", outer)
    assert traced(1) == 4 and tracer.spans == []  # no op: not recorded
    tracer.op = 5
    assert traced(1) == 4
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("margin.outer", -1, 5), ("nnet.inner", 0, 5)]
    import marginlab
    original = marginlab.cli.main
    wrapped = tracer.install(marginlab)
    assert "marginlab.cli.main" in wrapped
    assert "marginlab.margin.logit_diffs_all_batch" in wrapped
    assert marginlab.cli.main is not original
    tracer.uninstall()
    assert marginlab.cli.main is original


def _all_metric_names():
    op_units = run.op_metric_units(tracing.ESTIMATORS,
                                   workloads.EVALUATE_METRICS)
    per_layer = tracing.LAYER_METRICS + [("trace.overhead_ratio", "ratio")] \
        + op_units
    return run.END_TO_END, per_layer


def test_metric_names_are_valid_and_match_benchmark_json():
    end_to_end, per_layer = _all_metric_names()
    names = [n for n, _ in end_to_end + per_layer]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert len(names) == len(set(names))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == end_to_end
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_same_seed_writes_identical_inputs(name, tmp_path):
    built = {}
    for label, seed in (("a", 11), ("b", 11), ("c", 12)):
        d = tmp_path / label
        d.mkdir()
        w = workloads.SETUPS[name](d, seed)
        built[label] = [p.read_bytes() for p in w.inputs]
    assert built["a"] == built["b"]
    assert built["a"] != built["c"]
