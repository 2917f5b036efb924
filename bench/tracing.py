"""Outside-in tracing: spans around the calls between marginlab's layers.

The traced run replaces module attributes through which one layer calls
another with thin wrappers that record a span per call. Nothing under
``src/`` changes, and untraced runs never see a wrapper: ``install`` swaps
the attributes in, ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, op, info]``. ``parent`` indexes the
enclosing span (-1 for a root), ``op`` is the benchmark operation the span
belongs to, and ``info`` holds whatever the call's counter needs (the
result of an estimator, the rows of a gradient query, ...). Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import inspect
import time

# the modules under src/marginlab that count as layers
LAYERS = ("cli", "data", "nnet", "margin", "pca", "advdir", "metrics")


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return int(shape[0]) if len(shape) > 1 else 1


# per-span counters, taken from a call's arguments or result after the span
# has ended; keep them cheap, they run inside the caller's span
_INFO = {
    "nnet.logit_diffs_all_batch": lambda a, kw, r: _rows(a[2]),
    "nnet.train_sgd": lambda a, kw, r: a[2].epochs * a[1].sample_count,
    "data.max_margin": lambda a, kw, r: len(r),
    "advdir.adv_directions": lambda a, kw, r: _rows(a[1]),
    "metrics.kendall_tau": lambda a, kw, r: len(a[0]) * (len(a[0]) - 1),
    "margin.taylor_margin": lambda a, kw, r: r,
    "margin.deepfool_margin": lambda a, kw, r: r,
    "margin.deepfool_margin_batch": lambda a, kw, r: r,
    "margin.constrained_taylor_margin": lambda a, kw, r: r,
    "margin.constrained_deepfool_margin": lambda a, kw, r: r,
}


class Tracer:
    """Records spans while an operation id is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        info = _INFO.get(name)
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            spans = self.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = clock()
                rec[5] = ("raised", type(exc).__name__)
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list[list]:
        """The spans recorded so far; recording continues in a new list."""
        spans, self.spans = self.spans, []
        return spans

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one operation."""
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = self.clock()
        try:
            yield rec
        finally:
            rec[2] = self.clock()
            stack.pop()

    def install(self, marginlab) -> list[str]:
        """Wrap the inter-layer call sites; returns the attributes wrapped.

        ``marginlab.cli`` gets a wrapper for ``main`` and for every layer
        function it imports. Inside the library, the margin estimators reach
        ``nnet`` through ``marginlab.margin`` and the granulated metric
        reaches ``kendall_tau`` through ``marginlab.metrics``. The two
        library functions the benchmark calls itself are wrapped in
        ``marginlab.metrics``.
        """
        cli = marginlab.cli
        sites = [(cli, "main", "cli.main")]
        for attr, obj in sorted(vars(cli).items()):
            if not inspect.isfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if obj.__module__.startswith("marginlab.") and layer in LAYERS \
                    and layer != "cli":
                sites.append((cli, attr, f"{layer}.{obj.__name__}"))
        sites += [
            (marginlab.margin, "logit_diffs_all_batch",
             "nnet.logit_diffs_all_batch"),
            (marginlab.margin, "forward_batch", "nnet.forward_batch"),
            (marginlab.metrics, "kendall_tau", "metrics.kendall_tau"),
            (marginlab.metrics, "extract_signature",
             "metrics.extract_signature"),
            (marginlab.metrics, "cross_validate_predictor",
             "metrics.cross_validate_predictor"),
        ]
        for module, attr, name in sites:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return [f"{m.__name__}.{a}" for m, a, _ in self._patched]

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Children are clipped to their parent's interval and merged, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# layer metrics

ESTIMATORS = ("taylor", "deepfool", "deepfool_batch", "constrained_taylor",
              "constrained_deepfool", "deepfool_layer1")
_FN_ESTIMATOR = {
    "margin.taylor_margin": "taylor",
    "margin.deepfool_margin": "deepfool",
    "margin.deepfool_margin_batch": "deepfool_batch",
    "margin.constrained_taylor_margin": "constrained_taylor",
    "margin.constrained_deepfool_margin": "constrained_deepfool",
}
_DEGENERATE_ERRORS = ("DegenerateGradientError", "UnreachableSubspaceError")

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("cli.main.calls", "count"), ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("data.load_dataset.self_s", "s"), ("data.load_dataset.calls", "count"),
    ("data.max_margin.self_s", "s"), ("data.max_margin.rows", "count"),
    ("data.gen_blobs.self_s", "s"), ("data.corrupt_labels.self_s", "s"),
    ("data.normalize.self_s", "s"),
    ("nnet.train_sgd.self_s", "s"), ("nnet.train_sgd.calls", "count"),
    ("nnet.train_sgd.sample_steps", "count"),
    ("nnet.train_sgd.sample_steps_per_s", "1/s"),
    ("nnet.init_network.self_s", "s"), ("nnet.predict_batch.self_s", "s"),
    ("nnet.accuracy.self_s", "s"), ("nnet.forward_batch.self_s", "s"),
    ("nnet.load_model.self_s", "s"),
    ("nnet.logit_diffs_all_batch.self_s", "s"),
    ("nnet.logit_diffs_all_batch.calls", "count"),
    ("nnet.logit_diffs_all_batch.rows", "count"),
    ("nnet.logit_diffs_all_batch.calls_per_margin", "ratio"),
    ("nnet.logit_diffs_all_batch.rows_per_margin", "ratio"),
    *[(f"margin.{e}.{m}", u) for e in ESTIMATORS
      for m, u in (("self_s", "s"), ("calls", "count"), ("steps", "count"),
                   ("max_iters_share", "ratio"),
                   ("degenerate_share", "ratio"))],
    ("margin.deepfool_batch.useful_row_ratio", "ratio"),
    ("margin.constrained_deepfool.left_subspace", "count"),
    ("margin.compute_total_variation.self_s", "s"),
    ("pca.fit_pca.self_s", "s"), ("pca.select_components_kneedle.self_s", "s"),
    ("pca.load_pca.self_s", "s"),
    ("advdir.adv_directions.self_s", "s"),
    ("advdir.cumulative_share.self_s", "s"), ("advdir.rows", "count"),
    ("metrics.kendall_tau.self_s", "s"), ("metrics.kendall_tau.calls", "count"),
    ("metrics.kendall_tau.pairs", "count"),
    ("metrics.granulated_kendall.self_s", "s"),
    ("metrics.cmi_score.self_s", "s"),
    ("metrics.extract_signature.self_s", "s"),
    ("metrics.extract_signature.calls", "count"),
    ("metrics.cross_validate_predictor.self_s", "s"),
]


def _estimator_rows(info):
    """(rows, steps, max_iters, degenerate, left_subspace) of one call."""
    if isinstance(info, tuple):  # ("raised", error name)
        return 1, 0, 0, int(info[1] in _DEGENERATE_ERRORS), 0
    results = info if isinstance(info, list) else [info]
    steps = max_iters = degenerate = left = 0
    for r in results:
        status = getattr(r.status, "value", r.status)
        steps += r.steps
        max_iters += status == "max-iters"
        degenerate += status == "no-descent"
        left += bool(r.left_subspace)
    return len(results), steps, max_iters, degenerate, left


def layer_metrics(spans: list[list], op_kinds: dict[int, str],
                  output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``op_kinds`` maps each op id to its kind; a margin estimator span is
    attributed to the measure op it ran under, or by its function name
    when it ran inside another op (the sweep's batched search).
    """
    selfs = self_times(spans)
    fn_self: dict[str, float] = {}
    fn_total: dict[str, float] = {}
    fn_calls: dict[str, int] = {}
    fn_count: dict[str, int] = {}
    est = {e: [0.0, 0, 0, 0, 0, 0, 0] for e in ESTIMATORS}
    est_of_span: dict[int, str] = {}
    batch_rows = 0
    for idx, (name, start, end, parent, op, info) in enumerate(spans):
        fn_self[name] = fn_self.get(name, 0.0) + selfs[idx]
        fn_total[name] = fn_total.get(name, 0.0) + (end - start)
        fn_calls[name] = fn_calls.get(name, 0) + 1
        if isinstance(info, int):
            fn_count[name] = fn_count.get(name, 0) + info
        if name in _FN_ESTIMATOR:
            kind = op_kinds.get(op)
            e = kind if kind in ESTIMATORS else _FN_ESTIMATOR[name]
            est_of_span[idx] = e
            stats = est[e]
            stats[0] += selfs[idx]
            stats[1] += 1
            for k, v in enumerate(_estimator_rows(info), start=2):
                stats[k] += v
        elif (name == "nnet.logit_diffs_all_batch" and isinstance(info, int)
              and est_of_span.get(parent) == "deepfool_batch"):
            batch_rows += info

    def share(a, b):
        return a / b if b else 0.0

    margins = sum(stats[2] for stats in est.values())
    ldab = "nnet.logit_diffs_all_batch"
    out = {
        "cli.main.calls": fn_calls.get("cli.main", 0),
        "cli.self_s": fn_self.get("cli.main", 0.0),
        "cli.output_bytes": output_bytes,
        "nnet.train_sgd.sample_steps": fn_count.get("nnet.train_sgd", 0),
        "nnet.train_sgd.sample_steps_per_s": share(
            fn_count.get("nnet.train_sgd", 0),
            fn_total.get("nnet.train_sgd", 0.0)),
        "nnet.logit_diffs_all_batch.rows": fn_count.get(ldab, 0),
        f"{ldab}.calls_per_margin": share(fn_calls.get(ldab, 0), margins),
        f"{ldab}.rows_per_margin": share(fn_count.get(ldab, 0), margins),
        "data.max_margin.rows": fn_count.get("data.max_margin", 0),
        "advdir.rows": fn_count.get("advdir.adv_directions", 0),
        "metrics.kendall_tau.pairs": fn_count.get("metrics.kendall_tau", 0),
        "margin.deepfool_batch.useful_row_ratio": share(
            est["deepfool_batch"][3], batch_rows),
        "margin.constrained_deepfool.left_subspace":
            est["constrained_deepfool"][6],
    }
    for e, (self_s, calls, rows, steps, max_iters, degen, _) in est.items():
        out[f"margin.{e}.self_s"] = self_s
        out[f"margin.{e}.calls"] = calls
        out[f"margin.{e}.steps"] = steps
        out[f"margin.{e}.max_iters_share"] = share(max_iters, rows)
        out[f"margin.{e}.degenerate_share"] = share(degen, rows)
    for name, _ in LAYER_METRICS:
        if name in out:
            continue
        fn, _, stat = name.rpartition(".")
        out[name] = fn_self.get(fn, 0.0) if stat == "self_s" \
            else fn_calls.get(fn, 0)
    return out
