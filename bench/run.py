"""marginlab benchmark: closed-loop workloads over the ``mw`` CLI.

Run from the repository root:

    python3 bench/run.py --workload {measure,rank,sweep} --seed N \\
        --seconds S --trace {0,1}

``BENCHMARK.json`` names ``measure`` and ``rank``; ``sweep`` runs by hand
(see bench/README.md). The program under test is imported from ``src/`` of
the checkout this file sits in. Set-up writes the workload's inputs from
``--seed`` (five times, timing each), then whole iterations of the
workload's operations run, one after another, until ``--seconds`` have
passed. Every output is checked outside the timed region.

Reported times are calibrated. A fixed reference kernel runs before every
timed operation (and set-up repeat) and after the last one, and each time
is scaled by ``REFERENCE_S`` divided by the mean of the two kernel times
around it. Interference from other tenants slows the kernel and the
workload alike, so the scaling removes most of the machine's speed swings.
Raw times are printed beside the calibrated ones and kept in the run
record.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` untraced and traced iterations alternate: the traced ones
give the per-layer metrics and the trace overhead, the untraced ones the
per-operation timings. Human-readable lines come first; the last line of
stdout is one JSON object. A run record (and, for traced runs, the spans)
is written under ``.bench_out/`` in the checkout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
MIN_ITERATIONS = {0: 3, 1: 2}
# the reference kernel's time on the baseline machine when it is quiet
REFERENCE_S = 0.05

# (name, unit) of the end-to-end metrics, reported by every untraced run
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("iteration_s_p50", "s"),
]


def op_metric_units(estimators, evaluate_metrics):
    """(name, unit) of the per-operation metrics; each belongs to one
    workload and reads 0 on the others."""
    return ([("sweep_s_p50", "s")]
            + [(f"margins_per_s.{e}", "margins/s") for e in estimators]
            + [("attribution_s_p50", "s")]
            + [(f"evaluate_s_p50.{m}", "s") for m in evaluate_metrics]
            + [("predictor_s_p50", "s"), ("failed_op_ratio", "ratio")])


def _sign(x):
    return (x > 0) - (x < 0)


_PAIRS = [(math.sin(1.7 * k), math.cos(3.1 * k)) for k in range(1000)]


def reference_kernel() -> float:
    """Fixed work in the workloads' mix: an interpreted loop around small
    numpy products, then a pure-Python loop over pairs of floats. It shares
    no code with marginlab."""
    import numpy as np
    a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) / 8.0
    x = np.ones((16, 64))
    acc = 0
    for i in range(700):
        x = np.maximum(x @ a + 0.01, 0.0)
        for j in range(400):
            acc += (i * j) % 7 > 3
    for xa, ya in _PAIRS[:80]:
        for xb, yb in _PAIRS:
            acc += _sign(xa - xb) * _sign(ya - yb)
    return float(x.sum()) + acc


def _probe() -> float:
    t = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t


def _tail(samples):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    if best is None:
        return f"n={n}, no percentile has >=10 samples beyond it"
    value = statistics.quantiles(samples, n=1000, method="inclusive")[
        round(best * 10) - 1]
    return f"n={n}, p{best:g}={value:.6g}"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _configure_threads():
    """Set the BLAS thread count and clear MW_THREADS, before numpy loads.

    BLAS runs on one thread unless OPENBLAS_NUM_THREADS asks for more, and
    never on more than nproc. The workloads' matrices are small, and a
    second BLAS thread on a shared machine mostly adds jitter.
    """
    os.environ.pop("MW_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", 1))
    except ValueError:
        wanted = 1
    threads = max(1, min(wanted, nproc))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return nproc, threads


def _run_record(args, nproc, threads):
    import numpy as np  # only after _configure_threads has set the env
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "nproc": nproc, "blas_threads": threads,
            "git_commit": _git_commit(), "mw_threads_cleared": True,
            "reference_s": REFERENCE_S}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _repeat(fn, n):
    """Calls ``fn`` (which returns the seconds it measured) ``n`` times with
    the reference kernel timed before each call and after the last.
    Returns the raw times and the calibrated ones."""
    probes, raw = [_probe()], []
    for k in range(n):
        raw.append(fn(k))
        probes.append(_probe())
    return raw, [t * REFERENCE_S / ((a + b) / 2.0)
                 for t, a, b in zip(raw, probes, probes[1:])]


def _import_times(src):
    """Seconds to import marginlab's modules, each time in a fresh
    interpreter, raw and calibrated."""
    code = ("import time; t = time.perf_counter(); "
            "import marginlab.cli, marginlab.metrics; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))

    def once(_):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        return float(proc.stdout)

    return _repeat(once, IMPORT_REPEATS)


def _setup(workloads, name, seed, workdir):
    """Set up SETUP_REPEATS times; returns the first workload, the raw and
    calibrated times, and problems if the repeats did not write
    byte-identical inputs."""
    built = []

    def once(k):
        d = workdir / f"setup{k}"
        d.mkdir()
        t = time.perf_counter()
        built.append(workloads.SETUPS[name](d, seed))
        return time.perf_counter() - t

    raw, calibrated = _repeat(once, SETUP_REPEATS)
    digests = {tuple(_digest(p) for p in w.inputs) for w in built}
    problems = (["set-up inputs differ between repeats"]
                if len(digests) > 1 else [])
    return built[0], raw, calibrated, problems


class Runner:
    """Runs iterations of one workload and keeps per-op results.

    Each entry of ``iterations`` is a dict with ``traced`` and ``ops``,
    one result dict per operation with its raw seconds in ``s``. The
    reference kernel is timed before every operation (``probes``), and
    ``calibrate`` adds each operation's calibrated seconds as ``c``.
    """

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.iterations = []
        self.first_outputs = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.op_kinds = {}
        self.probes = []

    def _timed_call(self, op, op_id, traced):
        """Run one op; returns (output, seconds, problems)."""
        self.tracer.op = op_id if traced else None
        span = (self.tracer.span(f"op.{op.kind}") if traced
                else contextlib.nullcontext())
        with span:
            t = time.perf_counter()
            try:
                code, out = op.call()
                problems = [] if code == 0 else [f"exit code {code}"]
            except Exception:
                out, problems = "", [traceback.format_exc(limit=3)]
            dt = time.perf_counter() - t
        self.tracer.op = None
        return out, dt, problems

    def iteration(self, traced):
        results = []
        for op in self.workload.ops:
            self.probes.append(_probe())
            op_id = self.attempted
            self.attempted += 1
            self.op_kinds[op_id] = op.kind
            out, dt, problems = self._timed_call(op, op_id, traced)
            rows = 0
            if not problems:
                try:
                    problems += op.check(out)
                    rows = op.rows(out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems.append(f"check failed: {exc!r}")
            fingerprint = (out, [_digest(p) for p in op.outputs
                                 if p.is_file()])
            first = self.first_outputs.setdefault(op.kind, fingerprint)
            if fingerprint != first:
                problems.append("output differs from the first iteration")
            if problems:
                self.failed += 1
                self.problems.append({"op": op.kind, "op_id": op_id,
                                      "problems": problems[:5]})
            size = sum(p.stat().st_size for p in op.outputs if p.is_file())
            results.append({"kind": op.kind, "op_id": op_id, "s": dt,
                            "probe": len(self.probes) - 1, "rows": rows,
                            "bytes": size, "ok": not problems})
        self.iterations.append({"traced": traced, "ops": results})

    def calibrate(self):
        """Probe once more, then give every op its calibrated time ``c``:
        its raw time scaled by the probes just before and after it."""
        self.probes.append(_probe())
        for it in self.iterations:
            for r in it["ops"]:
                k = r["probe"]
                r["c"] = r["s"] * REFERENCE_S / (
                    (self.probes[k] + self.probes[k + 1]) / 2.0)


def _median(values):
    return statistics.median(values) if values else 0.0


def _op_samples(iterations, estimators, evaluate_metrics):
    """Calibrated per-operation samples of the given iterations."""
    per_kind = {}
    attribution = []
    for it in iterations:
        for r in it["ops"]:
            per_kind.setdefault(r["kind"], []).append((r["c"], r["rows"]))
        parts = [r["c"] for r in it["ops"]
                 if r["kind"] in ("pca_knee", "advdir")]
        if parts:
            attribution.append(sum(parts))

    def times(kind):
        return [s for s, _ in per_kind.get(kind, [])]

    samples = {"sweep_s_p50": times("sweep"),
               "attribution_s_p50": attribution,
               "predictor_s_p50": times("predictor")}
    for e in estimators:
        samples[f"margins_per_s.{e}"] = [rows / s for s, rows
                                         in per_kind.get(e, [])]
    for m in evaluate_metrics:
        samples[f"evaluate_s_p50.{m}"] = times(f"evaluate_{m}")
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("measure", "rank", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "marginlab" / "__init__.py").is_file():
        print(f"error: no marginlab sources under {src}", file=sys.stderr)
        return 2
    nproc, threads = _configure_threads()
    sys.path.insert(0, str(src))
    import marginlab
    if Path(marginlab.__file__).resolve().parent != src / "marginlab":
        print(f"error: imported marginlab from {marginlab.__file__}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    record = _run_record(args, nproc, threads)
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _measure(args, record, tracing, workloads, marginlab,
                        out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, record, tracing, workloads, marginlab, out_dir, workdir):
    import_s = time.perf_counter() - _T0
    reference_kernel()  # warm-up, untimed
    import_times, import_cal = _import_times(ROOT / "src")
    workload, setup_times, setup_cal, setup_problems = _setup(
        workloads, args.workload, args.seed, workdir)

    tracer = tracing.Tracer()
    runner = Runner(workload, tracer)
    layer_runs = []
    traced_spans = []
    start = time.perf_counter()
    walls = []
    # whole iterations only; stop before one that would end past --seconds
    while (len(walls) < MIN_ITERATIONS[args.trace]
           or time.perf_counter() - start + statistics.median(walls)
           <= args.seconds):
        t_iter = time.perf_counter()
        traced = bool(args.trace) and len(walls) % 2 == 1
        if traced:
            tracer.install(marginlab)
        try:
            runner.iteration(traced)
        finally:
            tracer.uninstall()
        if traced:
            spans = tracer.take()
            traced_spans.append(spans)
            layer_runs.append(tracing.layer_metrics(
                spans, runner.op_kinds,
                sum(r["bytes"] for r in runner.iterations[-1]["ops"])))
        walls.append(time.perf_counter() - t_iter)
    runner.calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, attempted = runner.failed, runner.attempted
    untraced = [it for it in runner.iterations if not it["traced"]]
    op_samples = _op_samples(untraced, tracing.ESTIMATORS,
                             workloads.EVALUATE_METRICS)
    op_values = {k: _median(v) for k, v in op_samples.items()}
    op_values["failed_op_ratio"] = failed / attempted
    op_units = op_metric_units(tracing.ESTIMATORS, workloads.EVALUATE_METRICS)

    def iteration_times(its, key="c"):
        return [sum(r[key] for r in it["ops"]) for it in its]

    iter_times = iteration_times(untraced)
    raw_iter = _median(iteration_times(untraced, "s"))
    probes = runner.probes
    probe_p50 = statistics.median(probes)
    e2e = {"setup_s": (statistics.median(import_cal)
                       + statistics.median(setup_cal)),
           "peak_rss_mb": peak_rss_mb,
           "iteration_s_p50": _median(iter_times)}

    lines = [f"workload={args.workload} seed={args.seed} "
             f"trace={args.trace} iterations={len(runner.iterations)} "
             f"ops={attempted} failed={failed}",
             f"raw: start-up {import_s:.4f} s, imports "
             + ", ".join(f"{t:.4f}" for t in import_times)
             + " s, set-up repeats "
             + ", ".join(f"{t:.4f}" for t in setup_times)
             + f" s, iteration median {raw_iter:.4f} s, reference kernel "
             f"median {probe_p50:.4f} s (calibrated to {REFERENCE_S} s)"]
    if args.trace == 0:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
        info = {"iteration_s_p50": _tail(iter_times)}
    else:
        traced_times = iteration_times(
            [it for it in runner.iterations if it["traced"]])
        layer = {name: _median([run[name] for run in layer_runs])
                 for name, _ in tracing.LAYER_METRICS}
        layer["trace.overhead_ratio"] = (_median(traced_times)
                                         / _median(iter_times))
        layer.update(op_values)
        units = tracing.LAYER_METRICS + [("trace.overhead_ratio", "ratio")] \
            + op_units
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in units}
        info = {}
    for name, m in metrics.items():
        lines.append(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<10} "
                     f"{info.get(name, '')}".rstrip())
    if args.trace == 0:
        lines.append("per-operation metrics (this workload's ops only):")
        for name, unit in op_units:
            tail = _tail(op_samples[name]) if op_samples.get(name) else ""
            if tail or name == "failed_op_ratio":
                lines.append(f"  {name:<46} {op_values[name]:>14.6g} "
                             f"{unit:<10} {tail}".rstrip())
    problems = setup_problems + runner.problems
    for p in problems[:10]:
        lines.append(f"FAILED: {p}")
    print("\n".join(lines))

    record.update({"startup_s": import_s, "import_times_s": import_times,
                   "import_calibrated_s": import_cal,
                   "setup_times_s": setup_times,
                   "setup_calibrated_s": setup_cal,
                   "probes_s": probes, "iterations": runner.iterations,
                   "problems": problems, "metrics": metrics,
                   "op_metrics": op_values})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"record-{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        with open(out_dir / f"spans-{stem}.csv", "w") as fh:
            fh.write("iteration,name,start,end,parent,op\n")
            for k, spans in enumerate(traced_spans):
                for name, s, e, parent, op, _ in spans:
                    fh.write(f"{k},{name},{s!r},{e!r},{parent},{op}\n")

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
