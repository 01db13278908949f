"""fraclap benchmark: one workload per process, closed loop, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload routes --seed 1 --seconds 20 --trace 0

Workloads: ``routes`` and ``spectral-cli`` (see ``workloads.py`` and
``BENCHMARK.json`` for why each exists).  A routes job has a 1D and a 2D
part; their job times, throughput and accuracy are also printed apart, as
``routes-1d.*`` and ``routes-2d.*``.  The library is imported from ``src/``
of the same checkout and nowhere else.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs every job twice in a row, plain and with span wrappers
around the library's entry points (``spans.py``), alternating which goes
first.  It reports per-layer self times and counts per job, the tracing
overhead (traced minus untraced median job time) and whether the layer self
times add up to the traced median job time within that overhead.

Human-readable lines, the seed and an environment record come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (job times,
set-up samples, failures and, when traced, every span) is written to
``perfbench/out/``.  BLAS threads are set to the number of usable cores
before numpy is imported, whatever the caller's environment asks for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("routes", "spectral-cli")
SETUP_SAMPLES = 3        # cold set-ups per untraced run: this process plus two children
TRACE_MIN_JOBS = 3       # pairs of untraced and traced jobs in a traced run
TAIL_BEYOND = 10         # job_s.tail: highest percentile with this many samples beyond it
SMOKE_JOBS = 2           # measured jobs of a smoke run; with the warm-up, one spectral round
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    threads = len(os.sched_getaffinity(0))
    for var in _BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def import_library():
    """Import fraclap from this checkout's src/ and the workload definitions."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fraclap
    if Path(fraclap.__file__).resolve().parent != (src / "fraclap").resolve():
        raise ImportError(f"fraclap was imported from {fraclap.__file__}, not from {src}")
    import workloads
    return workloads


def cold_setup(name, seed, workdir, tracer=None):
    """Import, build grids, fields and boundary data, and run the warm-up job."""
    t0 = time.perf_counter()
    workloads = import_library()
    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[name](seed, workdir)
    job = wl.make_job(0)
    out = wl.run(job)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.job = "check"
    return wl, setup_s, wl.check(job, out)


def setup_probe(name, seed):
    """Cold set-up in a child process; returns its set-up seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, seconds, min_jobs, tracer=None):
    """Closed loop from job 1 for ``seconds``.

    Untraced, returns the job times and the checked items of each job.  With
    a tracer, every job runs twice in a row on the same inputs, once plain
    and once with the wrappers, alternating which goes first, so the two
    medians compare the same jobs at the same moment; returns (untraced
    times, traced times, items).
    """
    traced_run = None if tracer is None else tracer.wrap("bench.job", wl.run)
    plain, traced, items = [], [], []
    start = time.perf_counter()
    k = 1
    while True:
        job = wl.make_job(k)
        turns = (False,) if tracer is None else ((False, True) if k % 2 else (True, False))
        for with_spans in turns:
            if with_spans:
                tracer.install()
                tracer.job = k
            t0 = time.perf_counter()
            out = traced_run(job) if with_spans else wl.run(job)
            (traced if with_spans else plain).append(time.perf_counter() - t0)
            if with_spans:
                tracer.uninstall()
                tracer.job = "check"
                if hasattr(wl, "bytes_written"):
                    tracer.counts[(k, "cli.bytes_written")] += wl.bytes_written(job)
            items.append(wl.check(job, out))
        if k >= min_jobs and time.perf_counter() - start >= seconds:
            return (plain, items) if tracer is None else (plain, traced, items)
        k += 1


def tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it, that percentile and n.

    Runs too short for that (smoke runs) fall back to the upper median.
    """
    ordered = sorted(times)
    n = len(ordered)
    idx = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def _max(values):
    """Largest finite value, 0 when there is none (failed items are counted apart)."""
    return max((v for v in values if math.isfinite(v)), default=0.0)


def git_commit():
    """Commit of the checkout when it is a git work tree (read from .git only)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(threads):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f'{blas.get("name", "unknown")} {blas.get("version", "")}'.strip(),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def worst_gaps(items):
    """Worst gated oracle gap of every (job, part, point) that has one.

    A routes point gathers every field, order and route evaluated there.  In
    spectral-cli every solution vector is its own point: each of a diffusion's
    time slices, and an applied power.  ``matpow --check`` has no gated
    solution, so it has none.
    """
    worst = {}
    for k, job in enumerate(items):
        for it in job:
            if it.gated and it.solution:
                key = (k, it.part, it.point)
                worst[key] = max(worst.get(key, 0.0), it.rel_err if math.isfinite(it.rel_err)
                                 else 0.0)
    return worst


def job_figures(times, items, accuracy_jobs):
    """Throughput, job times and accuracy of one run, or of one part of its jobs."""
    solutions = sum(it.solution for job in items for it in job)
    point_worst = list(worst_gaps(items[:accuracy_jobs]).values())
    t_tail, pct, n = tail(times)
    checked = [it for job in items for it in job]
    return {
        "items_per_s": (solutions / sum(times), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (t_tail, "s"),
        "max_rel_err.p50": (statistics.median(point_worst), "ratio"),
        "max_rel_err": (max(point_worst), "ratio"),
        "fail_ratio": (sum(not it.ok for it in checked) / len(checked), "ratio"),
        "job_s.tail.percentile": (pct, "%"),
        "job_s.samples": (n, "count"),
    }


def end_to_end(wl, times, items, setup_samples, warm_items):
    checked = [it for job in items for it in job] + warm_items
    failed = sum(not it.ok for it in checked)
    figures = job_figures(times, items, wl.accuracy_jobs)
    metrics = {name: figures[name] for name in ("items_per_s", "job_s.p50", "job_s.tail")}
    metrics.update({
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "max_rel_err.p50": figures["max_rel_err.p50"],
    })
    sampled = [it.rel_err for job in items[:wl.accuracy_jobs] for it in job if not it.gated]
    extra = {
        "fail_ratio": (failed / len(checked), "ratio"),
        "max_rel_err": figures["max_rel_err"],
        "sampled_rel_err": (_max(sampled), "ratio"),
        "job_s.tail.percentile": figures["job_s.tail.percentile"],
        "job_s.samples": figures["job_s.samples"],
        "setup_s.samples": (len(setup_samples), "count"),
        "accuracy_jobs": (min(wl.accuracy_jobs, len(items)), "count"),
    }
    # the parts of a routes job, each with its own times, items and accuracy
    part_times = getattr(wl, "part_times", [])[-len(times):]
    for i, part in enumerate(getattr(wl, "parts", ())):
        part_items = [[it for it in job if it.part == part.name] for job in items]
        for name, value in job_figures([t[i] for t in part_times], part_items,
                                       wl.accuracy_jobs).items():
            extra[f"{part.name}.{name}"] = value
    return metrics, extra, len(checked), failed


def per_layer(tracer, untraced_times, traced_times, items):
    """Per-job means over the traced jobs; domain.boundary_s adds the set-up."""
    jobs = set(range(1, len(traced_times) + 1))
    n = len(jobs)
    self_s = tracer.self_times()
    layer, job_sums = {}, dict.fromkeys(jobs, 0.0)
    for (job, name), sec in self_s.items():
        if job in jobs:
            layer[name] = layer.get(name, 0.0) + sec / n
            if name != "bench.job":
                job_sums[job] += sec
    counts = {}
    for (job, name), val in tracer.counts.items():
        if job in jobs:
            counts[name] = counts.get(name, 0.0) + val / n
    routes = ("restated", "hyper", "new", "augmented", "augmented-asprinted")
    restated_items = sum(it.route == "restated" for job in items for it in job) / len(items)
    metrics = {
        "quadrature.rule_s": (layer.get("quadrature.rule", 0.0), "s"),
        "quadrature.rules": (counts.get("quadrature.rules", 0.0), "count"),
        "quadrature.nodes": (counts.get("quadrature.nodes", 0.0), "count"),
        "quadrature.kernel_sum_s": (layer.get("quadrature.kernel_sum", 0.0), "s"),
        "domain.field_s": (layer.get("domain.field", 0.0), "s"),
        "domain.field_nodes": (counts.get("domain.field_nodes", 0.0), "count"),
        "domain.boundary_s": (self_s.get(("setup", "domain.boundary"), 0.0)
                              + layer.get("domain.boundary", 0.0), "s"),
        "domain.sampled_rel_err": (_max(it.rel_err for job in items for it in job
                                        if not it.gated), "ratio"),
        "riesz.potential_s": (layer.get("riesz.potential", 0.0), "s"),
        "riesz.potentials_per_item": (counts.get("riesz.potentials", 0.0) / restated_items
                                      if restated_items else 0.0, "count"),
        **{f"operators.route_s.{r}": (layer.get(f"operators.route.{r}", 0.0), "s")
           for r in routes},
        "operators.surface_s": (layer.get("operators.surface", 0.0), "s"),
        "special.calls": (counts.get("special.calls", 0.0), "count"),
        **{f"discrete.{k}_s": (layer.get(f"discrete.{k}", 0.0), "s")
           for k in ("assemble", "eig", "power", "apply", "modal", "load")},
        "discrete.dense_bytes": (counts.get("discrete.dense_bytes", 0.0), "B"),
        "cli.self_s": (layer.get("cli.main", 0.0), "s"),
        "cli.bytes_written": (counts.get("cli.bytes_written", 0.0), "B"),
        "bench.self_s": (layer.get("bench.job", 0.0), "s"),
    }
    traced_p50 = statistics.median(traced_times)
    overhead = traced_p50 - statistics.median(untraced_times)
    layer_sum = statistics.median(job_sums.values())
    metrics.update({
        "trace.job_s.p50": (traced_p50, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.layer_sum_s.p50": (layer_sum, "s"),
    })
    adds_up = abs(layer_sum - traced_p50) <= abs(overhead)
    return metrics, adds_up


def _fmt(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time one cold set-up and print it (used by the parent run)")
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up and the fewest jobs: a quick self-test, not a measurement")
    args = ap.parse_args(argv)
    threads = pin_blas_threads()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return _run(args, workdir, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir, threads):
    if args.setup_probe:
        _, setup_s, _ = cold_setup(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    try:
        wl, setup_s, warm_items = cold_setup(args.workload, args.seed, workdir, tracer)
    except ImportError as exc:
        print(f"cannot import the library from this checkout: {exc}", file=sys.stderr)
        return 2
    env = environment(threads)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    if not args.trace:
        samples = [setup_s]
        if not args.smoke:
            samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        min_jobs = SMOKE_JOBS if args.smoke else max(wl.accuracy_jobs, TAIL_BEYOND + 1)
        times, items = measure(wl, args.seconds, min_jobs)
        metrics, extra, attempted, failed = end_to_end(wl, times, items, samples, warm_items)
        record.update(job_times=times, setup_samples=samples)
        shown = {**metrics, **extra}
    else:
        tracer.uninstall()
        untraced, traced, items = measure(wl, args.seconds,
                                          SMOKE_JOBS if args.smoke else TRACE_MIN_JOBS,
                                          tracer)
        metrics, adds_up = per_layer(tracer, untraced, traced, items)
        checked = [it for job in items for it in job] + warm_items
        attempted, failed = len(checked), sum(not it.ok for it in checked)
        record.update(untraced_job_times=untraced, traced_job_times=traced,
                      layer_sum_within_overhead=adds_up,
                      span_fields=["name", "start_ns", "end_ns", "parent", "job"],
                      spans=tracer.spans)
        shown = dict(metrics)
        shown["fail_ratio"] = (failed / attempted, "ratio")

    failures = [vars(it) for job in items for it in job if not it.ok][:20]
    record.update(metrics=_fmt(shown), attempted=attempted, failed=failed, failures=failures)
    for name, (value, unit) in shown.items():
        label = " (computed from array shapes)" if name == "discrete.dense_bytes" else ""
        print(f"{args.workload:<13} {name:<32} {value:.6g} {unit}{label}")
    if args.trace:
        print(f"{args.workload:<13} layer self times add up to the traced job_s.p50 within "
              f"the tracing overhead: {'yes' if adds_up else 'no'}")
    for it in failures:
        print(f"FAILED {it}")
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": _fmt(metrics)}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
