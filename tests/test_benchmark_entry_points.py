"""The library entry points that the benchmark's span recorder wraps are still there.

``perfbench/spans.py`` rebinds named functions and methods of the library to
timing wrappers.  This runs a small traced job through each layer, and three
traced jobs of each benchmark workload, and checks that every span and counter
the benchmark reports was recorded, so that a rename in the library, or a
layer no longer called through its bound name, shows in the ordinary test run
and not only as a zero per-layer figure of the benchmark.
"""

import sys
from pathlib import Path

import pytest

from fraclap import cli, domain, operators
from fraclap.domain import TestFunction, make_interval_grid, make_rectangle_grid
from fraclap.operators import Definition, FracLapRequest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402  (perfbench/ is a directory of scripts, not a package)
import workloads  # noqa: E402

SPANS = {"quadrature.rule", "domain.field", "domain.boundary", "operators.surface",
         "riesz.potential", "cli.main"}


def test_traced_job_records_every_layer():
    original = operators.evaluate
    tracer = spans.Tracer()
    tracer.install()
    try:
        for grid, points in ((make_interval_grid(0.0, 1.0, 11), [0.4, 0.6]),
                             (make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 9), [[0.5, 0.5]])):
            f = TestFunction.gaussian_bump([0.45] * grid.dim, 0.2)
            boundary = domain.BoundaryData.from_function(domain.boundary_quadrature(grid), f)
            for dfn in (Definition.AUGMENTED, Definition.RESTATED):
                req = FracLapRequest(grid=grid, phi=f, s=0.75, eval_points=points,
                                     definition=dfn, boundary=boundary)
                assert len(operators.evaluate(req)) == len(points)
        assert cli.main(["matpow", "--assemble", "1d:10,1", "--s", "1",
                         "--check", "semigroup"]) == 0
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert SPANS <= recorded, SPANS - recorded
    assert {"operators.route.augmented", "operators.route.restated"} <= recorded
    assert operators.evaluate is original


def _traced_jobs(name, workdir, jobs=3):
    """Spans and per-job counters of the first ``jobs`` jobs of a workload at seed 1."""
    wl = workloads.WORKLOADS[name](1, workdir)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for k in range(jobs):
            tracer.job = k
            wl.run(wl.make_job(k))
    finally:
        tracer.uninstall()
    counts = {}
    for (job, counter), value in tracer.counts.items():
        counts[counter] = counts.get(counter, 0.0) + value
    return {span[0] for span in tracer.spans}, counts


@pytest.mark.parametrize("name, want_spans, want_counts", [
    ("routes",
     {"quadrature.rule", "quadrature.kernel_sum", "domain.field", "riesz.potential",
      "operators.surface"} | {"operators.route." + d.value for d in Definition},
     {"quadrature.rules", "quadrature.nodes", "domain.field_nodes", "riesz.potentials",
      "special.calls"}),
    ("spectral-cli", {"cli.main", "discrete.modal", "discrete.apply", "discrete.load"}, set()),
])
def test_workload_jobs_record_every_layer(name, want_spans, want_counts, tmp_path):
    recorded, counts = _traced_jobs(name, tmp_path)
    assert want_spans <= recorded, want_spans - recorded
    assert all(counts.get(c, 0.0) > 0.0 for c in want_counts), {c: counts.get(c)
                                                                 for c in want_counts}
