"""The library entry points that the benchmark's span recorder wraps are still there.

``perfbench/spans.py`` rebinds named functions and methods of the library to
timing wrappers.  This runs a small traced job through each layer and checks
that every span the benchmark reports was recorded, so that a rename in the
library shows in the ordinary test run and not only in the benchmark.
"""

import sys
from pathlib import Path

from fraclap import cli, domain, operators
from fraclap.domain import TestFunction, make_interval_grid, make_rectangle_grid
from fraclap.operators import Definition, FracLapRequest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402  (perfbench/ is a directory of scripts, not a package)

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
