"""In-memory span recorder that wraps fraclap's public entry points from outside.

Nothing in the library is edited: ``Tracer.install`` rebinds module and class
attributes to timing wrappers and ``Tracer.uninstall`` puts the originals
back.  A span is ``(name, start_ns, end_ns, parent_index, job)``.  A layer's
self time is a span's duration minus the durations of its direct children,
so the self times of one job add up to the job's root span exactly.

Work counts (rule nodes, field points, dense bytes, ...) are booked only on
the outermost span of a name, so a wrapped function that calls itself
through another wrapped entry point is not counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _dense_bytes(out):
    """Bytes of the dense arrays a discrete function returned (computed from shapes)."""
    if hasattr(out, "nbytes"):
        return int(out.nbytes)
    if hasattr(out, "eigenvectors"):
        return int(out.eigenvalues.nbytes + out.eigenvectors.nbytes)
    if isinstance(out, list):
        return sum(_dense_bytes(o) for o in out)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = "setup"
        self.counts = defaultdict(float)   # (job, counter name) -> value
        self._undo = []

    # -- recording ---------------------------------------------------------

    def count(self, name, value=1):
        self.counts[(self.job, name)] += value

    def _outermost(self, name):
        return not self.stack or self.spans[self.stack[-1]][0] != name

    def wrap(self, name, fn, work=None):
        """Return ``fn`` timed as span ``name``; ``work(out, args)`` books counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            outermost = self._outermost(name)
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if work is not None and outermost:
                work(out, args)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Return ``fn`` counting its calls under ``name`` (no span)."""
        def wrapper(*args, **kwargs):
            self.counts[(self.job, name)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Replace every fraclap module binding of ``original``."""
        for modname, mod in list(sys.modules.items()):
            if modname == "fraclap" or modname.startswith("fraclap."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, attr, replacement)

    def _wrap_method(self, cls, attr, name, work=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, work)))
        else:
            self._set(cls, attr, self.wrap(name, raw, work))

    def install(self):
        from fraclap import cli, discrete, domain, operators, quadrature, riesz, special

        # quadrature
        self._wrap_method(riesz.RuleParams, "build", "quadrature.rule",
                          lambda rule, a: (self.count("quadrature.rules"),
                                           self.count("quadrature.nodes", len(rule.weights))))
        self._wrap_method(quadrature.GradedPanels, "integrate_kernel", "quadrature.kernel_sum")

        # domain: boundary data and the field adapters the routes build from
        # the field the benchmark hands in
        self._rebind(domain.boundary_quadrature,
                     self.wrap("domain.boundary", domain.boundary_quadrature))
        self._wrap_method(domain.BoundaryData, "from_function", "domain.boundary")
        build_adapter = self.wrap("domain.field", operators.FracLapRequest.fld)

        def fld(req):
            return self._wrap_field_adapter(build_adapter(req))
        self._set(operators.FracLapRequest, "fld", fld)
        build_field = self.wrap("domain.field", riesz.PotentialRequest.field_values)

        def field_values(req):
            return self.wrap("domain.field", build_field(req), self._count_points)
        self._set(riesz.PotentialRequest, "field_values", field_values)

        # riesz
        self._rebind(riesz.riesz_potential_point,
                     self.wrap("riesz.potential", riesz.riesz_potential_point,
                               lambda out, a: self.count("riesz.potentials")))

        # operators: evaluate dispatches through a private table, so the
        # route span is taken around evaluate and named by the definition
        orig_evaluate = operators.evaluate
        route_wrappers = {}

        def evaluate(req):
            fn = route_wrappers.get(req.definition)
            if fn is None:
                fn = route_wrappers[req.definition] = self.wrap(
                    "operators.route." + req.definition.value, orig_evaluate)
            return fn(req)
        self._rebind(orig_evaluate, evaluate)
        self._rebind(operators.surface_integral,
                     self.wrap("operators.surface", operators.surface_integral))

        # special: calls are far below timer resolution, so count them only
        for fname in ("gamma_ln", "gamma_value", "riesz_constant", "h_constant",
                      "radial_laplacian"):
            self._rebind(getattr(special, fname),
                         self.counter("special.calls", getattr(special, fname)))
        self._set(special.FractionalOrder, "check_pole",
                  self.counter("special.calls", special.FractionalOrder.check_pole))

        # discrete: cli looks these up through the module attribute
        def dense(out, args):
            self.count("discrete.dense_bytes", _dense_bytes(out))

        for fname, span in (("assemble_laplacian_1d", "discrete.assemble"),
                            ("assemble_laplacian_2d", "discrete.assemble"),
                            ("sym_eigendecompose", "discrete.eig"),
                            ("matrix_fractional_power", "discrete.power"),
                            ("apply_fraclap_discrete", "discrete.apply"),
                            ("modal_diffusion_solve", "discrete.modal"),
                            ("load_matrix_csv", "discrete.load")):
            orig = getattr(discrete, fname)
            self._rebind(orig, self.wrap(span, orig, dense))

        self._rebind(cli.main, self.wrap("cli.main", cli.main))

    def _count_points(self, out, args):
        self.count("domain.field_nodes", len(args[0]))

    def _wrap_field_adapter(self, fld):
        """Time every evaluation made through a route's field adapter."""
        for attr in ("value", "laplacian"):
            setattr(fld, attr, self.wrap("domain.field", getattr(fld, attr), self._count_points))
        for attr in ("gradient_at", "hessian_at"):
            setattr(fld, attr, self.wrap("domain.field", getattr(fld, attr),
                                         lambda out, a: self.count("domain.field_nodes")))
        return fld

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Total self seconds per (job, span name)."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, job in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, parent, job) in enumerate(self.spans):
            out[(job, name)] += (t1 - t0 - child[i]) * 1e-9
        return out
