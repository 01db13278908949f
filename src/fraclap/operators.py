"""The four fractional-Laplacian evaluators on a bounded domain.

Routes implemented, all for order s in (0, 2):

* ``restated``       -Lap_x applied to the order-(2-s) Riesz potential of phi,
                      the outer Laplacian taken by central differences.
* ``hypersingular``  -(1/h) times the Hadamard finite part of the
                      r^-(d+s) convolution (1D only as a standalone route).
* ``new``            minus the order-(2-s) Riesz potential of Lap(phi); the
                      weak-singularity route.
* ``augmented``      the new definition rewritten through Green's second
                      identity as a volume finite part plus boundary-trace
                      integrals.  The ``rigorous`` variant carries the surface
                      kernels that actually come out of the identity; the
                      ``as-printed`` variant uses exponent d+s and prefactor
                      1/h on the surface as well, for comparison studies only.

The Hadamard finite part is computed by two-term Taylor subtraction.  The
subtracted monomials have closed-form finite parts (reduced to boundary
fluxes via the divergence theorem); the remaining integrand is weakly
singular.  Nodes in the innermost quadrature cells are excluded (there the
subtracted difference drowns in round-off) and replaced by the analytic
second-order contribution built from the Hessian at the evaluation point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .domain import BoundaryData, FieldAdapter, boundary_quadrature
from .errors import MissingBoundaryData, UnsupportedOperation
from .riesz import PotentialRequest, RuleParams, _nodes_2d, riesz_potential_point
from .special import ConstantMode, FractionalOrder, h_constant, riesz_constant

__all__ = ["Definition", "FracLapRequest", "fraclap_restated", "fraclap_hypersingular",
           "fraclap_new", "fraclap_augmented", "surface_integral", "evaluate"]


class Definition(Enum):
    RESTATED = "restated"
    HYPERSINGULAR = "hyper"
    NEW = "new"
    AUGMENTED = "augmented"
    AUGMENTED_AS_PRINTED = "augmented-asprinted"

    @classmethod
    def parse(cls, name):
        return cls(str(name).lower())


@dataclass(frozen=True)
class FracLapRequest:
    """Evaluation request shared by all four routes."""

    grid: object
    phi: object                       # TestFunction | nodal samples
    s: float
    eval_points: object = None
    mode: ConstantMode = ConstantMode.PAPER
    definition: Definition = Definition.NEW
    boundary: BoundaryData = None
    rule: RuleParams = field(default_factory=RuleParams)
    margin_cells: float = 2.0

    def __post_init__(self):
        order = self.s if isinstance(self.s, FractionalOrder) else FractionalOrder(self.s)
        object.__setattr__(self, "s", order.s)
        order.check_pole(self.grid.dim)
        if self.definition in (Definition.AUGMENTED, Definition.AUGMENTED_AS_PRINTED):
            if self.boundary is None:
                raise MissingBoundaryData(
                    "augmented definitions require boundary data")
            self.boundary.require_full()

    @property
    def delta(self):
        return self.margin_cells * self.grid.spacing

    def check_margin(self, x):
        dist = self.grid.distance_to_boundary(x)
        if dist < self.delta - 1e-12:
            raise ValueError(
                f"evaluation point {x!r} violates the interior margin "
                f"(distance {dist:.3g} < delta {self.delta:.3g})")
        return dist

    def fld(self):
        return FieldAdapter(self.grid, self.phi)

    def bq(self):
        if self.boundary is not None:
            return self.boundary.quadrature
        return boundary_quadrature(self.grid)


# ---------------------------------------------------------------------------
# new definition: potential of the Laplacian

def fraclap_new(req: FracLapRequest, x) -> float:
    req.check_margin(x)
    d, s = req.grid.dim, req.s
    c = riesz_constant(d, 2.0 - s, req.mode)
    rule = req.rule.build(req.grid, x)
    lap = req.fld().laplacian(_nodes_2d(rule))
    return -c * rule.integrate_kernel(-(d - 2.0 + s), lap)


# ---------------------------------------------------------------------------
# restated standard definition: Laplacian of the potential

def fraclap_restated(req: FracLapRequest, x) -> float:
    dist = req.check_margin(x)
    grid = req.grid
    tau = min(dist / 2.0, 1e-3 * grid.diameter)
    pot = PotentialRequest(grid=grid, phi=req.phi, sigma=2.0 - req.s,
                           mode=req.mode, rule=req.rule)
    if grid.dim == 1:
        x = float(np.asarray(x).reshape(()))
        vals = [riesz_potential_point(pot, x + k * tau) for k in (-1, 0, 1)]
        return -(vals[0] - 2.0 * vals[1] + vals[2]) / tau ** 2
    x = np.asarray(x, float).reshape(2)
    center = riesz_potential_point(pot, x)
    acc = -4.0 * center
    for e in (np.array([tau, 0.0]), np.array([-tau, 0.0]),
              np.array([0.0, tau]), np.array([0.0, -tau])):
        acc += riesz_potential_point(pot, x + e)
    return -acc / tau ** 2


# ---------------------------------------------------------------------------
# Hadamard finite part of the r^-(d+s) convolution

def _finite_part_volume(req: FracLapRequest, fld: FieldAdapter, x) -> float:
    """f.p. integral of phi(xi) r^-(d+s) over the domain, x interior."""
    grid, s, d = req.grid, req.s, req.grid.dim
    rule = req.rule.build(grid, x)
    px = fld.value_at(x)
    gx = fld.gradient_at(x)
    # numeric part: two-term Taylor remainder against the weakly singular kernel
    nodes = _nodes_2d(rule)
    xi = np.asarray(x, float).reshape(d)
    rem = fld.value(nodes) - px - (nodes - xi) @ gx
    num = rule.integrate_kernel(-(d + s), rem, skip_core=True)
    if d == 1:
        a, b = grid.a, grid.b
        xf = float(xi[0])
        fp0 = -((xf - a) ** -s + (b - xf) ** -s) / s
        fp1 = ((b - xf) ** (1.0 - s) - (xf - a) ** (1.0 - s)) / (1.0 - s)
        lin = px * fp0 + gx[0] * fp1
        lap_x = fld.laplacian(np.asarray([[xf]]))[0]
        patch = 0.5 * lap_x * sum(h ** (2.0 - s) for h in rule.core_radii_1d) / (2.0 - s)
        return num + lin + patch
    # 2D: subtracted-term finite parts via divergence-theorem boundary fluxes
    bq = req.bq()
    rv = bq.points - xi
    rr = np.hypot(rv[:, 0], rv[:, 1])
    rdotn = np.einsum("ij,ij->i", rv, bq.normals)
    fp0 = -(1.0 / s) * float(np.sum(bq.weights * rr ** (-(2.0 + s)) * rdotn))
    fp1 = -(1.0 / s) * np.sum((bq.weights * rr ** (-s))[:, None] * bq.normals, axis=0)
    H = fld.hessian_at(x)
    u0 = rule.core_scale_2d
    patch = 0.0
    for tri in rule.triangles:
        chc = np.einsum("ij,jk,ik->i", tri.chords, H, tri.chords)
        patch += tri.area * float(np.sum(tri.v_weights * chc * tri.chord_len ** (-(2.0 + s))))
    patch *= u0 ** (2.0 - s) / (2.0 - s)
    return num + px * fp0 + gx @ fp1 + patch


def fraclap_hypersingular(req: FracLapRequest, x) -> float:
    if req.grid.dim != 1:
        raise UnsupportedOperation(
            "finite-part evaluation of the standard definition is 1D only; "
            "use the restated route in 2D")
    req.check_margin(x)
    h = h_constant(req.grid.dim, req.s, req.mode)
    return -_finite_part_volume(req, req.fld(), x) / h


# ---------------------------------------------------------------------------
# boundary-augmented form

def surface_integral(req: FracLapRequest, x, as_printed=False) -> float:
    """Boundary-trace integral of the augmented form at x.

    Rigorous kernels: c(d, 2-s) * surface integral of
    [D * dv/dn - v * N] with v = r^-(d-2+s).  The as-printed variant uses
    v = r^-(d+s) under the prefactor 1/h instead.
    """
    if req.boundary is None:
        raise MissingBoundaryData("surface integral requires boundary data")
    bd = req.boundary.require_full()
    bq = bd.quadrature
    d, s = req.grid.dim, req.s
    xi = np.asarray(x, float).reshape(d)
    if d == 1:
        rv = bq.points.reshape(-1, 1) - xi
    else:
        rv = bq.points - xi
    rr = np.sqrt(np.sum(rv * rv, axis=1))
    if d == 1:
        rhat_n = (np.sign(rv[:, 0]) * bq.normals)
    else:
        rhat_n = np.einsum("ij,ij->i", rv / rr[:, None], bq.normals)
    if as_printed:
        beta = d + s
        pref = 1.0 / h_constant(d, s, req.mode)
    else:
        beta = d - 2.0 + s
        pref = riesz_constant(d, 2.0 - s, req.mode)
    v = rr ** (-beta)
    dvdn = -beta * rr ** (-(beta + 1.0)) * rhat_n
    return pref * float(np.sum(bq.weights * (bd.dirichlet * dvdn - v * bd.neumann)))


def fraclap_augmented(req: FracLapRequest, x, as_printed=None) -> float:
    if as_printed is None:
        as_printed = req.definition is Definition.AUGMENTED_AS_PRINTED
    if req.boundary is None:
        raise MissingBoundaryData("augmented evaluation requires boundary data")
    req.boundary.require_full()
    req.check_margin(x)
    h = h_constant(req.grid.dim, req.s, req.mode)
    vol = -_finite_part_volume(req, req.fld(), x) / h
    return vol + surface_integral(req, x, as_printed=as_printed)


# ---------------------------------------------------------------------------

_DISPATCH = {
    Definition.RESTATED: fraclap_restated,
    Definition.HYPERSINGULAR: fraclap_hypersingular,
    Definition.NEW: fraclap_new,
    Definition.AUGMENTED: fraclap_augmented,
    Definition.AUGMENTED_AS_PRINTED: fraclap_augmented,
}


def evaluate(req: FracLapRequest):
    """Evaluate the requested definition at every evaluation point."""
    if req.eval_points is None:
        raise ValueError("request has no evaluation points")
    pts = np.asarray(req.eval_points, float)
    pts = pts.reshape(-1, 2) if req.grid.dim == 2 else pts.reshape(-1)
    fn = _DISPATCH[req.definition]
    return [(p, fn(req, p)) for p in pts]
