"""The four fractional-Laplacian evaluators on a bounded domain.

Routes implemented, all for order s in (0, 2):

* ``restated``       -Lap_x applied to the order-(2-s) Riesz potential of phi,
                      the outer Laplacian taken by central differences.
* ``hypersingular``  -(1/h) times the Hadamard finite part of the
                      r^-(d+s) convolution.
* ``new``            minus the order-(2-s) Riesz potential of Lap(phi); the
                      weak-singularity route.
* ``augmented``      the new definition rewritten through Green's second
                      identity as a volume finite part plus boundary-trace
                      integrals.  The ``rigorous`` variant carries the surface
                      kernels that actually come out of the identity; the
                      ``as-printed`` variant uses exponent d+s and prefactor
                      1/h on the surface as well, for comparison studies only.
                      Both read finite boundary traces from a ``BoundaryData``.

The Hadamard finite part is computed by two-term Taylor subtraction, with
one body for both dimensions.  The finite parts of the subtracted terms
reduce, by the divergence theorem, to boundary fluxes over the boundary
quadrature (in 1D: the two endpoints, normals -1 and +1, weight 1):

    fp0 = -(1/s) * surface integral of r^-(d+s) (r . n)
    fp1 = -1/(d-2+s) * surface integral of r^-(d-2+s) n

The remainder R = phi(xi) - phi(x) - (xi - x).grad phi(x) is O(r^2), so
R r^-(d+s) is integrated as (R / r^2) r^-(d-2+s): a smooth factor against the
same kernel as the ``new`` route, on the same Gauss-Jacobi rule (beta = 1-s).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .domain import MARGIN_TOL, BoundaryData, FieldAdapter, as_field, boundary_quadrature
from .errors import MissingBoundaryData
from .riesz import PotentialRequest, RuleParams, _eval_points, riesz_potential_point
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

    def __post_init__(self):
        FractionalOrder(self.s).check_pole(self.grid.dim)
        augmented = self.definition in (Definition.AUGMENTED, Definition.AUGMENTED_AS_PRINTED)
        if augmented and self.boundary is None:
            raise MissingBoundaryData("augmented definitions require boundary data")

    def check_margin(self, x):
        """Distance of x to the boundary; at least the grid's ``margin`` or ValueError."""
        dist = self.grid.distance_to_boundary(x)
        delta = self.grid.margin
        if dist < delta - MARGIN_TOL:
            raise ValueError(
                f"evaluation point {x!r} violates the interior margin "
                f"(distance {dist:.3g} < delta {delta:.3g})")
        return dist

    @functools.cached_property
    def field(self):
        """``phi`` as a TestFunction, converted on first use."""
        return as_field(self.grid, self.phi)

    def fld(self):
        return FieldAdapter(self.field)

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
    rule = req.rule.build(req.grid, x, -(d - 2.0 + s))
    return -c * rule.integrate_kernel(req.fld().laplacian(rule.nodes))


# ---------------------------------------------------------------------------
# restated standard definition: Laplacian of the potential

def fraclap_restated(req: FracLapRequest, x) -> float:
    """-Lap of the order-(2-s) potential by the central second difference.

    The step is tau = min(dist/2, 1e-3 * diameter).  The difference's O(tau^2)
    truncation, about 1e-6 relative on a smooth bump, is the value's main
    error; the 7-8 digits it cancels add only about 1e-8 of round-off.
    """
    dist = req.check_margin(x)
    grid, d = req.grid, req.grid.dim
    tau = min(dist / 2.0, 1e-3 * grid.diameter)
    pot = PotentialRequest(grid=grid, phi=req.field, sigma=2.0 - req.s,
                           mode=req.mode, rule=req.rule)
    x = np.asarray(x, float).reshape(d)
    acc = -2.0 * d * riesz_potential_point(pot, x)
    for e in tau * np.eye(d):
        for step in (e, -e):
            acc += riesz_potential_point(pot, x + step)
    return -acc / tau ** 2


# ---------------------------------------------------------------------------
# Hadamard finite part of the r^-(d+s) convolution

def _boundary_rays(bq, xi):
    """Rays from xi to the boundary points, (M, d), and their lengths."""
    rv = bq.points - xi
    return rv, np.sqrt(np.sum(rv * rv, axis=1))


def _finite_part_volume(req: FracLapRequest, x) -> float:
    """-(1/h) times the f.p. integral of phi(xi) r^-(d+s) over the domain, x interior."""
    grid, s, d = req.grid, req.s, req.grid.dim
    fld, rule = req.fld(), req.rule.build(grid, x, -(d - 2.0 + s))
    xi = np.asarray(x, float).reshape(d)
    px, gx = fld.value_at(xi), fld.gradient_at(xi)
    # numeric part: two-term Taylor remainder over r^2, against r^-(d-2+s)
    rem = fld.value(rule.nodes) - px - (rule.nodes - xi) @ gx
    num = rule.integrate_kernel(rem / rule.dist ** 2)
    # subtracted terms: finite parts reduced to boundary fluxes (divergence theorem)
    bq = req.bq()
    rv, rr = _boundary_rays(bq, xi)
    w, normals = bq.weights, bq.normals
    fp0 = -(1.0 / s) * float(np.sum(w * rr ** (-(d + s)) * np.einsum("ij,ij->i", rv, normals)))
    fp1 = -(1.0 / (d - 2.0 + s)) * np.sum((w * rr ** (-(d - 2.0 + s)))[:, None] * normals, axis=0)
    return float(-(num + px * fp0 + gx @ fp1) / h_constant(d, s, req.mode))


def fraclap_hypersingular(req: FracLapRequest, x) -> float:
    req.check_margin(x)
    return _finite_part_volume(req, x)


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
    bd = req.boundary
    bq = bd.quadrature
    d, s = req.grid.dim, req.s
    rv, rr = _boundary_rays(bq, np.asarray(x, float).reshape(d))
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


def fraclap_augmented(req: FracLapRequest, x) -> float:
    """Finite part plus surface term, with the surface kernels ``req.definition`` names."""
    req.check_margin(x)
    as_printed = req.definition is Definition.AUGMENTED_AS_PRINTED
    return surface_integral(req, x, as_printed=as_printed) + _finite_part_volume(req, x)


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
    fn = _DISPATCH[req.definition]
    return [(p, fn(req, p)) for p in _eval_points(req)]
