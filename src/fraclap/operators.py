"""The four fractional-Laplacian evaluators on a bounded domain.

Routes implemented, all for order s in (0, 2):

* ``restated``       -Lap_x applied to the order-(2-s) Riesz potential of phi,
                      the outer Laplacian taken by central differences.
* ``hypersingular``  -(1/h) times the Hadamard finite part of the
                      r^-(d+s) convolution: the finite-part body.
* ``new``            minus the order-(2-s) Riesz potential of Lap(phi); the
                      weak-singularity route.
* ``augmented``      the new definition rewritten through Green's second
                      identity: the finite-part body plus a surface integral
                      of boundary traces, whose kernels follow the request's
                      definition.  ``augmented`` carries the surface kernels
                      that actually come out of the identity;
                      ``augmented-asprinted`` uses exponent d+s and prefactor
                      1/h on the surface as well, for comparison studies only:
                      on the box scaled by lambda that surface term scales as
                      lambda^-(2+s) and the body as lambda^-s, so it is not an
                      operator of order s.
                      Both read finite boundary traces from a ``BoundaryData``.

Every boundary term is one Green boundary sum of traces D and N over the
boundary quadrature (in 1D: the two endpoints, normals -1 and +1, weight 1):

    B_beta[D, N] = surface integral of (D dv/dn - v N),  v = r^-beta.

The Hadamard finite part is computed by two-term Taylor subtraction, with one
body for both dimensions.  The remainder R = phi(xi) - phi(x) - (xi - x).grad phi(x)
is O(r^2), so R r^-(d+s) is integrated as (R / r^2) r^-(d-2+s), giving ``num``: a
smooth factor against the ``new`` route's kernel, on the same Gauss-Jacobi rule.
By the divergence theorem the subtracted terms' finite parts are the boundary
sum of D = -phi(x) and N = -s grad phi(x).n.  Since 1/h = c (d-2+s) s, with
c = c(d, 2-s) and beta = d-2+s every integral route scales by c:

    hyper                 c (B_beta[-phi(x), -s grad phi(x).n] - beta s num)
    augmented surface     c B_beta[D, N] of the boundary data's traces
    as-printed surface    c beta s B_{d+s}[D, N]
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import BoundaryData, FieldAdapter, _squared_norms, boundary_quadrature
from .errors import MissingBoundaryData
from .riesz import FieldRequest, PotentialRequest, riesz_potential_point
from .special import FractionalOrder, fraclap_constant

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


@dataclass(frozen=True, kw_only=True)
class FracLapRequest(FieldRequest):
    """Evaluation request shared by all the routes."""

    s: float
    definition: Definition = Definition.NEW
    boundary: BoundaryData = None

    def __post_init__(self):
        FractionalOrder(self.s).check_pole(self.grid.dim)
        augmented = self.definition in (Definition.AUGMENTED, Definition.AUGMENTED_AS_PRINTED)
        if augmented and self.boundary is None:
            raise MissingBoundaryData("augmented definitions require boundary data")

    def fld(self):
        return FieldAdapter(self.field)

    @functools.cached_property
    def bq(self):
        """The boundary rule: the boundary data's, else the grid's, built on first use."""
        if self.boundary is not None:
            return self.boundary.quadrature
        return boundary_quadrature(self.grid)


# ---------------------------------------------------------------------------
# new definition: potential of the Laplacian

def fraclap_new(req: FracLapRequest, x) -> float:
    req.grid.check_margin(x)
    d, s = req.grid.dim, req.s
    c = fraclap_constant(d, s, req.mode)
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
    dist = req.grid.check_margin(x)
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
    return rv, np.sqrt(_squared_norms(rv))


def _boundary_sum(bq, rays, beta, dirichlet, neumann):
    """Green's boundary sum over ``bq``: the sum of w (D dv/dn - v N), v = r^-beta,
    given the rays from the point to the boundary points; D and N are the traces,
    scalars or one value per boundary point."""
    rv, rr = rays
    v = rr ** (-beta)
    dvdn = -beta * rr ** (-(beta + 2.0)) * np.einsum("ij,ij->i", rv, bq.normals)
    return float(np.sum(bq.weights * (dirichlet * dvdn - v * neumann)))


def _finite_part(req, xi, rays):
    """The finite-part body at the point xi, (d,), given the rays from xi to ``req.bq``."""
    grid, s, d = req.grid, req.s, req.grid.dim
    fld, rule = req.fld(), req.rule.build(grid, xi, -(d - 2.0 + s))
    px, gx = fld.value_at(xi), fld.gradient_at(xi)
    # numeric part: two-term Taylor remainder over r^2, against r^-(d-2+s)
    rem = fld.value(rule.nodes) - px - (rule.nodes - xi) @ gx
    num = rule.integrate_kernel(rem / rule.dist ** 2)
    # subtracted terms: the boundary sum of the traces -phi(x) and -s grad phi(x) . n
    taylor = _boundary_sum(req.bq, rays, d - 2.0 + s, -px, -s * (req.bq.normals @ gx))
    return float(fraclap_constant(d, s, req.mode) * (taylor - (d - 2.0 + s) * s * num))


def fraclap_hypersingular(req: FracLapRequest, x) -> float:
    """-(1/h) times the f.p. integral of phi(xi) r^-(d+s) over the domain, x interior."""
    req.grid.check_margin(x)
    xi = np.asarray(x, float).reshape(req.grid.dim)
    return _finite_part(req, xi, _boundary_rays(req.bq, xi))


# ---------------------------------------------------------------------------
# boundary-augmented form

def surface_integral(req: FracLapRequest, x, rays=None) -> float:
    """Boundary-trace integral of the augmented form at x, with the kernels of
    ``req.definition``; ``rays`` are the rays from x to the boundary points, if
    the caller has them already.

    ``augmented`` (and every other definition): c(d, 2-s) times the boundary sum
    of the traces with v = r^-(d-2+s).  ``augmented-asprinted`` uses v = r^-(d+s)
    under the prefactor 1/h = c(d, 2-s) (d-2+s) s instead.
    """
    if req.boundary is None:
        raise MissingBoundaryData("surface integral requires boundary data")
    bd, d, s = req.boundary, req.grid.dim, req.s
    rays = rays or _boundary_rays(req.bq, np.asarray(x, float).reshape(d))
    beta, pref = d - 2.0 + s, fraclap_constant(d, s, req.mode)
    if req.definition is Definition.AUGMENTED_AS_PRINTED:
        beta, pref = d + s, pref * (d - 2.0 + s) * s
    return pref * _boundary_sum(req.bq, rays, beta, bd.dirichlet, bd.neumann)


def fraclap_augmented(req: FracLapRequest, x) -> float:
    """The finite-part body plus the surface term of ``req.definition``, both on one
    set of rays from x to the boundary points."""
    req.grid.check_margin(x)
    xi = np.asarray(x, float).reshape(req.grid.dim)
    rays = _boundary_rays(req.bq, xi)
    return _finite_part(req, xi, rays) + surface_integral(req, xi, rays)


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
    return [(p, fn(req, p)) for p in req.points()]
