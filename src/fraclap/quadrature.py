"""Singularity-aware quadrature: Duffy fans over one Gauss-Jacobi radial rule.

The kernels integrated here are powers r^p, p > -d, of the distance r to a
point x of the domain.  The domain is split into fans (Duffy, SIAM J. Numer.
Anal. 19, 1982), the cones from x over its boundary facets: the two
endpoints of an interval, the four edges of a rectangle.  A fan's node is
x + u * c, u in (0, 1] the radial fraction and the chord c running from x to
a node of the angular rule on the facet, so r = u * |c| and

    integral over the fan of f r^p
        = jac * sum_v w_v |c_v|^p * integral_0^1 f(x + u c_v) u^(d-1+p) du,

with jac the fan's |det|, its height times its base: the signed distance from
x to the facet, >= 0 inside the box, times the facet's size.  A negative or NaN
distance puts x outside the box, and a fan is kept where its jac is positive,
alike in both dimensions.  The radial integral carries the weight u^beta,
beta = d - 1 + p, and the Gauss-Jacobi rule for that weight integrates it
exactly, so f only has to be smooth along each chord.  It is built on numpy
alone by Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
the symmetric tridiagonal Jacobi matrix, sharpened by one Newton step on the
three-term recurrence, and the weights are the Christoffel numbers of the same
recurrence.  The kernel is folded into the weights, jac * |c|^p * w_u * w_v,
and a rule built for power p integrates f r^p as a plain weighted sum of f.

``RuleParams.build`` is the one builder of a graded rule, its orders checked
once when the ``RuleParams`` is made.  One radial builder, cached per (beta,
order), makes every 1D rule: each fan's radial rule in both dimensions and, at
beta = 0, the Gauss-Legendre rule that ``gauss_panel`` maps onto all the
panels of a composite rule at once.  Only the facets and the facet rule depend
on the dimension; ``box_facets`` (vertices, outward normals and sizes) and
``facet_rule`` (one node of weight 1 on an endpoint, Gauss panels along an
edge) also make ``domain.boundary_quadrature``.  Both are cached, the facets
per box, so every rule on a grid shares one table.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["GradedPanels", "RuleParams", "box_facets", "facet_rule", "gauss_panel"]

DEFAULT_RADIAL_ORDER = 32
DEFAULT_GAUSS_ORDER = 8

_ANGULAR_PANELS = 4   # Gauss panels along each edge of a rectangle


def gauss_panel(a, b, order):
    """Composite Gauss-Legendre rule on the panels [a[i], b[i]], ends scalars or arrays
    of one shape: the radial rule for u^0 on (0, 1) mapped to each panel as
    a + (b - a) u, flattened panel by panel, each panel's nodes ascending."""
    u, w = _radial_rule(0.0, operator.index(order))
    a, b = np.asarray(a, float)[..., None], np.asarray(b, float)[..., None]
    return (a + (b - a) * u).ravel(), ((b - a) * w).ravel()


def _orthonormal_sums(u, diag, off):
    """p_n(u) and p_n'(u), both up to one constant factor, and sum_{k<n} p_k(u)^2
    for the polynomials orthonormal under the Jacobi matrix (``diag``, ``off``), p_0 = 1."""
    p_prev, p, dp_prev, dp, sq = (np.zeros_like(u), np.ones_like(u), np.zeros_like(u),
                                  np.zeros_like(u), np.zeros_like(u))
    for a, b_in, b_out in zip(diag, np.append(0.0, off), np.append(off, 1.0)):
        sq += p * p
        p_prev, p, dp_prev, dp = (p, ((u - a) * p - b_in * p_prev) / b_out,
                                  dp, ((u - a) * dp + p - b_in * dp_prev) / b_out)
    return p, dp, sq


@functools.lru_cache(maxsize=128)
def _radial_rule(beta, order):
    """Read-only Gauss-Jacobi nodes, ascending in (0, 1), and weights for the weight u^beta."""
    if order < 1:
        raise ValueError(f"a Gauss rule needs order >= 1, got {order!r}")
    # Jacobi matrix of the polynomials orthonormal for u^beta on (0, 1): the
    # (alpha, beta) = (0, beta) recurrence moved from (-1, 1), each sum written
    # as integer + beta so that nothing cancels as beta -> -1.  The recurrence
    # runs in extended precision where the platform has it: the small nodes'
    # relative error, and through it the weights', then stays near 1e-16
    beta = np.longdouble(beta)
    k = np.arange(1, order, dtype=np.longdouble)
    s = 2 * k + beta
    diag = np.concatenate([[(beta + 1) / (beta + 2)], 0.5 + 0.5 * beta * beta / (s * (s + 2))])
    off = k * (k + beta) / (s * np.sqrt((s + 1) * ((2 * k - 1) + beta)))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    u = np.linalg.eigvalsh(jacobi.astype(float)).astype(np.longdouble)
    p, dp, _ = _orthonormal_sums(u, diag, off)
    u = u - p / dp  # one Newton step: eigvalsh leaves about 1e-16 absolute error
    # Christoffel numbers 1 / sum_k p_k^2: the eigenvectors' first components
    # squared give the same weights, but only to an absolute accuracy
    w = 1 / _orthonormal_sums(u, diag, off)[2]
    w *= 1 / ((beta + 1) * w.sum())  # the weight's integral, 1/(beta+1), exactly
    u, w = u.astype(float), w.astype(float)
    u.flags.writeable = w.flags.writeable = False
    return u, w


@dataclass
class GradedPanels:
    """Quadrature rule for f(xi) * r^p, r the distance to one singular point
    and p the kernel power the rule was built for.

    ``nodes`` are (N, d) positions, ``weights`` carry the kernel r^p, and
    ``dist`` is the exact distance of each node to the singular point.
    """

    nodes: np.ndarray
    weights: np.ndarray
    dist: np.ndarray

    def integrate_kernel(self, vals) -> float:
        """Integrate f(xi) * r^p, given f's values at the nodes: an array, or one scalar."""
        return float(np.sum(self.weights * vals))


@functools.lru_cache(maxsize=128)
def box_facets(lo, hi):
    """Read-only facets of the box [lo, hi], its corners given as tuples: (F, d, d)
    vertices, (F, d) outward normals and (F,) sizes, an interval's two endpoints
    (size 1) or a rectangle's four edges counterclockwise (their lengths)."""
    if len(lo) == 1:
        verts, normals = np.array([[lo], [hi]], float), np.array([[-1.0], [1.0]])
    else:
        corners = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]],
                           float)
        verts = np.stack([corners, np.roll(corners, -1, axis=0)], axis=1)
        normals = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    # the facet normal to one axis spans the box's sides along the others
    size = np.prod(np.where(normals == 0.0, np.subtract(hi, lo), 1.0), axis=1)
    verts.flags.writeable = normals.flags.writeable = size.flags.writeable = False
    return verts, normals, size


@functools.lru_cache(maxsize=128)
def facet_rule(d, panels, order):
    """Read-only barycentric nodes (nv, d) and weights (nv,) on a facet of unit measure:
    one node of weight 1 on an endpoint, ``panels`` Gauss panels along an edge."""
    if d == 1:
        bary, w = np.ones((1, 1)), np.ones(1)
    else:
        j = np.arange(panels)
        v, w = gauss_panel(j / panels, (j + 1) / panels, order)
        bary = np.column_stack([1.0 - v, v])
    bary.flags.writeable = w.flags.writeable = False
    return bary, w


def _graded_rule(lo, hi, x, power, radial_order, order):
    d = len(x)
    verts, normals, size = box_facets(lo, hi)
    bary, wv = facet_rule(d, _ANGULAR_PANELS, order)
    dist = np.einsum("fd,fd->f", normals, verts[:, 0] - x)  # x's height over each facet
    if not dist.min() >= 0.0:  # so that NaN fails too
        raise ValueError(f"singular point {x.tolist()} outside the box {list(lo)} to {list(hi)}")
    jac = dist * size                                      # each fan's |det|: height x base
    keep = jac > 0.0                                       # a facet through x spans no volume
    jac, chords = jac[keep], bary @ (verts[keep] - x)      # (F,), (F, nv, d)
    clen = np.abs(np.hypot.reduce(chords, axis=2))         # |c|, neither under- nor overflowing
    u, wu = _radial_rule(d - 1.0 + power, radial_order)
    pos = x + u[None, :, None, None] * chords[:, None]     # (F, nu, nv, d)
    w = jac[:, None, None] * wu[:, None] * (wv * clen ** power)[:, None, :]
    r = u[:, None] * clen[:, None, :]
    return GradedPanels(nodes=pos.reshape(-1, d), weights=w.ravel(), dist=r.ravel())


@dataclass(frozen=True)
class RuleParams:
    """Quadrature orders: Gauss-Jacobi nodes along each chord of a Duffy fan,
    and Gauss nodes per angular panel of a rectangle's edge: integers >= 1, checked
    once when the object is made (``operator.index`` raises the TypeError)."""

    radial_order: int = DEFAULT_RADIAL_ORDER
    gauss_order: int = DEFAULT_GAUSS_ORDER

    def __post_init__(self):
        for name in ("radial", "gauss"):
            order = operator.index(getattr(self, name + "_order"))
            if order < 1:
                raise ValueError(f"{name} order must be >= 1, got {order!r}")
            object.__setattr__(self, name + "_order", order)

    def build(self, grid, x, power) -> GradedPanels:
        """The rule on the box of ``grid``, a ``domain.Grid``, integrating f * r^power about x.

        ``power`` must exceed -d for the kernel to be integrable, and a ``ValueError``
        says so otherwise; power 0 gives a plain volume rule.  A point outside the
        box, or NaN, is a ``ValueError``.  Only the fan over a facet through the point
        is dropped: a point however close to a facet, but off it, keeps that facet's fan.
        """
        d = grid.dim
        if not power > -d:  # written so that NaN fails too
            raise ValueError(f"r^power is not integrable in {d}D unless power > -{d}, "
                             f"got {power!r}")
        x = np.asarray(x, float).reshape(d)
        return _graded_rule(grid.lo, grid.hi, x, float(power), self.radial_order, self.gauss_order)
