"""Singularity-aware quadrature: Duffy fans over geometrically graded radial
panels, with a double-exponential closure at the singular point.

The weakly singular kernels integrated here behave like r^(-alpha) near a
point x of the domain.  The domain is split into fans (Duffy, SIAM J. Numer.
Anal. 19, 1982), the cones from x over its boundary facets: the two
endpoints of an interval, the four edges of a rectangle.  A fan's node is
x + u * chord, u in (0, 1] the radial fraction and the chord running from x
to a node of the angular rule on the facet.  Its weight is
jac * u^(d-1) * w_u * w_v, with jac the |det| of the facet's vertices minus
x, and its distance u * |chord| to x is stored exactly, so kernels can be
evaluated from it instead of a cancellation-prone position difference.

One radial rule on (0, 1] serves every fan in both dimensions: Gauss panels
shrinking geometrically toward x, so each sees an analytic integrand, and
tanh-sinh nodes in the innermost cell u <= u0.  Only the facets and the
angular rule depend on the dimension: one node of weight 1 at an endpoint,
``_ANGULAR_PANELS`` Gauss panels along an edge.  ``gauss_panel`` is the only
composite Gauss builder; it maps one Legendre rule onto all the panels of a
rule at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GradedPanels", "gauss_panel", "graded_quadrature_rule"]

DEFAULT_RATIO = 0.5
DEFAULT_GAUSS_ORDER = 8
DEFAULT_LEVELS_1D = 14
DEFAULT_LEVELS_2D = 10

_ANGULAR_PANELS = 4   # Gauss panels along each edge of a rectangle


def gauss_panel(a, b, order):
    """Composite Gauss-Legendre rule on the panels [a[i], b[i]].

    ``a`` and ``b`` are panel ends, scalars or arrays of one shape.  The
    nodes and weights come back flattened panel by panel, each panel's in
    ascending Legendre order; a scalar pair gives the plain rule on [a, b].
    """
    x, w = np.polynomial.legendre.leggauss(order)
    a, b = np.asarray(a, float)[..., None], np.asarray(b, float)[..., None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), (0.5 * (b - a) * w).ravel()


def _tanh_sinh_unit(n, tmax):
    """Tanh-sinh rule on (0, 1], nodes returned as distances from 0.

    Distances are computed as 1/(1+exp(-2z)) so they stay meaningful far
    below machine epsilon relative to the panel size.
    """
    h = tmax / n
    t = np.arange(-n, n + 1) * h
    z = 0.5 * np.pi * np.sinh(t)
    with np.errstate(over="ignore"):
        delta = 1.0 / (1.0 + np.exp(-2.0 * z))
        w = h * 0.25 * np.pi * np.cosh(t) / np.cosh(z) ** 2
    keep = (delta > 0.0) & np.isfinite(w) & (w > 0.0)
    return delta[keep], w[keep]


_TS_DELTA, _TS_WEIGHTS = _tanh_sinh_unit(n=30, tmax=6.0)


@dataclass
class Fan:
    """The cone from the singular point over one boundary facet (Duffy fan)."""

    jac: float                # |det| of the facet's vertices minus the singular point
    chords: np.ndarray        # (nv, d) angular barycentric nodes times those vertices
    chord_len: np.ndarray     # (nv,)
    v_weights: np.ndarray     # (nv,) angular weights


@dataclass
class GradedPanels:
    """Quadrature rule graded toward one singular point.

    ``nodes`` are positions (shape (N,) in 1D, (N, 2) in 2D), ``weights``
    the corresponding weights, and ``dist`` the exact distance of each node
    to the singular point.  ``core_slice``, ``core_scale`` and ``fans``
    describe the innermost region u <= u0 of every fan, so that finite-part
    evaluators can exclude and patch it analytically.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    dist: np.ndarray
    core_slice: slice                  # nodes belonging to the innermost cells
    core_scale: float                  # innermost radial fraction u0
    fans: list                         # one Fan per facet the point does not lie on

    def integrate(self, f) -> float:
        """Integrate a plain (non-singular) callable or value array."""
        vals = f(self.nodes) if callable(f) else np.asarray(f)
        return float(np.sum(self.weights * vals))

    def integrate_kernel(self, power: float, f=1.0, *, skip_core: bool = False) -> float:
        """Integrate f(xi) * r^power with r the distance to the singular point.

        Accumulated in log space so that deep tanh-sinh nodes neither
        overflow nor underflow the kernel factor.
        """
        vals = f(self.nodes) if callable(f) else np.broadcast_to(np.asarray(f, float), self.dist.shape)
        w, r = self.weights, self.dist
        if skip_core:
            keep = np.ones(len(r), bool)
            keep[self.core_slice] = False
            vals, w, r = vals[keep], w[keep], r[keep]
        mag = np.abs(vals)
        term = np.where(mag > 0.0,
                        np.sign(vals) * np.exp(np.log(w) + power * np.log(r)
                                               + np.log(np.where(mag > 0.0, mag, 1.0))),
                        0.0)
        return float(np.sum(term))


def _facets_and_angular_rule(lo, hi, order):
    """Boundary facets as (d, d) vertex arrays, and the angular rule over a facet.

    The angular rule is barycentric nodes (nv, d) with weights (nv,): one node
    of weight 1 on an interval's endpoint, Gauss panels along a rectangle's edge.
    """
    if len(lo) == 1:
        return [lo[None], hi[None]], np.ones((1, 1)), np.ones(1)
    corners = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
    j = np.arange(_ANGULAR_PANELS)
    v, wv = gauss_panel(j / _ANGULAR_PANELS, (j + 1) / _ANGULAR_PANELS, order)
    return ([corners[[i, (i + 1) % 4]] for i in range(4)],
            np.column_stack([1.0 - v, v]), wv)


def _graded_rule(lo, hi, x, levels, ratio, order):
    d = len(x)
    facets, bary, wv = _facets_and_angular_rule(lo, hi, order)
    fans = []
    for verts in facets:
        rel = verts - x
        jac = abs(float(np.linalg.det(rel)))
        if jac >= 1e-30:  # a facet through x spans no volume
            chords = bary @ rel
            fans.append(Fan(jac, chords, np.sqrt(np.sum(chords * chords, axis=1)), wv))
    jac = np.array([f.jac for f in fans])[:, None, None]
    chords = np.stack([f.chords for f in fans])            # (F, nv, d)
    clen = np.stack([f.chord_len for f in fans])           # (F, nv)
    # one radial rule in the fraction u of the chord: Gauss panels on
    # [ratio^(k+1), ratio^k], then the tanh-sinh core on (0, u0]
    radii = ratio ** np.arange(levels + 1.0)
    u0 = float(radii[-1])
    blocks = []
    for u, wu in (gauss_panel(radii[1:], radii[:-1], order), (u0 * _TS_DELTA, u0 * _TS_WEIGHTS)):
        p = x + u[None, :, None, None] * chords[:, None]
        w = (jac * (u ** (d - 1) * wu)[:, None] * wv).ravel()
        r = (u[:, None] * clen[:, None, :]).ravel()
        keep = w > 0.0  # deepest tanh-sinh products may underflow to zero
        blocks.append([np.compress(keep, a, axis=0) for a in (p.reshape(-1, d), w, r)])
    pos, w, r = (np.concatenate(parts) for parts in zip(*blocks))
    return GradedPanels(dim=d, nodes=pos if d > 1 else pos[:, 0], weights=w, dist=r,
                        core_slice=slice(len(blocks[0][1]), len(w)), core_scale=u0, fans=fans)


def graded_quadrature_rule(domain, singular_point, levels=None,
                           ratio=DEFAULT_RATIO, gauss_order=DEFAULT_GAUSS_ORDER) -> GradedPanels:
    """Build a graded rule for ``domain`` with singularity at ``singular_point``.

    ``domain`` is a Grid1D/Grid2D or a raw bounds tuple: (a, b) in 1D,
    (a1, b1, a2, b2) in 2D.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"grading ratio must lie in (0,1), got {ratio!r}")
    if gauss_order < 1:
        raise ValueError(f"gauss order must be >= 1, got {gauss_order!r}")
    bounds = np.asarray(getattr(domain, "bounds", domain), float)
    lo, hi = bounds[0::2], bounds[1::2]
    d = len(lo)
    if levels is None:
        levels = DEFAULT_LEVELS_1D if d == 1 else DEFAULT_LEVELS_2D
    levels = int(levels)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels!r}")
    x = np.asarray(singular_point, float).reshape(d)
    if not np.all((lo <= x) & (x <= hi)):  # written so that NaN fails too
        raise ValueError(f"singular point {x.tolist()} outside the domain {bounds.tolist()}")
    return _graded_rule(lo, hi, x, levels, ratio, gauss_order)
