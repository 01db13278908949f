"""Singularity-aware quadrature: geometrically graded panels with a
double-exponential closure around the singular point.

The weakly singular kernels integrated here behave like r^(-alpha) near an
interior point.  Panels shrink geometrically toward that point so each Gauss
panel sees an analytic integrand; the innermost cell (which touches the
singularity) is covered by tanh-sinh nodes whose distances to the singular
point are tracked exactly, so kernels can be evaluated from the stored
distance instead of a cancellation-prone position difference.

One radial rule in the distance from the singular point serves both
dimensions: it covers each side of the point in 1D and the radial
coordinate of every corner triangle's Duffy fan in 2D.  ``gauss_panel`` is
the only composite Gauss builder; it maps one Legendre rule onto all the
panels of a rule at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GradedPanels", "gauss_panel", "graded_quadrature_rule"]

DEFAULT_RATIO = 0.5
DEFAULT_GAUSS_ORDER = 8
DEFAULT_LEVELS_1D = 14
DEFAULT_LEVELS_2D = 10

_ANGULAR_PANELS = 4   # Gauss panels along each corner triangle's far edge


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


def _radial_rule(length, levels, ratio, order):
    """Graded rule in the distance r from a singular point, r in (0, length].

    Returns the outer Gauss nodes and weights (panels [length*ratio^(k+1),
    length*ratio^k], outermost first), the tanh-sinh core nodes and weights
    on (0, h], and the core radius h = length * ratio^levels.
    """
    radii = length * np.array([ratio ** k for k in range(levels + 1)])
    r, w = gauss_panel(radii[1:], radii[:-1], order)
    h = float(radii[-1])
    return r, w, h * _TS_DELTA, h * _TS_WEIGHTS, h


@dataclass
class _TriangleFan:
    """Duffy data for one corner triangle of a 2D rule."""

    area: float
    chords: np.ndarray        # (nv, 2) chord vectors from the singular point
    chord_len: np.ndarray     # (nv,)
    v_weights: np.ndarray     # (nv,)


@dataclass
class GradedPanels:
    """Quadrature rule graded toward one singular point.

    ``nodes`` are positions (shape (N,) in 1D, (N, 2) in 2D), ``weights``
    the corresponding weights, and ``dist`` the exact distance of each node
    to the singular point.  ``core_*`` fields describe the innermost region
    so that finite-part evaluators can exclude and patch it analytically.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    dist: np.ndarray
    core_slice: slice                  # nodes belonging to the innermost cells
    core_radii_1d: tuple = ()          # per-side innermost radii (1D)
    core_scale_2d: float = 0.0         # innermost radial fraction u0 (2D)
    triangles: list = field(default_factory=list)

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


def _graded_rule_interval(a, b, xs, levels, ratio, order):
    pos, wts, dist = [], [], []
    core_pos, core_w, core_d, core_radii = [], [], [], []
    for lo, hi, sing_at_hi in ((a, xs, True), (xs, b, False)):
        length = hi - lo
        if length <= 0.0:
            continue
        r, w, rc, wc, h = _radial_rule(length, levels, ratio, order)
        pos.append(hi - r if sing_at_hi else lo + r)
        wts.append(w)
        dist.append(r)
        core_pos.append(hi - rc if sing_at_hi else lo + rc)
        core_w.append(wc)
        core_d.append(rc)
        core_radii.append(h)
    n_outer = sum(len(p) for p in pos)
    nodes = np.concatenate(pos + core_pos)
    weights = np.concatenate(wts + core_w)
    dists = np.concatenate(dist + core_d)
    return GradedPanels(
        dim=1, nodes=nodes, weights=weights, dist=dists,
        core_slice=slice(n_outer, len(nodes)),
        core_radii_1d=tuple(core_radii),
    )


def _graded_rule_rectangle(rect, xs, levels, ratio, order):
    a1, b1, a2, b2 = rect
    xs = np.asarray(xs, float)
    corners = [np.array([a1, a2]), np.array([b1, a2]),
               np.array([b1, b2]), np.array([a1, b2])]
    u_outer, wu_outer, u_core, wu_core, u0 = _radial_rule(1.0, levels, ratio, order)
    j = np.arange(_ANGULAR_PANELS)
    v, wv = gauss_panel(j / _ANGULAR_PANELS, (j + 1) / _ANGULAR_PANELS, order)

    def fan_blocks(u, wu):
        pts, wts, dist, tris = [], [], [], []
        for i in range(4):
            A, B = corners[i], corners[(i + 1) % 4]
            d1, d2 = A - xs, B - xs
            area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
            if area < 1e-30:
                continue
            chords = (1.0 - v)[:, None] * d1 + v[:, None] * d2
            clen = np.hypot(chords[:, 0], chords[:, 1])
            p = (xs[None, None, :] + u[:, None, None] * chords[None, :, :]).reshape(-1, 2)
            w = (2.0 * area * (u * wu)[:, None] * wv[None, :]).ravel()
            r = (u[:, None] * clen[None, :]).ravel()
            keep = w > 0.0  # deepest tanh-sinh products may underflow to zero
            pts.append(p[keep])
            wts.append(w[keep])
            dist.append(r[keep])
            tris.append(_TriangleFan(area, chords, clen, wv))
        return pts, wts, dist, tris

    outer = fan_blocks(u_outer, wu_outer)
    core = fan_blocks(u_core, wu_core)
    n_outer = sum(len(p) for p in outer[0])
    nodes = np.vstack(outer[0] + core[0])
    weights = np.concatenate(outer[1] + core[1])
    dists = np.concatenate(outer[2] + core[2])
    return GradedPanels(
        dim=2, nodes=nodes, weights=weights, dist=dists,
        core_slice=slice(n_outer, len(weights)),
        core_scale_2d=u0, triangles=outer[3],
    )


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
    bounds = getattr(domain, "bounds", domain)
    if levels is None:
        levels = DEFAULT_LEVELS_1D if len(bounds) == 2 else DEFAULT_LEVELS_2D
    levels = int(levels)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels!r}")
    if len(bounds) == 2:
        a, b = bounds
        x = float(np.asarray(singular_point).reshape(()))
        if not a <= x <= b:
            raise ValueError(f"singular point {x!r} outside [{a}, {b}]")
        return _graded_rule_interval(a, b, x, levels, ratio, gauss_order)
    a1, b1, a2, b2 = bounds
    p = np.asarray(singular_point, float).reshape(2)
    if not (a1 <= p[0] <= b1 and a2 <= p[1] <= b2):
        raise ValueError(f"singular point {p!r} outside rectangle {bounds!r}")
    return _graded_rule_rectangle((a1, b1, a2, b2), p, levels, ratio, gauss_order)
