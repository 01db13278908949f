"""Numerical verification of Green's second identity on interval and rectangle.

For twice-differentiable phi, v the identity reads

    int_Omega (v Lap(phi) - phi Lap(v)) dOmega
        = surface integral of (v dphi/dn - phi dv/dn).

The residual of the discretized identity is the lemma check underlying the
boundary-augmented fractional Laplacian.  Both sides are written once for
the interval and the rectangle.
"""

from __future__ import annotations

import functools

import numpy as np

from .domain import _product_points, boundary_quadrature
from .quadrature import DEFAULT_GAUSS_ORDER, gauss_panel

__all__ = ["volume_quadrature", "green_residual"]


def volume_quadrature(grid, gauss_order=DEFAULT_GAUSS_ORDER):
    """Tensor product of per-axis, per-cell Gauss rules: (N, d) points and (N,) weights."""
    rules = [gauss_panel(ax[:-1], ax[1:], gauss_order) for ax in grid.axes]
    return (_product_points([p for p, _ in rules]),
            functools.reduce(np.multiply.outer, [w for _, w in rules]).ravel())


def green_residual(grid, phi, v, gauss_order=DEFAULT_GAUSS_ORDER) -> float:
    """Absolute residual of Green's second identity for the pair (phi, v).

    The volume side uses ``volume_quadrature`` and the surface side
    ``boundary_quadrature``, both with ``gauss_order`` points per panel.
    """
    pts, wts = volume_quadrature(grid, gauss_order)
    phi_v, v_v = phi.value(pts), v.value(pts)
    phi_l, v_l = phi.laplacian(pts), v.laplacian(pts)
    for arr in (phi_v, v_v, phi_l, v_l):
        if not np.all(np.isfinite(arr)):
            raise ValueError("green_residual requires both fields to be "
                             "finite on the whole closed domain")
    lhs = float(np.sum(wts * (v_v * phi_l - phi_v * v_l)))
    bq = boundary_quadrature(grid, gauss_order=gauss_order)
    surf = float(np.sum(bq.weights * (v.value(bq.points)
                                      * phi.normal_derivative(bq.points, bq.normals)
                                      - phi.value(bq.points)
                                      * v.normal_derivative(bq.points, bq.normals))))
    return abs(lhs - surf)
