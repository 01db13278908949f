"""Numerical verification of Green's second identity on interval and rectangle.

For twice-differentiable phi, v the identity reads

    int_Omega (v Lap(phi) - phi Lap(v)) dOmega
        = surface integral of (v dphi/dn - phi dv/dn).

The residual of the discretized identity is the lemma check underlying the
boundary-augmented fractional Laplacian.
"""

from __future__ import annotations

import numpy as np

from .domain import boundary_quadrature
from .quadrature import DEFAULT_GAUSS_ORDER, gauss_panel

__all__ = ["volume_quadrature", "green_residual"]


def volume_quadrature(grid, gauss_order=DEFAULT_GAUSS_ORDER):
    """Per-cell tensor Gauss rule over the whole domain; (points, weights)."""
    if grid.dim == 1:
        pts, wts = [], []
        for lo, hi in zip(grid.nodes[:-1], grid.nodes[1:]):
            x, w = gauss_panel(lo, hi, gauss_order)
            pts.append(x)
            wts.append(w)
        return np.concatenate(pts), np.concatenate(wts)
    px, wx = [], []
    for lo, hi in zip(grid.x_nodes[:-1], grid.x_nodes[1:]):
        x, w = gauss_panel(lo, hi, gauss_order)
        px.append(x)
        wx.append(w)
    py, wy = [], []
    for lo, hi in zip(grid.y_nodes[:-1], grid.y_nodes[1:]):
        y, w = gauss_panel(lo, hi, gauss_order)
        py.append(y)
        wy.append(w)
    px, wx = np.concatenate(px), np.concatenate(wx)
    py, wy = np.concatenate(py), np.concatenate(wy)
    gx, gy = np.meshgrid(px, py, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    wts = np.outer(wx, wy).ravel()
    return pts, wts


def green_residual(grid, phi, v, gauss_order=DEFAULT_GAUSS_ORDER, panels_per_edge=None) -> float:
    """Absolute residual of Green's second identity for the pair (phi, v)."""
    pts, wts = volume_quadrature(grid, gauss_order)
    phi_v, v_v = phi.value(pts), v.value(pts)
    phi_l, v_l = phi.laplacian(pts), v.laplacian(pts)
    for arr in (phi_v, v_v, phi_l, v_l):
        if not np.all(np.isfinite(arr)):
            raise ValueError("green_residual requires both fields to be "
                             "finite on the whole closed domain")
    lhs = float(np.sum(wts * (v_v * phi_l - phi_v * v_l)))
    bq = boundary_quadrature(grid, panels_per_edge=panels_per_edge, gauss_order=gauss_order)
    surf = float(np.sum(bq.weights * (v.value(bq.points)
                                      * phi.normal_derivative(bq.points, bq.normals)
                                      - phi.value(bq.points)
                                      * v.normal_derivative(bq.points, bq.normals))))
    return abs(lhs - surf)
