"""Bounded domains (interval, rectangle), test fields, and boundary data.

Both grids share one set of methods written from ``bounds`` and ``axes``:
``(nodes,)`` or ``(x_nodes, y_nodes)``.  The boundary quadrature takes its
facets and facet rule from :mod:`fraclap.quadrature`, as the Duffy fans do.

A field is a ``TestFunction``, analytic or ``TestFunction.sampled``.  Inside
the package points are (N, d) in both dimensions; 1D scalars and (N,) arrays
appear only at the public edges (``TestFunction``'s methods, ``interior_nodes``
and the points ``evaluate`` and ``riesz_potential_field`` return).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingBoundaryData
from .quadrature import DEFAULT_GAUSS_ORDER, box_facets, facet_rule

__all__ = [
    "Grid1D",
    "Grid2D",
    "make_interval_grid",
    "make_rectangle_grid",
    "BoundaryQuadrature",
    "boundary_quadrature",
    "TestFunction",
    "FieldAdapter",
    "BoundaryData",
]


MARGIN_CELLS = 2   # interior margin, in cells, of evaluation points and interior nodes


def _product_points(axes):
    """The tensor product of per-axis nodes as (N, d) points, the last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _public_points(pts):
    """(N, d) points in the public layout: (N,) in 1D, unchanged in 2D."""
    return pts[:, 0] if pts.shape[1] == 1 else pts


class _Box:
    """Grid methods shared by both dimensions, written from ``bounds`` and ``axes``."""

    @property
    def dim(self):
        return len(self.axes)

    def _sides(self):
        """(lo, hi, nodes) of each axis."""
        return zip(self.bounds[0::2], self.bounds[1::2], self.axes)

    @property
    def spacing(self):
        """The widest cell width over the axes."""
        return max((hi - lo) / (len(ax) - 1) for lo, hi, ax in self._sides())

    @property
    def diameter(self):
        return float(np.hypot.reduce([hi - lo for lo, hi, _ in self._sides()]))

    @property
    def measure(self):
        return math.prod(hi - lo for lo, hi, _ in self._sides())

    def distance_to_boundary(self, x):
        p = np.asarray(x, float).reshape(self.dim)
        return float(min(min(pk - lo, hi - pk) for pk, (lo, hi, _) in zip(p, self._sides())))

    def interior_nodes(self, margin_cells=MARGIN_CELLS):
        """Nodes at least ``margin_cells`` cells from the boundary: (N,) in 1D, (N, 2) in 2D."""
        delta = margin_cells * self.spacing
        kept = [ax[(ax - lo >= delta - 1e-14) & (hi - ax >= delta - 1e-14)]
                for lo, hi, ax in self._sides()]
        return _public_points(_product_points(kept))


@dataclass(frozen=True)
class Grid1D(_Box):
    """Uniform interval grid."""

    a: float
    b: float
    n: int
    nodes: np.ndarray

    @property
    def bounds(self):
        return (self.a, self.b)

    @property
    def axes(self):
        return (self.nodes,)


@dataclass(frozen=True)
class Grid2D(_Box):
    """Tensor-product rectangle grid."""

    a1: float
    b1: float
    a2: float
    b2: float
    nx: int
    ny: int
    x_nodes: np.ndarray
    y_nodes: np.ndarray

    @property
    def bounds(self):
        return (self.a1, self.b1, self.a2, self.b2)

    @property
    def axes(self):
        return (self.x_nodes, self.y_nodes)


def make_interval_grid(a: float, b: float, n: int) -> Grid1D:
    """Uniform grid of n nodes on [a, b], endpoints included."""
    if not b > a:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    if n < 3:
        raise ValueError(f"need at least 3 nodes, got {n}")
    return Grid1D(a=a, b=b, n=n, nodes=np.linspace(a, b, n))


def make_rectangle_grid(a1, b1, a2, b2, nx, ny) -> Grid2D:
    if not (b1 > a1 and b2 > a2):
        raise ValueError(f"degenerate rectangle [{a1},{b1}]x[{a2},{b2}]")
    if nx < 3 or ny < 3:
        raise ValueError(f"need at least 3 nodes per direction, got {nx}x{ny}")
    return Grid2D(a1=a1, b1=b1, a2=a2, b2=b2, nx=nx, ny=ny,
                  x_nodes=np.linspace(a1, b1, nx), y_nodes=np.linspace(a2, b2, ny))


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Surface rule: points, unit outward normals, weights."""

    points: np.ndarray   # (M, d)
    normals: np.ndarray  # (M, d)
    weights: np.ndarray  # (M,)

    def __len__(self):
        return len(self.weights)


def boundary_quadrature(grid, gauss_order=DEFAULT_GAUSS_ORDER) -> BoundaryQuadrature:
    """Surface quadrature: ``facet_rule`` on each of the box's facets.

    In 1D that is the two endpoints with weight 1.  In 2D every edge is
    split into ``max(nx, ny) - 1`` equal Gauss panels, the number of cells
    along the grid's longer direction, whatever the edge's length.
    """
    bounds = np.asarray(grid.bounds, float)
    lo, hi = bounds[0::2], bounds[1::2]
    verts, normals = box_facets(lo, hi)
    bary, w = facet_rule(grid.dim, max(len(ax) for ax in grid.axes) - 1, gauss_order)
    # the facet normal to one axis spans the box's sides along the others
    size = np.prod(np.where(normals == 0.0, hi - lo, 1.0), axis=1)
    return BoundaryQuadrature(points=(bary @ verts).reshape(-1, grid.dim),
                              normals=np.repeat(normals, len(w), axis=0),
                              weights=(size[:, None] * w).ravel())


def _as_points(x, dim):
    """Normalize input to (N, dim) plus a flag for scalar input."""
    arr = np.asarray(x, float)
    if dim == 1:
        scalar = arr.ndim == 0
        return arr.reshape(-1, 1), scalar
    if arr.ndim == 1:
        return arr.reshape(1, dim), True
    return arr.reshape(-1, dim), False


@dataclass(frozen=True)
class TestFunction:
    """Scalar field with gradient, Laplacian and Hessian.

    The analytic factories give exact derivatives; ``sampled`` interpolates
    nodal samples.  All evaluators accept scalars / (N,) arrays in 1D and
    (2,) / (N, 2) arrays in 2D, returning matching shapes; the callables
    behind them take (N, d) points.
    """

    kind: str
    dim: int
    _value: object = field(repr=False)
    _gradient: object = field(repr=False)
    _laplacian: object = field(repr=False)
    _hessian: object = field(repr=False)

    def value(self, x):
        pts, scalar = _as_points(x, self.dim)
        out = self._value(pts)
        return float(out[0]) if scalar else out

    def gradient(self, x):
        pts, scalar = _as_points(x, self.dim)
        out = self._gradient(pts)
        if self.dim == 1:
            out = out.reshape(-1)
            return float(out[0]) if scalar else out
        return out[0] if scalar else out

    def laplacian(self, x):
        pts, scalar = _as_points(x, self.dim)
        out = self._laplacian(pts)
        return float(out[0]) if scalar else out

    def hessian(self, x):
        pts, scalar = _as_points(x, self.dim)
        out = self._hessian(pts)
        return out[0] if scalar else out

    def normal_derivative(self, x, normal):
        pts, scalar = _as_points(x, self.dim)
        g = self._gradient(pts)
        n = np.asarray(normal, float).reshape(-1, self.dim)
        out = np.einsum("ij,ij->i", g, np.broadcast_to(n, g.shape))
        return float(out[0]) if scalar else out

    # ---- factories -------------------------------------------------------

    @staticmethod
    def constant(c, dim=1):
        return TestFunction(
            kind=f"const:{c}", dim=dim,
            _value=lambda p: np.full(len(p), float(c)),
            _gradient=lambda p: np.zeros((len(p), dim)),
            _laplacian=lambda p: np.zeros(len(p)),
            _hessian=lambda p: np.zeros((len(p), dim, dim)),
        )

    @staticmethod
    def affine(gradient, offset=0.0, dim=None):
        g = np.atleast_1d(np.asarray(gradient, float))
        if dim is None:
            dim = len(g)
        return TestFunction(
            kind=f"affine:{','.join(map(str, g))},{offset}", dim=dim,
            _value=lambda p: p @ g + float(offset),
            _gradient=lambda p: np.broadcast_to(g, (len(p), dim)).copy(),
            _laplacian=lambda p: np.zeros(len(p)),
            _hessian=lambda p: np.zeros((len(p), dim, dim)),
        )

    @staticmethod
    def quadratic(dim=1):
        """Sum of squared coordinates; Laplacian is 2*dim everywhere."""
        eye = np.eye(dim)
        return TestFunction(
            kind="quad", dim=dim,
            _value=lambda p: np.sum(p * p, axis=1),
            _gradient=lambda p: 2.0 * p,
            _laplacian=lambda p: np.full(len(p), 2.0 * dim),
            _hessian=lambda p: np.broadcast_to(2.0 * eye, (len(p), dim, dim)).copy(),
        )

    @staticmethod
    def gaussian_bump(center, width):
        c = np.atleast_1d(np.asarray(center, float))
        dim = len(c)
        w2 = float(width) ** 2

        def val(p):
            return np.exp(-np.sum((p - c) ** 2, axis=1) / (2.0 * w2))

        def grad(p):
            return -(p - c) / w2 * val(p)[:, None]

        def lap(p):
            r2 = np.sum((p - c) ** 2, axis=1)
            return (r2 / w2 ** 2 - dim / w2) * val(p)

        def hess(p):
            d = p - c
            outer = np.einsum("ij,ik->ijk", d, d) / w2 ** 2
            return (outer - np.eye(dim)[None, :, :] / w2) * val(p)[:, None, None]

        return TestFunction(kind=f"gauss:{','.join(map(str, c))},{width}", dim=dim,
                            _value=val, _gradient=grad, _laplacian=lap, _hessian=hess)

    @staticmethod
    def sine_mode(k, grid):
        """Product of sine modes vanishing on the boundary of ``grid``; a derivative of
        the product is the product of the matching derivatives of its factors."""
        bounds = np.asarray(grid.bounds, float)
        k, dim, lo = int(k), grid.dim, bounds[0::2]
        om = k * np.pi / (bounds[1::2] - lo)
        eye = np.eye(dim, dtype=int)

        def val(p):
            return np.prod(np.sin(om * (p - lo)), axis=1)

        def derivative(p, orders):
            """Product over l of derivative orders[..., l] of factor l: orders.shape[:-1] + (N,)."""
            t = om * (p - lo)
            factors = np.stack([np.sin(t), om * np.cos(t), -om ** 2 * np.sin(t)])
            return np.prod(factors[orders, :, np.arange(dim)], axis=orders.ndim - 1)

        return TestFunction(
            kind=f"sine:{k}", dim=dim, _value=val,
            _gradient=lambda p: derivative(p, eye).T,
            _laplacian=lambda p: -np.sum(om ** 2) * val(p),
            _hessian=lambda p: derivative(p, eye[:, None] + eye[None, :]).transpose(2, 0, 1))

    @staticmethod
    def sampled(grid, values):
        """Nodal samples on ``grid``, interpolated piecewise linearly (1D) or bilinearly (2D).

        The Laplacian is the interpolated second-order difference Laplacian of
        the samples, built on first use.  The gradient is a central difference
        of the interpolant.  The Hessian is the Laplacian in 1D and a
        nine-point difference of the interpolant, with a fixed step, in 2D.
        """
        samples = np.asarray(values, float)
        shape = tuple(len(ax) for ax in grid.axes)
        if samples.shape != shape:
            raise ValueError(f"samples must have shape {shape}, got {samples.shape}")
        dim, val = grid.dim, _interpolant(grid, samples)
        lap_interpolant = functools.cache(
            lambda: _interpolant(grid, _discrete_laplacian(grid, samples)))
        scale = max(1.0, grid.diameter)

        def lap(p):
            return lap_interpolant()(p)

        def grad(p):
            h = 1e-5 * scale
            return np.column_stack([(val(p + e) - val(p - e)) / (2 * h) for e in h * np.eye(dim)])

        def hess(p):
            if dim == 1:
                return lap(p).reshape(-1, 1, 1)
            h = 2e-4 * scale

            def f(i, j):
                return val(p + h * np.array([i, j], float))

            f0 = f(0, 0)
            dxx = (f(1, 0) - 2 * f0 + f(-1, 0)) / h ** 2
            dyy = (f(0, 1) - 2 * f0 + f(0, -1)) / h ** 2
            dxy = (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4 * h ** 2)
            return np.moveaxis(np.array([[dxx, dxy], [dxy, dyy]]), -1, 0)

        return TestFunction(kind="sampled:" + "x".join(map(str, shape)), dim=dim,
                            _value=val, _gradient=grad, _laplacian=lap, _hessian=hess)


def _interpolant(grid, values):
    """Piecewise-linear (1D) or bilinear (2D) interpolant of nodal values, of (N, d) points."""
    if grid.dim == 1:
        return lambda pts: np.interp(pts[:, 0], grid.nodes, values)

    def bilinear(pts):
        # cell index clipped to the grid, fraction not: points outside
        # extrapolate linearly from the boundary cell
        cells = []
        for k, ax in enumerate(grid.axes):
            i = np.clip(np.searchsorted(ax, pts[:, k]) - 1, 0, len(ax) - 2)
            cells.append((i, (pts[:, k] - ax[i]) / (ax[i + 1] - ax[i])))
        (i, tx), (j, ty) = cells
        return ((1.0 - tx) * ((1.0 - ty) * values[i, j] + ty * values[i, j + 1])
                + tx * ((1.0 - ty) * values[i + 1, j] + ty * values[i + 1, j + 1]))
    return bilinear


def _discrete_laplacian(grid, v):
    """Second-order FD Laplacian of nodal values ``v``, edges copied from neighbors."""
    lap = np.zeros_like(v)
    inner = (slice(1, -1),) * grid.dim
    for k, (lo, hi, ax) in enumerate(grid._sides()):
        ahead, behind = (inner[:k] + (sl,) + inner[k + 1:]
                         for sl in (slice(2, None), slice(None, -2)))
        lap[inner] += (v[ahead] - 2.0 * v[inner] + v[behind]) / ((hi - lo) / (len(ax) - 1)) ** 2
    for k in range(grid.dim):
        edge = (slice(None),) * k
        lap[edge + (0,)], lap[edge + (-1,)] = lap[edge + (1,)], lap[edge + (-2,)]
    return lap


def as_field(grid, phi):
    """``phi`` as a TestFunction: itself, or ``TestFunction.sampled(grid, phi)`` for samples."""
    return phi if isinstance(phi, TestFunction) else TestFunction.sampled(grid, phi)


class FieldAdapter:
    """A route's view of a field, made for each call: ``value`` and ``laplacian``
    of (N, d) points, ``value_at``, ``gradient_at`` and ``hessian_at`` of one point.

    ``phi`` is a TestFunction or nodal samples of ``grid`` (see ``as_field``).
    """

    def __init__(self, grid, phi):
        field = as_field(grid, phi)
        self.dim = field.dim
        self.value, self.laplacian = field._value, field._laplacian
        self.gradient_at, self.hessian_at = self._at(field._gradient), self._at(field._hessian)

    def _at(self, fn):
        """``fn`` of (N, d) points as a function of one point."""
        return lambda x: fn(np.asarray(x, float).reshape(1, self.dim))[0]

    def value_at(self, x):
        return float(self.value(np.asarray(x, float).reshape(1, self.dim))[0])


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet and Neumann traces at the points of a boundary quadrature.

    Missing entries are NaN; the augmented evaluator requires full coverage
    of both traces and rejects anything less at evaluation time.
    """

    quadrature: BoundaryQuadrature
    dirichlet: np.ndarray
    neumann: np.ndarray

    def __post_init__(self):
        m = len(self.quadrature)
        if len(self.dirichlet) != m or len(self.neumann) != m:
            raise ValueError("trace arrays must match the boundary quadrature size")

    @classmethod
    def from_function(cls, bq: BoundaryQuadrature, f: TestFunction) -> "BoundaryData":
        """Traces of ``f`` on every quadrature point: its value and outward normal derivative."""
        return cls(quadrature=bq, dirichlet=np.asarray(f.value(bq.points), float),
                   neumann=np.asarray(f.normal_derivative(bq.points, bq.normals), float))

    @classmethod
    def from_values(cls, bq: BoundaryQuadrature, dirichlet, neumann) -> "BoundaryData":
        d = np.broadcast_to(np.asarray(dirichlet, float), (len(bq),)).copy()
        n = np.broadcast_to(np.asarray(neumann, float), (len(bq),)).copy()
        return cls(quadrature=bq, dirichlet=d, neumann=n)

    def require_full(self):
        if np.isnan(self.dirichlet).any() or np.isnan(self.neumann).any():
            raise MissingBoundaryData(
                "augmented evaluation needs Dirichlet and Neumann traces at "
                "every boundary quadrature point")
        return self
