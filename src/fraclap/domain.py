"""Bounded domains (interval, rectangle), test fields, and boundary data.

One ``Grid`` serves both dimensions: the box's corners ``lo`` and ``hi`` and
the nodes along each axis, ``axes``.  Evaluation points and interior nodes
keep one margin from the boundary, ``Grid.margin``, up to ``MARGIN_TOL``.
The boundary quadrature takes the box's facets and the facet rule from
:mod:`fraclap.quadrature`, as the Duffy fans do, and both are built once;
``BoundaryData`` holds a field's traces on it, refusing NaN and infinity.

A field is a ``TestFunction``, analytic or ``TestFunction.sampled``: the
constant, affine and quadratic fields are one quadratic form, and samples one
multilinear interpolant, whatever the dimension.  Inside the package points are
(N, d) in both dimensions; 1D scalars and (N,) arrays appear only at the
public edges (``TestFunction``'s methods, ``interior_nodes`` and the points
``evaluate`` and ``riesz_potential_field`` return).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingBoundaryData
from .quadrature import DEFAULT_GAUSS_ORDER, box_facets, facet_rule

__all__ = [
    "Grid",
    "make_interval_grid",
    "make_rectangle_grid",
    "BoundaryQuadrature",
    "boundary_quadrature",
    "TestFunction",
    "FieldAdapter",
    "BoundaryData",
]


MARGIN_CELLS = 2   # interior margin, in cells, of evaluation points and interior nodes
MARGIN_TOL = 1e-12  # absolute slack of every margin test, for round-off in node positions


def _product_points(axes):
    """The tensor product of per-axis nodes as (N, d) points, the last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _squared_norms(v):
    """The squared length of each row of (N, d) ``v``, summed column by column: the
    bits of ``np.sum(v * v, axis=1)``, without numpy's reduction over an axis of 1 or 2."""
    out = v[:, 0] * v[:, 0]
    for k in range(1, v.shape[1]):
        out += v[:, k] * v[:, k]
    return out


def _public_points(pts):
    """(N, d) points in the public layout: (N,) in 1D, unchanged in 2D."""
    return pts[:, 0] if pts.shape[1] == 1 else pts


def _axis_alias(name, dim, k):
    """``axes[k]`` under its own name, on a grid of dimension ``dim`` only."""
    def get(grid):
        if grid.dim != dim:
            raise AttributeError(f"{name} is defined on a {dim}D grid, not on a {grid.dim}D one")
        return grid.axes[k]
    return property(get)


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor-product grid on the box [lo, hi]: an interval or a rectangle.

    ``lo`` and ``hi`` are the box's corners as tuples of floats, one entry
    per axis, and ``axes`` the nodes along each axis, both ends included.
    Grids compare and hash by identity, since field-wise equality would
    compare the node arrays; tables shared per box key on ``(lo, hi)``.
    """

    lo: tuple
    hi: tuple
    axes: tuple

    # an interval's nodes and a rectangle's per-axis nodes, under their names
    nodes = _axis_alias("nodes", 1, 0)
    x_nodes = _axis_alias("x_nodes", 2, 0)
    y_nodes = _axis_alias("y_nodes", 2, 1)

    @property
    def dim(self):
        return len(self.axes)

    @property
    def bounds(self):
        """(a, b) on an interval, (a1, b1, a2, b2) on a rectangle."""
        return tuple(t for side in zip(self.lo, self.hi) for t in side)

    @property
    def steps(self):
        """The cell width along each axis."""
        return [(hi - lo) / (len(ax) - 1) for lo, hi, ax in zip(self.lo, self.hi, self.axes)]

    @property
    def spacing(self):
        """The widest cell width over the axes."""
        return max(self.steps)

    @property
    def margin(self):
        """The interior margin of evaluation points and interior nodes: ``MARGIN_CELLS`` cells."""
        return MARGIN_CELLS * self.spacing

    @property
    def diameter(self):
        return float(np.hypot.reduce(np.subtract(self.hi, self.lo)))

    def distance_to_boundary(self, x):
        """Distance of x to the box's boundary: negative outside the box, NaN for NaN input."""
        p = np.asarray(x, float).reshape(self.dim).tolist()
        if any(map(math.isnan, p)):
            return math.nan
        return min(min(pk - lo, hi - pk) for pk, lo, hi in zip(p, self.lo, self.hi))

    def check_margin(self, x):
        """Distance of x to the boundary, ``margin`` or more up to ``MARGIN_TOL``, or ValueError."""
        dist, delta = self.distance_to_boundary(x), self.margin
        if not dist >= delta - MARGIN_TOL:  # written so that NaN fails too
            raise ValueError(
                f"evaluation point {np.asarray(x, float).tolist()} violates the interior margin "
                f"(distance {dist:.3g} < delta {delta:.3g})")
        return dist

    def interior_nodes(self):
        """Nodes at least ``margin`` from the boundary, up to ``MARGIN_TOL``:
        (N,) in 1D, (N, 2) in 2D."""
        delta = self.margin - MARGIN_TOL
        kept = [ax[(ax - lo >= delta) & (hi - ax >= delta)]
                for lo, hi, ax in zip(self.lo, self.hi, self.axes)]
        return _public_points(_product_points(kept))


def _make_grid(lo, hi, sizes):
    """The grid of ``sizes`` nodes per axis on the box [lo, hi]."""
    lo, hi = tuple(map(float, lo)), tuple(map(float, hi))
    if not all(b > a for a, b in zip(lo, hi)):  # written so that NaN fails too
        raise ValueError("degenerate box " + "x".join(f"[{a}, {b}]" for a, b in zip(lo, hi)))
    if min(sizes) < 3:
        raise ValueError(f"need at least 3 nodes per axis, got {'x'.join(map(str, sizes))}")
    return Grid(lo, hi, tuple(np.linspace(a, b, n) for a, b, n in zip(lo, hi, sizes)))


def make_interval_grid(a: float, b: float, n: int) -> Grid:
    """Uniform grid of n nodes on [a, b], endpoints included."""
    return _make_grid((a,), (b,), (n,))


def make_rectangle_grid(a1, b1, a2, b2, nx, ny) -> Grid:
    """Tensor-product grid of nx by ny nodes on [a1, b1] x [a2, b2], edges included."""
    return _make_grid((a1, a2), (b1, b2), (nx, ny))


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
    verts, normals, size = box_facets(grid.lo, grid.hi)
    bary, w = facet_rule(grid.dim, max(len(ax) for ax in grid.axes) - 1, gauss_order)
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

    dim: int
    _value: object = field(repr=False)
    _gradient: object = field(repr=False)
    _laplacian: object = field(repr=False)
    _hessian: object = field(repr=False)

    def _edge(self, fn, x):
        """``fn`` of (N, d) points on public-layout ``x``, one point's result unwrapped."""
        pts, scalar = _as_points(x, self.dim)
        out = fn(pts)
        if not scalar:
            return out
        return float(out[0]) if out.ndim == 1 else out[0]

    def value(self, x):
        return self._edge(self._value, x)

    def gradient(self, x):
        """(N, d), or (N,) in 1D."""
        return self._edge(lambda p: _public_points(self._gradient(p)), x)

    def laplacian(self, x):
        return self._edge(self._laplacian, x)

    def hessian(self, x):
        return self._edge(self._hessian, x)

    def normal_derivative(self, x, normal):
        n = np.asarray(normal, float).reshape(-1, self.dim)

        def flux(p):
            g = self._gradient(p)
            return np.einsum("ij,ij->i", g, np.broadcast_to(n, g.shape))
        return self._edge(flux, x)

    # ---- factories -------------------------------------------------------

    @staticmethod
    def constant(c, dim=1):
        return _quadratic_form(np.zeros((dim, dim)), np.zeros(dim), c)

    @staticmethod
    def affine(gradient, offset=0.0):
        g = np.atleast_1d(np.asarray(gradient, float))
        return _quadratic_form(np.zeros((len(g), len(g))), g, offset)

    @staticmethod
    def quadratic(dim=1):
        """Sum of squared coordinates; Laplacian is 2*dim everywhere."""
        return _quadratic_form(np.eye(dim), np.zeros(dim), 0.0)

    @staticmethod
    def gaussian_bump(center, width):
        c, width = np.atleast_1d(np.asarray(center, float)), float(width)
        if not np.all(np.isfinite(c)):
            raise ValueError(f"gaussian bump center must be finite, got {c.tolist()}")
        if not 0.0 < width < math.inf:  # written so that NaN fails too
            raise ValueError(f"gaussian bump width must be finite and > 0, got {width!r}")
        dim = len(c)
        w2 = width ** 2

        def bump(p):
            """p - c, r^2 = |p - c|^2 and the bump's value exp(-r^2 / 2w^2), once per call."""
            d = p - c
            r2 = _squared_norms(d)
            return d, r2, np.exp(-r2 / (2.0 * w2))

        def grad(p):
            d, _, v = bump(p)
            return -d / w2 * v[:, None]

        def lap(p):
            _, r2, v = bump(p)
            return (r2 / w2 ** 2 - dim / w2) * v

        def hess(p):
            d, _, v = bump(p)
            outer = np.einsum("ij,ik->ijk", d, d) / w2 ** 2
            return (outer - np.eye(dim)[None, :, :] / w2) * v[:, None, None]

        return TestFunction(dim=dim, _value=lambda p: bump(p)[2], _gradient=grad,
                            _laplacian=lap, _hessian=hess)

    @staticmethod
    def sine_mode(k, grid):
        """Product of sine modes vanishing on the boundary of ``grid``; a derivative of
        the product is the product of the matching derivatives of its factors."""
        k, dim, lo = int(k), grid.dim, np.array(grid.lo)
        om = k * np.pi / (np.array(grid.hi) - lo)
        eye = np.eye(dim, dtype=int)

        def val(p):
            return np.prod(np.sin(om * (p - lo)), axis=1)

        def derivative(p, orders):
            """Product over l of derivative orders[..., l] of factor l: orders.shape[:-1] + (N,)."""
            t = om * (p - lo)
            factors = np.stack([np.sin(t), om * np.cos(t), -om ** 2 * np.sin(t)])
            return np.prod(factors[orders, :, np.arange(dim)], axis=orders.ndim - 1)

        return TestFunction(
            dim=dim, _value=val,
            _gradient=lambda p: derivative(p, eye).T,
            _laplacian=lambda p: -np.sum(om ** 2) * val(p),
            _hessian=lambda p: derivative(p, eye[:, None] + eye[None, :]).transpose(2, 0, 1))

    @staticmethod
    def sampled(grid, values):
        """Nodal samples on ``grid`` as a field, on one multilinear interpolant.

        The value is the multilinear interpolant of the samples (linear on an
        interval, bilinear on a rectangle); outside the grid it extrapolates
        linearly from the boundary cell.  The Hessian is the interpolant of the
        samples' central second differences, mixed terms included, and the
        Laplacian the interpolant of their trace; both are built on first use.
        The gradient is a central difference of the value interpolant.

        At a grid node, ``hyper`` and ``augmented`` on sampled input have no limit
        for s >= 1: the interpolant's kink leaves a Taylor remainder of order r,
        not r^2, so the value doubles each time the radial order doubles.
        """
        samples = np.asarray(values, float)
        shape = tuple(len(ax) for ax in grid.axes)
        if samples.shape != shape:
            raise ValueError(f"samples must have shape {shape}, got {samples.shape}")
        if not np.isfinite(samples).all():
            raise ValueError("samples must be finite, got NaN or infinity")
        dim, val = grid.dim, _interpolant(grid, samples)

        @functools.cache
        def curvature():
            """The interpolants of the nodal Laplacian and Hessian."""
            second = _second_differences(grid, samples)
            return (_interpolant(grid, np.trace(second, axis1=-2, axis2=-1)),
                    _interpolant(grid, second))

        h = 1e-5 * max(1.0, grid.diameter)
        shifts = (h * np.concatenate([np.eye(dim), -np.eye(dim)]))[:, None, :]

        def grad(p):
            # the 2d shifted copies of the points in one interpolant call
            f = val((p + shifts).reshape(-1, dim)).reshape(2, dim, len(p))
            return ((f[0] - f[1]) / (2 * h)).T

        return TestFunction(dim=dim, _value=val, _gradient=grad,
                            _laplacian=lambda p: curvature()[0](p),
                            _hessian=lambda p: curvature()[1](p))


def _quadratic_form(a, g, c):
    """The field x·a·x + g·x + c of a symmetric (d, d) ``a``: gradient 2ax + g, Hessian 2a."""
    dim, c, hess = len(g), float(c), 2.0 * a
    for name, coef in (("quadratic coefficients", a), ("gradient", g), ("constant term", c)):
        if not np.all(np.isfinite(coef)):
            raise ValueError(f"field {name} must be finite, got {np.asarray(coef).tolist()}")
    lap = np.trace(hess)
    return TestFunction(
        dim=dim,
        _value=lambda p: np.einsum("ij,ij->i", p, p @ a) + p @ g + c,
        _gradient=lambda p: p @ hess + g,
        _laplacian=lambda p: np.full(len(p), lap),
        _hessian=lambda p: np.broadcast_to(hess, (len(p), dim, dim)).copy(),
    )


def _interpolant(grid, values):
    """Multilinear interpolant of nodal ``values`` at (N, d) points.

    ``values`` has the grid's shape followed by any trailing axes, which the
    result keeps: (N, *trailing).  The cell comes from arithmetic on the
    uniform grid and is clipped to it; the fraction is not, so points outside
    extrapolate linearly from the boundary cell.  The 2^d corners are
    interpolated the last axis first.
    """
    shape = tuple(len(ax) for ax in grid.axes)
    trailing = values.shape[len(shape):]
    flat = values.reshape((-1,) + trailing)
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    corners = np.array([[sum(itertools.compress(strides, bits))]   # the last axis fastest
                        for bits in itertools.product((0, 1), repeat=len(shape))])
    # per axis: first node, step, last cell, stride in ``flat``, nodes, cell widths
    sides = [(ax[0], step, len(ax) - 2, stride, ax, np.diff(ax))
             for ax, step, stride in zip(grid.axes, grid.steps, strides)]
    ones = (1,) * len(trailing)

    def interpolate(pts):
        index, fractions = 0, []
        for k, (origin, step, top, stride, ax, width) in enumerate(sides):
            i = np.minimum(np.maximum(((pts[:, k] - origin) / step).astype(np.intp), 0), top)
            index = index + i * stride
            fractions.append((pts[:, k] - ax[i]) / width[i])
        c = flat[corners + index]
        for t in reversed(fractions):
            c = c.reshape((-1, 2) + c.shape[1:])
            t = t.reshape((-1,) + ones)
            c = (1.0 - t) * c[:, 0] + t * c[:, 1]
        return c[0]
    return interpolate


def _second_differences(grid, v):
    """Central second differences of nodal values ``v``, mixed terms included.

    Returns the grid's shape followed by (d, d); edge nodes copy their
    neighbours' values.  The trace is the second-order difference Laplacian.
    """
    d, step = grid.dim, grid.steps
    out = np.zeros(v.shape + (d, d))
    inner = (slice(1, -1),) * d

    def at(shift):
        """``v`` at the inner nodes moved by ``shift`` nodes."""
        return v[tuple(slice(1 + o, n - 1 + o) for o, n in zip(shift, v.shape))]

    eye = np.eye(d, dtype=int)
    for k, e in enumerate(eye):
        out[inner + (k, k)] = (at(e) - 2.0 * at(0 * e) + at(-e)) / step[k] ** 2
        for m, f in enumerate(eye[k + 1:], start=k + 1):
            out[inner + (k, m)] = out[inner + (m, k)] = (
                (at(e + f) - at(e - f) - at(f - e) + at(-e - f)) / (4.0 * step[k] * step[m]))
    for k in range(d):
        edge = (slice(None),) * k
        out[edge + (0,)], out[edge + (-1,)] = out[edge + (1,)], out[edge + (-2,)]
    return out


def as_field(grid, phi):
    """``phi`` as a TestFunction: itself, or ``TestFunction.sampled(grid, phi)`` for samples."""
    return phi if isinstance(phi, TestFunction) else TestFunction.sampled(grid, phi)


class FieldAdapter:
    """A route's view of a TestFunction, made for each call: ``value`` and ``laplacian``
    of (N, d) points, ``value_at``, ``gradient_at`` and ``hessian_at`` of one point."""

    def __init__(self, field):
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
    """Dirichlet and Neumann traces at the points of a boundary quadrature, both finite
    everywhere as the augmented form needs: NaN or infinity raises ``MissingBoundaryData``."""

    quadrature: BoundaryQuadrature
    dirichlet: np.ndarray
    neumann: np.ndarray

    def __post_init__(self):
        m = len(self.quadrature)
        if len(self.dirichlet) != m or len(self.neumann) != m:
            raise ValueError("trace arrays must match the boundary quadrature size")
        if not (np.isfinite(self.dirichlet).all() and np.isfinite(self.neumann).all()):
            raise MissingBoundaryData("boundary traces must be finite, got NaN or infinity")

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
