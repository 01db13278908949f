"""Grids, boundary quadrature, analytic test fields, and boundary traces."""

import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

import fraclap
from fraclap import domain
from fraclap.domain import (BoundaryData, Grid, TestFunction,
                            boundary_quadrature, make_interval_grid, make_rectangle_grid)
from fraclap.errors import MissingBoundaryData
from fraclap.operators import Definition, FracLapRequest, evaluate
from fraclap.quadrature import RuleParams, box_facets


class TestGrids:
    def test_interval_basics(self):
        g = make_interval_grid(0.0, 2.0, 5)
        assert g.dim == 1
        assert g.spacing == pytest.approx(0.5)
        assert g.diameter == pytest.approx(2.0)
        assert g.margin == pytest.approx(1.0)  # two cells
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            make_interval_grid(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            make_interval_grid(0.0, 1.0, 2)

    def test_rectangle_basics(self):
        g = make_rectangle_grid(0.0, 2.0, -1.0, 1.0, 5, 9)
        assert g.dim == 2
        assert g.diameter == pytest.approx(np.hypot(2.0, 2.0))
        assert g.spacing == pytest.approx(0.5)
        assert g.margin == pytest.approx(1.0)  # two of the wider cells

    def test_rectangle_validation(self):
        with pytest.raises(ValueError):
            make_rectangle_grid(0, 1, 1, 1, 5, 5)
        with pytest.raises(ValueError):
            make_rectangle_grid(0, 1, 0, 1, 2, 5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, hi, shown", [
        ((0.0,), (math.inf,), "[0.0, inf]"),
        ((-math.inf,), (0.0,), "[-inf, 0.0]"),
        ((-1e308,), (1e308,), "[-1e+308, 1e+308]"),
        ((0.0, 0.0), (1.0, math.inf), "[0.0, 1.0]x[0.0, inf]"),
        ((-1e308, 0.0), (1e308, 1.0), "[-1e+308, 1e+308]x[0.0, 1.0]"),
    ], ids=["inf-hi", "inf-lo", "overflow", "rectangle-inf", "rectangle-overflow"])
    def test_infinite_width_is_rejected_before_the_nodes(self, lo, hi, shown):
        # linspace would fill such an axis with NaN and infinity, with warnings
        make = make_interval_grid if len(lo) == 1 else make_rectangle_grid
        args = [t for side in zip(lo, hi) for t in side] + [5] * len(lo)
        with pytest.raises(ValueError, match=re.escape(f"box {shown} has a side of infinite width")):
            make(*args)

    def test_distance_to_boundary(self):
        g1 = make_interval_grid(0.0, 1.0, 11)
        assert g1.distance_to_boundary(0.3) == pytest.approx(0.3)
        assert g1.distance_to_boundary(0.9) == pytest.approx(0.1)
        g2 = make_rectangle_grid(0, 1, 0, 2, 5, 5)
        assert g2.distance_to_boundary([0.25, 1.0]) == pytest.approx(0.25)

    @pytest.mark.parametrize("grid", [make_interval_grid(0.0, 1.0, 11),
                                      make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 11, 21)],
                             ids=["interval", "rectangle"])
    def test_check_margin(self, grid):
        # the margin is two of the wider cells, 0.2 on both grids; NaN violates it too
        def points(t):
            return [t] if grid.dim == 1 else [[t, 0.5], [0.5, t]]
        for t, dist in ((0.35, 0.35), (0.2, 0.2), (0.8, 0.2), (0.5, 0.5)):
            for x in points(t):
                assert grid.check_margin(x) == pytest.approx(dist, rel=1e-12)
        for t in (math.nan, -0.1, 1.5, 0.2 - 1e-9, 0.8 + 1e-9):
            for x in points(t):
                with pytest.raises(ValueError, match="interior margin"):
                    grid.check_margin(x)

    def test_interior_nodes_margin(self):
        g = make_interval_grid(0.0, 1.0, 11)
        inner = g.interior_nodes()
        assert inner.min() >= 0.2 - 1e-12
        assert inner.max() <= 0.8 + 1e-12
        assert len(inner) == 7

    def test_interior_nodes_2d(self):
        g = make_rectangle_grid(0, 1, 0, 1, 9, 9)
        inner = g.interior_nodes()
        assert inner.shape == (25, 2)
        assert inner.min() >= 0.25 - 1e-12
        assert inner.max() <= 0.75 + 1e-12

    def test_factories_make_one_grid_type(self):
        g1 = make_interval_grid(0, 2, 5)
        g2 = make_rectangle_grid(0.0, 2.0, -1.0, 1.0, 5, 9)
        assert type(g1) is Grid and type(g2) is Grid
        assert (g1.lo, g1.hi, g1.bounds) == ((0.0,), (2.0,), (0.0, 2.0))
        assert (g2.lo, g2.hi, g2.bounds) == ((0.0, -1.0), (2.0, 1.0), (0.0, 2.0, -1.0, 1.0))
        assert g1.nodes is g1.axes[0]
        assert g2.x_nodes is g2.axes[0] and g2.y_nodes is g2.axes[1]
        np.testing.assert_array_equal(g2.y_nodes, np.linspace(-1.0, 1.0, 9))

    @pytest.mark.parametrize("make", [lambda: make_interval_grid(0, 1, 5),
                                      lambda: make_rectangle_grid(0, 1, 0, 2, 5, 7)],
                             ids=["interval", "rectangle"])
    def test_grids_compare_and_hash_by_identity(self, make):
        # field-wise equality would compare the node arrays and raise
        a, b = make(), make()
        assert a == a and not a != a
        assert a != b and not a == b
        assert a in [b, a] and b not in [a]
        table = {a: "a", b: "b"}
        assert table[a] == "a" and table[b] == "b" and hash(a) == hash(a)

    def test_aliases_hold_on_their_own_dimension_only(self):
        g1 = make_interval_grid(0, 2, 5)
        g2 = make_rectangle_grid(0.0, 2.0, -1.0, 1.0, 5, 9)
        assert not any(hasattr(g1, name) for name in ("x_nodes", "y_nodes"))
        with pytest.raises(AttributeError, match="nodes is defined on a 1D grid"):
            g2.nodes

    @pytest.mark.parametrize("grid", [make_interval_grid(-0.75, 1.25, 9),
                                      make_rectangle_grid(-0.75, 1.25, 0.5, 1.5, 9, 7)],
                             ids=["interval", "rectangle"])
    def test_facets_built_once_per_box(self, grid):
        verts, normals, size = box_facets(grid.lo, grid.hi)
        assert not any(a.flags.writeable for a in (verts, normals, size))
        misses = box_facets.cache_info().misses
        # the boundary rule and every volume rule on the box read the same table
        boundary_quadrature(grid)
        for x in grid.interior_nodes():
            RuleParams().build(grid, x, -0.5)
        assert box_facets.cache_info().misses == misses
        again = box_facets(grid.lo, grid.hi)
        assert all(a is b for a, b in zip(again, (verts, normals, size)))

    @settings(deadline=None, max_examples=80)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_interior_nodes_clear_the_evaluation_margin(self, dim, data):
        # one margin and one tolerance: every interior node is a valid evaluation point
        lo = [data.draw(st.floats(-50.0, 50.0)) for _ in range(dim)]
        sides = [data.draw(st.floats(0.01, 20.0)) for _ in range(dim)]
        sizes = [data.draw(st.integers(3, 60)) for _ in range(dim)]
        grid = (make_interval_grid(lo[0], lo[0] + sides[0], sizes[0]) if dim == 1 else
                make_rectangle_grid(lo[0], lo[0] + sides[0], lo[1], lo[1] + sides[1], *sizes))
        for x in grid.interior_nodes():
            assert grid.check_margin(x) >= grid.margin - 1e-12


class TestBoundaryQuadrature:
    def test_interval_endpoints(self):
        bq = boundary_quadrature(make_interval_grid(0.0, 3.0, 7))
        assert bq.points.shape == bq.normals.shape == (2, 1)
        np.testing.assert_allclose(bq.points, [[0.0], [3.0]])
        np.testing.assert_allclose(bq.normals, [[-1.0], [1.0]])
        np.testing.assert_allclose(bq.weights, [1.0, 1.0])

    def test_rectangle_perimeter(self):
        g = make_rectangle_grid(0.0, 2.0, 0.0, 1.0, 5, 5)
        bq = boundary_quadrature(g)
        assert np.sum(bq.weights) == pytest.approx(6.0, rel=1e-13)

    def test_rectangle_normals_integrate_to_zero(self):
        # closed surface: integral of the outward normal vanishes
        g = make_rectangle_grid(-1.0, 1.0, 0.0, 2.0, 5, 7)
        bq = boundary_quadrature(g)
        total = bq.weights[:, None] * bq.normals
        np.testing.assert_allclose(total.sum(axis=0), [0.0, 0.0], atol=1e-13)

    def test_divergence_theorem(self):
        # F = (x^2, x y): div F = 3x; both sides computed on [0,1]^2
        g = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 5, 5)
        bq = boundary_quadrature(g)
        F = np.column_stack([bq.points[:, 0] ** 2,
                             bq.points[:, 0] * bq.points[:, 1]])
        flux = np.sum(bq.weights * np.sum(F * bq.normals, axis=1))
        assert flux == pytest.approx(1.5, rel=1e-13)  # volume integral of 3x


    @settings(deadline=None, max_examples=60)
    @given(dim=st.sampled_from([1, 2]), data=st.data(), gauss_order=st.integers(1, 10))
    def test_closed_surface_identities(self, dim, data, gauss_order):
        lo = [data.draw(st.floats(-2.0, 2.0)) for _ in range(dim)]
        sides = [data.draw(st.floats(0.1, 3.0)) for _ in range(dim)]
        sizes = [data.draw(st.integers(3, 40)) for _ in range(dim)]
        if dim == 1:
            grid = make_interval_grid(lo[0], lo[0] + sides[0], sizes[0])
        else:
            grid = make_rectangle_grid(lo[0], lo[0] + sides[0], lo[1], lo[1] + sides[1], *sizes)
        bq = boundary_quadrature(grid, gauss_order=gauss_order)
        pts, nrm = bq.points.reshape(-1, dim), bq.normals.reshape(-1, dim)
        scale = np.max(np.abs(pts)) + 1.0
        boundary_measure = 2.0 if dim == 1 else 2.0 * sum(sides)
        # the outward normal of a closed surface integrates to zero
        np.testing.assert_allclose(bq.weights @ nrm, 0.0, atol=1e-13 * boundary_measure)
        # divergence theorem for F = x: div F = d
        assert bq.weights @ np.sum(pts * nrm, axis=1) == pytest.approx(
            dim * np.prod(np.subtract(grid.hi, grid.lo)), rel=1e-13,
            abs=1e-13 * scale * boundary_measure)
        assert np.sum(bq.weights) == pytest.approx(boundary_measure, rel=1e-13)


def _check_derivatives(f, pts, tol=5e-6):
    """Finite-difference consistency of gradient / Laplacian / Hessian."""
    h = 1e-5
    for p in pts:
        if f.dim == 1:
            p = float(p)
            g_fd = (f.value(p + h) - f.value(p - h)) / (2 * h)
            l_fd = (f.value(p + h) - 2 * f.value(p) + f.value(p - h)) / h ** 2
            assert f.gradient(p) == pytest.approx(g_fd, rel=tol, abs=tol)
            assert f.laplacian(p) == pytest.approx(l_fd, rel=1e-3, abs=1e-3)
        else:
            p = np.asarray(p, float)
            grad = f.gradient(p)
            lap_fd = 0.0
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                g_fd = (f.value(p + e) - f.value(p - e)) / (2 * h)
                lap_fd += (f.value(p + e) - 2 * f.value(p) + f.value(p - e)) / h ** 2
                assert grad[k] == pytest.approx(g_fd, rel=tol, abs=tol)
            assert f.laplacian(p) == pytest.approx(lap_fd, rel=1e-3, abs=1e-3)
            H = f.hessian(p)
            np.testing.assert_allclose(np.trace(H), f.laplacian(p), rtol=1e-12, atol=1e-12)


class TestTestFunction:
    def test_constant(self):
        f = TestFunction.constant(3.5, dim=1)
        assert f.value(0.3) == 3.5
        assert f.gradient(0.3) == 0.0
        assert f.laplacian(0.3) == 0.0

    def test_affine_1d(self):
        f = TestFunction.affine([2.0], -1.0)
        assert f.value(0.5) == pytest.approx(0.0)
        assert f.gradient(0.9) == pytest.approx(2.0)
        assert f.laplacian(0.9) == 0.0

    def test_affine_2d(self):
        f = TestFunction.affine([1.0, -3.0], 0.5)
        assert f.value([2.0, 1.0]) == pytest.approx(-0.5)
        np.testing.assert_allclose(f.gradient([0.1, 0.2]), [1.0, -3.0])
        assert f.laplacian([0.1, 0.2]) == 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_quadratic_laplacian(self, d):
        f = TestFunction.quadratic(dim=d)
        p = 0.3 if d == 1 else [0.3, -0.4]
        assert f.laplacian(p) == pytest.approx(2.0 * d)

    def test_gaussian_bump_derivatives(self):
        f1 = TestFunction.gaussian_bump([0.5], 0.2)
        _check_derivatives(f1, [0.3, 0.5, 0.72])
        f2 = TestFunction.gaussian_bump([0.4, 0.6], 0.25)
        _check_derivatives(f2, [[0.3, 0.5], [0.45, 0.62]])

    def test_sine_mode_eigenrelation(self):
        # the sine mode is an eigenfunction: Laplacian = -lambda * value
        g = make_interval_grid(0.0, 1.0, 11)
        f = TestFunction.sine_mode(2, g)
        lam = (2 * np.pi) ** 2
        for x in [0.1, 0.37, 0.8]:
            assert f.laplacian(x) == pytest.approx(-lam * f.value(x), rel=1e-12)
        assert abs(f.value(0.0)) < 1e-14
        assert abs(f.value(1.0)) < 1e-14

    def test_sine_mode_2d_vanishes_on_boundary(self):
        g = make_rectangle_grid(0, 1, 0, 1, 5, 5)
        f = TestFunction.sine_mode(1, g)
        _check_derivatives(f, [[0.3, 0.5], [0.7, 0.25]])
        assert abs(f.value([0.0, 0.5])) < 1e-14
        assert abs(f.value([0.5, 1.0])) < 1e-14

    @pytest.mark.parametrize("make", [
        lambda g: TestFunction.gaussian_bump([0.4, 1.1], 0.3),
        lambda g: TestFunction.quadratic(dim=2),
        lambda g: TestFunction.affine([0.7, -1.3], 0.2),
        lambda g: TestFunction.constant(2.5, dim=2),
        lambda g: TestFunction.sine_mode(2, g),
    ], ids=["bump", "quadratic", "affine", "constant", "sine"])
    def test_hessian_2d_matches_gradient_difference(self, make):
        # every entry, off-diagonals included, against a central difference of the gradient
        grid = make_rectangle_grid(0.0, 1.0, 0.0, 2.0, 5, 9)
        f = make(grid)
        pts = np.array([[0.3, 0.45], [0.71, 1.37], [0.55, 0.2]])
        h = 1e-5
        fd = np.stack([(f.gradient(pts + h * e) - f.gradient(pts - h * e)) / (2 * h)
                       for e in np.eye(2)], axis=2)
        np.testing.assert_allclose(f.hessian(pts), fd, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("make, name", [
        (lambda: TestFunction.gaussian_bump([0.5], 0.0), "width"),
        (lambda: TestFunction.gaussian_bump([0.5, 0.5], -0.2), "width"),
        (lambda: TestFunction.gaussian_bump([0.5], np.nan), "width"),
        (lambda: TestFunction.gaussian_bump([0.5], np.inf), "width"),
        (lambda: TestFunction.gaussian_bump([np.nan], 0.2), "center"),
        (lambda: TestFunction.gaussian_bump([0.5, np.inf], 0.2), "center"),
        (lambda: TestFunction.constant(np.nan, dim=2), "constant term"),
        (lambda: TestFunction.affine([0.5, np.nan], 0.2), "gradient"),
        (lambda: TestFunction.affine([0.5], -np.inf), "constant term"),
    ])
    def test_factories_reject_degenerate_parameters(self, make, name):
        with pytest.raises(ValueError, match=name):
            make()

    def test_batch_evaluation_shapes(self):
        f = TestFunction.gaussian_bump([0.5], 0.2)
        xs = np.linspace(0.1, 0.9, 7)
        assert f.value(xs).shape == (7,)
        f2 = TestFunction.quadratic(dim=2)
        pts = np.random.default_rng(0).uniform(size=(6, 2))
        assert f2.value(pts).shape == (6,)
        assert f2.gradient(pts).shape == (6, 2)


class TestSampledField:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_samples(self, bad):
        grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 7)
        mesh = np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1).reshape(-1, 2)
        samples = TestFunction.gaussian_bump([0.5, 0.5], 0.2).value(mesh).reshape(9, 7)
        samples[4, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            TestFunction.sampled(grid, samples)

    def test_bilinear_matches_regular_grid_interpolator(self):
        grid = make_rectangle_grid(-0.3, 1.2, 0.1, 0.9, 41, 33)
        rng = np.random.default_rng(3)
        values = rng.standard_normal((41, 33))
        gx, gy = np.meshgrid(grid.x_nodes, grid.y_nodes, indexing="ij")
        pts = np.vstack([
            np.column_stack([rng.uniform(-0.3, 1.2, 2000), rng.uniform(0.1, 0.9, 2000)]),
            np.column_stack([gx.ravel(), gy.ravel()]),             # nodes, edges, corners
            np.column_stack([rng.uniform(-0.31, 1.21, 500),        # just outside: linear
                             rng.uniform(0.09, 0.91, 500)]),       # extrapolation
        ])
        ref = RegularGridInterpolator((grid.x_nodes, grid.y_nodes), values, method="linear",
                                      bounds_error=False, fill_value=None)
        np.testing.assert_allclose(TestFunction.sampled(grid, values).value(pts), ref(pts),
                                   rtol=0, atol=4e-15)

    @settings(deadline=None, max_examples=60)
    @given(dim=st.sampled_from([1, 2]), data=st.data())
    def test_affine_samples_reproduce_the_field(self, dim, data):
        # the interpolant of affine samples is the affine field itself, up to round-off
        lo = np.array([data.draw(st.floats(-2.0, 2.0)) for _ in range(dim)])
        sides = np.array([data.draw(st.floats(0.1, 3.0)) for _ in range(dim)])
        sizes = [data.draw(st.integers(3, 40)) for _ in range(dim)]
        slope = np.array([data.draw(st.floats(-5.0, 5.0)) for _ in range(dim)])
        offset = data.draw(st.floats(-5.0, 5.0))
        bounds = np.column_stack([lo, lo + sides]).ravel()
        grid = (make_interval_grid(*bounds, *sizes) if dim == 1
                else make_rectangle_grid(*bounds, *sizes))
        exact = TestFunction.affine(slope, offset)
        mesh = np.meshgrid(*grid.axes, indexing="ij")
        f = TestFunction.sampled(grid, exact.value(np.stack(mesh, axis=-1).reshape(-1, dim))
                                 .reshape(mesh[0].shape))
        # points inside, on the edges and up to one cell outside: the interpolant
        # extrapolates linearly, so the gradient is the slope everywhere
        cell = sides / (np.array(sizes) - 1)
        u = np.array([[data.draw(st.floats(-1.0, 1.0)) for _ in range(dim)] for _ in range(8)])
        pts = np.vstack([lo - cell, lo, lo + sides, lo + sides + cell,
                         lo + 0.5 * sides + u * (0.5 * sides + cell)])
        scale = 1.0 + abs(offset) + np.abs(slope) @ np.max(np.abs(pts), axis=0)
        np.testing.assert_allclose(f.value(pts), exact.value(pts), rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(f.gradient(pts).reshape(-1, dim),
                                   np.broadcast_to(slope, (len(pts), dim)),
                                   rtol=0, atol=1e-8 * scale)
        bq = boundary_quadrature(grid)
        np.testing.assert_allclose(BoundaryData.from_function(bq, f).neumann, bq.normals @ slope,
                                   rtol=0, atol=1e-8 * scale)
        # a second difference of rounded samples: about eps * scale / spacing^2
        min_spacing = min(side / (n - 1) for side, n in zip(sides, sizes))
        np.testing.assert_allclose(f.laplacian(pts), 0.0, atol=1e-14 * scale / min_spacing ** 2)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_quadratic_samples_give_the_exact_hessian(self, dim):
        # central second differences, mixed terms included, are exact on a quadratic,
        # and the sampled Laplacian is the interpolant of their trace
        grid = (make_interval_grid(-0.3, 1.1, 21) if dim == 1
                else make_rectangle_grid(-0.3, 1.1, 0.2, 0.9, 41, 33))
        form = np.array([[1.0]]) if dim == 1 else np.array([[1.0, 0.5], [0.5, 1.0]])
        mesh = np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1)
        f = TestFunction.sampled(grid, np.einsum("...k,kl,...l->...", mesh, form, mesh))
        lo, hi = np.array(grid.bounds[0::2]), np.array(grid.bounds[1::2])
        pts = np.vstack([np.random.default_rng(5).uniform(lo, hi, size=(300, dim)),
                         mesh.reshape(-1, dim)])
        H = f.hessian(pts)
        np.testing.assert_allclose(H, np.broadcast_to(2.0 * form, H.shape), rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.trace(H, axis1=-2, axis2=-1), f.laplacian(pts),
                                   rtol=0, atol=1e-12)

    def test_new_builds_the_discrete_laplacian_once(self, monkeypatch):
        # one request converts its samples once, and the field builds its Laplacian
        # on first use, so the per-point adapters share one build
        grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 41, 41)
        mesh = np.meshgrid(*grid.axes, indexing="ij")
        samples = TestFunction.gaussian_bump([0.5, 0.5], 0.2).value(
            np.stack(mesh, axis=-1).reshape(-1, 2)).reshape(41, 41)
        builds = []
        build = domain._second_differences
        monkeypatch.setattr(domain, "_second_differences",
                            lambda *args: builds.append(args) or build(*args))
        req = FracLapRequest(grid=grid, phi=samples, s=0.75, definition=Definition.NEW,
                             eval_points=[[0.4, 0.55], [0.5, 0.5], [0.3, 0.62]])
        assert len(evaluate(req)) == 3
        assert len(builds) == 1

    def test_run_time_paths_do_not_import_scipy(self, tmp_path):
        # every route in both dimensions, on analytic and sampled fields, the
        # potential, every validate suite and every CLI command run on numpy
        # alone, without numpy.polynomial
        out = str(tmp_path / "out.csv")
        code = textwrap.dedent(f"""
            import contextlib
            import io
            import json
            import sys
            import numpy as np
            from fraclap import cli
            from fraclap.domain import (BoundaryData, TestFunction, boundary_quadrature,
                                        make_interval_grid, make_rectangle_grid)
            from fraclap.operators import Definition, FracLapRequest, evaluate
            from fraclap.riesz import PotentialRequest, riesz_potential_field
            from fraclap.validate import SUITES
            for grid, x in ((make_interval_grid(0.0, 1.0, 11), [0.4]),
                            (make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 9), [[0.4, 0.55]])):
                phi = TestFunction.gaussian_bump([0.5] * grid.dim, 0.2)
                bd = BoundaryData.from_function(boundary_quadrature(grid), phi)
                mesh = np.meshgrid(*grid.axes, indexing="ij")
                for field in (phi, phi.value(np.stack(mesh, axis=-1)).reshape(mesh[0].shape)):
                    for dfn in Definition:
                        evaluate(FracLapRequest(grid=grid, phi=field, s=0.75, eval_points=x,
                                                definition=dfn, boundary=bd))
                    riesz_potential_field(PotentialRequest(grid=grid, phi=field, sigma=1.25,
                                                           eval_points=x))
            np.savetxt({str(tmp_path / "v.csv")!r}, np.ones(12))
            for argv in (["diffuse", "--assemble", "2d:4,3,1,1", "--s", "0.75", "--ic", "sine:1",
                          "--times", "0,0.1"],
                         ["matpow", "--assemble", "1d:12,1", "--s", "0.75",
                          "--apply", {str(tmp_path / "v.csv")!r}],
                         ["matpow", "--assemble", "2d:4,3,1,1", "--s", "0.75",
                          "--check", "semigroup"],
                         ["matpow", "--assemble", "2d:4,3,1,1", "--s", "0.75",
                          "--check", "spectral"],
                         ["matpow", "--assemble", "1d:8,1", "--s", "0.6", "--out", {out!r}],
                         ["potential", "--d", "1", "--domain", "0,1", "--sigma", "0.5",
                          "--func", "const:1", "--points", "0.25,0.5", "--out", {out!r}],
                         ["potential", "--d", "2", "--domain", "0,1,0,1", "--sigma", "0.5",
                          "--func", "gauss:0.5,0.5,0.2", "--points", "0.4,0.5", "--out", {out!r}],
                         ["fraclap", "--d", "1", "--domain", "0,1", "--s", "0.5", "--def", "new",
                          "--def", "augmented", "--func", "quad", "--points", "0.5",
                          "--bc-from-func", "--out", {out!r}],
                         ["fraclap", "--d", "2", "--domain", "0,1,0,1", "--s", "0.75",
                          "--def", "hyper", "--def", "restated", "--func", "gauss:0.4,0.5,0.2",
                          "--points", "0.4,0.5", "--out", {out!r}]):
                assert cli.main(argv) == 0
            with contextlib.redirect_stdout(io.StringIO()) as report:
                assert cli.main(["validate", "--suite", "all"]) == 0
            checks = json.loads(report.getvalue().splitlines()[-1])["checks"]
            assert {{c["suite"] for c in checks}} == set(SUITES), checks
            assert all(c["pass"] for c in checks), checks
            print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
            print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
        """)
        src = os.path.dirname(os.path.dirname(fraclap.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path})
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip().splitlines()[-2] == "[]"
        assert r.stdout.strip().splitlines()[-1] == "[]"  # every rule from one Gauss builder


def _bump_as_written(center, width):
    """The gaussian bump's value, gradient, Laplacian and Hessian of (N, d) points, each
    with r^2 reduced by ``np.sum`` over the coordinate axis and the Laplacian computing
    it twice: the formulas the column-wise r^2 must reproduce bit for bit."""
    c, w2 = np.atleast_1d(np.asarray(center, float)), float(width) ** 2
    dim = len(c)

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

    return val, grad, lap, hess


def _assert_bump_bits(center, width, pts):
    f = TestFunction.gaussian_bump(center, width)
    mine = (f._value, f._gradient, f._laplacian, f._hessian)
    for name, got, want in zip(("value", "gradient", "laplacian", "hessian"), mine,
                               _bump_as_written(center, width)):
        assert np.array_equal(got(pts), want(pts)), name


class TestGaussianBumpBits:
    """r^2 summed column by column, once per call, gives the bits of the reduction."""

    @pytest.mark.parametrize("center, width", [([0.5], 0.2), ([-1.3], 3.0),
                                               ([0.4, 0.6], 0.25), ([2.0, -0.7], 0.05)])
    def test_every_evaluator_is_bit_identical(self, center, width):
        pts = np.random.default_rng(23).uniform(-2.0, 2.0, (4096, len(center)))
        _assert_bump_bits(center, width, pts)

    def test_public_layout_is_bit_identical(self):
        xs = np.linspace(-0.3, 1.3, 101)
        f = TestFunction.gaussian_bump([0.45], 0.2)
        val, grad, lap, _ = _bump_as_written([0.45], 0.2)
        assert np.array_equal(f.value(xs), val(xs[:, None]))
        assert np.array_equal(f.gradient(xs), grad(xs[:, None])[:, 0])
        assert np.array_equal(f.laplacian(xs), lap(xs[:, None]))

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2]), data=st.data(),
           width=st.floats(1e-3, 10.0))
    def test_bits_over_centres_widths_and_points(self, dim, data, width):
        coord = st.floats(-10.0, 10.0)
        center = data.draw(st.lists(coord, min_size=dim, max_size=dim))
        rows = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                  min_size=1, max_size=12))
        _assert_bump_bits(center, width, np.array(rows, float))


class TestBoundaryData:
    def test_from_function_traces(self):
        g = make_interval_grid(0.0, 1.0, 11)
        bq = boundary_quadrature(g)
        f = TestFunction.quadratic(dim=1)
        bd = BoundaryData.from_function(bq, f)
        np.testing.assert_allclose(bd.dirichlet, [0.0, 1.0])
        # outward normal derivative: -f'(0) at the left end, +f'(1) at the right
        np.testing.assert_allclose(bd.neumann, [0.0, 2.0])

    def test_from_function_2d(self):
        g = make_rectangle_grid(0, 1, 0, 1, 5, 5)
        bq = boundary_quadrature(g)
        f = TestFunction.affine([1.0, 2.0], 0.0)
        bd = BoundaryData.from_function(bq, f)
        expect_n = bq.normals @ np.array([1.0, 2.0])
        np.testing.assert_allclose(bd.neumann, expect_n, atol=1e-13)

    def test_from_values_broadcast(self):
        bq = boundary_quadrature(make_interval_grid(0, 1, 5))
        bd = BoundaryData.from_values(bq, 1.0, 0.0)
        np.testing.assert_array_equal(bd.dirichlet, [1.0, 1.0])
        np.testing.assert_array_equal(bd.neumann, [0.0, 0.0])

    @pytest.mark.parametrize("trace", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_traces_rejected(self, bad, trace):
        # the augmented form needs both traces finite at every point: refused when built
        bq = boundary_quadrature(make_rectangle_grid(0, 1, 0, 1, 5, 5))
        traces = {"dirichlet": np.ones(len(bq)), "neumann": np.zeros(len(bq))}
        traces[trace][3] = bad
        with pytest.raises(MissingBoundaryData, match="finite"):
            BoundaryData(quadrature=bq, **traces)
        with pytest.raises(MissingBoundaryData, match="finite"):
            BoundaryData.from_values(bq, **{"dirichlet": 1.0, "neumann": 0.0, trace: bad})

    def test_size_mismatch(self):
        bq = boundary_quadrature(make_interval_grid(0, 1, 5))
        with pytest.raises(ValueError):
            BoundaryData(quadrature=bq, dirichlet=np.zeros(3), neumann=np.zeros(2))
