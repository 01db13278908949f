"""Second-identity residual checks for volume/boundary quadrature consistency."""

import numpy as np
import pytest

from fraclap.domain import TestFunction, make_interval_grid, make_rectangle_grid
from fraclap.greens import green_residual, volume_quadrature


def _poly_1d(coeffs):
    c = np.asarray(coeffs, float)
    dc = np.polyder(c)
    d2c = np.polyder(dc)
    return TestFunction(
        dim=1,
        _value=lambda p: np.polyval(c, p[:, 0]),
        _gradient=lambda p: np.polyval(dc, p[:, 0]).reshape(-1, 1),
        _laplacian=lambda p: np.polyval(d2c, p[:, 0]),
        _hessian=lambda p: np.polyval(d2c, p[:, 0]).reshape(-1, 1, 1))


def _poly_2d(cx, cy):
    """Separable polynomial p(x) * q(y) with exact derivatives."""
    cx, cy = np.asarray(cx, float), np.asarray(cy, float)
    dcx, dcy = np.polyder(cx), np.polyder(cy)
    d2cx, d2cy = np.polyder(dcx), np.polyder(dcy)

    def val(p):
        return np.polyval(cx, p[:, 0]) * np.polyval(cy, p[:, 1])

    def grad(p):
        return np.column_stack([
            np.polyval(dcx, p[:, 0]) * np.polyval(cy, p[:, 1]),
            np.polyval(cx, p[:, 0]) * np.polyval(dcy, p[:, 1])])

    def lap(p):
        return (np.polyval(d2cx, p[:, 0]) * np.polyval(cy, p[:, 1])
                + np.polyval(cx, p[:, 0]) * np.polyval(d2cy, p[:, 1]))

    def hess(p):
        h = np.zeros((len(p), 2, 2))
        h[:, 0, 0] = np.polyval(d2cx, p[:, 0]) * np.polyval(cy, p[:, 1])
        h[:, 1, 1] = np.polyval(cx, p[:, 0]) * np.polyval(d2cy, p[:, 1])
        h[:, 0, 1] = h[:, 1, 0] = np.polyval(dcx, p[:, 0]) * np.polyval(dcy, p[:, 1])
        return h

    return TestFunction(dim=2, _value=val, _gradient=grad, _laplacian=lap, _hessian=hess)


class TestVolumeQuadrature:
    def test_interval_polynomial(self):
        grid = make_interval_grid(0.0, 1.0, 6)
        pts, wts = volume_quadrature(grid)
        assert np.sum(wts) == pytest.approx(1.0, rel=1e-14)
        assert np.sum(wts * pts.reshape(-1) ** 5) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_rectangle_polynomial(self):
        grid = make_rectangle_grid(0.0, 2.0, 0.0, 1.0, 5, 4)
        pts, wts = volume_quadrature(grid)
        assert np.sum(wts) == pytest.approx(2.0, rel=1e-13)
        val = np.sum(wts * pts[:, 0] ** 2 * pts[:, 1] ** 3)
        assert val == pytest.approx((8.0 / 3.0) * (1.0 / 4.0), rel=1e-13)


class TestPolynomialResidual:
    def test_cubic_pairs_1d(self):
        grid = make_interval_grid(0.0, 1.0, 9)
        u = _poly_1d([1.0, -2.0, 0.5, 1.0])        # cubic
        v = _poly_1d([2.0, 0.0, -1.0])             # quadratic
        assert green_residual(grid, u, v) <= 1e-12

    def test_cubic_pairs_2d(self):
        grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 5, 5)
        u = _poly_2d([1.0, 0.5, 0.0], [1.0, 1.0])   # (x^2+x/2) * (y+1)
        v = _poly_2d([1.0, -1.0], [2.0, 0.0, 1.0])  # (x-1) * (2y^2+1)
        assert green_residual(grid, u, v) <= 1e-12

    def test_symmetry_in_arguments(self):
        # the identity is antisymmetric, the residual magnitude is not
        grid = make_interval_grid(0.0, 1.0, 9)
        u = _poly_1d([1.0, 0.0, 0.0])
        v = _poly_1d([0.0, 1.0, 1.0])
        assert green_residual(grid, u, v) == pytest.approx(
            green_residual(grid, v, u), abs=1e-13)


class TestSmoothPairDecay:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_second_order_decay(self, dim):
        # non-polynomial pair: residual comes from quadrature error and
        # must shrink at least 4x per doubling of the panel order stand-in
        if dim == 1:
            grid = make_interval_grid(0.0, 1.0, 9)
            u = TestFunction.gaussian_bump([0.4], 0.3)
            v = TestFunction.sine_mode(1, grid)
        else:
            grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 5, 5)
            u = TestFunction.gaussian_bump([0.4, 0.5], 0.35)
            v = TestFunction.sine_mode(1, grid)
        errs = [green_residual(grid, u, v, gauss_order=g) for g in (1, 2, 4)]
        assert errs[1] <= 0.25 * errs[0] or errs[1] < 1e-12
        assert errs[2] <= 0.25 * errs[1] or errs[2] < 1e-12


class TestErrorHandling:
    def test_non_finite_field_rejected(self):
        grid = make_interval_grid(0.0, 1.0, 9)
        bad = TestFunction(
            dim=1,
            _value=lambda p: np.full(len(p), np.nan),
            _gradient=lambda p: np.zeros((len(p), 1)),
            _laplacian=lambda p: np.zeros(len(p)),
            _hessian=None)
        good = _poly_1d([1.0, 0.0])
        with pytest.raises(ValueError):
            green_residual(grid, bad, good)
