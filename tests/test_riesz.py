"""Truncated Riesz potential evaluators."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fraclap.domain import TestFunction, make_interval_grid, make_rectangle_grid
from fraclap.errors import GammaPole
from fraclap.riesz import (PotentialRequest, RuleParams, riesz_potential_field,
                           riesz_potential_point)
from fraclap.special import ConstantMode, riesz_constant


def _c(d, sigma, mode=ConstantMode.PAPER):
    # independent gamma-function oracle for the normalization
    p = sigma / 2.0 if mode is ConstantMode.PAPER else d / 2.0
    return math.gamma((d - sigma) / 2.0) / (
        math.pi ** p * 2.0 ** sigma * math.gamma(sigma / 2.0))


class TestClosedForm1D:
    @pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75, 1.5])
    def test_constant_field(self, sigma):
        # unit field on [0,1]: I(x) = c * (x^sigma + (1-x)^sigma) / sigma
        grid = make_interval_grid(0.0, 1.0, 21)
        req = PotentialRequest(grid=grid, phi=TestFunction.constant(1.0),
                               sigma=sigma)
        for x in [0.1, 0.3, 0.5, 0.7, 0.9]:
            expect = _c(1, sigma) * (x ** sigma + (1 - x) ** sigma) / sigma
            assert riesz_potential_point(req, x) == pytest.approx(expect, rel=1e-10)

    def test_affine_field_closed_form(self):
        # phi(xi) = xi on [0,1]; antiderivative oracle:
        #   I(x)/c = x^(1+sigma)/(sigma(1+sigma)) + x(1-x)^sigma/sigma
        #            + (1-x)^(1+sigma)/(sigma(1+sigma))... verified via quad
        sigma, x = 0.5, 0.4
        grid = make_interval_grid(0.0, 1.0, 21)
        req = PotentialRequest(grid=grid, phi=TestFunction.affine([1.0], 0.0),
                               sigma=sigma)
        left, _ = quad(lambda t: t * (x - t) ** (sigma - 1), 0.0, x)
        right, _ = quad(lambda t: t * (t - x) ** (sigma - 1), x, 1.0)
        expect = _c(1, sigma) * (left + right)
        assert riesz_potential_point(req, x) == pytest.approx(expect, rel=1e-9)


class TestProperties:
    def test_linearity(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        f = TestFunction.gaussian_bump([0.5], 0.2)
        g = TestFunction.quadratic(dim=1)
        x, sigma = 0.45, 0.75

        def pot(phi):
            return riesz_potential_point(
                PotentialRequest(grid=grid, phi=phi, sigma=sigma), x)

        fg = TestFunction(
            dim=1,
            _value=lambda p: 2.0 * f.value(p[:, 0]) - 3.0 * g.value(p[:, 0]),
            _gradient=None, _laplacian=None, _hessian=None)
        assert pot(fg) == pytest.approx(2.0 * pot(f) - 3.0 * pot(g), rel=1e-12)

    def test_positivity(self):
        # positive field, positive kernel: the potential is positive
        grid = make_interval_grid(0.0, 1.0, 21)
        req = PotentialRequest(grid=grid, phi=TestFunction.gaussian_bump([0.5], 0.2),
                               sigma=0.5)
        assert riesz_potential_point(req, 0.3) > 0.0

    def test_mode_ratio(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        phi = TestFunction.constant(1.0)
        sigma, x = 0.75, 0.4
        vp = riesz_potential_point(
            PotentialRequest(grid=grid, phi=phi, sigma=sigma,
                             mode=ConstantMode.PAPER), x)
        vs = riesz_potential_point(
            PotentialRequest(grid=grid, phi=phi, sigma=sigma,
                             mode=ConstantMode.STANDARD), x)
        assert vs / vp == pytest.approx(math.pi ** ((sigma - 1) / 2.0), rel=1e-13)

    def test_field_evaluation_order(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        pts = [0.7, 0.2, 0.5]
        req = PotentialRequest(grid=grid, phi=TestFunction.constant(1.0),
                               sigma=0.5, eval_points=pts)
        out = riesz_potential_field(req)
        assert [p for p, _ in out] == pts
        for p, v in out:
            assert v == pytest.approx(riesz_potential_point(req, p), rel=1e-14)


class TestSampledField:
    def test_sampled_matches_analytic_1d(self):
        # nodal samples + linear interpolation vs the analytic field
        grid = make_interval_grid(0.0, 1.0, 201)
        f = TestFunction.gaussian_bump([0.5], 0.25)
        sigma, x = 0.75, 0.45
        va = riesz_potential_point(
            PotentialRequest(grid=grid, phi=f, sigma=sigma), x)
        vs = riesz_potential_point(
            PotentialRequest(grid=grid, phi=f.value(grid.nodes), sigma=sigma), x)
        assert vs == pytest.approx(va, rel=5e-4)

    def test_sampled_matches_analytic_2d(self):
        grid = make_rectangle_grid(0, 1, 0, 1, 41, 41)
        f = TestFunction.gaussian_bump([0.5, 0.5], 0.3)
        gx, gy = np.meshgrid(grid.x_nodes, grid.y_nodes, indexing="ij")
        samples = f.value(np.column_stack([gx.ravel(), gy.ravel()])).reshape(41, 41)
        sigma, x = 0.75, [0.45, 0.55]
        va = riesz_potential_point(
            PotentialRequest(grid=grid, phi=f, sigma=sigma), x)
        vs = riesz_potential_point(
            PotentialRequest(grid=grid, phi=samples, sigma=sigma), x)
        assert vs == pytest.approx(va, rel=5e-3)

    def test_sample_shape_mismatch(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        req = PotentialRequest(grid=grid, phi=np.zeros(11), sigma=0.5)
        with pytest.raises(ValueError):
            riesz_potential_point(req, 0.5)


class TestTwoDimensional:
    def test_constant_field_against_quadrature_oracle(self):
        # reduce to a 1D angular integral of rho(theta)^sigma / sigma
        grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
        sigma, xs = 0.75, np.array([0.4, 0.55])
        req = PotentialRequest(grid=grid, phi=TestFunction.constant(1.0, dim=2),
                               sigma=sigma)
        corners = [np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                   np.array([1.0, 1.0]), np.array([0.0, 1.0])]
        total = 0.0
        for i in range(4):
            A, B = corners[i], corners[(i + 1) % 4]
            edge = B - A
            nrm = np.array([edge[1], -edge[0]])
            nrm /= np.hypot(*nrm)
            dist = abs(np.dot(A - xs, nrm))
            th1 = np.arctan2(*(A - xs)[::-1])
            th2 = np.arctan2(*(B - xs)[::-1])
            if th2 <= th1:
                th2 += 2 * np.pi
            sgn_n = -nrm if np.dot(nrm, A - xs) < 0 else nrm
            th_n = np.arctan2(sgn_n[1], sgn_n[0])
            val, _ = quad(lambda th: (dist / np.cos(th - th_n)) ** sigma / sigma,
                          th1, th2, limit=200)
            total += val
        expect = _c(2, sigma) * total
        assert riesz_potential_point(req, xs) == pytest.approx(expect, rel=1e-9)


class TestValidation:
    def test_sigma_out_of_range(self):
        grid = make_interval_grid(0.0, 1.0, 11)
        for sigma in [0.0, 2.0, -1.0, 3.0]:
            with pytest.raises(ValueError):
                PotentialRequest(grid=grid, phi=TestFunction.constant(1.0),
                                 sigma=sigma)

    def test_pole_fails_fast(self):
        grid = make_interval_grid(0.0, 1.0, 11)
        with pytest.raises(GammaPole):
            PotentialRequest(grid=grid, phi=TestFunction.constant(1.0), sigma=1.0)

    def test_missing_eval_points(self):
        grid = make_interval_grid(0.0, 1.0, 11)
        req = PotentialRequest(grid=grid, phi=TestFunction.constant(1.0), sigma=0.5)
        with pytest.raises(ValueError):
            riesz_potential_field(req)

    def test_custom_rule_params(self):
        grid = make_interval_grid(0.0, 1.0, 11)
        req = PotentialRequest(grid=grid, phi=TestFunction.constant(1.0),
                               sigma=0.5, rule=RuleParams(radial_order=6, gauss_order=4))
        expect = _c(1, 0.5) * 2 * 0.5 ** 0.5 / 0.5
        assert riesz_potential_point(req, 0.5) == pytest.approx(expect, rel=1e-6)
