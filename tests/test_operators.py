"""Fractional-Laplacian evaluators and their cross-identities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from fraclap.domain import (BoundaryData, TestFunction, boundary_quadrature,
                            make_interval_grid, make_rectangle_grid)
from fraclap.errors import (GammaPole, MissingBoundaryData)
from fraclap.operators import (Definition, FracLapRequest, evaluate,
                               fraclap_augmented, fraclap_hypersingular,
                               fraclap_new, fraclap_restated, surface_integral)
from fraclap.riesz import PotentialRequest, RuleParams, riesz_potential_point
from fraclap.special import ConstantMode


def _c(d, sigma):
    return math.gamma((d - sigma) / 2.0) / (
        math.pi ** (sigma / 2.0) * 2.0 ** sigma * math.gamma(sigma / 2.0))


def _req(grid, phi, s, definition=Definition.NEW, boundary=None, **kw):
    return FracLapRequest(grid=grid, phi=phi, s=s, definition=definition,
                          boundary=boundary, **kw)


def _with_bc(grid, phi, s, definition):
    bq = boundary_quadrature(grid)
    return _req(grid, phi, s, definition=definition,
                boundary=BoundaryData.from_function(bq, phi))


class TestPotentialOfLaplacianForm:
    """The route that applies the potential to the Laplacian of the field."""

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_quadratic_closed_form_1d(self, s):
        # lap(phi) = 2 for the squared coordinate, so the value reduces to
        # -2 * c(1, 2-s) * (x^(2-s) + (1-x)^(2-s)) / (2-s)
        grid = make_interval_grid(0.0, 1.0, 21)
        req = _req(grid, TestFunction.quadratic(dim=1), s)
        sig = 2.0 - s
        for x in [0.3, 0.5, 0.62]:
            expect = -2.0 * _c(1, sig) * (x ** sig + (1 - x) ** sig) / sig
            assert fraclap_new(req, x) == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_affine_annihilation(self, d, s):
        # harmonic in the strictest sense: lap(affine) = 0 identically
        rng = np.random.default_rng(42)
        if d == 1:
            grid = make_interval_grid(0.0, 1.0, 21)
            pts = [0.35, 0.6]
        else:
            grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
            pts = [[0.4, 0.5], [0.6, 0.35]]
        for _ in range(5):
            g = rng.uniform(-2.0, 2.0, size=d)
            c0 = rng.uniform(-1.0, 1.0)
            req = _req(grid, TestFunction.affine(g, c0), s)
            for x in pts:
                assert abs(fraclap_new(req, x)) <= 1e-10

    def test_scaling_in_field(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        f = TestFunction.gaussian_bump([0.5], 0.2)
        scaled = TestFunction(
            dim=1,
            _value=lambda p: 3.0 * f.value(p[:, 0]),
            _gradient=lambda p: 3.0 * np.atleast_2d(f.gradient(p[:, 0])).T,
            _laplacian=lambda p: 3.0 * f.laplacian(p[:, 0]),
            _hessian=None)
        v1 = fraclap_new(_req(grid, f, 0.75), 0.45)
        v3 = fraclap_new(_req(grid, scaled, 0.75), 0.45)
        assert v3 == pytest.approx(3.0 * v1, rel=1e-12)


class TestNarrowFeatureAwayFromPoint:
    """A bump of width 0.05 at 0.6 seen from x = 0.3: the default rule must
    resolve a feature far from the singular point, not only the point."""

    grid = make_interval_grid(0.0, 1.0, 81)
    phi = TestFunction.gaussian_bump([0.6], 0.05)
    x = 0.3

    def _oracle(self, f, expo):
        # integral of f(xi) |x - xi|^expo, adaptive on each side of x
        def g(t):
            return f(np.array([[t]]))[0]
        return (quad(g, 0.0, self.x, weight="alg", wvar=(0.0, expo), epsabs=1e-14, limit=200)[0]
                + quad(g, self.x, 1.0, weight="alg", wvar=(expo, 0.0), epsabs=1e-14, limit=200)[0])

    def test_new_route(self):
        s = 0.75
        expect = -_c(1, 2.0 - s) * self._oracle(self.phi._laplacian, 1.0 - s)
        got = fraclap_new(_req(self.grid, self.phi, s), self.x)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_potential(self):
        sigma = 0.5
        expect = _c(1, sigma) * self._oracle(self.phi._value, sigma - 1.0)
        got = riesz_potential_point(PotentialRequest(grid=self.grid, phi=self.phi, sigma=sigma), self.x)
        assert got == pytest.approx(expect, rel=1e-10)


class TestNarrowFeatureAwayFromPoint2D:
    """The same in 2D: a bump of width 0.05 at (0.6, 0.55) seen from (0.3, 0.4),
    against a rule four times finer both radially and along the edges."""

    grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 41, 41)
    phi = TestFunction.gaussian_bump([0.6, 0.55], 0.05)
    x = np.array([0.3, 0.4])
    fine = RuleParams(radial_order=128, gauss_order=32)

    @pytest.mark.parametrize("s", [0.75, 1.5])
    def test_new_route(self, s):
        got = fraclap_new(_req(self.grid, self.phi, s), self.x)
        want = fraclap_new(_req(self.grid, self.phi, s, rule=self.fine), self.x)
        assert got == pytest.approx(want, rel=1e-7)

    def test_potential(self):
        got, want = (riesz_potential_point(PotentialRequest(grid=self.grid, phi=self.phi,
                                                            sigma=0.5, rule=rule), self.x)
                     for rule in (RuleParams(), self.fine))
        assert got == pytest.approx(want, rel=1e-10)


class TestRestatedForm:
    """Outer finite-difference Laplacian applied to the potential field."""

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_consistency_with_finite_part_1d(self, s):
        grid = make_interval_grid(0.0, 1.0, 21)
        phi = TestFunction.gaussian_bump([0.5], 0.2)
        x = 0.45
        vr = fraclap_restated(_req(grid, phi, s), x)
        vh = fraclap_hypersingular(_req(grid, phi, s), x)
        assert vr == pytest.approx(vh, rel=5e-3)

    def test_decomposition_identity(self):
        # restated minus potential-of-Laplacian equals minus the surface term
        grid = make_interval_grid(0.0, 1.0, 21)
        phi = TestFunction.quadratic(dim=1)
        for s in [0.5, 1.5]:
            req = _with_bc(grid, phi, s, Definition.AUGMENTED)
            x = 0.5
            vr = fraclap_restated(req, x)
            vn = fraclap_new(req, x)
            surf = surface_integral(req, x)
            assert vr - vn == pytest.approx(-surf, rel=1e-2)


class TestHypersingularForm:
    @pytest.mark.parametrize("s", [0.5, 1.2, 1.5])
    def test_quadratic_against_potential_route(self, s):
        grid = make_interval_grid(0.0, 1.0, 21)
        phi = TestFunction.quadratic(dim=1)
        x = 0.5
        vh = fraclap_hypersingular(_req(grid, phi, s), x)
        vr = fraclap_restated(_req(grid, phi, s), x)
        assert vh == pytest.approx(vr, rel=5e-3)

    @pytest.mark.parametrize("s", [0.5, 0.75, 1.5])
    @pytest.mark.parametrize("field", ["constant", "affine", "square"])
    def test_closed_forms_on_interval(self, s, field):
        # phi(xi) = phi(x) + phi'(x)(xi-x) + (xi-x)^2 for these fields, and on
        # [a, b] the finite parts of r^-(1+s) times 1, (xi-x), (xi-x)^2 are
        # fp0, fp1 and an ordinary integral; the route returns -(sum)/h with
        # 1/h = c(1, 2-s) (s-1) s
        a, b = 0.0, 1.3
        grid = make_interval_grid(a, b, 27)
        phi = {"constant": TestFunction.constant(0.7),
               "affine": TestFunction.affine([-1.6], 0.4),
               "square": TestFunction.quadratic(dim=1)}[field]
        inv_h = _c(1, 2.0 - s) * (s - 1.0) * s
        for x in (0.3, 0.65, 0.9):
            fp0 = -((x - a) ** -s + (b - x) ** -s) / s
            fp1 = ((b - x) ** (1.0 - s) - (x - a) ** (1.0 - s)) / (1.0 - s)
            fp = phi.value(x) * fp0 + phi.gradient(x) * fp1
            if field == "square":
                fp += ((x - a) ** (2.0 - s) + (b - x) ** (2.0 - s)) / (2.0 - s)
            got = fraclap_hypersingular(_req(grid, phi, s), x)
            assert got == pytest.approx(-fp * inv_h, rel=1e-8)

    @pytest.mark.parametrize("s", [0.5, 0.75, 1.5])
    @pytest.mark.parametrize("field", ["bump", "quadratic"])
    def test_two_dimensional_against_restated(self, s, field):
        # acceptance criterion 5's tolerance, in 2D
        grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 13, 13)
        phi = {"bump": TestFunction.gaussian_bump([0.45, 0.5], 0.2),
               "quadratic": TestFunction.quadratic(dim=2)}[field]
        for x in ([0.4, 0.55], [0.3, 0.7]):
            vh = fraclap_hypersingular(_req(grid, phi, s), x)
            vr = fraclap_restated(_req(grid, phi, s), x)
            assert vh == pytest.approx(vr, rel=5e-3)

    @pytest.mark.parametrize("s", [0.5, 0.75, 1.5])
    def test_two_dimensional_constant_closed_form(self, s):
        # in polar coordinates about x the finite part of r^-(2+s) over the
        # rectangle is -(1/s) * integral of rho(theta)^-s dtheta; along an
        # edge at distance e from x that is e^-s * integral of
        # (1 + tau^2)^-(1+s/2) dtau, and integral_0^T (1 + tau^2)^-a dtau
        # = T 2F1(a, 1/2; 3/2; -T^2)
        a1, b1, a2, b2 = 0.0, 1.3, 0.0, 0.9
        grid = make_rectangle_grid(a1, b1, a2, b2, 27, 19)
        phi = TestFunction.constant(0.7, dim=2)
        inv_h = _c(2, 2.0 - s) * s * s

        def side(t, e):
            return t / e * hyp2f1(1.0 + s / 2.0, 0.5, 1.5, -(t / e) ** 2)

        for x, y in ((0.3, 0.45), (0.65, 0.2), (1.0, 0.7)):
            rho_s = sum(e ** -s * (side(t1, e) + side(t2, e))
                        for e, t1, t2 in ((y - a2, x - a1, b1 - x), (b2 - y, x - a1, b1 - x),
                                          (x - a1, y - a2, b2 - y), (b1 - x, y - a2, b2 - y)))
            got = fraclap_hypersingular(_req(grid, phi, s), [x, y])
            assert got == pytest.approx(0.7 * (rho_s / s) * inv_h, rel=1e-12)


class TestAugmentedForm:
    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_matches_potential_route_1d(self, s):
        grid = make_interval_grid(0.0, 1.0, 21)
        phi = TestFunction.gaussian_bump([0.5], 0.2)
        req = _with_bc(grid, phi, s, Definition.AUGMENTED)
        x = 0.45
        assert fraclap_augmented(req, x) == pytest.approx(
            fraclap_new(req, x), rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_matches_potential_route_2d(self, s):
        grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
        phi = TestFunction.quadratic(dim=2)
        req = _with_bc(grid, phi, s, Definition.AUGMENTED)
        x = [0.45, 0.55]
        assert fraclap_augmented(req, x) == pytest.approx(
            fraclap_new(req, x), rel=1e-3, abs=1e-6)

    def test_as_printed_variant_is_finite_and_distinct(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        phi = TestFunction.quadratic(dim=1)
        req = _with_bc(grid, phi, 0.5, Definition.AUGMENTED_AS_PRINTED)
        v = fraclap_augmented(req, 0.5)
        assert np.isfinite(v)
        assert v != pytest.approx(
            fraclap_augmented(_with_bc(grid, phi, 0.5, Definition.AUGMENTED), 0.5), rel=1e-6)

    def test_requires_boundary_data(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        with pytest.raises(MissingBoundaryData):
            FracLapRequest(grid=grid, phi=TestFunction.quadratic(dim=1), s=0.5,
                           definition=Definition.AUGMENTED)


class TestEvaluateDispatch:
    def test_all_definitions_1d(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        phi = TestFunction.gaussian_bump([0.5], 0.2)
        bq = boundary_quadrature(grid)
        bd = BoundaryData.from_function(bq, phi)
        results = {}
        for dfn in [Definition.RESTATED, Definition.HYPERSINGULAR,
                    Definition.NEW, Definition.AUGMENTED]:
            req = FracLapRequest(grid=grid, phi=phi, s=0.75, eval_points=[0.45],
                                 definition=dfn, boundary=bd)
            results[dfn] = evaluate(req)[0][1]
        # the two standard-form routes agree with each other
        assert results[Definition.RESTATED] == pytest.approx(
            results[Definition.HYPERSINGULAR], rel=5e-3)
        # the two potential-of-Laplacian routes agree with each other
        assert results[Definition.AUGMENTED] == pytest.approx(
            results[Definition.NEW], rel=1e-4)

    @pytest.mark.parametrize("d", [1, 2])
    def test_every_route_returns_a_float(self, d):
        grid = (make_interval_grid(0.0, 1.0, 21) if d == 1
                else make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 13, 13))
        phi = TestFunction.gaussian_bump([0.45] * d, 0.2)
        x = 0.4 if d == 1 else (0.4, 0.55)
        bd = BoundaryData.from_function(boundary_quadrature(grid), phi)
        per_point = {Definition.RESTATED: fraclap_restated,
                     Definition.HYPERSINGULAR: fraclap_hypersingular,
                     Definition.NEW: fraclap_new,
                     Definition.AUGMENTED: fraclap_augmented,
                     Definition.AUGMENTED_AS_PRINTED: fraclap_augmented}
        for dfn in Definition:
            req = FracLapRequest(grid=grid, phi=phi, s=0.75, eval_points=[x],
                                 definition=dfn, boundary=bd)
            assert type(evaluate(req)[0][1]) is float, dfn
            assert type(per_point[dfn](req, x)) is float, dfn

    def test_eval_points_order_preserved(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        req = FracLapRequest(grid=grid, phi=TestFunction.quadratic(dim=1),
                             s=0.5, eval_points=[0.6, 0.3, 0.5])
        out = evaluate(req)
        assert [p for p, _ in out] == [0.6, 0.3, 0.5]

    def test_definition_parse(self):
        assert Definition.parse("new") is Definition.NEW
        assert Definition.parse("HYPER") is Definition.HYPERSINGULAR
        with pytest.raises(ValueError):
            Definition.parse("nope")


class TestSampledFieldInput:
    def test_nodal_samples_close_to_analytic(self):
        grid = make_interval_grid(0.0, 1.0, 401)
        phi = TestFunction.gaussian_bump([0.5], 0.25)
        s, x = 0.75, 0.45
        va = fraclap_new(_req(grid, phi, s), x)
        vs = fraclap_new(_req(grid, phi.value(grid.nodes), s), x)
        assert vs == pytest.approx(va, rel=5e-2)

    @pytest.mark.parametrize("dim,definition", [
        (1, Definition.NEW), (1, Definition.HYPERSINGULAR),
        (2, Definition.NEW), (2, Definition.AUGMENTED)])
    def test_misshaped_samples_rejected(self, dim, definition):
        if dim == 1:
            grid, x = make_interval_grid(0.0, 1.0, 21), [0.5]
            phi = TestFunction.gaussian_bump([0.5], 0.25)
            samples = np.zeros(11)
        else:
            grid, x = make_rectangle_grid(0, 1, 0, 1, 9, 9), [[0.5, 0.5]]
            phi = TestFunction.gaussian_bump([0.5, 0.5], 0.3)
            samples = np.zeros((9, 7))
        boundary = BoundaryData.from_function(boundary_quadrature(grid), phi)
        req = _req(grid, samples, 0.75, definition=definition,
                   boundary=boundary, eval_points=x)
        with pytest.raises(ValueError, match="samples must have shape"):
            evaluate(req)


class TestValidationAndErrors:
    def test_s_out_of_range(self):
        grid = make_interval_grid(0.0, 1.0, 11)
        for s in [0.0, 2.0, -0.5]:
            with pytest.raises(ValueError):
                FracLapRequest(grid=grid, phi=TestFunction.quadratic(dim=1), s=s)

    def test_pole_1d_s1(self):
        grid = make_interval_grid(0.0, 1.0, 11)
        with pytest.raises(GammaPole):
            FracLapRequest(grid=grid, phi=TestFunction.quadratic(dim=1), s=1.0)

    def test_no_pole_2d_s1(self):
        grid = make_rectangle_grid(0, 1, 0, 1, 9, 9)
        req = FracLapRequest(grid=grid, phi=TestFunction.quadratic(dim=2), s=1.0)
        assert np.isfinite(fraclap_new(req, [0.5, 0.5]))

    def test_margin_violation(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        req = _req(grid, TestFunction.quadratic(dim=1), 0.5)
        with pytest.raises(ValueError):
            fraclap_restated(req, 0.01)

    def test_mode_affects_scale(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        phi = TestFunction.quadratic(dim=1)
        s = 0.5
        vp = fraclap_new(_req(grid, phi, s, mode=ConstantMode.PAPER), 0.5)
        vs = fraclap_new(_req(grid, phi, s, mode=ConstantMode.STANDARD), 0.5)
        assert vs / vp == pytest.approx(math.pi ** ((2 - s - 1) / 2.0), rel=1e-12)
