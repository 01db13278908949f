"""Fractional-Laplacian evaluators and their cross-identities."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import hyp2f1

from fraclap import operators
from fraclap.domain import (BoundaryData, FieldAdapter, TestFunction, boundary_quadrature,
                            make_interval_grid, make_rectangle_grid)
from fraclap.errors import (GammaPole, MissingBoundaryData)
from fraclap.operators import (Definition, FracLapRequest, evaluate,
                               fraclap_augmented, fraclap_hypersingular,
                               fraclap_new, fraclap_restated, surface_integral)
from fraclap.riesz import FieldRequest, PotentialRequest, RuleParams, riesz_potential_point
from fraclap.special import ConstantMode, h_constant


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

    @pytest.mark.parametrize("s", [0.5, 0.75, 1.5])
    def test_surface_kernels_follow_the_definition(self, s):
        # the 1D surface term written out: endpoints 0 and 1, outward normals -1 and +1,
        # unit weights, r-hat . n = +1 at both; v = r^-(s-1) under c(1, 2-s) for the
        # rigorous kernels, v = r^-(1+s) under 1/h = c(1, 2-s) (s-1) s as printed
        grid = make_interval_grid(0.0, 1.0, 21)
        phi = TestFunction.gaussian_bump([0.45], 0.2)
        c = _c(1, 2.0 - s)
        for dfn, beta, pref in ((Definition.AUGMENTED, s - 1.0, c),
                                (Definition.AUGMENTED_AS_PRINTED, 1.0 + s, c * (s - 1.0) * s)):
            req = _with_bc(grid, phi, s, dfn)
            for x in (0.3, 0.5, 0.62):
                expect = pref * sum(
                    phi.value(end) * (-beta * abs(end - x) ** (-(beta + 1.0)))
                    - abs(end - x) ** (-beta) * phi.gradient(end) * normal
                    for end, normal in ((0.0, -1.0), (1.0, 1.0)))
                assert surface_integral(req, x) == pytest.approx(expect, rel=1e-12), dfn
                # the augmented route is the finite-part body plus that surface term
                assert fraclap_augmented(req, x) == (
                    fraclap_hypersingular(req, x) + surface_integral(req, x))


class TestAugmentedSharesRays:
    """The augmented route is the finite-part body plus the surface term, exactly, and
    computes the rays from each point to the boundary once for both."""

    @pytest.mark.parametrize("dfn", [Definition.AUGMENTED, Definition.AUGMENTED_AS_PRINTED])
    @pytest.mark.parametrize("s", [0.5, 0.75, 1.5])
    @pytest.mark.parametrize("d", [1, 2])
    def test_augmented_is_hyper_plus_surface_exactly(self, d, s, dfn):
        if d == 1:
            grid, phi = make_interval_grid(0.0, 1.0, 21), TestFunction.gaussian_bump([0.45], 0.2)
        else:
            grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 13, 13)
            phi = TestFunction.gaussian_bump([0.45, 0.55], 0.2)
        req = _with_bc(grid, phi, s, dfn)
        pts = req.grid.interior_nodes()[::5]
        got = np.array([fraclap_augmented(req, x) for x in pts])
        want = np.array([fraclap_hypersingular(req, x) + surface_integral(req, x) for x in pts])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dfn", [Definition.AUGMENTED, Definition.AUGMENTED_AS_PRINTED])
    def test_boundary_rays_computed_once_per_point(self, monkeypatch, dfn):
        grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 13, 13)
        phi = TestFunction.gaussian_bump([0.5, 0.5], 0.2)
        rays, compute = [], operators._boundary_rays
        monkeypatch.setattr(operators, "_boundary_rays",
                            lambda bq, xi: rays.append(xi) or compute(bq, xi))
        req = FracLapRequest(grid=grid, phi=phi, s=1.25, eval_points=grid.interior_nodes(),
                             definition=dfn,
                             boundary=BoundaryData.from_function(boundary_quadrature(grid), phi))
        assert len(evaluate(req)) == 81
        assert len(rays) == 81

    def test_margin_checked_before_any_ray(self, monkeypatch):
        grid = make_interval_grid(0.0, 1.0, 21)
        req = _with_bc(grid, TestFunction.quadratic(dim=1), 0.5, Definition.AUGMENTED)
        rays = []
        monkeypatch.setattr(operators, "_boundary_rays", lambda bq, xi: rays.append(xi))
        with pytest.raises(ValueError, match="interior margin"):
            fraclap_augmented(req, 0.05)
        assert rays == []


def _grid_and_field(d):
    if d == 1:
        return make_interval_grid(0.0, 1.0, 21), TestFunction.gaussian_bump([0.45], 0.2)
    return (make_rectangle_grid(0.0, 1.3, 0.0, 0.9, 13, 11),
            TestFunction.gaussian_bump([0.6, 0.4], 0.25))


def _reference_terms(req, x):
    """The finite part and both surface terms as first written, on their own rules, each
    with its scale, the sum of its summands' magnitudes: the subtracted terms' boundary
    fluxes fp0 and fp1 and the as-printed surface under 1/h, the rigorous surface under
    c(d, 2-s) = 1/(h (d-2+s) s), dv/dn through the unit ray."""
    grid, s, d = req.grid, req.s, req.grid.dim
    xi = np.asarray(x, float).reshape(d)
    fld, rule = FieldAdapter(req.field), req.rule.build(grid, xi, -(d - 2.0 + s))
    px, gx = fld.value_at(xi), fld.gradient_at(xi)
    num = rule.integrate_kernel((fld.value(rule.nodes) - px - (rule.nodes - xi) @ gx)
                                / rule.dist ** 2)
    bq = boundary_quadrature(grid)
    rv = bq.points - xi
    rr = np.linalg.norm(rv, axis=1)
    rhat_n = np.sum(rv / rr[:, None] * bq.normals, axis=1)
    fp0_terms = bq.weights * rr ** (-(d + s)) * np.sum(rv * bq.normals, axis=1) / s
    fp1_terms = (bq.weights * rr ** (-(d - 2.0 + s)))[:, None] * bq.normals / (d - 2.0 + s)
    fp0, fp1 = -np.sum(fp0_terms), -np.sum(fp1_terms, axis=0)
    inv_h = 1.0 / h_constant(d, s, req.mode)
    bd = req.boundary

    def surface(pref, beta):
        v, dvdn = rr ** (-beta), -beta * rr ** (-(beta + 1.0)) * rhat_n
        flux, trace = bd.dirichlet * dvdn, v * bd.neumann
        return (pref * np.sum(bq.weights * (flux - trace)),
                abs(pref) * np.sum(bq.weights * (np.abs(flux) + np.abs(trace))))
    magnitude = abs(num) + abs(px) * np.sum(np.abs(fp0_terms)) + np.sum(np.abs(fp1_terms @ gx))
    return {"hyper": (-(num + px * fp0 + gx @ fp1) * inv_h, abs(inv_h) * magnitude),
            Definition.AUGMENTED: surface(inv_h / ((d - 2.0 + s) * s), d - 2.0 + s),
            Definition.AUGMENTED_AS_PRINTED: surface(inv_h, d + s)}


def _worst_against_reference(d, s, mode, pts):
    """The largest distance, over ``pts``, of ``hyper``, both surface terms and both
    augmented routes from the reference, each over its scale."""
    grid, phi = _grid_and_field(d)
    bd = BoundaryData.from_function(boundary_quadrature(grid), phi)
    reqs = {dfn: _req(grid, phi, s, definition=dfn, boundary=bd, mode=mode)
            for dfn in (Definition.AUGMENTED, Definition.AUGMENTED_AS_PRINTED)}
    worst = {}
    for x in pts:
        ref = _reference_terms(reqs[Definition.AUGMENTED], x)
        vh, sh = ref["hyper"]
        for dfn, req in reqs.items():
            vs, ss = ref[dfn]
            for name, got, want, scale in (
                    ("hyper", fraclap_hypersingular(req, x), vh, sh),
                    (f"surface {dfn.value}", surface_integral(req, x), vs, ss),
                    (dfn.value, fraclap_augmented(req, x), vh + vs, sh + ss)):
                worst[name] = max(worst.get(name, 0.0), abs(got - want) / scale)
    return worst


class TestBoundarySumAgainstFirstFormula:
    """``hyper``, ``augmented``, ``augmented-asprinted`` and their surface terms, all one
    Green boundary sum under c(d, 2-s), against the finite part written with fp0 and fp1
    under 1/h and the surface terms written with their own prefactors."""

    @pytest.mark.parametrize("mode", list(ConstantMode))
    @pytest.mark.parametrize("d,s", [(d, s) for d in (1, 2)
                                     for s in (0.25, 0.5, 0.75, 1.25, 1.5, 1.9)] + [(2, 1.0)])
    def test_within_round_off_of_the_reference(self, d, s, mode):
        grid, _ = _grid_and_field(d)
        worst = _worst_against_reference(d, s, mode, grid.interior_nodes()[::4])
        assert max(worst.values()) <= 1e-13, worst

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 2]), mode=st.sampled_from(list(ConstantMode)),
           s=st.floats(0.05, 1.95), u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_any_point_inside_the_margin(self, d, mode, s, u):
        assume(abs(d - 2.0 + s) >= 1e-2)  # the 1D pole has its own test below
        grid, _ = _grid_and_field(d)
        lo, hi = np.asarray(grid.lo) + grid.margin, np.asarray(grid.hi) - grid.margin
        x = lo + np.asarray(u[:d]) * (hi - lo)
        assert max(_worst_against_reference(d, s, mode, [x]).values()) <= 1e-13

    @pytest.mark.parametrize("mode", list(ConstantMode))
    @pytest.mark.parametrize("s", [1.0 + e for e in (-1e-3, 1e-3, -1e-5, 1e-5, -1e-6, 1e-6)])
    def test_near_the_1d_pole(self, s, mode):
        # the routes and the reference both read Gamma((1-2+s)/2) from s itself, so the
        # pole at s = 1 amplifies no rounding of sigma = 2 - s; measured worst 7.5e-16
        grid, _ = _grid_and_field(1)
        worst = _worst_against_reference(1, s, mode, grid.interior_nodes()[::4])
        assert max(worst.values()) <= 2e-15, worst


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

    def test_boundary_rule_built_once_per_request(self, monkeypatch):
        # without boundary data the finite part takes the grid's boundary rule, built once
        grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 13, 13)
        built, build = [], operators.boundary_quadrature
        monkeypatch.setattr(operators, "boundary_quadrature",
                            lambda g: built.append(g) or build(g))
        req = FracLapRequest(grid=grid, phi=TestFunction.gaussian_bump([0.5, 0.5], 0.2),
                             s=1.25, eval_points=grid.interior_nodes(),
                             definition=Definition.HYPERSINGULAR)
        assert len(evaluate(req)) == 81
        assert built == [grid]

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

    def test_nan_point_violates_the_margin(self):
        # every route checks the margin first, whichever coordinate is NaN
        grid, phi = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 13, 13), TestFunction.quadratic(dim=2)
        bd = BoundaryData.from_function(boundary_quadrature(grid), phi)
        for dfn in Definition:
            for x in ([0.5, math.nan], [math.nan, 0.5]):
                req = _req(grid, phi, 0.5, definition=dfn, boundary=bd, eval_points=[x])
                with pytest.raises(ValueError, match="interior margin"):
                    evaluate(req)

    def test_mode_affects_scale(self):
        grid = make_interval_grid(0.0, 1.0, 21)
        phi = TestFunction.quadratic(dim=1)
        s = 0.5
        vp = fraclap_new(_req(grid, phi, s, mode=ConstantMode.PAPER), 0.5)
        vs = fraclap_new(_req(grid, phi, s, mode=ConstantMode.STANDARD), 0.5)
        assert vs / vp == pytest.approx(math.pi ** ((2 - s - 1) / 2.0), rel=1e-12)


class TestRequests:
    """The potential and the fractional-Laplacian requests share one keyword-only base."""

    @pytest.mark.parametrize("make", [
        lambda **kw: PotentialRequest(sigma=0.5, **kw),
        lambda **kw: FracLapRequest(s=0.5, **kw)], ids=["potential", "fraclap"])
    def test_shared_points(self, make):
        g1, g2 = make_interval_grid(0.0, 1.0, 21), make_rectangle_grid(0, 1, 0, 1, 9, 9)
        req = make(grid=g1, phi=TestFunction.quadratic(dim=1), eval_points=[[0.3], [0.5]])
        assert isinstance(req, FieldRequest)
        np.testing.assert_array_equal(req.points(), [0.3, 0.5])
        req = make(grid=g2, phi=TestFunction.quadratic(dim=2), eval_points=[0.3, 0.4])
        np.testing.assert_array_equal(req.points(), [[0.3, 0.4]])
        with pytest.raises(ValueError, match="no evaluation points"):
            make(grid=g1, phi=TestFunction.quadratic(dim=1)).points()

    def test_positional_arguments_rejected(self):
        grid, phi = make_interval_grid(0.0, 1.0, 21), TestFunction.quadratic(dim=1)
        with pytest.raises(TypeError):
            PotentialRequest(grid, phi, 0.5)
        with pytest.raises(TypeError):
            FracLapRequest(grid, phi, 0.5)
