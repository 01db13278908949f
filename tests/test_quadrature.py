"""Singularity-resolving quadrature: Duffy fans over a Gauss-Jacobi radial rule."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fraclap.quadrature import _radial_rule, box_facets, gauss_panel, graded_quadrature_rule


def _polar_square_oracle(rect, xs, alpha):
    """Integral of r^-alpha over a rectangle, singular point inside.

    Independent reduction: split into four corner triangles and integrate
    the exact radial profile rho(theta)^(2-alpha)/(2-alpha) over angle with
    an adaptive 1D rule.
    """
    a1, b1, a2, b2 = rect
    corners = [np.array([a1, a2]), np.array([b1, a2]),
               np.array([b1, b2]), np.array([a1, b2])]
    xs = np.asarray(xs, float)
    total = 0.0
    for i in range(4):
        A, B = corners[i], corners[(i + 1) % 4]
        d1, d2 = A - xs, B - xs
        th1, th2 = np.arctan2(d1[1], d1[0]), np.arctan2(d2[1], d2[0])
        if th2 <= th1:
            th2 += 2.0 * np.pi
        # line through A and B: rho(theta) = dist / cos(theta - theta_n)
        edge = B - A
        nrm = np.array([edge[1], -edge[0]])
        nrm = nrm / np.hypot(*nrm)
        dist = abs(np.dot(A - xs, nrm))
        th_n = np.arctan2(-nrm[1], -nrm[0]) if np.dot(nrm, A - xs) < 0 else np.arctan2(nrm[1], nrm[0])

        def profile(th):
            rho = dist / np.cos(th - th_n)
            return rho ** (2.0 - alpha) / (2.0 - alpha)

        val, err = quad(profile, th1, th2, limit=200)
        total += val
    return total


class TestGaussPanel:
    def test_polynomial_exactness(self):
        x, w = gauss_panel(0.0, 1.0, 8)
        # degree-15 polynomial integrated exactly by 8-point Gauss
        assert np.sum(w * x ** 15) == pytest.approx(1.0 / 16.0, rel=1e-14)

    def test_interval_mapping(self):
        x, w = gauss_panel(2.0, 5.0, 4)
        assert np.sum(w) == pytest.approx(3.0, rel=1e-14)
        assert x.min() > 2.0 and x.max() < 5.0

    @pytest.mark.parametrize("ends", [
        np.linspace(-1.0, 2.5, 6),                # ascending chain of panels
        0.7 * 0.5 ** np.arange(6),                # radial panels, outermost first
    ])
    def test_array_ends_match_scalar_calls(self, ends):
        a, b = (ends[:-1], ends[1:]) if ends[0] < ends[1] else (ends[1:], ends[:-1])
        x, w = gauss_panel(a, b, 5)
        parts = [gauss_panel(float(lo), float(hi), 5) for lo, hi in zip(a, b)]
        assert np.array_equal(x, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(w, np.concatenate([p[1] for p in parts]))

    def test_composite_polynomial_exactness(self):
        j = np.arange(4)
        x, w = gauss_panel(j / 4, (j + 1) / 4, 8)
        assert x.shape == w.shape == (32,)
        assert np.sum(w * x ** 15) == pytest.approx(1.0 / 16.0, rel=1e-14)


class TestGradedRule1D:
    def test_smooth_integrand(self):
        rule = graded_quadrature_rule((0.0, 1.0), 0.3)
        assert rule.nodes.shape == (len(rule.weights), 1)
        val = rule.integrate_kernel(lambda p: p[:, 0] ** 3)
        assert val == pytest.approx(0.25, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_endpoint_singularity_closed_form(self, alpha):
        # integral of x^-alpha over (0, 1] equals 1/(1-alpha)
        rule = graded_quadrature_rule((0.0, 1.0), 0.0, -alpha)
        val = rule.integrate_kernel()
        assert val == pytest.approx(1.0 / (1.0 - alpha), rel=1e-12)

    @pytest.mark.parametrize("x0", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("alpha", [0.5, 0.95])
    def test_interior_singularity_closed_form(self, x0, alpha):
        rule = graded_quadrature_rule((0.0, 1.0), x0, -alpha)
        expect = (x0 ** (1 - alpha) + (1 - x0) ** (1 - alpha)) / (1 - alpha)
        assert rule.integrate_kernel() == pytest.approx(expect, rel=1e-11)

    def test_kernel_with_field_factor(self):
        # integral of x * x^-0.5 over (0,1] = 2/3 (field evaluated at nodes)
        rule = graded_quadrature_rule((0.0, 1.0), 0.0, -0.5)
        assert rule.nodes.shape == (len(rule.weights), 1)
        val = rule.integrate_kernel(lambda p: p[:, 0])
        assert val == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_order_convergence(self):
        # error shrinks as the radial order doubles (down to a floor near
        # machine precision); the field is smooth but no polynomial, which
        # the Gauss-Jacobi rule would integrate exactly
        x0, alpha = 0.5, 0.75
        expect = (quad(np.cos, 0.0, x0, weight="alg", wvar=(0.0, -alpha))[0]
                  + quad(np.cos, x0, 1.0, weight="alg", wvar=(-alpha, 0.0))[0])
        errs = []
        for order in (2, 4, 8):
            rule = graded_quadrature_rule((0.0, 1.0), x0, -alpha, radial_order=order)
            assert rule.nodes.shape == (len(rule.weights), 1)
            errs.append(abs(rule.integrate_kernel(lambda p: np.cos(p[:, 0])) - expect))
        assert errs[1] < 0.5 * errs[0] or errs[1] < 1e-12
        assert errs[2] < 0.5 * errs[1] or errs[2] < 1e-12

    def test_weights_positive_distances_match(self):
        rule = graded_quadrature_rule((0.0, 1.0), 0.4)
        assert np.all(rule.weights > 0.0)
        assert np.all(rule.dist > 0.0)
        assert rule.nodes.shape == (len(rule.weights), 1)
        np.testing.assert_allclose(np.abs(rule.nodes[:, 0] - 0.4), rule.dist,
                                   rtol=1e-7, atol=1e-16)

    def test_total_weight_is_measure(self):
        rule = graded_quadrature_rule((0.0, 2.0), 1.3)
        assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-12)


class TestGradedRule2D:
    def test_smooth_integrand(self):
        rule = graded_quadrature_rule((0.0, 1.0, 0.0, 1.0), [0.4, 0.55])
        val = rule.integrate_kernel(lambda p: p[:, 0] ** 2 * p[:, 1])
        assert val == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_total_weight_is_area(self):
        rule = graded_quadrature_rule((0.0, 2.0, 0.0, 1.5), [0.7, 0.9])
        assert np.sum(rule.weights) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_singular_kernel_against_polar_oracle(self, alpha):
        rect = (0.0, 1.0, 0.0, 1.0)
        xs = [0.4, 0.55]
        rule = graded_quadrature_rule(rect, xs, -alpha)
        expect = _polar_square_oracle(rect, xs, alpha)
        assert rule.integrate_kernel() == pytest.approx(expect, rel=1e-9)

    def test_corner_singularity(self):
        rect = (0.0, 1.0, 0.0, 1.0)
        rule = graded_quadrature_rule(rect, [0.0, 0.0], -1.0)
        expect = _polar_square_oracle(rect, [1e-14, 1e-14], 1.0)
        assert rule.integrate_kernel() == pytest.approx(expect, rel=1e-7)


@st.composite
def _boxes_and_points(draw, dim):
    """A box, and a point of it that is often an endpoint, edge or corner."""
    lo = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(dim)])
    hi = lo + np.array([draw(st.floats(0.1, 3.0)) for _ in range(dim)])
    t = np.array([draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
                  for _ in range(dim)])
    x = np.clip(lo + t * (hi - lo), lo, hi)
    return np.column_stack([lo, hi]).ravel(), x


_RULE_PARAMS = dict(radial_order=st.integers(4, 48), gauss_order=st.integers(4, 12))


class TestGradedRuleFans:
    """Properties shared by the 1D and 2D rules, both built from Duffy fans."""

    @settings(deadline=None, max_examples=50)
    @given(dim=st.sampled_from([1, 2]), data=st.data(), **_RULE_PARAMS)
    def test_weights_and_fans_cover_the_box(self, dim, data, radial_order, gauss_order):
        bounds, x = data.draw(_boxes_and_points(dim))
        measure = np.prod(bounds[1::2] - bounds[0::2])
        rule = graded_quadrature_rule(bounds, x, radial_order=radial_order,
                                      gauss_order=gauss_order)
        assert np.sum(rule.weights) == pytest.approx(measure, rel=1e-13)
        # the fans from x over the box's facets, a simplex each, add up to the box
        verts, _ = box_facets(tuple(bounds[0::2]), tuple(bounds[1::2]))
        fan_measure = np.abs(np.linalg.det(verts - x)).sum() / math.factorial(dim)
        assert fan_measure == pytest.approx(measure, rel=1e-13)

    @settings(deadline=None, max_examples=50)
    @given(box=_boxes_and_points(1), alpha=st.floats(0.05, 0.95), **_RULE_PARAMS)
    def test_interval_kernel_closed_form(self, box, alpha, radial_order, gauss_order):
        (a, b), (x,) = box
        rule = graded_quadrature_rule((a, b), x, -alpha, radial_order=radial_order,
                                      gauss_order=gauss_order)
        expect = ((x - a) ** (1.0 - alpha) + (b - x) ** (1.0 - alpha)) / (1.0 - alpha)
        assert rule.integrate_kernel() == pytest.approx(expect, rel=1e-7)


def _monomial_error(beta, n):
    """Worst relative error of the radial rule on u^k, k < 2n, against 1/(k+beta+1)."""
    u, w = _radial_rule(beta, n)
    k = np.arange(2 * n)
    return np.max(np.abs((w * u ** k[:, None]).sum(axis=1) * (k + beta + 1.0) - 1.0))


class TestRadialRule:
    """The Gauss-Jacobi rule for the weight u^beta on (0, 1)."""

    @settings(deadline=None, max_examples=80)
    @given(n=st.integers(1, 64), beta=st.floats(-1.0, 2.0, exclude_min=True))
    @example(n=64, beta=-1.0 + 2.0 ** -53)
    @example(n=62, beta=0.05957986377661051)  # 1.3e-13 off without the Newton step
    def test_exact_on_monomials(self, n, beta):
        u, w = _radial_rule(beta, n)
        assert _monomial_error(beta, n) <= 1e-13
        assert 0.0 < u[0] and np.all(np.diff(u) > 0.0) and u[-1] < 1.0
        assert np.all(w > 0.0)
        assert not (u.flags.writeable or w.flags.writeable)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-17,
                        reason="the rule's recurrence runs in double precision here")
    @pytest.mark.parametrize("n", [32, 64])
    def test_newton_step_reaches_rounding(self, n):
        # with the recurrence in extended precision the rule is exact to a few
        # ulps; the eigenvalues alone leave about 1e-13
        assert max(_monomial_error(b, n) for b in np.linspace(-1.0, 2.0, 61)[1:]) <= 1e-14


class TestValidation:
    def test_singular_point_outside(self):
        with pytest.raises(ValueError):
            graded_quadrature_rule((0.0, 1.0), 1.5)
        with pytest.raises(ValueError):
            graded_quadrature_rule((0.0, 1.0, 0.0, 1.0), [0.5, 2.0])

    @pytest.mark.parametrize("domain, x", [((0.0, 1.0), np.nan),
                                           ((0.0, 1.0, 0.0, 1.0), [np.nan, 0.5])])
    def test_nan_point_rejected(self, domain, x):
        with pytest.raises(ValueError, match="outside"):
            graded_quadrature_rule(domain, x)

    def test_bad_radial_order(self):
        with pytest.raises(ValueError, match="radial order"):
            graded_quadrature_rule((0.0, 1.0), 0.5, radial_order=0)

    @pytest.mark.parametrize("domain, x, power", [((0.0, 1.0), 0.5, -1.0),
                                                  ((0.0, 1.0, 0.0, 1.0), [0.5, 0.5], -2.5)],
                             ids=["1d", "2d"])
    def test_non_integrable_power(self, domain, x, power):
        with pytest.raises(ValueError, match="not integrable"):
            graded_quadrature_rule(domain, x, power)

    def test_bad_gauss_order(self):
        for domain, x in (((0.0, 1.0), 0.5), ((0.0, 1.0, 0.0, 1.0), [0.5, 0.5])):
            with pytest.raises(ValueError, match="gauss order"):
                graded_quadrature_rule(domain, x, gauss_order=0)
