"""Singularity-resolving quadrature: Duffy fans over a Gauss-Jacobi radial rule."""

import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fraclap.domain import boundary_quadrature, make_interval_grid, make_rectangle_grid
from fraclap.quadrature import (DEFAULT_GAUSS_ORDER, _radial_rule, box_facets, facet_rule,
                                gauss_panel, graded_quadrature_rule)
from fraclap.riesz import RuleParams


def _box(bounds):
    """The grid of three nodes per axis on ``bounds``, (a, b) or (a1, b1, a2, b2): a rule
    reads only its box."""
    return (make_interval_grid(*bounds, 3) if len(bounds) == 2
            else make_rectangle_grid(*bounds, 3, 3))


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


# Gauss-Legendre nodes and weights on (0, 1) to 22 digits, the lower half of
# each rule (the upper half mirrors it: u -> 1 - u, same weight), from Newton's
# method on the Legendre recurrence in 50-digit arithmetic
_LEGENDRE_REFERENCE = {
    8: """
        0.01985507175123188415822 0.05061426814518812957627
        0.1016667612931866302042 0.1111905172266872352722
        0.2372337950418355070911 0.156853322938943643669
        0.4082826787521750975303 0.1813418916891809914826
        """,
    32: """
        0.001368069075259218227509 0.003509305004735048300204
        0.007194244227365832299912 0.008137197365452835302585
        0.01761887220624678461309 0.01269603265463102972788
        0.03254696203113015541454 0.01713693145651071655134
        0.05183942211697393801735 0.02141794901111334032844
        0.07531619313371501493315 0.02549902963118808809808
        0.1027581020160287965185 0.02934204673926777357264
        0.1339089406298551598063 0.03291111138818092341883
        0.1684778665348923995124 0.0361728970544242531127
        0.2061421213796188354796 0.03909694789353515323587
        0.2465500455338853049881 0.0416559621134733776111
        0.2893243619346823273179 0.04382604650220190557139
        0.33406569885893617511 0.04558693934788194235643
        0.3803563188739314627277 0.04692219954040228281959
        0.4277640192086017532574 0.04781936003963742970954
        0.4758461671561308418826 0.04827004425736390028338
        """,
    64: """
        0.0003474791321139302715472 0.000891640360848216473648
        0.001829941614022360326538 0.002073516630281233817644
        0.004493314261627839630309 0.003252228984489181428059
        0.00833187305768702153435 0.004423379913181973861515
        0.01333658610504451812907 0.005584069730065564409295
        0.01949560017397314054069 0.00673152394835932129903
        0.02679431257079859196876 0.007863015238012359660983
        0.03521541393403021208925 0.008975857887848671542523
        0.04473893146074859712181 0.01006741157676510468617
        0.0553422770024429470733 0.01113508690419162707965
        0.06700030092295359011961 0.01217635128435543666909
        0.07968535187370981862415 0.01318873485752732933585
        0.09336734243860122012904 0.01416983630712974161376
        0.1080138205283292961949 0.01511732853620123943399
        0.1235900463697340516941 0.01602896417742577679273
        0.1400590749141945865755 0.01690258091857080469578
        0.1573818434728833787182 0.01773610662844119190535
        0.1755172643726713300711 0.01852756427012002302021
        0.1944223224138033748756 0.01927507658930781456448
        0.2140521768986829828581 0.01997687056636017069333
        0.234360267990052727171 0.02063128162131176430508
        0.2552984271464735212607 0.02123675756182679450367
        0.2768169913732679560075 0.02179186226466172668841
        0.2988649210180041981521 0.02229527908187828153007
        0.3213899208311659420248 0.02274581396370907223989
        0.3443385640048945219212 0.02314239829065720864798
        0.367656418895616291813 0.02348409140810500866266
        0.3912881781299964579252 0.02377008285741515433114
        0.4151777897880035909813 0.02399969429822915386406
        0.4392685903519397227648 0.02417238111740147858488
        0.4635034391061004802752 0.0242877337207517134674
        0.4878248536682877837455 0.02434547850456986019168
        """,
}


class TestLegendreRule:
    """``gauss_panel`` on (0, 1) against the reference rule, to rounding: numpy's
    leggauss is 7.9e-15, 5.8e-14 and 1.3e-12 off on the smallest weights at
    these orders."""

    @pytest.mark.parametrize("n", sorted(_LEGENDRE_REFERENCE))
    def test_matches_reference_to_rounding(self, n):
        half = [tuple(map(Decimal, line.split()))
                for line in _LEGENDRE_REFERENCE[n].strip().splitlines()]
        ref = half + [(1 - u, w) for u, w in reversed(half[:n // 2])]
        x, w = gauss_panel(0.0, 1.0, n)
        assert len(x) == len(w) == n
        for got, want in ((x, [u for u, _ in ref]), (w, [v for _, v in ref])):
            worst = max(abs(Decimal(float(g)) - r) / r for g, r in zip(got, want))
            assert worst <= Decimal("2e-16")

    def test_order_must_be_a_positive_integer(self):
        for order in (0, -1):
            with pytest.raises(ValueError, match="order >= 1"):
                gauss_panel(0.0, 1.0, order)
        with pytest.raises(TypeError):
            gauss_panel(0.0, 1.0, 2.5)


class TestGradedRule1D:
    def test_smooth_integrand(self):
        rule = graded_quadrature_rule(_box((0.0, 1.0)), 0.3, 0.0)
        assert rule.nodes.shape == (len(rule.weights), 1)
        val = rule.integrate_kernel(rule.nodes[:, 0] ** 3)
        assert val == pytest.approx(0.25, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_endpoint_singularity_closed_form(self, alpha):
        # integral of x^-alpha over (0, 1] equals 1/(1-alpha)
        rule = graded_quadrature_rule(_box((0.0, 1.0)), 0.0, -alpha)
        val = rule.integrate_kernel(1.0)
        assert val == pytest.approx(1.0 / (1.0 - alpha), rel=1e-12)

    @pytest.mark.parametrize("x0", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("alpha", [0.5, 0.95])
    def test_interior_singularity_closed_form(self, x0, alpha):
        rule = graded_quadrature_rule(_box((0.0, 1.0)), x0, -alpha)
        expect = (x0 ** (1 - alpha) + (1 - x0) ** (1 - alpha)) / (1 - alpha)
        assert rule.integrate_kernel(1.0) == pytest.approx(expect, rel=1e-11)

    def test_kernel_with_field_factor(self):
        # integral of x * x^-0.5 over (0,1] = 2/3 (field evaluated at nodes)
        rule = graded_quadrature_rule(_box((0.0, 1.0)), 0.0, -0.5)
        assert rule.nodes.shape == (len(rule.weights), 1)
        val = rule.integrate_kernel(rule.nodes[:, 0])
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
            rule = graded_quadrature_rule(_box((0.0, 1.0)), x0, -alpha, radial_order=order)
            assert rule.nodes.shape == (len(rule.weights), 1)
            errs.append(abs(rule.integrate_kernel(np.cos(rule.nodes[:, 0])) - expect))
        assert errs[1] < 0.5 * errs[0] or errs[1] < 1e-12
        assert errs[2] < 0.5 * errs[1] or errs[2] < 1e-12

    def test_weights_positive_distances_match(self):
        rule = graded_quadrature_rule(_box((0.0, 1.0)), 0.4, 0.0)
        assert np.all(rule.weights > 0.0)
        assert np.all(rule.dist > 0.0)
        assert rule.nodes.shape == (len(rule.weights), 1)
        np.testing.assert_allclose(np.abs(rule.nodes[:, 0] - 0.4), rule.dist,
                                   rtol=1e-7, atol=1e-16)

    def test_total_weight_is_measure(self):
        rule = graded_quadrature_rule(_box((0.0, 2.0)), 1.3, 0.0)
        assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-12)


class TestGradedRule2D:
    def test_smooth_integrand(self):
        rule = graded_quadrature_rule(_box((0.0, 1.0, 0.0, 1.0)), [0.4, 0.55], 0.0)
        val = rule.integrate_kernel(rule.nodes[:, 0] ** 2 * rule.nodes[:, 1])
        assert val == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_total_weight_is_area(self):
        rule = graded_quadrature_rule(_box((0.0, 2.0, 0.0, 1.5)), [0.7, 0.9], 0.0)
        assert np.sum(rule.weights) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_singular_kernel_against_polar_oracle(self, alpha):
        rect = (0.0, 1.0, 0.0, 1.0)
        xs = [0.4, 0.55]
        rule = graded_quadrature_rule(_box(rect), xs, -alpha)
        expect = _polar_square_oracle(rect, xs, alpha)
        assert rule.integrate_kernel(1.0) == pytest.approx(expect, rel=1e-9)

    def test_corner_singularity(self):
        rect = (0.0, 1.0, 0.0, 1.0)
        rule = graded_quadrature_rule(_box(rect), [0.0, 0.0], -1.0)
        expect = _polar_square_oracle(rect, [1e-14, 1e-14], 1.0)
        assert rule.integrate_kernel(1.0) == pytest.approx(expect, rel=1e-7)


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
        rule = graded_quadrature_rule(_box(bounds), x, 0.0, radial_order=radial_order,
                                      gauss_order=gauss_order)
        assert np.sum(rule.weights) == pytest.approx(measure, rel=1e-13)
        # the fans from x over the box's facets, a simplex each, add up to the box
        verts, _, _ = box_facets(tuple(bounds[0::2]), tuple(bounds[1::2]))
        fan_measure = np.abs(np.linalg.det(verts - x)).sum() / math.factorial(dim)
        assert fan_measure == pytest.approx(measure, rel=1e-13)

    # points nearer an endpoint than 1e-30, down to the smallest subnormal: the
    # endpoint's fan holds (x - a)^(1-alpha)/(1-alpha), 5.8e-6 of the whole at 1.6e-84
    @example(box=((0.0, 1.0), (1.6e-84,)), alpha=0.9375, radial_order=4, gauss_order=4)
    @example(box=((0.0, 1.0), (1e-300,)), alpha=0.95, radial_order=4, gauss_order=4)
    @example(box=((0.0, 1.0), (5e-324,)), alpha=0.95, radial_order=32, gauss_order=8)
    @example(box=((-1.0, 0.0), (-1e-300,)), alpha=0.9, radial_order=8, gauss_order=4)
    @example(box=((-5e-324, 2.0), (0.0,)), alpha=0.95, radial_order=16, gauss_order=4)
    @pytest.mark.filterwarnings("error")
    @settings(deadline=None, max_examples=50)
    @given(box=_boxes_and_points(1), alpha=st.floats(0.05, 0.95), **_RULE_PARAMS)
    def test_interval_kernel_closed_form(self, box, alpha, radial_order, gauss_order):
        (a, b), (x,) = box
        rule = graded_quadrature_rule(_box((a, b)), x, -alpha, radial_order=radial_order,
                                      gauss_order=gauss_order)
        expect = ((x - a) ** (1.0 - alpha) + (b - x) ** (1.0 - alpha)) / (1.0 - alpha)
        assert rule.integrate_kernel(1.0) == pytest.approx(expect, rel=1e-7)


class TestFanJacobians:
    """Each fan's Jacobian is the point's distance to the facet times the facet's size,
    from ``box_facets``.  With one radial node and power 0 a fan's weights are that
    Jacobian times the radial weight 1/d and the facet weights, so they show it bit for bit."""

    @pytest.mark.parametrize("points", [
        np.random.default_rng(19).uniform(0.05, 1.0, 100_000),
        np.random.default_rng(20).uniform(0.0, 1e-300, 2_000),
        -np.random.default_rng(21).uniform(0.0, 1e-300, 2_000),
    ], ids=["unit", "near-lo", "near-hi"])
    def test_interval_fan_is_the_distance_to_the_end(self, points):
        # a determinant from LU factors misses the last bit on about 12% of the unit
        # points and on nearly all of those within 1e-300 of an end
        a, b = (0.0, 1.0) if points[0] >= 0.0 else (-1.0, 0.0)
        box = _box((a, b))
        mismatched = [x for x in points.tolist()
                      if graded_quadrature_rule(box, x, 0.0, radial_order=1).weights.tolist()
                      != [x - a, b - x]]
        assert mismatched == []

    def test_rectangle_fan_is_distance_times_edge_length(self):
        box, (bx, by) = _box((-0.75, 1.25, 0.5, 1.5)), (2.0, 1.0)
        _, wv = facet_rule(2, 4, DEFAULT_GAUSS_ORDER)
        for x, y in np.random.default_rng(22).uniform((-0.75, 0.5), (1.25, 1.5), (200, 2)):
            w = graded_quadrature_rule(box, (x, y), 0.0, radial_order=1).weights
            jac = np.array([(y - 0.5) * bx, (1.25 - x) * by, (1.5 - y) * bx, (x + 0.75) * by])
            assert np.array_equal(w.reshape(4, -1), (0.5 * jac)[:, None] * wv)

    @pytest.mark.filterwarnings("error")
    def test_only_a_facet_through_the_point_loses_its_fan(self):
        box, area = _box((0.0, 2.0, 0.0, 1.0)), 2.0
        on_edge = graded_quadrature_rule(box, (0.5, 0.0), 0.0, radial_order=1)
        near = graded_quadrature_rule(box, (0.5, 1e-300), 0.0, radial_order=1)
        nv = len(facet_rule(2, 4, DEFAULT_GAUSS_ORDER)[1])
        assert len(on_edge.weights) == 3 * nv and len(near.weights) == 4 * nv
        assert np.sum(near.weights[:nv]) == pytest.approx(0.5 * 1e-300 * 2.0, rel=1e-14)
        for rule in (on_edge, near):
            assert np.sum(rule.weights) == pytest.approx(area, rel=1e-13)
        kernel = graded_quadrature_rule(box, (0.5, 1e-300), -1.9)
        assert np.all(np.isfinite(kernel.weights)) and np.all(kernel.weights > 0.0)
        assert math.isfinite(kernel.integrate_kernel(1.0))

    @pytest.mark.parametrize("bounds, x", [((0.0, 1.0), 1.5), ((0.0, 1.0), -1e-300),
                                           ((0.0, 1.0), np.nan),
                                           ((0.0, 1.0, 0.0, 1.0), (0.5, 1.0 + 1e-15)),
                                           ((0.0, 1.0, 0.0, 1.0), (np.nan, 0.5)),
                                           ((0.0, 1.0, 0.0, 1.0), (-np.inf, 0.5))])
    def test_outside_point_is_one_error_on_every_path(self, bounds, x):
        lo, hi = list(bounds[0::2]), list(bounds[1::2])
        shown = np.asarray(x, float).reshape(-1).tolist()
        message = re.escape(f"singular point {shown} outside the box {lo} to {hi}")
        grid = _box(bounds)
        with pytest.raises(ValueError, match=message):
            graded_quadrature_rule(grid, x, -0.5)
        with pytest.raises(ValueError, match=message):
            RuleParams().build(grid, x, -0.5)

    @pytest.mark.parametrize("grid", [make_interval_grid(-0.75, 1.25, 9),
                                      make_rectangle_grid(-0.75, 1.25, 0.5, 1.5, 9, 7)],
                             ids=["interval", "rectangle"])
    def test_facet_sizes_are_the_boundary_rule_per_facet(self, grid):
        _, _, size = box_facets(grid.lo, grid.hi)
        bq = boundary_quadrature(grid)
        assert bq.weights.reshape(len(size), -1).sum(axis=1) == pytest.approx(size, rel=1e-14)


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
            graded_quadrature_rule(_box((0.0, 1.0)), 1.5, 0.0)
        with pytest.raises(ValueError):
            graded_quadrature_rule(_box((0.0, 1.0, 0.0, 1.0)), [0.5, 2.0], 0.0)

    @pytest.mark.parametrize("domain, x", [((0.0, 1.0), np.nan),
                                           ((0.0, 1.0, 0.0, 1.0), [np.nan, 0.5])])
    def test_nan_point_rejected(self, domain, x):
        with pytest.raises(ValueError, match="outside"):
            graded_quadrature_rule(_box(domain), x, 0.0)

    def test_bad_radial_order(self):
        with pytest.raises(ValueError, match="radial order"):
            graded_quadrature_rule(_box((0.0, 1.0)), 0.5, 0.0, radial_order=0)

    @pytest.mark.parametrize("domain, x, power", [((0.0, 1.0), 0.5, -1.0),
                                                  ((0.0, 1.0, 0.0, 1.0), [0.5, 0.5], -2.5)],
                             ids=["1d", "2d"])
    def test_non_integrable_power(self, domain, x, power):
        with pytest.raises(ValueError, match="not integrable"):
            graded_quadrature_rule(_box(domain), x, power)

    def test_bad_gauss_order(self):
        for domain, x in (((0.0, 1.0), 0.5), ((0.0, 1.0, 0.0, 1.0), [0.5, 0.5])):
            with pytest.raises(ValueError, match="gauss order"):
                graded_quadrature_rule(_box(domain), x, 0.0, gauss_order=0)
