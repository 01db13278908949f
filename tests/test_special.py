"""Gamma evaluation, kernel normalization constants, and radial calculus."""

import math

import numpy as np
import pytest

from fraclap.special import (ConstantMode, FractionalOrder, fraclap_constant, gamma_ln,
                             gamma_value, h_constant, radial_laplacian,
                             riesz_constant)
from fraclap.errors import GammaPole


def _gamma_int(n):
    """Gamma(n) = (n-1)! for integer n >= 1."""
    return math.factorial(n - 1)


def _gamma_half(n):
    """Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!) for integer n >= 0."""
    return math.factorial(2 * n) / (4 ** n * math.factorial(n)) * math.sqrt(math.pi)


def _gamma_neg_half(n):
    """Gamma(1/2 - n) = (-4)^n n! sqrt(pi) / (2n)! for integer n >= 0."""
    return (-4) ** n * math.factorial(n) / math.factorial(2 * n) * math.sqrt(math.pi)


class TestGamma:
    # Oracles are the factorial closed forms above, not math.gamma/lgamma,
    # which gamma_value and gamma_ln call.
    def test_positive_arguments_match_stdlib(self):
        for n in [1, 2, 3, 8, 12, 20]:
            assert gamma_value(float(n)) == pytest.approx(_gamma_int(n), rel=1e-14)
        for n in [0, 1, 3, 7, 30]:
            assert gamma_value(n + 0.5) == pytest.approx(_gamma_half(n), rel=1e-14)

    def test_log_gamma_matches_stdlib(self):
        for n in [1, 2, 10, 50, 170]:
            assert gamma_ln(float(n)) == pytest.approx(
                math.log(math.factorial(n - 1)), rel=1e-14, abs=1e-14)
        for n in [0, 1, 2, 40]:
            expect = (math.log(math.factorial(2 * n)) - n * math.log(4.0)
                      - math.log(math.factorial(n)) + 0.5 * math.log(math.pi))
            assert gamma_ln(n + 0.5) == pytest.approx(expect, rel=1e-14, abs=1e-14)

    def test_negative_non_integer_arguments(self):
        for n in [1, 2, 3, 7]:
            assert gamma_value(0.5 - n) == pytest.approx(_gamma_neg_half(n), rel=1e-14)

    def test_recurrence_identity(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.05, 20.0, size=200)
        g1 = np.array([gamma_value(x + 1.0) for x in xs])
        g0 = np.array([gamma_value(x) for x in xs])
        assert np.max(np.abs(g1 / (xs * g0) - 1.0)) < 1e-12

    def test_reflection_consistency(self):
        # gamma(x) * gamma(1-x) = pi / sin(pi x)
        for x in [0.1, 0.3, 0.77]:
            lhs = gamma_value(x) * gamma_value(1.0 - x)
            assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-12)

    def test_poles_rejected(self):
        for x in [0.0, -1.0, -2.0, -7.0, 1e-9, -3.0 + 1e-9]:
            with pytest.raises(GammaPole):
                gamma_value(x)


class TestRieszConstant:
    # Oracle: c(d, sigma) = gamma((d - sigma)/2) / (pi^p * 2^sigma * gamma(sigma/2))
    # with p = sigma/2 in "paper" mode and p = d/2 in "standard" mode,
    # evaluated directly with math.gamma.
    def _oracle(self, d, sigma, mode):
        p = sigma / 2.0 if mode == ConstantMode.PAPER else d / 2.0
        return math.gamma((d - sigma) / 2.0) / (
            math.pi ** p * 2.0 ** sigma * math.gamma(sigma / 2.0))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75, 1.5, 1.9])
    @pytest.mark.parametrize("mode", [ConstantMode.PAPER, ConstantMode.STANDARD])
    def test_matches_gamma_oracle(self, d, sigma, mode):
        if d == 1 and abs(sigma - 1.0) < 1e-12:
            return
        assert riesz_constant(d, sigma, mode) == pytest.approx(
            self._oracle(d, sigma, mode), rel=1e-12)

    def test_mode_ratio(self):
        # standard/paper differ only by pi^((sigma - d)/2)
        for d, sigma in [(1, 0.5), (2, 0.75), (3, 1.5)]:
            ratio = (riesz_constant(d, sigma, ConstantMode.STANDARD)
                     / riesz_constant(d, sigma, ConstantMode.PAPER))
            assert ratio == pytest.approx(math.pi ** ((sigma - d) / 2.0), rel=1e-13)

    def test_pole_at_d1_sigma1(self):
        with pytest.raises(GammaPole):
            riesz_constant(1, 1.0, ConstantMode.PAPER)

    def test_mode_parse(self):
        assert ConstantMode.parse("paper") is ConstantMode.PAPER
        assert ConstantMode.parse("STANDARD") is ConstantMode.STANDARD
        with pytest.raises(ValueError):
            ConstantMode.parse("bogus")


class TestFraclapConstant:
    @pytest.mark.parametrize("mode", list(ConstantMode))
    @pytest.mark.parametrize("d,s", [(1, 1.0 + e) for e in (-1e-3, 1e-3, -1e-5, 1e-5, -1e-6, 1e-6)]
                             + [(2, 0.01), (2, 0.3)])
    def test_against_mpmath_at_the_exact_order(self, d, s, mode):
        # c(d, 2-s) with 2 - s exact; the 1D cases sit beside the pole at s = 1, which
        # amplified the rounding of sigma = 2 - s by 1/|s-1| (1.1e-10 at s = 1 - 1e-6).
        # Measured worst 5.0e-16.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            sigma = 2 - mpmath.mpf(s)
            p = sigma / 2 if mode is ConstantMode.PAPER else mpmath.mpf(d) / 2
            exact = mpmath.gamma((d - sigma) / 2) / (
                mpmath.pi ** p * 2 ** sigma * mpmath.gamma(sigma / 2))
            err = abs(fraclap_constant(d, s, mode) - exact) / abs(exact)
        assert err <= 1e-15

    @pytest.mark.parametrize("mode", list(ConstantMode))
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("s", [0.5, 0.75, 1.5])
    def test_bits_of_the_potential_constant_where_sigma_is_exact(self, d, s, mode):
        assert fraclap_constant(d, s, mode) == riesz_constant(d, 2.0 - s, mode)

    def test_rejects_an_order_outside_0_2_and_the_pole(self):
        with pytest.raises(ValueError):
            fraclap_constant(2, 2.0)
        with pytest.raises(GammaPole):
            fraclap_constant(1, 1.0)


class TestHConstant:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.3, 0.5, 1.2, 1.7])
    def test_reciprocal_identity(self, d, s):
        # 1/h = c(d, 2-s) * (d - 2 + s) * s ties the hypersingular prefactor
        # to the potential normalization.
        if d == 1 and s < 1.0:
            return  # d - 2 + s < 0: identity holds with signed gamma, below
        h = h_constant(d, s, ConstantMode.PAPER)
        c = riesz_constant(d, 2.0 - s, ConstantMode.PAPER)
        assert 1.0 / h == pytest.approx(c * (d - 2.0 + s) * s, rel=1e-13)

    def test_signed_branch(self):
        # d=1, s=0.5: exponent d-2+s is negative, constants stay consistent.
        h = h_constant(1, 0.5, ConstantMode.PAPER)
        c = riesz_constant(1, 1.5, ConstantMode.PAPER)
        assert 1.0 / h == pytest.approx(c * (-0.5) * 0.5, rel=1e-13)

    def test_degenerate_exponent(self):
        # d - 2 + s = 0 in 1D, or within round-off of it: (d-2+s)/2 is at the gamma pole at 0
        for s in (1.0, 1.0 - 9e-9, 1.0 - 5e-9, 1.0 + 5e-9, 1.0 + 1.5e-8):
            with pytest.raises(GammaPole):
                h_constant(1, s, ConstantMode.PAPER)


class TestFractionalOrder:
    def test_bounds(self):
        for bad in [0.0, 2.0, -0.5, 2.5]:
            with pytest.raises(ValueError):
                FractionalOrder(bad)

    def test_pole_check(self):
        with pytest.raises(GammaPole):
            FractionalOrder(1.0).check_pole(1)
        FractionalOrder(1.0).check_pole(2)  # fine in 2D


class TestRadialLaplacian:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_quadratic(self, d):
        # radial part of Laplacian applied to r^2 gives 2d in d dimensions
        for r in np.linspace(0.2, 3.0, 15):
            out = radial_laplacian(lambda rr: rr ** 2, r, d)
            assert abs(out - 2.0 * d) < 1e-5

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.6, 0.9, 1.1, 1.5, 1.85])
    def test_power_kernel_identity(self, d, s):
        # analytic derivatives: Laplacian of r^-(d-2+s) is (d-2+s)*s*r^-(d+s)
        beta = d - 2.0 + s
        for r in np.geomspace(0.05, 5.0, 20):
            lhs = radial_laplacian(
                lambda rr: rr ** (-beta), r, d,
                df=lambda rr: -beta * rr ** (-beta - 1.0),
                d2f=lambda rr: beta * (beta + 1.0) * rr ** (-beta - 2.0))
            rhs = beta * s * r ** (-(d + s))
            assert abs(lhs - rhs) <= 1e-6 * abs(rhs)
