"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line with the worst
measured value against its tolerance before asserting.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

import fraclap
from fraclap.discrete import (apply_fraclap_discrete, assemble_laplacian_1d,
                              laplacian_1d_eigenvalues, matrix_fractional_power,
                              modal_diffusion_solve, sym_eigendecompose)
from fraclap.domain import (BoundaryData, TestFunction, boundary_quadrature,
                            make_interval_grid, make_rectangle_grid)
from fraclap.greens import green_residual
from fraclap.operators import (Definition, FracLapRequest, fraclap_augmented,
                               fraclap_hypersingular, fraclap_new,
                               fraclap_restated, surface_integral)
from fraclap.riesz import PotentialRequest, RuleParams, riesz_potential_point
from fraclap.special import radial_laplacian


def _report(num, name, measured, tol, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d} {name}: measured {measured:.3e} "
          f"vs tolerance {tol:.1e}")
    assert ok


def _gamma_c(d, sigma):
    return math.gamma((d - sigma) / 2.0) / (
        math.pi ** (sigma / 2.0) * 2.0 ** sigma * math.gamma(sigma / 2.0))


def test_01_riesz_potential_closed_form():
    grid = make_interval_grid(0.0, 1.0, 21)
    worst = 0.0
    for sigma in [0.25, 0.5, 0.75, 1.5]:
        req = PotentialRequest(grid=grid, phi=TestFunction.constant(1.0),
                               sigma=sigma)
        for x in [0.1, 0.3, 0.5, 0.7, 0.9]:
            expect = _gamma_c(1, sigma) * (x ** sigma + (1 - x) ** sigma) / sigma
            got = riesz_potential_point(req, x)
            worst = max(worst, abs(got - expect) / abs(expect))
    _report(1, "closed-form potential, unit field", worst, 1e-7, worst <= 1e-7)


def test_02_radial_kernel_identity():
    worst = 0.0
    for d in (1, 2, 3):
        for s in [0.25, 0.5, 0.8, 1.1, 1.5, 1.9]:
            beta = d - 2.0 + s
            if abs(beta) < 1e-12:
                continue
            for r in np.geomspace(0.05, 5.0, 20):
                lhs = radial_laplacian(
                    r, d,
                    df=lambda rr: -beta * rr ** (-beta - 1.0),
                    d2f=lambda rr: beta * (beta + 1.0) * rr ** (-beta - 2.0))
                rhs = beta * s * r ** (-(d + s))
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _report(2, "radial kernel identity", worst, 1e-6, worst <= 1e-6)


def test_03_affine_annihilation():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for d in (1, 2):
        if d == 1:
            grid = make_interval_grid(0.0, 1.0, 21)
            x = 0.45
        else:
            grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
            x = [0.45, 0.55]
        for s in (0.5, 1.5):
            for _ in range(20):
                g = rng.uniform(-3.0, 3.0, size=d)
                c0 = rng.uniform(-2.0, 2.0)
                req = FracLapRequest(grid=grid, s=s,
                                     phi=TestFunction.affine(g, c0))
                worst = max(worst, abs(fraclap_new(req, x)))
    _report(3, "affine fields annihilated", worst, 1e-10, worst <= 1e-10)


def test_04_green_identity_equivalence():
    worst_default = 0.0
    worst_factor = 0.0
    for d in (1, 2):
        if d == 1:
            grid = make_interval_grid(0.0, 1.0, 21)
            x = 0.45
            fields = [TestFunction.quadratic(dim=1),
                      TestFunction.gaussian_bump([0.5], 0.25)]
        else:
            grid = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
            x = [0.45, 0.55]
            fields = [TestFunction.quadratic(dim=2),
                      TestFunction.gaussian_bump([0.5, 0.5], 0.3)]
        bq = boundary_quadrature(grid)
        for phi in fields:
            bd = BoundaryData.from_function(bq, phi)
            for s in (0.5, 1.5):
                if d == 1 and abs(s - 1.0) < 1e-12:
                    continue

                def gap(rule):
                    req = FracLapRequest(grid=grid, phi=phi, s=s, boundary=bd,
                                         definition=Definition.AUGMENTED,
                                         rule=rule)
                    va = fraclap_augmented(req, x)
                    vn = fraclap_new(req, x)
                    return abs(va - vn) / max(abs(vn), 1e-300)

                worst_default = max(worst_default, gap(RuleParams()))
                # refinement doubles both the radial and the angular order
                errs = [gap(RuleParams(radial_order=k, gauss_order=k))
                        for k in (2, 4, 8)]
                for e0, e1 in zip(errs, errs[1:]):
                    if e1 > 1e-12:
                        worst_factor = max(worst_factor, e1 / max(e0, 1e-300))
    _report(4, "equivalence of the two potential routes (default gap)",
            worst_default, 5e-3, worst_default <= 5e-3)
    _report(4, "equivalence gap shrink per refinement doubling",
            worst_factor, 0.5, worst_factor <= 0.5)


def test_05_standard_definition_consistency():
    grid = make_interval_grid(0.0, 1.0, 21)
    worst = 0.0
    for phi in [TestFunction.gaussian_bump([0.5], 0.25),
                TestFunction.quadratic(dim=1)]:
        for s in (0.5, 1.5):
            req = FracLapRequest(grid=grid, phi=phi, s=s)
            vr = fraclap_restated(req, 0.45)
            vh = fraclap_hypersingular(req, 0.45)
            worst = max(worst, abs(vr - vh) / max(abs(vr), 1e-300))
    _report(5, "finite-part route matches outer-Laplacian route", worst,
            5e-3, worst <= 5e-3)


def test_06_boundary_term_decomposition():
    grid = make_interval_grid(0.0, 1.0, 21)
    phi = TestFunction.quadratic(dim=1)
    bd = BoundaryData.from_function(boundary_quadrature(grid), phi)
    worst = 0.0
    for s in (0.5, 1.5):
        req = FracLapRequest(grid=grid, phi=phi, s=s, boundary=bd,
                             definition=Definition.AUGMENTED)
        x = 0.5
        lhs = fraclap_restated(req, x) - fraclap_new(req, x)
        rhs = -surface_integral(req, x)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    _report(6, "difference of routes equals the surface term", worst,
            1e-2, worst <= 1e-2)


def test_07_green_residual():
    g1 = make_interval_grid(0.0, 1.0, 9)
    g2 = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 5, 5)

    def poly1(c):
        c = np.asarray(c, float)
        dc, d2c = np.polyder(c), np.polyder(np.polyder(c))
        return TestFunction(
            dim=1,
            _value=lambda p: np.polyval(c, p[:, 0]),
            _gradient=lambda p: np.polyval(dc, p[:, 0]).reshape(-1, 1),
            _laplacian=lambda p: np.polyval(d2c, p[:, 0]),
            _hessian=None)

    worst_poly = max(
        green_residual(g1, poly1([1, -2, 0.5, 1]), poly1([2, 0, -1])),
        green_residual(g2, TestFunction.quadratic(dim=2),
                       TestFunction.affine([1.0, -2.0], 0.5)))
    _report(7, "identity residual, polynomial pairs", worst_poly, 1e-12,
            worst_poly <= 1e-12)

    worst_factor = 0.0
    for grid, u, v in [
            (g1, TestFunction.gaussian_bump([0.4], 0.3), TestFunction.sine_mode(1, g1)),
            (g2, TestFunction.gaussian_bump([0.4, 0.5], 0.35), TestFunction.sine_mode(1, g2))]:
        errs = [green_residual(grid, u, v, gauss_order=g) for g in (1, 2, 4)]
        for e0, e1 in zip(errs, errs[1:]):
            if e1 > 1e-12:
                worst_factor = max(worst_factor, e1 / max(e0, 1e-300))
    _report(7, "identity residual decay, smooth pairs", worst_factor, 0.25,
            worst_factor <= 0.25)


def test_08_discrete_suite():
    K = assemble_laplacian_1d(50, 1.0)
    eig = sym_eigendecompose(K)
    nk = np.linalg.norm(K, "fro")
    # (a) endpoint powers
    e_end = max(
        np.linalg.norm(matrix_fractional_power(eig, 1.0) - K, "fro") / nk,
        np.linalg.norm(matrix_fractional_power(eig, 0.0) - np.eye(50), "fro")
        / np.sqrt(50))
    _report(8, "endpoint powers reproduce matrix and identity", e_end,
            1e-10, e_end <= 1e-10)
    # (b) semigroup, n up to 400
    e_semi = 0.0
    for n, (a, b) in [(50, (0.25, 0.5)), (200, (0.5, 0.5)), (400, (0.3, 1.1))]:
        eg = sym_eigendecompose(assemble_laplacian_1d(n, 1.0))
        Pa = matrix_fractional_power(eg, a)
        Pb = matrix_fractional_power(eg, b)
        Pab = matrix_fractional_power(eg, a + b)
        e_semi = max(e_semi, np.linalg.norm(Pa @ Pb - Pab, "fro")
                     / np.linalg.norm(Pab, "fro"))
    _report(8, "semigroup property of fractional powers", e_semi, 1e-8,
            e_semi <= 1e-8)
    # (c) closed-form eigenvalues
    e_eig = float(np.max(np.abs(eig.eigenvalues - laplacian_1d_eigenvalues(50, 1.0))
                         / laplacian_1d_eigenvalues(50, 1.0)))
    _report(8, "closed-form eigenvalues reproduced", e_eig, 1e-10, e_eig <= 1e-10)
    # (d) spectral action on eigenvectors
    s = 1.3
    e_spec = 0.0
    for k in (0, 10, 25, 49):
        v = eig.eigenvectors[:, k]
        lam_s = eig.eigenvalues[k] ** (s / 2.0)
        e_spec = max(e_spec, float(np.max(np.abs(
            apply_fraclap_discrete(eig, s, v) - lam_s * v))) / lam_s)
    _report(8, "spectral action on eigenvectors", e_spec, 1e-10, e_spec <= 1e-10)


def test_09_modal_diffusion():
    n = 50
    K = assemble_laplacian_1d(n, 1.0)
    eig = sym_eigendecompose(K)
    rng = np.random.default_rng(77)
    u0 = rng.standard_normal(n)
    times = [1e-5, 1e-4, 5e-4]
    sols = modal_diffusion_solve(eig, 2.0, u0, times)
    e_exp = max(np.linalg.norm(u - expm(-t * K) @ u0)
                / max(np.linalg.norm(expm(-t * K) @ u0), 1.0)
                for t, u in zip(times, sols))
    _report(9, "classical limit matches matrix exponential", e_exp, 1e-8,
            e_exp <= 1e-8)
    mono_ok = True
    grid_times = [0.0, 1e-4, 1e-3, 1e-2, 0.1]
    for s in (0.5, 1.0, 1.5, 2.0):
        norms = [np.linalg.norm(u)
                 for u in modal_diffusion_solve(eig, s, u0, grid_times)]
        mono_ok &= all(n1 <= n0 + 1e-12 for n0, n1 in zip(norms, norms[1:]))
    _report(9, "solution norm non-increasing in time", 0.0 if mono_ok else 1.0,
            0.5, mono_ok)


def test_10_cli_black_box(tmp_path):
    # the child process imports the same fraclap as this one
    src = os.path.dirname(os.path.dirname(fraclap.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "fraclap.cli", *args],
                              capture_output=True, text=True, env=env)

    ok = True
    ok &= run("potential", "--d", "1", "--domain", "0,1", "--sigma", "0.5",
              "--func", "const:1", "--points", "0.5").returncode == 0
    ok &= run("potential", "--d", "1", "--domain", "0,1", "--sigma", "3",
              "--func", "const:1", "--points", "0.5").returncode == 2
    ok &= run("fraclap", "--d", "1", "--domain", "0,1", "--s", "1.0",
              "--def", "new", "--func", "quad", "--points", "0.5").returncode == 3
    ok &= run("validate", "--suite", "discrete").returncode == 0

    args = ("potential", "--d", "1", "--domain", "0,1", "--sigma", "0.75",
            "--func", "gauss:0.5,0.2", "--points", "0.3,0.6")
    f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    ok &= run(*args, "--out", str(f1)).returncode == 0
    ok &= run(*args, "--out", str(f2)).returncode == 0
    identical = f1.read_bytes() == f2.read_bytes()
    m1 = json.loads((tmp_path / "r1.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2.csv.manifest.json").read_text())
    ok &= identical and m1 == m2
    _report(10, "exit codes and bit-identical reruns", 0.0 if ok else 1.0,
            0.5, ok)
