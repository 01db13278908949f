"""Self-check suites: identity oracles, closed forms, and convergence probes.

Each check returns a record ``{suite, check, measured, tolerance, pass}``;
the CLI renders these as a table and a JSON report.  Checks are seeded and
deterministic, and run on numpy alone: the s = 2 diffusion limit exp(-tK) u0
takes its reference from the 1D stencil's closed-form modes (``DirichletStencil``).
"""

from __future__ import annotations

import math

import numpy as np

from . import discrete
from .domain import BoundaryData, TestFunction, boundary_quadrature, make_interval_grid, make_rectangle_grid
from .errors import GammaPole
from .greens import green_residual
from .operators import (Definition, FracLapRequest, fraclap_augmented,
                        fraclap_hypersingular, fraclap_new, fraclap_restated,
                        surface_integral)
from .riesz import PotentialRequest, riesz_potential_point
from .special import ConstantMode, h_constant, radial_laplacian, riesz_constant

__all__ = ["run_suite", "SUITES"]


def _rec(suite, check, measured, tol):
    return {"suite": suite, "check": check, "measured": float(measured),
            "tolerance": float(tol), "pass": bool(measured <= tol)}


# ---------------------------------------------------------------------------

def _suite_special():
    recs = []
    # Lap r^-(d-2+s) = (d-2+s) s r^-(d+s), from the kernel's analytic derivatives
    worst = 0.0
    radii = np.linspace(0.5, 2.0, 20)
    for d in (1, 2, 3):
        for s in (0.25, 0.5, 0.75, 1.25, 1.5, 1.75):
            beta = d - 2.0 + s
            df = lambda r: -beta * r ** (-beta - 1.0)
            d2f = lambda r: beta * (beta + 1.0) * r ** (-beta - 2.0)
            for r in radii:
                exact = beta * s * r ** (-(d + s))
                worst = max(worst, abs(radial_laplacian(r, d, df, d2f) - exact) / abs(exact))
    recs.append(_rec("special", "kernel identity (analytic)", worst, 1e-6))

    worst = 0.0
    for d in (1, 2, 3):
        for s in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75):
            for mode in ConstantMode:
                try:
                    h = h_constant(d, s, mode)
                    c = riesz_constant(d, 2.0 - s, mode)
                except GammaPole:
                    continue
                worst = max(worst, abs(h * c * (d - 2.0 + s) * s - 1.0))
    recs.append(_rec("special", "h and riesz constant reciprocal identity", worst, 1e-14))
    return recs


# ---------------------------------------------------------------------------

def _suite_riesz():
    recs = []
    grid = make_interval_grid(0.0, 1.0, 21)
    one = TestFunction.constant(1.0)
    worst = 0.0
    for sigma in (0.25, 0.5, 0.75, 1.5):
        req = PotentialRequest(grid=grid, phi=one, sigma=sigma)
        c = riesz_constant(1, sigma)
        for x in (0.1, 0.3, 0.5, 0.7, 0.9):
            exact = c * (x ** sigma + (1.0 - x) ** sigma) / sigma
            worst = max(worst, abs(riesz_potential_point(req, x) - exact) / abs(exact))
    recs.append(_rec("riesz", "closed form, constant field", worst, 1e-7))

    bump = TestFunction.gaussian_bump([0.4], 0.2)
    quad = TestFunction.quadratic(dim=1)
    worst = 0.0
    for x in (0.3, 0.6):
        ra = riesz_potential_point(PotentialRequest(grid=grid, phi=bump, sigma=0.6), x)
        rb = riesz_potential_point(PotentialRequest(grid=grid, phi=quad, sigma=0.6), x)
        combo = TestFunction(
            dim=1,
            _value=lambda p: 2.0 * bump._value(p) - 0.5 * quad._value(p),
            _gradient=lambda p: 2.0 * bump._gradient(p) - 0.5 * quad._gradient(p),
            _laplacian=lambda p: 2.0 * bump._laplacian(p) - 0.5 * quad._laplacian(p),
            _hessian=lambda p: 2.0 * bump._hessian(p) - 0.5 * quad._hessian(p))
        rc = riesz_potential_point(PotentialRequest(grid=grid, phi=combo, sigma=0.6), x)
        worst = max(worst, abs(rc - (2.0 * ra - 0.5 * rb)) / max(1.0, abs(rc)))
    recs.append(_rec("riesz", "linearity", worst, 1e-12))

    worst = 0.0
    for d, grid_d, x in ((1, grid, 0.5), (2, make_rectangle_grid(0, 1, 0, 1, 11, 11), (0.5, 0.5))):
        phi = TestFunction.constant(1.0, dim=d)
        for sigma in (0.5, 1.5):
            vp = riesz_potential_point(
                PotentialRequest(grid=grid_d, phi=phi, sigma=sigma, mode=ConstantMode.PAPER), x)
            vs = riesz_potential_point(
                PotentialRequest(grid=grid_d, phi=phi, sigma=sigma, mode=ConstantMode.STANDARD), x)
            ratio = math.pi ** (d / 2.0) / math.pi ** (sigma / 2.0)
            worst = max(worst, abs(vp - vs * ratio) / abs(vp))
    recs.append(_rec("riesz", "constant-mode ratio", worst, 1e-13))
    return recs


# ---------------------------------------------------------------------------

def _green_gap(grid, phi, s, x):
    bq = boundary_quadrature(grid)
    bd = BoundaryData.from_function(bq, phi)
    req = FracLapRequest(grid=grid, phi=phi, s=s, definition=Definition.AUGMENTED, boundary=bd)
    new = fraclap_new(req, x)
    aug = fraclap_augmented(req, x)
    return abs(aug - new) / max(1.0, abs(new))


def _suite_fraclap():
    rng = np.random.default_rng(11)
    recs = []
    g1 = make_interval_grid(0.0, 1.0, 21)
    g2 = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 13, 13)

    worst = 0.0
    for d, grid in ((1, g1), (2, g2)):
        for s in (0.5, 1.5):
            for _ in range(5):
                gvec = rng.uniform(-2, 2, size=d)
                off = rng.uniform(-1, 1)
                phi = TestFunction.affine(gvec, off)
                req = FracLapRequest(grid=grid, phi=phi, s=s)
                x = 0.5 if d == 1 else (0.45, 0.55)
                worst = max(worst, abs(fraclap_new(req, x)))
    recs.append(_rec("fraclap", "affine annihilation (new definition)", worst, 1e-10))

    worst = 0.0
    for d, grid, x in ((1, g1, 0.5), (2, g2, (0.4, 0.55))):
        for s in (0.5, 1.5):
            for phi in (TestFunction.quadratic(dim=d),
                        TestFunction.gaussian_bump([0.45] * d, 0.18)):
                worst = max(worst, _green_gap(grid, phi, s, x))
    recs.append(_rec("fraclap", "green-identity equivalence (augmented vs new)", worst, 5e-3))

    worst = 0.0
    for s in (0.5, 1.5):
        for phi in (TestFunction.quadratic(dim=1), TestFunction.gaussian_bump([0.5], 0.15)):
            req = FracLapRequest(grid=g1, phi=phi, s=s)
            a = fraclap_hypersingular(req, 0.5)
            b = fraclap_restated(req, 0.5)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    recs.append(_rec("fraclap", "finite-part vs restated (1D)", worst, 5e-3))

    worst = 0.0
    quad = TestFunction.quadratic(dim=1)
    bd = BoundaryData.from_function(boundary_quadrature(g1), quad)
    for s in (0.5, 1.5):
        req = FracLapRequest(grid=g1, phi=quad, s=s,
                             definition=Definition.AUGMENTED, boundary=bd)
        gap = fraclap_restated(req, 0.5) - fraclap_new(req, 0.5)
        surf = surface_integral(req, 0.5)
        worst = max(worst, abs(gap + surf) / max(1.0, abs(surf)))
    recs.append(_rec("fraclap", "boundary-term decomposition", worst, 1e-2))
    return recs


# ---------------------------------------------------------------------------

def _suite_greens():
    recs = []
    g1 = make_interval_grid(0.0, 1.0, 11)
    g2 = make_rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
    worst = 0.0
    polys1 = [TestFunction.constant(1.0), TestFunction.affine([1.0], 0.0),
              TestFunction.quadratic(dim=1)]
    for phi in polys1:
        for v in polys1:
            worst = max(worst, green_residual(g1, phi, v))
    polys2 = [TestFunction.constant(1.0, dim=2), TestFunction.affine([1.0, -0.5], 0.2),
              TestFunction.quadratic(dim=2)]
    for phi in polys2:
        for v in polys2:
            worst = max(worst, green_residual(g2, phi, v))
    recs.append(_rec("greens", "polynomial pairs residual", worst, 1e-12))

    # low-order quadrature so the decay is visible above the float floor
    phi = TestFunction.gaussian_bump([0.45, 0.5], 0.2)
    v = TestFunction.sine_mode(1, g2)
    res = [green_residual(make_rectangle_grid(0.0, 1.0, 0.0, 1.0, n, n), phi, v, gauss_order=2)
           for n in (5, 9, 17)]
    worst_ratio = max(res[k + 1] / res[k] for k in range(len(res) - 1))
    recs.append(_rec("greens", "refinement decay factor (smooth pair)", worst_ratio, 0.25))
    return recs


# ---------------------------------------------------------------------------

def _suite_discrete():
    recs = []
    K = discrete.assemble_laplacian_1d(50, 1.0)
    eig = discrete.sym_eigendecompose(K)

    a1 = discrete.matrix_fractional_power(eig, 1.0)
    a0 = discrete.matrix_fractional_power(eig, 0.0)
    m = max(np.linalg.norm(a1 - K, "fro") / np.linalg.norm(K, "fro"),
            np.linalg.norm(a0 - np.eye(eig.n), "fro") / np.sqrt(eig.n))
    recs.append(_rec("discrete", "power endpoints reproduce K and I", m, 1e-10))

    worst = 0.0
    K2 = discrete.assemble_laplacian_2d(20, 20, 1.0, 1.0)
    eig2 = discrete.sym_eigendecompose(K2)
    for e in (eig, eig2):
        for a, b in ((0.25, 0.25), (0.5, 0.5), (0.3, 0.7)):
            pa = discrete.matrix_fractional_power(e, a)
            pb = discrete.matrix_fractional_power(e, b)
            pab = discrete.matrix_fractional_power(e, a + b)
            worst = max(worst, np.linalg.norm(pa @ pb - pab, "fro")
                        / np.linalg.norm(pab, "fro"))
    recs.append(_rec("discrete", "semigroup property", worst, 1e-8))

    lam_cf = discrete.laplacian_1d_eigenvalues(50, 1.0)
    m = float(np.max(np.abs(np.sort(lam_cf) - eig.eigenvalues) / np.sort(lam_cf)))
    recs.append(_rec("discrete", "1D closed-form eigenvalues", m, 1e-10))

    worst = 0.0
    for k in (0, 10, 49):
        vk = eig.eigenvectors[:, k]
        out = discrete.apply_fraclap_discrete(eig, 1.0, vk)
        worst = max(worst, float(np.max(np.abs(out - eig.eigenvalues[k] ** 0.5 * vk))))
    recs.append(_rec("discrete", "spectral action on eigenvectors", worst, 1e-10))

    rng = np.random.default_rng(3)
    u0 = rng.standard_normal(eig.n)
    worst = 0.0
    for s in (0.5, 1.0, 1.5, 2.0):
        sols = discrete.modal_diffusion_solve(eig, s, u0, [0.0, 1e-4, 1e-3, 1e-2])
        norms = [np.linalg.norm(u) for u in sols]
        worst = max(worst, max(norms[k + 1] - norms[k] for k in range(3)))
    recs.append(_rec("discrete", "diffusion energy decay", worst, 0.0))

    # exp(-tK) u0 from the stencil's closed-form sine modes, not from the eigh pairs under test
    times = (1e-4, 5e-4, 1e-3)
    exact = discrete.modal_diffusion_solve(discrete.DirichletStencil((50,), (1.0,)), 2.0, u0, times)
    got = discrete.modal_diffusion_solve(eig, 2.0, u0, times)
    worst = max(float(np.max(np.abs(g - e))) for g, e in zip(got, exact))
    recs.append(_rec("discrete", "s=2 vs matrix exponential", worst, 1e-12))

    # the matrix-free DST-I route against dense eigh of the assembled stencil
    stencil = discrete.DirichletStencil((12, 9), (1.0, 0.75))
    ref = discrete.sym_eigendecompose(discrete.assemble_laplacian_2d(12, 9, 1.0, 0.75))
    p = rng.standard_normal(stencil.n)
    pairs = [(np.sort(stencil.eigenvalues), ref.eigenvalues)]
    for s in (0.5, 1.0, 1.5):
        pairs.append((discrete.apply_fraclap_discrete(stencil, s, p),
                      discrete.apply_fraclap_discrete(ref, s, p)))
        pairs.extend(zip(discrete.modal_diffusion_solve(stencil, s, p, [1e-3, 1e-2]),
                         discrete.modal_diffusion_solve(ref, s, p, [1e-3, 1e-2])))
    worst = max(float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
                for got, want in pairs)
    recs.append(_rec("discrete", "stencil transform vs dense eigh", worst, 1e-12))
    return recs


SUITES = {
    "special": _suite_special,
    "riesz": _suite_riesz,
    "fraclap": _suite_fraclap,
    "greens": _suite_greens,
    "discrete": _suite_discrete,
}


def run_suite(name):
    """Run one suite (or 'all'); returns the list of check records."""
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
