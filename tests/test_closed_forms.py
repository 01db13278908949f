"""Every route against a closed form from outside the repository: Dyda's fractional
Laplacian of the bubble (1 - |x|^2)_+^p on the unit ball (Fract. Calc. Appl. Anal. 15,
2012),

    (-Delta)^(s/2) (1 - |x|^2)_+^p
        = 2^s Gamma(p+1) Gamma((d+s)/2) / (Gamma(p+1-s/2) Gamma(d/2))
          * 2F1((d+s)/2, s/2-p; d/2; |x|^2).

Under the standard constant ``hyper`` and ``restated`` are the restricted fractional
Laplacian of the field extended by zero. The bubble's Dirichlet and Neumann traces
vanish on the box, so the surface terms are zero and ``new``, ``augmented`` and
``augmented-asprinted`` equal it too.

Each bound is ten times the worst relative error measured over its points and powers,
rounded up to one significant figure. The finite-part routes lose digits as s -> 2 (the
s = 1.9 bounds) and ``restated`` carries its O(tau^2) difference truncation.
"""

import math

import numpy as np
import pytest
from scipy.special import hyp2f1

from fraclap.domain import (BoundaryData, TestFunction, boundary_quadrature,
                            make_interval_grid, make_rectangle_grid)
from fraclap.operators import Definition, FracLapRequest, evaluate
from fraclap.special import ConstantMode

FINITE_PART = (Definition.HYPERSINGULAR, Definition.AUGMENTED, Definition.AUGMENTED_AS_PRINTED)


def bubble(dim, p):
    """(1 - |x|^2)_+^p, p >= 2, with its exact gradient, Laplacian and Hessian."""

    def parts(x):
        u = 1.0 - np.sum(x * x, axis=1)
        inside = u > 0.0
        return inside, np.where(inside, u, 0.0)

    def value(x):
        _, u = parts(x)
        return u ** p

    def gradient(x):
        _, u = parts(x)
        return (-2.0 * p * u ** (p - 1))[:, None] * x

    def hessian(x):
        inside, u = parts(x)
        outer = np.einsum("ij,ik->ijk", x, x)
        return ((4.0 * p * (p - 1) * np.where(inside, u ** (p - 2), 0.0))[:, None, None] * outer
                - (2.0 * p * u ** (p - 1))[:, None, None] * np.eye(dim))

    def laplacian(x):
        return np.trace(hessian(x), axis1=1, axis2=2)

    return TestFunction(dim=dim, _value=value, _gradient=gradient,
                        _laplacian=laplacian, _hessian=hessian)


def dyda(dim, p, s, x):
    r2 = float(np.sum(np.square(x)))
    scale = (2.0 ** s * math.gamma(p + 1.0) * math.gamma((dim + s) / 2.0)
             / (math.gamma(p + 1.0 - s / 2.0) * math.gamma(dim / 2.0)))
    return scale * hyp2f1((dim + s) / 2.0, s / 2.0 - p, dim / 2.0, r2)


def worst_relative_error(grid, powers, s, points, definition):
    worst = 0.0
    for p in powers:
        phi = bubble(grid.dim, p)
        req = FracLapRequest(grid=grid, phi=phi, s=s, eval_points=points,
                             definition=definition, mode=ConstantMode.STANDARD,
                             boundary=BoundaryData.from_function(boundary_quadrature(grid), phi))
        for x, got in evaluate(req):
            want = dyda(grid.dim, p, s, x)
            worst = max(worst, abs(got - want) / abs(want))
    return worst


def _cases(bounds):
    return [(dfn, s, bound) for dfns, by_s in bounds for s, bound in by_s.items()
            for dfn in dfns]


# (definitions, {s: bound}); measured worst: new 1.03e-13, 7.28e-15, 1.58e-15, 1.98e-15;
# the finite-part routes 3.33e-13, 7.61e-14, 1.68e-10, 1.63e-8; restated 3.29e-4,
# 2.01e-5, 2.25e-5, 2.25e-5
BOUNDS_1D = [
    ((Definition.NEW,), {0.5: 2e-12, 0.75: 8e-14, 1.5: 2e-14, 1.9: 2e-14}),
    (FINITE_PART, {0.5: 4e-12, 0.75: 8e-13, 1.5: 2e-9, 1.9: 2e-7}),
    ((Definition.RESTATED,), {0.5: 4e-3, 0.75: 3e-4, 1.5: 3e-4, 1.9: 3e-4}),
]

# measured worst at s = 0.5, 1.5: the finite-part routes 1.50e-10, 1.63e-10; new 1.49e-5,
# 5.35e-7; restated 1.23e-4, 5.62e-5
BOUNDS_2D = [
    (FINITE_PART, {0.5: 2e-9, 1.5: 2e-9}),
    ((Definition.NEW,), {0.5: 2e-4, 1.5: 6e-6}),
    ((Definition.RESTATED,), {0.5: 2e-3, 1.5: 6e-4}),
]


@pytest.mark.parametrize("definition,s,bound", _cases(BOUNDS_1D))
def test_interval(definition, s, bound):
    grid = make_interval_grid(-1.0, 1.0, 41)
    worst = worst_relative_error(grid, (2, 3), s, [0.0, 0.3, 0.6, 0.85], definition)
    assert worst <= bound


@pytest.mark.parametrize("definition,s,bound", _cases(BOUNDS_2D))
def test_unit_disk_in_a_square(definition, s, bound):
    grid = make_rectangle_grid(-1.25, 1.25, -1.25, 1.25, 41, 41)
    points = [[0.0, 0.0], [0.3, 0.2], [0.5, -0.4], [-0.6, 0.6]]
    assert worst_relative_error(grid, (6,), s, points, definition) <= bound
