"""Truncated Riesz potential on an interval, checked against a closed form.

For the unit field on [0, 1] the potential has the exact value
c(1, sigma) * (x^sigma + (1-x)^sigma) / sigma, which makes a good first
sanity check of the quadrature: its Gauss-Jacobi radial rule carries the
kernel r^(sigma-1) in its weight, so a constant field is integrated exactly.
"""

import math

from fraclap import ConstantMode, PotentialRequest, TestFunction, make_interval_grid
from fraclap.riesz import riesz_potential_point
from fraclap.special import riesz_constant

grid = make_interval_grid(0.0, 1.0, 21)
phi = TestFunction.constant(1.0)

print("sigma    x      computed        exact           rel. error")
for sigma in (0.25, 0.5, 0.75, 1.5):
    req = PotentialRequest(grid=grid, phi=phi, sigma=sigma)
    c = riesz_constant(1, sigma, ConstantMode.PAPER)
    for x in (0.1, 0.5, 0.9):
        got = riesz_potential_point(req, x)
        exact = c * (x ** sigma + (1 - x) ** sigma) / sigma
        print(f"{sigma:4.2f}  {x:4.2f}   {got: .10e}  {exact: .10e}  "
              f"{abs(got - exact) / exact:.2e}")

print()
print("The two normalization modes differ only by a power of pi:")
sigma, x = 0.75, 0.4
vp = riesz_potential_point(
    PotentialRequest(grid=grid, phi=phi, sigma=sigma, mode=ConstantMode.PAPER), x)
vs = riesz_potential_point(
    PotentialRequest(grid=grid, phi=phi, sigma=sigma, mode=ConstantMode.STANDARD), x)
print(f"standard / paper = {vs / vp:.12f}")
print(f"pi^((sigma-1)/2) = {math.pi ** ((sigma - 1) / 2):.12f}")
