"""Truncated Riesz potential on a bounded domain.

I[phi](x) = c(d, sigma) * integral over the domain of phi(xi) / r^(d-sigma),
with r = |x - xi| and c the normalization from :mod:`fraclap.special`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .domain import FieldAdapter, _public_points, as_field
from .quadrature import (DEFAULT_GAUSS_ORDER, DEFAULT_RADIAL_ORDER, GradedPanels,
                         graded_quadrature_rule)
from .special import ConstantMode, riesz_constant

__all__ = ["RuleParams", "PotentialRequest", "riesz_potential_point", "riesz_potential_field"]


@dataclass(frozen=True)
class RuleParams:
    """Quadrature orders: Gauss-Jacobi nodes along each chord of a Duffy fan,
    and Gauss nodes per angular panel of a rectangle's edge."""

    radial_order: int = DEFAULT_RADIAL_ORDER
    gauss_order: int = DEFAULT_GAUSS_ORDER

    def build(self, grid, x, power) -> GradedPanels:
        """Rule integrating f * r^power about x."""
        return graded_quadrature_rule(grid, x, power, radial_order=self.radial_order,
                                      gauss_order=self.gauss_order)


@dataclass(frozen=True)
class PotentialRequest:
    """Everything needed to evaluate the truncated potential of one field."""

    grid: object                     # domain.Grid
    phi: object                      # TestFunction | nodal sample array
    sigma: float
    eval_points: np.ndarray = None
    mode: ConstantMode = ConstantMode.PAPER
    rule: RuleParams = field(default_factory=RuleParams)

    def __post_init__(self):
        if not 0.0 < self.sigma < 2.0:
            raise ValueError(f"potential order must lie in (0,2), got {self.sigma!r}")
        # fail fast on gamma poles
        riesz_constant(self.grid.dim, self.sigma, self.mode)

    @functools.cached_property
    def field(self):
        """``phi`` as a TestFunction, converted on first use."""
        return as_field(self.grid, self.phi)

    def field_values(self):
        """Callable evaluating phi at (N, dim) points."""
        return FieldAdapter(self.grid, self.field).value


def _eval_points(req):
    """A request's evaluation points in the public layout: (P,) in 1D, (P, 2) in 2D."""
    if req.eval_points is None:
        raise ValueError("request has no evaluation points")
    return _public_points(np.asarray(req.eval_points, float).reshape(-1, req.grid.dim))


def riesz_potential_point(req: PotentialRequest, x) -> float:
    """Potential value at a single point of the closed domain."""
    grid = req.grid
    d = grid.dim
    c = riesz_constant(d, req.sigma, req.mode)
    rule = req.rule.build(grid, x, req.sigma - d)
    return c * rule.integrate_kernel(req.field_values()(rule.nodes))


def riesz_potential_field(req: PotentialRequest):
    """Potential at every requested evaluation point, order preserved."""
    return [(p, riesz_potential_point(req, p)) for p in _eval_points(req)]
