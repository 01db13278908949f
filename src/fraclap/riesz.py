"""Truncated Riesz potential on a bounded domain.

I[phi](x) = c(d, sigma) * integral over the domain of phi(xi) / r^(d-sigma),
with r = |x - xi| and c the normalization from :mod:`fraclap.special`.  The
integral is one graded rule of :mod:`fraclap.quadrature` about x, built by the
request's ``RuleParams`` (re-exported here) for the power sigma - d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .domain import _public_points, as_field
from .quadrature import RuleParams
from .special import ConstantMode, riesz_constant

__all__ = ["RuleParams", "FieldRequest", "PotentialRequest", "riesz_potential_point",
           "riesz_potential_field"]


@dataclass(frozen=True, kw_only=True)
class FieldRequest:
    """A field on a grid, where to evaluate it and how; requests are built by keyword and add
    their order and its checks (``PotentialRequest``, ``operators.FracLapRequest``)."""

    grid: object                     # domain.Grid
    phi: object                      # TestFunction | nodal sample array
    eval_points: object = None
    mode: ConstantMode = ConstantMode.PAPER
    rule: RuleParams = field(default_factory=RuleParams)

    @functools.cached_property
    def field(self):
        """``phi`` as a TestFunction, converted on first use."""
        return as_field(self.grid, self.phi)

    def points(self):
        """The evaluation points in the public layout: (P,) in 1D, (P, 2) in 2D."""
        if self.eval_points is None:
            raise ValueError("request has no evaluation points")
        return _public_points(np.asarray(self.eval_points, float).reshape(-1, self.grid.dim))


@dataclass(frozen=True, kw_only=True)
class PotentialRequest(FieldRequest):
    """Everything needed to evaluate the truncated potential of one field."""

    sigma: float

    def __post_init__(self):
        # fail fast on an order outside (0, 2) or at a gamma pole
        riesz_constant(self.grid.dim, self.sigma, self.mode)

    def field_values(self):
        """Callable evaluating phi at (N, dim) points."""
        return self.field._value


def riesz_potential_point(req: PotentialRequest, x) -> float:
    """Potential value at a single point of the closed domain."""
    grid = req.grid
    d = grid.dim
    c = riesz_constant(d, req.sigma, req.mode)
    rule = req.rule.build(grid, x, req.sigma - d)
    return c * rule.integrate_kernel(req.field_values()(rule.nodes))


def riesz_potential_field(req: PotentialRequest):
    """Potential at every requested evaluation point, order preserved."""
    return [(p, riesz_potential_point(req, p)) for p in req.points()]
