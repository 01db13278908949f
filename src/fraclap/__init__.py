"""Numerical operator kit for the fractional Laplacian on bounded domains.

Cross-validating evaluators for the truncated Riesz potential, the standard
(Riesz-derivative) fractional Laplacian in restated and finite-part form,
the potential-of-the-Laplacian definition, its boundary-augmented rewrite
through Green's second identity, and the discrete matrix-fractional-power
formulation with a modal diffusion solver.
"""

from .discrete import (DirichletStencil, EigenDecomposition, apply_fraclap_discrete,
                       assemble_laplacian_1d, assemble_laplacian_2d,
                       laplacian_1d_eigenvalues, matrix_fractional_power,
                       modal_diffusion_solve, sym_eigendecompose)
from .domain import (BoundaryData, Grid, TestFunction,
                     boundary_quadrature, make_interval_grid, make_rectangle_grid)
from .errors import (DegenerateExponent, FracLapError, GammaPole,
                     MissingBoundaryData, NotPositiveDefinite, NotSymmetric)
from .greens import green_residual, volume_quadrature
from .operators import (Definition, FracLapRequest, evaluate,
                        fraclap_augmented, fraclap_hypersingular, fraclap_new,
                        fraclap_restated, surface_integral)
from .quadrature import GradedPanels, graded_quadrature_rule
from .riesz import (PotentialRequest, RuleParams, riesz_potential_field,
                    riesz_potential_point)
from .special import (ConstantMode, FractionalOrder, gamma_ln, gamma_value,
                      h_constant, radial_laplacian, riesz_constant)

__version__ = "0.1.0"

__all__ = [
    "ConstantMode", "FractionalOrder", "gamma_ln", "gamma_value",
    "riesz_constant", "h_constant", "radial_laplacian",
    "Grid", "make_interval_grid", "make_rectangle_grid",
    "TestFunction", "BoundaryData", "boundary_quadrature",
    "GradedPanels", "graded_quadrature_rule",
    "PotentialRequest", "RuleParams", "riesz_potential_point", "riesz_potential_field",
    "Definition", "FracLapRequest", "evaluate", "fraclap_restated",
    "fraclap_hypersingular", "fraclap_new", "fraclap_augmented", "surface_integral",
    "green_residual", "volume_quadrature",
    "EigenDecomposition", "DirichletStencil", "assemble_laplacian_1d", "assemble_laplacian_2d",
    "laplacian_1d_eigenvalues", "sym_eigendecompose", "matrix_fractional_power",
    "apply_fraclap_discrete", "modal_diffusion_solve",
    "FracLapError", "GammaPole", "DegenerateExponent",
    "MissingBoundaryData", "NotSymmetric", "NotPositiveDefinite",
    "__version__",
]
