"""Discrete formulation: SPD Laplacian matrices, symmetric eigendecomposition,
matrix fractional powers, and a modal anomalous-diffusion solver.

The discrete fractional Laplacian of order s is K^(s/2) for an SPD
discretization K of the (negative) Laplacian; with eigenpairs (lambda_i, v_i)
the diffusion problem u' = -K^(s/2) u decouples into modes decaying at rate
lambda_i^(s/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, NotSymmetric
from .special import FractionalOrder

__all__ = [
    "EigenDecomposition",
    "assemble_laplacian_1d",
    "assemble_laplacian_2d",
    "laplacian_1d_eigenvalues",
    "sym_eigendecompose",
    "matrix_fractional_power",
    "apply_fraclap_discrete",
    "modal_diffusion_solve",
    "save_matrix_csv",
    "load_matrix_csv",
]

_SYM_TOL = 1e-12


def assemble_laplacian_1d(n_interior: int, length: float) -> np.ndarray:
    """Dirichlet Laplacian on a uniform 1D grid: tridiagonal (2, -1)/h^2."""
    if n_interior < 2:
        raise ValueError(f"need at least 2 interior nodes, got {n_interior}")
    if not length > 0:
        raise ValueError(f"domain length must be positive, got {length!r}")
    h = length / (n_interior + 1)
    return (np.diag(np.full(n_interior, 2.0))
            + np.diag(np.full(n_interior - 1, -1.0), 1)
            + np.diag(np.full(n_interior - 1, -1.0), -1)) / h ** 2


def assemble_laplacian_2d(nx: int, ny: int, lx: float, ly: float) -> np.ndarray:
    """Dirichlet 5-point Laplacian on a rectangle, lexicographic ordering."""
    if nx < 2 or ny < 2:
        raise ValueError(f"need at least 2x2 interior nodes, got {nx}x{ny}")
    ax = assemble_laplacian_1d(nx, lx)
    ay = assemble_laplacian_1d(ny, ly)
    return np.kron(ax, np.eye(ny)) + np.kron(np.eye(nx), ay)


def laplacian_1d_eigenvalues(n_interior: int, length: float) -> np.ndarray:
    """Closed-form eigenvalues (4/h^2) sin^2(k pi h / (2 L)) of the 1D stencil."""
    h = length / (n_interior + 1)
    k = np.arange(1, n_interior + 1)
    return (4.0 / h ** 2) * np.sin(k * np.pi * h / (2.0 * length)) ** 2


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of an SPD matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns

    @property
    def n(self):
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        v, lam = self.eigenvectors, self.eigenvalues
        return (v * lam[None, :]) @ v.T


def _check_symmetric(matrix):
    matrix = np.asarray(matrix, float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {matrix.shape}")
    scale = max(1.0, float(np.abs(matrix).max()))
    if np.abs(matrix - matrix.T).max() > _SYM_TOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return matrix


def sym_eigendecompose(matrix) -> EigenDecomposition:
    """Dense symmetric eigendecomposition; rejects non-SPD input."""
    matrix = _check_symmetric(matrix)
    lam, vec = np.linalg.eigh(matrix)
    if lam[0] <= 0.0:
        raise NotPositiveDefinite(f"smallest eigenvalue {lam[0]!r} is not positive")
    return EigenDecomposition(eigenvalues=lam, eigenvectors=vec)


def matrix_fractional_power(eig: EigenDecomposition, alpha: float) -> np.ndarray:
    """V diag(lambda^alpha) V^T; symmetric positive definite for alpha >= 0."""
    if alpha < 0.0:
        raise ValueError(f"power must be nonnegative, got {alpha!r}")
    v = eig.eigenvectors
    powered = eig.eigenvalues ** alpha
    out = (v * powered[None, :]) @ v.T
    return 0.5 * (out + out.T)


def apply_fraclap_discrete(eig: EigenDecomposition, s, p: np.ndarray) -> np.ndarray:
    """K^(s/2) p through the decomposition, without forming the power matrix."""
    sv = s.s if isinstance(s, FractionalOrder) else float(s)
    if not 0.0 < sv <= 2.0:
        raise ValueError(f"order must lie in (0, 2], got {sv!r}")
    p = np.asarray(p, float)
    if p.shape != (eig.n,):
        raise ValueError(f"vector length {p.shape} does not match order {eig.n}")
    v = eig.eigenvectors
    return v @ (eig.eigenvalues ** (sv / 2.0) * (v.T @ p))


def modal_diffusion_solve(eig: EigenDecomposition, s, u0: np.ndarray, times) -> list:
    """Solutions of u' = -K^(s/2) u at the requested times.

    u(t) = sum_k exp(-lambda_k^(s/2) t) (v_k . u0) v_k.
    """
    sv = s.s if isinstance(s, FractionalOrder) else float(s)
    if not 0.0 < sv <= 2.0:
        raise ValueError(f"diffusion order must lie in (0, 2], got {sv!r}")
    u0 = np.asarray(u0, float)
    if u0.shape != (eig.n,):
        raise ValueError(f"initial vector length {u0.shape} does not match order {eig.n}")
    times = np.asarray(times, float)
    if np.any(times < 0.0):
        raise ValueError("times must be nonnegative")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be ascending")
    v = eig.eigenvectors
    coeffs = v.T @ u0
    rates = eig.eigenvalues ** (sv / 2.0)
    return [v @ (np.exp(-rates * t) * coeffs) for t in times]


# ---------------------------------------------------------------------------
# CSV interfaces

def save_matrix_csv(path, matrix):
    matrix = np.asarray(matrix, float)
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(tok) for tok in line.split(",")])
    return np.asarray(rows, float)
