"""Discrete formulation: SPD Laplacian matrices, their spectral decompositions,
matrix fractional powers, and a modal anomalous-diffusion solver.

The discrete fractional Laplacian of order s is K^(s/2) for an SPD
discretization K of the (negative) Laplacian; with eigenpairs (lambda_i, v_i)
the diffusion problem u' = -K^(s/2) u decouples into modes decaying at rate
lambda_i^(s/2).

Two decompositions share one interface (``n``, ``eigenvalues``,
``to_modes``, ``from_modes``, ``dense``), so ``apply_fraclap_discrete`` and
``modal_diffusion_solve`` take either.  ``to_modes`` and ``from_modes`` take
a vector ``(n,)`` or a block ``(k, n)`` of k vectors, one per row, and
transform the whole block in one pass; each row of a block gets the bits of
its own single-vector call for ``DirichletStencil``, and agrees to round-off
(a matrix product in place of a matrix-vector one) for ``EigenDecomposition``.

- ``EigenDecomposition`` holds the dense eigenvectors of any SPD matrix,
  from ``sym_eigendecompose`` (``numpy.linalg.eigh``, O(n^3)).
- ``DirichletStencil`` is the uniform-grid Dirichlet stencil of
  ``assemble_laplacian_1d/2d`` without the matrix.  The orthonormal DST-I
  diagonalises it, so moving to and from modes is one ``numpy.fft.rfft``
  of an odd extension per axis (O(n log n)) and the eigenvalues are
  closed-form.  ``dense()`` is that transform applied to the identity, one
  axis at a time, so the dense basis it hands ``matrix_fractional_power``
  as an ``EigenDecomposition`` agrees with ``to_modes`` to about 1e-16.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, NotSymmetric

__all__ = [
    "EigenDecomposition",
    "DirichletStencil",
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


def _check_axis(n_interior, length):
    if n_interior < 2:
        raise ValueError(f"need at least 2 interior nodes, got {n_interior}")
    if not length > 0:
        raise ValueError(f"domain length must be positive, got {length!r}")


def assemble_laplacian_1d(n_interior: int, length: float) -> np.ndarray:
    """Dirichlet Laplacian on a uniform 1D grid: tridiagonal (2, -1)/h^2."""
    _check_axis(n_interior, length)
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

    def to_modes(self, p):
        return _vectors(p, self.n) @ self.eigenvectors

    def from_modes(self, c):
        return _vectors(c, self.n) @ self.eigenvectors.T

    def dense(self) -> EigenDecomposition:
        """Itself: the dense basis is already held."""
        return self


def _vectors(p, n):
    """``p`` as a float vector ``(n,)`` or block ``(k, n)``; any other shape is a ValueError."""
    p = np.asarray(p, float)
    if p.ndim not in (1, 2) or p.shape[-1] != n:
        raise ValueError(f"expected a vector ({n},) or a block (k, {n}), got shape {p.shape}")
    return p


@dataclass(frozen=True)
class DirichletStencil:
    """The stencil of ``assemble_laplacian_1d/2d``, diagonalised by the DST-I.

    ``shape`` holds the interior nodes per axis and ``lengths`` the side
    lengths.  Vectors are nodal values in lexicographic (C) order, the order
    of ``kron(ax, I) + kron(I, ay)``; modes are in the same order, mode
    (p, q) having eigenvalue ``lambda_x[p] + lambda_y[q]``.  The orthonormal
    DST-I is its own inverse, so ``from_modes`` is ``to_modes``.
    """

    shape: tuple
    lengths: tuple

    def __post_init__(self):
        if not 0 < len(self.shape) == len(self.lengths):
            raise ValueError(f"need one length per axis, got shape {self.shape!r} "
                             f"and lengths {self.lengths!r}")
        for n_interior, length in zip(self.shape, self.lengths):
            _check_axis(n_interior, length)

    @property
    def n(self):
        return math.prod(self.shape)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Closed-form eigenvalues in mode order: the outer sum of the 1D ones."""
        axes = [laplacian_1d_eigenvalues(n, ln) for n, ln in zip(self.shape, self.lengths)]
        return functools.reduce(np.add.outer, axes).ravel()

    def to_modes(self, p):
        p = _vectors(p, self.n)
        lead = p.shape[:-1]
        c = p.reshape(lead + self.shape)
        for axis, n in enumerate(self.shape, start=len(lead)):
            # the sine coefficients of the odd extension (0, c, 0, -reversed c)
            # along the axis are the imaginary part of its real FFT
            zero = np.zeros_like(c.take([0], axis))
            odd = np.concatenate([zero, c, zero, -np.flip(c, axis)], axis=axis)
            sines = np.fft.rfft(odd, axis=axis).imag.take(np.arange(1, n + 1), axis)
            c = sines * -math.sqrt(0.5 / (n + 1))
        return c.reshape(p.shape)

    from_modes = to_modes

    def dense(self) -> EigenDecomposition:
        """Ascending eigenvalues with the product-sine eigenvectors: each axis's
        orthonormal DST-I matrix is ``to_modes`` of the identity (the matrix is
        symmetric), and the axes are joined by ``kron``."""
        lam = self.eigenvalues
        order = np.argsort(lam, kind="stable")
        basis = functools.reduce(np.kron, [DirichletStencil((n,), (ln,)).to_modes(np.eye(n))
                                           for n, ln in zip(self.shape, self.lengths)])
        return EigenDecomposition(eigenvalues=lam[order], eigenvectors=basis[:, order])


def _check_symmetric(matrix):
    matrix = np.asarray(matrix, float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix entries must be finite, got NaN or infinity")
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


def apply_fraclap_discrete(eig: EigenDecomposition | DirichletStencil, s: float,
                           p: np.ndarray) -> np.ndarray:
    """K^(s/2) p through the decomposition, without forming the power matrix; ``p`` is
    a vector ``(n,)`` or a block ``(k, n)`` of vectors, one per row."""
    if not 0.0 < s <= 2.0:
        raise ValueError(f"order must lie in (0, 2], got {s!r}")
    return eig.from_modes(eig.eigenvalues ** (s / 2.0) * eig.to_modes(p))


def modal_diffusion_solve(eig: EigenDecomposition | DirichletStencil, s: float,
                          u0: np.ndarray, times) -> list:
    """Solutions of u' = -K^(s/2) u at the requested times.

    u(t) = sum_k exp(-lambda_k^(s/2) t) (v_k . u0) v_k.
    """
    if not 0.0 < s <= 2.0:
        raise ValueError(f"diffusion order must lie in (0, 2], got {s!r}")
    u0 = np.asarray(u0, float)
    if u0.shape != (eig.n,):
        raise ValueError(f"initial vector length {u0.shape} does not match order {eig.n}")
    times = np.asarray(times, float)
    if np.any(times < 0.0):
        raise ValueError("times must be nonnegative")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be ascending")
    coeffs = eig.to_modes(u0)
    rates = eig.eigenvalues ** (s / 2.0)
    return [eig.from_modes(np.exp(-rates * t) * coeffs) for t in times]


# ---------------------------------------------------------------------------
# CSV interfaces

def save_matrix_csv(path, matrix):
    np.savetxt(path, np.asarray(matrix, float), fmt="%.17g", delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    """The rows of a comma-separated file as a 2D array, blank lines skipped; a file with
    no row, or text that is not a finite number, ``#`` included, is a ValueError."""
    with open(path) as fh:
        rows = (ln for ln in fh if ln.strip())
        if (first := next(rows, None)) is None:
            raise ValueError(f"{path}: no data, the file is empty or blank")
        matrix = np.loadtxt(itertools.chain([first], rows), delimiter=",", ndmin=2, comments=None)
    if not np.isfinite(matrix).all():
        raise ValueError(f"{path}: entries must be finite, got NaN or infinity")
    return matrix
