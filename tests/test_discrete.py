"""Matrix fractional powers, stiffness assembly, and modal diffusion."""

import functools

import numpy as np
import pytest
from scipy.linalg import expm

from fraclap.discrete import (DirichletStencil, EigenDecomposition, apply_fraclap_discrete,
                              assemble_laplacian_1d, assemble_laplacian_2d,
                              laplacian_1d_eigenvalues,
                              load_matrix_csv, matrix_fractional_power,
                              modal_diffusion_solve, save_matrix_csv,
                              sym_eigendecompose)
from fraclap.errors import NotPositiveDefinite, NotSymmetric


class TestAssembly:
    def test_small_interval_matrix(self):
        K = assemble_laplacian_1d(3, 1.0)
        h = 1.0 / 4.0
        expect = np.array([[2.0, -1.0, 0.0],
                           [-1.0, 2.0, -1.0],
                           [0.0, -1.0, 2.0]]) / h ** 2
        np.testing.assert_allclose(K, expect, rtol=1e-15)

    def test_rectangle_kron_structure(self):
        K = assemble_laplacian_2d(3, 4, 1.0, 2.0)
        assert K.shape == (12, 12)
        np.testing.assert_allclose(K, K.T, rtol=1e-15)
        assert np.all(np.linalg.eigvalsh(K) > 0.0)

    def test_assembly_validation(self):
        with pytest.raises(ValueError):
            assemble_laplacian_1d(1, 1.0)
        with pytest.raises(ValueError):
            assemble_laplacian_1d(5, -1.0)


class TestEigendecomposition:
    def test_closed_form_eigenvalues(self):
        n, L = 50, 1.0
        K = assemble_laplacian_1d(n, L)
        eig = sym_eigendecompose(K)
        expect = laplacian_1d_eigenvalues(n, L)
        np.testing.assert_allclose(eig.eigenvalues, expect, rtol=1e-10)

    def test_reconstruction(self):
        K = assemble_laplacian_1d(20, 1.0)
        eig = sym_eigendecompose(K)
        v = eig.eigenvectors
        np.testing.assert_allclose((v * eig.eigenvalues) @ v.T, K,
                                   rtol=0, atol=1e-9 * np.max(np.abs(K)))

    def test_residual_per_pair(self):
        K = assemble_laplacian_1d(100, 1.0)
        eig = sym_eigendecompose(K)
        scale = np.linalg.norm(K)
        for k in [0, 10, 50, 99]:
            res = K @ eig.eigenvectors[:, k] - eig.eigenvalues[k] * eig.eigenvectors[:, k]
            assert np.linalg.norm(res) <= 1e-10 * scale

    def test_rejects_asymmetric(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotSymmetric):
            sym_eigendecompose(M)

    def test_rejects_indefinite(self):
        M = np.diag([1.0, -2.0])
        with pytest.raises(NotPositiveDefinite):
            sym_eigendecompose(M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        for M in ([[1.0, bad], [bad, 1.0]], [[2.0, -1.0], [-1.0, bad]]):
            with pytest.raises(ValueError, match="finite"):
                sym_eigendecompose(np.array(M))


class TestFractionalPower:
    def setup_method(self):
        self.K = assemble_laplacian_1d(30, 1.0)
        self.eig = sym_eigendecompose(self.K)

    def test_endpoints(self):
        # alpha=1 returns the matrix, alpha=0 the identity
        P1 = matrix_fractional_power(self.eig, 1.0)
        P0 = matrix_fractional_power(self.eig, 0.0)
        nk = np.linalg.norm(self.K, "fro")
        assert np.linalg.norm(P1 - self.K, "fro") <= 1e-10 * nk
        assert np.linalg.norm(P0 - np.eye(30), "fro") <= 1e-10 * np.sqrt(30)

    @pytest.mark.parametrize("a,b", [(0.25, 0.5), (0.5, 0.5), (0.3, 1.1)])
    def test_semigroup(self, a, b):
        Pa = matrix_fractional_power(self.eig, a)
        Pb = matrix_fractional_power(self.eig, b)
        Pab = matrix_fractional_power(self.eig, a + b)
        rel = np.linalg.norm(Pa @ Pb - Pab, "fro") / np.linalg.norm(Pab, "fro")
        assert rel <= 1e-8

    def test_semigroup_large(self):
        K = assemble_laplacian_1d(400, 1.0)
        eig = sym_eigendecompose(K)
        Ph = matrix_fractional_power(eig, 0.5)
        rel = np.linalg.norm(Ph @ Ph - K, "fro") / np.linalg.norm(K, "fro")
        assert rel <= 1e-8

    def test_spectral_action(self):
        # each eigenvector is scaled by lambda^alpha exactly
        alpha = 0.35
        P = matrix_fractional_power(self.eig, alpha)
        for k in [0, 7, 29]:
            v = self.eig.eigenvectors[:, k]
            np.testing.assert_allclose(
                P @ v, self.eig.eigenvalues[k] ** alpha * v,
                rtol=0, atol=1e-10 * self.eig.eigenvalues[k] ** alpha)

    def test_result_symmetric(self):
        P = matrix_fractional_power(self.eig, 0.7)
        np.testing.assert_allclose(P, P.T, rtol=0, atol=1e-12 * np.max(np.abs(P)))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            matrix_fractional_power(self.eig, -0.5)


class TestApply:
    def test_s2_equals_matrix_action(self):
        K = assemble_laplacian_1d(25, 1.0)
        eig = sym_eigendecompose(K)
        rng = np.random.default_rng(3)
        p = rng.standard_normal(25)
        np.testing.assert_allclose(apply_fraclap_discrete(eig, 2.0, p), K @ p,
                                   rtol=1e-10)

    def test_matches_formed_power(self):
        K = assemble_laplacian_1d(25, 1.0)
        eig = sym_eigendecompose(K)
        p = np.sin(np.linspace(0, np.pi, 25))
        s = 1.3
        P = matrix_fractional_power(eig, s / 2.0)
        np.testing.assert_allclose(apply_fraclap_discrete(eig, s, p), P @ p,
                                   rtol=1e-11)

    def test_shape_mismatch(self):
        eig = sym_eigendecompose(assemble_laplacian_1d(5, 1.0))
        with pytest.raises(ValueError):
            apply_fraclap_discrete(eig, 1.0, np.zeros(7))


class TestModalDiffusion:
    def test_s2_matches_matrix_exponential(self):
        n = 50
        K = assemble_laplacian_1d(n, 1.0)
        eig = sym_eigendecompose(K)
        rng = np.random.default_rng(11)
        u0 = rng.standard_normal(n)
        times = [0.0, 1e-4, 5e-4]
        sols = modal_diffusion_solve(eig, 2.0, u0, times)
        for t, u in zip(times, sols):
            oracle = expm(-t * K) @ u0
            assert np.linalg.norm(u - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
    def test_energy_decay(self, s):
        n = 40
        eig = sym_eigendecompose(assemble_laplacian_1d(n, 1.0))
        rng = np.random.default_rng(5)
        u0 = rng.standard_normal(n)
        times = [0.0, 1e-4, 1e-3, 1e-2, 0.1]
        sols = modal_diffusion_solve(eig, s, u0, times)
        norms = [np.linalg.norm(u) for u in sols]
        assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(len(norms) - 1))

    def test_eigenmode_exact_decay(self):
        # a single mode decays exactly like exp(-lambda^(s/2) t)
        eig = sym_eigendecompose(assemble_laplacian_1d(30, 1.0))
        k, s, t = 4, 1.2, 2e-3
        u0 = eig.eigenvectors[:, k]
        (u,) = modal_diffusion_solve(eig, s, u0, [t])
        np.testing.assert_allclose(
            u, np.exp(-eig.eigenvalues[k] ** (s / 2.0) * t) * u0,
            rtol=0, atol=1e-12)

    def test_times_must_ascend(self):
        eig = sym_eigendecompose(assemble_laplacian_1d(5, 1.0))
        with pytest.raises(ValueError):
            modal_diffusion_solve(eig, 1.0, np.zeros(5), [0.1, 0.05])


def _assembled(shape, lengths):
    if len(shape) == 1:
        return assemble_laplacian_1d(shape[0], lengths[0])
    return assemble_laplacian_2d(*shape, *lengths)


def _gap(got, want):
    """Normwise relative gap max|got - want| / max|want|."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("shape, lengths", [((30,), (1.0,)), ((7, 5), (1.0, 2.5))])
class TestDirichletStencil:
    """The matrix-free DST-I route against dense eigh of the assembled stencil."""

    def test_dense_matches_eigh(self, shape, lengths):
        K = _assembled(shape, lengths)
        ref = sym_eigendecompose(K)
        dense = DirichletStencil(shape, lengths).dense()
        assert np.all(np.diff(dense.eigenvalues) >= 0.0)
        assert _gap(dense.eigenvalues, ref.eigenvalues) <= 1e-12
        v = dense.eigenvectors
        assert _gap((v * dense.eigenvalues) @ v.T, K) <= 1e-12
        np.testing.assert_allclose(v.T @ v, np.eye(len(K)), rtol=0, atol=1e-12)

    def test_transform_diagonalises_stencil(self, shape, lengths):
        # modes come out in the order of `eigenvalues`, and the transform is its own inverse
        stencil = DirichletStencil(shape, lengths)
        p = np.random.default_rng(8).standard_normal(stencil.n)
        K = _assembled(shape, lengths)
        assert _gap(stencil.to_modes(K @ p), stencil.eigenvalues * stencil.to_modes(p)) <= 1e-12
        assert _gap(stencil.from_modes(stencil.to_modes(p)), p) <= 1e-14

    @pytest.mark.parametrize("s", [0.5, 0.75, 1.5, 2.0])
    def test_apply_and_diffusion_match_eigh(self, shape, lengths, s):
        stencil = DirichletStencil(shape, lengths)
        ref = sym_eigendecompose(_assembled(shape, lengths))
        p = np.random.default_rng(9).standard_normal(stencil.n)
        assert _gap(apply_fraclap_discrete(stencil, s, p),
                    apply_fraclap_discrete(ref, s, p)) <= 1e-12
        times = [0.0, 1e-3, 2e-2]
        for got, want in zip(modal_diffusion_solve(stencil, s, p, times),
                             modal_diffusion_solve(ref, s, p, times)):
            assert _gap(got, want) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 0.375, 0.75])
    def test_power_matches_eigh(self, shape, lengths, alpha):
        ref = sym_eigendecompose(_assembled(shape, lengths))
        got = matrix_fractional_power(DirichletStencil(shape, lengths).dense(), alpha)
        assert _gap(got, matrix_fractional_power(ref, alpha)) <= 1e-12


@pytest.mark.parametrize("shape", [(2,), (40,), (7, 9), (40, 40)])
def test_transform_is_the_orthonormal_dst1(shape):
    # the numpy odd-extension FFT against scipy's DST-I, imported only here
    from scipy.fft import dstn
    stencil = DirichletStencil(shape, (1.0,) * len(shape))
    p = np.random.default_rng(len(shape)).standard_normal(stencil.n)
    want = dstn(p.reshape(shape), type=1, norm="ortho").ravel()
    got = stencil.to_modes(p)
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    assert np.linalg.norm(stencil.from_modes(got) - p) <= 1e-15 * np.linalg.norm(p)


_PI = "3.14159265358979323846264338327950288"


def _reduced_sines(n, dtype=float):
    """The orthonormal DST-I from argument-reduced sines, sin(pi ((jk) mod 2(n+1)) / (n+1))."""
    j = np.arange(1, n + 1)
    arg = (np.outer(j, j) % (2 * (n + 1))).astype(dtype)
    return np.sqrt(dtype(2) / (n + 1)) * np.sin(dtype(_PI) * arg / (n + 1))


class TestDenseBasis:
    """``dense()`` takes its basis from the stencil's own transform of the identity."""

    @pytest.mark.parametrize("n", [40, 200, 1000])
    def test_matches_argument_reduced_sines(self, n):
        v = DirichletStencil((n,), (1.0,)).dense().eigenvectors
        assert np.max(np.abs(v - _reduced_sines(n))) <= 4e-16

    def test_2d_is_the_kron_of_the_axes(self):
        stencil = DirichletStencil((6, 5), (1.0, 1.5))
        order = np.argsort(stencil.eigenvalues, kind="stable")
        want = np.kron(_reduced_sines(6), _reduced_sines(5))[:, order]
        assert np.max(np.abs(stencil.dense().eigenvectors - want)) <= 4e-16

    def test_orthonormal_at_n_1000(self):
        v = DirichletStencil((1000,), (1.0,)).dense().eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(1000))) <= 5e-15

    def test_is_the_matrix_free_transform(self):
        stencil = DirichletStencil((40,), (1.0,))
        assert np.array_equal(stencil.dense().eigenvectors, stencil.to_modes(np.eye(40)))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("shape, lengths, s", [
        ((8,), (1.0,), 0.6), ((40,), (1.0,), 0.75), ((200,), (1.0,), 1.5),
        ((6, 5), (1.0, 1.5), 0.8), ((20, 20), (1.0, 1.0), 0.75)])
    def test_power_matches_extended_precision(self, shape, lengths, s):
        ld = np.longdouble
        stencil = DirichletStencil(shape, lengths)
        got = matrix_fractional_power(stencil.dense(), s / 2.0)
        v = functools.reduce(np.kron, [_reduced_sines(n, ld) for n in shape])
        # the closed-form eigenvalues (4/h^2) sin^2(k pi / (2(n+1))), in long double
        lam = functools.reduce(np.add.outer, [
            4 / (ld(ln) / (n + 1)) ** 2 * np.sin(np.arange(1, n + 1) * ld(_PI) / (2 * (n + 1))) ** 2
            for n, ln in zip(shape, lengths)]).ravel()
        want = (v * lam ** ld(s / 2.0)) @ v.T
        assert float(np.max(np.abs(got - want)) / np.max(np.abs(want))) <= 2e-15


class TestBlockTransforms:
    """A (k, n) block of vectors, one per row, transformed in one pass."""

    @pytest.mark.parametrize("shape", [(2,), (40,), (7, 9), (40, 40)])
    def test_stencil_block_is_bitwise_row_by_row(self, shape):
        stencil = DirichletStencil(shape, (1.0, 2.0)[:len(shape)])
        block = np.random.default_rng(11).standard_normal((3, stencil.n))
        for transform in (stencil.to_modes, stencil.from_modes):
            got = transform(block)
            assert got.shape == block.shape
            assert np.array_equal(got, np.stack([transform(p) for p in block]))
        assert np.array_equal(apply_fraclap_discrete(stencil, 0.7, block),
                              np.stack([apply_fraclap_discrete(stencil, 0.7, p) for p in block]))

    @pytest.mark.parametrize("n", [50, 400])
    def test_eigendecomposition_block_matches_row_by_row(self, n):
        eig = sym_eigendecompose(assemble_laplacian_1d(n, 1.0))
        v = eig.eigenvectors
        block = np.random.default_rng(12).standard_normal((3, n))
        for transform in (eig.to_modes, eig.from_modes):
            rows = np.stack([transform(p) for p in block])
            assert _gap(transform(block), rows) <= 1e-14
        # a single vector keeps the bits of the column form
        assert np.array_equal(eig.to_modes(block[0]), v.T @ block[0])
        assert np.array_equal(eig.from_modes(block[0]), v @ block[0])

    @pytest.mark.parametrize("op", [DirichletStencil((4, 3), (1.0, 1.0)),
                                    sym_eigendecompose(assemble_laplacian_2d(4, 3, 1.0, 1.0))],
                             ids=["stencil", "eigh"])
    @pytest.mark.parametrize("bad", [(2, 7), (2, 24), (2, 3, 12), ()], ids=str)
    def test_wrong_block_shape_is_a_value_error(self, op, bad):
        # (2, 24) holds 4 x 12 values: a reshape alone would accept it
        p = np.zeros(bad)
        for call in (op.to_modes, op.from_modes,
                     lambda p: apply_fraclap_discrete(op, 1.0, p)):
            with pytest.raises(ValueError, match=r"a block \(k, 12\)"):
                call(p)


class TestDirichletStencilValidation:
    @pytest.mark.parametrize("shape, lengths, match", [
        ((1,), (1.0,), "at least 2 interior nodes"),
        ((5, 1), (1.0, 1.0), "at least 2 interior nodes"),
        ((5, 4), (1.0, -2.0), "length must be positive"),
        ((5,), (1.0, 1.0), "one length per axis"),
        ((), (), "one length per axis"),
    ])
    def test_rejects_bad_grid(self, shape, lengths, match):
        with pytest.raises(ValueError, match=match):
            DirichletStencil(shape, lengths)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_fraclap_discrete(DirichletStencil((4, 3), (1.0, 1.0)), 1.0, np.zeros(7))


class TestSerialization:
    def test_matrix_roundtrip_exact(self, tmp_path):
        K = assemble_laplacian_1d(12, 1.0)
        path = tmp_path / "k.csv"
        save_matrix_csv(path, K)
        np.testing.assert_array_equal(load_matrix_csv(path), K)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n1,2\n  \n\t\n2,1\n\n")
        np.testing.assert_array_equal(load_matrix_csv(path), [[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
    def test_file_without_rows_is_a_value_error(self, tmp_path, text):
        # refused before numpy parses it, so no "input contained no data" warning either
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no data"):
            load_matrix_csv(path)

    def test_writes_seventeen_digits_per_entry(self, tmp_path):
        M = np.random.default_rng(4).standard_normal((5, 3)) * np.array([1e-300, 1.0, 1e300])
        path = tmp_path / "m.csv"
        save_matrix_csv(path, M)
        assert path.read_text() == "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                           for row in M)
