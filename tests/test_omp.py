"""Greedy pursuit on the implicit Kronecker design and its dense twin."""
import dataclasses
import math

import numpy as np

from helpers import crandn
import pytest

from polarce.channel import (draw_scene, make_phase_matrix, noise_var_for_snr,
                             simulate_pilots)
from polarce.omp import VectorizedProblem, cascaded_estimate, omp, omp_dense
from polarce.rng import substream


@pytest.fixture(scope="module")
def problem(small_bs_dict, small_cas_dict, small_E):
    return VectorizedProblem.build(small_bs_dict.F, small_cas_dict.F, small_E)


@pytest.fixture(scope="module")
def random_case(problem):
    """Gaussian observation on the small problem, sparsity 3."""
    return crandn(np.random.default_rng(1234), 8, 12), problem, 3


@pytest.fixture(scope="module")
def scene_case(small_system, small_bs_dict, small_cas_dict):
    """Noisy pilots (20 dB) of a drawn 3x3-path scene with tau 8, sparsity 9."""
    system = dataclasses.replace(small_system, tau=8, paths_bs=3, paths_ris=3)
    E = make_phase_matrix(system.n_ris, system.tau, substream(21, "phase"))
    scene = draw_scene(system, substream(21, "scene"))
    nv = noise_var_for_snr(scene, system, E, 20.0)
    Y = simulate_pilots(scene, system, E, nv, substream(21, "noise")).Y
    prob = VectorizedProblem.build(small_bs_dict.F, small_cas_dict.F, E)
    return Y, prob, system.paths_bs * system.paths_ris


def densify(problem: VectorizedProblem) -> np.ndarray:
    # atom order matches the row-major flat index over (bs row, cascaded col)
    n_g = problem.F_bs.shape[1]
    g_c = problem.Psi.shape[1]
    cols = [problem.column(i, j) for i in range(n_g) for j in range(g_c)]
    return np.stack(cols, axis=1)


class TestVectorizedProblem:
    def test_build_matches_definitions(self, problem, small_E, small_cas_dict):
        want = small_E.conj().T @ small_cas_dict.F
        np.testing.assert_allclose(problem.Psi, want, atol=1e-13)
        np.testing.assert_allclose(problem.col_norms,
                                   np.linalg.norm(want, axis=0), atol=1e-12)

    def test_column_matches_kronecker(self, problem):
        for i, j in [(0, 0), (3, 7), (15, 30)]:
            want = np.kron(np.conj(problem.Psi[:, j]), problem.F_bs[:, i])
            np.testing.assert_allclose(problem.column(i, j), want, atol=1e-13)

    def test_column_matches_outer_vec(self, problem):
        i, j = 5, 11
        outer = np.outer(problem.F_bs[:, i], np.conj(problem.Psi[:, j]))
        np.testing.assert_array_equal(problem.column(i, j),
                                      outer.reshape(-1, order="F"))

    def test_correlate_is_dense_adjoint(self, problem, rng):
        R = crandn(rng, problem.F_bs.shape[0], problem.Psi.shape[0])
        got = problem.correlate(R)
        A = densify(problem)
        want = (A.conj().T @ R.reshape(-1, order="F")).reshape(got.shape)
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestOmp:
    def test_zero_observation(self, problem):
        res = omp(np.zeros((8, 12), dtype=complex), problem, 3)
        assert res.support == []
        assert res.coeffs.size == 0
        assert res.residual_norm == 0.0

    def test_single_atom_exact(self, problem):
        c = 1.7 - 0.9j
        i, j = 6, 13
        Y = c * problem.column(i, j).reshape(8, 12, order="F")
        res = omp(Y, problem, 1)
        assert res.support == [(i, j)]
        assert res.coeffs[0] == pytest.approx(c, rel=1e-12)
        assert res.residual_norm < 1e-12

    def test_two_atoms_exact(self, problem):
        picks = [(2, 5), (11, 22)]
        coeffs = [1.0 + 0.5j, -0.8 + 1.2j]
        Y = sum(c * problem.column(i, j) for (i, j), c in zip(picks, coeffs))
        Y = Y.reshape(8, 12, order="F")
        res = omp(Y, problem, 2)
        assert sorted(res.support) == sorted(picks)
        got = dict(zip(res.support, res.coeffs))
        for pick, c in zip(picks, coeffs):
            assert got[pick] == pytest.approx(c, rel=1e-9)
        assert res.residual_norm < 1e-10 * np.linalg.norm(Y)

    def test_residual_nonincreasing_in_budget(self, problem, rng):
        Y = crandn(rng, 8, 12)
        prev = np.linalg.norm(Y)
        for s in range(1, 6):
            r = omp(Y, problem, s).residual_norm
            assert r <= prev + 1e-12
            prev = r

    def test_residual_strictly_decreases_on_generic_data(self, problem, rng):
        Y = crandn(rng, 8, 12)
        r1 = omp(Y, problem, 1).residual_norm
        r3 = omp(Y, problem, 3).residual_norm
        assert r3 < r1

    def test_early_stop_returns_sparse_support(self, problem):
        i, j = 4, 9
        Y = problem.column(i, j).reshape(8, 12, order="F")
        res = omp(Y, problem, 5)
        assert len(res.support) == 1      # residual threshold halts the loop

    def test_stagnation_guard_stops_repeat_picks(self, rng):
        # a one-atom design cannot explain the orthogonal leftover; once its
        # only atom is picked the loop must halt instead of picking it again
        F_bs = np.array([[1.0], [0.0]], dtype=complex)
        F_cas = np.array([[1.0], [0.0]], dtype=complex)
        E = np.exp(2j * np.pi * rng.uniform(size=(2, 3)))
        prob = VectorizedProblem.build(F_bs, F_cas, E)
        col = prob.column(0, 0)
        z = crandn(rng, col.size)
        z -= col * (np.vdot(col, z) / np.vdot(col, col))
        Y = (col + z).reshape(2, 3, order="F")
        res = omp(Y, prob, 3)
        assert len(res.support) == 1
        assert not res.ridge_fallback

    def test_clean_data_never_triggers_ridge(self, problem, rng):
        Y = crandn(rng, 8, 12)
        assert not omp(Y, problem, 4).ridge_fallback

    def test_estimate_reassembles_single_atom_channel(self, problem,
                                                      small_bs_dict,
                                                      small_cas_dict, small_E):
        power = 2.5
        lam0 = 0.8 - 0.4j
        i, j = 9, 17
        raw_col = small_cas_dict.F[:, j] * small_cas_dict.col_scale
        G = lam0 * np.outer(small_bs_dict.F[:, i], np.conj(raw_col))
        Y = math.sqrt(power) * (G @ small_E)
        res = omp(Y, problem, 1)
        assert res.support == [(i, j)]
        G_hat = cascaded_estimate(res, problem, small_cas_dict.F, power)
        np.testing.assert_allclose(G_hat, G, atol=1e-12)


class TestOmpDense:
    @pytest.mark.parametrize("case", ["random_case", "scene_case"],
                             ids=["random", "scene"])
    def test_matches_implicit_variant(self, case, request):
        Y, problem, sparsity = request.getfixturevalue(case)
        A = densify(problem)
        res = omp(Y, problem, sparsity)
        x, support = omp_dense(Y.reshape(-1, order="F"), A, sparsity)
        gc = problem.Psi.shape[1]
        flat = [i * gc + j for i, j in res.support]
        assert len(flat) == sparsity
        assert support == flat
        np.testing.assert_allclose(x[flat], res.coeffs, rtol=1e-8)

    def test_full_rank_square_reproduces_solve(self, rng):
        A = crandn(rng, 4, 4)
        y = crandn(rng, 4)
        x, support = omp_dense(y, A, 4)
        np.testing.assert_allclose(x, np.linalg.solve(A, y), rtol=1e-8)
        assert sorted(support) == [0, 1, 2, 3]

    def test_zero_observation(self, rng):
        A = crandn(rng, 4, 6)
        x, support = omp_dense(np.zeros(4, dtype=complex), A, 3)
        assert support == []
        assert np.all(x == 0)

    def test_zero_norm_atom_tolerated(self, rng):
        A = crandn(rng, 4, 3)
        A[:, 1] = 0.0
        y = A[:, 0] * 2.0
        x, support = omp_dense(y, A, 1)
        assert support == [0]
        assert x[0] == pytest.approx(2.0 + 0j, rel=1e-10)

    def test_duplicate_atoms_take_ridge_path(self):
        # exact duplicate columns make the picked subdesign rank deficient;
        # the regularised solve must still return finite coefficients that
        # reproduce the observation
        a = np.array([1.0, 0.0, 0.0], dtype=complex)
        d = np.array([0.0, 1.0, 0.0], dtype=complex)
        e = np.array([0.0, 0.0, 1.0], dtype=complex)
        A = np.stack([a, a, d], axis=1)
        y = a + 0.5 * d + 0.3 * e      # e keeps the residual alive
        x, support = omp_dense(y, A, 3)
        assert sorted(support) == [0, 1, 2]
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(A @ x, a + 0.5 * d, atol=1e-4)
