"""Greedy pursuit on the implicit Kronecker design and its dense twin."""
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np

from helpers import crandn
import pytest

from polarce.channel import (draw_scene, make_phase_matrix, noise_var_for_snr,
                             simulate_pilots)
from polarce.harness import build_bs_dictionary, build_ris_dictionaries, load_config
from polarce.omp import (_ROW_CHUNK, DenseProblem, VectorizedProblem,
                         cascaded_estimate, omp, omp_dense)
from polarce.rng import substream

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.json"


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


@pytest.fixture(scope="module")
def desk():
    """Desk-profile system and dictionaries: 96 BS atoms, 785 cascaded columns."""
    cfg = load_config(DESK)
    return cfg.system, build_bs_dictionary(cfg).F, build_ris_dictionaries(cfg)[1].F


def desk_pilots(system, E, snr_db, seed):
    scene = draw_scene(system, substream(seed, "scene"))
    nv = noise_var_for_snr(scene, system, E, snr_db)
    return simulate_pilots(scene, system, E, nv, substream(seed, "noise")).Y


def full_scan_omp(Y, problem, sparsity):
    """Reference pursuit that scores every atom by the full product (F_bs^H R) Psi.

    No early stop and no ridge refit: the cases it is used on need neither.
    """
    gc = problem.Psi.shape[1]
    y = Y.reshape(-1, order="F")
    r, support, cols = y, [], []
    for _ in range(sparsity):
        R = r.reshape(Y.shape, order="F")
        score = np.abs((problem.F_bs.conj().T @ R) @ problem.Psi) / problem.col_norms
        score.reshape(-1)[support] = -1.0
        k = int(np.argmax(score))
        support.append(k)
        cols.append(problem.column(*divmod(k, gc)))
        A = np.stack(cols, axis=1)
        coeffs = np.linalg.lstsq(A, y, rcond=None)[0]
        r = y - A @ coeffs
    return [divmod(k, gc) for k in support], coeffs


def assert_matches_full_scan(Y, problem, sparsity):
    res = omp(Y, problem, sparsity)
    support, coeffs = full_scan_omp(Y, problem, sparsity)
    assert res.support == support
    np.testing.assert_array_equal(res.coeffs, coeffs)
    return res


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
        n_g = problem.F_bs.shape[1]
        A = densify(problem)
        want = (A.conj().T @ R.reshape(-1, order="F")).reshape(n_g, -1)
        for rows in (np.arange(n_g), np.array([9, 2, 14]), np.array([5])):
            np.testing.assert_allclose(problem.correlate(R, rows), want[rows],
                                       atol=1e-10)


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


class TestPrunedScan:
    """The bound-pruned scan picks exactly the atoms of a full scan."""

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 40.0])
    def test_desk_three_by_three_paths(self, desk, snr_db):
        system, F_bs, F_cas = desk
        assert (system.paths_bs, system.paths_ris) == (3, 3)
        E = make_phase_matrix(system.n_ris, system.tau, substream(5, "phase"))
        prob = VectorizedProblem.build(F_bs, F_cas, E)
        for seed in range(3):
            Y = desk_pilots(system, E, snr_db, seed)
            res = assert_matches_full_scan(Y, prob, 9)
            assert len(res.support) == 9

    def test_tie_goes_to_lower_flat_index(self, small_bs_dict, small_cas_dict,
                                          small_E, rng):
        # BS atom 11 duplicates atom 3, so (3, j) and (11, j) score the same
        F_bs = small_bs_dict.F.copy()
        F_bs[:, 11] = F_bs[:, 3]
        prob = VectorizedProblem.build(F_bs, small_cas_dict.F, small_E)
        Y = (prob.column(11, 20).reshape(8, 12, order="F")
             + 0.05 * crandn(rng, 8, 12))
        res = assert_matches_full_scan(Y, prob, 3)
        assert res.support[0] == (3, 20)

    @pytest.mark.parametrize("rows, winner", [
        ({1: (1, 0), 2: (1, 3)}, 1),
        ({0: (1, 0), 8: (1, 5), **{i: (0, 5) for i in range(9, 16)}}, 0),
        ({0: (1, 5), **{i: (0, 5) for i in range(1, 8)}, 9: (1, 0)}, 0),
    ], ids=["larger-bound-later-in-chunk", "lower-row-in-later-chunk",
            "higher-row-in-later-chunk"])
    def test_exact_tie_across_rows(self, rows, winner):
        # identity BS atoms and Psi = [1, 0]^T make z_i row i of R exactly, so
        # the atom (i, 0) scores |R[i, 0]| and each listed row with a 1 ties
        F_bs = np.eye(2 * _ROW_CHUNK, dtype=complex)
        prob = VectorizedProblem.build(F_bs, np.array([[1.0], [0.0]], dtype=complex),
                                       np.eye(2, dtype=complex))
        Y = np.zeros((2 * _ROW_CHUNK, 2), dtype=complex)
        for i, v in rows.items():
            Y[i] = v
        res = assert_matches_full_scan(Y, prob, 1)
        assert res.support == [(winner, 0)]

    def test_winner_outside_first_row_chunk(self):
        # identity BS atoms make z_i row i of R; rows of the first chunk have
        # the largest bound but are orthogonal to the only cascaded atom
        n_g = 2 * _ROW_CHUNK
        F_bs = np.eye(n_g, dtype=complex)
        Psi = np.array([[1.0], [0.0]], dtype=complex)
        prob = VectorizedProblem.build(F_bs, Psi, np.eye(2, dtype=complex))
        Y = np.zeros((n_g, 2), dtype=complex)
        Y[_ROW_CHUNK:, 1] = 5.0
        Y[3] = [1.0 - 0.5j, 2.0]
        Y[_ROW_CHUNK + 2, 0] = 0.5
        bound = np.linalg.norm(Y, axis=1)
        assert 3 not in np.argsort(-bound, kind="stable")[:_ROW_CHUNK]
        res = assert_matches_full_scan(Y, prob, 2)
        assert res.support == [(3, 0), (_ROW_CHUNK + 2, 0)]

    def test_zero_norm_atom_scores_zero(self, small_bs_dict, small_cas_dict,
                                        small_E):
        # a zero cascaded column must not win as 0/0; the true atom does
        F_cas = small_cas_dict.F.copy()
        F_cas[:, 2] = 0.0
        prob = VectorizedProblem.build(small_bs_dict.F, F_cas, small_E)
        assert prob.col_norms[2] == 1.0
        c = 0.7 + 1.1j
        Y = c * prob.column(1, 4).reshape(8, 12, order="F")
        res = omp(Y, prob, 2)
        assert res.support == [(1, 4)]
        assert res.coeffs[0] == pytest.approx(c, rel=1e-12)
        assert not res.ridge_fallback
        assert res.residual_norm < 1e-12 * np.linalg.norm(Y)

    def test_peak_memory_below_one_full_scan(self, desk):
        system, F_bs, F_cas = desk
        E = make_phase_matrix(system.n_ris, system.tau, substream(5, "phase"))
        Y = desk_pilots(system, E, 20.0, 0)
        full_scan_bytes = F_bs.shape[1] * F_cas.shape[1] * 16
        tracemalloc.start()
        try:
            prob = VectorizedProblem.build(F_bs, F_cas, E)
            omp(Y, prob, system.paths_bs * system.paths_ris)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_scan_bytes


class TestOmpDense:
    @pytest.mark.parametrize("case", ["random_case", "scene_case"],
                             ids=["random", "scene"])
    def test_matches_implicit_variant(self, case, request):
        Y, problem, sparsity = request.getfixturevalue(case)
        A = densify(problem)
        res = omp(Y, problem, sparsity)
        x, support = omp_dense(Y.reshape(-1, order="F"), DenseProblem.build(A),
                               sparsity)
        gc = problem.Psi.shape[1]
        flat = [i * gc + j for i, j in res.support]
        assert len(flat) == sparsity
        assert support == flat
        np.testing.assert_allclose(x[flat], res.coeffs, rtol=1e-8)

    def test_full_rank_square_reproduces_solve(self, rng):
        A = crandn(rng, 4, 4)
        y = crandn(rng, 4)
        x, support = omp_dense(y, DenseProblem.build(A), 4)
        np.testing.assert_allclose(x, np.linalg.solve(A, y), rtol=1e-8)
        assert sorted(support) == [0, 1, 2, 3]

    def test_zero_observation(self, rng):
        A = crandn(rng, 4, 6)
        x, support = omp_dense(np.zeros(4, dtype=complex), DenseProblem.build(A), 3)
        assert support == []
        assert np.all(x == 0)

    def test_zero_norm_atom_tolerated(self, rng):
        A = crandn(rng, 4, 3)
        A[:, 1] = 0.0
        y = A[:, 0] * 2.0
        x, support = omp_dense(y, DenseProblem.build(A), 1)
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
        x, support = omp_dense(y, DenseProblem.build(A), 3)
        assert sorted(support) == [0, 1, 2]
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(A @ x, a + 0.5 * d, atol=1e-4)
