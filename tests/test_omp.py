"""Greedy pursuit on the implicit Kronecker design and its dense twin."""
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from helpers import crandn
import pytest

from polarce.channel import (draw_scene, make_phase_matrix, noise_var_for_snr,
                             simulate_pilots)
from polarce.harness import build_bs_dictionary, build_ris_dictionaries, load_config
from polarce import omp as omp_module
from polarce.omp import (_ROW_CHUNK, _SCREEN_MIN, VectorizedProblem, _best_atoms,
                         _screen_delta, cascaded_estimate, omp, omp_dense)
from polarce.rng import substream

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DESK = CONFIGS / "desk.json"


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
    Y = simulate_pilots(scene, system, E, nv, substream(21, "noise"))
    prob = VectorizedProblem.build(small_bs_dict.F, small_cas_dict.F, E)
    return Y, prob, system.paths_bs * system.paths_ris


def profile(path):
    cfg = load_config(path)
    return cfg.system, build_bs_dictionary(cfg).F, build_ris_dictionaries(cfg)[1].F


@pytest.fixture(scope="module")
def desk():
    """Desk-profile system and dictionaries: 96 BS atoms, 785 cascaded columns."""
    return profile(DESK)


@pytest.fixture(scope="module")
def paper():
    """Paper-profile system and dictionaries: 192 BS atoms, 6,419 cascaded columns."""
    return profile(CONFIGS / "paper.json")


def scene_pilots(system, E, snr_db, seed):
    scene = draw_scene(system, substream(seed, "scene"))
    nv = noise_var_for_snr(scene, system, E, snr_db)
    return simulate_pilots(scene, system, E, nv, substream(seed, "noise"))


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
    # the QR refit rounds differently from the reference's lstsq
    np.testing.assert_allclose(res.coeffs, coeffs, rtol=1e-12)
    return res


def lstsq_rank_deficient(atoms, y):
    """The reference's rank test: lstsq's default cutoff on the picked atoms."""
    return np.linalg.lstsq(atoms, y, rcond=None)[2] < atoms.shape[1]


def assert_full_rank_picks(Y, problem, res):
    atoms = np.stack([problem.column(i, j) for i, j in res.support], axis=1)
    assert not res.ridge_fallback
    assert not lstsq_rank_deficient(atoms, Y.reshape(-1, order="F"))


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

    @pytest.mark.parametrize("delta", [0.0, 1e-6], ids=["duplicate", "1e-6-apart"])
    def test_rank_test_agrees_with_lstsq(self, delta, rng):
        # two BS atoms and one cascaded atom; a generic observation keeps the
        # residual alive, so the second pick is the other, (near-)equal atom
        F_bs = np.array([[1.0, 1.0], [0.0, delta]], dtype=complex)
        F_bs /= np.linalg.norm(F_bs, axis=0)
        E = np.exp(2j * np.pi * rng.uniform(size=(2, 3)))
        prob = VectorizedProblem.build(F_bs, np.array([[1.0], [0.0]], dtype=complex), E)
        Y = crandn(rng, 2, 3)
        res = omp(Y, prob, 2)
        assert sorted(res.support) == [(0, 0), (1, 0)]
        atoms = np.stack([prob.column(i, j) for i, j in res.support], axis=1)
        assert res.ridge_fallback == (delta == 0.0)
        assert res.ridge_fallback == lstsq_rank_deficient(atoms, Y.reshape(-1, order="F"))
        assert np.all(np.isfinite(res.coeffs))

    def test_estimate_reassembles_single_atom_channel(self, problem,
                                                      small_bs_dict,
                                                      small_cas_dict, small_E):
        power = 2.5
        lam0 = 0.8 - 0.4j
        i, j = 9, 17
        raw_col = small_cas_dict.F[:, j] / math.sqrt(small_cas_dict.F.shape[0])
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
            Y = scene_pilots(system, E, snr_db, seed)
            res = assert_matches_full_scan(Y, prob, 9)
            assert len(res.support) == 9
            assert_full_rank_picks(Y, prob, res)

    @pytest.mark.parametrize("snr_db", [0.0, 20.0])
    def test_paper_three_by_three_paths(self, paper, snr_db):
        system, F_bs, F_cas = paper
        assert (system.paths_bs, system.paths_ris) == (3, 3)
        E = make_phase_matrix(system.n_ris, system.tau, substream(5, "phase"))
        prob = VectorizedProblem.build(F_bs, F_cas, E)
        Y = scene_pilots(system, E, snr_db, 0)
        res = assert_matches_full_scan(Y, prob, 9)
        assert len(res.support) == 9
        assert_full_rank_picks(Y, prob, res)

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
        Y = scene_pilots(system, E, 20.0, 0)
        full_scan_bytes = F_bs.shape[1] * F_cas.shape[1] * 16
        tracemalloc.start()
        try:
            prob = VectorizedProblem.build(F_bs, F_cas, E)
            omp(Y, prob, system.paths_bs * system.paths_ris)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_scan_bytes


def atoms_problem(A):
    """A problem whose cascaded atoms Psi = E^H F_cas are the columns of A, E = I."""
    return VectorizedProblem.build(np.eye(1), A, np.eye(A.shape[0]))


def dense_one(y, A, sparsity):
    """omp_dense over the atoms A on the single observation y:
    (support, coeffs over all atoms, ridge)."""
    [(support, coeffs, _, ridge)] = omp_dense(y[:, None], atoms_problem(A), sparsity)
    x = np.zeros(A.shape[1], dtype=np.complex128)
    x[support] = coeffs
    return support, x, ridge


class TestOmpDense:
    @pytest.mark.parametrize("case", ["random_case", "scene_case"],
                             ids=["random", "scene"])
    def test_matches_implicit_variant(self, case, request):
        Y, problem, sparsity = request.getfixturevalue(case)
        A = densify(problem)
        res = omp(Y, problem, sparsity)
        support, x, _ = dense_one(Y.reshape(-1, order="F"), A, sparsity)
        gc = problem.Psi.shape[1]
        flat = [i * gc + j for i, j in res.support]
        assert len(flat) == sparsity
        assert support == flat
        np.testing.assert_allclose(x[flat], res.coeffs, rtol=1e-8)

    def test_full_rank_square_reproduces_solve(self, rng):
        A = crandn(rng, 4, 4)
        y = crandn(rng, 4)
        support, x, _ = dense_one(y, A, 4)
        np.testing.assert_allclose(x, np.linalg.solve(A, y), rtol=1e-8)
        assert sorted(support) == [0, 1, 2, 3]

    def test_zero_observation(self, rng):
        A = crandn(rng, 4, 6)
        support, x, _ = dense_one(np.zeros(4, dtype=complex), A, 3)
        assert support == []
        assert np.all(x == 0)

    def test_zero_norm_atom_tolerated(self, rng):
        A = crandn(rng, 4, 3)
        A[:, 1] = 0.0
        y = A[:, 0] * 2.0
        support, x, _ = dense_one(y, A, 1)
        assert support == [0]
        assert x[0] == pytest.approx(2.0 + 0j, rel=1e-10)

    @staticmethod
    def pursue_near_duplicates(delta):
        """Atoms a, a + delta e and d on y = a + 0.5 d + 0.3 e, all three picked."""
        a, d, e = np.eye(3, dtype=complex)
        A = np.stack([a, a + delta * e, d], axis=1)
        y = a + 0.5 * d + 0.3 * e      # e keeps the residual alive
        support, x, ridge = dense_one(y, A, 3)
        assert sorted(support) == [0, 1, 2]
        assert ridge == lstsq_rank_deficient(A[:, support], y)
        assert np.all(np.isfinite(x))
        return A, x, y, ridge

    def test_duplicate_atoms_take_ridge_path(self):
        # exact duplicate columns make the picked subdesign rank deficient;
        # the regularised solve must still return finite coefficients that
        # reproduce the observation's part in their span
        A, x, _, ridge = self.pursue_near_duplicates(0.0)
        assert ridge
        np.testing.assert_allclose(A @ x, A[:, 0] + 0.5 * A[:, 2], atol=1e-4)

    def test_atoms_1e6_apart_are_full_rank(self):
        A, x, y, ridge = self.pursue_near_duplicates(1e-6)
        assert not ridge
        np.testing.assert_allclose(x, np.linalg.solve(A, y), rtol=1e-6)

    def test_ill_conditioned_atoms_refit_as_accurately_as_lstsq(self):
        # Vandermonde atoms with condition number 3.5e6: a single Gram-Schmidt
        # pass leaves errors near cond^2 * eps in the coefficients (9e-8 here),
        # the re-orthogonalized factor near cond * eps, as lstsq (1e-11)
        A = np.vander(np.linspace(0.0, 1.0, 30), 10, increasing=True).astype(complex)
        x = np.arange(1, 11) * (1.0 + 0.5j)
        support, x_hat, ridge = dense_one(A @ x, A, 10)
        assert sorted(support) == list(range(10))
        assert not ridge
        np.testing.assert_allclose(x_hat, x, rtol=0, atol=1e-9 * np.abs(x).max())

    def test_batch_matches_one_column_at_a_time(self, desk):
        # desk cascaded atoms on the first tau rows; two extra rows hold an
        # exactly duplicated pair of atoms in front, which a column on those
        # rows picks in turn and so takes the ridge path
        system, F_bs, F_cas = desk
        E = make_phase_matrix(system.n_ris, system.tau, substream(5, "phase"))
        Psi = E.conj().T @ F_cas
        tau, gc = Psi.shape
        A = np.zeros((tau + 2, gc + 2), dtype=complex)
        A[:tau, 2:] = Psi
        A[tau, :2] = 1.0
        paths = []
        for seed in range(3):
            Y = scene_pilots(system, E, 20.0, seed)
            rows = np.argsort(-np.linalg.norm(F_bs.conj().T @ Y, axis=1))
            paths.append(F_bs[:, rows[:system.paths_bs]].conj().T @ Y)
        P = np.zeros((tau + 2, 2 + 3 * system.paths_bs), dtype=complex)
        P[tau, 1], P[tau + 1, 1] = 1.0, 0.3
        P[:tau, 2:] = np.concatenate(paths).T
        batch = omp_dense(P, atoms_problem(A), system.paths_ris)
        assert len(batch) == P.shape[1]
        support, coeffs, rnorm, ridge = batch[0]
        assert (support, coeffs.size, rnorm, ridge) == ([], 0, 0.0, False)
        support, _, _, ridge = batch[1]
        assert support[:2] == [0, 1] and ridge
        for c, (support, coeffs, rnorm, ridge) in enumerate(batch):
            [(support1, coeffs1, rnorm1, ridge1)] = omp_dense(P[:, [c]], atoms_problem(A),
                                                             system.paths_ris)
            assert support == support1
            assert ridge == ridge1
            np.testing.assert_allclose(coeffs, coeffs1, rtol=1e-12)
            assert rnorm == pytest.approx(rnorm1, rel=1e-12, abs=1e-300)
            if c >= 2:
                assert len(support) == system.paths_ris and not ridge


SCREEN_TAU, SCREEN_GC = 32, 2048    # a row chunk of these scans 524,288 multiply-adds


def screened_problem(A, n=2 * _ROW_CHUNK):
    """16 identity BS atoms in C^n, so z_i is row i of R, and the cascaded
    atoms A with E = I, so Psi = A."""
    assert _ROW_CHUNK * A.size > _SCREEN_MIN
    return VectorizedProblem.build(np.eye(n, 2 * _ROW_CHUNK, dtype=complex), A,
                                   np.eye(A.shape[0], dtype=complex))


def random_atoms(rng, gc=SCREEN_GC):
    return crandn(rng, SCREEN_TAU, gc)


def screened(problem):
    """Whether a screen ran on the problem: the first one builds Psi32."""
    return "Psi32" in vars(problem)


def screen_scores(L, problem):
    """The screen's scores of the rows L [rows, tau], as `_best_atoms` forms them."""
    e = -np.frexp(np.linalg.norm(L, axis=1).max())[1]
    X = np.empty(L.shape, dtype=np.complex64)
    X.real, X.imag = np.ldexp(L.real, e), np.ldexp(L.imag, e)
    return np.abs(X @ problem.Psi32)


def assert_dense_matches_unscreened(monkeypatch, P, problem, sparsity):
    """omp_dense picks and fits as it does with the screen switched off."""
    batch = omp_dense(P, problem, sparsity)
    assert screened(problem)
    with monkeypatch.context() as m:
        m.setattr(omp_module, "_SCREEN_MIN", math.inf)
        reference = omp_dense(P, problem, sparsity)
    for (support, coeffs, rnorm, ridge), (support0, coeffs0, rnorm0, ridge0) in zip(
            batch, reference, strict=True):
        assert support == support0
        np.testing.assert_array_equal(coeffs, coeffs0)
        assert (rnorm, ridge) == (rnorm0, ridge0)
    return batch


class TestScreen:
    """Past the size rule a complex64 screen picks the candidates that are
    scored in double; the picks stay the full scan's."""

    def test_rescore_keeps_full_scan_bits(self):
        # the exact re-score of `omp` takes whole aligned groups of columns, the
        # last group what remains, and relies on their product rounding as the
        # full scan's columns do: on bare products of several shapes, and on
        # every re-score of a screened pursuit. The package runs BLAS on one
        # thread, and a threaded GEMM splits the full product otherwise, so the
        # check runs in a process that imports polarce first.
        script = (
            "import numpy as np\n"
            "from polarce import omp\n"
            "rng = np.random.default_rng(0)\n"
            "def crandn(*shape):\n"
            "    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)\n"
            "G = omp._COL_GROUP\n"
            "for rows, tau, n in [(8, 30, 6419), (7, 30, 6419), (8, 30, 785), (8, 32, 2002)]:\n"
            "    Z, Psi = crandn(rows, tau), crandn(tau, n)\n"
            "    full, last = Z @ Psi, n - n % G\n"
            "    for first in ([0], [n // 8 * 4], [last - G, last],\n"
            "                  [last] if n % G > 1 else [0, 388], np.arange(0, n, 388)):\n"
            "        cols = (np.array(first)[:, None] + np.arange(G)).ravel()\n"
            "        cols = cols[cols < n]\n"
            "        assert np.array_equal(Z @ Psi[:, cols], full[:, cols]), (rows, n, first)\n"
            "correlate, calls = omp.VectorizedProblem.correlate, []\n"
            "def checked(self, R, rows, cols=slice(None)):\n"
            "    out = correlate(self, R, rows, cols)\n"
            "    assert np.array_equal(out, correlate(self, R, rows)[:, cols])\n"
            "    calls.append(len(cols))\n"
            "    return out\n"
            "omp.VectorizedProblem.correlate = checked\n"
            "prob = omp.VectorizedProblem.build(np.eye(16), crandn(128, 6419), crandn(128, 30))\n"
            "for _ in range(4):\n"
            "    omp.omp(crandn(16, 30), prob, 9)\n"
            "assert calls and all(c % G in (0, 3) for c in calls), calls\n"
            "# 2,049 columns end in a one-column group; a pick there still takes two\n"
            "calls.clear()\n"
            "prob = omp.VectorizedProblem.build(np.eye(16), crandn(128, 2049), crandn(128, 32))\n"
            "Y = prob.column(3, 2048).reshape(16, 32, order='F') + 1e-3 * crandn(16, 32)\n"
            "assert omp.omp(Y, prob, 1).support == [(3, 2048)]\n"
            "assert calls == [5], calls\n"
            "print('ok')\n")
        root = Path(__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(root / "src")
        out = subprocess.run([sys.executable, "-c", "import polarce\n" + script], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0 and out.stdout == "ok\n", out.stderr

    def test_screen_error_within_delta(self, rng):
        prob = screened_problem(random_atoms(rng))
        L = crandn(rng, _ROW_CHUNK, SCREEN_TAU) * np.logspace(-3, 0, _ROW_CHUNK)[:, None]
        scale = 2.0 ** -np.frexp(np.linalg.norm(L, axis=1).max())[1]
        exact = np.abs((L * scale) @ prob.Psi) / prob.col_norms
        err = np.abs(screen_scores(L, prob) - exact).max()
        assert 0 < err <= _screen_delta(SCREEN_TAU)
        assert _screen_delta(30) == pytest.approx(5.48e-6, rel=1e-3)

    @staticmethod
    def near_tie(rng):
        """Unit atoms a, b orthogonal, and a residual a + (1 - 1e-9) b: a wins
        in double by 1e-9 relative. The tests draw until b screens higher by
        more than a float32 ulp."""
        ja, jb = 700, 300
        for _ in range(500):
            A = random_atoms(rng)
            A[:, jb] -= A[:, ja] * (np.vdot(A[:, ja], A[:, jb]) / np.vdot(A[:, ja], A[:, ja]))
            ua = A[:, ja] / np.linalg.norm(A[:, ja])
            ub = A[:, jb] / np.linalg.norm(A[:, jb])
            phase = np.exp(2j * np.pi * rng.uniform())
            r = phase * (ua + (1 - 1e-9) * ub)
            yield A, r, ja, jb

    def test_near_tie_lower_atom_screens_higher(self, rng):
        for A, r, ja, jb in self.near_tie(rng):
            prob = screened_problem(A)
            Y = np.zeros((2 * _ROW_CHUNK, SCREEN_TAU), dtype=complex)
            Y[0] = np.conj(r)             # z_0 psi_j = r^H a_j
            S = screen_scores(Y[:_ROW_CHUNK], prob)
            if S[0, jb] > np.nextafter(S[0, ja], np.inf):
                break
        else:
            pytest.fail("no draw inverted the screened order")
        res = assert_matches_full_scan(Y, prob, 1)
        assert res.support == [(0, ja)]
        assert screened(prob)

    def test_near_tie_lower_atom_screens_higher_dense(self, rng, monkeypatch):
        c = _ROW_CHUNK
        for A, r, ja, jb in self.near_tie(rng):
            prob = screened_problem(A)
            P = np.concatenate([r[:, None], crandn(rng, SCREEN_TAU, c - 1)], axis=1)
            S = screen_scores(P.conj().T, prob)
            if S[0, jb] > np.nextafter(S[0, ja], np.inf):
                break
        else:
            pytest.fail("no draw inverted the screened order")
        batch = assert_dense_matches_unscreened(monkeypatch, P, prob, 2)
        assert batch[0][0][0] == ja

    def test_picked_atoms_are_masked_in_the_screen(self, rng):
        # a picked atom that would top the screen must not set its threshold:
        # atom (0, 5) scores 1 and is picked, the best unpicked one far less
        A = random_atoms(rng)
        prob = screened_problem(A)
        L = 1e-3 * crandn(rng, 1, _ROW_CHUNK, SCREEN_TAU)
        L[0, 0] += np.conj(A[:, 5]) / np.linalg.norm(A[:, 5])
        picked = (np.array([0]), np.array([0]), np.array([5]))
        full = np.abs(L[0] @ A) / prob.col_norms
        full[0, 5] = -1.0
        want = np.unravel_index(np.argmax(full), full.shape)
        [i], [j], [score] = _best_atoms(prob, 1, _ROW_CHUNK, lambda: L,
                                        lambda cols: L @ prob.Psi[:, cols], picked)
        assert (i, j, score) == (*want, full[want])
        assert screened(prob)

    @pytest.mark.parametrize("big_rows", [0, _ROW_CHUNK - 1],
                             ids=["one-chunk", "across-chunks"])
    def test_exact_ties_split_across_candidates(self, rng, big_rows):
        # rows 2 and 5 are conjugates, as are cascaded atoms 700 and 300, so
        # (2, 700) and (5, 300) score the same bits; each is a candidate through
        # its own row, and the lower flat index (2, 700) wins. Rows of norm 1.5
        # with lower scores push row 5 into the second chunk.
        A = random_atoms(rng)
        A[:, 300] = np.conj(A[:, 700])
        prob = screened_problem(A)
        Y = np.zeros((2 * _ROW_CHUNK, SCREEN_TAU), dtype=complex)
        Y[2] = np.conj(A[:, 700]) / np.linalg.norm(A[:, 700])
        Y[5] = np.conj(Y[2])
        for i in range(big_rows):
            v = crandn(rng, SCREEN_TAU)
            Y[_ROW_CHUNK + i] = 1.5 * v / np.linalg.norm(v)
        full = np.abs((prob.F_bsH @ Y) @ prob.Psi) / prob.col_norms
        assert full[2, 700] == full[5, 300] == full.max()
        assert full[2, 300] < full[2, 700] and full[5, 700] < full[2, 700]
        res = assert_matches_full_scan(Y, prob, 1)
        assert res.support == [(2, 700)]
        assert screened(prob)

    def test_exact_ties_split_across_candidates_dense(self, rng, monkeypatch):
        # a real residual scores an atom and its conjugate the same bits; the
        # lower index wins, and the other columns add their own candidates
        A = random_atoms(rng)
        A[:, 700] = A[:, 700].real + 0.1j * A[:, 700].imag
        A[:, 300] = np.conj(A[:, 700])
        prob = screened_problem(A)
        P = crandn(rng, SCREEN_TAU, _ROW_CHUNK)
        P[:, 0] = A[:, 700].real
        full = np.abs(prob.Psi.conj().T @ P) / prob.col_norms[:, None]
        assert full[300, 0] == full[700, 0] == full[:, 0].max()
        batch = assert_dense_matches_unscreened(monkeypatch, P, prob, 3)
        assert batch[0][0][0] == 300

    @pytest.mark.parametrize("scale", [1e30, 1e-30, 1e40, 1e-40])
    def test_scaled_pilot_blocks(self, paper, scale, monkeypatch):
        # 1e40 and 1e-40 lie past the range of float32
        system, F_bs, F_cas = paper
        E = make_phase_matrix(system.n_ris, system.tau, substream(5, "phase"))
        prob = VectorizedProblem.build(F_bs, F_cas, E)
        Y = scene_pilots(system, E, 10.0, 1) * scale
        res = assert_matches_full_scan(Y, prob, 9)
        assert len(res.support) == 9
        assert screened(prob)
        rows = np.argsort(-np.linalg.norm(F_bs.conj().T @ Y, axis=1))[:12]
        assert_dense_matches_unscreened(monkeypatch, (F_bs[:, rows].conj().T @ Y).T,
                                        VectorizedProblem.build(F_bs, F_cas, E), 3)

    def test_residual_exactly_zero(self, rng, monkeypatch):
        A = random_atoms(rng)
        A[:, 5] = np.eye(SCREEN_TAU)[0]
        prob = screened_problem(A)
        # no picks on a zero observation
        res = omp(np.zeros((2 * _ROW_CHUNK, SCREEN_TAU), dtype=complex), prob, 3)
        assert (res.support, res.residual_norm) == ([], 0.0)
        # atom (1, 5) is a unit vector of the vectorized problem: one pick
        # leaves the residual exactly zero, and the pursuit stops
        Y = np.zeros((2 * _ROW_CHUNK, SCREEN_TAU), dtype=complex)
        Y[1, 0] = 4.0
        res = assert_matches_full_scan(Y, prob, 1)
        res = omp(Y, prob, 3)
        assert res.support == [(1, 5)]
        assert res.coeffs.tolist() == [4.0] and res.residual_norm == 0.0
        assert screened(prob)
        P = crandn(rng, SCREEN_TAU, _ROW_CHUNK + 2)
        P[:, 1] = 0.0
        P[:, 2] = 4.0 * A[:, 5]
        batch = assert_dense_matches_unscreened(monkeypatch, P, screened_problem(A), 3)
        assert batch[1][0] == [] and batch[2][0] == [5] and batch[2][2] == 0.0

    def test_residual_orthogonal_to_every_atom(self, rng):
        # BS atoms span all rows of R but the last, so Z = 0, every atom scores
        # exactly 0, the screen keeps every column, and the picks go in flat order
        prob = screened_problem(random_atoms(rng), n=2 * _ROW_CHUNK + 1)
        Y = np.zeros((2 * _ROW_CHUNK + 1, SCREEN_TAU), dtype=complex)
        Y[-1] = crandn(rng, SCREEN_TAU)
        res = omp(Y, prob, 3)
        assert res.support == full_scan_omp(Y, prob, 3)[0] == [(0, 0), (0, 1), (0, 2)]
        assert np.all(res.coeffs == 0)
        assert screened(prob)

    def test_zero_norm_atom(self, rng, monkeypatch):
        A = random_atoms(rng)
        A[:, 7] = 0.0
        prob = screened_problem(A)
        assert prob.col_norms[7] == 1.0
        Y = sum(c * prob.column(i, j) for (i, j), c in
                zip([(1, 4), (9, 7), (3, 1500)], [1.0, 0.5j, -0.7]))
        Y = Y.reshape(2 * _ROW_CHUNK, SCREEN_TAU, order="F") + 0.01 * crandn(
            rng, 2 * _ROW_CHUNK, SCREEN_TAU)
        res = assert_matches_full_scan(Y, prob, 3)
        assert all(j != 7 for _, j in res.support)
        assert screened(prob)
        assert not np.any(prob.Psi32[:, 7])
        P = crandn(rng, SCREEN_TAU, _ROW_CHUNK)
        for support, *_ in assert_dense_matches_unscreened(monkeypatch, P, prob, 4):
            assert 7 not in support

    def test_just_below_the_rule_builds_no_copy(self, rng, monkeypatch):
        # a row chunk of 8 x 32 x 2000 multiply-adds is _SCREEN_MIN: no screen
        gc = _SCREEN_MIN // (_ROW_CHUNK * SCREEN_TAU)
        prob = VectorizedProblem.build(np.eye(2 * _ROW_CHUNK, dtype=complex),
                                       random_atoms(rng, gc), np.eye(SCREEN_TAU))
        assert _ROW_CHUNK * prob.Psi.size == _SCREEN_MIN
        Y = crandn(rng, 2 * _ROW_CHUNK, SCREEN_TAU)
        assert_matches_full_scan(Y, prob, 3)
        omp_dense(crandn(rng, SCREEN_TAU, _ROW_CHUNK), prob, 3)
        assert not screened(prob)
        # one more atom is past it
        prob = VectorizedProblem.build(np.eye(2 * _ROW_CHUNK, dtype=complex),
                                       random_atoms(rng, gc + 1), np.eye(SCREEN_TAU))
        assert_matches_full_scan(Y, prob, 3)
        assert screened(prob)
