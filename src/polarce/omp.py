"""Greedy baselines on the vectorized cascaded problem.

vec(Y) = sqrt(p) * [(E^T conj(F_cas_raw)) kron F_bs] vec(Lam) + noise, with
column-major vec. The Kronecker design is never materialized: the atom for the
pair (i, j) is vec(F_bs[:, i] @ w_j^T) with w_j = conj(Psi[:, j]), Psi =
E^H F_cas, so a full correlation scan is the factored product F_bs^H R Psi.

`omp` does not run that full scan. With Z = F_bs^H R, the score of atom (i, j)
is |z_i psi_j| / ||psi_j||, which Cauchy-Schwarz bounds by b_i = ||z_i||. Each
pick visits BS rows in descending b, up to _ROW_CHUNK rows per product, and
stops once the next row's b_i * (1 + _BOUND_SLACK) falls below the best score
so far: no later row can reach it. A computed score exceeds its computed bound
by at most the rounding of a length-tau dot product and a norm, about
tau * eps relative, so the slack keeps every row that could win in floating
point and the pick is the full scan's. Ties go to the lowest row-major flat
index, as `np.argmax` over the full scan resolves them. The rows split into
near-equal chunks, so no chunk is a single row unless N_G is 1: numpy sends a
one-row product to gemv, whose rounding differs from the full scan's gemm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["VectorizedProblem", "DenseProblem", "OmpResult", "omp", "omp_dense",
           "cascaded_estimate"]


def _atom_norms(A: np.ndarray) -> np.ndarray:
    """Column norms with zeros replaced by 1, so a zero atom scores 0, not NaN."""
    norms = np.linalg.norm(A, axis=0)
    return np.where(norms > 0, norms, 1.0)


@dataclass
class VectorizedProblem:
    """Implicit Kronecker design for one BS dictionary / cascaded dictionary / E."""

    F_bs: np.ndarray                  # [N, N_G] unit columns
    Psi: np.ndarray                   # [tau, Gc] = E^H F_cas
    col_norms: np.ndarray             # [Gc] atom norms ||Psi[:, j]||, 1 where zero

    @classmethod
    def build(cls, F_bs: np.ndarray, F_cas: np.ndarray, E: np.ndarray):
        Psi = E.conj().T @ F_cas
        return cls(F_bs=F_bs, Psi=Psi, col_norms=_atom_norms(Psi))

    def column(self, i: int, j: int) -> np.ndarray:
        """Explicit atom for pair (i, j), column-major vec."""
        w = np.conj(self.Psi[:, j])
        return np.outer(self.F_bs[:, i], w).reshape(-1, order="F")

    def correlate(self, R: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """A^H vec(R) for the atoms of the BS rows `rows`, shaped [len(rows), Gc]."""
        return (self.F_bs[:, rows].conj().T @ R) @ self.Psi


@dataclass
class DenseProblem:
    """Explicit design with the adjoint and atom norms that pursuit reuses."""

    A: np.ndarray                     # [m, n] atoms as columns
    AH: np.ndarray                    # [n, m] = A^H
    col_norms: np.ndarray             # [n] ||A[:, k]||, 1 where zero

    @classmethod
    def build(cls, A: np.ndarray):
        return cls(A=A, AH=A.conj().T, col_norms=_atom_norms(A))


@dataclass
class OmpResult:
    support: list[tuple[int, int]]    # (bs grid, cascaded col) per pick
    coeffs: np.ndarray
    residual_norm: float
    ridge_fallback: bool


_RESID_RTOL = 1e-8        # pursuit stops once ||r|| <= _RESID_RTOL * ||y||
_RIDGE = 1e-10            # Tikhonov weight of the rank-deficient refit
_ROW_CHUNK = 8            # BS rows correlated per product of the pruned scan
_BOUND_SLACK = 1e-9       # relative headroom of the row bound over rounding


def _pursuit(y: np.ndarray, best, atom, steps: int):
    """Greedy pursuit shared by both OMPs; returns (atoms, coeffs, ||r||, ridge used).

    best(r, picked) is the index of the unpicked atom of largest |correlation|
    / atom norm with the residual r, ties to the lowest index; atom(k) is the
    column of atom k. Each step picks that atom and refits all picked atoms by
    least squares, by ridge when rank deficient. Runs at most `steps` steps, no
    more than there are atoms, and stops early on a small residual.
    """
    ynorm = float(np.linalg.norm(y))
    r, rnorm = y, ynorm
    support: list[int] = []
    cols: list[np.ndarray] = []
    coeffs = np.zeros(0, dtype=np.complex128)
    ridge_used = False
    for _ in range(steps):
        if rnorm <= _RESID_RTOL * ynorm:
            break
        k = best(r, support)
        support.append(k)
        cols.append(atom(k))
        A = np.stack(cols, axis=1)
        coeffs, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
        if rank < len(cols):
            ridge_used = True
            gram = A.conj().T @ A + _RIDGE * np.eye(len(cols))
            coeffs = np.linalg.solve(gram, A.conj().T @ y)
        r = y - A @ coeffs
        rnorm = float(np.linalg.norm(r))
    return support, coeffs, rnorm, ridge_used


def omp(Y: np.ndarray, problem: VectorizedProblem, sparsity: int) -> OmpResult:
    """Orthogonal matching pursuit on the implicit design, by bound-pruned scans."""
    n_g = problem.F_bs.shape[1]
    gc = problem.Psi.shape[1]
    chunks = math.ceil(n_g / _ROW_CHUNK)
    edges = [n_g * c // chunks for c in range(chunks + 1)]

    def best(r, picked):
        R = r.reshape(Y.shape, order="F")
        bound = np.linalg.norm(problem.F_bs.conj().T @ R, axis=1)
        order = np.argsort(-bound, kind="stable")
        top, top_k = -np.inf, -1
        for lo, hi in zip(edges, edges[1:]):
            if bound[order[lo]] * (1.0 + _BOUND_SLACK) < top:
                break
            rows = np.sort(order[lo:hi])
            score = np.abs(problem.correlate(R, rows))
            np.divide(score, problem.col_norms, out=score)
            for k in picked:
                i, j = divmod(k, gc)
                score[rows == i, j] = -1.0
            p, j = divmod(int(np.argmax(score)), gc)
            k = int(rows[p]) * gc + j
            if score[p, j] > top or (score[p, j] == top and k < top_k):
                top, top_k = score[p, j], k
        return top_k

    support, coeffs, rnorm, ridge_used = _pursuit(
        Y.reshape(-1, order="F"), best,
        lambda k: problem.column(*divmod(k, gc)), min(sparsity, n_g * gc))
    return OmpResult(support=[divmod(k, gc) for k in support], coeffs=coeffs,
                     residual_norm=rnorm, ridge_fallback=ridge_used)


def cascaded_estimate(result: OmpResult, problem: VectorizedProblem,
                      F_cas: np.ndarray, power: float) -> np.ndarray:
    """Assemble G_hat from the vectorized solution.

    Atoms were built on Psi = E^H F_cas with unit cascaded columns, so a
    coefficient c on pair (i, j) contributes c f_i F_cas[:, j]^H to sqrt(p) G.
    F_cas must therefore be the same unit-column dictionary the problem was
    built from.
    """
    n = problem.F_bs.shape[0]
    m = F_cas.shape[0]
    G = np.zeros((n, m), dtype=np.complex128)
    for (i, j), c in zip(result.support, result.coeffs):
        G += c * np.outer(problem.F_bs[:, i], np.conj(F_cas[:, j]))
    return G / math.sqrt(power)


def omp_dense(y: np.ndarray, problem: DenseProblem, sparsity: int):
    """Dense-matrix OMP; returns (coeffs over all atoms, support list)."""
    A = problem.A

    def best(r, picked):
        score = np.abs(problem.AH @ r) / problem.col_norms
        score[picked] = -1.0
        return int(np.argmax(score))

    support, coeffs, _, _ = _pursuit(y, best, lambda k: A[:, k],
                                     min(sparsity, A.shape[1]))
    x = np.zeros(A.shape[1], dtype=np.complex128)
    x[support] = coeffs
    return x, support
