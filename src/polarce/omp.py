"""Greedy baselines on the vectorized cascaded problem.

vec(Y) = sqrt(p) * [(E^T conj(F_cas_raw)) kron F_bs] vec(Lam) + noise, with
column-major vec. The Kronecker design is never materialized: the atom for the
pair (i, j) is vec(F_bs[:, i] @ w_j^T) with w_j = conj(Psi[:, j]), Psi =
E^H F_cas, so a full correlation scan is the factored product F_bs^H R Psi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["VectorizedProblem", "OmpResult", "omp", "omp_dense",
           "cascaded_estimate"]


@dataclass
class VectorizedProblem:
    """Implicit Kronecker design for one BS dictionary / cascaded dictionary / E."""

    F_bs: np.ndarray                  # [N, N_G] unit columns
    Psi: np.ndarray                   # [tau, Gc] = E^H F_cas
    col_norms: np.ndarray             # [Gc] atom norms, = ||Psi[:, j]||
    corr: np.ndarray                  # [N_G, Gc] correlate's output, reused by every scan

    @classmethod
    def build(cls, F_bs: np.ndarray, F_cas: np.ndarray, E: np.ndarray):
        Psi = E.conj().T @ F_cas
        return cls(F_bs=F_bs, Psi=Psi, col_norms=np.linalg.norm(Psi, axis=0),
                   corr=np.empty((F_bs.shape[1], Psi.shape[1]), dtype=np.complex128))

    def column(self, i: int, j: int) -> np.ndarray:
        """Explicit atom for pair (i, j), column-major vec."""
        w = np.conj(self.Psi[:, j])
        return np.outer(self.F_bs[:, i], w).reshape(-1, order="F")

    def correlate(self, R: np.ndarray) -> np.ndarray:
        """A^H vec(R) for all atoms at once, shaped [N_G, Gc]; overwrites self.corr."""
        return np.matmul(self.F_bs.conj().T @ R, self.Psi, out=self.corr)


@dataclass
class OmpResult:
    support: list[tuple[int, int]]    # (bs grid, cascaded col) per pick
    coeffs: np.ndarray
    residual_norm: float
    ridge_fallback: bool


_RESID_RTOL = 1e-8        # pursuit stops once ||r|| <= _RESID_RTOL * ||y||
_RIDGE = 1e-10            # Tikhonov weight of the rank-deficient refit


def _pursuit(y: np.ndarray, scores, atom, sparsity: int):
    """Greedy pursuit shared by both OMPs; returns (atoms, coeffs, ||r||, ridge used).

    scores(r) is |correlation| / atom norm of every atom with the residual r,
    its row-major flat index the atom index; atom(k) is the column of atom k.
    Each step picks the best unpicked atom (ties to the lowest index) and
    refits all picked atoms by least squares, by ridge when rank deficient.
    Stops early on a small residual or once every atom is picked.
    """
    ynorm = float(np.linalg.norm(y))
    r, rnorm = y, ynorm
    support: list[int] = []
    cols: list[np.ndarray] = []
    coeffs = np.zeros(0, dtype=np.complex128)
    ridge_used = False
    for _ in range(sparsity):
        if rnorm <= _RESID_RTOL * ynorm:
            break
        corr = scores(r).reshape(-1)
        if len(support) == corr.size:
            break
        corr[support] = -1.0
        k = int(np.argmax(corr))
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
    """Orthogonal matching pursuit on the implicit design."""
    gc = problem.Psi.shape[1]
    score = np.empty(problem.corr.shape)

    def scores(r):
        R = r.reshape(Y.shape, order="F")
        np.abs(problem.correlate(R), out=score)
        return np.divide(score, problem.col_norms, out=score)

    support, coeffs, rnorm, ridge_used = _pursuit(
        Y.reshape(-1, order="F"), scores,
        lambda k: problem.column(*divmod(k, gc)), sparsity)
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


def omp_dense(y: np.ndarray, A: np.ndarray, sparsity: int):
    """Dense-matrix OMP; returns (coeffs over all atoms, support list)."""
    norms = np.linalg.norm(A, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    AH = A.conj().T
    support, coeffs, _, _ = _pursuit(y, lambda r: np.abs(AH @ r) / norms,
                                     lambda k: A[:, k], sparsity)
    x = np.zeros(A.shape[1], dtype=np.complex128)
    x[support] = coeffs
    return x, support
