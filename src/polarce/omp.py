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

Both OMPs run one pursuit body, `_pursuit`, on the columns of an [m, n]
observation in lockstep. `omp_dense` pursues the cascaded part alone, on the
atoms Psi of the same problem, and scores a batch by one Psi^H R product per
step. A column refits by a QR update of its picks, not a least-squares
solve (the QR form of OMP: Sturm & Christensen, EUSIPCO 2012), and by ridge
once a pick is numerically dependent on the earlier ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["VectorizedProblem", "OmpResult", "omp", "omp_dense", "cascaded_estimate"]


def _atom_norms(A: np.ndarray) -> np.ndarray:
    """Column norms with zeros replaced by 1, so a zero atom scores 0, not NaN."""
    norms = np.linalg.norm(A, axis=0)
    return np.where(norms > 0, norms, 1.0)


@dataclass
class VectorizedProblem:
    """Implicit Kronecker design for one BS dictionary / cascaded dictionary / E."""

    F_bs: np.ndarray                  # [N, N_G] unit columns
    F_bsH: np.ndarray                 # [N_G, N] = F_bs^H, C-contiguous
    Psi: np.ndarray                   # [tau, Gc] = E^H F_cas
    col_norms: np.ndarray             # [Gc] atom norms ||Psi[:, j]||, 1 where zero

    @classmethod
    def build(cls, F_bs: np.ndarray, F_cas: np.ndarray, E: np.ndarray):
        Psi = E.conj().T @ F_cas
        return cls(F_bs=F_bs, F_bsH=np.ascontiguousarray(F_bs.conj().T), Psi=Psi,
                   col_norms=_atom_norms(Psi))

    def column(self, i: int, j: int) -> np.ndarray:
        """Explicit atom for pair (i, j), column-major vec."""
        w = np.conj(self.Psi[:, j])
        return np.outer(self.F_bs[:, i], w).reshape(-1, order="F")

    def correlate(self, R: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """A^H vec(R) for the atoms of the BS rows `rows`, shaped [len(rows), Gc]."""
        return (self.F_bsH[rows] @ R) @ self.Psi


@dataclass
class OmpResult:
    support: list[tuple[int, int]]    # (bs grid, cascaded col) per pick
    coeffs: np.ndarray
    residual_norm: float
    ridge_fallback: bool


_RESID_RTOL = 1e-8        # pursuit stops once ||r|| <= _RESID_RTOL * ||y||
_RANK_RTOL = 1e-10        # remainder / norm at or below which a pick is dependent
_RIDGE = 1e-10            # Tikhonov weight of the rank-deficient refit
_ROW_CHUNK = 8            # BS rows correlated per product of the pruned scan
_BOUND_SLACK = 1e-9       # relative headroom of the row bound over rounding


def _pursuit(Y: np.ndarray, best, atoms, steps: int):
    """Greedy pursuit of every column of Y [m, n] in lockstep, shared by both OMPs.

    best(R, picked) gives, for the residuals R [m, c] of the running columns
    and their picks so far [c, t], the unpicked atom of largest |correlation|
    / atom norm in each column, ties to the lowest index; atoms(k) stacks the
    atoms k as columns. A column's picks factor as Q T, with orthonormal
    columns q_1 .. q_t and T upper triangular. A new atom is orthogonalized
    against Q by classical Gram-Schmidt, run twice so that rounding leaves q_t
    orthogonal to working precision; the residual loses its part along q_t,
    and T c = Q^H y gives the coefficients once the column stops. A remainder
    at most _RANK_RTOL of the atom's norm marks the picks rank deficient: the
    column then refits by ridge, at this and every later step. Runs at most
    `steps` steps, no more than there are atoms; a column stops early on a
    small residual. Returns per column (atoms, coeffs, ||r||, ridge used).
    """
    m, n = Y.shape
    ynorm = np.linalg.norm(Y, axis=0)
    R = np.array(Y.T, dtype=np.complex128)            # residuals as rows
    rnorm = ynorm.copy()
    picked = np.zeros((n, steps), dtype=np.intp)
    Q = np.zeros((n, steps, m), dtype=np.complex128)  # q_t as rows
    T = np.tile(np.eye(steps, dtype=np.complex128), (n, 1, 1))  # identity past the picks
    z = np.zeros((n, steps), dtype=np.complex128)     # Q^H y, zero past the picks
    count = np.zeros(n, dtype=np.intp)
    ridge = np.zeros(n, dtype=bool)
    ridge_coeffs = {}
    for t in range(steps):
        live = np.flatnonzero(rnorm > _RESID_RTOL * ynorm)
        if live.size == 0:
            break
        picked[live, t] = best(R[live].T, picked[live, :t])
        count[live] = t + 1
        qr = live[~ridge[live]]
        a = atoms(picked[qr, t]).T
        Qt = Q[qr, :t]
        QtH = Qt.conj().transpose(0, 2, 1)
        w, h = a, 0
        for _ in range(2):
            g = (w[:, None] @ QtH)[:, 0]
            w = w - (g[:, None] @ Qt)[:, 0]
            h = h + g
        wnorm = np.linalg.norm(w, axis=1)
        dep = wnorm <= _RANK_RTOL * np.linalg.norm(a, axis=1)
        if dep.any():
            ridge[qr[dep]] = True
            qr, w, h, wnorm = qr[~dep], w[~dep], h[~dep], wnorm[~dep]
        q = w / wnorm[:, None]
        zt = (q.conj()[:, None] @ R[qr][..., None])[:, 0, 0]
        Q[qr, t], T[qr, :t, t], T[qr, t, t], z[qr, t] = q, h, wnorm, zt
        R[qr] -= zt[:, None] * q
        for c in live[ridge[live]]:
            A = atoms(picked[c, :t + 1])
            gram = A.conj().T @ A + _RIDGE * np.eye(t + 1)
            ridge_coeffs[c] = np.linalg.solve(gram, A.conj().T @ Y[:, c])
            R[c] = Y[:, c] - A @ ridge_coeffs[c]
        rnorm[live] = np.linalg.norm(R[live], axis=1)
    # T is upper triangular with a nonzero diagonal, so LU keeps it as it is
    # and the solve is back substitution
    coeffs = np.linalg.solve(T, z[..., None])[..., 0]
    return [(picked[c, :count[c]].tolist(), ridge_coeffs.get(c, coeffs[c, :count[c]]),
             float(rnorm[c]), bool(ridge[c])) for c in range(n)]


def omp(Y: np.ndarray, problem: VectorizedProblem, sparsity: int) -> OmpResult:
    """Orthogonal matching pursuit on the implicit design, by bound-pruned scans."""
    n_g = problem.F_bs.shape[1]
    gc = problem.Psi.shape[1]
    chunks = math.ceil(n_g / _ROW_CHUNK)
    edges = [n_g * c // chunks for c in range(chunks + 1)]

    def best(r, picked):
        R = r[:, 0].reshape(Y.shape, order="F")
        bound = np.linalg.norm(problem.F_bsH @ R, axis=1)
        order = np.argsort(-bound, kind="stable")
        picked_i, picked_j = np.divmod(picked[0], gc)
        top, top_k = -np.inf, -1
        for lo, hi in zip(edges, edges[1:]):
            if bound[order[lo]] * (1.0 + _BOUND_SLACK) < top:
                break
            rows = np.sort(order[lo:hi])
            score = np.abs(problem.correlate(R, rows))
            np.divide(score, problem.col_norms, out=score)
            p, q = np.nonzero(rows[:, None] == picked_i)
            score[p, picked_j[q]] = -1.0
            p, j = divmod(int(np.argmax(score)), gc)
            k = int(rows[p]) * gc + j
            if score[p, j] > top or (score[p, j] == top and k < top_k):
                top, top_k = score[p, j], k
        return top_k

    def atoms(ks):
        return np.stack([problem.column(*divmod(k, gc)) for k in ks], axis=1)

    [(support, coeffs, rnorm, ridge_used)] = _pursuit(
        Y.reshape(-1, 1, order="F"), best, atoms, min(sparsity, n_g * gc))
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


def omp_dense(Y: np.ndarray, problem: VectorizedProblem, sparsity: int):
    """OMP of each column of Y [tau, n] over the atoms Psi of the problem, as
    `_pursuit` returns it."""
    PsiH = problem.Psi.conj().T

    def best(R, picked):
        score = np.abs(PsiH @ R)
        score /= problem.col_norms[:, None]
        score[picked.T, np.arange(R.shape[1])] = -1.0
        return np.argmax(score, axis=0)

    return _pursuit(Y, best, lambda k: problem.Psi[:, k], min(sparsity, PsiH.shape[0]))
