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

Both OMPs score atoms in two passes, by one body (`_best_atoms`): a complex64
screen, then an exact complex128 re-score of what the screen keeps. The screen
scales the rows it scores (a chunk's z_i, or the conjugated residual columns
of `omp_dense`) by a power of two to a largest norm below 1, narrows them and
multiplies them by Psi32, the unit-column atoms Psi / ||psi_j|| in complex64.
It keeps every atom whose screened score is within 2 delta of the screened
maximum, after masking the atoms already picked. The kept columns are then
scored in the full scan's orientation: columns of (F_bs^H[rows] R) Psi for
`omp`, rows of Psi^H R for `omp_dense`. The re-score takes whole aligned
groups of _COL_GROUP columns, the last group what remains, and two columns at
least, since a one-column product goes to gemv. OpenBLAS computes a product's
columns in blocks of its unroll, and the last ones in edge kernels that round
otherwise, so an arbitrary subset does not keep the full product's bits; whole
groups of 4 did, on one thread, for every subset probed with the SkylakeX,
Haswell, Sandybridge and Prescott kernels in `omp`'s orientation, and with all
but Haswell in `omp_dense`'s. With Haswell's kernel the full Psi^H R rounds
otherwise than any subset of it, as F_bs^H R already does against the pruned
scan's row chunks F_bs^H[rows] R, so there a pick can differ from the full
scan's only between atoms whose scores agree to rounding. Otherwise the
re-score holds the full scan's bits, and the pick rules above choose the full
scan's atom.

The bound delta, in the scaled units, where a row x has ||x|| < 1 and a unit
atom y has ||y|| = 1, so sum_k |x_k| |y_k| <= 1. Let u = 2^-24, the unit
roundoff of float32, and gamma_n = n u / (1 - n u) (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., section 3.1):
- narrowing x and y to complex64 moves each entry by at most u of its modulus;
- the real and the imaginary part of x . y are each a sum of 2 tau real
  products; in any order, with or without FMA, that sum rounds to within
  gamma_{2 tau} sum_k |x_k| |y_k|, so the complex product moves by at most
  sqrt(2) gamma_{2 tau};
- abs is hypot, within one ulp: 2u.
Compounded, a screened score is within sqrt(2) gamma_{2 tau + 4} of the score
in exact arithmetic. One more u covers the double rounding of the exact score,
of the atom norms and of the scaling, and what complex64 flushes to zero, so
delta = sqrt(2) gamma_{2 tau + 5}, 5.5e-6 at tau = 30. If a is the best atom
in double and b the best screened one, screen(b) <= exact(b) + delta <=
exact(a) + delta <= screen(a) + 2 delta: a and every atom tied with it are
kept. The threshold itself is rounded down to a float32.

The size rule. A screen costs a complex64 product of the same shape, half the
double one, plus fixed overhead, so it runs only when the double product it
replaces, rows x tau x Gc multiply-adds (rows: the 8 of a row chunk, or the
live columns of an `omp_dense` batch), is past _SCREEN_MIN, and it has two rows
at least, since a one-row product goes to gemv. Psi32 is built by the first
screen. Screen forced on against off, change in time per `omp` trial (10 dB,
9 picks) or per `omp_dense` call (tau 30, 3 picks), medians of 9 alternating
runs in each of two measurements, 2 vCPUs, one BLAS thread:

    omp, Gc 785        tau 30 / 60 / 80 / 90 / 120 (188k to 754k)
                       +21/+39, +10/+17, +3/+14, -1/+12, +1/+8 %
    omp, Gc 6,419      tau 4 / 8 / 10 / 12 / 20 / 30 (205k to 1.5M)
                       -17/-13, -23/-9, -12/-13, -26/0, -21/-12, -23/-16 %
    omp_dense, Gc 785  3 / 6 / 12 / 24 / 48 / 96 columns (71k to 2.3M)
                       +32/+34, +16/+24, -2/+13, -11/+1, -28/-9, -26/-10 %
    omp_dense, Gc 6,419  3 / 6 / 12 / 24 / 48 / 96 columns (578k to 18.5M)
                       -28/-9, -37/-27, -40/-34, -46/-40, -55/-50, -59/-55 %

Past the rule the screen won or tied everywhere but at Gc 785 with tau 90 and
120, which no profile uses (desk pilots run to tau 40); below it, it lost or
tied everywhere but paper-width `omp` at tau 4 to 10.

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
from functools import cached_property

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

    @cached_property
    def Psi32(self) -> np.ndarray:
        """[tau, Gc] unit atoms Psi / col_norms in complex64, built by the first screen."""
        return (self.Psi / self.col_norms).astype(np.complex64)

    def column(self, i: int, j: int) -> np.ndarray:
        """Explicit atom for pair (i, j), column-major vec."""
        w = np.conj(self.Psi[:, j])
        return np.outer(self.F_bs[:, i], w).reshape(-1, order="F")

    def correlate(self, R: np.ndarray, rows: np.ndarray, cols=slice(None)) -> np.ndarray:
        """A^H vec(R) for the atoms of the BS rows `rows` and cascaded columns
        `cols` (all by default), shaped [len(rows), len(cols)]."""
        return (self.F_bsH[rows] @ R) @ self.Psi[:, cols]


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
_SCREEN_MIN = 512_000     # rows x tau x Gc above which a scan screens in complex64
_COL_GROUP = 4            # aligned columns the exact re-score takes together


def _screen_delta(tau: int) -> float:
    """delta: how far a screened score can sit from the exact one, over the
    largest row norm (see the module docstring)."""
    g = (2 * tau + 5) * np.finfo(np.float32).eps / 2
    return math.sqrt(2.0) * g / (1.0 - g)


def _screens(problem: VectorizedProblem, rows: int) -> bool:
    """The size rule: whether a scan of `rows` rows screens in complex64."""
    return rows > 1 and rows * problem.Psi.size > _SCREEN_MIN   # one row: gemv


def _best_atoms(problem: VectorizedProblem, g: int, r: int, left, exact, picked):
    """The best unpicked atom of each of g groups of r rows, shared by both OMPs.

    left() gives the rows L [g, r, tau], and row i of group k scores atom j by
    |L[k, i] psi_j| / ||psi_j||; exact(cols) gives the products L[k, i] psi_j
    for the columns cols as [g, r, len(cols)], in the full scan's orientation,
    so that they are its bits. picked holds three index arrays (group, row,
    column) of the atoms that score -1. Past the size rule only the columns
    that the complex64 screen keeps are scored exactly. Returns per group the
    row, the column and the score of its best atom, ties to the lowest
    row-major (row, column) index.
    """
    pg, pr, pj = picked
    screen = _screens(problem, g * r)
    cols = slice(None)
    if screen:
        L = left()
        tau, n = problem.Psi.shape
        # each group to unit maximum row norm by a power of two, so nothing
        # overflows complex64 and all it flushes to zero lies far below delta
        e = -np.frexp(np.linalg.norm(L, axis=2).max(axis=1))[1][:, None, None]
        X = np.empty(L.shape, dtype=np.complex64)
        X.real, X.imag = np.ldexp(L.real, e), np.ldexp(L.imag, e)
        S = np.abs(X.reshape(g * r, tau) @ problem.Psi32).reshape(g, r, -1)
        S[picked] = -1.0
        floor = S.max(axis=(1, 2), keepdims=True).astype(np.float64) - 2.0 * _screen_delta(tau)
        floor = np.nextafter(floor.astype(np.float32), -np.inf)   # a float32 below it
        # whole aligned groups of the kept columns, the last group what remains,
        # and two columns at least: a one-column product goes to gemv
        first = np.flatnonzero((S >= floor).any(axis=(0, 1)))
        first -= first % _COL_GROUP
        first = first[np.concatenate(([True], first[1:] != first[:-1]))]   # one per group
        if first.tolist() == [n - 1] and n > _COL_GROUP:
            first = np.array([n - 1 - _COL_GROUP, n - 1])
        cols = (first[:, None] + np.arange(_COL_GROUP)).ravel()
        cols = cols[cols < n]
        # the picked atoms among the kept columns, by position
        pos = np.minimum(np.searchsorted(cols, pj), cols.size - 1)
        hit = cols[pos] == pj
        pg, pr, pj = pg[hit], pr[hit], pos[hit]
    score = np.abs(exact(cols))
    np.divide(score, problem.col_norms[cols], out=score)
    score[pg, pr, pj] = -1.0
    flat = score.reshape(g, -1).argmax(axis=1)
    i, b = np.divmod(flat, score.shape[2])
    return i, cols[b] if screen else b, score.reshape(g, -1)[np.arange(g), flat]


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
            p, q = np.nonzero(rows[:, None] == picked_i)
            if _screens(problem, rows.size):
                [p], [j], [score] = _best_atoms(
                    problem, 1, rows.size, lambda: (problem.F_bsH[rows] @ R)[None],
                    lambda cols: problem.correlate(R, rows, cols)[None],
                    (p * 0, p, picked_j[q]))
            else:   # every atom scored exactly, without the screen's group bookkeeping
                s = np.abs(problem.correlate(R, rows))
                np.divide(s, problem.col_norms, out=s)
                s[p, picked_j[q]] = -1.0
                p, j = divmod(int(np.argmax(s)), gc)
                score = s[p, j]
            k = int(rows[p]) * gc + int(j)
            if score > top or (score == top and k < top_k):
                top, top_k = score, k
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
    conj_psi = problem.Psi.conj()

    def best(R, picked):
        # conj_psi[:, cols].T is Psi^H[cols] in the layout of the full Psi^H
        c, t = picked.shape
        _, j, _ = _best_atoms(problem, c, 1, lambda: R.conj().T[:, None],
                              lambda cols: (conj_psi[:, cols].T @ R).T[:, None],
                              (np.repeat(np.arange(c), t), np.zeros(c * t, dtype=np.intp),
                               picked.ravel()))
        return j

    return _pursuit(Y, best, lambda k: problem.Psi[:, k], min(sparsity, conj_psi.shape[1]))
