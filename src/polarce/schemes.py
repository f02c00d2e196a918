"""End-to-end estimators of the cascaded channel from one pilot block.

Three schemes share the same inputs: joint greedy pursuit on the vectorized
problem ("omp"), the learned two-stage pipeline ("dncnn-istanet"), and the
hybrid that swaps stage 2 for per-path greedy pursuit ("dncnn-omp"). Stage-1
batches are denoised jointly across trials so evaluation stays paired and fast.
The unrolled solver of "dncnn-istanet" runs in the single precision it
trained in. OMP screens in single precision and picks in double: past a size
rule a complex64 pass rules out the atoms that cannot win, and the rest are
scored in double, so "omp" and "dncnn-omp" pick the atoms of a full
double-precision scan (see `omp`). Everything else runs in double precision.
Every scheme writes each trial's estimate into one preallocated [T, N, M]
output, so no list of per-trial estimates is stacked into a copy.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import PilotBlock, SystemConfig
from .denoiser import DenoiserParams, denoise, row_energy, select_support
from .omp import VectorizedProblem, cascaded_estimate, omp, omp_dense
from .optim import with_precision
from .polar import CascadedDictionary, PolarDictionary
from .unrolled import ListaParams, lista_forward, project_to_bs_subspace, reconstruct

__all__ = ["SUPPORT_GUARD", "PipelineContext", "estimate_omp", "estimate_dncnn_omp",
           "estimate_dncnn_istanet", "SCHEME_FUNCS", "SCHEME_STAGES"]


# rows on each side of a picked stage-1 row that the next pick skips: the BS
# grid oversamples angle 3x by default, so one path's main lobe covers its
# neighbour rows
SUPPORT_GUARD = 2


@dataclass
class PipelineContext:
    config: SystemConfig
    bs: PolarDictionary
    cas: CascadedDictionary
    E: np.ndarray
    stage1: DenoiserParams | None = None
    stage2: ListaParams | None = None
    support_guard: int = SUPPORT_GUARD

    @cached_property
    def problem(self) -> VectorizedProblem:
        """The design both greedy schemes share, with its E^H F_cas, built once."""
        return VectorizedProblem.build(self.bs.F, self.cas.F, self.E)


def estimate_omp(pilots: list[PilotBlock], ctx: PipelineContext) -> np.ndarray:
    """Joint pursuit over the implicit Kronecker design."""
    sparsity = ctx.config.paths_bs * ctx.config.paths_ris
    out = np.zeros((len(pilots), ctx.config.n_bs, ctx.config.n_ris), dtype=np.complex128)
    for i, blk in enumerate(pilots):
        res = omp(blk.Y, ctx.problem, sparsity)
        out[i] = cascaded_estimate(res, ctx.problem, ctx.cas.F, ctx.config.power)
    return out


def _stage1_project(pilots: list[PilotBlock], ctx: PipelineContext):
    """Shared front end: denoise row images in one batch, pick supports, project."""
    L = ctx.config.paths_bs
    C = np.stack([row_energy(blk.Y, ctx.bs) for blk in pilots])[..., None]
    if ctx.stage1 is not None:
        _, C_hat = denoise(C, ctx.stage1)
    else:
        C_hat = C
    supports, proj = [], []
    for i, blk in enumerate(pilots):
        sup = select_support(C_hat[i], L, ctx.bs, guard=ctx.support_guard)
        supports.append(sup)
        proj.append(project_to_bs_subspace(blk.Y, sup.A_hat, ctx.config.power))
    return supports, proj


def _two_stage(pilots: list[PilotBlock], ctx: PipelineContext, solve) -> np.ndarray:
    """Stage-1 front end, then solve(P) -> X on the projected paths of all trials."""
    supports, proj = _stage1_project(pilots, ctx)
    X_all = solve(np.concatenate(proj, axis=1))
    splits = np.cumsum([P.shape[1] for P in proj])[:-1]
    out = np.empty((len(pilots), ctx.config.n_bs, ctx.config.n_ris), dtype=np.complex128)
    for i, (sup, X) in enumerate(zip(supports, np.split(X_all, splits, axis=1))):
        out[i] = reconstruct(sup.A_hat, X)
    return out


def estimate_dncnn_omp(pilots: list[PilotBlock], ctx: PipelineContext) -> np.ndarray:
    """Learned support + per-path greedy pursuit on the cascaded dictionary."""
    def solve(P):
        """F x per path from the picked columns only: x has at most paths_ris nonzeros."""
        return np.stack([ctx.cas.F[:, sup] @ c for sup, c, _, _ in
                         omp_dense(P, ctx.problem, ctx.config.paths_ris)], axis=1)

    return _two_stage(pilots, ctx, solve)


def estimate_dncnn_istanet(pilots: list[PilotBlock], ctx: PipelineContext) -> np.ndarray:
    """Learned support + unrolled learned solver, batched across trials.

    The solver runs in complex64: the parameters, E and the projected paths
    are narrowed once per call, which is exact for a trained network (float32
    widened). `reconstruct` widens its output against the complex128 atoms.
    """
    if ctx.stage2 is None:
        raise ValueError("dncnn-istanet needs trained stage-2 parameters")
    lp = ListaParams(**with_precision(vars(ctx.stage2), np.float32))
    E = ctx.E.astype(np.complex64)
    return _two_stage(pilots, ctx, lambda P: lista_forward(P.astype(np.complex64), lp, E))


SCHEME_FUNCS = {
    "omp": estimate_omp,
    "dncnn-omp": estimate_dncnn_omp,
    "dncnn-istanet": estimate_dncnn_istanet,
}

# the trained networks each scheme reads, by stage: both learned schemes pick
# their support with the stage-1 network, and only "dncnn-istanet" runs stage 2
SCHEME_STAGES = {"omp": (), "dncnn-omp": (1,), "dncnn-istanet": (1, 2)}
