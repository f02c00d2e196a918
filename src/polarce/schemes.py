"""End-to-end estimators of the cascaded channel from one pilot block.

Three schemes share the same inputs: joint greedy pursuit on the vectorized
problem ("omp"), the learned two-stage pipeline ("dncnn-istanet"), and the
hybrid that swaps stage 2 for per-path greedy pursuit ("dncnn-omp"). Stage-1
batches are denoised jointly across trials so evaluation stays paired and fast.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PilotBlock, SystemConfig
from .denoiser import DenoiserParams, denoise, row_energy, select_support
from .omp import DenseProblem, VectorizedProblem, cascaded_estimate, omp, omp_dense
from .polar import CascadedDictionary, PolarDictionary
from .unrolled import ListaParams, lista_forward, project_to_bs_subspace, reconstruct

__all__ = ["SUPPORT_GUARD", "PipelineContext", "estimate_omp", "estimate_dncnn_omp",
           "estimate_dncnn_istanet", "SCHEME_FUNCS"]


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


def estimate_omp(pilots: list[PilotBlock], ctx: PipelineContext) -> np.ndarray:
    """Joint pursuit over the implicit Kronecker design."""
    prob = VectorizedProblem.build(ctx.bs.F, ctx.cas.F, ctx.E)
    sparsity = ctx.config.paths_bs * ctx.config.paths_ris
    out = np.zeros((len(pilots), ctx.config.n_bs, ctx.config.n_ris), dtype=np.complex128)
    for i, blk in enumerate(pilots):
        res = omp(blk.Y, prob, sparsity)
        out[i] = cascaded_estimate(res, prob, ctx.cas.F, ctx.config.power)
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
    return np.stack([reconstruct(sup.A_hat, X) for sup, X in
                     zip(supports, np.split(X_all, splits, axis=1))])


def estimate_dncnn_omp(pilots: list[PilotBlock], ctx: PipelineContext) -> np.ndarray:
    """Learned support + per-path greedy pursuit on the cascaded dictionary."""
    prob = DenseProblem.build(ctx.E.conj().T @ ctx.cas.F)

    def synthesize(p):
        """F x from the picked columns only; x has at most paths_ris nonzeros."""
        x, sup = omp_dense(p, prob, ctx.config.paths_ris)
        return ctx.cas.F[:, sup] @ x[sup]

    return _two_stage(pilots, ctx, lambda P: np.stack([synthesize(p) for p in P.T], axis=1))


def estimate_dncnn_istanet(pilots: list[PilotBlock], ctx: PipelineContext) -> np.ndarray:
    """Learned support + unrolled learned solver, batched across trials."""
    if ctx.stage2 is None:
        raise ValueError("dncnn-istanet needs trained stage-2 parameters")
    return _two_stage(pilots, ctx, lambda P: lista_forward(P, ctx.stage2, ctx.E))


SCHEME_FUNCS = {
    "omp": estimate_omp,
    "dncnn-omp": estimate_dncnn_omp,
    "dncnn-istanet": estimate_dncnn_istanet,
}
