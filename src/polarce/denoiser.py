"""Stage 1: residual denoising of the row-compressed observation + support pick.

The pilot block is compressed to c_r = (1/tau) sum_i [F_bs^H Y]_{:, i}, whose
entries concentrate on the BS-side grid rows of the active paths. A small
residual CNN (first conv+ReLU, middle conv+BN+ReLU, last conv) sees the
replicated column image as two real channels and learns to output everything
that is not signal: noise plus off-grid leakage. Support = largest cleaned
rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .channel import SceneRealization, SystemConfig, ris_side_rows, simulate_pilots
from .optim import adam_init, adam_step
from .polar import PolarDictionary, nearest_grid_index
from .rng import substream

__all__ = [
    "Stage1Config", "DenoiserParams", "Stage1Dataset", "SupportEstimate",
    "row_energy", "init_denoiser", "denoiser_forward", "denoise",
    "make_stage1_dataset", "train_stage1", "stage1_loss",
    "select_support", "peak_pick_baseline",
]


@dataclass(frozen=True)
class Stage1Config:
    layers: int = 6
    width: int = 16
    kernel: int = 3
    lr: float = 5e-5
    batch: int = 32
    episodes: int = 30
    train_size: int = 5000
    val_size: int = 500
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1


@dataclass
class DenoiserParams:
    config: Stage1Config
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class Stage1Dataset:
    C: np.ndarray            # [n, N_G, L] identical-column inputs
    X: np.ndarray            # [n, N_G, L] clean grid-coded targets
    bs_idx: np.ndarray       # [n, L] true nearest-grid rows (sorted per sample)


@dataclass
class SupportEstimate:
    indices: np.ndarray      # sorted ascending, distinct
    A_hat: np.ndarray        # matching unit-norm BS dictionary columns [N, L]
    scores: np.ndarray       # aggregate row magnitudes used for the pick


def row_energy(Y: np.ndarray, bs: PolarDictionary) -> np.ndarray:
    """Average polar-domain row response of a pilot block."""
    return bs.F.conj().T @ Y.mean(axis=1)


def init_denoiser(cfg: Stage1Config, rng: np.random.Generator,
                  in_channels: int = 2) -> DenoiserParams:
    """Fan-in scaled Gaussian init; the final layer starts at zero so an
    untrained denoiser is the identity."""
    if cfg.layers < 2:
        raise ValueError("need at least first and last conv layers")
    k, w = cfg.kernel, cfg.width
    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}

    def conv_init(cin, cout):
        std = math.sqrt(2.0 / (k * k * cin))
        return rng.standard_normal((k, k, cin, cout)) * std

    params["conv0_w"] = conv_init(in_channels, w)
    params["conv0_b"] = np.zeros(w)
    for i in range(1, cfg.layers - 1):
        params[f"conv{i}_w"] = conv_init(w, w)
        params[f"bn{i}_gamma"] = np.ones(w)
        params[f"bn{i}_beta"] = np.zeros(w)
        buffers[f"bn{i}_mean"] = np.zeros(w)
        buffers[f"bn{i}_var"] = np.ones(w)
    params[f"conv{cfg.layers - 1}_w"] = np.zeros((k, k, w, in_channels))
    return DenoiserParams(config=cfg, params=params, buffers=buffers)


def denoiser_forward(tape: ad.Tape, x: ad.Node, dp: DenoiserParams,
                     nodes: dict[str, ad.Node], training: bool):
    """Residual prediction for a [B, H, W, 2] input node.

    Returns (output node, {bn layer: (batch mean, batch var)}) — the stats the
    train loop folds into the running buffers.
    """
    cfg = dp.config
    h = ad.relu(ad.add(ad.conv2d(x, nodes["conv0_w"]), nodes["conv0_b"]))
    stats = {}
    for i in range(1, cfg.layers - 1):
        z = ad.conv2d(h, nodes[f"conv{i}_w"])
        if training:
            zv = z.value
            axes = tuple(range(zv.ndim - 1))
            stats[i] = (zv.mean(axis=axes), zv.var(axis=axes))
            z = ad.batch_norm(z, nodes[f"bn{i}_gamma"], nodes[f"bn{i}_beta"], eps=cfg.bn_eps)
        else:
            inv = 1.0 / np.sqrt(dp.buffers[f"bn{i}_var"] + cfg.bn_eps)
            g = dp.params[f"bn{i}_gamma"] * inv
            z = ad.add(ad.mul(z, g), dp.params[f"bn{i}_beta"] - dp.buffers[f"bn{i}_mean"] * g)
        h = ad.relu(z)
    out = ad.conv2d(h, nodes[f"conv{cfg.layers - 1}_w"])
    return out, stats


def _to_channels(C: np.ndarray) -> np.ndarray:
    return np.stack([C.real, C.imag], axis=-1)


def denoise(C: np.ndarray, dp: DenoiserParams):
    """Cleaned copy of one or a batch of [N_G, L] inputs.

    Returns (residual, cleaned) with cleaned computed as input - residual.
    Inputs are normalized to unit Frobenius norm before the network and the
    prediction is scaled back.
    """
    single = C.ndim == 2
    Cb = C[None] if single else C
    alpha = np.linalg.norm(Cb, axis=(1, 2), keepdims=True)
    alpha = np.where(alpha > 0, alpha, 1.0)
    tape = ad.Tape()
    x = tape.leaf(_to_channels(Cb / alpha))
    nodes = {k: tape.leaf(v) for k, v in dp.params.items()}
    out, _ = denoiser_forward(tape, x, dp, nodes, training=False)
    r4 = out.value
    R = (r4[..., 0] + 1j * r4[..., 1]) * alpha
    C_hat = Cb - R
    if single:
        return R[0], C_hat[0]
    return R, C_hat


def make_stage1_dataset(config: SystemConfig, bs: PolarDictionary, E: np.ndarray,
                        scenes: list[SceneRealization], noise_vars: list[float],
                        rng: np.random.Generator) -> Stage1Dataset:
    """Draw user-0 pilot observations and grid-coded clean targets for given scenes.

    Target column l carries the complex amplitude the l-th path contributes to
    the clean row-compressed vector, at that path's nearest grid row. Columns
    follow ascending grid index.
    """
    n = len(scenes)
    n_rows = bs.F.shape[1]
    L = config.paths_bs
    C = np.zeros((n, n_rows, L), dtype=np.complex128)
    X = np.zeros((n, n_rows, L), dtype=np.complex128)
    idx = np.zeros((n, L), dtype=np.int64)
    e_bar = E @ np.ones(E.shape[1]) / E.shape[1]
    for i, scene in enumerate(scenes):
        blk = simulate_pilots(scene, config, E, noise_vars[i], rng)
        cr = row_energy(blk.Y, bs)
        rows = ris_side_rows(scene, config, user=0)
        gi = np.array([nearest_grid_index(bs.grid, p.angle, p.distance)
                       for p in scene.bridge_bs])
        amp = math.sqrt(config.power) * (rows.conj().T @ e_bar)
        order = np.argsort(gi, kind="stable")
        for l, src in enumerate(order):
            X[i, gi[src], l] = amp[src]
        idx[i] = gi[order]
        C[i] = cr[:, None]
    return Stage1Dataset(C=C, X=X, bs_idx=idx)


def train_stage1(dataset: Stage1Dataset, cfg: Stage1Config, seed: int,
                 val: Stage1Dataset | None = None):
    """Adam on the residual loss; returns (DenoiserParams, per-episode trace)."""
    rng = substream(seed, "stage1-init")
    dp = init_denoiser(cfg, rng)
    state = adam_init(dp.params, lr=cfg.lr)

    alpha = np.linalg.norm(dataset.C, axis=(1, 2), keepdims=True)
    alpha = np.where(alpha > 0, alpha, 1.0)
    xin = _to_channels(dataset.C / alpha)
    target = _to_channels((dataset.C - dataset.X) / alpha)

    n = xin.shape[0]
    order_rng = substream(seed, "stage1-order")
    trace = []
    for ep in range(cfg.episodes):
        order = order_rng.permutation(n)
        losses = []
        for lo in range(0, n, cfg.batch):
            sel = order[lo:lo + cfg.batch]
            tape = ad.Tape()
            x = tape.leaf(xin[sel])
            nodes = {k: tape.leaf(v, trainable=True, name=k) for k, v in dp.params.items()}
            out, stats = denoiser_forward(tape, x, dp, nodes, training=True)
            diff = ad.sub(out, tape.constant(target[sel]))
            loss = ad.scale(ad.sum_abs2(diff), 1.0 / (2.0 * len(sel)))
            lval = float(loss.value)
            if not np.isfinite(lval):
                raise RuntimeError(f"stage-1 training diverged at episode {ep}: loss={lval}")
            grads = tape.backward(loss)
            dp.params = adam_step(dp.params, grads, state)
            mo = cfg.bn_momentum
            for i, (bm, bv) in stats.items():
                dp.buffers[f"bn{i}_mean"] = (1 - mo) * dp.buffers[f"bn{i}_mean"] + mo * bm
                dp.buffers[f"bn{i}_var"] = (1 - mo) * dp.buffers[f"bn{i}_var"] + mo * bv
            losses.append(lval)
        rec = {"episode": ep, "loss": float(np.mean(losses))}
        if val is not None:
            rec["val_loss"] = stage1_loss(val, dp)
        trace.append(rec)
    return dp, trace


def stage1_loss(dataset: Stage1Dataset, dp: DenoiserParams) -> float:
    """Mean residual loss in inference mode, on the normalized scale."""
    R, _ = denoise(dataset.C, dp)
    alpha = np.linalg.norm(dataset.C, axis=(1, 2), keepdims=True)
    alpha = np.where(alpha > 0, alpha, 1.0)
    err = (R - (dataset.C - dataset.X)) / alpha
    return float(np.sum(np.abs(err) ** 2) / (2.0 * dataset.C.shape[0]))


def _greedy_rows(scores: np.ndarray, count: int, guard: int) -> np.ndarray:
    s = scores.astype(np.float64).copy()
    picked = []
    for _ in range(count):
        if not np.any(s > -np.inf):
            break
        g = int(np.argmax(s))             # ties resolve to the lower index
        picked.append(g)
        lo, hi = max(0, g - guard), min(s.size, g + guard + 1)
        s[lo:hi] = -np.inf
    return np.sort(np.array(picked, dtype=np.int64))


def select_support(C_hat: np.ndarray, count: int, bs: PolarDictionary,
                   guard: int = 0) -> SupportEstimate:
    """Top rows of a cleaned [N_G, L] image by aggregate magnitude."""
    scores = np.abs(C_hat).sum(axis=1)
    idx = _greedy_rows(scores, count, guard)
    return SupportEstimate(indices=idx, A_hat=bs.F[:, idx], scores=scores)


def peak_pick_baseline(c_r: np.ndarray, count: int, bs: PolarDictionary,
                       guard: int = 1) -> SupportEstimate:
    """Greedy largest-|c_r| pick with a guard band, no denoising."""
    scores = np.abs(c_r)
    idx = _greedy_rows(scores, count, guard)
    return SupportEstimate(indices=idx, A_hat=bs.F[:, idx], scores=scores)
