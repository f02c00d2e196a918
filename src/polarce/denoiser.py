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
from .optim import adam_init, adam_step, with_precision
from .polar import PolarDictionary, nearest_grid_index
from .rng import substream

__all__ = [
    "Stage1Config", "DenoiserParams", "Stage1Dataset", "SupportEstimate",
    "row_energy", "init_denoiser", "denoiser_forward", "denoise",
    "make_stage1_dataset", "train_stage1", "stage1_loss",
    "select_support",
]

_CHANNELS = 2            # real and imaginary parts of the row image


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

    def __post_init__(self):
        if self.layers < 2:
            raise ValueError("stage1 needs at least 2 layers (first and last conv)")
        if self.kernel < 1 or self.kernel % 2 != 1:
            raise ValueError(f"stage1 kernel must be odd and positive, got {self.kernel}")
        if self.width < 1 or self.batch < 1 or self.train_size < 1:
            raise ValueError("stage1 width, batch and train_size must be at least 1")
        if self.val_size < 0:
            raise ValueError(f"stage1 val_size must be at least 0, got {self.val_size}")


@dataclass
class DenoiserParams:
    config: Stage1Config
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class Stage1Dataset:
    C: np.ndarray            # [n, N_G, L] identical-column inputs
    X: np.ndarray            # [n, N_G, L] clean grid-coded targets


@dataclass
class SupportEstimate:
    indices: np.ndarray      # sorted ascending, distinct
    A_hat: np.ndarray        # matching unit-norm BS dictionary columns [N, L]


def row_energy(Y: np.ndarray, bs: PolarDictionary) -> np.ndarray:
    """Average polar-domain row response of a pilot block."""
    return bs.F.conj().T @ Y.mean(axis=1)


def init_denoiser(cfg: Stage1Config, rng: np.random.Generator) -> DenoiserParams:
    """Fan-in scaled Gaussian init; the final layer starts at zero so an
    untrained denoiser is the identity."""
    k, w = cfg.kernel, cfg.width
    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}

    def conv_init(cin, cout):
        std = math.sqrt(2.0 / (k * k * cin))
        return rng.standard_normal((k, k, cin, cout)) * std

    params["conv0_w"] = conv_init(_CHANNELS, w)
    params["conv0_b"] = np.zeros(w)
    for i in range(1, cfg.layers - 1):
        params[f"conv{i}_w"] = conv_init(w, w)
        params[f"bn{i}_gamma"] = np.ones(w)
        params[f"bn{i}_beta"] = np.zeros(w)
        buffers[f"bn{i}_mean"] = np.zeros(w)
        buffers[f"bn{i}_var"] = np.ones(w)
    params[f"conv{cfg.layers - 1}_w"] = np.zeros((k, k, w, _CHANNELS))
    return DenoiserParams(config=cfg, params=params, buffers=buffers)


def denoiser_forward(x: np.ndarray, dp: DenoiserParams, training: bool,
                     tape: ad.Tape | None = None):
    """Residual prediction for a [B, H, W, 2] input.

    Given a tape, the parameters become its trainable leaves and the output is
    a differentiable node; without one it is a plain array. Returns (output,
    {bn layer: (batch mean, batch var)}) — the stats the train loop folds into
    the running buffers.
    """
    cfg = dp.config
    w = dp.params
    if tape is not None:
        w = {k: tape.leaf(v, trainable=True, name=k) for k, v in w.items()}
    h = ad.relu(ad.add(ad.conv2d(x, w["conv0_w"]), w["conv0_b"]))
    stats = {}
    for i in range(1, cfg.layers - 1):
        z = ad.conv2d(h, w[f"conv{i}_w"])
        if training:
            z, mean, var = ad.batch_norm(z, w[f"bn{i}_gamma"], w[f"bn{i}_beta"],
                                         eps=cfg.bn_eps)
            stats[i] = (mean, var)
        else:
            inv = 1.0 / np.sqrt(dp.buffers[f"bn{i}_var"] + cfg.bn_eps)
            g = dp.params[f"bn{i}_gamma"] * inv
            z = ad.add(ad.mul(z, g), dp.params[f"bn{i}_beta"] - dp.buffers[f"bn{i}_mean"] * g)
        h = ad.relu(z)
    out = ad.conv2d(h, w[f"conv{cfg.layers - 1}_w"])
    return out, stats


def _to_channels(C: np.ndarray) -> np.ndarray:
    return np.stack([C.real, C.imag], axis=-1)


def _unit_scale(C: np.ndarray) -> np.ndarray:
    """Frobenius norm of each [N_G, L] image of a batch, 1 where it is zero.

    The network sees every image at unit norm; its output is scaled back.
    """
    alpha = np.linalg.norm(C, axis=(1, 2), keepdims=True)
    return np.where(alpha > 0, alpha, 1.0)


def denoise(C: np.ndarray, dp: DenoiserParams):
    """Cleaned copy of a batch of [N_G, L] inputs.

    Returns (residual, cleaned) with cleaned computed as input - residual.
    """
    alpha = _unit_scale(C)
    out, _ = denoiser_forward(_to_channels(C / alpha), dp, training=False)
    R = (out[..., 0] + 1j * out[..., 1]) * alpha
    return R, C - R


def _residual_pairs(dataset: Stage1Dataset):
    """Network inputs and residual targets, both on the unit-norm scale."""
    alpha = _unit_scale(dataset.C)
    return (_to_channels(dataset.C / alpha),
            _to_channels((dataset.C - dataset.X) / alpha))


def _residual_loss(out, target: np.ndarray):
    """Half the summed squared residual error per sample."""
    return ad.mul(ad.sum_abs2(ad.sub(out, target)), 1.0 / (2.0 * target.shape[0]))


def make_stage1_dataset(config: SystemConfig, bs: PolarDictionary, E: np.ndarray,
                        scenes: list[SceneRealization], noise_vars: list[float],
                        rng: np.random.Generator) -> Stage1Dataset:
    """Draw pilot observations and grid-coded clean targets for given scenes.

    Target column l carries the complex amplitude the l-th path contributes to
    the clean row-compressed vector, at that path's nearest grid row. Columns
    follow ascending grid index.
    """
    n = len(scenes)
    n_rows = bs.F.shape[1]
    L = config.paths_bs
    C = np.zeros((n, n_rows, L), dtype=np.complex128)
    X = np.zeros((n, n_rows, L), dtype=np.complex128)
    e_bar = E @ np.ones(E.shape[1]) / E.shape[1]
    for i, scene in enumerate(scenes):
        blk = simulate_pilots(scene, config, E, noise_vars[i], rng)
        cr = row_energy(blk.Y, bs)
        rows = ris_side_rows(scene, config)
        gi = np.array([nearest_grid_index(bs.grid, p.angle, p.distance)
                       for p in scene.bridge_bs])
        amp = math.sqrt(config.power) * (rows.conj().T @ e_bar)
        order = np.argsort(gi, kind="stable")
        for l, src in enumerate(order):
            X[i, gi[src], l] = amp[src]
        C[i] = cr[:, None]
    return Stage1Dataset(C=C, X=X)


def _at_precision(dp: DenoiserParams, real) -> DenoiserParams:
    return DenoiserParams(dp.config, with_precision(dp.params, real),
                          with_precision(dp.buffers, real))


def train_stage1(dataset: Stage1Dataset, cfg: Stage1Config, seed: int,
                 val: Stage1Dataset | None = None):
    """Adam on the residual loss; returns (DenoiserParams, per-episode trace).

    Trains in single precision: parameters, BN buffers, Adam moments and
    batches are float32. Returns the parameters and buffers widened, exactly,
    to float64; the validation loss is taken on that float64 network.
    """
    rng = substream(seed, "stage1-init")
    dp = _at_precision(init_denoiser(cfg, rng), np.float32)
    state = adam_init(dp.params, lr=cfg.lr)
    xin, target = (a.astype(np.float32) for a in _residual_pairs(dataset))
    n = xin.shape[0]
    order_rng = substream(seed, "stage1-order")
    trace = []
    for ep in range(cfg.episodes):
        order = order_rng.permutation(n)
        losses = []
        for lo in range(0, n, cfg.batch):
            sel = order[lo:lo + cfg.batch]
            tape = ad.Tape()
            out, stats = denoiser_forward(xin[sel], dp, training=True, tape=tape)
            loss = _residual_loss(out, target[sel])
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
            rec["val_loss"] = stage1_loss(val, _at_precision(dp, np.float64))
        trace.append(rec)
    return _at_precision(dp, np.float64), trace


def stage1_loss(dataset: Stage1Dataset, dp: DenoiserParams) -> float:
    """The training loss over the whole dataset, in inference mode."""
    xin, target = _residual_pairs(dataset)
    out, _ = denoiser_forward(xin, dp, training=False)
    return float(_residual_loss(out, target))


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
    idx = _greedy_rows(np.abs(C_hat).sum(axis=1), count, guard)
    return SupportEstimate(indices=idx, A_hat=bs.F[:, idx])
