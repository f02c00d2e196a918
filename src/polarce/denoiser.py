"""Stage 1: residual denoising of the polar-domain row energy + support pick.

The pilot block is compressed to its row energy s_g = ||[F_bs^H Y]_{g,:}||,
which peaks at the BS-side grid rows of the active paths. A small residual
CNN (first conv+ReLU, middle conv+BN+ReLU, last conv) sees it as a one-column
real image and learns to output everything that is not signal: noise plus
off-grid leakage. Support = largest cleaned rows. Its kernels are k x 1,
[k, 1, Ci, Co]: on a one-column image a wider kernel would only add taps that
read the zero padding and never train.

This departs from the paper's coherent slot average c_r = F_bs^H Y 1/tau,
which weights path l by the random x_l^H e_bar and so fades some paths at
any SNR. Per-path nearest-row hit rate, guard 2, 300 scenes x 3 paths (the
DnCNN on c_r copied into L columns read .630 at 20 dB on desk):

    at 0/10/20/30 dB     desk                  paper
    peak-pick on c_r     .396 .616 .669 .673   .521 .688 .718 .726
    peak-pick on s       .779 .833 .842 .843   .831 .852 .864 .863
    DnCNN on s           .814 .891 .888 .902
    DnCNN on s^2         .796 .860 .866 .871
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .channel import SceneRealization, SystemConfig, ris_side_rows, simulate_pilots
from .optim import train, with_precision
from .polar import PolarDictionary, nearest_grid_index
from .rng import substream

__all__ = [
    "Stage1Config", "DenoiserParams", "Stage1Dataset", "SupportEstimate",
    "row_energy", "init_denoiser", "denoiser_forward", "denoise",
    "make_stage1_dataset", "train_stage1", "stage1_loss",
    "select_support", "STAGE1_FORM",
]

_CHANNELS = 1            # the row energy is real

# Names the input the network reads and its kernel layout; stage-1 checkpoints
# carry it, since the same parameter shapes on another input mean another network.
STAGE1_FORM = "row-energy-1col-kx1"


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
        if self.episodes < 0:
            raise ValueError(f"stage1 episodes must be at least 0, got {self.episodes}")
        if not self.lr > 0:
            raise ValueError(f"stage1 lr must be positive, got {self.lr}")
        if not self.bn_eps > 0:
            raise ValueError(f"stage1 bn_eps must be positive, got {self.bn_eps}")
        if not 0 <= self.bn_momentum <= 1:
            raise ValueError(f"stage1 bn_momentum must be in [0, 1], got {self.bn_momentum}")


@dataclass
class DenoiserParams:
    config: Stage1Config
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class Stage1Dataset:
    C: np.ndarray            # [n, N_G, 1] row energies
    X: np.ndarray            # [n, N_G, 1] clean grid-coded targets


@dataclass
class SupportEstimate:
    indices: np.ndarray      # sorted ascending, distinct
    A_hat: np.ndarray        # matching unit-norm BS dictionary columns [N, L]


def row_energy(Y: np.ndarray, bs: PolarDictionary) -> np.ndarray:
    """Norm of each polar-domain row of a pilot block over its slots, [N_G]."""
    return np.linalg.norm(bs.F.conj().T @ Y, axis=1)


def init_denoiser(cfg: Stage1Config, rng: np.random.Generator) -> DenoiserParams:
    """Fan-in scaled Gaussian init; the final layer starts at zero so an
    untrained denoiser is the identity."""
    k, w = cfg.kernel, cfg.width
    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}

    def conv_init(cin, cout):
        # the middle column of a k x k draw at the k x k fan-in scale: the same
        # draw and scale as the square kernels this layout replaced, whose
        # other columns only read padding, so every trained byte stays the same
        std = math.sqrt(2.0 / (k * k * cin))
        return rng.standard_normal((k, k, cin, cout))[:, k // 2:k // 2 + 1] * std

    params["conv0_w"] = conv_init(_CHANNELS, w)
    params["conv0_b"] = np.zeros(w)
    for i in range(1, cfg.layers - 1):
        params[f"conv{i}_w"] = conv_init(w, w)
        params[f"bn{i}_gamma"] = np.ones(w)
        params[f"bn{i}_beta"] = np.zeros(w)
        buffers[f"bn{i}_mean"] = np.zeros(w)
        buffers[f"bn{i}_var"] = np.ones(w)
    params[f"conv{cfg.layers - 1}_w"] = np.zeros((k, 1, w, _CHANNELS))
    return DenoiserParams(config=cfg, params=params, buffers=buffers)


def denoiser_forward(x: np.ndarray, dp: DenoiserParams, training: bool,
                     tape: ad.Tape | None = None):
    """Residual prediction for a [B, H, W, 1] input.

    Given a tape, the parameters become its trainable leaves and the output is
    a differentiable node; without one it is a plain array. In training mode
    each BN layer normalizes by its batch statistics and folds them into the
    running mean and variance in dp.buffers, at momentum cfg.bn_momentum;
    otherwise it normalizes by those running buffers.
    """
    cfg = dp.config
    w = dp.params
    if tape is not None:
        w = {k: tape.leaf(v, trainable=True, name=k) for k, v in w.items()}
    h = ad.relu(ad.add(ad.conv2d(x, w["conv0_w"]), w["conv0_b"]))
    mo, buf = cfg.bn_momentum, dp.buffers
    for i in range(1, cfg.layers - 1):
        z = ad.conv2d(h, w[f"conv{i}_w"])
        if training:
            z, mean, var = ad.batch_norm(z, w[f"bn{i}_gamma"], w[f"bn{i}_beta"],
                                         eps=cfg.bn_eps)
            buf[f"bn{i}_mean"] = (1 - mo) * buf[f"bn{i}_mean"] + mo * mean
            buf[f"bn{i}_var"] = (1 - mo) * buf[f"bn{i}_var"] + mo * var
        else:
            inv = 1.0 / np.sqrt(buf[f"bn{i}_var"] + cfg.bn_eps)
            g = dp.params[f"bn{i}_gamma"] * inv
            z = ad.add(ad.mul(z, g), dp.params[f"bn{i}_beta"] - buf[f"bn{i}_mean"] * g)
        h = ad.relu(z)
    return ad.conv2d(h, w[f"conv{cfg.layers - 1}_w"])


def _unit_scale(C: np.ndarray) -> np.ndarray:
    """Frobenius norm of each [N_G, 1] image of a batch, 1 where it is zero.

    The network sees every image at unit norm; its output is scaled back.
    """
    alpha = np.linalg.norm(C, axis=(1, 2), keepdims=True)
    return np.where(alpha > 0, alpha, 1.0)


def denoise(C: np.ndarray, dp: DenoiserParams):
    """Cleaned copy of a batch of [N_G, 1] row-energy images.

    Returns (residual, cleaned) with cleaned computed as input - residual.
    """
    alpha = _unit_scale(C)
    R = denoiser_forward((C / alpha)[..., None], dp, training=False)[..., 0] * alpha
    return R, C - R


def _residual_pairs(dataset: Stage1Dataset):
    """Network inputs and residual targets, both on the unit-norm scale."""
    alpha = _unit_scale(dataset.C)
    return (dataset.C / alpha)[..., None], ((dataset.C - dataset.X) / alpha)[..., None]


def _residual_loss(out, target: np.ndarray):
    """Half the summed squared residual error per sample."""
    return ad.mul(ad.sum_abs2(ad.sub(out, target)), 1.0 / (2.0 * target.shape[0]))


def make_stage1_dataset(config: SystemConfig, bs: PolarDictionary, E: np.ndarray,
                        scenes: list[SceneRealization], noise_vars: list[float],
                        rng: np.random.Generator) -> Stage1Dataset:
    """Draw pilot observations and grid-coded clean targets for given scenes.

    The target is the row energy of the noiseless block with each path moved
    onto its nearest grid row: sqrt(p) ||E^H x_l|| there. Paths that share a
    row add their slot responses sqrt(p) x_l^H E before the norm, as they
    would in the block itself.
    """
    n_rows = bs.F.shape[1]
    C = np.zeros((len(scenes), n_rows, 1))
    X = np.zeros_like(C)
    for i, scene in enumerate(scenes):
        blk = simulate_pilots(scene, config, E, noise_vars[i], rng)
        C[i, :, 0] = row_energy(blk.Y, bs)
        slots = np.zeros((n_rows, E.shape[1]), dtype=np.complex128)
        resp = math.sqrt(config.power) * (ris_side_rows(scene, config).conj().T @ E)
        for p, r in zip(scene.bridge_bs, resp):
            slots[nearest_grid_index(bs.grid, p.angle, p.distance)] += r
        X[i, :, 0] = np.linalg.norm(slots, axis=1)
    return Stage1Dataset(C=C, X=X)


def train_stage1(dataset: Stage1Dataset, cfg: Stage1Config, seed: int,
                 val: Stage1Dataset | None = None):
    """Adam on the residual loss; returns (DenoiserParams, per-episode trace).

    `optim.train` with float32 batches and BN buffers; the buffers come back
    widened to float64 too, and each episode's `val_loss` is taken on the
    widened network.
    """
    dp = init_denoiser(cfg, substream(seed, "stage1-init"))
    dp.buffers = with_precision(dp.buffers, np.float32)
    xin, target = (a.astype(np.float32) for a in _residual_pairs(dataset))

    def batch_loss(params, sel, tape):
        dp.params = params
        return _residual_loss(denoiser_forward(xin[sel], dp, training=True, tape=tape),
                              target[sel])

    def widened(params):
        return DenoiserParams(cfg, with_precision(params, np.float64),
                              with_precision(dp.buffers, np.float64))

    params, trace = train(dp.params, batch_loss, xin.shape[0], cfg, seed, 1, report=lambda p: (
        {} if val is None else {"val_loss": stage1_loss(val, widened(p))}))
    return widened(params), trace


def stage1_loss(dataset: Stage1Dataset, dp: DenoiserParams) -> float:
    """The training loss over the whole dataset, in inference mode."""
    xin, target = _residual_pairs(dataset)
    out = denoiser_forward(xin, dp, training=False)
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
                   guard: int) -> SupportEstimate:
    """Top rows of a cleaned [N_G, W] image by aggregate magnitude; a pick
    bars the `guard` rows on each side of it from later picks."""
    idx = _greedy_rows(np.abs(C_hat).sum(axis=1), count, guard)
    return SupportEstimate(indices=idx, A_hat=bs.F[:, idx])
