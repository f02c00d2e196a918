"""Stage 2: per-path recovery of the RIS-side composite channel.

After stage 1 supplies the BS-side atoms, each projected observation obeys

    p_l = E^H x_l + noise,    x_l = F b_l with b_l sparse,

where F is the cascaded dictionary. The unrolled solver iterates on the
coefficients b, in the weight-coupled LISTA-CP form (Chen et al., 2018):

    Psi = E^H F,  W^H = F^H V                  (once per batch)
    b <- soft(b + W^H (kappa_t (p - Psi b)), lambda_t)   (layer t, b_0 = 0)
    x = F b                                    (once, after the last layer)

with per-layer thresholds/steps and shared V, F trained end to end. Every
per-layer product has tau rows, not M. F is initialized from the dictionary
and V from E, so W = Psi and layer t of an untrained net is iteration t of
ISTA on Psi for any dictionary, overcomplete or not; the tests check this
against plain proximal gradient at every depth up to 8. A safe step
therefore keeps the untrained net convergent: at 20 dB its mean relative
error ||x_hat - x||^2 / ||x||^2 at 1, 2, 4, 6 and 8 layers is 0.81, 0.72,
0.63, 0.58 and 0.54 on 180 desk training paths, and 0.89, 0.85, 0.81, 0.78
and 0.77 on 90 paper ones.

Training runs in single precision (complex64 V, F, E and batches, float32
thresholds and steps, Adam moments to match) and returns complex128/float64
parameters. `lista_forward` computes in the dtype of its inputs: the
"dncnn-istanet" scheme narrows the parameters back, exactly, and infers in
single precision too, while `stage2_loss` scores in double precision.

An untaped forward (inference, `stage2_loss`) runs the layers and F b on
_BLOCK columns at a time, so it holds [Gc, _BLOCK] arrays, not [Gc, B] ones of
31 MB each at paper size (Gc = 6,419) for a sweep point's 600 paths. On one
BLAS thread, column blocks of a product round as the whole product does, and a
one-column tail joins the block before it, so the output has one pass's bytes.
A taped forward (training) stays one pass, which keeps the trained bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .channel import SceneRealization, SystemConfig, ris_side_rows
from .optim import train, with_precision
from .rng import complex_normal

__all__ = [
    "Stage2Config", "ListaParams", "Stage2Dataset",
    "project_to_bs_subspace", "lista_init", "lista_forward",
    "make_stage2_dataset", "train_stage2", "stage2_loss", "reconstruct", "FORWARD_FORM",
]

# Names the computation lista_forward runs on ListaParams; stage-2 checkpoints
# carry it because parameters of the same shapes mean another network under
# another form.
FORWARD_FORM = "coefficient-ista"

# columns per block of an untaped forward: the training batch
_BLOCK = 32


@dataclass(frozen=True)
class Stage2Config:
    layers: int = 6
    lr: float = 1e-4
    batch: int = 32
    episodes: int = 30
    train_size: int = 5000            # training scenes (L_BR paths each)
    lam_scale: float = 0.1            # init threshold vs layer-1 coefficient peak
    probe: int = 64                   # samples used to calibrate the init threshold

    def __post_init__(self):
        if self.layers < 1 or self.batch < 1 or self.train_size < 1:
            raise ValueError("stage2 layers, batch and train_size must be at least 1")
        if self.episodes < 0:
            raise ValueError(f"stage2 episodes must be at least 0, got {self.episodes}")
        if self.probe < 0:
            raise ValueError(f"stage2 probe must be at least 0, got {self.probe}")
        if not self.lam_scale >= 0:
            raise ValueError(f"stage2 lam_scale must be at least 0, got {self.lam_scale}")
        if not self.lr > 0:
            raise ValueError(f"stage2 lr must be positive, got {self.lr}")


@dataclass
class ListaParams:
    lam: np.ndarray                   # [layers] thresholds, kept >= 0
    kappa: np.ndarray                 # [layers] step sizes
    V: np.ndarray                     # [M, tau]
    F: np.ndarray                     # [M, Gc]


@dataclass
class Stage2Dataset:
    P: np.ndarray                     # [tau, n] projected observations
    Xl: np.ndarray                    # [M, n] true per-path composite vectors


def project_to_bs_subspace(Y: np.ndarray, A_hat: np.ndarray, power: float) -> np.ndarray:
    """Per-path observations: conjugated rows of A_hat^H Y / sqrt(p), as columns."""
    P = A_hat.conj().T @ Y / math.sqrt(power)
    return P.conj().T                 # [tau, L]


def spectral_norm_sq(Psi: np.ndarray) -> float:
    """||Psi||_2^2 via the small-side gram."""
    if Psi.shape[0] <= Psi.shape[1]:
        gram = Psi @ Psi.conj().T
    else:
        gram = Psi.conj().T @ Psi
    return float(np.linalg.eigvalsh(gram)[-1].real)


def lista_init(E: np.ndarray, F_cas: np.ndarray, cfg: Stage2Config,
               probe_P: np.ndarray) -> ListaParams:
    """Classic-ISTA initialization: V = E, F = dictionary, safe step,
    thresholds calibrated on the layer-1 coefficient scale of the [tau, n]
    probe observations (zero thresholds for an empty probe).

    V is a copy of E; F is F_cas itself when it is already complex128, not a
    copy, so an untrained net shares the dictionary (which `polar` builds
    read-only). Training narrows both to complex64 copies."""
    Psi = E.conj().T @ F_cas
    kappa0 = 1.0 / spectral_norm_sq(Psi)
    if probe_P.size:
        peaks = np.max(np.abs(Psi.conj().T @ probe_P), axis=0)
        lam0 = cfg.lam_scale * kappa0 * float(np.mean(peaks))
    else:
        lam0 = 0.0
    return ListaParams(
        lam=np.full(cfg.layers, lam0),
        kappa=np.full(cfg.layers, kappa0),
        V=E.astype(np.complex128),
        F=F_cas.astype(np.complex128, copy=False),
    )


def lista_forward(P: np.ndarray, lp: ListaParams, E: np.ndarray,
                  tape: ad.Tape | None = None):
    """Run the unrolled layers on a [tau, B] batch; returns x = F b, [M, B].

    Given a tape, the fields of lp become its trainable leaves, named as the
    fields, and the returned node is differentiable; without one the result is
    a plain array, computed _BLOCK columns at a time.
    """
    w = vars(lp)
    if tape is not None:
        w = {k: tape.leaf(v, trainable=True, name=k) for k, v in w.items()}
    psi = ad.matmul(E.conj().T, w["F"])                             # [tau, Gc]
    wh = ad.hermitian(ad.matmul(ad.hermitian(w["V"]), w["F"]))     # F^H V, [Gc, tau]

    def layers(P):
        # b starts at 0, so the first layer has no Psi b term; every b is this
        # call's own array, so an untaped pass thresholds it in place
        b = ad.soft_threshold(ad.matmul(wh, ad.mul(P, ad.take(w["kappa"], 0))),
                              ad.take(w["lam"], 0), overwrite_x=True)
        for t in range(1, lp.lam.size):
            r = ad.mul(ad.sub(P, ad.matmul(psi, b)), ad.take(w["kappa"], t))
            b = ad.matmul(wh, r, b)                                  # b + W^H r
            b = ad.soft_threshold(b, ad.take(w["lam"], t), overwrite_x=True)
        return ad.matmul(w["F"], b)

    if tape is not None:
        return layers(P)
    edges = range(_BLOCK, P.shape[1] - 1, _BLOCK)      # no one-column tail
    return np.concatenate([layers(p) for p in np.split(P, edges, axis=1)], axis=1)


def _path_loss(out, Xl: np.ndarray):
    """Normalized reconstruction loss sum_l ||out_l - x_l||^2 / ||x_l||^2 / (2B)."""
    norms = np.linalg.norm(Xl, axis=0)
    w = 1.0 / np.maximum(norms, np.finfo(norms.dtype).tiny)
    weighted = ad.mul(ad.sub(out, Xl), w[None, :])
    return ad.mul(ad.sum_abs2(weighted), 1.0 / (2.0 * Xl.shape[1]))


def make_stage2_dataset(config: SystemConfig, scenes: list[SceneRealization],
                        E: np.ndarray, noise_vars: list[float],
                        rng: np.random.Generator) -> Stage2Dataset:
    """Per-path pairs (p_l, x_l) with matched projected-noise variance sigma^2/p.

    The measurement schedule E is fixed, since the learned mixing matrix V is
    tied to it.
    """
    cols_P, cols_X = [], []
    for scene, nv in zip(scenes, noise_vars):
        rows = ris_side_rows(scene, config)              # [M, L]
        clean = E.conj().T @ rows                        # [tau, L]
        noise = complex_normal(rng, clean.shape, nv / config.power) if nv > 0 else 0.0
        cols_P.append(clean + noise)
        cols_X.append(rows)
    return Stage2Dataset(P=np.concatenate(cols_P, axis=1),
                         Xl=np.concatenate(cols_X, axis=1))


def train_stage2(dataset: Stage2Dataset, E: np.ndarray, F_cas: np.ndarray,
                 cfg: Stage2Config, seed: int):
    """Adam on the normalized reconstruction loss; returns (params, trace).

    `optim.train` on the fields of ListaParams, with E and the batches in
    complex64 and the thresholds clamped to >= 0 after every step.
    """
    # complex64 copies: training never writes into E or the shared dictionary
    params = with_precision(vars(lista_init(E, F_cas, cfg, probe_P=dataset.P[:, :cfg.probe])),
                            np.float32)
    E = E.astype(np.complex64)

    def batch_loss(params, sel, tape):
        out = lista_forward(dataset.P[:, sel].astype(np.complex64), ListaParams(**params),
                            E, tape=tape)
        return _path_loss(out, dataset.Xl[:, sel].astype(np.complex64))

    params, trace = train(params, batch_loss, dataset.P.shape[1], cfg, seed, 2,
                          project=lambda p: np.maximum(p["lam"], 0.0, out=p["lam"]))
    return ListaParams(**params), trace


def stage2_loss(dataset: Stage2Dataset, lp: ListaParams, E: np.ndarray) -> float:
    """The training loss over the whole dataset, from one untaped forward."""
    return float(_path_loss(lista_forward(dataset.P, lp, E), dataset.Xl))


def reconstruct(A_hat: np.ndarray, X_hat: np.ndarray) -> np.ndarray:
    """Cascaded channel from BS atoms and per-path RIS-side estimates.

    X_hat columns are the stage-2 outputs; row l of the RIS-side channel is
    X_hat[:, l]^H, so G_hat = A_hat @ X_hat^H.
    """
    return A_hat @ X_hat.conj().T
