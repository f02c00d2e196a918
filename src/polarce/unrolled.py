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
ISTA on Psi (`ista_core`) for any dictionary, overcomplete or not; the tests
check this at every depth up to 8. A safe step therefore keeps the untrained
net convergent: at 20 dB its mean relative error ||x_hat - x||^2 / ||x||^2 at
1, 2, 4, 6 and 8 layers is 0.81, 0.72, 0.63, 0.58 and 0.54 on 180 desk
training paths, and 0.89, 0.85, 0.81, 0.78 and 0.77 on 90 paper ones.

Training runs in single precision (complex64 V, F, E and batches, float32
thresholds and steps, Adam moments to match) and returns complex128/float64
parameters; inference runs in double precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .channel import SceneRealization, SystemConfig, ris_side_rows
from .optim import adam_init, adam_step, with_precision
from .rng import complex_normal, substream

__all__ = [
    "Stage2Config", "ListaParams", "Stage2Dataset", "IstaResult",
    "project_to_bs_subspace", "ista_core", "lista_init", "lista_forward",
    "make_stage2_dataset", "train_stage2", "stage2_loss", "reconstruct", "FORWARD_FORM",
]

# Names the computation lista_forward runs on ListaParams; stage-2 checkpoints
# carry it because parameters of the same shapes mean another network under
# another form.
FORWARD_FORM = "coefficient-ista"


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


@dataclass
class IstaResult:
    coeffs: np.ndarray
    objective: np.ndarray
    diverged: bool


def project_to_bs_subspace(Y: np.ndarray, A_hat: np.ndarray, power: float) -> np.ndarray:
    """Per-path observations: conjugated rows of A_hat^H Y / sqrt(p), as columns."""
    P = A_hat.conj().T @ Y / math.sqrt(power)
    return P.conj().T                 # [tau, L]


def ista_core(p: np.ndarray, Psi: np.ndarray, lam: float, kappa: float,
              iters: int, tol: float = 1e-12) -> IstaResult:
    """Proximal gradient on 0.5||Psi b - p||^2 + lam ||b||_1."""
    b = np.zeros(Psi.shape[1], dtype=np.complex128)
    objective = np.empty(iters)
    diverged = False
    prev = np.inf
    for t in range(iters):
        r = Psi @ b - p
        b = ad.soft_threshold(b - kappa * (Psi.conj().T @ r), lam)
        obj = 0.5 * np.linalg.norm(Psi @ b - p) ** 2 + lam * np.abs(b).sum()
        objective[t] = obj
        if obj > prev * (1.0 + 1e-9) + 1e-12:
            diverged = True
        prev = obj
        if obj < tol:
            objective = objective[:t + 1]
            break
    return IstaResult(coeffs=b, objective=objective, diverged=diverged)


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
    probe observations (zero thresholds for an empty probe)."""
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
        V=E.astype(np.complex128).copy(),
        F=F_cas.astype(np.complex128).copy(),
    )


def _lista_param_dict(lp: ListaParams) -> dict[str, np.ndarray]:
    """Named parameters, each layer's threshold and step as 0-d arrays of their dtype."""
    d = {"V": lp.V, "F": lp.F}
    for t in range(lp.lam.size):
        d[f"lam{t}"] = np.asarray(lp.lam[t])
        d[f"kappa{t}"] = np.asarray(lp.kappa[t])
    return d


def _lista_from_dict(d: dict[str, np.ndarray], layers: int) -> ListaParams:
    return ListaParams(
        lam=np.array([d[f"lam{t}"] for t in range(layers)]),
        kappa=np.array([d[f"kappa{t}"] for t in range(layers)]),
        V=d["V"], F=d["F"],
    )


def lista_forward(P: np.ndarray, lp: ListaParams, E: np.ndarray,
                  tape: ad.Tape | None = None):
    """Run the unrolled layers on a [tau, B] batch; returns x = F b, [M, B].

    Given a tape, the parameters become its trainable leaves (named as in the
    checkpoint dict) and the returned node is differentiable; without one the
    result is a plain array.
    """
    w = _lista_param_dict(lp)
    if tape is not None:
        w = {k: tape.leaf(v, trainable=True, name=k) for k, v in w.items()}
    psi = ad.matmul(E.conj().T, w["F"])                             # [tau, Gc]
    wh = ad.hermitian(ad.matmul(ad.hermitian(w["V"]), w["F"]))     # F^H V, [Gc, tau]
    # b starts at 0, so the first layer has no Psi b term
    b = ad.soft_threshold(ad.matmul(wh, ad.mul(P, w["kappa0"])), w["lam0"])
    for t in range(1, lp.lam.size):
        r = ad.mul(ad.sub(P, ad.matmul(psi, b)), w[f"kappa{t}"])
        # two statements, so an untaped pass frees the old b before thresholding
        b = ad.add(b, ad.matmul(wh, r))
        b = ad.soft_threshold(b, w[f"lam{t}"])
    return ad.matmul(w["F"], b)


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

    Trains in single precision: V, F, E and the batches are complex64, the
    thresholds and steps float32, and so are the Adam moments. Returns the
    parameters widened, exactly, to complex128/float64.
    """
    lp = lista_init(E, F_cas, cfg, probe_P=dataset.P[:, :cfg.probe])
    params = with_precision(_lista_param_dict(lp), np.float32)
    E = E.astype(np.complex64)
    state = adam_init(params, lr=cfg.lr)
    n = dataset.P.shape[1]
    order_rng = substream(seed, "stage2-order")
    trace = []
    for ep in range(cfg.episodes):
        order = order_rng.permutation(n)
        losses = []
        for lo in range(0, n, cfg.batch):
            sel = order[lo:lo + cfg.batch]
            tape = ad.Tape()
            out = lista_forward(dataset.P[:, sel].astype(np.complex64),
                                _lista_from_dict(params, cfg.layers), E, tape=tape)
            loss = _path_loss(out, dataset.Xl[:, sel].astype(np.complex64))
            lval = float(loss.value)
            if not np.isfinite(lval):
                raise RuntimeError(f"stage-2 training diverged at episode {ep}: loss={lval}")
            grads = tape.backward(loss)
            params = adam_step(params, grads, state)
            for t in range(cfg.layers):     # in place: numpy 1.x would widen a 0-d result
                np.maximum(params[f"lam{t}"], 0.0, out=params[f"lam{t}"])
            losses.append(lval)
        trace.append({"episode": ep, "loss": float(np.mean(losses))})
    return _lista_from_dict(with_precision(params, np.float64), cfg.layers), trace


def stage2_loss(dataset: Stage2Dataset, lp: ListaParams, E: np.ndarray) -> float:
    """The training loss over the whole dataset."""
    out = lista_forward(dataset.P, lp, E)
    return float(_path_loss(out, dataset.Xl))


def reconstruct(A_hat: np.ndarray, X_hat: np.ndarray) -> np.ndarray:
    """Cascaded channel from BS atoms and per-path RIS-side estimates.

    X_hat columns are the stage-2 outputs; row l of the RIS-side channel is
    X_hat[:, l]^H, so G_hat = A_hat @ X_hat^H.
    """
    return A_hat @ X_hat.conj().T
