"""Stage 2: per-path recovery of the RIS-side composite channel.

After stage 1 supplies the BS-side atoms, each projected observation obeys

    p_l = E^H x_l + noise,    x_l sparse in the cascaded dictionary.

`ista_classic` solves the l1 problem on the fixed dictionary. The unrolled
solver runs a fixed number of layers of

    x <- Ftil @ soft(Ftil^H (x - kappa_t V (E^H x - p)), lambda_t)

with per-layer thresholds/steps and shared V, Ftil trained end to end; Ftil is
initialized from the cascaded dictionary and V from E, so layer one of an
untrained net is a plain proximal gradient step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .channel import SceneRealization, SystemConfig, ris_side_rows
from .optim import adam_init, adam_step
from .polar import CascadedDictionary
from .rng import complex_normal, substream

__all__ = [
    "Stage2Config", "ListaParams", "Stage2Dataset", "IstaResult",
    "project_to_bs_subspace", "ista_core", "ista_classic", "lista_init",
    "lista_forward", "make_stage2_dataset", "polar_power_profile",
    "train_stage2", "stage2_loss", "reconstruct",
]


@dataclass(frozen=True)
class Stage2Config:
    layers: int = 6
    lr: float = 1e-4
    batch: int = 32
    episodes: int = 30
    train_size: int = 5000            # training scenes (L_BR paths each)
    lam_scale: float = 0.1            # init threshold vs layer-1 coefficient peak
    probe: int = 64                   # samples used to calibrate the init threshold


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
        b = ad.soft_threshold_array(b - kappa * (Psi.conj().T @ r), lam)
        obj = 0.5 * np.linalg.norm(Psi @ b - p) ** 2 + lam * np.abs(b).sum()
        objective[t] = obj
        if obj > prev * (1.0 + 1e-9) + 1e-12:
            diverged = True
        prev = obj
        if obj < tol:
            objective = objective[:t + 1]
            break
    return IstaResult(coeffs=b, objective=objective, diverged=diverged)


def ista_classic(p: np.ndarray, E: np.ndarray, F_cas: np.ndarray, lam: float,
                 kappa: float | None = None, iters: int = 200) -> IstaResult:
    """Classic ISTA on the cascaded-dictionary problem p = E^H F_cas b + n."""
    Psi = E.conj().T @ F_cas
    if kappa is None:
        kappa = 1.0 / spectral_norm_sq(Psi)
    return ista_core(p, Psi, lam, kappa, iters)


def spectral_norm_sq(Psi: np.ndarray) -> float:
    """||Psi||_2^2 via the small-side gram."""
    if Psi.shape[0] <= Psi.shape[1]:
        gram = Psi @ Psi.conj().T
    else:
        gram = Psi.conj().T @ Psi
    return float(np.linalg.eigvalsh(gram)[-1].real)


def lista_init(E: np.ndarray, F_cas: np.ndarray, cfg: Stage2Config,
               probe_P: np.ndarray | None = None) -> ListaParams:
    """Classic-ISTA initialization: V = E, Ftil = dictionary, safe step,
    thresholds calibrated on the layer-1 coefficient scale."""
    Psi = E.conj().T @ F_cas
    kappa0 = 1.0 / spectral_norm_sq(Psi)
    if probe_P is not None and probe_P.size:
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
    d = {"V": lp.V, "F": lp.F}
    for t in range(lp.lam.size):
        d[f"lam{t}"] = np.asarray(lp.lam[t], dtype=np.float64)
        d[f"kappa{t}"] = np.asarray(lp.kappa[t], dtype=np.float64)
    return d


def _lista_from_dict(d: dict[str, np.ndarray], layers: int) -> ListaParams:
    return ListaParams(
        lam=np.array([float(d[f"lam{t}"]) for t in range(layers)]),
        kappa=np.array([float(d[f"kappa{t}"]) for t in range(layers)]),
        V=d["V"], F=d["F"],
    )


def lista_forward(P: np.ndarray, lp: ListaParams, E: np.ndarray,
                  tape: ad.Tape | None = None, nodes: dict[str, ad.Node] | None = None):
    """Run the unrolled layers on a [tau, B] batch (or a single [tau] vector).

    Without a tape this is a plain numpy evaluation; with one, `nodes` must
    hold the trainable leaves and the returned node is differentiable.
    """
    single = P.ndim == 1
    Pb = P[:, None] if single else P
    layers = lp.lam.size
    if tape is None:
        EH = E.conj().T
        X = np.zeros((E.shape[0], Pb.shape[1]), dtype=np.complex128)
        for t in range(layers):
            step = X - lp.kappa[t] * (lp.V @ (EH @ X - Pb))
            X = lp.F @ ad.soft_threshold_array(lp.F.conj().T @ step, lp.lam[t])
        return X[:, 0] if single else X
    eh = tape.constant(E.conj().T)
    p = tape.constant(Pb)
    fh = ad.hermitian(nodes["F"])
    x = tape.constant(np.zeros((E.shape[0], Pb.shape[1]), dtype=np.complex128))
    for t in range(layers):
        r = ad.sub(ad.matmul(eh, x), p)
        step = ad.sub(x, ad.mul(ad.matmul(nodes["V"], r), nodes[f"kappa{t}"]))
        coeff = ad.soft_threshold(ad.matmul(fh, step), nodes[f"lam{t}"])
        x = ad.matmul(nodes["F"], coeff)
    return x


def make_stage2_dataset(config: SystemConfig, scenes: list[SceneRealization],
                        E: np.ndarray, noise_vars: list[float],
                        rng: np.random.Generator) -> Stage2Dataset:
    """Per-path pairs (p_l, x_l) with matched projected-noise variance sigma^2/p.

    The measurement schedule E is fixed, since the learned mixing matrix V is
    tied to it.
    """
    cols_P, cols_X = [], []
    for scene, nv in zip(scenes, noise_vars):
        rows = ris_side_rows(scene, config, user=0)      # [M, L]
        clean = E.conj().T @ rows                        # [tau, L]
        noise = complex_normal(rng, clean.shape, nv / config.power) if nv > 0 else 0.0
        cols_P.append(clean + noise)
        cols_X.append(rows)
    return Stage2Dataset(P=np.concatenate(cols_P, axis=1),
                         Xl=np.concatenate(cols_X, axis=1))


def polar_power_profile(v: np.ndarray, cas: CascadedDictionary) -> np.ndarray:
    """|F_cas^H v| per cascaded atom; shows leakage spread and drifted peaks."""
    return np.abs(cas.F.conj().T @ np.asarray(v))


def train_stage2(dataset: Stage2Dataset, E: np.ndarray, F_cas: np.ndarray,
                 cfg: Stage2Config, seed: int):
    """Adam on the normalized reconstruction loss; returns (params, trace)."""
    lp = lista_init(E, F_cas, cfg, probe_P=dataset.P[:, :cfg.probe])
    params = _lista_param_dict(lp)
    state = adam_init(params, lr=cfg.lr)
    n = dataset.P.shape[1]
    wts = 1.0 / np.maximum(np.linalg.norm(dataset.Xl, axis=0), 1e-300)
    order_rng = substream(seed, "stage2-order")
    trace = []
    for ep in range(cfg.episodes):
        order = order_rng.permutation(n)
        losses = []
        for lo in range(0, n, cfg.batch):
            sel = order[lo:lo + cfg.batch]
            tape = ad.Tape()
            nodes = {k: tape.leaf(v, trainable=True, name=k) for k, v in params.items()}
            lp_now = _lista_from_dict({k: v for k, v in params.items()}, cfg.layers)
            out = lista_forward(dataset.P[:, sel], lp_now, E, tape=tape, nodes=nodes)
            diff = ad.sub(out, tape.constant(dataset.Xl[:, sel]))
            weighted = ad.mul(diff, tape.constant(wts[sel][None, :]))
            loss = ad.scale(ad.sum_abs2(weighted), 1.0 / (2.0 * sel.size))
            lval = float(loss.value)
            if not np.isfinite(lval):
                raise RuntimeError(f"stage-2 training diverged at episode {ep}: loss={lval}")
            grads = tape.backward(loss)
            params = adam_step(params, grads, state)
            for t in range(cfg.layers):
                params[f"lam{t}"] = np.maximum(params[f"lam{t}"], 0.0)
            losses.append(lval)
        trace.append({"episode": ep, "loss": float(np.mean(losses))})
    return _lista_from_dict(params, cfg.layers), trace


def stage2_loss(dataset: Stage2Dataset, lp: ListaParams, E: np.ndarray) -> float:
    out = lista_forward(dataset.P, lp, E)
    w = 1.0 / np.maximum(np.linalg.norm(dataset.Xl, axis=0), 1e-300)
    return float(np.sum(np.abs((out - dataset.Xl) * w[None, :]) ** 2) / (2.0 * dataset.P.shape[1]))


def reconstruct(A_hat: np.ndarray, X_hat: np.ndarray) -> np.ndarray:
    """Cascaded channel from BS atoms and per-path RIS-side estimates.

    X_hat columns are the stage-2 outputs; row l of the RIS-side channel is
    X_hat[:, l]^H, so G_hat = A_hat @ X_hat^H.
    """
    return A_hat @ X_hat.conj().T
