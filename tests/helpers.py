"""Shared test utilities.

The finite-difference checker here is written independently of the tape so
gradient tests do not reuse the code under test. Complex parameters are
perturbed along the real and imaginary axes separately and reported as
dL/dRe + 1j dL/dIm, the same layout the tape produces.
"""
import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

import polarce.autodiff as ad
from polarce.autodiff import _unbroadcast
from polarce.channel import steering_vector
from polarce.denoiser import (DenoiserParams, _residual_loss, _residual_pairs,
                              init_denoiser, stage1_loss)
from polarce.optim import adam_init, adam_step, with_precision
from polarce.polar import _wrap_delta_sin, sample_polar_grid
from polarce.rng import substream
from polarce.unrolled import ListaParams, _path_loss, lista_init


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def write_plce0001(path, arrays: dict, meta: dict) -> None:
    """A checkpoint in the retired PLCE0001 layout: the magic, a uint32 header
    length, a JSON header with per-array offsets, then every array as float64,
    complex values as re/im pairs."""
    index, chunks, offset = {}, [], 0
    for name, a in arrays.items():
        kind = "c128" if np.iscomplexobj(a) else "f64"
        flat = np.ascontiguousarray(a, dtype=complex if kind == "c128" else float)
        flat = flat.view("<f8").ravel()
        index[name] = {"shape": list(np.shape(a)), "kind": kind,
                       "offset": offset, "count": flat.size}
        chunks.append(flat.tobytes())
        offset += flat.size
    payload = b"".join(chunks)
    header = json.dumps({"version": 1, "meta": meta, "arrays": index,
                         "hash": hashlib.sha256(payload).hexdigest()}, sort_keys=True)
    path.write_bytes(b"PLCE0001" + struct.pack("<I", len(header)) + header.encode()
                     + payload)


def numeric_grads(loss_fn, arrays: dict, h: float = 1e-6) -> dict:
    """Central-difference gradients of a real scalar loss.

    loss_fn takes a dict of plain numpy arrays and returns a float.
    """
    out = {}
    for name, base in arrays.items():
        base = np.asarray(base)
        cplx = np.iscomplexobj(base)
        g = np.zeros(base.shape, dtype=np.complex128 if cplx else np.float64)
        gflat = g.reshape(-1)

        def probe(idx, delta):
            pert = {k: np.array(v, copy=True) for k, v in arrays.items()}
            pert[name].reshape(-1)[idx] += delta
            return float(loss_fn(pert))

        for idx in range(base.size):
            d_re = (probe(idx, h) - probe(idx, -h)) / (2.0 * h)
            gflat[idx] = d_re
            if cplx:
                d_im = (probe(idx, 1j * h) - probe(idx, -1j * h)) / (2.0 * h)
                gflat[idx] += 1j * d_im
        out[name] = g
    return out


def assert_grads_close(got: dict, want: dict, rtol: float = 1e-5, atol: float = 1e-7):
    assert set(got) == set(want)
    for name in want:
        gw = np.asarray(want[name])
        gg = np.asarray(got[name])
        assert gg.shape == gw.shape, f"{name}: shape {gg.shape} vs {gw.shape}"
        scale = max(np.max(np.abs(gw)), 1.0)
        err = np.max(np.abs(gg - gw))
        assert err <= atol + rtol * scale, f"{name}: max err {err:.3e} (scale {scale:.3e})"


def rel_err(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    denom = np.linalg.norm(b.reshape(-1))
    if denom == 0:
        return float(np.linalg.norm(a.reshape(-1)))
    return float(np.linalg.norm((a - b).reshape(-1)) / denom)


def conv2d_reference(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Same-padded cross-correlation with a [kh, kw, Ci, Co] kernel, both sides
    odd, summed tap by tap over shifted images."""
    b, hh, ww, ci = x.shape
    kh, kw = w.shape[:2]
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((b, hh + 2 * ph, ww + 2 * pw, ci), dtype=x.dtype)
    xp[:, ph:ph + hh, pw:pw + ww, :] = x
    out = np.zeros((b, hh, ww, w.shape[3]), dtype=np.result_type(x, w))
    for di in range(kh):
        for dj in range(kw):
            out += xp[:, di:di + hh, dj:dj + ww, :] @ w[di, dj]
    return out


def cascaded_column(cas, l: int, p: int) -> int:
    """Column of the cascaded dictionary that holds the departure/arrival grid
    pair (l, p): the class nearest the pair's sin and curvature differences."""
    grid = cas.source.grid
    ds = _wrap_delta_sin(cas.delta_sin - grid.sin_angles[l] + grid.sin_angles[p], cas.source)
    dc = cas.delta_curv - (grid.rings[l] - grid.rings[p]) / (2.0 * grid.z_delta)
    return int(np.argmin(ds * ds + dc * dc))


def build_dictionary_reference(size, wavelength, spacing, config) -> np.ndarray:
    """Dictionary matrix built one `steering_vector` call per grid atom, the
    oracle that the broadcast `build_dictionary` matches byte for byte."""
    grid = sample_polar_grid(size, wavelength, spacing, config)
    F = np.empty((size, len(grid)), dtype=np.complex128)
    for j in range(len(grid)):
        F[:, j] = steering_vector(size, math.asin(grid.sin_angles[j]),
                                  grid.distances[j], wavelength, spacing)
    return F


@dataclass
class IstaResult:
    coeffs: np.ndarray
    objective: np.ndarray
    diverged: bool


def ista_core(p: np.ndarray, Psi: np.ndarray, lam: float, kappa: float,
              iters: int, tol: float = 1e-12) -> IstaResult:
    """Proximal gradient on 0.5||Psi b - p||^2 + lam ||b||_1, the oracle
    that layer t of an untrained unrolled net is held to."""
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


# Byte-level oracles: the training kernels as they were written before they
# were trimmed to the work whose result is used, or before the convolution
# took k x 1 kernels. The kernels in
# `polarce.autodiff` and `polarce.optim` must match them byte for byte.

def _conv_rows_square(x: np.ndarray, k: int) -> np.ndarray:
    """x zero-padded by k//2 on the H axis, as rows [B*Hp, W*Ci]."""
    b, h, w, c = x.shape
    pad = k // 2
    xp = np.zeros((b, h + 2 * pad, w, c), dtype=x.dtype)
    xp[:, pad:pad + h] = x
    return xp.reshape(b * (h + 2 * pad), w * c)


def _conv_columns(width: int, k: int):
    """(output column j, image columns it reads, their taps dj) as slices."""
    pad = k // 2
    for j in range(width):
        lo, hi = max(j - pad, 0), min(j + pad + 1, width)
        yield j, slice(lo, hi), slice(lo - j + pad, hi - j + pad)


def _conv_toeplitz(w: np.ndarray, width: int) -> np.ndarray:
    """Kernel [k, k, Ci, Co] as the block-Toeplitz matrix [W*Ci, k*W*Co].

    Entry [(j+dj-k//2)*Ci + c, (di*W + j)*Co + o] is w[di, dj, c, o]; taps
    that fall outside the image are dropped.
    """
    k, _, ci, co = w.shape
    t = np.zeros((width, ci, k, width, co), dtype=w.dtype)
    taps = w.transpose(1, 2, 0, 3)                      # [dj, c, di, o]
    for j, cols, dj in _conv_columns(width, k):
        t[cols, :, :, j] = taps[dj]
    return t.reshape(width * ci, k * width * co)


def conv2d_square_reference(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Same-padded convolution with a square [k, k, Ci, Co] kernel, as one GEMM
    against its block-Toeplitz matrix plus k shifted row sums."""
    k = w.shape[0]
    b, h, width, _ = x.shape
    co = w.shape[3]
    y = (_conv_rows_square(x, k) @ _conv_toeplitz(w, width)).reshape(
        b, h + k - 1, k, width * co)
    out = y[:, :h, 0].copy()
    for di in range(1, k):
        out += y[:, di:di + h, di]
    return out.reshape(b, h, width, co)


def conv2d_square_backward_reference(g: np.ndarray, x: np.ndarray, w: np.ndarray):
    """(dx, dw) of `conv2d_square_reference`, two GEMMs against the same matrix."""
    k = w.shape[0]
    pad = k // 2
    b, h, width, ci = x.shape
    co = w.shape[3]
    # gs[b, h', di] is the gradient padded row h' receives through kernel row di
    gs = np.zeros((b, h + 2 * pad, k, width * co), dtype=g.dtype)
    g_rows = g.reshape(b, h, width * co)
    for di in range(k):
        gs[:, di:di + h, di] = g_rows
    gs = gs.reshape(b * (h + 2 * pad), k * width * co)
    gxp = (gs @ _conv_toeplitz(w, width).T).reshape(b, h + 2 * pad, width, ci)
    gx = np.ascontiguousarray(gxp[:, pad:pad + h])
    gt = (_conv_rows_square(x, k).T @ gs).reshape(width, ci, k, width, co)
    gw = np.zeros((k, ci, k, co), dtype=gt.dtype)       # [dj, c, di, o]
    for j, cols, dj in _conv_columns(width, k):
        gw[dj] += gt[cols, :, :, j]
    return gx, np.ascontiguousarray(gw.transpose(2, 0, 1, 3))


def hermitian_reference(a: np.ndarray) -> np.ndarray:
    """a^H as np.conj(a.T), which is F-ordered for a C-ordered a."""
    return np.conj(a.T)


def matmul_backward_reference(g, a, b, need):
    """(dA, dB) of a @ b, with a conjugated and transposed afresh on each call."""
    ga = gb = None
    if need[0] and g.size >= b.size:
        ga = g @ np.conj(b).T
    elif need[0]:
        ga = np.conj(g) @ b.T
        np.conj(ga, out=ga)
    if need[1]:
        gb = (np.conj(a.T) @ g if a.size <= g.size + b.size
              else np.conj((np.conj(g).T @ a).T).copy())
    return ga, gb


def batch_norm_reference(x, gamma, beta, eps):
    """(output, mean, variance, 1/std) with numpy's own mean and var."""
    axes = tuple(range(x.ndim - 1))
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv = 1.0 / np.sqrt(var + eps)
    out = x - mu
    out *= inv
    out *= gamma
    out += beta
    return out, mu, var, inv


def batch_norm_backward_reference(g, x, gamma, mu, inv):
    """(dx, dgamma, dbeta) of batch norm, one expression per gradient."""
    axes = tuple(range(x.ndim - 1))
    n = x.size // x.shape[-1]
    xh = (x - mu) * inv
    gbeta = g.sum(axis=axes)
    ggamma = (g * xh).sum(axis=axes)
    return gamma * inv * (g - gbeta / n - xh * (ggamma / n)), ggamma, gbeta


def soft_threshold_reference(x, lam):
    """x scaled by max(|x| - lam, 0) / |x|, dividing only where that is > 0."""
    mag = np.abs(x)
    shrink = np.subtract(mag, lam)
    np.maximum(shrink, 0.0, out=shrink)
    np.divide(shrink, mag, out=shrink, where=shrink > 0)
    return x * shrink


def soft_threshold_backward_reference(g, x, lam):
    """(dx, dlam) of the soft threshold through masked divides."""
    inv = np.abs(x)
    active = np.greater(inv, lam)
    np.divide(1.0, inv, out=inv, where=active)
    np.copyto(inv, 0.0, where=np.logical_not(active, out=active))
    z = np.conj(x)
    z *= g
    z *= inv
    glam = -_unbroadcast(z.real, np.shape(lam))
    if np.iscomplexobj(z):
        shrink = np.multiply(lam, inv)
        z.imag *= np.subtract(1.0, shrink, out=shrink)
    z *= x
    z *= inv
    return z, glam


def adam_step_reference(params: dict, grads: dict, state) -> dict:
    """Adam as p - lr (m/bc1) / (sqrt(v/bc2) + eps), dividing complex by real."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    new_params = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        if np.iscomplexobj(g):
            g2 = g.real ** 2
            g2 += g.imag ** 2
        else:
            g2 = g ** 2
        v = state.v[name]
        v *= state.beta2
        g2 *= 1.0 - state.beta2
        v += g2
        step = np.divide(m, bc1, out=np.empty_like(m))
        step *= state.lr
        den = np.divide(v, bc2, out=np.empty_like(v))
        np.sqrt(den, out=den)
        den += state.eps
        step /= den
        new_params[name] = p - step
    return new_params


# Training oracles: each network's own Adam loop as it was written before both
# stages ran `optim.train`, with the unrolled net's thresholds and steps as
# one 0-d leaf per layer and the BN statistics folded by the loop. The
# trainers in `polarce` must match them byte for byte.

def _denoiser_forward_stats(x, dp: DenoiserParams, tape):
    """Training-mode denoiser output and {bn layer: (batch mean, batch var)}."""
    cfg = dp.config
    w = {k: tape.leaf(v, trainable=True, name=k) for k, v in dp.params.items()}
    h = ad.relu(ad.add(ad.conv2d(x, w["conv0_w"]), w["conv0_b"]))
    stats = {}
    for i in range(1, cfg.layers - 1):
        z = ad.conv2d(h, w[f"conv{i}_w"])
        z, mean, var = ad.batch_norm(z, w[f"bn{i}_gamma"], w[f"bn{i}_beta"], eps=cfg.bn_eps)
        stats[i] = (mean, var)
        h = ad.relu(z)
    return ad.conv2d(h, w[f"conv{cfg.layers - 1}_w"]), stats


def _at_precision(dp: DenoiserParams, real) -> DenoiserParams:
    return DenoiserParams(dp.config, with_precision(dp.params, real),
                          with_precision(dp.buffers, real))


def train_stage1_reference(dataset, cfg, seed: int, val=None):
    dp = _at_precision(init_denoiser(cfg, substream(seed, "stage1-init")), np.float32)
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
            out, stats = _denoiser_forward_stats(xin[sel], dp, tape)
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


def _lista_param_dict(lp: ListaParams) -> dict:
    d = {"V": lp.V, "F": lp.F}
    for t in range(lp.lam.size):
        d[f"lam{t}"] = np.asarray(lp.lam[t])
        d[f"kappa{t}"] = np.asarray(lp.kappa[t])
    return d


def _lista_from_dict(d: dict, layers: int) -> ListaParams:
    return ListaParams(lam=np.array([d[f"lam{t}"] for t in range(layers)]),
                       kappa=np.array([d[f"kappa{t}"] for t in range(layers)]),
                       V=d["V"], F=d["F"])


def _lista_forward_per_layer_leaves(P, lp: ListaParams, E, tape):
    w = {k: tape.leaf(v, trainable=True, name=k) for k, v in _lista_param_dict(lp).items()}
    psi = ad.matmul(E.conj().T, w["F"])
    wh = ad.hermitian(ad.matmul(ad.hermitian(w["V"]), w["F"]))
    b = ad.soft_threshold(ad.matmul(wh, ad.mul(P, w["kappa0"])), w["lam0"])
    for t in range(1, lp.lam.size):
        r = ad.mul(ad.sub(P, ad.matmul(psi, b)), w[f"kappa{t}"])
        b = ad.add(b, ad.matmul(wh, r))
        b = ad.soft_threshold(b, w[f"lam{t}"])
    return ad.matmul(w["F"], b)


def train_stage2_reference(dataset, E, F_cas, cfg, seed: int):
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
            out = _lista_forward_per_layer_leaves(dataset.P[:, sel].astype(np.complex64),
                                                  _lista_from_dict(params, cfg.layers), E, tape)
            loss = _path_loss(out, dataset.Xl[:, sel].astype(np.complex64))
            lval = float(loss.value)
            if not np.isfinite(lval):
                raise RuntimeError(f"stage-2 training diverged at episode {ep}: loss={lval}")
            grads = tape.backward(loss)
            params = adam_step(params, grads, state)
            for t in range(cfg.layers):
                np.maximum(params[f"lam{t}"], 0.0, out=params[f"lam{t}"])
            losses.append(lval)
        trace.append({"episode": ep, "loss": float(np.mean(losses))})
    return _lista_from_dict(with_precision(params, np.float64), cfg.layers), trace
