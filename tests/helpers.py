"""Shared test utilities.

The finite-difference checker here is written independently of the tape so
gradient tests do not reuse the code under test. Complex parameters are
perturbed along the real and imaginary axes separately and reported as
dL/dRe + 1j dL/dIm, the same layout the tape produces.
"""
import numpy as np


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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
    """Same-padded cross-correlation, summed tap by tap over shifted images."""
    b, hh, ww, ci = x.shape
    k = w.shape[0]
    pad = k // 2
    xp = np.zeros((b, hh + 2 * pad, ww + 2 * pad, ci), dtype=x.dtype)
    xp[:, pad:pad + hh, pad:pad + ww, :] = x
    out = np.zeros((b, hh, ww, w.shape[3]), dtype=np.result_type(x, w))
    for di in range(k):
        for dj in range(k):
            out += xp[:, di:di + hh, dj:dj + ww, :] @ w[di, dj]
    return out
