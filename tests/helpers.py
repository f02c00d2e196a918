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


def count_lattice_peaks_reference(cas, corr: np.ndarray, within_db: float = 3.0) -> int:
    """Loop-and-dict count of lattice peaks, the oracle for `count_lattice_peaks`.

    Classes are ranked along each axis; a column within within_db of the
    global maximum is a peak when no column within one rank in both axes
    exceeds it. The extreme sin ranks are neighbours when their circular gap
    (period wavelength/spacing) is no wider than 1.5 in-range gaps.
    """
    period = cas.source.wavelength / cas.source.spacing
    ds = np.round(cas.delta_sin, 9)
    dc = np.round(cas.delta_curv, 9)
    us, uc = np.unique(ds), np.unique(dc)
    si = np.searchsorted(us, ds)
    ci = np.searchsorted(uc, dc)
    ns = us.size
    wrap = ns > 2 and (us[0] + period - us[-1]) <= 1.5 * np.diff(us).max()
    index = {(int(a), int(b)): k for k, (a, b) in enumerate(zip(si, ci))}
    thresh = corr.max() * 10.0 ** (-within_db / 20.0)
    peaks = 0
    for k, (a, b) in enumerate(zip(si, ci)):
        if corr[k] < thresh:
            continue
        best = True
        for da in (-1, 0, 1):
            aa = (a + da) % ns if wrap else a + da
            for db in (-1, 0, 1):
                if da == 0 and db == 0:
                    continue
                nb = index.get((int(aa), int(b + db)))
                if nb is not None and corr[nb] > corr[k]:
                    best = False
                    break
            if not best:
                break
        peaks += int(best)
    return peaks
