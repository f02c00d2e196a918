"""The training kernels and loops against byte-level oracles.

Each kernel of the tape and of Adam must give the same bytes as the wider
form it replaced (copied into `helpers`), or, where a one-column product goes
to another BLAS kernel, stay within the rounding bound of its sums. So must
each network's trainer
against the loop it ran before both ran `optim.train`. Outputs are compared with
`tobytes()`, which tells -0 from +0 where `array_equal` does not. Inputs are
seeded and hold exact zeros: ReLU-sparse images and gradients, entries with
|x| = 0 and |x| = lam, and lam = 0.
"""
import numpy as np
import pytest

import polarce.autodiff as ad
from polarce.channel import draw_scene
from polarce.denoiser import Stage1Config, make_stage1_dataset, train_stage1
from polarce.optim import adam_init, adam_step
from polarce.rng import substream
from polarce.unrolled import Stage2Config, make_stage2_dataset, train_stage2

from helpers import (adam_step_reference, batch_norm_backward_reference,
                     batch_norm_reference, conv2d_square_backward_reference,
                     conv2d_square_reference, crandn, hermitian_reference,
                     matmul_backward_reference, soft_threshold_backward_reference,
                     soft_threshold_reference, train_stage1_reference,
                     train_stage2_reference)

# (dtype, batch, H, W, k, Ci, Co): the denoiser's first, middle and last
# layers on its one-column image at the training batch, on the paper (H 192)
# and desk (H 96) BS grids, in float32 (training) and float64 (inference).
# With W = 1 the oracle's block-Toeplitz matrix is the tap matrix, so both run
# the same GEMMs on the same operands and the bytes agree whatever the BLAS.
CONV_SHAPES = [(dt, 32, h, 1, 3, ci, co) for dt in ("f32", "f64") for h in (192, 96)
               for ci, co in ((1, 16), (16, 16), (16, 1))]
# Wider float64 images, each column convolved on its own. The oracle's GEMM
# then also sums the zero taps of the other columns; byte identity rests on
# OpenBLAS's blocked kernel leaving each sum unchanged by those zero products.
# The backward pass sums dw over the columns in another order than the oracle,
# so only the forward pass is compared here. Their ids name no dtype.
WIDE_SHAPES = [("f64", 32, h, 3, 3, ci, co) for h in (192, 96)
               for ci, co in ((2, 16), (16, 16), (16, 2))] + [("f64", 32, 96, 5, 5, 16, 16)]


def conv_id(shape):
    dt, *dims = shape
    name = "b{}h{}w{}k{}ci{}co{}".format(*dims)
    return name if shape in WIDE_SHAPES else f"{dt}-{name}"


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def sparse(rng, shape, keep=0.5):
    """Standard normal entries with about 1 - keep of them exactly 0."""
    return rng.standard_normal(shape) * (rng.random(shape) < keep)


class TestConv2dBytes:
    """The k x 1 convolution against the square-kernel form it replaced, fed the
    kernel as the middle column of an otherwise zero k x k kernel."""

    @staticmethod
    def operands(shape):
        dt, b, h, width, k, ci, co = shape
        rng = np.random.default_rng(h * 100 + ci * 10 + co)
        real = np.float32 if dt == "f32" else np.float64
        x = np.maximum(rng.standard_normal((b, h, width, ci)), 0.0)     # ReLU-sparse
        w = 0.1 * rng.standard_normal((k, 1, ci, co))
        g = sparse(rng, (b, h, width, co))
        square = np.zeros((k, k, ci, co))
        square[:, k // 2:k // 2 + 1] = w
        return (a.astype(real) for a in (x, w, g, square))

    @pytest.mark.parametrize("shape", CONV_SHAPES + WIDE_SHAPES, ids=conv_id)
    def test_forward(self, shape):
        x, w, _, square = self.operands(shape)
        assert same_bytes(ad._conv2d_fwd(x, w), conv2d_square_reference(x, square))

    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=conv_id)
    def test_backward(self, shape):
        x, w, g, square = self.operands(shape)
        gx, gw = ad._bwd_conv2d(g, [x, w], None, None, [True, True])
        want_gx, want_gw = conv2d_square_backward_reference(g, x, square)
        mid = w.shape[0] // 2
        assert not np.delete(want_gw, mid, axis=1).any()
        assert same_bytes(gx, want_gx)
        assert same_bytes(gw, np.ascontiguousarray(want_gw[:, mid:mid + 1]))


# (dtype, H, channels): the denoiser's middle layers on the paper and desk BS
# grids, three columns wide. Two or more channels are summed row after row, as
# np.add.reduce sums them; one channel np.add.reduce sums pairwise.
BN_CASES = [pytest.param("f64", h, 16, id=str(h)) for h in (192, 96)] + [
    pytest.param(dt, h, c, id=f"{dt}-h{h}-c{c}") for dt in ("f32", "f64") for h in (192, 96)
    for c in (1, 3, 16) if (dt, c) != ("f64", 16)]


@pytest.mark.parametrize("dt, h, channels", BN_CASES)
class TestBatchNormBytes:
    @staticmethod
    def operands(dt, h, channels):
        rng = np.random.default_rng(h * 100 + channels)
        real = np.float32 if dt == "f32" else np.float64
        x = sparse(rng, (32, h, 3, channels), keep=0.8) + 0.3
        x[rng.random(x.shape) < 0.1] = 0.0
        gamma = 1.0 + 0.1 * rng.standard_normal(channels)
        beta = 0.1 * rng.standard_normal(channels)
        g = sparse(rng, x.shape)
        return (a.astype(real) for a in (x, gamma, beta, g))

    def test_forward(self, dt, h, channels):
        x, gamma, beta, _ = self.operands(dt, h, channels)
        aux = {"eps": 1e-5}
        out = ad._batch_norm_fwd(x, gamma, beta, aux)
        want, mu, var, inv = batch_norm_reference(x, gamma, beta, 1e-5)
        assert same_bytes(out, want)
        assert same_bytes(aux["mu"], mu)
        assert same_bytes(aux["var"], var)
        assert same_bytes(aux["inv"], inv)

    def test_backward(self, dt, h, channels):
        x, gamma, beta, g = self.operands(dt, h, channels)
        out, mu, var, inv = batch_norm_reference(x, gamma, beta, 1e-5)
        aux = {"eps": 1e-5, "mu": mu, "var": var, "inv": inv}
        got = ad._bwd_batch_norm(g, [x, gamma, beta], out, aux, [True, True, True])
        for a, b in zip(got, batch_norm_backward_reference(g, x, gamma, mu, inv)):
            assert same_bytes(a, b)


# (dtype, Gc, tau, batch): the unrolled net's layer products on the paper and
# desk cascaded dictionaries, at the training batch, a short last batch, two
# columns and one. A one-column product is a gemv, whose kernel for a
# C-contiguous matrix sums in another order than the one for an F-ordered
# matrix, so there the C-contiguous conjugate transposes give other bytes.
PRODUCT_SHAPES = [(dt, gc, 30, batch) for dt in ("c64", "c128") for gc in (6419, 785)
                  for batch in (32, 24, 2, 1)]


def product_id(shape):
    return "{}-gc{}-tau{}-b{}".format(*shape)


def same_or_within_gemv_bound(got, want, a, b) -> bool:
    """Same bytes, or for a one-column a @ b the rounding bound of two length-k
    sums: |got - want| <= 2 (k + 2) eps (|a| @ |b|)."""
    if b.shape[1] > 1:
        return same_bytes(got, want)
    eps = np.finfo(got.dtype).eps
    bound = 2 * (a.shape[1] + 2) * eps * (np.abs(a) @ np.abs(b))
    return got.dtype == want.dtype and bool(np.all(np.abs(got - want) <= bound))


class TestStage2ProductBytes:
    """`hermitian` and the layer products against np.conj(a.T) and a matmul
    backward that conjugates its left operand on every call."""

    @staticmethod
    def operands(shape):
        dt, gc, tau, batch = shape
        rng = np.random.default_rng(gc + batch)
        cplx = np.complex64 if dt == "c64" else np.complex128
        vhf, psi = crandn(rng, tau, gc), crandn(rng, tau, gc)      # V^H F and Psi
        r = crandn(rng, tau, batch)
        b = crandn(rng, gc, batch) * (rng.random((gc, batch)) < 0.3)   # thresholded
        g_wr = crandn(rng, gc, batch) * (rng.random((gc, batch)) < 0.3)
        g_pb = crandn(rng, tau, batch)
        return (a.astype(cplx) for a in (vhf, psi, r, b, g_wr, g_pb))

    @pytest.mark.parametrize("shape", [s for s in PRODUCT_SHAPES if s[3] == 32], ids=product_id)
    def test_hermitian(self, shape):
        vhf, *_ = self.operands(shape)
        wh = ad.hermitian(vhf)
        assert wh.flags.c_contiguous
        assert same_bytes(wh, hermitian_reference(vhf))

    @pytest.mark.parametrize("shape", PRODUCT_SHAPES, ids=product_id)
    def test_forward(self, shape):
        vhf, _, r, b, _, _ = self.operands(shape)
        wh = hermitian_reference(vhf)
        want = wh @ r
        assert same_or_within_gemv_bound(ad.matmul(ad.hermitian(vhf), r), want, wh, r)
        assert same_or_within_gemv_bound(ad.matmul(ad.hermitian(vhf), r, b), b + want, wh, r)

    @pytest.mark.parametrize("shape", PRODUCT_SHAPES, ids=product_id)
    def test_backward(self, shape):
        vhf, psi, r, b, g_wr, g_pb = self.operands(shape)
        # b + W^H r: the tape's a^H of W^H is the hermitian's own input
        got = ad._bwd_matmul(g_wr, [ad.hermitian(vhf), r, b], None, lambda: vhf,
                             [True, True, True])
        want = matmul_backward_reference(g_wr, hermitian_reference(vhf), r, (True, True))
        assert same_bytes(got[0], want[0])
        assert same_or_within_gemv_bound(got[1], want[1], vhf, g_wr)
        assert same_bytes(got[2], g_wr)
        # Psi b: the tape makes Psi^H once per backward pass
        got = ad._bwd_matmul(g_pb, [psi, b], None, lambda: ad.hermitian(psi), [True, True])
        want = matmul_backward_reference(g_pb, psi, b, (True, True))
        assert same_bytes(got[0], want[0])
        assert same_or_within_gemv_bound(got[1], want[1], hermitian_reference(psi), g_pb)


@pytest.mark.parametrize("lam", [0.0, 0.7])
@pytest.mark.parametrize("kind", ["complex", "real"])
class TestSoftThresholdBytes:
    @staticmethod
    def operands(kind, lam):
        rng = np.random.default_rng(7)
        shape = (400, 32)
        x = crandn(rng, *shape) if kind == "complex" else rng.standard_normal(shape)
        x[rng.random(shape) < 0.1] = 0.0                    # |x| = 0
        x[rng.random(shape) < 0.05] = -0.0
        x[rng.random(shape) < 0.05] = lam                   # |x| = lam
        x[rng.random(shape) < 0.05] = -lam
        g = sparse(rng, shape)
        if kind == "complex":
            g = g + 1j * sparse(rng, shape)
        return x, np.array(lam), g

    def test_forward(self, kind, lam):
        x, lam, _ = self.operands(kind, lam)
        assert same_bytes(ad._soft_threshold_fwd(x, lam), soft_threshold_reference(x, lam))

    def test_forward_in_place(self, kind, lam):
        """An untaped call with overwrite_x writes the same bytes into x."""
        x, lam, _ = self.operands(kind, lam)
        want = soft_threshold_reference(x, lam)
        got = ad.soft_threshold(x, lam, overwrite_x=True)
        assert got is x and same_bytes(got, want)

    def test_taped_call_keeps_its_input(self, kind, lam):
        x, lam, _ = self.operands(kind, lam)
        before = x.copy()
        out = ad.soft_threshold(ad.Tape().leaf(x, trainable=True, name="x"), lam,
                                overwrite_x=True)
        assert same_bytes(x, before)
        assert same_bytes(out.value, soft_threshold_reference(x, lam))

    @pytest.mark.parametrize("need", [(True, True), (True, False), (False, True)])
    def test_backward(self, kind, lam, need):
        x, lam, g = self.operands(kind, lam)
        got = ad._bwd_soft_threshold(g, [x, lam], None, None, list(need))
        want = soft_threshold_backward_reference(g, x, lam)
        for n, a, b in zip(need, got, want):
            assert same_bytes(a, b) if n else a is None


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_adam_step_bytes(kind):
    """Three steps on an F-sized parameter and a scalar, moments included."""
    rng = np.random.default_rng(3)
    shape = (128, 6419)

    def draw():
        return crandn(rng, *shape) if kind == "complex" else rng.standard_normal(shape)

    params = {"F": draw(), "lam": np.array(0.0)}
    got_p, want_p = dict(params), dict(params)
    got_s, want_s = adam_init(params, lr=1e-4), adam_init(params, lr=1e-4)
    for _ in range(3):
        grads = {"F": draw() * (rng.random(shape) < 0.7), "lam": np.array(rng.standard_normal())}
        got_p = adam_step(got_p, grads, got_s)
        want_p = adam_step_reference(want_p, grads, want_s)
        for name in params:
            assert same_bytes(got_p[name], want_p[name])
            assert same_bytes(got_s.m[name], want_s.m[name])
            assert same_bytes(got_s.v[name], want_s.v[name])


def same_trace(got, want) -> bool:
    """Same episodes with the same keys, and every value with the same bytes."""
    return len(got) == len(want) and all(
        g.keys() == w.keys() and all(same_bytes(g[k], w[k]) for k in w)
        for g, w in zip(got, want))


class TestTrainingBytes:
    """Parameters, buffers and traces; 20 samples in batches of 8 or 7 leave a
    short last batch."""

    @staticmethod
    def scenes(system, count, label):
        return [draw_scene(system, substream(41, label, t)) for t in range(count)]

    @pytest.mark.parametrize("with_val", [False, True], ids=["no-val", "val"])
    def test_stage1(self, small_system, small_bs_dict, small_E, with_val):
        def dataset(count, label):
            return make_stage1_dataset(small_system, small_bs_dict, small_E,
                                       self.scenes(small_system, count, label), [0.05] * count,
                                       substream(41, label, "noise"))

        ds = dataset(20, "train")
        val = dataset(6, "val") if with_val else None
        cfg = Stage1Config(layers=4, width=4, lr=1e-2, batch=8, episodes=3)
        got, got_trace = train_stage1(ds, cfg, seed=5, val=val)
        want, want_trace = train_stage1_reference(ds, cfg, seed=5, val=val)
        assert same_trace(got_trace, want_trace)
        assert with_val == ("val_loss" in got_trace[0])
        for mine, theirs in ((got.params, want.params), (got.buffers, want.buffers)):
            assert mine.keys() == theirs.keys()
            assert all(same_bytes(mine[k], theirs[k]) for k in theirs)

    # with 2 layers in batches of 7, one step takes a threshold below 0, and the
    # clamp brings it back
    @pytest.mark.parametrize("layers, batch", [(3, 8), (2, 7)], ids=["3-layers", "2-layers"])
    def test_stage2(self, small_system, small_E, small_cas_dict, layers, batch):
        scenes = self.scenes(small_system, 10, "train2")
        ds = make_stage2_dataset(small_system, scenes, small_E, [0.02] * 10,
                                 substream(41, "train2", "noise"))
        cfg = Stage2Config(layers=layers, lr=1e-2, batch=batch, episodes=3, probe=8)
        got, got_trace = train_stage2(ds, small_E, small_cas_dict.F, cfg, seed=5)
        want, want_trace = train_stage2_reference(ds, small_E, small_cas_dict.F, cfg, seed=5)
        assert same_trace(got_trace, want_trace)
        assert vars(got).keys() == vars(want).keys()
        assert all(same_bytes(vars(got)[k], vars(want)[k]) for k in vars(want))
