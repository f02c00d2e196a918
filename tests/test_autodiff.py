"""Gradient, forward-value, and bookkeeping checks for the tape module."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarce.autodiff as ad
from polarce.optim import adam_init, adam_step

from helpers import assert_grads_close, conv2d_reference, crandn, numeric_grads


def run_tape(build, arrays):
    """Forward + backward through the tape; returns (loss value, grads)."""
    tape = ad.Tape()
    nodes = {k: tape.leaf(np.array(v, copy=True), trainable=True, name=k)
             for k, v in arrays.items()}
    loss = build(tape, nodes)
    return float(np.asarray(loss.value)), tape.backward(loss)


def check_op(build, mirror, arrays, rtol=1e-5):
    got_val, got_grads = run_tape(build, arrays)
    assert got_val == pytest.approx(mirror(arrays), rel=1e-12, abs=1e-12)
    want = numeric_grads(mirror, arrays)
    assert_grads_close(got_grads, want, rtol=rtol)


class TestFiniteDifference:
    def test_add_broadcast(self, rng):
        arrays = {"a": crandn(rng, 3, 2), "b": rng.standard_normal(2)}
        check_op(lambda t, n: ad.sum_abs2(ad.add(n["a"], n["b"])),
                 lambda v: float(np.sum(np.abs(v["a"] + v["b"]) ** 2)),
                 arrays)

    def test_sub(self, rng):
        arrays = {"a": crandn(rng, 2, 3), "b": crandn(rng, 2, 3)}
        check_op(lambda t, n: ad.sum_abs2(ad.sub(n["a"], n["b"])),
                 lambda v: float(np.sum(np.abs(v["a"] - v["b"]) ** 2)),
                 arrays)

    def test_mul_broadcast(self, rng):
        arrays = {"a": crandn(rng, 3, 2), "b": crandn(rng, 2)}
        check_op(lambda t, n: ad.sum_abs2(ad.mul(n["a"], n["b"])),
                 lambda v: float(np.sum(np.abs(v["a"] * v["b"]) ** 2)),
                 arrays)

    def test_scale_complex_constant(self, rng):
        c = 0.7 - 0.3j
        arrays = {"a": crandn(rng, 4)}
        check_op(lambda t, n: ad.sum_abs2(ad.mul(n["a"], c)),
                 lambda v: float(np.sum(np.abs(c * v["a"]) ** 2)),
                 arrays)

    def test_matmul(self, rng):
        arrays = {"a": crandn(rng, 3, 4), "b": crandn(rng, 4, 2)}
        check_op(lambda t, n: ad.sum_abs2(ad.matmul(n["a"], n["b"])),
                 lambda v: float(np.sum(np.abs(v["a"] @ v["b"]) ** 2)),
                 arrays)

    def test_hermitian(self, rng):
        w = crandn(rng, 3, 2)
        arrays = {"a": crandn(rng, 3, 4)}
        check_op(lambda t, n: ad.sum_abs2(ad.matmul(ad.hermitian(n["a"]), w)),
                 lambda v: float(np.sum(np.abs(v["a"].conj().T @ w) ** 2)),
                 arrays)

    def test_take(self, rng):
        # entry 0 is read twice, entry 2 once, entry 1 never (zero gradient)
        arrays = {"s": rng.standard_normal(3), "a": crandn(rng, 4)}
        check_op(lambda t, n: ad.sum_abs2(ad.add(ad.mul(n["a"], ad.take(n["s"], 0)),
                                                 ad.mul(ad.take(n["s"], 2), ad.take(n["s"], 0)))),
                 lambda v: float(np.sum(np.abs(v["a"] * v["s"][0] + v["s"][2] * v["s"][0]) ** 2)),
                 arrays)

    def test_relu(self, rng):
        # keep values away from the kink
        x = rng.uniform(0.1, 1.0, (4, 5)) * rng.choice([-1.0, 1.0], (4, 5))
        arrays = {"x": x}
        check_op(lambda t, n: ad.sum_abs2(ad.relu(n["x"])),
                 lambda v: float(np.sum(np.maximum(v["x"], 0.0) ** 2)),
                 arrays)

    @staticmethod
    def _soft_np(x, lam):
        mag = np.abs(x)
        keep = np.maximum(mag - lam, 0.0)
        with np.errstate(invalid="ignore"):
            return np.where(mag > 0, x * keep / np.where(mag > 0, mag, 1.0), 0.0)

    def test_soft_threshold_wrt_input(self, rng):
        lam = 0.6
        # magnitudes kept away from the threshold kink
        mag = np.concatenate([rng.uniform(0.1, 0.4, 4), rng.uniform(0.9, 2.0, 5)])
        ph = rng.uniform(0, 2 * np.pi, 9)
        arrays = {"x": (mag * np.exp(1j * ph)).reshape(3, 3)}
        check_op(lambda t, n: ad.sum_abs2(ad.soft_threshold(n["x"], lam)),
                 lambda v: float(np.sum(np.abs(self._soft_np(v["x"], lam)) ** 2)),
                 arrays)

    def test_soft_threshold_wrt_threshold(self, rng):
        x = crandn(rng, 6) * 2.0
        x = x[np.abs(np.abs(x) - 0.5) > 0.1]
        arrays = {"lam": np.array(0.5)}
        check_op(lambda t, n: ad.sum_abs2(ad.soft_threshold(x, n["lam"])),
                 lambda v: float(np.sum(np.abs(self._soft_np(x, v["lam"])) ** 2)),
                 arrays)

    @pytest.mark.parametrize("x_shape, w_shape, x_trainable", [
        ((2, 4, 4, 2), (3, 1, 2, 3), True),
        ((2, 7, 3, 2), (3, 1, 2, 3), True),
        ((2, 5, 1, 2), (3, 1, 2, 2), True),
        ((1, 5, 3, 2), (3, 1, 2, 4), True),
        ((1, 6, 4, 1), (5, 1, 1, 2), True),
        ((2, 7, 3, 2), (3, 1, 2, 3), False),
    ], ids=["square", "tall-narrow", "width-1", "2-to-4-channels", "kernel-5",
            "plain-input"])
    def test_conv2d(self, rng, x_shape, w_shape, x_trainable):
        x = rng.standard_normal(x_shape)
        arrays = {"w": rng.standard_normal(w_shape) * 0.5}
        if x_trainable:
            arrays["x"] = x
        check_op(lambda t, n: ad.sum_abs2(ad.conv2d(n.get("x", x), n["w"])),
                 lambda v: float(np.sum(conv2d_reference(v.get("x", x), v["w"]) ** 2)),
                 arrays, rtol=3e-5)

    def test_batch_norm(self, rng):
        eps = 0.1

        def mirror(v):
            x, gamma, beta = v["x"], v["gamma"], v["beta"]
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            out = gamma * (x - mu) / np.sqrt(var + eps) + beta
            return float(np.sum(out ** 2))

        arrays = {"x": rng.standard_normal((6, 3)),
                  "gamma": rng.uniform(0.5, 1.5, 3),
                  "beta": rng.standard_normal(3)}
        check_op(lambda t, n: ad.sum_abs2(
                     ad.batch_norm(n["x"], n["gamma"], n["beta"], eps=eps)[0]),
                 mirror, arrays, rtol=3e-5)

    def test_sum_abs2_grad_is_2x(self, rng):
        x = crandn(rng, 5)
        tape = ad.Tape()
        xn = tape.leaf(x, trainable=True, name="x")
        grads = tape.backward(ad.sum_abs2(xn))
        np.testing.assert_allclose(grads["x"], 2.0 * x, rtol=1e-12)


class TestOpValues:
    def test_soft_threshold_literals(self):
        out = ad.soft_threshold(np.array([2.0, 0.3]), np.array([0.5, 1.0]))
        np.testing.assert_allclose(out, [1.5, 0.0], atol=1e-15)
        z = 2.0 * np.exp(1j * np.pi / 4)
        out = ad.soft_threshold(np.array([z]), 1.0)
        np.testing.assert_allclose(out, [np.exp(1j * np.pi / 4)], atol=1e-15)

    def test_soft_threshold_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ad.soft_threshold(np.ones(3), -0.1)

    def test_conv2d_delta_kernel_is_identity(self, rng):
        x = rng.standard_normal((1, 5, 5, 1))
        w = np.zeros((3, 1, 1, 1))
        w[1, 0, 0, 0] = 1.0
        out = ad.conv2d(x, w)
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_conv2d_zero_kernel(self, rng):
        x = rng.standard_normal((1, 4, 4, 2))
        w = np.zeros((3, 1, 2, 1))
        out = ad.conv2d(x, w)
        assert np.all(out == 0.0)

    def test_conv2d_ones_counts_padded_window(self):
        x = np.ones((1, 3, 3, 1))
        w = np.ones((3, 1, 1, 1))
        out = ad.conv2d(x, w)[0, :, :, 0]
        np.testing.assert_array_equal(out, [[2.0] * 3, [3.0] * 3, [2.0] * 3])

    def test_conv2d_matches_scipy(self, rng):
        scipy_signal = pytest.importorskip("scipy.signal")
        x = rng.standard_normal((1, 6, 5, 1))
        w = rng.standard_normal((3, 1, 1, 1))
        out = ad.conv2d(x, w)[0, :, :, 0]
        want = scipy_signal.correlate2d(x[0, :, :, 0], w[:, :, 0, 0],
                                        mode="same", boundary="fill")
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_conv2d_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            ad.conv2d(np.zeros((1, 4, 4, 1)), np.zeros((2, 1, 1, 1)))

    @pytest.mark.parametrize("kw", [3, 2])
    def test_conv2d_kernel_wider_than_one_column_rejected(self, kw):
        with pytest.raises(ValueError, match="k x 1"):
            ad.conv2d(np.zeros((1, 4, 4, 1)), np.zeros((3, kw, 1, 1)))

    def test_batch_norm_two_point_literal(self):
        x = np.array([[1.0], [3.0]])
        out, mean, var = ad.batch_norm(x, np.ones(1), np.zeros(1), eps=1e-12)
        np.testing.assert_allclose(out, [[-1.0], [1.0]], atol=1e-6)
        np.testing.assert_array_equal(mean, [2.0])
        np.testing.assert_array_equal(var, [1.0])

    def test_batch_norm_zero_gamma_gives_beta(self, rng):
        x = rng.standard_normal((5, 3))
        beta = np.array([0.7, -0.2, 1.1])
        out, _, _ = ad.batch_norm(x, np.zeros(3), beta, eps=1e-5)
        np.testing.assert_allclose(out, np.broadcast_to(beta, (5, 3)), atol=1e-12)

    def test_batch_norm_standardized_passthrough(self, rng):
        x = rng.standard_normal((50, 2))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out, _, _ = ad.batch_norm(x, np.ones(2), np.zeros(2), eps=1e-12)
        np.testing.assert_allclose(out, x, atol=1e-5)

    def test_batch_norm_statistics_are_numpys(self, rng):
        # the denoiser folds these into its running buffers: they must be the
        # bits of x.mean and x.var over the batch axes
        x = rng.standard_normal((4, 5, 3, 6))
        tape = ad.Tape()
        _, mean, var = ad.batch_norm(tape.leaf(x), np.ones(6), np.zeros(6), eps=1e-5)
        np.testing.assert_array_equal(mean, x.mean(axis=(0, 1, 2)))
        np.testing.assert_array_equal(var, x.var(axis=(0, 1, 2)))

    def test_adjoint_identity(self, rng):
        A = crandn(rng, 5, 3)
        x = crandn(rng, 3)
        y = crandn(rng, 5)
        lhs = np.vdot(y, A @ x)
        rhs = np.vdot(A.conj().T @ y, x)
        assert abs(lhs - rhs) < 1e-10
        out = ad.matmul(ad.hermitian(A), y)
        np.testing.assert_allclose(out, A.conj().T @ y, atol=1e-12)


class TestTapeMechanics:
    def test_loss_must_be_real_scalar(self, rng):
        tape = ad.Tape()
        x = tape.leaf(crandn(rng, 3), trainable=True, name="x")
        with pytest.raises(ValueError):
            tape.backward(ad.matmul(x, np.ones(3)))   # complex scalar
        with pytest.raises(ValueError):
            tape.backward(x)                   # not a scalar

    def test_unreachable_param_gets_zero_grad(self, rng):
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal(3), trainable=True, name="x")
        unused = tape.leaf(crandn(rng, 2, 2), trainable=True, name="unused")
        grads = tape.backward(ad.sum_abs2(x))
        np.testing.assert_array_equal(grads["unused"], np.zeros((2, 2), dtype=complex))
        assert grads["unused"].shape == unused.value.shape

    def test_trainable_leaf_requires_name(self):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            tape.leaf(np.ones(2), trainable=True)

    def test_cross_tape_mixing_rejected(self, rng):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.leaf(np.ones(2))
        b = t2.leaf(np.ones(2))
        with pytest.raises(ValueError):
            ad.add(a, b)

    def test_plain_operands_compute_eagerly(self, rng):
        A, B = crandn(rng, 3, 4), crandn(rng, 4, 2)
        out = ad.matmul(A, B)
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, A @ B)
        tape = ad.Tape()
        a = tape.leaf(A, trainable=True, name="a")
        node = ad.matmul(a, B)                 # B becomes a constant of a's tape
        assert isinstance(node, ad.Node) and len(tape.records) == 1
        np.testing.assert_array_equal(node.value, out)
        np.testing.assert_array_equal(ad.value(node), ad.value(out))

    def test_constants_get_no_gradient(self, rng, monkeypatch):
        received = []
        accumulate = ad.Tape._accumulate

        def spy(self, grads, node_id, contrib):
            received.append(node_id)
            accumulate(self, grads, node_id, contrib)

        monkeypatch.setattr(ad.Tape, "_accumulate", spy)
        tape = ad.Tape()
        w = tape.leaf(rng.standard_normal((3, 1, 2, 2)), trainable=True, name="w")
        a = tape.leaf(crandn(rng, 4, 3), trainable=True, name="a")
        loss = ad.add(ad.sum_abs2(ad.sub(ad.conv2d(rng.standard_normal((1, 4, 3, 2)), w),
                                         rng.standard_normal((1, 4, 3, 2)))),
                      ad.sum_abs2(ad.matmul(ad.hermitian(crandn(rng, 4, 5)),
                                            ad.matmul(a, crandn(rng, 3, 2)))))
        tape.backward(loss)
        constants = [i for i, v in enumerate(tape.values)
                     if not tape.needs_grad[i]]
        assert len(constants) == 4               # the four plain operands
        assert received and not set(received) & set(constants)
        assert {w.id, a.id} <= set(received)

    def test_used_tape_fails_clearly(self, rng):
        tape = ad.Tape()
        x = tape.leaf(crandn(rng, 3), trainable=True, name="x")
        y = ad.mul(x, 2.0)
        loss = ad.sum_abs2(y)
        assert float(loss.value) > 0
        grads = tape.backward(loss)
        np.testing.assert_allclose(grads["x"], 8.0 * x.value, rtol=1e-12)
        with pytest.raises(ValueError, match="used up"):
            tape.backward(loss)
        for freed in (y, loss):
            with pytest.raises(ValueError, match="used up"):
                freed.value

    def test_grad_accumulates_over_reuse(self, rng):
        x = crandn(rng, 3)
        tape = ad.Tape()
        xn = tape.leaf(x, trainable=True, name="x")
        loss = ad.sum_abs2(ad.add(xn, xn))
        grads = tape.backward(loss)
        np.testing.assert_allclose(grads["x"], 8.0 * x, rtol=1e-12)

    def test_shared_and_scalar_contributions_are_not_written_into(self, rng):
        # add hands p and q views of one g, and each gets a later contribution;
        # lam is a 0-d leaf used twice, whose contributions are numpy scalars
        mag = np.concatenate([rng.uniform(0.1, 0.4, 6), rng.uniform(0.9, 2.0, 6)])
        z = rng.permutation(mag) * np.exp(2j * np.pi * rng.uniform(size=12))
        arrays = {"x": z[:6].reshape(2, 3), "y": z[6:].reshape(2, 3),
                  "lam": np.array(0.6)}
        soft = TestFiniteDifference._soft_np

        def build(t, n):
            p = ad.soft_threshold(n["x"], n["lam"])
            q = ad.soft_threshold(n["y"], n["lam"])
            ep, eq = ad.sum_abs2(p), ad.sum_abs2(q)
            return ad.add(ad.add(ad.sum_abs2(ad.add(p, q)), ep), eq)

        def mirror(v):
            p, q = soft(v["x"], v["lam"]), soft(v["y"], v["lam"])
            return float(np.sum(np.abs(p + q) ** 2) + np.sum(np.abs(p) ** 2)
                         + np.sum(np.abs(q) ** 2))

        check_op(build, mirror, arrays)


class TestPrecision:
    """A gradient takes its node's dtype, whatever the constants around it."""

    def test_float32_leaf_times_float64_constant(self, rng):
        x = rng.standard_normal(5).astype(np.float32)
        c = rng.standard_normal(5)
        tape = ad.Tape()
        xn = tape.leaf(x, trainable=True, name="x")
        loss = ad.mul(ad.sum_abs2(ad.mul(xn, c)), 0.5)
        assert loss.value.dtype == np.float64           # the constant promotes
        g = tape.backward(loss)["x"]
        assert g.dtype == np.float32
        np.testing.assert_allclose(g, c * c * x, rtol=1e-6)

    def test_complex64_leaf_gets_complex64_gradient(self, rng):
        z = crandn(rng, 3, 4).astype(np.complex64)
        B = crandn(rng, 4, 2)
        tape = ad.Tape()
        zn = tape.leaf(z, trainable=True, name="z")
        loss = ad.mul(ad.sum_abs2(ad.matmul(zn, B)), 0.5)
        g = tape.backward(loss)["z"]
        assert g.dtype == np.complex64
        np.testing.assert_allclose(g, (z @ B) @ B.conj().T, rtol=1e-5)

    def test_complex_contribution_into_float32_node_is_its_real_part(self, rng):
        a = rng.standard_normal(4).astype(np.float32)
        c = crandn(rng, 4)
        tape = ad.Tape()
        an = tape.leaf(a, trainable=True, name="a")
        g = tape.backward(ad.sum_abs2(ad.mul(an, c)))["a"]
        assert g.dtype == np.float32
        np.testing.assert_allclose(g, 2.0 * np.abs(c) ** 2 * a, rtol=1e-6)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


class TestProxProperties:
    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8),
           st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_shrinks_magnitude_by_lambda(self, entries, lam):
        x = np.array([re + 1j * im for re, im in entries])
        out = ad.soft_threshold(x, lam)
        want = np.maximum(np.abs(x) - lam, 0.0)
        np.testing.assert_allclose(np.abs(out), want, rtol=1e-9, atol=1e-9)

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_zero_threshold_is_identity(self, entries):
        x = np.array([re + 1j * im for re, im in entries])
        np.testing.assert_array_equal(ad.soft_threshold(x, 0.0), x)

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8),
           st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_phase_preserved_on_active_set(self, entries, lam):
        x = np.array([re + 1j * im for re, im in entries])
        out = ad.soft_threshold(x, lam)
        active = np.abs(x) > max(lam, 1e-12)
        if np.any(active):
            np.testing.assert_allclose(np.angle(out[active]), np.angle(x[active]),
                                       atol=1e-9)


class TestAdam:
    def test_zero_grad_keeps_params(self):
        params = {"w": np.array([1.0 + 2.0j, -0.5 + 0.0j])}
        state = adam_init(params, lr=1e-3)
        new = adam_step(params, {"w": np.zeros(2, dtype=complex)}, state)
        np.testing.assert_array_equal(new["w"], params["w"])

    def test_single_step_matches_hand_formula(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        theta, g = 1.0, 0.5
        params = {"w": np.array(theta)}
        state = adam_init(params, lr=lr)
        new = adam_step(params, {"w": np.array(g)}, state)
        m_hat = ((1 - b1) * g) / (1 - b1)
        v_hat = ((1 - b2) * g * g) / (1 - b2)
        want = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert float(new["w"]) == pytest.approx(want, rel=1e-15)

    def test_descends_complex_quadratic(self):
        target = 2.0 + 3.0j
        params = {"z": np.array(0.0 + 0.0j)}
        state = adam_init(params, lr=0.1)
        for _ in range(200):
            g = 2.0 * (params["z"] - target)
            params = adam_step(params, {"z": g}, state)
        assert abs(params["z"] - target) < 0.05

    def test_phase_equivariance(self):
        rot = np.exp(1j * 0.7)
        runs = []
        for phase in (1.0, rot):
            params = {"z": np.array(0.0 + 0.0j)}
            state = adam_init(params, lr=0.05)
            traj = []
            for _ in range(5):
                g = 2.0 * (params["z"] - phase * (1.0 + 0.5j))
                params = adam_step(params, {"z": g}, state)
                traj.append(complex(params["z"]))
            runs.append(np.array(traj))
        np.testing.assert_allclose(runs[1], rot * runs[0], rtol=1e-12)
