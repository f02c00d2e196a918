"""Row-compression, the residual CNN, support selection, and stage-1 training."""
import math

import numpy as np
import pytest

import polarce.autodiff as ad
import polarce.denoiser as denoiser_mod
from polarce.channel import draw_scene, simulate_pilots
from polarce.denoiser import (
    Stage1Config, _residual_loss, denoise, denoiser_forward, init_denoiser,
    make_stage1_dataset, row_energy, select_support, stage1_loss, train_stage1,
)
from polarce.polar import nearest_grid_index
from polarce.rng import substream

from helpers import assert_grads_close, conv2d_reference, numeric_grads

TINY = Stage1Config(layers=3, width=4, kernel=3, lr=1e-3, batch=8, episodes=4,
                    train_size=32, val_size=8)


def _noisy_dataset(system, bs, E, count, nv, seed, label):
    scenes = [draw_scene(system, substream(seed, label, t)) for t in range(count)]
    return make_stage1_dataset(system, bs, E, scenes, [nv] * count,
                               substream(seed, label + "-noise"))


class TestRowEnergy:
    def test_zero_input(self, small_bs_dict):
        Y = np.zeros((8, 12), dtype=complex)
        np.testing.assert_array_equal(row_energy(Y, small_bs_dict),
                                      np.zeros(small_bs_dict.F.shape[1]))

    def test_single_snapshot(self, small_bs_dict, rng):
        y = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
        got = row_energy(y, small_bs_dict)
        np.testing.assert_allclose(got, small_bs_dict.F.conj().T @ y[:, 0],
                                   atol=1e-14)

    def test_linearity(self, small_bs_dict, rng):
        y1 = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        y2 = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        a, b = 0.7 - 0.2j, -1.1 + 0.4j
        got = row_energy(a * y1 + b * y2, small_bs_dict)
        want = a * row_energy(y1, small_bs_dict) + b * row_energy(y2, small_bs_dict)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_on_grid_path_peaks_at_its_row(self, small_bs_dict):
        j = 5
        Y = np.outer(small_bs_dict.F[:, j], np.ones(12))
        c = row_energy(Y, small_bs_dict)
        assert int(np.argmax(np.abs(c))) == j
        assert abs(c[j]) == pytest.approx(1.0, abs=1e-12)


class TestDenoise:
    def test_fresh_network_is_identity(self, rng):
        dp = init_denoiser(TINY, substream(0, "init"))
        C = rng.standard_normal((2, 16, 2)) + 1j * rng.standard_normal((2, 16, 2))
        R, C_hat = denoise(C, dp)
        np.testing.assert_array_equal(R, np.zeros_like(C))
        np.testing.assert_array_equal(C_hat, C)

    def test_residual_identity_exact(self, rng):
        dp = init_denoiser(TINY, substream(0, "init"))
        # force a nonzero residual head
        dp.params[f"conv{TINY.layers - 1}_w"] = 0.05 * substream(
            1, "head").standard_normal(dp.params[f"conv{TINY.layers - 1}_w"].shape)
        C = rng.standard_normal((2, 16, 2)) + 1j * rng.standard_normal((2, 16, 2))
        R, C_hat = denoise(C, dp)
        assert np.any(R != 0)
        np.testing.assert_array_equal(C_hat, C - R)

    def test_batched_matches_single(self, rng):
        dp = init_denoiser(TINY, substream(0, "init"))
        dp.params[f"conv{TINY.layers - 1}_w"] = 0.05 * substream(
            1, "head").standard_normal(dp.params[f"conv{TINY.layers - 1}_w"].shape)
        Cb = rng.standard_normal((3, 16, 2)) + 1j * rng.standard_normal((3, 16, 2))
        Rb, Cb_hat = denoise(Cb, dp)
        for i in range(3):
            R, C_hat = denoise(Cb[i:i + 1], dp)
            np.testing.assert_array_equal(Rb[i], R[0])
            np.testing.assert_array_equal(Cb_hat[i], C_hat[0])

    def test_identical_samples_get_identical_outputs(self, rng):
        dp = init_denoiser(TINY, substream(0, "init"))
        dp.params[f"conv{TINY.layers - 1}_w"] = 0.05 * substream(
            1, "head").standard_normal(dp.params[f"conv{TINY.layers - 1}_w"].shape)
        one = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        Rb, _ = denoise(np.stack([one, one]), dp)
        np.testing.assert_array_equal(Rb[0], Rb[1])

    def test_inference_is_deterministic(self, rng):
        dp = init_denoiser(TINY, substream(0, "init"))
        C = rng.standard_normal((2, 16, 2)) + 1j * rng.standard_normal((2, 16, 2))
        R1, _ = denoise(C, dp)
        R2, _ = denoise(C, dp)
        np.testing.assert_array_equal(R1, R2)

    def test_zero_input_survives_normalization(self):
        dp = init_denoiser(TINY, substream(0, "init"))
        R, C_hat = denoise(np.zeros((2, 16, 2), dtype=complex), dp)
        assert np.all(np.isfinite(R)) and np.all(C_hat == 0)

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError):
            init_denoiser(Stage1Config(layers=1), substream(0, "x"))


class TestDenoiserGradients:
    def test_training_loss_matches_finite_differences(self, rng):
        cfg = Stage1Config(layers=4, width=4, kernel=3, bn_eps=1e-3)
        dp = init_denoiser(cfg, substream(2, "init"))
        params = {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in dp.params.items()}
        x = rng.standard_normal((2, 6, 3, 2))
        target = rng.standard_normal((2, 6, 3, 2))

        def forward(v):
            # conv, batch-stat BN and ReLU written out, independent of the tape;
            # returns the loss and each BN layer's batch mean and variance
            stats = {}
            h = np.maximum(conv2d_reference(x, v["conv0_w"]) + v["conv0_b"], 0.0)
            for i in range(1, cfg.layers - 1):
                z = conv2d_reference(h, v[f"conv{i}_w"])
                mu, var = z.mean(axis=(0, 1, 2)), z.var(axis=(0, 1, 2))
                stats[i] = (mu, var)
                z = v[f"bn{i}_gamma"] * (z - mu) / np.sqrt(var + cfg.bn_eps) + v[f"bn{i}_beta"]
                h = np.maximum(z, 0.0)
            out = conv2d_reference(h, v[f"conv{cfg.layers - 1}_w"])
            return float(np.sum((out - target) ** 2) / (2.0 * x.shape[0])), stats

        def mirror(v):
            return forward(v)[0]

        dp.params = {k: v.copy() for k, v in params.items()}
        tape = ad.Tape()
        out, stats = denoiser_forward(x, dp, training=True, tape=tape)
        loss = _residual_loss(out, target)
        want_loss, want_stats = forward(params)
        assert float(loss.value) == pytest.approx(want_loss, rel=1e-12)
        assert stats.keys() == want_stats.keys()
        for i, (mu, var) in want_stats.items():
            np.testing.assert_allclose(stats[i][0], mu, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(stats[i][1], var, rtol=1e-12)
        grads = tape.backward(loss)
        assert_grads_close(grads, numeric_grads(mirror, params), rtol=3e-5)
        # the data input is a constant of the tape; nothing flows back to it
        x_leaf = tape.records[0].ins[0]
        assert not tape.needs_grad[x_leaf] and x_leaf not in tape.trainable


class TestSupportSelection:
    def test_exact_sparse_rows(self, small_bs_dict):
        C = np.zeros((16, 2), dtype=complex)
        C[3] = 1.0
        C[7] = 0.75
        est = select_support(C, 2, small_bs_dict)
        np.testing.assert_array_equal(est.indices, [3, 7])
        np.testing.assert_allclose(est.A_hat, small_bs_dict.F[:, [3, 7]])

    def test_ties_resolve_to_lower_index(self, small_bs_dict):
        C = np.zeros((16, 1), dtype=complex)
        C[2] = 0.5
        C[5] = 0.5
        est = select_support(C, 1, small_bs_dict)
        np.testing.assert_array_equal(est.indices, [2])

    def test_guard_band_excludes_neighbors(self, small_bs_dict):
        C = np.zeros((16, 1), dtype=complex)
        C[4] = 1.0
        C[5] = 0.9          # would be picked next without the guard
        C[10] = 0.5
        est = select_support(C, 2, small_bs_dict, guard=1)
        np.testing.assert_array_equal(est.indices, [4, 10])

    def test_indices_sorted_distinct(self, small_bs_dict, rng):
        C = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        est = select_support(C, 4, small_bs_dict)
        assert est.indices.size == 4
        assert np.all(np.diff(est.indices) > 0)

    def test_peak_pick_on_grid(self, small_bs_dict):
        j = 11
        Y = np.outer(small_bs_dict.F[:, j], np.ones(12))
        est = select_support(row_energy(Y, small_bs_dict)[:, None], 1, small_bs_dict)
        np.testing.assert_array_equal(est.indices, [j])

    def test_peak_pick_noise_only(self, small_bs_dict, rng):
        c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        est = select_support(c[:, None], 3, small_bs_dict, guard=1)
        assert est.indices.size == 3
        assert np.all(np.diff(est.indices) > 0)


class TestStage1Dataset:
    def test_structure_and_targets(self, small_system, small_bs_dict, small_E):
        from polarce.channel import ris_side_rows
        scenes = [draw_scene(small_system, substream(31, "sc", t)) for t in range(4)]
        ds = make_stage1_dataset(small_system, small_bs_dict, small_E, scenes,
                                 [0.0] * 4, substream(31, "nz"))
        n_grid = small_bs_dict.F.shape[1]
        L = small_system.paths_bs
        assert ds.C.shape == (4, n_grid, L)
        assert ds.X.shape == (4, n_grid, L)
        e_bar = small_E.mean(axis=1)
        for i, scene in enumerate(scenes):
            # every input column replicates the same compressed row vector
            for l in range(1, L):
                np.testing.assert_array_equal(ds.C[i, :, l], ds.C[i, :, 0])
            # noiseless input equals the compression of sqrt(p) G e_bar
            want_cr = small_bs_dict.F.conj().T @ (
                math.sqrt(small_system.power) * scene.G[0] @ e_bar)
            np.testing.assert_allclose(ds.C[i, :, 0], want_cr, atol=1e-12)
            rows = ris_side_rows(scene, small_system)
            amps = math.sqrt(small_system.power) * (rows.conj().T @ e_bar)
            # one nonzero per target column, at the paths' nearest grid rows
            # in ascending order
            hits = []
            for l in range(L):
                col = ds.X[i, :, l]
                nz = np.flatnonzero(np.abs(col) > 0)
                assert nz.size == 1
                hits.append(int(nz[0]))
                assert complex(col[nz[0]]) in [pytest.approx(a, rel=1e-12)
                                               for a in amps]
            assert hits == sorted(nearest_grid_index(small_bs_dict.grid, p.angle, p.distance)
                                  for p in scene.bridge_bs)

    def test_deterministic(self, small_system, small_bs_dict, small_E):
        a = _noisy_dataset(small_system, small_bs_dict, small_E, 3, 0.01, 5, "d")
        b = _noisy_dataset(small_system, small_bs_dict, small_E, 3, 0.01, 5, "d")
        np.testing.assert_array_equal(a.C, b.C)
        np.testing.assert_array_equal(a.X, b.X)


class TestStage1Training:
    def test_zero_residual_dataset_keeps_loss_at_zero(self, small_system,
                                                      small_bs_dict, small_E):
        ds = _noisy_dataset(small_system, small_bs_dict, small_E, 16, 0.0, 6, "z")
        ds.X = ds.C.copy()               # target residual identically zero
        dp, trace = train_stage1(ds, TINY, seed=3)
        assert all(rec["loss"] == 0.0 for rec in trace)
        assert np.all(dp.params[f"conv{TINY.layers - 1}_w"] == 0.0)
        assert stage1_loss(ds, dp) == 0.0

    def test_loss_decreases_on_noisy_data(self, small_system, small_bs_dict,
                                          small_E):
        ds = _noisy_dataset(small_system, small_bs_dict, small_E, 32, 0.05, 7, "n")
        val = _noisy_dataset(small_system, small_bs_dict, small_E, 8, 0.05, 8, "v")
        init_loss = stage1_loss(ds, init_denoiser(TINY, substream(3, "stage1-init")))
        dp, trace = train_stage1(ds, TINY, seed=3, val=val)
        assert stage1_loss(ds, dp) < init_loss
        assert all("val_loss" in rec for rec in trace)

    def test_rerun_is_bit_identical(self, small_system, small_bs_dict, small_E):
        ds = _noisy_dataset(small_system, small_bs_dict, small_E, 16, 0.05, 9, "r")
        dp1, tr1 = train_stage1(ds, TINY, seed=11)
        dp2, tr2 = train_stage1(ds, TINY, seed=11)
        assert tr1 == tr2
        for k in dp1.params:
            np.testing.assert_array_equal(dp1.params[k], dp2.params[k])
        for k in dp1.buffers:
            np.testing.assert_array_equal(dp1.buffers[k], dp2.buffers[k])

    def test_divergence_raises(self, small_system, small_bs_dict, small_E):
        ds = _noisy_dataset(small_system, small_bs_dict, small_E, 16, 0.05, 9, "r")
        wild = Stage1Config(layers=3, width=4, lr=1e200, batch=8, episodes=3)
        with pytest.raises(RuntimeError):
            with np.errstate(all="ignore"):
                train_stage1(ds, wild, seed=0)

    def test_trains_in_float32_returns_float64(self, small_system, small_bs_dict,
                                               small_E, monkeypatch):
        seen = set()
        step = denoiser_mod.adam_step

        def spy(params, grads, state):
            for arrays in (params, grads, state.m, state.v):
                seen.update(a.dtype for a in arrays.values())
            return step(params, grads, state)

        monkeypatch.setattr(denoiser_mod, "adam_step", spy)
        ds = _noisy_dataset(small_system, small_bs_dict, small_E, 16, 0.05, 9, "r")
        dp, _ = train_stage1(ds, TINY, seed=11)
        assert seen == {np.dtype(np.float32)}
        assert {a.dtype for a in [*dp.params.values(), *dp.buffers.values()]} \
            == {np.dtype(np.float64)}
