"""Row energy, the residual CNN, support selection, and stage-1 training."""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import polarce.autodiff as ad
import polarce.optim as optim_mod
from polarce.channel import draw_scene, noise_var_for_snr, ris_side_rows, simulate_pilots
from polarce.denoiser import (
    Stage1Config, _residual_loss, denoise, denoiser_forward, init_denoiser,
    make_stage1_dataset, row_energy, select_support, stage1_loss, train_stage1,
)
from polarce.harness import load_config
from polarce.polar import nearest_grid_index
from polarce.rng import substream

from helpers import assert_grads_close, conv2d_reference, numeric_grads

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
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
        np.testing.assert_allclose(got, np.abs(small_bs_dict.F.conj().T @ y[:, 0]),
                                   atol=1e-14)

    def test_row_norms(self, small_bs_dict, rng):
        Y = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        want = [math.sqrt(sum(abs(np.vdot(small_bs_dict.F[:, g], Y[:, t])) ** 2
                              for t in range(5)))
                for g in range(small_bs_dict.F.shape[1])]
        np.testing.assert_allclose(row_energy(Y, small_bs_dict), want, rtol=1e-12)

    def test_scales_by_modulus(self, small_bs_dict, rng):
        Y = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        a = -1.1 + 0.4j
        np.testing.assert_allclose(row_energy(a * Y, small_bs_dict),
                                   abs(a) * row_energy(Y, small_bs_dict), rtol=1e-12)

    def test_blind_to_slot_phases(self, small_bs_dict, rng):
        """A phase per pilot slot, e.g. a path weight x_l^H e_t, leaves it unchanged."""
        Y = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        phases = np.exp(1j * rng.uniform(-math.pi, math.pi, 5))
        np.testing.assert_allclose(row_energy(Y * phases, small_bs_dict),
                                   row_energy(Y, small_bs_dict), rtol=1e-12)

    def test_on_grid_path_peaks_at_its_row(self, small_bs_dict):
        j = 5
        Y = np.outer(small_bs_dict.F[:, j], np.ones(12))
        c = row_energy(Y, small_bs_dict)
        assert int(np.argmax(c)) == j
        assert c[j] == pytest.approx(math.sqrt(12), rel=1e-12)

    def test_peak_pick_hits_more_often_than_slot_average(self, small_system,
                                                         small_bs_dict, small_E):
        """Peak-pick on the row energy finds each path's nearest grid row more
        often than peak-pick on the coherent slot average F^H Y 1/tau, which
        weights path l by x_l^H e_bar and so fades some paths at any SNR."""
        hits = {"energy": 0, "average": 0}
        L = small_system.paths_bs
        for t in range(150):
            scene = draw_scene(small_system, substream(41, "hit", t))
            nv = noise_var_for_snr(scene, small_system, small_E, 20.0)
            Y = simulate_pilots(scene, small_system, small_E, nv,
                                substream(41, "hit-noise", t))
            want = {nearest_grid_index(small_bs_dict.grid, p.angle, p.distance)
                    for p in scene.bridge_bs}
            stats = {"energy": row_energy(Y, small_bs_dict),
                     "average": small_bs_dict.F.conj().T @ Y.mean(axis=1)}
            for name, c in stats.items():
                got = select_support(c[:, None], L, guard=2)
                hits[name] += len(want & set(got.tolist()))
        assert hits["energy"] > hits["average"] + 0.05 * 150 * L


class TestDenoise:
    def test_fresh_network_is_identity(self, rng):
        dp = init_denoiser(TINY, substream(0, "init"))
        C = np.abs(rng.standard_normal((2, 16, 1)))
        R, C_hat = denoise(C, dp)
        np.testing.assert_array_equal(R, np.zeros_like(C))
        np.testing.assert_array_equal(C_hat, C)

    def test_residual_identity_exact(self, rng):
        dp = init_denoiser(TINY, substream(0, "init"))
        # force a nonzero residual head
        dp.params[f"conv{TINY.layers - 1}_w"] = 0.05 * substream(
            1, "head").standard_normal(dp.params[f"conv{TINY.layers - 1}_w"].shape)
        C = np.abs(rng.standard_normal((2, 16, 1)))
        R, C_hat = denoise(C, dp)
        assert np.any(R != 0)
        np.testing.assert_array_equal(C_hat, C - R)

    def test_batched_matches_single(self, rng):
        dp = init_denoiser(TINY, substream(0, "init"))
        dp.params[f"conv{TINY.layers - 1}_w"] = 0.05 * substream(
            1, "head").standard_normal(dp.params[f"conv{TINY.layers - 1}_w"].shape)
        Cb = np.abs(rng.standard_normal((3, 16, 1)))
        Rb, Cb_hat = denoise(Cb, dp)
        for i in range(3):
            R, C_hat = denoise(Cb[i:i + 1], dp)
            np.testing.assert_array_equal(Rb[i], R[0])
            np.testing.assert_array_equal(Cb_hat[i], C_hat[0])

    def test_identical_samples_get_identical_outputs(self, rng):
        dp = init_denoiser(TINY, substream(0, "init"))
        dp.params[f"conv{TINY.layers - 1}_w"] = 0.05 * substream(
            1, "head").standard_normal(dp.params[f"conv{TINY.layers - 1}_w"].shape)
        one = np.abs(rng.standard_normal((16, 1)))
        Rb, _ = denoise(np.stack([one, one]), dp)
        np.testing.assert_array_equal(Rb[0], Rb[1])

    def test_inference_is_deterministic(self, rng):
        dp = init_denoiser(TINY, substream(0, "init"))
        C = np.abs(rng.standard_normal((2, 16, 1)))
        R1, _ = denoise(C, dp)
        R2, _ = denoise(C, dp)
        np.testing.assert_array_equal(R1, R2)

    def test_zero_input_survives_normalization(self):
        dp = init_denoiser(TINY, substream(0, "init"))
        R, C_hat = denoise(np.zeros((2, 16, 1)), dp)
        assert np.all(np.isfinite(R)) and np.all(C_hat == 0)

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError):
            init_denoiser(Stage1Config(layers=1), substream(0, "x"))

    @pytest.mark.parametrize("profile, entries", [("desk", 3168), ("paper", 6240)])
    def test_kernels_are_k_by_1(self, profile, entries):
        cfg = load_config(CONFIGS / f"{profile}.json").stage1
        kernels = [v for name, v in init_denoiser(cfg, substream(0, "init")).params.items()
                   if name.endswith("_w")]
        assert all(v.shape[:2] == (cfg.kernel, 1) for v in kernels)
        assert sum(v.size for v in kernels) == entries

    def test_init_is_the_middle_column_of_the_square_draw(self):
        # the draws and scale of the square kernels, so trained bytes stay put
        k, width = 5, 4
        dp = init_denoiser(Stage1Config(layers=3, width=width, kernel=k), substream(0, "init"))
        rng = substream(0, "init")
        for name, cin in (("conv0_w", 1), ("conv1_w", width)):
            square = rng.standard_normal((k, k, cin, width)) * math.sqrt(2.0 / (k * k * cin))
            assert dp.params[name].tobytes() == square[:, k // 2:k // 2 + 1].tobytes()


class TestDenoiserGradients:
    def test_training_loss_matches_finite_differences(self, rng):
        cfg = Stage1Config(layers=4, width=4, kernel=3, bn_eps=1e-3)
        dp = init_denoiser(cfg, substream(2, "init"))
        params = {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in dp.params.items()}
        x = rng.standard_normal((2, 6, 3, 1))
        target = rng.standard_normal((2, 6, 3, 1))

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
        before = dict(dp.buffers)
        tape = ad.Tape()
        out = denoiser_forward(x, dp, training=True, tape=tape)
        loss = _residual_loss(out, target)
        want_loss, want_stats = forward(params)
        assert float(loss.value) == pytest.approx(want_loss, rel=1e-12)
        # the forward pass folds each BN layer's batch statistics into its buffers
        assert dp.buffers.keys() == before.keys() == {
            f"bn{i}_{s}" for i in want_stats for s in ("mean", "var")}
        mo = cfg.bn_momentum
        for i, (mu, var) in want_stats.items():
            np.testing.assert_allclose(dp.buffers[f"bn{i}_mean"],
                                       (1 - mo) * before[f"bn{i}_mean"] + mo * mu,
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(dp.buffers[f"bn{i}_var"],
                                       (1 - mo) * before[f"bn{i}_var"] + mo * var, rtol=1e-12)
        grads = tape.backward(loss)
        assert_grads_close(grads, numeric_grads(mirror, params), rtol=3e-5)
        # the data input is a constant of the tape; nothing flows back to it
        x_leaf = tape.records[0].ins[0]
        assert not tape.needs_grad[x_leaf] and x_leaf not in tape.trainable


class TestSupportSelection:
    def test_exact_sparse_rows(self):
        C = np.zeros((16, 2), dtype=complex)
        C[3] = 1.0
        C[7] = 0.75
        np.testing.assert_array_equal(select_support(C, 2, guard=0), [3, 7])

    def test_ties_resolve_to_lower_index(self):
        C = np.zeros((16, 1), dtype=complex)
        C[2] = 0.5
        C[5] = 0.5
        np.testing.assert_array_equal(select_support(C, 1, guard=0), [2])

    def test_guard_band_excludes_neighbors(self):
        C = np.zeros((16, 1), dtype=complex)
        C[4] = 1.0
        C[5] = 0.9          # would be picked next without the guard
        C[10] = 0.5
        np.testing.assert_array_equal(select_support(C, 2, guard=1), [4, 10])

    def test_indices_sorted_distinct(self, rng):
        C = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        idx = select_support(C, 4, guard=0)
        assert idx.size == 4
        assert np.all(np.diff(idx) > 0)

    def test_peak_pick_on_grid(self, small_bs_dict):
        j = 11
        Y = np.outer(small_bs_dict.F[:, j], np.ones(12))
        idx = select_support(row_energy(Y, small_bs_dict)[:, None], 1, guard=0)
        np.testing.assert_array_equal(idx, [j])

    def test_peak_pick_noise_only(self, rng):
        c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        idx = select_support(c[:, None], 3, guard=1)
        assert idx.size == 3
        assert np.all(np.diff(idx) > 0)


class TestStage1Dataset:
    def test_structure_and_targets(self, small_system, small_bs_dict, small_E):
        scenes = [draw_scene(small_system, substream(31, "sc", t)) for t in range(4)]
        ds = make_stage1_dataset(small_system, small_bs_dict, small_E, scenes,
                                 [0.0] * 4, substream(31, "nz"))
        n_grid = small_bs_dict.F.shape[1]
        assert ds.C.shape == ds.X.shape == (4, n_grid, 1)
        for i, scene in enumerate(scenes):
            # noiseless input is the row energy of sqrt(p) G E
            Y = math.sqrt(small_system.power) * scene.G[0] @ small_E
            np.testing.assert_allclose(ds.C[i, :, 0],
                                       np.linalg.norm(small_bs_dict.F.conj().T @ Y, axis=1),
                                       rtol=1e-12)
            # sqrt(p) ||E^H x_l|| at each path's nearest grid row, zero elsewhere
            norms = math.sqrt(small_system.power) * np.linalg.norm(
                small_E.conj().T @ ris_side_rows(scene, small_system), axis=0)
            rows = [nearest_grid_index(small_bs_dict.grid, p.angle, p.distance)
                    for p in scene.bridge_bs]
            assert set(np.flatnonzero(ds.X[i, :, 0]).tolist()) == set(rows)
            if len(set(rows)) == len(rows):
                np.testing.assert_allclose(ds.X[i, rows, 0], norms, rtol=1e-12)

    def test_paths_on_one_row_add_their_slot_responses(self, small_system,
                                                       small_bs_dict, small_E):
        scene = draw_scene(small_system, substream(32, "sc", 0))
        twin = dataclasses.replace(scene, bridge_bs=(scene.bridge_bs[0],) * 2)
        ds = make_stage1_dataset(small_system, small_bs_dict, small_E, [twin],
                                 [0.0], substream(32, "nz"))
        g = nearest_grid_index(small_bs_dict.grid, twin.bridge_bs[0].angle,
                               twin.bridge_bs[0].distance)
        resp = small_E.conj().T @ ris_side_rows(twin, small_system).sum(axis=1)
        assert np.flatnonzero(ds.X[0, :, 0]).tolist() == [g]
        assert ds.X[0, g, 0] == pytest.approx(
            math.sqrt(small_system.power) * np.linalg.norm(resp), rel=1e-12)

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
        step = optim_mod.adam_step

        def spy(params, grads, state):
            for arrays in (params, grads, state.m, state.v):
                seen.update(a.dtype for a in arrays.values())
            return step(params, grads, state)

        monkeypatch.setattr(optim_mod, "adam_step", spy)
        ds = _noisy_dataset(small_system, small_bs_dict, small_E, 16, 0.05, 9, "r")
        dp, _ = train_stage1(ds, TINY, seed=11)
        assert seen == {np.dtype(np.float32)}
        assert {a.dtype for a in [*dp.params.values(), *dp.buffers.values()]} \
            == {np.dtype(np.float64)}
