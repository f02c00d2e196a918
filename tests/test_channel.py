"""Array responses, channel assembly, pilots, and SNR bookkeeping."""
import dataclasses
import math

import numpy as np
import pytest

from polarce.channel import (
    C_LIGHT, PathParams, SceneRealization, SystemConfig, build_channels, draw_scene,
    element_offsets, make_phase_matrix, noise_var_for_snr, ris_side_rows,
    simulate_pilots, steering_vector,
)
from polarce.rng import substream


class TestSteeringVector:
    def test_single_element(self):
        out = steering_vector(1, 0.3, 5.0, 0.01, 0.005)
        np.testing.assert_allclose(out, [1.0 + 0.0j], atol=1e-15)

    def test_broadside_far_field(self):
        out = steering_vector(4, 0.0, math.inf, 0.01, 0.005)
        np.testing.assert_allclose(out, np.full(4, 0.5), atol=1e-15)

    def test_hand_computed_near_field(self):
        lam = C_LIGHT / 30e9
        delta = 0.005
        theta, d = math.pi / 6, 2.0
        out = steering_vector(3, theta, d, lam, delta)
        u = math.sin(theta)
        k = 2.0 * math.pi / lam
        want = []
        for m in (-1, 0, 1):
            phase = -m * delta * u + (m * delta) ** 2 * (1 - u * u) / (2 * d)
            want.append(cmath_exp(-k * phase) / math.sqrt(3))
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_unit_norm(self, rng):
        lam = 0.01
        for _ in range(20):
            ang = rng.uniform(-1.4, 1.4)
            d = rng.uniform(0.6, 50.0) if rng.uniform() < 0.8 else math.inf
            v = steering_vector(17, ang, d, lam, lam / 2)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_far_field_limit(self):
        lam = 0.01
        near = steering_vector(16, 0.4, 1e6, lam, lam / 2)
        far = steering_vector(16, 0.4, math.inf, lam, lam / 2)
        assert np.max(np.abs(near - far)) < 1e-6

    def test_element_offsets_centered(self):
        np.testing.assert_array_equal(element_offsets(3), [-1, 0, 1])
        np.testing.assert_array_equal(element_offsets(4), [-2, -1, 0, 1])

    @pytest.mark.parametrize("angle,distance", [
        (math.pi / 2, 5.0), (-2.0, 5.0), (float("nan"), 5.0),
        (0.1, 0.0), (0.1, -3.0), (0.1, float("nan")),
    ])
    def test_invalid_geometry_rejected(self, angle, distance):
        with pytest.raises(ValueError):
            steering_vector(8, angle, distance, 0.01, 0.005)

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError):
            steering_vector(0, 0.0, math.inf, 0.01, 0.005)


def cmath_exp(phase: float) -> complex:
    return complex(math.cos(phase), math.sin(phase))


class TestPathParams:
    def test_far_field_allowed(self):
        p = PathParams(0.2, math.inf, 1.0 - 0.5j)
        assert p.distance == math.inf

    @pytest.mark.parametrize("angle,distance", [
        (math.pi / 2, 1.0), (0.0, 0.0), (0.0, -1.0), (float("nan"), 1.0),
    ])
    def test_invalid_rejected(self, angle, distance):
        with pytest.raises(ValueError):
            PathParams(angle, distance)


class TestBuildChannels:
    def _scene_paths(self, rng, config):
        b = config.angle_bound
        mk = lambda: PathParams(rng.uniform(-b, b), rng.uniform(2.0, 20.0),
                                complex(*rng.standard_normal(2)))
        bridge_bs = tuple(mk() for _ in range(config.paths_bs))
        bridge_ris = tuple(PathParams(p.angle + 0.01, p.distance) for p in bridge_bs)
        users = (tuple(mk() for _ in range(config.paths_ris)),)
        return bridge_bs, bridge_ris, users

    def test_cascade_identity(self, small_system, rng):
        paths = self._scene_paths(rng, small_system)
        H, h, G = build_channels(small_system, *paths)
        np.testing.assert_allclose(G[0], H @ np.diag(h[0]), rtol=1e-13, atol=1e-16)

    def test_bridge_rank_at_most_its_paths(self, small_system, rng):
        H, _, _ = build_channels(small_system, *self._scene_paths(rng, small_system))
        assert H.shape == (small_system.n_bs, small_system.n_ris)
        assert np.linalg.matrix_rank(H) <= small_system.paths_bs

    def test_zero_gains_give_zero_channel(self, small_system):
        zero = tuple(PathParams(0.1 * i, 5.0, 0.0) for i in range(2))
        geo = tuple(PathParams(0.2 * i, 6.0) for i in range(2))
        users = ((PathParams(0.1, 2.0, 0.0), PathParams(0.2, 3.0, 0.0)),)
        H, h, G = build_channels(small_system, zero, geo, users)
        assert np.all(H == 0) and np.all(h == 0) and np.all(G == 0)

    def test_single_path_rank_one(self, small_system):
        g = 0.8 - 0.3j
        pb = (PathParams(0.3, 7.0, g),)
        pr = (PathParams(-0.2, 9.0),)
        users = ((PathParams(0.15, 2.5, 1.1 + 0.2j),),)
        H, h, G = build_channels(small_system, pb, pr, users)
        a_bs = steering_vector(small_system.n_bs, 0.3, 7.0,
                               small_system.wavelength, small_system.spacing)
        a_dep = steering_vector(small_system.n_ris, -0.2, 9.0,
                                small_system.wavelength, small_system.spacing)
        np.testing.assert_allclose(H, g * np.outer(a_bs, a_dep.conj()), atol=1e-14)
        assert np.linalg.matrix_rank(H) == 1

    def test_mismatched_bridge_lists_rejected(self, small_system):
        with pytest.raises(ValueError):
            build_channels(small_system, (PathParams(0.1, 5.0),), (), ())


class TestDrawScene:
    def test_deterministic_under_substream(self, small_system):
        s1 = draw_scene(small_system, substream(3, "scene", 0))
        s2 = draw_scene(small_system, substream(3, "scene", 0))
        np.testing.assert_array_equal(s1.G, s2.G)
        assert s1.bridge_bs == s2.bridge_bs

    def test_shapes_and_rank(self, small_system):
        s = draw_scene(small_system, substream(5, "scene"))
        assert len(s.users) == 1       # one user, on a leading axis of size 1
        assert s.h.shape == (1, small_system.n_ris)
        assert s.G.shape == (1, small_system.n_bs, small_system.n_ris)
        assert np.linalg.matrix_rank(s.G[0]) <= small_system.paths_bs

    def test_stores_no_bridge_channel(self, small_system):
        """G = H diag(h) is kept; H itself, which nothing reads, is not."""
        s = draw_scene(small_system, substream(5, "scene"))
        assert [f.name for f in dataclasses.fields(s)] == [
            "bridge_bs", "bridge_ris", "users", "h", "G"]
        _, h, G = build_channels(small_system, s.bridge_bs, s.bridge_ris, s.users)
        np.testing.assert_array_equal(s.h, h)
        np.testing.assert_array_equal(s.G, G)

    def test_angles_and_distances_respect_priors(self, small_system):
        for t in range(20):
            s = draw_scene(small_system, substream(11, "prior", t))
            for p in s.bridge_bs:
                assert abs(p.angle) <= small_system.angle_bound
                assert small_system.bs_dist[0] <= p.distance <= small_system.bs_dist[1]
            for p in s.users[0]:
                assert small_system.ris_dist[0] <= p.distance <= small_system.ris_dist[1]

    def test_gain_power_normalized(self):
        tiny = SystemConfig(n_bs=2, n_ris=2, tau=1, paths_bs=3, paths_ris=2)
        rng = substream(0, "gain-mc")
        acc = []
        for _ in range(10_000):
            s = draw_scene(tiny, rng)
            acc.extend(abs(p.gain) ** 2 for p in s.bridge_bs)
        assert abs(np.mean(acc) - 1.0) < 0.05


class TestPhaseMatrix:
    def test_random_unit_modulus(self, rng):
        E = make_phase_matrix(16, 10, rng)
        assert E.shape == (16, 10)
        np.testing.assert_allclose(np.abs(E), 1.0, atol=1e-12)

    def test_random_requires_rng(self):
        with pytest.raises(ValueError):
            make_phase_matrix(8, 4)

    def test_dft_full_length_orthogonal_rows(self):
        E = make_phase_matrix(8, 8, kind="dft")
        np.testing.assert_allclose(E @ E.conj().T, 8 * np.eye(8), atol=1e-9)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError):
            make_phase_matrix(8, 4, rng, kind="hadamard")


class TestSimulatePilots:
    def test_noiseless_sum_schedule(self, small_system, rng):
        s = draw_scene(small_system, substream(1, "pilot-scene"))
        E = np.ones((small_system.n_ris, small_system.tau), dtype=complex)
        Y = simulate_pilots(s, small_system, E, 0.0, rng)
        assert Y.shape == (small_system.n_bs, small_system.tau)
        want = math.sqrt(small_system.power) * s.G[0].sum(axis=1)
        for t in range(small_system.tau):
            np.testing.assert_allclose(Y[:, t], want, atol=1e-13)

    def test_noise_only_variance(self):
        cfg = SystemConfig(n_bs=32, n_ris=4, tau=64, paths_bs=1, paths_ris=1)
        zero = (PathParams(0.1, 6.0, 0.0),)
        geo = (PathParams(0.1, 6.0),)
        users = ((PathParams(0.1, 2.0, 0.0),),)
        _, h, G = build_channels(cfg, zero, geo, users)
        scene = SceneRealization(zero, geo, users, h, G)
        E = make_phase_matrix(cfg.n_ris, cfg.tau, substream(2, "E"))
        sigma2 = 0.37
        Y = simulate_pilots(scene, cfg, E, sigma2, substream(2, "noise"))
        mean_power = np.mean(np.abs(Y) ** 2)
        assert abs(mean_power - sigma2) / sigma2 < 0.05

    def test_power_scaling(self, rng):
        base = SystemConfig(n_bs=4, n_ris=8, tau=5, paths_bs=2, paths_ris=2)
        boosted = SystemConfig(n_bs=4, n_ris=8, tau=5, paths_bs=2, paths_ris=2,
                               power=4.0)
        scene = draw_scene(base, substream(9, "sc"))
        E = make_phase_matrix(8, 5, substream(9, "E"))
        y1 = simulate_pilots(scene, base, E, 0.0, rng)
        y4 = simulate_pilots(scene, boosted, E, 0.0, rng)
        np.testing.assert_allclose(y4, 2.0 * y1, rtol=1e-14)

    def test_shape_and_variance_validation(self, small_system, rng):
        s = draw_scene(small_system, substream(1, "v"))
        bad_E = np.ones((small_system.n_ris, small_system.tau + 1))
        with pytest.raises(ValueError):
            simulate_pilots(s, small_system, bad_E, 0.0, rng)
        E = np.ones((small_system.n_ris, small_system.tau))
        for bad in (-1e-9, math.nan):
            with pytest.raises(ValueError):
                simulate_pilots(s, small_system, E, bad, rng)


class TestNoiseVarForSnr:
    def test_receive_convention_formula(self, small_system, small_E):
        s = draw_scene(small_system, substream(4, "snr"))
        nv = noise_var_for_snr(s, small_system, small_E, 10.0)
        sig = small_system.power * np.linalg.norm(s.G[0] @ small_E) ** 2
        achieved = sig / (small_system.n_bs * small_system.tau * nv)
        assert 10 * math.log10(achieved) == pytest.approx(10.0, abs=1e-9)

    def test_transmit_convention(self, small_system, small_E):
        s = draw_scene(small_system, substream(4, "snr"))
        nv = noise_var_for_snr(s, small_system, small_E, 20.0, convention="transmit")
        assert nv == pytest.approx(small_system.power / 100.0, rel=1e-12)

    def test_snr_monotone_in_noise(self, small_system, small_E):
        s = draw_scene(small_system, substream(4, "snr"))
        nv_hi = noise_var_for_snr(s, small_system, small_E, 0.0)
        nv_lo = noise_var_for_snr(s, small_system, small_E, 30.0)
        assert nv_hi / nv_lo == pytest.approx(1000.0, rel=1e-9)

    def test_unknown_convention_rejected(self, small_system, small_E):
        s = draw_scene(small_system, substream(4, "snr"))
        with pytest.raises(ValueError):
            noise_var_for_snr(s, small_system, small_E, 10.0, convention="per-element")


class TestRisSideRows:
    def test_columns_match_definition(self, small_system):
        s = draw_scene(small_system, substream(6, "rows"))
        rows = ris_side_rows(s, small_system)
        assert rows.shape == (small_system.n_ris, small_system.paths_bs)
        for l, (pb, pr) in enumerate(zip(s.bridge_bs, s.bridge_ris)):
            a = steering_vector(small_system.n_ris, pr.angle, pr.distance,
                                small_system.wavelength, small_system.spacing)
            want = np.conj(s.h[0]) * a * np.conj(pb.gain)
            np.testing.assert_allclose(rows[:, l], want, atol=1e-14)

    def test_reassembles_cascaded_channel_exactly(self, small_system):
        s = draw_scene(small_system, substream(6, "rows"))
        rows = ris_side_rows(s, small_system)
        A = np.stack([steering_vector(small_system.n_bs, p.angle, p.distance,
                                      small_system.wavelength, small_system.spacing)
                      for p in s.bridge_bs], axis=1)
        np.testing.assert_allclose(A @ rows.conj().T, s.G[0], atol=1e-12)
