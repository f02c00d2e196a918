"""Polar grids, steering dictionaries, cascaded dedup, and on-grid coding."""
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polarce.channel import (
    C_LIGHT, PathParams, SceneRealization, SystemConfig, build_channels,
    ris_side_rows, steering_vector,
)
from polarce.polar import (
    GridConfig, build_cascaded_dictionary, build_dictionary, nearest_grid_index,
    sample_polar_grid,
)
from polarce.harness import load_config

from helpers import build_dictionary_reference, cascaded_column

LAM = C_LIGHT / 30e9
ROOT = Path(__file__).resolve().parents[1]


# the cascaded lattice's edge cases: aliasing on a full-range sin grid, angles
# without rings, a ring cap, an asymmetric sin range and a single angle
LATTICE_GRIDS = {
    "ringed": (16, GridConfig(angle_count=4, distance_min=0.05)),
    "full-range": (16, GridConfig(angle_count=16, sin_lo=-1.0, sin_hi=1.0,
                                  distance_min=0.05)),
    "full-range-odd": (15, GridConfig(angle_count=13, sin_lo=-1.0, sin_hi=1.0,
                                      distance_min=0.05)),
    "no-far": (16, GridConfig(angle_count=8, sin_lo=-0.99, sin_hi=0.99,
                              distance_min=0.1, include_far=False)),
    "ring-limit": (16, GridConfig(angle_count=6, distance_min=0.05, ring_limit=2)),
    "asymmetric": (16, GridConfig(angle_count=5, sin_lo=-0.3, sin_hi=0.9,
                                  distance_min=0.05)),
    "one-angle": (16, GridConfig(angle_count=1, distance_min=0.05)),
}


@pytest.fixture(scope="module")
def ringed_dict():
    # distance_min far below the Fresnel depth so several rings survive
    cfg = GridConfig(angle_count=4, distance_min=0.05)
    return build_dictionary(16, LAM, LAM / 2, cfg)


@pytest.fixture(scope="module")
def ringed_cas(ringed_dict):
    return build_cascaded_dictionary(ringed_dict)


class TestGridSampling:
    def test_fresnel_depth_literal(self):
        cfg = GridConfig(angle_count=4, beta=1.2, distance_min=0.5)
        g = sample_polar_grid(128, 0.01, 0.005, cfg)
        assert g.z_delta == pytest.approx((128 * 0.005) ** 2 / (2 * 0.01 * 1.44),
                                          rel=1e-12)
        assert g.z_delta == pytest.approx(14.2222222222, rel=1e-9)

    def test_first_ring_at_fresnel_depth_broadside(self):
        cfg = GridConfig(angle_count=1, sin_lo=-0.01, sin_hi=0.01,
                         distance_min=0.5)
        g = sample_polar_grid(128, 0.01, 0.005, cfg)
        u = g.sin_angles[0]
        ring1 = g.distances[g.rings == 1]
        assert ring1[0] == pytest.approx(g.z_delta * (1 - u * u), rel=1e-12)

    def test_ring_distances_follow_inverse_law(self):
        cfg = GridConfig(angle_count=6, distance_min=0.3)
        g = sample_polar_grid(128, 0.01, 0.005, cfg)
        near = g.rings > 0
        want = g.z_delta * (1 - g.sin_angles[near] ** 2) / g.rings[near]
        np.testing.assert_allclose(g.distances[near], want, rtol=1e-12)

    def test_ring_count_brute_force(self):
        cfg = GridConfig(angle_count=16, distance_min=0.5)
        g = sample_polar_grid(128, 0.01, 0.005, cfg)
        z = g.z_delta
        total = 0
        for gi in range(16):
            u = cfg.sin_lo + (gi + 0.5) * (cfg.sin_hi - cfg.sin_lo) / 16
            total += 1                                   # far ring
            s = 1
            while z * (1 - u * u) / s >= cfg.distance_min:
                total += 1
                s += 1
        assert len(g) == total

    def test_entries_unique(self, ringed_dict):
        g = ringed_dict.grid
        pairs = {(float(u), int(s)) for u, s in zip(g.sin_angles, g.rings)}
        assert len(pairs) == len(g)

    def test_angle_major_far_first_layout(self, ringed_dict):
        g = ringed_dict.grid
        assert np.all(np.diff(g.sin_angles) >= 0)
        starts = np.flatnonzero(np.diff(g.sin_angles) > 0) + 1
        for lo in np.concatenate([[0], starts]):
            assert g.rings[lo] == 0 and np.isinf(g.distances[lo])

    def test_curvature_is_ring_over_depth(self, ringed_dict):
        # the cascaded lattice rests on (1 - sin^2)/(2 r) == ring/(2 z_delta)
        g = ringed_dict.grid
        near = g.rings > 0
        curv = (1 - g.sin_angles[near] ** 2) / (2 * g.distances[near])
        np.testing.assert_allclose(curv, g.rings[near] / (2 * g.z_delta), rtol=1e-12)

    def test_ring_limit_caps_rings(self):
        cfg = GridConfig(angle_count=4, distance_min=0.05, ring_limit=1)
        g = sample_polar_grid(16, LAM, LAM / 2, cfg)
        assert g.rings.max() == 1

    def test_empty_grid_rejected(self):
        cfg = GridConfig(angle_count=4, ring_limit=0, include_far=False,
                         distance_min=0.05)
        with pytest.raises(ValueError):
            sample_polar_grid(16, LAM, LAM / 2, cfg)

    @pytest.mark.parametrize("kwargs", [
        dict(angle_count=0),
        dict(angle_count=4, sin_lo=0.5, sin_hi=0.5),
        dict(angle_count=4, sin_lo=-1.5),
        dict(angle_count=4, sin_hi=1.5),
        dict(angle_count=4, beta=0.0),
        dict(angle_count=4, distance_min=0.0),
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            GridConfig(**kwargs)


class TestDictionary:
    def test_unit_norm_columns(self, ringed_dict, ringed_cas):
        np.testing.assert_allclose(np.linalg.norm(ringed_dict.F, axis=0), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(ringed_cas.F, axis=0), 1.0,
                                   atol=1e-12)

    def test_columns_match_steering(self, ringed_dict):
        g = ringed_dict.grid
        for j in (0, len(g) // 2, len(g) - 1):
            want = steering_vector(16, math.asin(g.sin_angles[j]),
                                   g.distances[j], LAM, LAM / 2)
            np.testing.assert_allclose(ringed_dict.F[:, j], want, atol=1e-12)
            corr = abs(np.vdot(ringed_dict.F[:, j], want))
            assert corr == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("profile, side", [(p, s) for p in ("desk", "paper")
                                               for s in ("bs", "ris")])
    def test_profile_dictionaries_match_per_atom_loop(self, profile, side):
        cfg = load_config(ROOT / "configs" / f"{profile}.json")
        sys_ = cfg.system
        size, grid = (sys_.n_bs, cfg.bs_grid) if side == "bs" else (sys_.n_ris, cfg.ris_grid)
        got = build_dictionary(size, sys_.wavelength, sys_.spacing, grid).F
        assert got.tobytes() == build_dictionary_reference(
            size, sys_.wavelength, sys_.spacing, grid).tobytes()

    @pytest.mark.parametrize("size, cfg", LATTICE_GRIDS.values(), ids=LATTICE_GRIDS.keys())
    def test_lattice_dictionaries_match_per_atom_loop(self, size, cfg):
        got = build_dictionary(size, LAM, LAM / 2, cfg).F
        assert got.tobytes() == build_dictionary_reference(size, LAM, LAM / 2, cfg).tobytes()

    def test_full_range_far_grid_is_orthonormal(self):
        size = 16
        cfg = GridConfig(angle_count=size, sin_lo=-1.0, sin_hi=1.0, ring_limit=0)
        d = build_dictionary(size, LAM, LAM / 2, cfg)
        gram = d.F.conj().T @ d.F
        np.testing.assert_allclose(gram, np.eye(size), atol=1e-10)

    def test_dictionaries_are_read_only(self, ringed_dict, ringed_cas):
        """A network that shares a dictionary cannot write through it."""
        for F in (ringed_dict.F, ringed_cas.F):
            with pytest.raises(ValueError):
                F[0, 0] = 0.0
            with pytest.raises(ValueError):
                F *= 2.0


class TestCascadedDictionary:
    def test_single_angle_collapses_to_one_column(self):
        cfg = GridConfig(angle_count=1, ring_limit=0)
        d = build_dictionary(16, LAM, LAM / 2, cfg)
        cas = build_cascaded_dictionary(d)
        assert cas.F.shape[1] == 1
        assert cas.delta_sin[0] == 0.0 and cas.delta_curv[0] == 0.0

    def test_far_field_dedup_count(self):
        cfg = GridConfig(angle_count=8, ring_limit=0)
        d = build_dictionary(16, LAM, LAM / 2, cfg)
        cas = build_cascaded_dictionary(d)
        assert cas.F.shape[1] == 2 * len(d.grid) - 1

    @pytest.mark.parametrize("size, cfg", LATTICE_GRIDS.values(), ids=LATTICE_GRIDS.keys())
    def test_dedup_matches_brute_force_column_classes(self, size, cfg):
        d = build_dictionary(size, LAM, LAM / 2, cfg)
        cas = build_cascaded_dictionary(d)
        F = d.F
        G = F.shape[1]
        reps: list[np.ndarray] = []
        for l in range(G):
            for p in range(G):
                c = F[:, l] * np.conj(F[:, p])
                if not any(np.max(np.abs(c - r)) < 1e-8 for r in reps):
                    reps.append(c)
        assert cas.F.shape[1] == len(reps)
        # every brute-force class is one column, up to the common scale
        for r in reps:
            assert np.min(np.abs(r[:, None] - cas.F / math.sqrt(size)).max(axis=0)) < 1e-9

    def test_every_pair_reconstructs_exactly(self, ringed_dict, ringed_cas):
        F = ringed_dict.F
        G = F.shape[1]
        for l in range(G):
            for p in range(G):
                col = cascaded_column(ringed_cas, ringed_dict, l, p)
                want = ringed_cas.F[:, col] / math.sqrt(16)
                assert np.max(np.abs(F[:, l] * np.conj(F[:, p]) - want)) < 1e-9

    def test_pair_map_shape_and_range(self, ringed_dict, ringed_cas):
        G = ringed_dict.F.shape[1]
        cols = {cascaded_column(ringed_cas, ringed_dict, l, p)
                for l in range(G) for p in range(G)}
        # every canonical column is hit by at least one pair
        assert cols == set(range(ringed_cas.F.shape[1]))

    def test_scale_is_one_over_root_size(self, ringed_dict, ringed_cas):
        F = ringed_dict.F
        raw = F[:, :, None] * np.conj(F[:, None, :])
        np.testing.assert_allclose(np.linalg.norm(raw, axis=0), 1.0 / math.sqrt(16),
                                   rtol=1e-12)

    def test_diagonal_pairs_share_the_dc_column(self, ringed_dict, ringed_cas):
        G = ringed_dict.F.shape[1]
        cols = {cascaded_column(ringed_cas, ringed_dict, j, j) for j in range(G)}
        assert len(cols) == 1
        j0 = cols.pop()
        assert ringed_cas.delta_sin[j0] == pytest.approx(0.0, abs=1e-12)
        assert ringed_cas.delta_curv[j0] == pytest.approx(0.0, abs=1e-12)

    def test_build_peak_memory(self):
        # desk-size RIS grid: the build holds no G x G pair table
        d = build_dictionary(64, LAM, LAM / 2, GridConfig(angle_count=64, distance_min=1.0))
        tracemalloc.start()
        try:
            cas = build_cascaded_dictionary(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * cas.F.nbytes


class TestNearestGridIndex:
    def test_on_grid_round_trip(self, ringed_dict):
        g = ringed_dict.grid
        for j in (0, 3, len(g) - 1):
            d = g.distances[j]
            got = nearest_grid_index(g, math.asin(g.sin_angles[j]), float(d))
            assert got == j

    def test_far_query_picks_far_ring(self, ringed_dict):
        g = ringed_dict.grid
        got = nearest_grid_index(g, math.asin(g.sin_angles[0]) + 0.01, math.inf)
        assert np.isinf(g.distances[got])


def _on_grid_scene(system: SystemConfig, bs_dict, ris_dict, bs_cols, dep_cols,
                   arr_cols, rho, gains):
    """Scene whose paths sit exactly on grid entries."""
    def path(grid, j, gain=1.0 + 0.0j):
        return PathParams(math.asin(grid.sin_angles[j]),
                          float(grid.distances[j]), gain)

    bridge_bs = tuple(path(bs_dict.grid, j, r) for j, r in zip(bs_cols, rho))
    bridge_ris = tuple(path(ris_dict.grid, j) for j in dep_cols)
    users = (tuple(path(ris_dict.grid, j, g) for j, g in zip(arr_cols, gains)),)
    _, h, G = build_channels(system, bridge_bs, bridge_ris, users)
    return SceneRealization(bridge_bs, bridge_ris, users, h, G)


@pytest.fixture(scope="module")
def coding_setup():
    system = SystemConfig(n_bs=8, n_ris=16, tau=12, paths_bs=2, paths_ris=2)
    bs = build_dictionary(8, system.wavelength, system.spacing,
                          GridConfig(angle_count=16, ring_limit=0))
    ris = build_dictionary(16, system.wavelength, system.spacing,
                           GridConfig(angle_count=4, distance_min=0.05))
    cas = build_cascaded_dictionary(ris)
    return system, bs, ris, cas


class TestOnGridScene:
    def test_ris_side_rows_code_exactly(self, coding_setup):
        # stage 2's target x_l is the cascaded dictionary's coding of path l:
        # sum_p conj(g_p) conj(rho_l) F[:, class of (dep_l, arr_p)] / sqrt(M)
        system, bs, ris, cas = coding_setup
        rho = np.array([0.9 - 0.4j, -0.3 + 1.1j])
        gains = np.array([1.2 + 0.1j, -0.7 + 0.6j])
        dep_cols, arr_cols = (1, 7), (4, 12)
        scene = _on_grid_scene(system, bs, ris, bs_cols=(2, 9), dep_cols=dep_cols,
                               arr_cols=arr_cols, rho=rho, gains=gains)
        rows = ris_side_rows(scene, system)
        for l, dep in enumerate(dep_cols):
            want = sum(np.conj(g) * np.conj(rho[l]) / math.sqrt(system.n_ris)
                       * cas.F[:, cascaded_column(cas, ris, dep, arr)]
                       for g, arr in zip(gains, arr_cols))
            np.testing.assert_allclose(rows[:, l], want, rtol=0, atol=1e-10)
