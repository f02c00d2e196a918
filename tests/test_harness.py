"""Orchestration layer: configs, error metric, checkpoints, paired sweeps."""
import dataclasses
import json

import numpy as np
import pytest

from polarce import container
from polarce.channel import make_phase_matrix
from polarce.denoiser import Stage1Config, init_denoiser
from polarce.harness import (ExperimentConfig, SweepConfig, build_bs_dictionary,
                             build_ris_dictionaries, config_from_dict,
                             config_to_dict, count_lattice_peaks, default_config,
                             draw_scenes, evaluate_point, load_config,
                             load_stage1, load_stage2, nmse, run_leakage_report,
                             run_loss_curves, run_pilot_sweep, run_snr_sweep,
                             save_config, save_stage1, save_stage2, snr_label,
                             top1_fraction, write_csv)
from polarce.polar import GridConfig, build_cascaded_dictionary, build_dictionary
from polarce.rng import substream
from polarce.schemes import PipelineContext
from polarce.unrolled import ListaParams

from helpers import crandn

MICRO = {
    "system": {"n_bs": 4, "n_ris": 8, "tau": 6, "paths_bs": 1, "paths_ris": 1},
    "ris_grid": {"angle_count": 4},
    "sweep": {"snr_db": [0.0, 20.0], "tau": [4, 6], "trials": 3,
              "schemes": ["omp"], "seed": 11},
}

LOSS_MICRO = {
    "system": {"n_bs": 4, "n_ris": 8, "tau": 6, "paths_bs": 1, "paths_ris": 1},
    "ris_grid": {"angle_count": 4},
    "stage1": {"layers": 3, "width": 4, "lr": 1e-3, "batch": 8,
               "episodes": 2, "train_size": 12, "val_size": 0},
    "stage2": {"layers": 3, "lr": 1e-3, "batch": 8, "episodes": 2,
               "train_size": 8, "probe": 8},
    "sweep": {"depths": [3], "trials": 1, "schemes": ["omp"], "seed": 5},
}


class TestNmse:
    def test_exact_match_is_zero(self, rng):
        G = crandn(rng, 4, 6)
        assert nmse(G, G) == 0.0

    def test_zero_estimate_is_one(self, rng):
        G = crandn(rng, 4, 6)
        assert nmse(np.zeros_like(G), G) == 1.0

    def test_double_estimate_is_one(self, rng):
        G = crandn(rng, 4, 6)
        assert nmse(2.0 * G, G) == 1.0

    def test_matches_hand_formula(self, rng):
        G = crandn(rng, 3, 5)
        G_hat = G + 0.1 * crandn(rng, 3, 5)
        want = np.sum(np.abs(G_hat - G) ** 2) / np.sum(np.abs(G) ** 2)
        assert nmse(G_hat, G) == pytest.approx(want, rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            nmse(np.ones((2, 2)), np.zeros((2, 2)))


class TestSweepConfigValidation:
    def test_defaults_pass(self):
        SweepConfig()

    def test_no_trials(self):
        with pytest.raises(ValueError, match="trial"):
            SweepConfig(trials=0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="magic"):
            SweepConfig(schemes=("omp", "magic"))

    @pytest.mark.parametrize("axis", ["snr_db", "tau", "depths"])
    def test_empty_axis(self, axis):
        with pytest.raises(ValueError, match="empty"):
            SweepConfig(**{axis: ()})

    @pytest.mark.parametrize("bad", [(10.0, 10.0), (10.0, 5.0)])
    def test_non_increasing_axis(self, bad):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepConfig(snr_db=bad)

    def test_stage1_snr_fallback(self):
        sw = SweepConfig(snr_db=(0.0, 10.0))
        assert sw.stage1_snr_db == (0.0, 10.0)
        sw2 = SweepConfig(snr_db=(0.0, 10.0), train_snr_db=(5.0,))
        assert sw2.stage1_snr_db == (5.0,)


class TestConfigSerialization:
    def test_dict_round_trip(self):
        cfg = default_config()
        data = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(data) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = config_from_dict(MICRO)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_version_recorded(self):
        assert config_to_dict(default_config())["version"] == 1

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="top-level"):
            config_from_dict({"bogus": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ValueError, match="'system'"):
            config_from_dict({"system": {"bogus": 1}})

    def test_unsupported_version(self):
        with pytest.raises(ValueError, match="version 2"):
            config_from_dict({"version": 2})

    def test_grid_defaults_track_system(self):
        cfg = config_from_dict({"system": {"n_bs": 4, "n_ris": 8}})
        assert cfg.bs_grid.angle_count == 12
        assert cfg.bs_grid.ring_limit == 0
        assert cfg.bs_grid.distance_min == cfg.system.bs_dist[0]
        assert cfg.ris_grid.angle_count == 8
        assert cfg.ris_grid.distance_min == cfg.system.ris_dist[0]

    def test_explicit_grid_wins_over_default(self):
        cfg = config_from_dict({"system": {"n_bs": 4},
                                "bs_grid": {"angle_count": 5}})
        assert cfg.bs_grid.angle_count == 5

    def test_lists_become_tuples(self):
        cfg = config_from_dict(MICRO)
        assert cfg.sweep.snr_db == (0.0, 20.0)
        assert cfg.sweep.schemes == ("omp",)


class TestCheckpoints:
    def test_stage1_round_trip(self, tmp_path, rng):
        cfg = Stage1Config(layers=3, width=4, train_size=8, val_size=0)
        dp = init_denoiser(cfg, rng)
        path = tmp_path / "s1.plce"
        digest = save_stage1(path, dp, extra_meta={"note": "desk"})
        back = load_stage1(path)
        assert back.config == cfg
        assert set(back.params) == set(dp.params)
        for k in dp.params:
            np.testing.assert_array_equal(back.params[k], dp.params[k])
        for k in dp.buffers:
            np.testing.assert_array_equal(back.buffers[k], dp.buffers[k])
        _, meta = container.load_container(path)
        assert meta["kind"] == "stage1"
        assert meta["note"] == "desk"
        assert digest == container.content_hash(
            {f"p.{k}": v for k, v in dp.params.items()}
            | {f"b.{k}": v for k, v in dp.buffers.items()})

    def test_stage2_round_trip(self, tmp_path, rng):
        lp = ListaParams(lam=np.array([0.1, 0.2]), kappa=np.array([0.5, 0.4]),
                         V=crandn(rng, 8, 6), F=crandn(rng, 8, 11))
        path = tmp_path / "s2.plce"
        save_stage2(path, lp)
        back = load_stage2(path)
        np.testing.assert_array_equal(back.lam, lp.lam)
        np.testing.assert_array_equal(back.kappa, lp.kappa)
        np.testing.assert_array_equal(back.V, lp.V)
        np.testing.assert_array_equal(back.F, lp.F)

    def test_kind_mismatch_rejected(self, tmp_path, rng):
        dp = init_denoiser(Stage1Config(layers=3, width=4), rng)
        lp = ListaParams(lam=np.zeros(2), kappa=np.ones(2),
                         V=crandn(rng, 4, 3), F=crandn(rng, 4, 5))
        p1, p2 = tmp_path / "s1.plce", tmp_path / "s2.plce"
        save_stage1(p1, dp)
        save_stage2(p2, lp)
        with pytest.raises(ValueError, match="stage-2"):
            load_stage2(p1)
        with pytest.raises(ValueError, match="stage-1"):
            load_stage1(p2)


class TestCsvWriting:
    def test_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"],
                  [[0.1, 2, "omp"], [1.0 / 3.0, 1e-13, "x"]])
        assert path.read_text() == ("a,b,c\n"
                                    "0.1,2,omp\n"
                                    "0.333333333333,1e-13,x\n")

    def test_numpy_floats_format_like_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["v"], [[np.float64(0.25)]])
        assert path.read_text() == "v\n0.25\n"


@pytest.fixture(scope="module")
def micro_cfg():
    return config_from_dict(MICRO)


@pytest.fixture(scope="module")
def micro_ctx(micro_cfg):
    bs = build_bs_dictionary(micro_cfg)
    _, cas = build_ris_dictionaries(micro_cfg)
    E = make_phase_matrix(micro_cfg.system.n_ris, micro_cfg.system.tau,
                          substream(0, "phase"))
    return PipelineContext(config=micro_cfg.system, bs=bs, cas=cas, E=E)


class TestEvaluatePoint:
    def test_shapes_and_range(self, micro_cfg, micro_ctx):
        scenes = draw_scenes(micro_cfg.system, 3, "ev", 3)
        out, secs = evaluate_point(scenes, micro_ctx, 20.0, 9, "pt", ("omp",))
        assert set(out) == set(secs) == {"omp"}
        assert out["omp"].shape == (3,)
        assert np.all(np.isfinite(out["omp"]))
        assert np.all(out["omp"] >= 0)
        assert secs["omp"] > 0

    def test_rerun_is_bitwise_identical(self, micro_cfg, micro_ctx):
        scenes = draw_scenes(micro_cfg.system, 3, "ev", 3)
        a, _ = evaluate_point(scenes, micro_ctx, 20.0, 9, "pt", ("omp",))
        b, _ = evaluate_point(scenes, micro_ctx, 20.0, 9, "pt", ("omp",))
        np.testing.assert_array_equal(a["omp"], b["omp"])

    def test_schemes_share_the_same_pilots(self, micro_cfg, micro_ctx, rng):
        # adding a scheme must not disturb another scheme's noise draws
        scenes = draw_scenes(micro_cfg.system, 3, "ev", 3)
        dp = init_denoiser(Stage1Config(layers=3, width=4),
                           substream(1, "init"))
        ctx2 = dataclasses.replace(micro_ctx, stage1=dp)
        alone, _ = evaluate_point(scenes, micro_ctx, 20.0, 9, "pt", ("omp",))
        both, _ = evaluate_point(scenes, ctx2, 20.0, 9, "pt",
                                 ("omp", "dncnn-omp"))
        np.testing.assert_array_equal(alone["omp"], both["omp"])

    def test_trials_differ_from_each_other(self, micro_cfg, micro_ctx):
        scenes = draw_scenes(micro_cfg.system, 3, "ev", 3)
        out, _ = evaluate_point(scenes, micro_ctx, 20.0, 9, "pt", ("omp",))
        assert len(set(out["omp"].tolist())) == 3


class TestSnrSweep:
    @pytest.mark.parametrize("schemes", [
        ("omp",),
        ("omp", "dncnn-omp", "dncnn-istanet"),
    ], ids=["omp", "all"])
    @pytest.mark.parametrize("run, stem, axis", [
        (run_snr_sweep, "snr_sweep", "snr_db"),
        (run_pilot_sweep, "pilot_sweep", "tau"),
    ], ids=["snr", "tau"])
    def test_csv_bytes_are_stable(self, tmp_path, run, stem, axis, schemes):
        cfg = config_from_dict({**MICRO, "stage1": LOSS_MICRO["stage1"],
                                "stage2": LOSS_MICRO["stage2"],
                                "sweep": {**MICRO["sweep"], "schemes": list(schemes)}})
        d1, d2 = tmp_path / "a", tmp_path / "b"
        records = run(cfg, d1)
        run(cfg, d2)
        b1 = (d1 / f"{stem}.csv").read_bytes()
        assert b1 == (d2 / f"{stem}.csv").read_bytes()
        lines = b1.decode().splitlines()
        assert lines[0] == f"scheme,{axis},nmse_mean,nmse_std,trials"
        assert len(lines) == 1 + len(records)
        assert len(records) == 2 * len(schemes)     # two points per axis
        assert all(np.isfinite(rec["nmse_mean"]) for rec in records)
        meta = json.loads((d1 / f"{stem}.meta.json").read_text())
        if "dncnn-istanet" in schemes:
            assert set(meta["stage2_traces"]) == {f"{rec[axis]:g}" for rec in records}
        for rec in records:
            label = (snr_label(rec[axis]) if axis == "snr_db"
                     else f"tau{rec[axis]}")
            assert rec["wall_time_s"] == meta["timing"][f"{rec['scheme']}_{label}_s"]

    def test_records_match_csv(self, micro_cfg, tmp_path):
        records = run_snr_sweep(micro_cfg, tmp_path)
        lines = (tmp_path / "snr_sweep.csv").read_text().splitlines()[1:]
        for rec, line in zip(records, lines):
            cells = line.split(",")
            assert cells[0] == rec["scheme"]
            assert float(cells[1]) == rec["snr_db"]
            assert float(cells[2]) == pytest.approx(rec["nmse_mean"], rel=1e-11)
            assert int(cells[4]) == rec["trials"] == 3

    def test_meta_sidecar(self, micro_cfg, tmp_path):
        run_snr_sweep(micro_cfg, tmp_path)
        meta = json.loads((tmp_path / "snr_sweep.meta.json").read_text())
        assert meta["config"] == config_to_dict(micro_cfg)
        assert "config_hash" in meta
        assert "total_s" in meta["timing"]


@pytest.fixture(scope="module")
def peaks_cas():
    single = build_dictionary(
        8, 0.01, 0.005,
        GridConfig(angle_count=6, ring_limit=0, distance_min=5.0))
    return build_cascaded_dictionary(single)


def sin_ranks(cas):
    vals = np.round(cas.delta_sin, 9)
    return np.searchsorted(np.unique(vals), vals)


class TestLatticePeaks:
    def test_two_separated_peaks(self, peaks_cas):
        ranks = sin_ranks(peaks_cas)
        corr = np.zeros(peaks_cas.F.shape[1])
        corr[np.flatnonzero(ranks == 0)[0]] = 1.0
        corr[np.flatnonzero(ranks == ranks.max() // 2)[0]] = 0.9
        assert count_lattice_peaks(peaks_cas, corr, within_db=3.0) == 2

    def test_weak_peak_below_threshold_ignored(self, peaks_cas):
        ranks = sin_ranks(peaks_cas)
        corr = np.zeros(peaks_cas.F.shape[1])
        corr[np.flatnonzero(ranks == 0)[0]] = 1.0
        corr[np.flatnonzero(ranks == ranks.max() // 2)[0]] = 0.5
        assert count_lattice_peaks(peaks_cas, corr, within_db=3.0) == 1

    def test_shoulder_next_to_peak_not_counted(self, peaks_cas):
        ranks = sin_ranks(peaks_cas)
        corr = np.zeros(peaks_cas.F.shape[1])
        corr[np.flatnonzero(ranks == 0)[0]] = 1.0
        corr[np.flatnonzero(ranks == 1)[0]] = 0.95
        assert count_lattice_peaks(peaks_cas, corr, within_db=3.0) == 1

    def test_extreme_offsets_are_circular_neighbors(self, peaks_cas):
        # the sin offset wraps at wavelength/spacing, so the first and last
        # classes sit one lattice gap apart on the circle
        ranks = sin_ranks(peaks_cas)
        corr = np.zeros(peaks_cas.F.shape[1])
        corr[np.flatnonzero(ranks == 0)[0]] = 1.0
        corr[np.flatnonzero(ranks == ranks.max())[0]] = 0.9
        assert count_lattice_peaks(peaks_cas, corr, within_db=3.0) == 1


class TestTop1Fraction:
    def test_even_split(self):
        F = np.eye(2, dtype=complex)
        assert top1_fraction(F, np.array([1.0, 1.0]) / np.sqrt(2)) == pytest.approx(0.5)

    def test_aligned(self):
        F = np.eye(3, dtype=complex)
        assert top1_fraction(F, np.array([0.0, 2.0, 0.0])) == 1.0


@pytest.fixture(scope="module")
def leakage_result(tmp_path_factory):
    cfg = config_from_dict({
        "system": {"n_bs": 8, "n_ris": 8, "tau": 6,
                   "paths_bs": 1, "paths_ris": 1},
        "ris_grid": {"angle_count": 4},
    })
    outdir = tmp_path_factory.mktemp("leak")
    return cfg, outdir, run_leakage_report(cfg, outdir)


class TestLeakageReport:
    def test_on_grid_probes_are_clean(self, leakage_result):
        _, _, summary = leakage_result
        assert summary["on_grid_min_top1"] > 0.99

    def test_off_grid_probes_leak(self, leakage_result):
        _, _, summary = leakage_result
        assert summary["worst_off_top1"] < summary["on_grid_min_top1"]

    def test_cascaded_coherence_dominates_single(self, leakage_result):
        _, _, summary = leakage_result
        assert summary["cascaded_max_coherence"] >= summary["single_max_coherence"]

    def test_drift_probe_found_peaks(self, leakage_result):
        _, _, summary = leakage_result
        assert summary["drift_peaks_within_3db"] >= 1
        probe = summary["drift_probe"]
        assert probe["peaks"] == summary["drift_peaks_within_3db"]

    def test_output_files(self, leakage_result):
        _, outdir, _ = leakage_result
        prof = (outdir / "leakage_profile.csv").read_text().splitlines()
        drift = (outdir / "drift_profile.csv").read_text().splitlines()
        assert prof[0] == "kind,index,sin_angle,value"
        assert drift[0] == "col,delta_sin,delta_curv,corr"
        meta = json.loads((outdir / "leakage_profile.meta.json").read_text())
        assert "summary" in meta


@pytest.fixture(scope="module")
def loss_result(tmp_path_factory):
    cfg = config_from_dict(LOSS_MICRO)
    outdir = tmp_path_factory.mktemp("loss")
    return cfg, outdir, run_loss_curves(cfg, outdir)


class TestLossCurves:
    def test_report_structure(self, loss_result):
        cfg, _, report = loss_result
        assert set(report) == {"stage1", "stage2"}
        for net in ("stage1", "stage2"):
            entry = report[net][3]
            assert entry["rerun_identical"]
            assert len(entry["trace"]) == 2
            assert entry["init_loss"] > 0
            assert entry["final_loss"] > 0

    def test_csv_rows(self, loss_result):
        cfg, outdir, report = loss_result
        lines = (outdir / "loss_curves.csv").read_text().splitlines()
        assert lines[0] == "network,depth,episode,loss"
        # episode 0 carries the untrained loss, then one row per episode
        assert len(lines) == 1 + 2 * (1 + 2)
        first = lines[1].split(",")
        assert first[:3] == ["stage1", "3", "0"]
        assert float(first[3]) == pytest.approx(report["stage1"][3]["init_loss"],
                                                rel=1e-11)
