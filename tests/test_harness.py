"""Orchestration layer: configs, error metric, checkpoints, paired sweeps."""
import dataclasses
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from polarce import container, harness
from polarce.channel import (MIN_SNR_DB, draw_scene, make_phase_matrix, noise_var_for_snr,
                             simulate_pilots)
from polarce.denoiser import (STAGE1_FORM, Stage1Config, init_denoiser,
                              make_stage1_dataset)
from polarce.harness import (SweepConfig, build_bs_dictionary,
                             build_ris_dictionaries, config_from_dict,
                             config_to_dict, default_config, draw_scenes,
                             evaluate_point, load_config, load_stage1,
                             load_stage2, nmse, phase_schedule, run_loss_curves,
                             run_pilot_sweep, run_snr_sweep, save_stage1,
                             save_stage2, snr_label, write_csv)
from polarce.omp import VectorizedProblem
from polarce.optim import TrainingDiverged
from polarce.rng import substream
from polarce.schemes import (SCHEME_FUNCS, SCHEME_STAGES, PipelineContext,
                             _stage1_project, estimate_dncnn_omp, estimate_omp)
from polarce.unrolled import FORWARD_FORM, ListaParams, make_stage2_dataset

from helpers import crandn

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SweepConfig(seed=-1)

    # NaN, -inf, dB whose linear value overflows or rounds to 0, and dB below
    # the floor of single-precision stage-2 training
    @pytest.mark.parametrize("field,value", [
        ("snr_db", (0.0, float("nan"))), ("train_snr_db", (float("nan"),)),
        ("eval_snr_db", float("nan")), ("loss_snr_db", float("nan")),
        ("snr_db", (float("-inf"), 0.0)), ("train_snr_db", (-1e308,)),
        ("eval_snr_db", 1e308), ("loss_snr_db", -3300.0), ("snr_db", (0.0, 3090.0)),
        ("train_snr_db", (-200.0,)), ("eval_snr_db", -400.0),
        ("snr_db", (math.nextafter(MIN_SNR_DB, -math.inf), 0.0))])
    def test_nan_snr(self, field, value):
        with pytest.raises(ValueError, match=r"must be \+inf or dB of at least -144\.49 "
                                             r"whose linear value"):
            SweepConfig(**{field: value})

    def test_extreme_finite_snr_allowed(self):
        # from the float32 training floor up to where 10**(dB/10) overflows
        assert SweepConfig(snr_db=(MIN_SNR_DB, 3000.0)).snr_db == (MIN_SNR_DB, 3000.0)

    @pytest.mark.parametrize("profile", ["micro", "desk"])
    def test_lowest_snr_trains_stage2(self, profile):
        # an overflow in single-precision Adam would raise: the suite makes
        # RuntimeWarning an error
        if profile == "micro":
            cfg = config_from_dict(LOSS_MICRO)
        else:
            cfg = load_config(CONFIGS / "desk.json")
            cfg = dataclasses.replace(cfg, stage2=dataclasses.replace(
                cfg.stage2, train_size=40, episodes=3))
        _, cas = build_ris_dictionaries(cfg)
        lp, trace = harness.train_stage2_model(cfg, cas, phase_schedule(cfg), MIN_SNR_DB,
                                               "lowest")
        assert len(trace) == cfg.stage2.episodes
        assert all(np.isfinite(v).all() for v in vars(lp).values())

    def test_infinite_snr_allowed(self):
        assert SweepConfig(snr_db=(0.0, float("inf"))).snr_db[-1] == float("inf")

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
        path.write_text(json.dumps(config_to_dict(cfg)))
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
        F_bs, E = crandn(rng, 4, 12), crandn(rng, 8, 6)
        digest = save_stage1(path, dp, F_bs, E)
        back = load_stage1(path, F_bs, E)
        assert back.config == cfg
        assert set(back.params) == set(dp.params)
        for k in dp.params:
            np.testing.assert_array_equal(back.params[k], dp.params[k])
        for k in dp.buffers:
            np.testing.assert_array_equal(back.buffers[k], dp.buffers[k])
        _, meta = container.load_container(path)
        assert meta["kind"] == "stage1"
        assert meta["fingerprint"]["F_bs"]["shape"] == [4, 12]
        assert meta["fingerprint"]["E"]["sha256"] == container.content_hash({"E": E})
        assert digest == container.content_hash(
            {f"p.{k}": v for k, v in dp.params.items()}
            | {f"b.{k}": v for k, v in dp.buffers.items()})

    @pytest.mark.parametrize("stage", [1, 2])
    def test_other_form_rejected(self, tmp_path, rng, stage):
        F, E = crandn(rng, 4, 5), crandn(rng, 4, 3)
        path = tmp_path / "net.plce"
        if stage == 1:
            save_stage1(path, init_denoiser(Stage1Config(layers=3, width=4), rng), F, E)
            load = lambda: load_stage1(path, F, E)
        else:
            save_stage2(path, ListaParams(lam=np.zeros(2), kappa=np.ones(2),
                                          V=crandn(rng, 4, 3), F=crandn(rng, 4, 5)), E, F)
            load = lambda: load_stage2(path, E, F)
        arrays, meta = container.load_container(path)
        assert meta["forward"] == (STAGE1_FORM if stage == 1 else FORWARD_FORM)
        for form in (None, "another"):
            meta["forward"] = form
            container.save_container(path, arrays, meta=meta)
            with pytest.raises(ValueError, match=f"{form or 'untagged'} forward form"):
                load()

    def test_stage2_round_trip(self, tmp_path, rng):
        lp = ListaParams(lam=np.array([0.1, 0.2]), kappa=np.array([0.5, 0.4]),
                         V=crandn(rng, 8, 6), F=crandn(rng, 8, 11))
        path = tmp_path / "s2.plce"
        E, F_cas = crandn(rng, 8, 6), crandn(rng, 8, 11)
        save_stage2(path, lp, E, F_cas)
        back = load_stage2(path, E, F_cas)
        np.testing.assert_array_equal(back.lam, lp.lam)
        np.testing.assert_array_equal(back.kappa, lp.kappa)
        np.testing.assert_array_equal(back.V, lp.V)
        np.testing.assert_array_equal(back.F, lp.F)

    def test_kind_mismatch_rejected(self, tmp_path, rng):
        dp = init_denoiser(Stage1Config(layers=3, width=4), rng)
        lp = ListaParams(lam=np.zeros(2), kappa=np.ones(2),
                         V=crandn(rng, 4, 3), F=crandn(rng, 4, 5))
        p1, p2 = tmp_path / "s1.plce", tmp_path / "s2.plce"
        F, E = crandn(rng, 4, 5), crandn(rng, 4, 3)
        save_stage1(p1, dp, F, E)
        save_stage2(p2, lp, E, F)
        with pytest.raises(ValueError, match="stage-2"):
            load_stage2(p1, E, F)
        with pytest.raises(ValueError, match="stage-1"):
            load_stage1(p2, F, E)


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

    def test_stage1_is_fetched_once_the_other_schemes_ran(self, monkeypatch, micro_cfg,
                                                           micro_ctx):
        scenes = draw_scenes(micro_cfg.system, 3, "ev", 3)
        dp = init_denoiser(Stage1Config(layers=3, width=4), substream(1, "init"))
        calls = []
        monkeypatch.setitem(harness.SCHEME_FUNCS, "omp",
                            lambda pilots, ctx: calls.append("omp") or estimate_omp(pilots, ctx))
        ctx = dataclasses.replace(micro_ctx)
        got, _ = evaluate_point(scenes, ctx, 20.0, 9, "pt", ("dncnn-omp", "omp"),
                                get_stage1=lambda: calls.append("stage1") or dp)
        assert calls == ["omp", "stage1"] and ctx.stage1 is dp
        given, _ = evaluate_point(scenes, dataclasses.replace(micro_ctx, stage1=dp),
                                  20.0, 9, "pt", ("dncnn-omp", "omp"))
        for name in ("omp", "dncnn-omp"):
            np.testing.assert_array_equal(got[name], given[name])

    def test_every_scheme_names_the_networks_it_reads(self):
        assert set(SCHEME_STAGES) == set(SCHEME_FUNCS)

    def test_trials_differ_from_each_other(self, micro_cfg, micro_ctx):
        scenes = draw_scenes(micro_cfg.system, 3, "ev", 3)
        out, _ = evaluate_point(scenes, micro_ctx, 20.0, 9, "pt", ("omp",))
        assert len(set(out["omp"].tolist())) == 3


def usable_cpus(monkeypatch, count: int) -> None:
    """Make the sweep see `count` usable CPUs through its affinity lookup."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestSnrSweep:
    @pytest.mark.parametrize("schemes", [
        ("omp",),
        ("omp", "dncnn-omp", "dncnn-istanet"),
    ], ids=["omp", "all"])
    @pytest.mark.parametrize("run, stem, axis", [
        (run_snr_sweep, "snr_sweep", "snr_db"),
        (run_pilot_sweep, "pilot_sweep", "tau"),
    ], ids=["snr", "tau"])
    def test_csv_bytes_are_stable(self, monkeypatch, tmp_path, run, stem, axis, schemes):
        """The bytes of a one-process run on 1, 2, 3 and 5 usable CPUs, with one
        process more than there are CPUs, at most one per job; stage-1
        training, when there is one, is job 0 and runs in this process."""
        cfg = config_from_dict({**MICRO, "stage1": LOSS_MICRO["stage1"],
                                "stage2": LOSS_MICRO["stage2"],
                                "sweep": {**MICRO["sweep"], "schemes": list(schemes)}})
        labels = ([snr_label(v) for v in cfg.sweep.snr_db] if axis == "snr_db"
                  else [f"tau{t}" for t in cfg.sweep.tau])
        trains1 = "dncnn-omp" in schemes
        map_points = harness._map_points
        with monkeypatch.context() as m:
            m.setattr(harness, "_map_points", lambda jobs, workers: map_points(jobs, 1))
            run(cfg, tmp_path / "one")
        want = (tmp_path / "one" / f"{stem}.csv").read_bytes()
        for cpus in (1, 2, 3, 5):
            usable_cpus(monkeypatch, cpus)
            d = tmp_path / str(cpus)
            records = run(cfg, d)
            timing = json.loads((d / f"{stem}.meta.json").read_text())["timing"]
            workers = min(len(labels) + trains1, cpus + 1)
            assert timing["workers"] == workers
            assert [timing[f"worker_{label}"] for label in labels] == [
                (i + trains1) % workers for i in range(len(labels))]
            assert (d / f"{stem}.csv").read_bytes() == want
        lines = want.decode().splitlines()
        assert lines[0] == f"scheme,{axis},nmse_mean,nmse_std,trials"
        assert len(lines) == 1 + len(records)
        assert len(records) == 2 * len(schemes)     # two points per axis
        assert all(np.isfinite(rec["nmse_mean"]) for rec in records)
        meta = json.loads((d / f"{stem}.meta.json").read_text())
        assert ("stage1_trace" in meta) == ("stage1" in meta["checkpoints"]) == trains1
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

    @pytest.mark.parametrize("threads", ["1", None], ids=["set", "unset"])
    def test_meta_records_blas_threads(self, micro_cfg, tmp_path, monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        run_snr_sweep(micro_cfg, tmp_path)
        meta = json.loads((tmp_path / "snr_sweep.meta.json").read_text())
        assert meta["openblas_num_threads"] == threads


def test_package_import_pins_blas_to_one_thread():
    """A desk stage 2 large enough for OpenBLAS to thread its GEMMs (200 scenes,
    one episode) trains the same bytes with OPENBLAS_NUM_THREADS unset as set
    to 1, since importing polarce before numpy sets it. On a one-CPU machine
    the two agree without the pin as well, so there this shows nothing."""
    script = (
        "import dataclasses, os, sys\n"
        "from polarce import container, harness\n"
        "cfg = harness.load_config(sys.argv[1])\n"
        "cfg = dataclasses.replace(cfg, stage2=dataclasses.replace(\n"
        "    cfg.stage2, train_size=200, episodes=1))\n"
        "_, cas = harness.build_ris_dictionaries(cfg)\n"
        "lp, _ = harness.train_stage2_model(cfg, cas, harness.phase_schedule(cfg), 20.0,\n"
        "                                   'snr20')\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], container.content_hash(vars(lp)))\n")
    root = Path(harness.__file__).resolve().parents[2]
    argv = [sys.executable, "-c", script, str(root / "configs" / "desk.json")]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    unset, one = (subprocess.run(argv, env=e, capture_output=True, text=True,
                                 check=True).stdout
                  for e in (env, {**env, "OPENBLAS_NUM_THREADS": "1"}))
    assert unset == one and unset.startswith("1 ")


def running(pid: int) -> bool:
    """Whether a process exists and has not exited (a zombie has)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


TRAINED = {**MICRO, "stage1": LOSS_MICRO["stage1"], "stage2": LOSS_MICRO["stage2"],
           "sweep": {**MICRO["sweep"], "schemes": ["omp", "dncnn-omp", "dncnn-istanet"]}}


class TestSweepWorkers:
    """Stage 1 and the points run round-robin on one process more than there
    are usable CPUs, same bytes out."""

    @pytest.mark.parametrize("axis", ["snr_db", "tau"])
    def test_rows_match_one_point_sweeps(self, monkeypatch, tmp_path, axis):
        """Each row of a two-worker sweep is the row of that point swept alone.

        Stage 1 trains on the longest pilot block of the listed points, so a
        one-point pilot sweep at the shorter tau trains another stage 1; the
        pilot axis compares the rows that need no stage 1.
        """
        usable_cpus(monkeypatch, 2)
        if axis == "snr_db":
            cfg, run, stem = config_from_dict(TRAINED), run_snr_sweep, "snr_sweep"
            one = lambda v: dataclasses.replace(cfg.sweep, snr_db=(v,),
                                                train_snr_db=cfg.sweep.stage1_snr_db)
        else:
            cfg, run, stem = config_from_dict(MICRO), run_pilot_sweep, "pilot_sweep"
            one = lambda v: dataclasses.replace(cfg.sweep, tau=(v,))
        lines = lambda d: (d / f"{stem}.csv").read_text().splitlines()
        run(cfg, tmp_path / "all")
        rows = lines(tmp_path / "all")
        assert len(rows) == 1 + 2 * len(cfg.sweep.schemes)
        for v in getattr(cfg.sweep, axis):
            outdir = tmp_path / str(v)
            run(dataclasses.replace(cfg, sweep=one(v)), outdir)
            alone = lines(outdir)
            assert alone[0] == rows[0]
            assert alone[1:] == [r for r in rows[1:] if float(r.split(",")[1]) == v]

    @pytest.mark.parametrize("label", ["snr0", "snr20"], ids=["parent", "child"])
    def test_error_reaches_caller_and_reaps_workers(self, monkeypatch, tmp_path, label):
        usable_cpus(monkeypatch, 2)
        evaluate = harness.evaluate_point

        def failing(scenes, ctx, snr_db, seed, point, *args, **kwargs):
            if point == label:
                raise ValueError(f"no estimate at {point}")
            return evaluate(scenes, ctx, snr_db, seed, point, *args, **kwargs)

        monkeypatch.setattr(harness, "evaluate_point", failing)
        with pytest.raises(ValueError, match=f"no estimate at {label}"):
            run_snr_sweep(config_from_dict(MICRO), tmp_path)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "snr_sweep.csv").exists()

    def test_worker_that_dies_is_an_error(self, monkeypatch, tmp_path):
        usable_cpus(monkeypatch, 2)
        evaluate = harness.evaluate_point

        def dying(scenes, ctx, snr_db, seed, point, *args, **kwargs):
            if point == "snr20":
                os._exit(3)
            return evaluate(scenes, ctx, snr_db, seed, point, *args, **kwargs)

        monkeypatch.setattr(harness, "evaluate_point", dying)
        with pytest.raises(RuntimeError, match="worker 1 exited with code 3"):
            run_snr_sweep(config_from_dict(MICRO), tmp_path)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_workers_end_with_a_killed_sweep(self, tmp_path):
        """A sweep process killed by a signal, which skips its clean-up, takes
        its worker with it instead of leaving it to finish its points."""
        script = (
            "import os, sys, time\n"
            "from pathlib import Path\n"
            "from polarce import harness\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def hang(scenes, ctx, snr_db, seed, label, *args, **kwargs):\n"
            "    Path(sys.argv[1], label).write_text(str(os.getpid()))\n"
            "    time.sleep(60)\n"
            "harness.evaluate_point = hang\n"
            f"harness.run_snr_sweep(harness.config_from_dict({MICRO!r}), sys.argv[1])\n")
        src = str(Path(harness.__file__).resolve().parents[1])
        sweep = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)],
                                 env={**os.environ, "PYTHONPATH": src})
        pid_file, worker = tmp_path / "snr20", None
        try:
            deadline = time.monotonic() + 60
            while not (pid_file.exists() and pid_file.read_text()):
                assert time.monotonic() < deadline and sweep.poll() is None
                time.sleep(0.05)
            worker = int(pid_file.read_text())
            sweep.kill()
            sweep.wait()
            deadline = time.monotonic() + 10
            while running(worker):
                assert time.monotonic() < deadline, "worker outlived its sweep"
                time.sleep(0.05)
        finally:
            sweep.kill()
            sweep.wait()
            if worker is not None and running(worker):
                os.kill(worker, signal.SIGKILL)

    def test_stage1_error_stops_workers_waiting_for_it(self, monkeypatch, tmp_path):
        """Stage 1 fails in this process once both workers wait for the network:
        the error comes out with its type and message, no worker left."""
        usable_cpus(monkeypatch, 2)      # stage 1 here, one point in each of two workers
        evaluate = harness.evaluate_point

        def announcing(scenes, ctx, snr_db, seed, point, *args, get_stage1, **kwargs):
            def wait():
                (tmp_path / point).touch()
                return get_stage1()
            return evaluate(scenes, ctx, snr_db, seed, point, *args, get_stage1=wait,
                            **kwargs)

        def diverging(*args, **kwargs):
            deadline = time.monotonic() + 60
            while not ((tmp_path / "snr0").exists() and (tmp_path / "snr20").exists()):
                assert time.monotonic() < deadline, "workers never asked for stage 1"
                time.sleep(0.01)
            raise TrainingDiverged("stage-1 training diverged at episode 0: loss=nan")

        monkeypatch.setattr(harness, "evaluate_point", announcing)
        monkeypatch.setattr(harness, "train_stage1_model", diverging)
        with pytest.raises(TrainingDiverged, match="stage-1 training diverged at episode 0"):
            run_snr_sweep(config_from_dict(TRAINED), tmp_path / "out")
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out" / "snr_sweep.csv").exists()

    def test_worker_that_dies_during_stage1_is_an_error(self, monkeypatch, tmp_path):
        usable_cpus(monkeypatch, 2)
        evaluate, train = harness.evaluate_point, harness.train_stage1_model

        def dying(scenes, ctx, snr_db, seed, point, *args, **kwargs):
            if point == "snr0":
                os._exit(3)
            return evaluate(scenes, ctx, snr_db, seed, point, *args, **kwargs)

        def train_once_a_worker_is_gone(*args, **kwargs):
            deadline = time.monotonic() + 60
            while len(multiprocessing.active_children()) > 1:
                assert time.monotonic() < deadline, "worker 1 never exited"
                time.sleep(0.01)
            return train(*args, **kwargs)

        monkeypatch.setattr(harness, "evaluate_point", dying)
        monkeypatch.setattr(harness, "train_stage1_model", train_once_a_worker_is_gone)
        with pytest.raises(RuntimeError, match="worker 1 exited with code 3"):
            run_snr_sweep(config_from_dict(TRAINED), tmp_path)
        assert multiprocessing.active_children() == []

    def test_failed_worker_is_raised_before_worker_0s_next_job(self):
        """A forked worker that fails in its first job stops the map at worker
        0's next job boundary, not once worker 0 has run all of its jobs."""
        started = []

        def first_job(_first):
            deadline = time.monotonic() + 60
            while multiprocessing.active_children():   # reaps worker 1 once it exits
                assert time.monotonic() < deadline, "worker 1 never failed"
                time.sleep(0.01)
            return "stage 1"

        def failing(_first):
            raise ValueError("no estimate at snr0")

        with pytest.raises(ValueError, match="no estimate at snr0"):
            harness._map_points([first_job, failing, lambda _first: started.append(1)], 2)
        assert started == []
        assert multiprocessing.active_children() == []

    def test_one_work_item_runs_in_process(self, monkeypatch, tmp_path):
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "get_context", None)   # any fork fails
        cfg = config_from_dict(MICRO)
        run_snr_sweep(dataclasses.replace(
            cfg, sweep=dataclasses.replace(cfg.sweep, snr_db=(20.0,))), tmp_path)
        timing = json.loads((tmp_path / "snr_sweep.meta.json").read_text())["timing"]
        assert timing["workers"] == 1 and timing["worker_snr20"] == 0


def test_stage1_pairs_in_chunks_are_one_call(monkeypatch, micro_cfg):
    """Stage-1 pairs made a few scenes at a time are those of one call on all."""
    monkeypatch.setattr(harness, "_SCENE_CHUNK", 5)
    system, seed, snrs = micro_cfg.system, micro_cfg.sweep.seed, (0.0, 20.0)
    bs, E = build_bs_dictionary(micro_cfg), phase_schedule(micro_cfg)
    got = harness._stage1_dataset(micro_cfg, bs, E, system, "pairs", 12, snrs)
    scenes = draw_scenes(system, seed, "pairs-scene", 12)
    nvs = [noise_var_for_snr(sc, system, E, snrs[i % 2]) for i, sc in enumerate(scenes)]
    want = make_stage1_dataset(system, bs, E, scenes, nvs, substream(seed, "pairs-noise"))
    assert got.C.shape == (12, bs.F.shape[1], 1)
    assert got.C.tobytes() == want.C.tobytes() and got.X.tobytes() == want.X.tobytes()


def test_stage2_pairs_in_chunks_are_one_call(monkeypatch, micro_cfg):
    """Stage-2 pairs made a few scenes at a time, on scenes of several paths,
    are those of one call on all, and no more than a chunk of training scenes
    is alive at once."""
    monkeypatch.setattr(harness, "_SCENE_CHUNK", 5)
    system = dataclasses.replace(micro_cfg.system, paths_bs=3, paths_ris=2)
    cfg = dataclasses.replace(micro_cfg, system=system,
                              stage2=dataclasses.replace(micro_cfg.stage2, train_size=12))
    seed, E = cfg.sweep.seed, phase_schedule(cfg)
    scenes = draw_scenes(system, seed, "train2-scene", 12)
    nvs = [noise_var_for_snr(sc, system, E, 20.0) for sc in scenes]
    want = make_stage2_dataset(system, scenes, E, nvs, substream(seed, "train2-noise", "pairs"))
    del scenes
    alive, counts = weakref.WeakValueDictionary(), []   # a scene is not hashable

    def spy(*args):
        scene = draw_scene(*args)
        alive[len(counts)] = scene
        counts.append(len(alive))
        return scene

    monkeypatch.setattr(harness, "draw_scene", spy)
    got = harness._stage2_dataset(cfg, E, 20.0, "pairs", system)
    assert got.P.shape == (system.tau, 12 * system.paths_bs)
    assert got.P.tobytes() == want.P.tobytes() and got.Xl.tobytes() == want.Xl.tobytes()
    assert len(counts) == 12 and max(counts) == 5


def test_sweep_draws_no_training_scene_before_it_forks(monkeypatch, tmp_path):
    """Every point draws its stage-2 training scenes itself, after the fork."""
    usable_cpus(monkeypatch, 1)
    labels, at_fork = [], []
    sub, map_points = harness.substream, harness._map_points
    monkeypatch.setattr(harness, "substream",
                        lambda seed, *names: labels.append(names[0]) or sub(seed, *names))
    monkeypatch.setattr(harness, "_map_points",
                        lambda jobs, workers: at_fork.append(list(labels))
                        or map_points(jobs, workers))
    cfg = config_from_dict(MICRO)
    run_snr_sweep(dataclasses.replace(cfg, sweep=dataclasses.replace(
        cfg.sweep, schemes=("omp", "dncnn-omp", "dncnn-istanet"))), tmp_path)
    # this process trains stage 1, then runs the second point
    assert "train2-scene" not in at_fork[0] and "train2-scene" in labels


def test_default_context_picks_the_sweep_supports(small_system, small_bs_dict,
                                                  small_cas_dict, small_E):
    """A context built without support_guard picks at the sweep's guard."""
    scenes = draw_scenes(small_system, 4, "guard", 40)
    pilots = [simulate_pilots(sc, small_system, small_E,
                              noise_var_for_snr(sc, small_system, small_E, 10.0),
                              substream(4, "guard-noise", str(t)))
              for t, sc in enumerate(scenes)]
    ctx = PipelineContext(config=small_system, bs=small_bs_dict, cas=small_cas_dict,
                          E=small_E)
    picks = lambda c: [sup.indices.tolist() for sup in _stage1_project(pilots, c)[0]]
    guard = SweepConfig().support_guard
    assert ctx.support_guard == guard
    assert picks(ctx) == picks(dataclasses.replace(ctx, support_guard=guard))
    assert picks(ctx) != picks(dataclasses.replace(ctx, support_guard=0))


def test_greedy_schemes_share_one_design_per_context(monkeypatch, small_system,
                                                     small_bs_dict, small_cas_dict, small_E):
    """omp and dncnn-omp form E^H F_cas once per context, not once per call."""
    built = []
    build = VectorizedProblem.build
    monkeypatch.setattr(VectorizedProblem, "build", lambda *a: built.append(a) or build(*a))
    scenes = draw_scenes(small_system, 41, "share", 2)
    pilots = [simulate_pilots(sc, small_system, small_E,
                              noise_var_for_snr(sc, small_system, small_E, 10.0),
                              substream(4, "share-noise", str(t)))
              for t, sc in enumerate(scenes)]
    ctx = PipelineContext(config=small_system, bs=small_bs_dict, cas=small_cas_dict,
                          E=small_E)
    for _ in range(2):
        estimate_omp(pilots, ctx)
        estimate_dncnn_omp(pilots, ctx)
    assert len(built) == 1
    assert ctx.problem.Psi.tobytes() == (small_E.conj().T @ small_cas_dict.F).tobytes()


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
            assert len(entry["trace"]) == 2
            assert entry["init_loss"] > 0
            assert entry["final_loss"] > 0

    def test_csv_bytes_do_not_depend_on_workers(self, monkeypatch, tmp_path):
        """Four trainings write the bytes of a one-process run on 1, 2, 3 and 5
        usable CPUs, on one process more than there are CPUs, at most four."""
        cfg = config_from_dict({**LOSS_MICRO, "sweep": {**LOSS_MICRO["sweep"],
                                                        "depths": [3, 4]}})
        map_points = harness._map_points
        with monkeypatch.context() as m:
            m.setattr(harness, "_map_points", lambda jobs, workers: map_points(jobs, 1))
            want = run_loss_curves(cfg, tmp_path / "one")
        for cpus in (1, 2, 3, 5):
            usable_cpus(monkeypatch, cpus)
            d = tmp_path / str(cpus)
            assert run_loss_curves(cfg, d) == want
            meta = json.loads((d / "loss_curves.meta.json").read_text())
            assert meta["timing"]["workers"] == min(4, cpus + 1)
            assert ((d / "loss_curves.csv").read_bytes()
                    == (tmp_path / "one" / "loss_curves.csv").read_bytes())

    def test_meta_records_blas_threads(self, loss_result):
        _, outdir, _ = loss_result
        meta = json.loads((outdir / "loss_curves.meta.json").read_text())
        assert meta["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")

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
