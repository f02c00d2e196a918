"""Command line surface: exit codes, JSON output, artifact round trips."""
import json
import multiprocessing
import os

import numpy as np
import pytest

from polarce import harness
from polarce.cli import main
from polarce.container import load_container, save_container
from polarce.harness import load_config, load_stage1, load_stage2, save_stage2
from polarce.unrolled import ListaParams

MICRO = {
    "system": {"n_bs": 4, "n_ris": 8, "tau": 6, "paths_bs": 1, "paths_ris": 1},
    "ris_grid": {"angle_count": 4},
    "stage1": {"layers": 3, "width": 4, "lr": 1e-3, "batch": 8,
               "episodes": 2, "train_size": 12, "val_size": 0},
    "stage2": {"layers": 3, "lr": 1e-3, "batch": 8, "episodes": 2,
               "train_size": 8, "probe": 8},
    "sweep": {"snr_db": [0.0, 20.0], "tau": [4, 6], "trials": 3,
              "schemes": ["omp", "dncnn-omp"], "depths": [3], "seed": 11},
}


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "micro.json"
    path.write_text(json.dumps(MICRO))
    return str(path)


@pytest.fixture(scope="module")
def omp_cfg_file(tmp_path_factory):
    data = dict(MICRO)
    data["sweep"] = dict(MICRO["sweep"], schemes=["omp"])
    path = tmp_path_factory.mktemp("cfg") / "omp.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module")
def all_cfg_file(tmp_path_factory):
    data = dict(MICRO)
    data["sweep"] = dict(MICRO["sweep"], schemes=["omp", "dncnn-omp", "dncnn-istanet"])
    path = tmp_path_factory.mktemp("cfg") / "all.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module")
def tau4_cfg_file(tmp_path_factory):
    data = dict(MICRO)
    data["system"] = dict(MICRO["system"], tau=4)
    path = tmp_path_factory.mktemp("cfg") / "tau4.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module")
def bs20_cfg_file(tmp_path_factory):
    """The micro config with a 20-atom BS grid and another seed."""
    data = dict(MICRO, bs_grid={"angle_count": 20})
    data["sweep"] = dict(MICRO["sweep"], seed=5)
    path = tmp_path_factory.mktemp("cfg") / "bs20.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module")
def ris6_cfg_file(tmp_path_factory):
    """The micro config with another RIS grid, hence another cascaded dictionary."""
    data = dict(MICRO, ris_grid={"angle_count": 6})
    path = tmp_path_factory.mktemp("cfg") / "ris6.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module")
def stage2_ckpt(tmp_path_factory, cfg_file):
    path = tmp_path_factory.mktemp("ck") / "s2.plce"
    rc = main(["train", "stage2", "--config", cfg_file, "--snr", "20",
               "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def sweep_lines_at_20(tmp_path_factory, all_cfg_file):
    """Header and 20 dB rows of `sweep snr` with all three schemes."""
    out_dir = tmp_path_factory.mktemp("sweep")
    assert main(["sweep", "snr", "--config", all_cfg_file, "--out", str(out_dir)]) == 0
    lines = (out_dir / "snr_sweep.csv").read_text().splitlines()
    return [lines[0]] + [line for line in lines[1:] if line.split(",")[1] == "20"]


@pytest.fixture(scope="module")
def stage1_ckpt(tmp_path_factory, cfg_file):
    path = tmp_path_factory.mktemp("ck") / "s1.plce"
    rc = main(["train", "stage1", "--config", cfg_file, "--out", str(path)])
    assert rc == 0
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestConfigErrors:
    def test_missing_config_file(self, capsys):
        rc, out, err = run(capsys, ["info", "--config", "/no/such/file.json"])
        assert rc == 2
        msg = json.loads(err)
        assert "not found" in msg["error"]

    def test_unparseable_config(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _, err = run(capsys, ["info", "--config", str(path)])
        assert rc == 2
        assert "bad config file" in json.loads(err)["error"]

    def test_unknown_config_key(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"bogus": {}}))
        rc, _, err = run(capsys, ["info", "--config", str(path)])
        assert rc == 2
        assert "top-level" in json.loads(err)["error"]

    def test_unknown_subcommand(self):
        for command in ("frobnicate", "leakage"):
            with pytest.raises(SystemExit) as exc:
                main([command])
            assert exc.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_negative_seed_option(self, capsys, omp_cfg_file, tmp_path):
        rc, _, err = run(capsys, ["eval", "--config", omp_cfg_file, "--seed", "-3",
                                  "--out", str(tmp_path)])
        assert rc == 2
        assert "seed must be nonnegative" in json.loads(err)["error"]

    def test_negative_seed_in_config(self, capsys, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(dict(MICRO, sweep=dict(MICRO["sweep"], seed=-1))))
        rc, _, err = run(capsys, ["eval", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "seed must be nonnegative" in json.loads(err)["error"]

    @pytest.mark.parametrize("section, bad", [
        ("stage2", {"layers": 0}), ("stage1", {"kernel": 2}),
        ("stage1", {"layers": 1}), ("stage2", {"batch": 0}),
        ("stage1", {"episodes": -2}), ("stage2", {"episodes": -2}),
        ("stage2", {"probe": -1}), ("stage2", {"lam_scale": -1}),
        ("stage1", {"bn_eps": -1}), ("stage1", {"lr": -1e-3}), ("stage2", {"lr": -1e-3}),
        ("stage1", {"bn_momentum": 1.5}),
    ], ids=["stage2-no-layers", "stage1-even-kernel", "stage1-one-layer",
            "stage2-zero-batch", "stage1-negative-episodes", "stage2-negative-episodes",
            "stage2-negative-probe", "stage2-negative-lam-scale", "stage1-negative-bn-eps",
            "stage1-negative-lr", "stage2-negative-lr", "stage1-bn-momentum-above-1"])
    def test_bad_network_config(self, capsys, tmp_path, section, bad):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(dict(MICRO, **{section: dict(MICRO[section], **bad)})))
        rc, _, err = run(capsys, ["train", section, "--config", str(path),
                                  "--out", str(tmp_path / "net.plce")])
        assert rc == 2
        msg = json.loads(err)["error"]
        assert section in msg and next(iter(bad)) in msg

    @pytest.mark.parametrize("axis, section, bad, field", [
        ("layers", "sweep", {"depths": [1, 3]}, "sweep.depths"),
        ("tau", "sweep", {"tau": [0, 4]}, "sweep.tau"),
        ("snr", "sweep", {"phase_kind": "hadamard"}, "phase_kind"),
        ("snr", "sweep", {"snr_convention": "noise"}, "snr_convention"),
        ("snr", "system", {"bs_dist": [30, 5]}, "bs_dist"),
        ("snr", "system", {"ris_dist": [20, 1]}, "ris_dist"),
        ("snr", "system", {"paths_bs": 0}, "paths_bs"),
        ("snr", "system", {"paths_ris": 0}, "paths_ris"),
        ("layers", "stage1", {"train_size": 0}, "stage1"),
        ("layers", "stage2", {"train_size": 0}, "stage2"),
        ("snr", "stage1", {"val_size": -1}, "val_size"),
        ("snr", "sweep", {"support_guard": -1}, "support_guard"),
        ("snr", "system", {"power": 0}, "power"),
        ("snr", "sweep", {"schemes": ["omp", "omp"]}, "schemes"),
        ("snr", "sweep", {"schemes": []}, "schemes"),
    ], ids=["depth-1", "tau-0", "phase-kind", "snr-convention", "bs-dist-reversed",
            "ris-dist-reversed", "no-bs-paths", "no-ris-paths", "stage1-no-train",
            "stage2-no-train", "stage1-negative-val", "negative-guard", "zero-power",
            "duplicate-scheme", "no-schemes"])
    def test_bad_sweep_config(self, capsys, tmp_path, axis, section, bad, field):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(MICRO, **{section: dict(MICRO[section], **bad)})))
        rc, _, err = run(capsys, ["sweep", axis, "--config", str(path),
                                  "--out", str(tmp_path / "out")])
        assert rc == 2
        assert field in json.loads(err)["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, bad, field", [
        ("sweep", {"trials": 2.5}, "sweep.trials"),
        ("system", {"n_bs": 8.0}, "system.n_bs"),
        ("stage1", {"episodes": 1.5}, "stage1.episodes"),
        ("bs_grid", {"include_far": "no"}, "bs_grid.include_far"),
        ("stage2", {"layers": True}, "stage2.layers"),
        ("sweep", {"tau": [4, 6.5]}, "sweep.tau"),
    ], ids=["float-trials", "float-n-bs", "float-episodes", "string-bool", "bool-int",
            "float-in-int-list"])
    def test_wrong_typed_value(self, capsys, tmp_path, section, bad, field):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(dict(MICRO, **{section: dict(MICRO.get(section, {}), **bad)})))
        rc, out, err = run(capsys, ["info", "--config", str(path)])
        assert rc == 2 and out == ""
        assert field in json.loads(err)["error"]

    @pytest.mark.parametrize("section, value, want", [
        ("ris_grid", {"ring_limit": None}, None), ("system", {"spacing_m": None}, None),
        ("system", {"power": 2}, 2.0),
    ], ids=["null-ring-limit", "null-spacing", "int-for-float"])
    def test_typed_values_accepted(self, capsys, tmp_path, section, value, want):
        key, v = next(iter(value.items()))
        paths = []
        for name, given in (("typed", v), ("as-held", want)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(
                dict(MICRO, **{section: dict(MICRO.get(section, {}), **{key: given})})))
        rc, out, _ = run(capsys, ["info", "--config", str(paths[0])])
        assert rc == 0
        assert json.loads(out)["config"][section][key] == v
        # a float field holds a float, so 2 and 2.0 name the same experiment
        cfg = load_config(paths[0])
        got = getattr(getattr(cfg, section), key)
        assert type(got) is type(want) and got == want
        assert harness._config_hash(cfg) == harness._config_hash(load_config(paths[1]))

    def test_training_divergence(self, capsys, tmp_path):
        path = tmp_path / "wild.json"
        path.write_text(json.dumps(dict(MICRO, stage2=dict(MICRO["stage2"], lr=1e6))))
        with np.errstate(all="ignore"):
            rc, out, err = run(capsys, ["train", "stage2", "--config", str(path),
                                        "--out", str(tmp_path / "s2.plce")])
        # the progress line, then the error
        assert rc == 2 and out == "" and "Traceback" not in err
        assert "stage-2 training diverged" in json.loads(err.splitlines()[-1])["error"]
        assert not (tmp_path / "s2.plce").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sweep_divergence(self, capsys, monkeypatch, tmp_path, cpus):
        # stage 1 trains in this process; the first point trains stage 2 in a
        # forked worker, and with two usable CPUs so does the second
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        path = tmp_path / "wild.json"
        path.write_text(json.dumps(dict(
            MICRO, stage2=dict(MICRO["stage2"], lr=1e6),
            sweep=dict(MICRO["sweep"], schemes=["omp", "dncnn-istanet"]))))
        with np.errstate(all="ignore"):
            rc, out, err = run(capsys, ["sweep", "snr", "--config", str(path),
                                        "--out", str(tmp_path / "out")])
        assert rc == 2 and out == "" and "Traceback" not in err
        assert "stage-2 training diverged" in json.loads(err.splitlines()[-1])["error"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sweep_stage1_divergence(self, capsys, monkeypatch, tmp_path, cpus):
        # stage 1 diverges in this process while forked workers wait for it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        path = tmp_path / "wild.json"
        path.write_text(json.dumps(dict(MICRO, stage1=dict(MICRO["stage1"], lr=1e300))))
        with np.errstate(all="ignore"):
            rc, out, err = run(capsys, ["sweep", "snr", "--config", str(path),
                                        "--out", str(tmp_path / "out")])
        assert rc == 2 and out == "" and "Traceback" not in err
        assert "stage-1 training diverged" in json.loads(err.splitlines()[-1])["error"]
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out" / "snr_sweep.csv").exists()

    @pytest.mark.parametrize("command", [["eval"], ["simulate"], ["train", "stage2"]])
    def test_nan_snr(self, capsys, omp_cfg_file, tmp_path, command):
        rc, _, err = run(capsys, [*command, "--config", omp_cfg_file, "--snr", "nan",
                                  "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "not nan" in json.loads(err)["error"]


class TestInfo:
    def test_derived_sizes(self, capsys, cfg_file):
        rc, out, _ = run(capsys, ["info", "--config", cfg_file])
        assert rc == 0
        info = json.loads(out)
        derived = info["derived"]
        assert derived["wavelength_m"] == pytest.approx(0.01, rel=1e-2)
        assert derived["bs"]["grid_size"] == 12
        assert derived["ris"]["grid_size"] == 4
        assert derived["ris"]["cascaded_size"] == 7
        assert derived["vectorized_design"] == {"rows": 24, "cols": 84}
        assert derived["bs"]["rayleigh_m"] > 0
        assert info["config"]["system"]["n_bs"] == 4

    def test_seed_override(self, capsys, cfg_file):
        rc, out, _ = run(capsys, ["info", "--config", cfg_file, "--seed", "99"])
        assert rc == 0
        assert json.loads(out)["config"]["sweep"]["seed"] == 99

    def test_out_is_refused(self, capsys, cfg_file, tmp_path):
        rc, out, err = run(capsys, ["info", "--config", cfg_file,
                                    "--out", str(tmp_path / "dicts.plce")])
        assert rc == 2 and out == ""
        assert "build-dict --out" in json.loads(err)["error"]
        assert not (tmp_path / "dicts.plce").exists()


class TestBuildDict:
    def test_writes_container(self, capsys, cfg_file, tmp_path):
        out_file = tmp_path / "dicts.plce"
        rc, out, _ = run(capsys, ["build-dict", "--config", cfg_file,
                                  "--out", str(out_file)])
        assert rc == 0
        info = json.loads(out)
        assert info["bs_grid_size"] == 12
        assert info["cascaded_size"] == 7
        assert info["pair_count"] == 16
        arrays, meta = load_container(out_file)
        assert meta["kind"] == "dictionaries"
        assert arrays["F_bs"].shape == (4, 12)
        assert arrays["F_cas"].shape == (8, 7)
        assert set(arrays) == {"F_bs", "F_cas", "delta_sin", "delta_curv"}


class TestSimulate:
    def test_artifact_contents(self, capsys, cfg_file, tmp_path):
        out_file = tmp_path / "pilots.plce"
        rc, out, _ = run(capsys, ["simulate", "--config", cfg_file,
                                  "--trials", "2", "--snr", "10",
                                  "--out", str(out_file)])
        assert rc == 0
        assert json.loads(out)["trials"] == 2
        arrays, meta = load_container(out_file)
        assert meta["kind"] == "pilots"
        assert meta["snr_db"] == 10.0
        assert arrays["Y"].shape == (2, 4, 6)
        assert arrays["G"].shape == (2, 4, 8)
        assert arrays["E"].shape == (8, 6)
        assert np.all(arrays["noise_var"] > 0)

    def test_infinite_snr_is_noiseless(self, capsys, cfg_file, tmp_path):
        out_file = tmp_path / "clean.plce"
        rc, _, _ = run(capsys, ["simulate", "--config", cfg_file, "--trials", "2",
                                "--snr", "inf", "--out", str(out_file)])
        assert rc == 0
        arrays, _ = load_container(out_file)
        assert np.all(arrays["noise_var"] == 0)
        np.testing.assert_allclose(arrays["Y"], arrays["G"] @ arrays["E"], atol=1e-12)

    def test_zero_trials(self, capsys, cfg_file, tmp_path):
        rc, _, err = run(capsys, ["simulate", "--config", cfg_file, "--trials", "0",
                                  "--out", str(tmp_path / "p.plce")])
        assert rc == 2
        assert "--trials" in json.loads(err)["error"]

    def test_repeat_runs_are_identical(self, capsys, cfg_file, tmp_path):
        digests = []
        for name in ("a.plce", "b.plce"):
            rc, out, _ = run(capsys, ["simulate", "--config", cfg_file,
                                      "--trials", "2", "--snr", "10",
                                      "--out", str(tmp_path / name)])
            assert rc == 0
            digests.append(json.loads(out)["sha256"])
        assert digests[0] == digests[1]

    def test_seed_changes_draws(self, capsys, cfg_file, tmp_path):
        digests = []
        for seed in ("1", "2"):
            rc, out, _ = run(capsys, ["simulate", "--config", cfg_file,
                                      "--trials", "2", "--snr", "10",
                                      "--seed", seed,
                                      "--out", str(tmp_path / f"s{seed}.plce")])
            assert rc == 0
            digests.append(json.loads(out)["sha256"])
        assert digests[0] != digests[1]


class TestTrain:
    def test_stage1_checkpoint_loads(self, stage1_ckpt, cfg_file):
        cfg = load_config(cfg_file)
        dp = load_stage1(stage1_ckpt, harness.build_bs_dictionary(cfg).F,
                         harness.phase_schedule(cfg))
        assert dp.config.layers == 3
        assert dp.config.width == 4

    def test_stage2_checkpoint_loads(self, capsys, cfg_file, tmp_path):
        out_file = tmp_path / "s2.plce"
        rc, out, _ = run(capsys, ["train", "stage2", "--config", cfg_file,
                                  "--snr", "20", "--out", str(out_file)])
        assert rc == 0
        info = json.loads(out)
        assert info["episodes"] == 2
        assert np.isfinite(info["final_loss"])
        cfg = load_config(cfg_file)
        _, cas = harness.build_ris_dictionaries(cfg)
        lp = load_stage2(out_file, harness.phase_schedule(cfg), cas.F)
        assert lp.lam.shape == (3,)
        assert lp.F.shape[1] == 7


    @pytest.mark.parametrize("network", ["stage1", "stage2"])
    def test_zero_episodes(self, capsys, tmp_path, network):
        """No episode, no loss: the untrained network is written all the same."""
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(dict(MICRO, **{network: dict(MICRO[network], episodes=0)})))
        out_file = tmp_path / "net.plce"
        rc, out, _ = run(capsys, ["train", network, "--config", str(path),
                                  "--out", str(out_file)])
        assert rc == 0
        info = json.loads(out)
        assert info["final_loss"] is None and info["episodes"] == 0
        assert out_file.exists()


class TestEval:
    def test_with_checkpoint(self, capsys, cfg_file, stage1_ckpt, tmp_path):
        out_dir = tmp_path / "ev"
        rc, out, _ = run(capsys, ["eval", "--config", cfg_file,
                                  "--snr", "20", "--stage1", stage1_ckpt,
                                  "--no-train", "--out", str(out_dir)])
        assert rc == 0
        means = json.loads(out)
        assert set(means) == {"omp", "dncnn-omp"}
        lines = (out_dir / "eval.csv").read_text().splitlines()
        assert lines[0] == "scheme,snr_db,nmse_mean,nmse_std,trials"
        assert len(lines) == 3

    def test_no_train_without_checkpoint(self, capsys, cfg_file, tmp_path):
        rc, _, err = run(capsys, ["eval", "--config", cfg_file,
                                  "--no-train", "--out", str(tmp_path)])
        assert rc == 2
        assert "--stage1" in json.loads(err)["error"]

    def test_missing_checkpoint_path(self, capsys, cfg_file, tmp_path):
        rc, _, err = run(capsys, ["eval", "--config", cfg_file,
                                  "--stage1", str(tmp_path / "none.plce"),
                                  "--out", str(tmp_path)])
        assert rc == 2
        assert "not found" in json.loads(err)["error"]

    def test_matches_sweep_row(self, capsys, all_cfg_file, sweep_lines_at_20,
                               tmp_path):
        rc, out, _ = run(capsys, ["eval", "--config", all_cfg_file,
                                  "--snr", "20", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "eval.csv").read_text().splitlines() == sweep_lines_at_20
        assert len(json.loads(out)) == 3
        meta = json.loads((tmp_path / "eval.meta.json").read_text())
        assert set(meta["stage2_traces"]) == {"20"}

    def test_stage2_checkpoint_matches_sweep_row(self, capsys, all_cfg_file,
                                                 stage2_ckpt, sweep_lines_at_20,
                                                 tmp_path):
        rc, _, _ = run(capsys, ["eval", "--config", all_cfg_file, "--snr", "20",
                                "--stage2", stage2_ckpt, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "eval.csv").read_text().splitlines() == sweep_lines_at_20

    def test_stage1_checkpoint_matches_sweep_row(self, capsys, all_cfg_file,
                                                 stage1_ckpt, sweep_lines_at_20,
                                                 tmp_path):
        """A stage-1 network trained in float32 and stored in float64 gives
        the sweep's own dncnn-omp row."""
        rc, _, _ = run(capsys, ["eval", "--config", all_cfg_file, "--snr", "20",
                                "--stage1", stage1_ckpt, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert lines == sweep_lines_at_20
        assert any(line.startswith("dncnn-omp,") for line in lines)

    def test_stage2_checkpoint_other_pilot_length(self, capsys, tau4_cfg_file,
                                                  stage2_ckpt, tmp_path):
        rc, _, err = run(capsys, ["eval", "--config", tau4_cfg_file,
                                  "--stage2", stage2_ckpt, "--out", str(tmp_path)])
        assert rc == 2
        assert "this run has E of shape [8, 4]" in json.loads(err)["error"]

    def test_stage2_checkpoint_other_schedule(self, capsys, cfg_file,
                                              stage2_ckpt, tmp_path):
        rc, _, err = run(capsys, ["eval", "--config", cfg_file, "--seed", "1",
                                  "--stage2", stage2_ckpt, "--out", str(tmp_path)])
        assert rc == 2
        assert "trained against E of shape [8, 6]" in json.loads(err)["error"]

    def test_stage2_checkpoint_other_cascaded_dictionary(self, capsys, ris6_cfg_file,
                                                         stage2_ckpt, tmp_path):
        rc, _, err = run(capsys, ["eval", "--config", ris6_cfg_file,
                                  "--stage2", stage2_ckpt, "--out", str(tmp_path)])
        assert rc == 2
        assert "trained against F_cas of shape [8, 7]" in json.loads(err)["error"]

    def test_stage2_checkpoint_without_fingerprint(self, capsys, cfg_file, tmp_path):
        bare = tmp_path / "bare.plce"
        save_container(bare, {"lam": np.zeros(3), "kappa": np.ones(3),
                              "V": np.ones((8, 6), dtype=complex),
                              "F": np.ones((8, 7), dtype=complex)},
                       meta={"kind": "stage2"})
        rc, _, err = run(capsys, ["eval", "--config", cfg_file, "--stage2", str(bare),
                                  "--out", str(tmp_path)])
        assert rc == 2
        assert "fingerprint" in json.loads(err)["error"]

    def test_stage1_checkpoint_other_bs_grid(self, capsys, bs20_cfg_file,
                                             stage1_ckpt, tmp_path):
        rc, out, err = run(capsys, ["eval", "--config", bs20_cfg_file,
                                    "--stage1", stage1_ckpt, "--no-train",
                                    "--out", str(tmp_path)])
        assert (rc, out) == (2, "")
        assert "trained against F_bs of shape [4, 12]" in json.loads(err)["error"]

    def test_stage1_checkpoint_other_schedule(self, capsys, cfg_file, stage1_ckpt,
                                              tmp_path):
        rc, _, err = run(capsys, ["eval", "--config", cfg_file, "--seed", "1",
                                  "--stage1", stage1_ckpt, "--no-train",
                                  "--out", str(tmp_path)])
        assert rc == 2
        assert "trained against E of shape [8, 6]" in json.loads(err)["error"]

    def test_stage1_checkpoint_without_fingerprint(self, capsys, cfg_file,
                                                   stage1_ckpt, tmp_path):
        arrays, meta = load_container(stage1_ckpt)
        del meta["fingerprint"]
        bare = tmp_path / "bare1.plce"
        save_container(bare, arrays, meta=meta)
        rc, _, err = run(capsys, ["eval", "--config", cfg_file, "--stage1", str(bare),
                                  "--no-train", "--out", str(tmp_path)])
        assert rc == 2
        assert "fingerprint" in json.loads(err)["error"]

    def test_wrong_kind_checkpoint(self, capsys, cfg_file, tmp_path, rng):
        bad = tmp_path / "s2.plce"
        lp = ListaParams(lam=np.zeros(2), kappa=np.ones(2),
                         V=np.eye(4, dtype=complex), F=np.eye(4, dtype=complex))
        save_stage2(bad, lp, np.eye(4), np.eye(4))
        rc, _, err = run(capsys, ["eval", "--config", cfg_file,
                                  "--stage1", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "bad stage-1 checkpoint" in json.loads(err)["error"]

    @pytest.mark.parametrize("form", [None, "synthesis"])
    def test_stage2_checkpoint_of_another_forward_form(self, capsys, cfg_file,
                                                       stage2_ckpt, tmp_path, form):
        # same shapes and fingerprint, but another network: an untagged
        # checkpoint predates the coefficient-domain forward pass
        arrays, meta = load_container(stage2_ckpt)
        del meta["forward"]
        if form is not None:
            meta["forward"] = form
        old = tmp_path / "old2.plce"
        save_container(old, arrays, meta=meta)
        rc, out, err = run(capsys, ["eval", "--config", cfg_file, "--stage2", str(old),
                                    "--out", str(tmp_path)])
        assert (rc, out) == (2, "")
        msg = json.loads(err)["error"]
        assert "bad stage-2 checkpoint" in msg and "forward form" in msg

    @pytest.mark.parametrize("form", [None, "slot-average-Lcol", "row-energy-1col"])
    def test_stage1_checkpoint_of_another_input_form(self, capsys, cfg_file,
                                                     stage1_ckpt, tmp_path, form):
        # same fingerprint, but another network: an untagged checkpoint
        # predates the one-column row-energy input, and a row-energy-1col one
        # holds square k x k kernels
        arrays, meta = load_container(stage1_ckpt)
        del meta["forward"]
        if form is not None:
            meta["forward"] = form
        if form == "row-energy-1col":
            for name, w in arrays.items():
                if name.endswith("_w"):
                    k = w.shape[0]
                    arrays[name] = np.zeros((k, k) + w.shape[2:])
                    arrays[name][:, k // 2:k // 2 + 1] = w
        old = tmp_path / "old1.plce"
        save_container(old, arrays, meta=meta)
        rc, out, err = run(capsys, ["eval", "--config", cfg_file, "--stage1", str(old),
                                    "--no-train", "--out", str(tmp_path)])
        assert (rc, out) == (2, "")
        msg = json.loads(err)["error"]
        assert "bad stage-1 checkpoint" in msg and "forward form" in msg
        assert (form or "untagged") in msg


class TestSweep:
    def test_snr_axis(self, capsys, omp_cfg_file, tmp_path):
        out_dir = tmp_path / "snr"
        rc, out, _ = run(capsys, ["sweep", "snr", "--config", omp_cfg_file,
                                  "--out", str(out_dir)])
        assert rc == 0
        assert json.loads(out)["points"] == 2
        lines = (out_dir / "snr_sweep.csv").read_text().splitlines()
        assert lines[0] == "scheme,snr_db,nmse_mean,nmse_std,trials"
        assert len(lines) == 3

    def test_tau_axis(self, capsys, omp_cfg_file, tmp_path):
        out_dir = tmp_path / "tau"
        rc, out, _ = run(capsys, ["sweep", "tau", "--config", omp_cfg_file,
                                  "--out", str(out_dir)])
        assert rc == 0
        lines = (out_dir / "pilot_sweep.csv").read_text().splitlines()
        assert lines[0] == "scheme,tau,nmse_mean,nmse_std,trials"
        assert len(lines) == 3

    def test_layers_axis(self, capsys, omp_cfg_file, tmp_path):
        out_dir = tmp_path / "layers"
        rc, out, _ = run(capsys, ["sweep", "layers", "--config", omp_cfg_file,
                                  "--out", str(out_dir)])
        assert rc == 0
        assert json.loads(out)["points"] == 2
        lines = (out_dir / "loss_curves.csv").read_text().splitlines()
        assert lines[0] == "network,depth,episode,loss"

