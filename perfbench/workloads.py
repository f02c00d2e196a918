"""The three benchmark workloads, each driving `polarce` through public calls.

A workload builds its inputs in `setup` (timed as set-up), repeats `round`
(the measured unit of work), and `check`s the outputs afterwards. Every
scene, noise draw, phase schedule and initial network comes from the
workload seed.

- paper-train: paper-profile stage-1 and stage-2 Adam batches of 32.
- paper-eval: the three estimators on one shared batch of paper-profile
  pilot blocks, with the networks at their deterministic init.
- desk-sweep: a shortened `run_snr_sweep` on the desk profile.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from polarce import channel, denoiser, harness, schemes, unrolled
from polarce.rng import substream

__all__ = ["WORKLOADS", "CheckError"]

BATCH = 32
BATCHES_PER_CALL = 4          # Adam batches per train_stage1 / train_stage2 call
SNR_DB = 10.0                 # paper-profile operating point
EVAL_TRIALS = 32              # paper-eval pilot blocks per scheme call
CHECK_TRIALS = 16             # paper-train: trials evaluated after training
OMP_NMSE_LIMIT = 1.0          # zero estimate scores 1; OMP measured 0.15-0.25

# desk-sweep: configs/desk.json with shorter training and fewer points
DESK_STAGE1 = {"train_size": 256, "val_size": 64, "episodes": 4}
DESK_STAGE2 = {"train_size": 128, "episodes": 2}
DESK_SWEEP = {"snr_db": (0.0, 20.0), "trials": 40}


class CheckError(Exception):
    """An output check failed."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _draw(system, seed: int, label: str, count: int):
    return [channel.draw_scene(system, substream(seed, label, i)) for i in range(count)]


def _noise_vars(scenes, system, E, convention: str):
    return [channel.noise_var_for_snr(sc, system, E, SNR_DB, convention=convention)
            for sc in scenes]


def _paper_base(root: Path, seed: int):
    """Config, dictionaries and phase schedule of the paper profile."""
    cfg = harness.load_config(root / "configs" / "paper.json")
    bs = harness.build_bs_dictionary(cfg)
    _, cas = harness.build_ris_dictionaries(cfg)
    E = channel.make_phase_matrix(cfg.system.n_ris, cfg.system.tau,
                                  substream(seed, "phase"), kind=cfg.sweep.phase_kind)
    return cfg, bs, cas, E


def _eval_pilots(cfg, E, seed: int, count: int):
    system = cfg.system
    scenes = _draw(system, seed, "eval-scene", count)
    nvs = _noise_vars(scenes, system, E, cfg.sweep.snr_convention)
    pilots = [channel.simulate_pilots(sc, system, E, nv, substream(seed, "eval-noise", t))
              for t, (sc, nv) in enumerate(zip(scenes, nvs))]
    return scenes, pilots


def _run_scheme(name: str, pilots, ctx):
    """(seconds, estimates or None, trials failed) for one scheme call.

    A call that raises fails every trial; otherwise a trial fails when its
    estimate has a non-finite entry.
    """
    t0 = time.perf_counter()
    try:
        G_hats = schemes.SCHEME_FUNCS[name](pilots, ctx)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, None, len(pilots)
    seconds = time.perf_counter() - t0
    bad = int(np.count_nonzero(~np.isfinite(G_hats).all(axis=(1, 2))))
    return seconds, G_hats, bad


def _check_estimates(name: str, G_hats, scenes, system) -> np.ndarray:
    """Shape and finiteness checks; returns per-trial NMSE."""
    _require(G_hats is not None, f"{name}: estimator raised")
    _require(G_hats.shape == (len(scenes), system.n_bs, system.n_ris),
             f"{name}: estimate shape {G_hats.shape}")
    _require(bool(np.isfinite(G_hats).all()), f"{name}: non-finite estimate")
    return np.array([harness.nmse(G_hats[t], sc.G[0]) for t, sc in enumerate(scenes)])


def _median(values) -> float:
    return float(np.median(values)) if values else float("nan")


class PaperTrain:
    """Paper-profile training: stage-1 then stage-2 calls of 4 batches each."""

    name = "paper-train"

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.rates1: list[float] = []
        self.rates2: list[float] = []
        self.losses: list[tuple] = []
        self.models = None

    def close(self) -> None:
        pass

    def setup(self) -> None:
        cfg, bs, cas, E = _paper_base(self.root, self.seed)
        system, conv = cfg.system, cfg.sweep.snr_convention
        n = BATCH * BATCHES_PER_CALL
        scenes1 = _draw(system, self.seed, "train1-scene", n)
        ds1 = denoiser.make_stage1_dataset(system, bs, E, scenes1,
                                           _noise_vars(scenes1, system, E, conv),
                                           substream(self.seed, "train1-noise"))
        scenes2 = _draw(system, self.seed, "train2-scene", math.ceil(n / system.paths_bs))
        ds2 = unrolled.make_stage2_dataset(system, scenes2, E,
                                           _noise_vars(scenes2, system, E, conv),
                                           substream(self.seed, "train2-noise"))
        self.cfg, self.bs, self.cas, self.E = cfg, bs, cas, E
        self.ds1 = ds1
        self.ds2 = unrolled.Stage2Dataset(P=ds2.P[:, :n], Xl=ds2.Xl[:, :n])
        self.cfg1 = dataclasses.replace(cfg.stage1, batch=BATCH, episodes=1)
        self.cfg2 = dataclasses.replace(cfg.stage2, batch=BATCH, episodes=1)

    def round(self):
        n = BATCH * BATCHES_PER_CALL
        failed = 0
        t0 = time.perf_counter()
        try:
            dp, trace1 = denoiser.train_stage1(self.ds1, self.cfg1, self.seed)
        except RuntimeError:              # non-finite loss
            traceback.print_exc(file=sys.stderr)
            dp, trace1, failed = None, None, failed + BATCHES_PER_CALL
        t1 = time.perf_counter()
        try:
            lp, trace2 = unrolled.train_stage2(self.ds2, self.E, self.cas.F, self.cfg2, self.seed)
        except RuntimeError:
            traceback.print_exc(file=sys.stderr)
            lp, trace2, failed = None, None, failed + BATCHES_PER_CALL
        t2 = time.perf_counter()
        self.rates1.append(n / (t1 - t0))
        self.rates2.append(n / (t2 - t1))
        self.losses.append((trace1, trace2))
        if dp is not None and lp is not None:
            self.models = (dp, lp)
        return t2 - t0, 2 * BATCHES_PER_CALL, failed

    def check(self) -> dict:
        _require(self.models is not None, "no round trained both stages")
        first = self.losses[0]
        for trace in first:
            _require(trace is not None and len(trace) == 1
                     and math.isfinite(trace[0]["loss"]), f"bad training trace {trace}")
        _require(all(rec == first for rec in self.losses),
                 "training is not deterministic across rounds")
        dp, lp = self.models
        init = denoiser.init_denoiser(self.cfg1, substream(self.seed, "stage1-init"))
        _require({k: v.shape for k, v in dp.params.items()}
                 == {k: v.shape for k, v in init.params.items()}, "stage-1 parameter shapes")
        _require(lp.F.shape == self.cas.F.shape and lp.V.shape == self.E.shape
                 and lp.lam.shape == (self.cfg2.layers,) and bool((lp.lam >= 0).all()),
                 "stage-2 parameter shapes")
        # the trained networks must still produce usable estimates
        scenes, pilots = _eval_pilots(self.cfg, self.E, self.seed, CHECK_TRIALS)
        ctx = schemes.PipelineContext(config=self.cfg.system, bs=self.bs, cas=self.cas,
                                      E=self.E, stage1=dp, stage2=lp)
        nmse = {}
        for name in schemes.SCHEME_FUNCS:
            _, G_hats, _ = _run_scheme(name, pilots, ctx)
            nmse[name] = float(_check_estimates(name, G_hats, scenes, self.cfg.system).mean())
        _require(nmse["omp"] < OMP_NMSE_LIMIT, f"omp NMSE {nmse['omp']}")
        return {
            "nmse": nmse,
            "report": {
                "train1_samples_per_s": (_median(self.rates1), "1/s"),
                "train2_samples_per_s": (_median(self.rates2), "1/s"),
            },
            "info": {"final_loss.stage1": first[0][0]["loss"],
                     "final_loss.stage2": first[1][0]["loss"]},
        }


class PaperEval:
    """Paper-profile inference of all three schemes on one batch of trials."""

    name = "paper-eval"

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.rates = {name: [] for name in schemes.SCHEME_FUNCS}
        self.nmse: dict[str, np.ndarray] = {}
        self.repeat_ok = True
        self.errors: list[str] = []

    def close(self) -> None:
        pass

    def setup(self) -> None:
        cfg, bs, cas, E = _paper_base(self.root, self.seed)
        system = cfg.system
        dp = denoiser.init_denoiser(cfg.stage1, substream(self.seed, "stage1-init"))
        probe_scenes = _draw(system, self.seed, "train2-scene",
                             math.ceil(cfg.stage2.probe / system.paths_bs))
        probe = unrolled.make_stage2_dataset(system, probe_scenes, E,
                                             _noise_vars(probe_scenes, system, E,
                                                         cfg.sweep.snr_convention),
                                             substream(self.seed, "train2-noise"))
        lp = unrolled.lista_init(E, cas.F, cfg.stage2, probe_P=probe.P[:, :cfg.stage2.probe])
        self.system = system
        self.scenes, self.pilots = _eval_pilots(cfg, E, self.seed, EVAL_TRIALS)
        self.ctx = schemes.PipelineContext(config=system, bs=bs, cas=cas, E=E,
                                           stage1=dp, stage2=lp,
                                           support_guard=cfg.sweep.support_guard)

    def round(self):
        total, failed = 0.0, 0
        for name in schemes.SCHEME_FUNCS:
            seconds, G_hats, bad = _run_scheme(name, self.pilots, self.ctx)
            total += seconds
            failed += bad
            self.rates[name].append(len(self.pilots) / seconds)
            try:
                errs = _check_estimates(name, G_hats, self.scenes, self.system)
            except CheckError as exc:
                self.errors.append(str(exc))
                continue
            if name not in self.nmse:
                self.nmse[name] = errs
            elif not np.array_equal(errs, self.nmse[name]):
                self.repeat_ok = False
        return total, len(self.pilots) * len(schemes.SCHEME_FUNCS), failed

    def check(self) -> dict:
        _require(not self.errors, "; ".join(sorted(set(self.errors))))
        _require(self.repeat_ok, "estimates differ between rounds")
        nmse = {name: float(v.mean()) for name, v in self.nmse.items()}
        _require(nmse["omp"] < OMP_NMSE_LIMIT, f"omp NMSE {nmse['omp']}")
        return {
            "nmse": nmse,
            "report": {f"eval_trials_per_s.{name}": (_median(r), "1/s")
                       for name, r in self.rates.items()},
            "info": {"trials": len(self.pilots)},
        }


class DeskSweep:
    """Shortened desk-profile SNR sweep, written to a scratch directory."""

    name = "desk-sweep"

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.csv_hashes: list[str] = []
        self.sweep_times: list[float] = []
        self.outdir = None

    def setup(self) -> None:
        # the same set-up the sweep does before training: config, both
        # dictionaries and the phase schedule
        base = harness.load_config(self.root / "configs" / "desk.json")
        cfg = dataclasses.replace(
            base,
            stage1=dataclasses.replace(base.stage1, **DESK_STAGE1),
            stage2=dataclasses.replace(base.stage2, **DESK_STAGE2),
            sweep=dataclasses.replace(base.sweep, seed=self.seed, **DESK_SWEEP))
        harness.build_bs_dictionary(cfg)
        harness.build_ris_dictionaries(cfg)
        channel.make_phase_matrix(cfg.system.n_ris, cfg.system.tau,
                                  substream(self.seed, "phase"), kind=cfg.sweep.phase_kind)
        self.cfg = cfg

    @property
    def points(self) -> int:
        return len(self.cfg.sweep.snr_db)

    def round(self):
        # a fresh directory per sweep, as for a new run: rewriting the same
        # files made each round wait on the flush of the previous ones
        scratch = self.root / ".perfbench_out"
        scratch.mkdir(exist_ok=True)
        outdir = Path(tempfile.mkdtemp(prefix="desk-sweep-", dir=scratch))
        t0 = time.perf_counter()
        try:
            harness.run_snr_sweep(self.cfg, outdir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            shutil.rmtree(outdir, ignore_errors=True)
            return time.perf_counter() - t0, self.points, self.points
        seconds = time.perf_counter() - t0
        self.sweep_times.append(seconds)
        self.csv_hashes.append(hashlib.sha256((outdir / "snr_sweep.csv").read_bytes())
                               .hexdigest())
        if self.outdir is not None:   # keep only the latest sweep for check()
            shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir = outdir
        return seconds, self.points, 0

    def check(self) -> dict:
        sw = self.cfg.sweep
        _require(bool(self.csv_hashes), "no sweep finished")
        _require(len(set(self.csv_hashes)) == 1, "sweep CSV differs between rounds")
        with open(self.outdir / "snr_sweep.csv", newline="") as f:
            rows = list(csv.reader(f))
        _require(rows[0] == ["scheme", "snr_db", "nmse_mean", "nmse_std", "trials"],
                 f"CSV header {rows[0]}")
        body = rows[1:]
        _require(len(body) == len(sw.schemes) * self.points, f"{len(body)} CSV rows")
        per_scheme: dict[str, list[float]] = {name: [] for name in sw.schemes}
        for scheme, snr, mean, std, trials in body:
            _require(scheme in per_scheme and float(snr) in sw.snr_db, f"CSV row {scheme},{snr}")
            _require(int(trials) == sw.trials, f"CSV trials {trials}")
            _require(math.isfinite(float(mean)) and math.isfinite(float(std)),
                     f"CSV non-finite NMSE for {scheme}")
            per_scheme[scheme].append(float(mean))
        _require(all(len(v) == self.points for v in per_scheme.values()), "CSV points")
        _require(max(per_scheme["omp"]) < OMP_NMSE_LIMIT, f"omp NMSE {per_scheme['omp']}")
        meta = json.loads((self.outdir / "snr_sweep.meta.json").read_text())
        loss1 = meta["stage1_trace"][-1]["loss"]
        loss2 = {snr: trace[-1]["loss"] for snr, trace in meta["stage2_traces"].items()}
        _require(all(math.isfinite(v) for v in [loss1, *loss2.values()]),
                 "non-finite final training loss")
        info = {"csv_sha256": self.csv_hashes[0], "final_loss.stage1": loss1}
        info.update({f"final_loss.stage2.snr{snr}": v for snr, v in sorted(loss2.items())})
        return {
            "nmse": {name: float(np.mean(v)) for name, v in per_scheme.items()},
            "report": {"sweep_s": (_median(self.sweep_times), "s")},
            "info": info,
        }

    def close(self) -> None:
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)
        try:
            (self.root / ".perfbench_out").rmdir()
        except OSError:
            pass                          # never made, or another run still uses it


WORKLOADS = {w.name: w for w in (PaperTrain, PaperEval, DeskSweep)}
