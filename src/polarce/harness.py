"""Experiment orchestration: configs, training, paired evaluation, sweep reports.

Every randomized step pulls its generator from a labeled substream of one root
seed, so a rerun with the same config file reproduces results bit for bit. CSV
outputs contain only deterministic quantities; wall times and other run
metadata go to a sidecar .meta.json next to each CSV.

The SNR sweep, the pilot sweep and `polarce eval` run one evaluation body
(`_sweep`); they differ only in the points they list. A point's label names
its scene, noise and stage-2 substreams, so `polarce eval --snr s` is the SNR
sweep's row at s and `polarce simulate --snr s` writes that row's pilot blocks.
Once stage 1 is trained, `_sweep` runs its points on one process per usable
CPU, forked so they share the dictionaries and networks, and merges their
records in point order; the CSV bytes are the same for any worker count. Pin
BLAS to one thread per process (OPENBLAS_NUM_THREADS=1), as the benchmark
does, so the workers do not oversubscribe the cores.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container
from .channel import (PHASE_KINDS, SNR_CONVENTIONS, PathParams, PilotBlock,
                      SceneRealization, SystemConfig, build_channels, draw_scene,
                      make_phase_matrix, noise_var_for_snr, simulate_pilots,
                      steering_vector)
from .denoiser import (STAGE1_FORM, DenoiserParams, Stage1Config,
                       make_stage1_dataset, row_energy, stage1_loss,
                       train_stage1)
from .polar import (CascadedDictionary, GridConfig, PolarDictionary,
                    build_cascaded_dictionary, build_dictionary,
                    coherence_profile)
from .rng import substream
from .schemes import SCHEME_FUNCS, SUPPORT_GUARD, PipelineContext
from .unrolled import (FORWARD_FORM, ListaParams, Stage2Config, make_stage2_dataset,
                       stage2_loss, train_stage2)

__all__ = [
    "SweepConfig", "ExperimentConfig", "default_config", "config_to_dict",
    "config_from_dict", "load_config", "nmse",
    "build_bs_dictionary", "build_ris_dictionaries", "phase_schedule",
    "snr_label", "draw_scenes", "draw_pilots", "evaluate_point",
    "run_snr_sweep", "run_pilot_sweep", "run_leakage_report", "run_loss_curves",
    "save_stage1", "load_stage1", "save_stage2", "load_stage2", "write_csv",
    "count_lattice_peaks",
]

CONFIG_VERSION = 1


@dataclass(frozen=True)
class SweepConfig:
    """Evaluation axes and bookkeeping shared by the sweep runners."""

    snr_db: tuple[float, ...] = (0.0, 10.0, 20.0, 30.0, 40.0)
    tau: tuple[int, ...] = (8, 14, 20, 30, 40)
    trials: int = 200
    seed: int = 0
    schemes: tuple[str, ...] = ("omp", "dncnn-omp", "dncnn-istanet")
    train_snr_db: tuple[float, ...] = ()   # empty = reuse snr_db
    eval_snr_db: float = 40.0              # pilot sweep operating point
    loss_snr_db: float = 20.0              # loss-curve operating point
    depths: tuple[int, ...] = (4, 6)
    support_guard: int = SUPPORT_GUARD
    phase_kind: str = "random"
    snr_convention: str = "receive"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.support_guard < 0:
            raise ValueError(f"support_guard must be at least 0, got {self.support_guard}")
        if not self.schemes or len(set(self.schemes)) != len(self.schemes):
            raise ValueError(f"schemes must list distinct schemes, got {list(self.schemes)}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        snrs = (*self.snr_db, *self.train_snr_db, self.eval_snr_db, self.loss_snr_db)
        if any(math.isnan(s) for s in snrs):
            raise ValueError("SNR values must be numbers of dB, not NaN")
        unknown = set(self.schemes) - set(SCHEME_FUNCS)
        if unknown:
            raise ValueError(f"unknown schemes {sorted(unknown)}")
        if self.phase_kind not in PHASE_KINDS:
            raise ValueError(f"unknown phase_kind {self.phase_kind!r}, expected {PHASE_KINDS}")
        if self.snr_convention not in SNR_CONVENTIONS:
            raise ValueError(f"unknown snr_convention {self.snr_convention!r}, "
                             f"expected {SNR_CONVENTIONS}")
        for name in ("snr_db", "tau", "depths"):
            axis = getattr(self, name)
            if len(axis) == 0:
                raise ValueError(f"{name} axis is empty")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"{name} axis must be strictly increasing")

    @property
    def stage1_snr_db(self) -> tuple[float, ...]:
        return self.train_snr_db if self.train_snr_db else self.snr_db


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    bs_grid: GridConfig
    ris_grid: GridConfig
    stage1: Stage1Config
    stage2: Stage2Config
    sweep: SweepConfig

    def __post_init__(self):
        """Try each sweep depth in both stage configs and each tau in the system
        config, as the layer and pilot sweeps will, so a bad point fails at load."""
        points = (("depths", lambda d: (dataclasses.replace(self.stage1, layers=d),
                                        dataclasses.replace(self.stage2, layers=d))),
                  ("tau", lambda t: dataclasses.replace(self.system, tau=t)))
        for name, swap in points:
            for v in getattr(self.sweep, name):
                try:
                    swap(int(v))
                except ValueError as e:
                    raise ValueError(f"sweep.{name} entry {v}: {e}") from e


def _default_grids(system: SystemConfig) -> tuple[GridConfig, GridConfig]:
    """BS and RIS grids that track the system sizes unless a config pins them.

    BS scene distances sit far beyond the BS Fresnel ring, so the BS grid keeps
    angle only; 3x angle oversampling keeps the shared on-grid projection floor
    well under the per-path recovery errors being compared.
    """
    return (GridConfig(angle_count=3 * system.n_bs, ring_limit=0,
                       distance_min=system.bs_dist[0]),
            GridConfig(angle_count=system.n_ris, distance_min=system.ris_dist[0]))


def default_config() -> ExperimentConfig:
    """Desk-scale profile: small enough to train and sweep on one core."""
    system = SystemConfig()
    bs_grid, ris_grid = _default_grids(system)
    return ExperimentConfig(
        system=system,
        bs_grid=bs_grid,
        ris_grid=ris_grid,
        stage1=Stage1Config(),
        stage2=Stage2Config(),
        sweep=SweepConfig(),
    )


# cached: evaluating a class's string annotations costs more than checking a config
_type_hints = functools.cache(typing.get_type_hints)


def _json_type_ok(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: a bool for bool, an int
    (not a bool) for int, any number for float, a list of fitting items for a
    tuple, and also null for an optional field."""
    if hint is bool:
        return isinstance(value, bool)
    if hint in (int, float, str):
        return (isinstance(value, (int, float) if hint is float else hint)
                and not isinstance(value, bool))
    args = typing.get_args(hint)
    if type(None) in args:
        return value is None or _json_type_ok(value, args[0])
    return isinstance(value, list) and all(_json_type_ok(v, args[0]) for v in value)


def _coerce(value, hint):
    """A checked JSON value as its field holds it: a float for a float field,
    given an int too, and a tuple of such items for a list."""
    if isinstance(value, list):
        return tuple(_coerce(v, typing.get_args(hint)[0]) for v in value)
    if isinstance(value, int) and float in (hint, *typing.get_args(hint)):
        return float(value)
    return value


def _merge_section(base, cls, data: dict, name: str):
    hints = _type_hints(cls)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown keys in {name!r}: {sorted(unknown)}")
    for k, v in data.items():
        if not _json_type_ok(v, hints[k]):
            kind = hints[k] if typing.get_origin(hints[k]) else hints[k].__name__
            raise ValueError(f"{name}.{k} must be of type {kind}, got {json.dumps(v)}")
    return dataclasses.replace(base, **{k: _coerce(v, hints[k]) for k, v in data.items()})


def config_from_dict(data: dict) -> ExperimentConfig:
    allowed = {"version", "system", "bs_grid", "ris_grid", "stage1", "stage2", "sweep"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown top-level keys: {sorted(unknown)}")
    version = data.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ValueError(f"config version {version} not supported (expected {CONFIG_VERSION})")
    base = default_config()
    system = _merge_section(base.system, SystemConfig, data.get("system", {}), "system")
    bs_default, ris_default = _default_grids(system)
    return ExperimentConfig(
        system=system,
        bs_grid=_merge_section(bs_default, GridConfig, data.get("bs_grid", {}), "bs_grid"),
        ris_grid=_merge_section(ris_default, GridConfig, data.get("ris_grid", {}), "ris_grid"),
        stage1=_merge_section(base.stage1, Stage1Config, data.get("stage1", {}), "stage1"),
        stage2=_merge_section(base.stage2, Stage2Config, data.get("stage2", {}), "stage2"),
        sweep=_merge_section(base.sweep, SweepConfig, data.get("sweep", {}), "sweep"),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {"version": CONFIG_VERSION}
    for name in ("system", "bs_grid", "ris_grid", "stage1", "stage2", "sweep"):
        section = dataclasses.asdict(getattr(cfg, name))
        out[name] = {k: list(v) if isinstance(v, tuple) else v
                     for k, v in section.items()}
    return out


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


def nmse(G_hat: np.ndarray, G: np.ndarray) -> float:
    denom = np.linalg.norm(G)
    if denom == 0:
        raise ValueError("reference channel has zero energy")
    return float((np.linalg.norm(G_hat - G) / denom) ** 2)


def build_bs_dictionary(cfg: ExperimentConfig) -> PolarDictionary:
    return build_dictionary(cfg.system.n_bs, cfg.system.wavelength,
                            cfg.system.spacing, cfg.bs_grid)


def build_ris_dictionaries(cfg: ExperimentConfig):
    single = build_dictionary(cfg.system.n_ris, cfg.system.wavelength,
                              cfg.system.spacing, cfg.ris_grid)
    return single, build_cascaded_dictionary(single)


def phase_schedule(cfg: ExperimentConfig, tau: int | None = None) -> np.ndarray:
    """RIS phase matrix of the configured system, or of the pilot-sweep point tau."""
    labels = ("phase",) if tau is None else ("phase", f"tau{tau}")
    return make_phase_matrix(cfg.system.n_ris, cfg.system.tau if tau is None else tau,
                             substream(cfg.sweep.seed, *labels),
                             kind=cfg.sweep.phase_kind)


def snr_label(snr_db: float) -> str:
    """Substream label of the SNR-sweep point at snr_db."""
    return f"snr{_fmt(float(snr_db))}"


# ---------------------------------------------------------------- checkpoints

def _config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return container.bytes_hash(blob)


def _fingerprint(**arrays: np.ndarray) -> dict:
    """Shape and content hash of each named array, for checkpoint meta."""
    return {name: {"shape": list(a.shape), "sha256": container.content_hash({name: a})}
            for name, a in arrays.items()}


def _read_checkpoint(path, stage: int, want: dict, form: str):
    """Arrays and meta of a stage checkpoint bound to the arrays fingerprinted in want.

    A network only fits the dictionaries and phase schedule it was trained
    against, and the input and forward form it was trained for, so a
    checkpoint without a fingerprint or form, or with another one, is rejected.
    """
    arrays, meta = container.load_container(path)
    if meta.get("kind") != f"stage{stage}":
        raise ValueError(f"not a stage-{stage} checkpoint: {path}")
    got = meta.get("fingerprint")
    if got is None:
        raise ValueError(f"no fingerprint; retrain it with `polarce train stage{stage}`")
    for name, w in want.items():
        g = got.get(name) or {}
        if g != w:
            raise ValueError(
                f"trained against {name} of shape {g.get('shape')} and sha256 "
                f"{str(g.get('sha256'))[:12]}, but this run has {name} of shape "
                f"{w['shape']} and sha256 {w['sha256'][:12]}")
    if meta.get("forward") != form:
        raise ValueError(
            f"trained for the {meta.get('forward') or 'untagged'} forward form, but this "
            f"version runs {form}; retrain it with `polarce train stage{stage}`")
    return arrays, meta


def save_stage1(path, dp: DenoiserParams, F_bs: np.ndarray, E: np.ndarray) -> str:
    """Write a stage-1 network bound to the BS dictionary and phase schedule."""
    arrays = {f"p.{k}": v for k, v in dp.params.items()}
    arrays.update({f"b.{k}": v for k, v in dp.buffers.items()})
    meta = {"kind": "stage1", "forward": STAGE1_FORM, "config": dataclasses.asdict(dp.config),
            "fingerprint": _fingerprint(F_bs=F_bs, E=E)}
    return container.save_container(path, arrays, meta=meta)


def load_stage1(path, F_bs: np.ndarray, E: np.ndarray) -> DenoiserParams:
    arrays, meta = _read_checkpoint(path, 1, _fingerprint(F_bs=F_bs, E=E), STAGE1_FORM)
    cfg = Stage1Config(**meta["config"])
    params = {k[2:]: v for k, v in arrays.items() if k.startswith("p.")}
    buffers = {k[2:]: v for k, v in arrays.items() if k.startswith("b.")}
    return DenoiserParams(config=cfg, params=params, buffers=buffers)


def save_stage2(path, lp: ListaParams, E: np.ndarray, F_cas: np.ndarray) -> str:
    """Write a stage-2 network bound to the phase schedule and cascaded dictionary."""
    meta = {"kind": "stage2", "forward": FORWARD_FORM,
            "fingerprint": _fingerprint(E=E, F_cas=F_cas)}
    return container.save_container(path, vars(lp), meta=meta)


def load_stage2(path, E: np.ndarray, F_cas: np.ndarray) -> ListaParams:
    arrays, _ = _read_checkpoint(path, 2, _fingerprint(E=E, F_cas=F_cas), FORWARD_FORM)
    return ListaParams(**arrays)


# ------------------------------------------------------------------- training

def draw_scenes(system: SystemConfig, seed: int, label: str, count: int):
    return [draw_scene(system, substream(seed, label, str(i))) for i in range(count)]


def _stage1_dataset(cfg: ExperimentConfig, bs: PolarDictionary, E: np.ndarray,
                    system: SystemConfig, label: str, count: int,
                    snrs: tuple[float, ...]):
    """Stage-1 pairs on the `<label>-scene` scenes; scene i is at SNR snrs[i % len]."""
    seed = cfg.sweep.seed
    scenes = draw_scenes(system, seed, f"{label}-scene", count)
    nvs = [noise_var_for_snr(sc, system, E, snrs[i % len(snrs)],
                             convention=cfg.sweep.snr_convention)
           for i, sc in enumerate(scenes)]
    return make_stage1_dataset(system, bs, E, scenes, nvs,
                               substream(seed, f"{label}-noise"))


def _stage2_dataset(cfg: ExperimentConfig, E: np.ndarray, snr_db: float, label: str,
                    system: SystemConfig, scenes: list[SceneRealization] | None = None):
    """Stage-2 pairs on the training scenes at one SNR, noise from substream label."""
    seed = cfg.sweep.seed
    if scenes is None:
        scenes = draw_scenes(system, seed, "train2-scene", cfg.stage2.train_size)
    nvs = [noise_var_for_snr(sc, system, E, snr_db,
                             convention=cfg.sweep.snr_convention)
           for sc in scenes]
    return make_stage2_dataset(system, scenes, E, nvs,
                               substream(seed, "train2-noise", label))


def train_stage1_model(cfg: ExperimentConfig, bs: PolarDictionary, E: np.ndarray,
                       system: SystemConfig | None = None):
    """Stage-1 network on mixed-noise scenes; returns (params, trace)."""
    system = system or cfg.system
    snrs = cfg.sweep.stage1_snr_db
    ds = _stage1_dataset(cfg, bs, E, system, "train1", cfg.stage1.train_size, snrs)
    val = (_stage1_dataset(cfg, bs, E, system, "val1", cfg.stage1.val_size, snrs)
           if cfg.stage1.val_size else None)
    return train_stage1(ds, cfg.stage1, cfg.sweep.seed, val=val)


def train_stage2_model(cfg: ExperimentConfig, cas: CascadedDictionary,
                       E: np.ndarray, snr_db: float, label: str,
                       system: SystemConfig | None = None,
                       scenes: list[SceneRealization] | None = None):
    """Stage-2 network at one noise operating point; returns (params, trace)."""
    ds = _stage2_dataset(cfg, E, snr_db, label, system or cfg.system, scenes)
    return train_stage2(ds, E, cas.F, cfg.stage2, cfg.sweep.seed)


# ----------------------------------------------------------------- evaluation

def draw_pilots(scenes: list[SceneRealization], system: SystemConfig,
                E: np.ndarray, snr_db: float, seed: int, label: str,
                convention: str = "receive") -> list[PilotBlock]:
    """Pilot blocks of one sweep point; trial t draws its own noise substream."""
    return [simulate_pilots(scene, system, E,
                            noise_var_for_snr(scene, system, E, snr_db,
                                              convention=convention),
                            substream(seed, "eval-noise", label, str(t)))
            for t, scene in enumerate(scenes)]


def evaluate_point(scenes: list[SceneRealization], ctx: PipelineContext,
                   snr_db: float, seed: int, label: str,
                   schemes: tuple[str, ...], convention: str = "receive"):
    """Per-trial NMSE and wall seconds of every scheme, on a shared pilot draw."""
    pilots = draw_pilots(scenes, ctx.config, ctx.E, snr_db, seed, label, convention)
    errs, secs = {}, {}
    for name in schemes:
        t0 = time.perf_counter()
        G_hats = SCHEME_FUNCS[name](pilots, ctx)
        secs[name] = time.perf_counter() - t0
        errs[name] = np.array([nmse(G_hats[t], scenes[t].G[0])
                               for t in range(len(scenes))])
    return errs, secs


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_outputs(outdir, stem: str, header, rows, meta: dict):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / f"{stem}.csv", header, rows)
    (outdir / f"{stem}.meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _exit_with_parent() -> None:
    """Watch of a forked worker: end it once the process that forked it is gone,
    as after a signal that skips that process's clean-up."""
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _worker(fn, items: list, conn) -> None:
    """Forked side of `_map_points`: send ("ok", fn(item)) per item, or stop at
    the first error and send it, so the parent raises it with its type and message."""
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    try:
        for item in items:
            conn.send(("ok", fn(item)))
    except Exception as e:
        try:
            conn.send(("error", e))
        except Exception:                 # an exception that does not pickle
            conn.send(("error", RuntimeError(f"{type(e).__name__}: {e}")))
    finally:
        conn.close()


def _map_points(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], item i run by worker i % workers.

    Worker 0 is this process. The others are forked on entry, so they share
    everything fn reads copy-on-write, and send back fn's plain results over
    a pipe. An error in any worker is raised here once every child is
    stopped and reaped, and a child exits by itself if this process dies.
    One worker forks nothing.
    """
    results = [None] * len(items)
    children = []
    try:
        if workers > 1:
            mp = multiprocessing.get_context("fork")
            for w in range(1, workers):
                recv, send = mp.Pipe(duplex=False)
                proc = mp.Process(target=_worker, args=(fn, items[w::workers], send))
                proc.start()
                send.close()
                children.append((w, proc, recv))
        for i in range(0, len(items), workers):
            results[i] = fn(items[i])
        for w, proc, recv in children:
            for i in range(w, len(items), workers):
                try:
                    status, value = recv.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"sweep worker {w} exited with code "
                                       f"{proc.exitcode}") from None
                if status == "error":
                    raise value
                results[i] = value
    except BaseException:
        for _, proc, _ in children:
            proc.terminate()
        raise
    finally:
        for _, proc, recv in children:
            proc.join()
            recv.close()
    return results


def _sweep_point(cfg: ExperimentConfig, axis: str, bs: PolarDictionary,
                 cas: CascadedDictionary, dp: DenoiserParams | None,
                 stage2: ListaParams | None, train2_scenes, progress, point) -> dict:
    """One point of `_sweep`: its records, timing entries, stage-2 trace and
    stage-2 checkpoint hash, all plain values a worker can send back."""
    sw = cfg.sweep
    value, label, system, E, snr = point
    tp = time.perf_counter()
    timing, trace2 = {}, None
    scenes = draw_scenes(cfg.system, sw.seed, f"eval-scene-{label}", sw.trials)
    lp = stage2
    if train2_scenes is not None:
        ts = time.perf_counter()
        lp, trace2 = train_stage2_model(cfg, cas, E, snr, label, system=system,
                                        scenes=train2_scenes)
        timing[f"stage2_train_{label}_s"] = time.perf_counter() - ts
    ctx = PipelineContext(config=system, bs=bs, cas=cas, E=E,
                          stage1=dp, stage2=lp, support_guard=sw.support_guard)
    errs, secs = evaluate_point(scenes, ctx, snr, sw.seed, label,
                                sw.schemes, convention=sw.snr_convention)
    records = [{"scheme": name, axis: value,
                "nmse_mean": float(errs[name].mean()), "nmse_std": float(errs[name].std()),
                "trials": sw.trials, "wall_time_s": secs[name]} for name in sw.schemes]
    timing.update({f"{name}_{label}_s": secs[name] for name in sw.schemes})
    timing[f"point_{label}_s"] = time.perf_counter() - tp
    if progress:
        progress(f"{label} done")
    return {"records": records, "timing": timing, "trace": trace2,
            "checkpoint": container.content_hash(vars(lp)) if lp is not None else None}


def _sweep(cfg: ExperimentConfig, outdir, stem: str, axis: str, points: list,
           progress=None, stage1: DenoiserParams | None = None,
           stage2: ListaParams | None = None) -> list[dict]:
    """Evaluate every scheme at each (axis value, label, system, E, snr_db) point.

    Stage 1 trains once, on the point with the longest pilot block (its
    row-compressed input keeps the same shape for every tau); stage 2 trains
    per point, on one shared scene draw, because its mixing matrix is tied to
    the point's schedule. A given network replaces the training. Writes
    <stem>.csv and <stem>.meta.json and returns one record per scheme and point.

    After stage 1 and the shared stage-2 scene draw the points are
    independent, so they run round-robin on one process per usable CPU (at
    most one per point): this process takes points 0, W, 2W, ... and forks
    the other W-1. Every random stream is keyed by the point's label, so the
    CSV bytes do not depend on W; the meta's timing records W ("workers") and
    the worker that ran each point ("worker_<label>"). Pin BLAS to one thread
    per process (OPENBLAS_NUM_THREADS=1) so the workers do not oversubscribe
    the cores.
    """
    sw = cfg.sweep
    t0 = time.perf_counter()
    bs = build_bs_dictionary(cfg)
    _, cas = build_ris_dictionaries(cfg)
    needs1 = any(s.startswith("dncnn") for s in sw.schemes)
    needs2 = "dncnn-istanet" in sw.schemes
    meta: dict = {"config": config_to_dict(cfg), "config_hash": _config_hash(cfg),
                  "checkpoints": {}, "timing": {}}

    dp = stage1
    if needs1 and dp is None:
        _, _, system_ref, E_ref, _ = max(points, key=lambda p: p[2].tau)
        ts = time.perf_counter()
        dp, meta["stage1_trace"] = train_stage1_model(cfg, bs, E_ref, system=system_ref)
        meta["timing"]["stage1_train_s"] = time.perf_counter() - ts
    if dp is not None:
        meta["checkpoints"]["stage1"] = container.content_hash(
            {**dp.params, **dp.buffers})
    train2_scenes = (draw_scenes(cfg.system, sw.seed, "train2-scene",
                                 cfg.stage2.train_size)
                     if needs2 and stage2 is None else None)

    workers = min(len(points), _usable_cpus())
    run = functools.partial(_sweep_point, cfg, axis, bs, cas, dp, stage2,
                            train2_scenes, progress)
    records = []
    for i, ((value, label, *_), out) in enumerate(
            zip(points, _map_points(run, points, workers))):
        records.extend(out["records"])
        meta["timing"].update(out["timing"])
        meta["timing"][f"worker_{label}"] = i % workers
        if out["trace"] is not None:
            meta.setdefault("stage2_traces", {})[_fmt(value)] = out["trace"]
        if out["checkpoint"] is not None:
            meta["checkpoints"][f"stage2_{label}"] = out["checkpoint"]
    meta["timing"]["workers"] = workers
    meta["timing"]["total_s"] = time.perf_counter() - t0
    _write_outputs(outdir, stem, ["scheme", axis, "nmse_mean", "nmse_std", "trials"],
                   [[r["scheme"], r[axis], r["nmse_mean"], r["nmse_std"], r["trials"]]
                    for r in records], meta)
    return records


def run_snr_sweep(cfg: ExperimentConfig, outdir, progress=None,
                  stage1: DenoiserParams | None = None,
                  stage2: ListaParams | None = None,
                  stem: str = "snr_sweep") -> list[dict]:
    """NMSE versus noise level on the configured phase schedule.

    `polarce eval` is this sweep at one point: it passes loaded networks in
    place of training and writes under the stem "eval".
    """
    E = phase_schedule(cfg)
    points = [(float(s), snr_label(s), cfg.system, E, float(s))
              for s in cfg.sweep.snr_db]
    return _sweep(cfg, outdir, stem, "snr_db", points, progress, stage1, stage2)


def run_pilot_sweep(cfg: ExperimentConfig, outdir, progress=None) -> list[dict]:
    """NMSE versus pilot length at the evaluation SNR; each tau has its own schedule."""
    points = [(int(t), f"tau{int(t)}", dataclasses.replace(cfg.system, tau=int(t)),
               phase_schedule(cfg, int(t)), cfg.sweep.eval_snr_db)
              for t in cfg.sweep.tau]
    return _sweep(cfg, outdir, "pilot_sweep", "tau", points, progress)


# -------------------------------------------------------------- grid reports

def _single_path_profile(sys_: SystemConfig, bs: PolarDictionary, E: np.ndarray,
                         theta: float, r: float) -> np.ndarray:
    """Row energy over grid rows for a noiseless one-bridge-path pilot block."""
    H, h, G = build_channels(sys_,
                             (PathParams(theta, r, 1.0 + 0.0j),),
                             (PathParams(-0.2, 8.0),),
                             ((PathParams(0.3, 10.0, 1.0 + 0.0j),),))
    Y = np.sqrt(sys_.power) * (G[0] @ E)
    return row_energy(Y, bs)


def _top1_power(profile: np.ndarray) -> float:
    p = profile ** 2
    return float(p.max() / p.sum())


def run_leakage_report(cfg: ExperimentConfig, outdir) -> dict:
    """Row-power leakage of the pilot statistic plus cascaded drift profile.

    The single-hop probes use a full-coverage angle-only grid (cell-centered
    sines spanning (-1, 1)), where on-grid far-field steering is exactly
    orthogonal, so any spread is attributable to the placement and not the
    grid. Placements: on grid at far range, halfway between grid sines, on
    grid at the near range limit (curvature mismatch), and both combined.
    """
    sys_ = cfg.system
    full = GridConfig(angle_count=sys_.n_bs, sin_lo=-1.0, sin_hi=1.0,
                      ring_limit=0, distance_min=sys_.bs_dist[0])
    bs_full = build_dictionary(sys_.n_bs, sys_.wavelength, sys_.spacing, full)
    E = phase_schedule(cfg)
    sins = bs_full.grid.sin_angles
    far_r, near_r = sys_.bs_dist[1], sys_.bs_dist[0]
    mids = 0.5 * (sins[:-1] + sins[1:])
    placements = {"on": (sins, far_r), "off_angle": (mids, far_r),
                  "off_dist": (sins, near_r), "off_both": (mids, near_r)}
    rows, scan, middle = [], {}, {}
    for kind, (placed, r) in placements.items():
        profs = [_single_path_profile(sys_, bs_full, E, float(np.arcsin(u)), r)
                 for u in placed]
        scan[kind] = [_top1_power(prof) for prof in profs]
        rows.extend([f"scan_{kind}", g, float(u), f]
                    for g, (u, f) in enumerate(zip(placed, scan[kind])))
        middle[kind] = profs[min(len(sins) // 2, len(placed) - 1)]
    for kind, prof in middle.items():
        rows.extend([f"profile_{kind}", g, float(sins[g]), float(v)]
                    for g, v in enumerate(prof))

    single, cas = build_ris_dictionaries(cfg)
    prof_single = coherence_profile(single.F)
    prof_cas = coherence_profile(cas.F)
    probe = _drift_probe(single, cas)
    corr = probe.pop("corr")
    summary = {
        "on_grid_min_top1": min(scan["on"]),
        "off_angle_min_top1": min(scan["off_angle"]),
        "off_dist_min_top1": min(scan["off_dist"]),
        "off_both_min_top1": min(scan["off_both"]),
        "worst_off_top1": min(min(scan[k]) for k in ("off_angle", "off_dist", "off_both")),
        "single_mean_coherence": prof_single.mean_off,
        "single_max_coherence": prof_single.max_off,
        "cascaded_mean_coherence": prof_cas.mean_off,
        "cascaded_max_coherence": prof_cas.max_off,
        "drift_peaks_within_3db": probe["peaks"],
        "drift_probe": probe,
    }
    _write_outputs(outdir, "leakage_profile", ["kind", "index", "sin_angle", "value"],
                   rows, {"config": config_to_dict(cfg), "summary": summary})
    write_csv(Path(outdir) / "drift_profile.csv", ["col", "delta_sin", "delta_curv", "corr"],
              [[j, float(s), float(c), float(v)]
               for j, (s, c, v) in enumerate(zip(cas.delta_sin, cas.delta_curv, corr))])
    return summary


def _drift_probe(single: PolarDictionary, cas: CascadedDictionary) -> dict:
    """Construct a one-path cascade whose curvature falls between lattice rows.

    The departure sits on a grid angle; the arrival distance is scanned over
    a few near-field values and the bridge-side distance is solved so the true
    curvature difference lands half a lattice step off, which is where the
    drifted peaks of the cascaded profile are most pronounced. Returns the
    winner's geometry, its peak count and its correlation |F_casᴴ x| ("corr").
    """
    sins = np.unique(np.round(single.grid.sin_angles, 12))
    u_dep = float(sins[len(sins) // 2])
    u_arr = float(sins[len(sins) // 4])
    lam, delta = single.wavelength, single.spacing
    m = single.F.shape[0]
    best = None
    for d_arr in (1.5, 2.0, 3.0, 5.0, 8.0):
        a_arr = steering_vector(m, float(np.arcsin(u_arr)), d_arr, lam, delta)
        for s_dep in (5.0, 6.5, 8.0, 11.0, 15.0, 22.0, 30.0):
            a_dep = steering_vector(m, float(np.arcsin(u_dep)), s_dep, lam, delta)
            corr = np.abs(cas.F.conj().T @ (a_dep * np.conj(a_arr)))
            peaks = count_lattice_peaks(cas, corr, within_db=3.0)
            if best is None or peaks > best["peaks"]:
                best = {"corr": corr, "peaks": peaks, "s_dep": s_dep,
                        "d_arr": d_arr, "u_dep": u_dep, "u_arr": u_arr}
    return best


def count_lattice_peaks(cas: CascadedDictionary, corr: np.ndarray,
                        within_db: float = 3.0) -> int:
    """Local maxima of |correlation| over the canonical offset classes.

    Each column carries one (d_sin, d_curv) class. Classes are ranked along
    each axis and a peak is a column not exceeded by any column within one
    rank in both axes. Rank adjacency is used instead of integer step
    arithmetic because the sin offsets live on a circle of period
    wavelength/spacing: offsets reduced into the principal interval need not
    stay on the step lattice, they only stay ordered. The extreme sin ranks
    count as adjacent whenever their circular gap is no wider than the
    largest in-range gap. Only peaks within within_db of the global maximum
    are counted.

    The count runs on a rank image: corr at (sin rank, curv rank), padded by
    one cell, -inf where no column sits; when the sin axis wraps, the padding
    rows copy the opposite edge rows, so the 8 neighbours are plain offsets.
    """
    period = cas.source.wavelength / cas.source.spacing
    us, si = np.unique(np.round(cas.delta_sin, 9), return_inverse=True)
    uc, ci = np.unique(np.round(cas.delta_curv, 9), return_inverse=True)
    img = np.full((us.size + 2, uc.size + 2), -np.inf)
    img[si + 1, ci + 1] = corr
    if us.size > 2 and (us[0] + period - us[-1]) <= 1.5 * np.diff(us).max():
        img[0], img[-1] = img[-2], img[1]
    around = np.max([img[si + 1 + da, ci + 1 + db] for da in (-1, 0, 1)
                     for db in (-1, 0, 1) if da or db], axis=0)
    thresh = corr.max() * 10.0 ** (-within_db / 20.0)
    return int(np.count_nonzero((corr >= thresh) & (corr >= around)))


# --------------------------------------------------------------- loss curves

def run_loss_curves(cfg: ExperimentConfig, outdir) -> dict:
    """Training curves for both networks at each depth.

    Episode 0 rows hold the full-dataset loss of the untrained model.
    """
    sw = cfg.sweep
    t0 = time.perf_counter()
    bs = build_bs_dictionary(cfg)
    _, cas = build_ris_dictionaries(cfg)
    E = phase_schedule(cfg)
    ds1 = _stage1_dataset(cfg, bs, E, cfg.system, "train1", cfg.stage1.train_size,
                          (sw.loss_snr_db,))
    ds2 = _stage2_dataset(cfg, E, sw.loss_snr_db, "loss", cfg.system)

    # (network, config, train, full-dataset loss)
    stages = (("stage1", cfg.stage1, lambda c: train_stage1(ds1, c, sw.seed),
               lambda dp: stage1_loss(ds1, dp)),
              ("stage2", cfg.stage2, lambda c: train_stage2(ds2, E, cas.F, c, sw.seed),
               lambda lp: stage2_loss(ds2, lp, E)))
    rows, report = [], {"stage1": {}, "stage2": {}}
    for depth in sw.depths:
        for name, base, train, loss in stages:
            c = dataclasses.replace(base, layers=int(depth))
            # zero episodes return the network at its initialization
            init = loss(train(dataclasses.replace(c, episodes=0))[0])
            net, trace = train(c)
            final = loss(net)
            report[name][int(depth)] = {
                "init_loss": init, "final_loss": final,
                "drop_factor": init / final if final > 0 else float("inf"),
                "trace": trace,
            }
            rows.append([name, int(depth), 0, init])
            rows.extend([name, int(depth), r["episode"] + 1, r["loss"]] for r in trace)

    meta = {"config": config_to_dict(cfg), "report": report,
            "timing": {"total_s": time.perf_counter() - t0}}
    _write_outputs(outdir, "loss_curves",
                   ["network", "depth", "episode", "loss"], rows, meta)
    return report
