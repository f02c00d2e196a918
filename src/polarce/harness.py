"""Experiment orchestration: configs, training, paired evaluation, sweep reports.

Every randomized step pulls its generator from a labeled substream of one root
seed, so a rerun with the same config file reproduces results bit for bit. CSV
outputs contain only deterministic quantities; wall times and other run
metadata go to a sidecar .meta.json next to each CSV.

The SNR sweep, the pilot sweep and `polarce eval` run one evaluation body
(`_sweep`); they differ only in the points they list. A point's label names
its scene, noise and stage-2 substreams, so `polarce eval --snr s` is the SNR
sweep's row at s.
`_sweep` runs stage-1 training and its points as work items of one process
map (`_map_points`), on one process more than there are usable CPUs, forked
so they share the dictionaries, and merges their records in point order; the
layer sweep runs its trainings the same way. A job that trains draws its own
training scenes, a chunk at a time, so no process holds a whole training set
of scenes. Every item is one single-threaded job that reads only its own
labeled substreams, so the CSV bytes are the same for any worker count. The
process beyond the CPU count keeps a core busy while a point waits for stage
1 or a last round has fewer jobs than cores. Each process runs BLAS on one
thread, as importing `polarce` before numpy sets it (see the package
docstring): the trained bytes depend on the BLAS thread count.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import queue
import threading
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container
from .channel import (PHASE_KINDS, SNR_CONVENTIONS, SNR_RULE, PilotBlock,
                      SceneRealization, SystemConfig, draw_scene, make_phase_matrix,
                      noise_var_for_snr, simulate_pilots, valid_snr_db)
from .denoiser import (STAGE1_FORM, DenoiserParams, Stage1Config, Stage1Dataset,
                       make_stage1_dataset, stage1_loss, train_stage1)
from .polar import (CascadedDictionary, GridConfig, PolarDictionary,
                    build_cascaded_dictionary, build_dictionary)
from .rng import substream
from .schemes import SCHEME_FUNCS, SCHEME_STAGES, SUPPORT_GUARD, PipelineContext
from .unrolled import (FORWARD_FORM, ListaParams, Stage2Config, Stage2Dataset,
                       make_stage2_dataset, stage2_loss, train_stage2)

__all__ = [
    "SweepConfig", "ExperimentConfig", "default_config", "config_to_dict",
    "config_from_dict", "load_config", "nmse",
    "build_bs_dictionary", "build_ris_dictionaries", "phase_schedule",
    "snr_label", "draw_scenes", "draw_pilots", "evaluate_point",
    "run_snr_sweep", "run_pilot_sweep", "run_loss_curves",
    "save_stage1", "load_stage1", "save_stage2", "load_stage2", "write_csv",
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
        for s in snrs:
            if not valid_snr_db(s):
                raise ValueError(f"SNR values must be {SNR_RULE}, got {s:g}")
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
    return hashlib.sha256(blob).hexdigest()


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

# training scenes held at once while their pairs are made
_SCENE_CHUNK = 64


def draw_scenes(system: SystemConfig, seed: int, label: str, count: int):
    return [draw_scene(system, substream(seed, label, str(i))) for i in range(count)]


def _chunk_pairs(cfg: ExperimentConfig, E: np.ndarray, system: SystemConfig,
                 label: str, count: int, snrs: tuple[float, ...], make) -> list:
    """make(scenes, noise_vars) on the `label` scenes, scene i at SNR
    snrs[i % len], called on _SCENE_CHUNK scenes at a time; returns its results.

    A chunk's scenes are dropped before the next is drawn, so no more than a
    chunk of them is held at once. Made on one noise stream, the pairs of the
    chunks are those of one call on all the scenes.
    """
    parts = []
    for lo in range(0, count, _SCENE_CHUNK):
        ids = range(lo, min(lo + _SCENE_CHUNK, count))
        scenes = [draw_scene(system, substream(cfg.sweep.seed, label, str(i))) for i in ids]
        nvs = [noise_var_for_snr(sc, system, E, snrs[i % len(snrs)],
                                 convention=cfg.sweep.snr_convention)
               for i, sc in zip(ids, scenes)]
        parts.append(make(scenes, nvs))
        del scenes
    return parts


def _stage1_dataset(cfg: ExperimentConfig, bs: PolarDictionary, E: np.ndarray,
                    system: SystemConfig, label: str, count: int,
                    snrs: tuple[float, ...]):
    """Stage-1 pairs on the `<label>-scene` scenes; scene i is at SNR snrs[i % len]."""
    noise = substream(cfg.sweep.seed, f"{label}-noise")
    parts = _chunk_pairs(cfg, E, system, f"{label}-scene", count, snrs,
                         lambda scenes, nvs: make_stage1_dataset(system, bs, E, scenes,
                                                                 nvs, noise))
    return Stage1Dataset(C=np.concatenate([d.C for d in parts]),
                         X=np.concatenate([d.X for d in parts]))


def _stage2_dataset(cfg: ExperimentConfig, E: np.ndarray, snr_db: float, label: str,
                    system: SystemConfig):
    """Stage-2 pairs on the `train2-scene` scenes at one SNR, noise from
    substream label."""
    noise = substream(cfg.sweep.seed, "train2-noise", label)
    parts = _chunk_pairs(cfg, E, system, "train2-scene", cfg.stage2.train_size, (snr_db,),
                         lambda scenes, nvs: make_stage2_dataset(system, scenes, E, nvs,
                                                                 noise))
    return Stage2Dataset(P=np.concatenate([d.P for d in parts], axis=1),
                         Xl=np.concatenate([d.Xl for d in parts], axis=1))


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
                       system: SystemConfig | None = None):
    """Stage-2 network at one noise operating point; returns (params, trace)."""
    ds = _stage2_dataset(cfg, E, snr_db, label, system or cfg.system)
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
                   schemes: tuple[str, ...], convention: str = "receive",
                   get_stage1=None):
    """Per-trial NMSE and wall seconds of every scheme, on a shared pilot draw.

    The schemes that read no stage-1 network run first. A context without
    one then gets it from get_stage1(), if given, so a sweep point waits for
    a network still in training only once it has nothing else to do.
    """
    pilots = draw_pilots(scenes, ctx.config, ctx.E, snr_db, seed, label, convention)
    errs, secs = {}, {}
    for name in sorted(schemes, key=lambda s: 1 in SCHEME_STAGES[s]):
        if 1 in SCHEME_STAGES[name] and ctx.stage1 is None and get_stage1 is not None:
            ctx.stage1 = get_stage1()
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
    """The CSV, and the meta with the process's OPENBLAS_NUM_THREADS (null when
    unset): the trained stage-2 bytes depend on the BLAS thread count."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / f"{stem}.csv", header, rows)
    meta = {**meta, "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    (outdir / f"{stem}.meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _watch(conn, box: queue.SimpleQueue) -> None:
    """Thread of a forked worker: put job 0's result in box as soon as worker 0
    sends it, so that send never waits on this worker's own jobs, and end the
    worker once the process that forked it is gone, as after a signal that
    skips that process's clean-up."""
    parent = multiprocessing.parent_process().sentinel
    if conn in multiprocessing.connection.wait([conn, parent]):
        try:
            box.put(conn.recv())
        except EOFError:                  # worker 0 is gone without sending it
            os._exit(1)
        multiprocessing.connection.wait([parent])
    os._exit(1)


def _worker(jobs: list, conn, first_conn) -> None:
    """Forked side of `_map_points`: send ("ok", job(first)) per job, or stop at
    the first error and send it, so the parent raises it with its type and message."""
    box = queue.SimpleQueue()
    threading.Thread(target=_watch, args=(first_conn, box), daemon=True).start()
    first = functools.cache(box.get)
    try:
        for job in jobs:
            conn.send(("ok", job(first)))
    except Exception as e:
        try:
            conn.send(("error", e))
        except Exception:                 # an exception that does not pickle
            conn.send(("error", RuntimeError(f"{type(e).__name__}: {e}")))
    finally:
        conn.close()


def _map_points(jobs: list, workers: int) -> list:
    """[job(first) for job in jobs], job i run by worker i % workers, where
    first() returns job 0's result (job 0 itself must not call it).

    Worker 0 is this process and runs job 0 first. The others are forked on
    entry, so they share everything the jobs read copy-on-write, and send
    back plain results over a pipe. Worker 0 sends job 0's result to each of
    them as soon as it has it, over a pipe of their own: a thread there takes
    it off at once, and first() waits for it. After each of its own jobs
    worker 0 takes, without waiting, whatever the others have sent, so an
    error in any worker, or its exit, is raised at worker 0's next job
    boundary. The error is raised once every child is stopped and reaped, a
    child blocked in first() included, and a child exits by itself if this
    process dies. One worker forks nothing.
    """
    results = [None] * len(jobs)
    children, todo = [], {}

    def collect(timeout):
        """Store the results sent so far, in each worker's job order, waiting
        up to timeout (None: until all are in) for them; raise a worker's
        error or exit."""
        while todo and (ready := multiprocessing.connection.wait(list(todo), timeout)):
            for recv in ready:
                w, proc, left = todo[recv]
                try:
                    status, value = recv.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"sweep worker {w} exited with code "
                                       f"{proc.exitcode}") from None
                if status == "error":
                    raise value
                results[left.pop(0)] = value
                if not left:
                    del todo[recv]

    try:
        if workers > 1:
            mp = multiprocessing.get_context("fork")
            for w in range(1, workers):
                recv, send = mp.Pipe(duplex=False)
                first_recv, first_send = mp.Pipe(duplex=False)
                proc = mp.Process(target=_worker,
                                  args=(jobs[w::workers], send, first_recv))
                proc.start()
                send.close()
                first_recv.close()
                children.append((proc, recv, first_send))
                todo[recv] = (w, proc, list(range(w, len(jobs), workers)))
        for i in range(0, len(jobs), workers):
            results[i] = jobs[i](lambda: results[0])
            if i == 0:
                for *_, first_send in children:
                    try:
                        first_send.send(results[0])
                    except BrokenPipeError:   # that worker has ended; its pipe says why
                        pass
            collect(0)
        collect(None)
    except BaseException:
        for proc, *_ in children:
            proc.terminate()
        raise
    finally:
        for proc, *pipes in children:
            proc.join()
            for conn in pipes:
                conn.close()
    return results


def _sweep_point(cfg: ExperimentConfig, axis: str, bs: PolarDictionary,
                 cas: CascadedDictionary, stage1: DenoiserParams | None,
                 stage2: ListaParams | None, progress, point, first) -> dict:
    """One point of `_sweep`: its records, timing entries, stage-2 trace and
    stage-2 checkpoint hash, all plain values a worker can send back.

    Without a given stage2, a point that runs "dncnn-istanet" trains its own,
    on training scenes it draws a chunk at a time. Without a given stage1, the
    network is the first entry of first(), the result of the sweep's stage-1
    job, read once the schemes that need no network are done."""
    sw = cfg.sweep
    value, label, system, E, snr = point
    tp = time.perf_counter()
    timing, trace2 = {}, None
    scenes = draw_scenes(cfg.system, sw.seed, f"eval-scene-{label}", sw.trials)
    lp = stage2
    if lp is None and any(2 in SCHEME_STAGES[s] for s in sw.schemes):
        ts = time.perf_counter()
        lp, trace2 = train_stage2_model(cfg, cas, E, snr, label, system=system)
        timing[f"stage2_train_{label}_s"] = time.perf_counter() - ts
    ctx = PipelineContext(config=system, bs=bs, cas=cas, E=E,
                          stage1=stage1, stage2=lp, support_guard=sw.support_guard)
    errs, secs = evaluate_point(scenes, ctx, snr, sw.seed, label, sw.schemes,
                                convention=sw.snr_convention,
                                get_stage1=lambda: first()[0])
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
    per point, because its mixing matrix is tied to the point's schedule, and
    each point draws the training scenes itself. A given network replaces the
    training. Writes <stem>.csv and <stem>.meta.json and returns one record per
    scheme and point.

    Stage-1 training, when there is one, is job 0 and the points follow. The
    jobs run round-robin (`_map_points`) on W = min(jobs, usable CPUs + 1)
    processes: this process takes jobs 0, W, 2W, ... and forks the other W-1
    before any training scene is drawn; they share the dictionaries. A point
    trains its stage 2 and runs the schemes that need no stage-1 network
    before it waits for one. With one process more than there are CPUs, a
    core that a waiting or finished job leaves has another job to run. Every
    random stream is keyed by its job's label, so the CSV bytes do not depend
    on W; the meta's timing records W ("workers") and the worker that ran each
    point ("worker_<label>"). Each process is meant to run one thread, as
    the BLAS pin of the package import gives it.
    """
    sw = cfg.sweep
    t0 = time.perf_counter()
    bs = build_bs_dictionary(cfg)
    _, cas = build_ris_dictionaries(cfg)
    train1 = stage1 is None and any(1 in SCHEME_STAGES[s] for s in sw.schemes)
    meta: dict = {"config": config_to_dict(cfg), "config_hash": _config_hash(cfg),
                  "checkpoints": {}, "timing": {}}
    jobs = [functools.partial(_sweep_point, cfg, axis, bs, cas, stage1, stage2,
                              progress, p) for p in points]
    workers = min(len(jobs) + train1, _usable_cpus() + 1)
    if train1:
        _, _, system_ref, E_ref, _ = max(points, key=lambda p: p[2].tau)

        def train_stage1(first):
            ts = time.perf_counter()
            dp, trace = train_stage1_model(cfg, bs, E_ref, system=system_ref)
            return dp, trace, time.perf_counter() - ts

        jobs.insert(0, train_stage1)
    outs = _map_points(jobs, workers)
    if train1:
        stage1, meta["stage1_trace"], meta["timing"]["stage1_train_s"] = outs.pop(0)
    if stage1 is not None:
        meta["checkpoints"]["stage1"] = container.content_hash(
            {**stage1.params, **stage1.buffers})
    records = []
    for i, ((value, label, *_), out) in enumerate(zip(points, outs), start=int(train1)):
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


# --------------------------------------------------------------- loss curves

def run_loss_curves(cfg: ExperimentConfig, outdir) -> dict:
    """Training curves for both networks at each depth.

    Episode 0 rows hold the full-dataset loss of the untrained model. Both
    datasets are built first, their scenes drawn a chunk at a time, so only
    the pairs outlive the draw. Each (depth, network) training is one job of
    `_map_points`, run on min(trainings, usable CPUs + 1) processes forked
    after that; the rows merge in depth order, stage 1 before stage 2.
    """
    sw = cfg.sweep
    t0 = time.perf_counter()
    bs = build_bs_dictionary(cfg)
    _, cas = build_ris_dictionaries(cfg)
    E = phase_schedule(cfg)
    ds1 = _stage1_dataset(cfg, bs, E, cfg.system, "train1", cfg.stage1.train_size,
                          (sw.loss_snr_db,))
    ds2 = _stage2_dataset(cfg, E, sw.loss_snr_db, "loss", cfg.system)

    # network: (config, train, full-dataset loss)
    stages = {"stage1": (cfg.stage1, lambda c: train_stage1(ds1, c, sw.seed),
                         lambda dp: stage1_loss(ds1, dp)),
              "stage2": (cfg.stage2, lambda c: train_stage2(ds2, E, cas.F, c, sw.seed),
                         lambda lp: stage2_loss(ds2, lp, E))}

    def curve(name: str, depth: int, _first) -> tuple:
        base, train, loss = stages[name]
        c = dataclasses.replace(base, layers=depth)
        # zero episodes return the network at its initialization
        init = loss(train(dataclasses.replace(c, episodes=0))[0])
        net, trace = train(c)
        return init, loss(net), trace

    runs = [(name, int(depth)) for depth in sw.depths for name in stages]
    workers = min(len(runs), _usable_cpus() + 1)
    rows, report = [], {name: {} for name in stages}
    for (name, depth), (init, final, trace) in zip(
            runs, _map_points([functools.partial(curve, *r) for r in runs], workers)):
        report[name][depth] = {
            "init_loss": init, "final_loss": final,
            "drop_factor": init / final if final > 0 else float("inf"),
            "trace": trace,
        }
        rows.append([name, depth, 0, init])
        rows.extend([name, depth, r["episode"] + 1, r["loss"]] for r in trace)

    meta = {"config": config_to_dict(cfg), "report": report,
            "timing": {"workers": workers, "total_s": time.perf_counter() - t0}}
    _write_outputs(outdir, "loss_curves",
                   ["network", "depth", "episode", "loss"], rows, meta)
    return report
