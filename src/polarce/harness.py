"""Experiment orchestration: configs, training, paired evaluation, sweep reports.

Every randomized step pulls its generator from a labeled substream of one root
seed, so a rerun with the same config file reproduces results bit for bit. CSV
outputs contain only deterministic quantities; wall times and other run
metadata go to a sidecar .meta.json next to each CSV.

The SNR sweep, the pilot sweep and `polarce eval` run one evaluation body
(`_sweep`); they differ only in the points they list. A point's label names
its scene, noise and stage-2 substreams, so `polarce eval --snr s` is the SNR
sweep's row at s and `polarce simulate --snr s` writes that row's pilot blocks.
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container
from .channel import (PathParams, PilotBlock, SceneRealization, SystemConfig,
                      build_channels, draw_scene, make_phase_matrix,
                      noise_var_for_snr, simulate_pilots, steering_vector)
from .denoiser import (DenoiserParams, Stage1Config, init_denoiser,
                       make_stage1_dataset, row_energy, stage1_loss,
                       train_stage1)
from .polar import (CascadedDictionary, GridConfig, PolarDictionary,
                    build_cascaded_dictionary, build_dictionary,
                    coherence_profile)
from .rng import substream
from .schemes import SCHEME_FUNCS, PipelineContext
from .unrolled import (ListaParams, Stage2Config, lista_init,
                       make_stage2_dataset, stage2_loss, train_stage2)

__all__ = [
    "SweepConfig", "ExperimentConfig", "default_config", "config_to_dict",
    "config_from_dict", "load_config", "save_config", "nmse",
    "build_bs_dictionary", "build_ris_dictionaries", "phase_schedule",
    "snr_label", "draw_scenes", "draw_pilots", "evaluate_point",
    "run_snr_sweep", "run_pilot_sweep", "run_leakage_report", "run_loss_curves",
    "schedule_fingerprint", "save_stage1", "load_stage1", "save_stage2", "load_stage2", "write_csv",
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
    support_guard: int = 0
    phase_kind: str = "random"
    snr_convention: str = "receive"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        unknown = set(self.schemes) - set(SCHEME_FUNCS)
        if unknown:
            raise ValueError(f"unknown schemes {sorted(unknown)}")
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


def default_config() -> ExperimentConfig:
    """Desk-scale profile: small enough to train and sweep on one core."""
    system = SystemConfig()
    return ExperimentConfig(
        system=system,
        # BS scene distances sit far beyond the BS Fresnel ring, keep angle
        # only; 3x angle oversampling keeps the shared on-grid projection
        # floor well under the per-path recovery errors being compared
        bs_grid=GridConfig(angle_count=3 * system.n_bs, ring_limit=0,
                           distance_min=system.bs_dist[0]),
        ris_grid=GridConfig(angle_count=system.n_ris,
                            distance_min=system.ris_dist[0]),
        stage1=Stage1Config(),
        stage2=Stage2Config(),
        sweep=SweepConfig(),
    )


def _merge_section(base, cls, data: dict, name: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise ValueError(f"unknown keys in {name!r}: {sorted(unknown)}")
    coerced = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    return dataclasses.replace(base, **coerced)


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
    # grid defaults track the system sizes unless the file pins them
    bs_default = GridConfig(angle_count=3 * system.n_bs, ring_limit=0,
                            distance_min=system.bs_dist[0])
    ris_default = GridConfig(angle_count=system.n_ris,
                             distance_min=system.ris_dist[0])
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


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


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


def save_stage1(path, dp: DenoiserParams, extra_meta: dict | None = None) -> str:
    arrays = {f"p.{k}": v for k, v in dp.params.items()}
    arrays.update({f"b.{k}": v for k, v in dp.buffers.items()})
    meta = {"kind": "stage1", "config": dataclasses.asdict(dp.config)}
    meta.update(extra_meta or {})
    return container.save_container(path, arrays, meta=meta)


def load_stage1(path) -> DenoiserParams:
    arrays, meta = container.load_container(path)
    if meta.get("kind") != "stage1":
        raise ValueError(f"not a stage-1 checkpoint: {path}")
    cfg = Stage1Config(**meta["config"])
    params = {k[2:]: v for k, v in arrays.items() if k.startswith("p.")}
    buffers = {k[2:]: v for k, v in arrays.items() if k.startswith("b.")}
    return DenoiserParams(config=cfg, params=params, buffers=buffers)


def save_stage2(path, lp: ListaParams, extra_meta: dict | None = None) -> str:
    arrays = {"lam": lp.lam, "kappa": lp.kappa, "V": lp.V, "F": lp.F}
    meta = {"kind": "stage2"}
    meta.update(extra_meta or {})
    return container.save_container(path, arrays, meta=meta)


def schedule_fingerprint(E: np.ndarray) -> dict:
    """Checkpoint meta that binds a stage-2 network to its phase schedule.

    The learned mixing matrix V only fits the schedule it was trained on.
    """
    return {"tau": int(E.shape[1]), "phase_hash": container.content_hash({"E": E})}


def load_stage2(path, E: np.ndarray | None = None) -> ListaParams:
    """Stage-2 parameters; given E, the checkpoint must carry E's fingerprint."""
    arrays, meta = container.load_container(path)
    if meta.get("kind") != "stage2":
        raise ValueError(f"not a stage-2 checkpoint: {path}")
    if E is not None:
        want = schedule_fingerprint(E)
        got = {k: meta.get(k) for k in want}
        if None in got.values():
            raise ValueError("no phase-schedule fingerprint; retrain it with "
                             "`polarce train stage2`")
        if got != want:
            raise ValueError(f"trained for pilot length {got['tau']} and phase "
                             f"hash {got['phase_hash'][:12]}, but this run uses "
                             f"{want['tau']} and {want['phase_hash'][:12]}")
    return ListaParams(lam=arrays["lam"], kappa=arrays["kappa"],
                       V=arrays["V"], F=arrays["F"])


# ------------------------------------------------------------------- training

def draw_scenes(system: SystemConfig, seed: int, label: str, count: int):
    return [draw_scene(system, substream(seed, label, str(i))) for i in range(count)]


def train_stage1_model(cfg: ExperimentConfig, bs: PolarDictionary, E: np.ndarray,
                       system: SystemConfig | None = None):
    """Stage-1 network on mixed-noise scenes; returns (params, trace)."""
    system = system or cfg.system
    seed = cfg.sweep.seed
    snrs = cfg.sweep.stage1_snr_db

    def build(label: str, count: int):
        scenes = draw_scenes(system, seed, f"{label}-scene", count)
        nvs = [noise_var_for_snr(sc, system, E, snrs[i % len(snrs)],
                                 convention=cfg.sweep.snr_convention)
               for i, sc in enumerate(scenes)]
        return make_stage1_dataset(system, bs, E, scenes, nvs,
                                   substream(seed, f"{label}-noise"))

    ds = build("train1", cfg.stage1.train_size)
    val = build("val1", cfg.stage1.val_size) if cfg.stage1.val_size else None
    return train_stage1(ds, cfg.stage1, seed, val=val)


def train_stage2_model(cfg: ExperimentConfig, cas: CascadedDictionary,
                       E: np.ndarray, snr_db: float, label: str,
                       system: SystemConfig | None = None,
                       scenes: list[SceneRealization] | None = None):
    """Stage-2 network at one noise operating point; returns (params, trace)."""
    system = system or cfg.system
    seed = cfg.sweep.seed
    if scenes is None:
        scenes = draw_scenes(system, seed, "train2-scene", cfg.stage2.train_size)
    nvs = [noise_var_for_snr(sc, system, E, snr_db,
                             convention=cfg.sweep.snr_convention)
           for sc in scenes]
    ds = make_stage2_dataset(system, scenes, E,
                             nvs, substream(seed, "train2-noise", label))
    return train_stage2(ds, E, cas.F, cfg.stage2, seed)


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


def _sweep(cfg: ExperimentConfig, outdir, stem: str, axis: str, points: list,
           progress=None, stage1: DenoiserParams | None = None,
           stage2: ListaParams | None = None) -> list[dict]:
    """Evaluate every scheme at each (axis value, label, system, E, snr_db) point.

    Stage 1 trains once, on the point with the longest pilot block (its
    row-compressed input keeps the same shape for every tau); stage 2 trains
    per point, on one shared scene draw, because its mixing matrix is tied to
    the point's schedule. A given network replaces the training. Writes
    <stem>.csv and <stem>.meta.json and returns one record per scheme and point.
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

    rows, records = [], []
    for value, label, system, E, snr in points:
        tp = time.perf_counter()
        scenes = draw_scenes(cfg.system, sw.seed, f"eval-scene-{label}", sw.trials)
        lp = stage2
        if needs2 and lp is None:
            ts = time.perf_counter()
            lp, trace2 = train_stage2_model(cfg, cas, E, snr, label, system=system,
                                            scenes=train2_scenes)
            meta["timing"][f"stage2_train_{label}_s"] = time.perf_counter() - ts
            meta.setdefault("stage2_traces", {})[_fmt(value)] = trace2
        if lp is not None:
            meta["checkpoints"][f"stage2_{label}"] = container.content_hash(vars(lp))
        ctx = PipelineContext(config=system, bs=bs, cas=cas, E=E,
                              stage1=dp, stage2=lp,
                              support_guard=sw.support_guard)
        errs, secs = evaluate_point(scenes, ctx, snr, sw.seed, label,
                                    sw.schemes, convention=sw.snr_convention)
        for name in sw.schemes:
            e = errs[name]
            rec = {"scheme": name, axis: value,
                   "nmse_mean": float(e.mean()), "nmse_std": float(e.std()),
                   "trials": sw.trials, "wall_time_s": secs[name]}
            records.append(rec)
            rows.append([name, value, rec["nmse_mean"], rec["nmse_std"], sw.trials])
            meta["timing"][f"{name}_{label}_s"] = secs[name]
        meta["timing"][f"point_{label}_s"] = time.perf_counter() - tp
        if progress:
            progress(f"{label} done")
    meta["timing"]["total_s"] = time.perf_counter() - t0
    _write_outputs(outdir, stem, ["scheme", axis, "nmse_mean", "nmse_std", "trials"],
                   rows, meta)
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

def top1_fraction(F: np.ndarray, v: np.ndarray) -> float:
    """Share of correlation energy captured by the strongest dictionary column."""
    p = np.abs(F.conj().T @ v) ** 2
    return float(p.max() / p.sum())


def _single_path_profile(sys_: SystemConfig, bs: PolarDictionary, E: np.ndarray,
                         theta: float, r: float) -> np.ndarray:
    """|c_r| over grid rows for a noiseless one-bridge-path pilot block."""
    H, h, G = build_channels(sys_,
                             (PathParams(theta, r, 1.0 + 0.0j),),
                             (PathParams(-0.2, 8.0),),
                             ((PathParams(0.3, 10.0, 1.0 + 0.0j),),))
    Y = np.sqrt(sys_.power) * (G[0] @ E)
    return np.abs(row_energy(Y, bs))


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

    def angle(u):
        return float(np.arcsin(u))

    mids = 0.5 * (sins[:-1] + sins[1:])
    placements = {
        "on": [(angle(u), far_r, u) for u in sins],
        "off_angle": [(angle(u), far_r, u) for u in mids],
        "off_dist": [(angle(u), near_r, u) for u in sins],
        "off_both": [(angle(u), near_r, u) for u in mids],
    }
    rows, scan = [], {}
    for kind, items in placements.items():
        fracs = []
        for g, (th, r, u) in enumerate(items):
            prof = _single_path_profile(sys_, bs_full, E, th, r)
            fracs.append(_top1_power(prof))
            rows.append([f"scan_{kind}", g, float(u), fracs[-1]])
        scan[kind] = np.array(fracs)
    g_mid = len(sins) // 2
    for kind, items in placements.items():
        th, r, u = items[min(g_mid, len(items) - 1)]
        prof = _single_path_profile(sys_, bs_full, E, th, r)
        rows.extend([f"profile_{kind}", g, float(sins[g]), float(v)]
                    for g, v in enumerate(prof))

    single, cas = build_ris_dictionaries(cfg)
    prof_single = coherence_profile(single.F)
    prof_cas = coherence_profile(cas.F)
    probe = _drift_probe(single, cas)
    corr = np.abs(cas.F.conj().T @ probe["vector"])
    peaks = count_lattice_peaks(cas, corr, within_db=3.0)
    drows = [[j, float(cas.delta_sin[j]), float(cas.delta_curv[j]), float(corr[j])]
             for j in range(corr.size)]

    summary = {
        "on_grid_min_top1": float(scan["on"].min()),
        "off_angle_min_top1": float(scan["off_angle"].min()),
        "off_dist_min_top1": float(scan["off_dist"].min()),
        "off_both_min_top1": float(scan["off_both"].min()),
        "worst_off_top1": float(min(scan[k].min() for k in
                                    ("off_angle", "off_dist", "off_both"))),
        "single_mean_coherence": prof_single.mean_off,
        "single_max_coherence": prof_single.max_off,
        "cascaded_mean_coherence": prof_cas.mean_off,
        "cascaded_max_coherence": prof_cas.max_off,
        "drift_peaks_within_3db": int(peaks),
        "drift_probe": {k: v for k, v in probe.items() if k != "vector"},
    }
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "leakage_profile.csv",
              ["kind", "index", "sin_angle", "value"], rows)
    write_csv(outdir / "drift_profile.csv",
              ["col", "delta_sin", "delta_curv", "corr"], drows)
    (outdir / "leakage_profile.meta.json").write_text(
        json.dumps({"config": config_to_dict(cfg), "summary": summary},
                   indent=2, sort_keys=True) + "\n")
    return summary


def _drift_probe(single: PolarDictionary, cas: CascadedDictionary) -> dict:
    """Construct a one-path cascade whose curvature falls between lattice rows.

    The departure sits on a grid angle; the arrival distance is scanned over
    a few near-field values and the bridge-side distance is solved so the true
    curvature difference lands half a lattice step off, which is where the
    drifted peaks of the cascaded profile are most pronounced.
    """
    grid = single.grid
    sins = np.unique(np.round(grid.sin_angles, 12))
    u_dep = float(sins[len(sins) // 2])
    u_arr = float(sins[len(sins) // 4])
    lam, delta = single.wavelength, single.spacing
    m = single.F.shape[0]
    best = None
    for d_arr in (1.5, 2.0, 3.0, 5.0, 8.0):
        a_arr = steering_vector(m, float(np.arcsin(u_arr)), d_arr, lam, delta)
        for s_dep in (5.0, 6.5, 8.0, 11.0, 15.0, 22.0, 30.0):
            a_dep = steering_vector(m, float(np.arcsin(u_dep)), s_dep, lam, delta)
            x = a_dep * np.conj(a_arr)
            corr = np.abs(cas.F.conj().T @ x)
            peaks = count_lattice_peaks(cas, corr, within_db=3.0)
            cand = {"vector": x, "peaks": peaks, "s_dep": s_dep,
                    "d_arr": d_arr, "u_dep": u_dep, "u_arr": u_arr}
            if best is None or peaks > best["peaks"]:
                best = cand
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
    """
    period = cas.source.wavelength / cas.source.spacing
    ds = np.round(cas.delta_sin, 9)
    dc = np.round(cas.delta_curv, 9)
    us, uc = np.unique(ds), np.unique(dc)
    si = np.searchsorted(us, ds)
    ci = np.searchsorted(uc, dc)
    ns = us.size
    wrap = ns > 2 and (us[0] + period - us[-1]) <= 1.5 * np.diff(us).max()
    index = {(int(a), int(b)): k for k, (a, b) in enumerate(zip(si, ci))}
    thresh = corr.max() * 10.0 ** (-within_db / 20.0)
    peaks = 0
    for k, (a, b) in enumerate(zip(si, ci)):
        if corr[k] < thresh:
            continue
        best = True
        for da in (-1, 0, 1):
            aa = (a + da) % ns if wrap else a + da
            for db in (-1, 0, 1):
                if da == 0 and db == 0:
                    continue
                nb = index.get((int(aa), int(b + db)))
                if nb is not None and corr[nb] > corr[k]:
                    best = False
                    break
            if not best:
                break
        peaks += int(best)
    return peaks


# --------------------------------------------------------------- loss curves

def run_loss_curves(cfg: ExperimentConfig, outdir) -> dict:
    """Training curves for both networks at each depth, each run twice.

    The duplicate run checks that a fixed seed reproduces the trace bit for
    bit. Episode 0 rows hold the full-dataset loss of the untrained model.
    """
    sw = cfg.sweep
    t0 = time.perf_counter()
    bs = build_bs_dictionary(cfg)
    _, cas = build_ris_dictionaries(cfg)
    E = phase_schedule(cfg)
    scenes1 = draw_scenes(cfg.system, sw.seed, "train1-scene", cfg.stage1.train_size)
    scenes2 = draw_scenes(cfg.system, sw.seed, "train2-scene", cfg.stage2.train_size)
    nvs1 = [noise_var_for_snr(sc, cfg.system, E, sw.loss_snr_db,
                              convention=sw.snr_convention) for sc in scenes1]
    nvs2 = [noise_var_for_snr(sc, cfg.system, E, sw.loss_snr_db,
                              convention=sw.snr_convention) for sc in scenes2]
    ds1 = make_stage1_dataset(cfg.system, bs, E, scenes1, nvs1,
                              substream(sw.seed, "train1-noise"))
    ds2 = make_stage2_dataset(cfg.system, scenes2, E, nvs2,
                              substream(sw.seed, "train2-noise", "loss"))

    rows, report = [], {"stage1": {}, "stage2": {}}
    for depth in sw.depths:
        c1 = dataclasses.replace(cfg.stage1, layers=int(depth))
        dp0 = init_denoiser(c1, substream(sw.seed, "stage1-init"))
        init1 = stage1_loss(ds1, dp0)
        dp_a, tr_a = train_stage1(ds1, c1, sw.seed)
        dp_b, tr_b = train_stage1(ds1, c1, sw.seed)
        same1 = (tr_a == tr_b and
                 all(np.array_equal(dp_a.params[k], dp_b.params[k]) for k in dp_a.params) and
                 all(np.array_equal(dp_a.buffers[k], dp_b.buffers[k]) for k in dp_a.buffers))
        final1 = stage1_loss(ds1, dp_a)
        report["stage1"][int(depth)] = {
            "init_loss": init1, "final_loss": final1,
            "drop_factor": init1 / final1 if final1 > 0 else float("inf"),
            "rerun_identical": bool(same1), "trace": tr_a,
        }
        rows.append(["stage1", int(depth), 0, init1])
        rows.extend(["stage1", int(depth), r["episode"] + 1, r["loss"]] for r in tr_a)

        c2 = dataclasses.replace(cfg.stage2, layers=int(depth))
        lp0 = lista_init(E, cas.F, c2, probe_P=ds2.P[:, :c2.probe])
        init2 = stage2_loss(ds2, lp0, E)
        lp_a, tr2_a = train_stage2(ds2, E, cas.F, c2, sw.seed)
        lp_b, tr2_b = train_stage2(ds2, E, cas.F, c2, sw.seed)
        same2 = (tr2_a == tr2_b and
                 np.array_equal(lp_a.lam, lp_b.lam) and
                 np.array_equal(lp_a.kappa, lp_b.kappa) and
                 np.array_equal(lp_a.V, lp_b.V) and
                 np.array_equal(lp_a.F, lp_b.F))
        final2 = stage2_loss(ds2, lp_a, E)
        report["stage2"][int(depth)] = {
            "init_loss": init2, "final_loss": final2,
            "drop_factor": init2 / final2 if final2 > 0 else float("inf"),
            "rerun_identical": bool(same2), "trace": tr2_a,
        }
        rows.append(["stage2", int(depth), 0, init2])
        rows.extend(["stage2", int(depth), r["episode"] + 1, r["loss"]] for r in tr2_a)

    meta = {"config": config_to_dict(cfg), "report": report,
            "timing": {"total_s": time.perf_counter() - t0}}
    _write_outputs(outdir, "loss_curves",
                   ["network", "depth", "episode", "loss"], rows, meta)
    return report
