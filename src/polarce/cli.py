"""Command line front end.

Subcommands cover the full workflow: scene simulation, dictionary inspection,
training both networks, single-point evaluation, the three sweep reports, and
the grid leakage report. `eval --snr s` is one point of `sweep snr`: with no
checkpoints it writes the sweep's row at s, and `simulate --snr s` writes
that point's pilot blocks. Config files are JSON (see
harness.config_from_dict); a missing or invalid config, or a checkpoint that
does not fit it, exits with code 2 and a JSON error on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import container, harness

CONFIG_ERROR = 2


class ConfigError(Exception):
    pass


def _resolve_config(args) -> harness.ExperimentConfig:
    if getattr(args, "config", None) is None:
        cfg = harness.default_config()
    else:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = harness.load_config(path)
        except (json.JSONDecodeError, ValueError, TypeError) as e:
            raise ConfigError(f"bad config file {path}: {e}") from e
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(
            cfg, sweep=dataclasses.replace(cfg.sweep, seed=args.seed))
    return cfg


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_checkpoint(path, loader, what: str):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} checkpoint not found: {p}")
    try:
        return loader(p)
    except (ValueError, KeyError, OSError) as e:
        raise ConfigError(f"bad {what} checkpoint {p}: {e}") from e


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_info(args) -> int:
    cfg = _resolve_config(args)
    bs = harness.build_bs_dictionary(cfg)
    single, cas = harness.build_ris_dictionaries(cfg)
    sys_ = cfg.system
    _emit({
        "config": harness.config_to_dict(cfg),
        "derived": {
            "wavelength_m": sys_.wavelength,
            "spacing_m": sys_.spacing,
            "bs": {
                "grid_size": len(bs.grid),
                "z_delta_m": bs.grid.z_delta,
                "rayleigh_m": sys_.rayleigh_distance(sys_.n_bs),
            },
            "ris": {
                "grid_size": len(single.grid),
                "z_delta_m": single.grid.z_delta,
                "rayleigh_m": sys_.rayleigh_distance(sys_.n_ris),
                "cascaded_size": cas.F.shape[1],
            },
            "vectorized_design": {
                "rows": sys_.n_bs * sys_.tau,
                "cols": len(bs.grid) * cas.F.shape[1],
            },
        },
    })
    return 0


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    sw = cfg.sweep
    trials = args.trials if args.trials is not None else sw.trials
    label = harness.snr_label(args.snr)
    E = harness.phase_schedule(cfg)
    scenes = harness.draw_scenes(cfg.system, sw.seed, f"eval-scene-{label}", trials)
    pilots = harness.draw_pilots(scenes, cfg.system, E, args.snr, sw.seed, label,
                                 sw.snr_convention)
    out = Path(args.out or "runs/pilots.plce")
    out.parent.mkdir(parents=True, exist_ok=True)
    digest = container.save_container(
        out, {"Y": np.stack([blk.Y for blk in pilots]),
              "G": np.stack([scene.G[0] for scene in scenes]), "E": E,
              "noise_var": np.array([blk.noise_var for blk in pilots])},
        meta={"kind": "pilots", "snr_db": args.snr, "trials": trials,
              "config": harness.config_to_dict(cfg)})
    _emit({"written": str(out), "sha256": digest, "trials": trials})
    return 0


def cmd_build_dict(args) -> int:
    cfg = _resolve_config(args)
    bs = harness.build_bs_dictionary(cfg)
    single, cas = harness.build_ris_dictionaries(cfg)
    info = {
        "bs_grid_size": len(bs.grid),
        "ris_grid_size": len(single.grid),
        "cascaded_size": cas.F.shape[1],
        "pair_count": int(cas.pair_to_col.size),
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        digest = container.save_container(
            out,
            {"F_bs": bs.F, "F_cas": cas.F, "col_scale": cas.col_scale,
             "delta_sin": cas.delta_sin, "delta_curv": cas.delta_curv,
             "pair_to_col": cas.pair_to_col.astype(np.float64)},
            meta={"kind": "dictionaries", "config": harness.config_to_dict(cfg)})
        info.update({"written": str(out), "sha256": digest})
    _emit(info)
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    E = harness.phase_schedule(cfg)
    out = Path(args.out or f"runs/{args.network}.plce")
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.network == "stage1":
        bs = harness.build_bs_dictionary(cfg)
        _progress(f"training stage 1 on {cfg.stage1.train_size} scenes")
        dp, trace = harness.train_stage1_model(cfg, bs, E)
        digest = harness.save_stage1(out, dp)
    else:
        _, cas = harness.build_ris_dictionaries(cfg)
        snr = args.snr if args.snr is not None else cfg.sweep.eval_snr_db
        _progress(f"training stage 2 at {snr:g} dB on {cfg.stage2.train_size} scenes")
        lp, trace = harness.train_stage2_model(cfg, cas, E, snr, harness.snr_label(snr))
        digest = harness.save_stage2(out, lp, harness.schedule_fingerprint(E))
    _emit({"written": str(out), "sha256": digest,
           "final_loss": trace[-1]["loss"], "episodes": len(trace)})
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    sw = cfg.sweep
    snr = args.snr if args.snr is not None else sw.eval_snr_db
    dp = lp = None
    if args.stage1:
        dp = _load_checkpoint(args.stage1, harness.load_stage1, "stage-1")
    elif args.no_train and any(s.startswith("dncnn") for s in sw.schemes):
        raise ConfigError(
            "schemes need a stage-1 network but no --stage1 checkpoint "
            "was given and --no-train forbids training one")
    if args.stage2:
        E = harness.phase_schedule(cfg)
        lp = _load_checkpoint(args.stage2, lambda p: harness.load_stage2(p, E), "stage-2")
    elif args.no_train and "dncnn-istanet" in sw.schemes:
        raise ConfigError(
            "schemes need a stage-2 network but no --stage2 checkpoint "
            "was given and --no-train forbids training one")
    # one point of the SNR sweep; stage 1 keeps the sweep's training SNRs
    one = dataclasses.replace(cfg, sweep=dataclasses.replace(
        sw, snr_db=(float(snr),), train_snr_db=sw.stage1_snr_db))
    records = harness.run_snr_sweep(one, args.out or "runs/eval", progress=_progress,
                                    stage1=dp, stage2=lp, stem="eval")
    _emit({rec["scheme"]: rec["nmse_mean"] for rec in records})
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    out = args.out or f"runs/sweep_{args.axis}"
    if args.axis == "snr":
        records = harness.run_snr_sweep(cfg, out, progress=_progress)
    elif args.axis == "tau":
        records = harness.run_pilot_sweep(cfg, out, progress=_progress)
    else:
        records = harness.run_loss_curves(cfg, out)
    _emit({"outdir": str(out),
           "points": len(records) if isinstance(records, list) else
           sum(len(v) for v in records.values())})
    return 0


def cmd_leakage(args) -> int:
    cfg = _resolve_config(args)
    summary = harness.run_leakage_report(cfg, args.out or "runs/leakage")
    _emit(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarce",
        description="Two-stage learned estimation of near-field cascaded "
                    "RIS channels in the polar domain.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON experiment config")
    common.add_argument("--seed", type=int, help="override the root seed")
    common.add_argument("--out", help="output file or directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", parents=[common],
                   help="print the resolved config and derived sizes").set_defaults(fn=cmd_info)

    p = sub.add_parser("simulate", parents=[common],
                       help="write the pilot blocks of the SNR-sweep point "
                            "at --snr into a container")
    p.add_argument("--trials", type=int)
    p.add_argument("--snr", type=float, default=20.0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("build-dict", parents=[common],
                       help="build the polar and cascaded dictionaries")
    p.set_defaults(fn=cmd_build_dict)

    p = sub.add_parser("train", parents=[common], help="train one network")
    p.add_argument("network", choices=["stage1", "stage2"])
    p.add_argument("--snr", type=float, help="stage-2 operating point, dB")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="one point of the SNR sweep: paired evaluation of "
                            "all schemes, with optional trained networks")
    p.add_argument("--snr", type=float)
    p.add_argument("--stage1", help="stage-1 checkpoint")
    p.add_argument("--stage2", help="stage-2 checkpoint")
    p.add_argument("--no-train", action="store_true",
                   help="error out instead of training a missing network")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", parents=[common], help="run one sweep report")
    p.add_argument("axis", choices=["snr", "tau", "layers"])
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("leakage", parents=[common],
                       help="grid leakage and cascaded drift report")
    p.set_defaults(fn=cmd_leakage)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
