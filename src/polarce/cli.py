"""Command line front end.

Subcommands cover the full workflow: config and dictionary-size inspection,
training both networks, single-point evaluation and the three sweep reports.
`eval --snr s` is one point of `sweep snr`: with no checkpoints it writes the
sweep's row at s.
Config files are JSON (see harness.config_from_dict); a missing or invalid
config or option value, or a checkpoint that does not fit the config, exits
with code 2 and a JSON error on stderr. So does a training run whose loss
stops being finite.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness
from .channel import SNR_RULE, valid_snr_db
from .optim import TrainingDiverged
from .schemes import SCHEME_STAGES

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
    snr = getattr(args, "snr", None)
    if snr is not None and not valid_snr_db(snr):
        raise ConfigError(f"--snr must be {SNR_RULE}, got {snr:g}")
    if getattr(args, "seed", None) is not None:
        try:
            cfg = dataclasses.replace(
                cfg, sweep=dataclasses.replace(cfg.sweep, seed=args.seed))
        except ValueError as e:
            raise ConfigError(f"bad --seed: {e}") from e
    return cfg


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_checkpoint(path, what: str, loader, *bound):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} checkpoint not found: {p}")
    try:
        return loader(p, *bound)
    except (ValueError, KeyError, TypeError, OSError) as e:
        raise ConfigError(f"bad {what} checkpoint {p}: {e}") from e


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_info(args) -> int:
    if args.out:
        raise ConfigError("info writes no file")
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


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    E = harness.phase_schedule(cfg)
    out = Path(args.out or f"runs/{args.network}.plce")
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.network == "stage1":
        bs = harness.build_bs_dictionary(cfg)
        _progress(f"training stage 1 on {cfg.stage1.train_size} scenes")
        dp, trace = harness.train_stage1_model(cfg, bs, E)
        digest = harness.save_stage1(out, dp, bs.F, E)
    else:
        _, cas = harness.build_ris_dictionaries(cfg)
        snr = args.snr if args.snr is not None else cfg.sweep.eval_snr_db
        _progress(f"training stage 2 at {snr:g} dB on {cfg.stage2.train_size} scenes")
        lp, trace = harness.train_stage2_model(cfg, cas, E, snr, harness.snr_label(snr))
        digest = harness.save_stage2(out, lp, E, cas.F)
    _emit({"written": str(out), "sha256": digest,
           "final_loss": trace[-1]["loss"] if trace else None, "episodes": len(trace)})
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    sw = cfg.sweep
    snr = args.snr if args.snr is not None else sw.eval_snr_db
    E = harness.phase_schedule(cfg)
    dp = lp = None
    if args.stage1:
        bs = harness.build_bs_dictionary(cfg)
        dp = _load_checkpoint(args.stage1, "stage-1", harness.load_stage1, bs.F, E)
    elif args.no_train and any(1 in SCHEME_STAGES[s] for s in sw.schemes):
        raise ConfigError(
            "schemes need a stage-1 network but no --stage1 checkpoint "
            "was given and --no-train forbids training one")
    if args.stage2:
        _, cas = harness.build_ris_dictionaries(cfg)
        lp = _load_checkpoint(args.stage2, "stage-2", harness.load_stage2, E, cas.F)
    elif args.no_train and any(2 in SCHEME_STAGES[s] for s in sw.schemes):
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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, TrainingDiverged) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
