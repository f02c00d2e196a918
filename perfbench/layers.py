"""Which `polarce` functions the traced run wraps, and the per-layer metrics.

Each layer is a module of `polarce`; a metric is named module.function[.variant]
followed by its statistic. Times are medians over calls; `.p90` is the 90th
percentile when a span has at least 100 calls, else its maximum. A layer that
did not run in a workload reports 0 (its `.calls` counter shows why).
FLOP rates are computed from the array shapes, not counted by hardware.
"""
from __future__ import annotations

import statistics

from tracer import Tracer

__all__ = ["make_tracer", "layer_metrics"]

_CMAC = 8                         # real flops per complex multiply-add


def _lista_attrs(args, result):
    P, lp, E = args["P"], args["lp"], args["E"]
    batch = 1 if P.ndim == 1 else P.shape[1]
    m, tau = E.shape
    gc = lp.F.shape[1]
    # per layer: E^H x, V r, F^H step, F coeff
    cmacs = lp.lam.size * batch * (2 * tau * m + 2 * m * gc)
    return {"taped": args["tape"] is not None, "flops": _CMAC * cmacs}


def _correlate_attrs(args, result):
    prob, R = args["self"], args["R"]
    n, ng = prob.F_bs.shape
    tau, gc = prob.Psi.shape
    return {"flops": _CMAC * (ng * n * R.shape[1] + ng * tau * gc)}


def _omp_attrs(args, result):
    return {"iterations": len(result.support), "ridge": bool(result.ridge_fallback)}


TARGETS = {
    "polar.build_dictionary": None,
    "polar.build_cascaded_dictionary": lambda a, r: {"columns": r.F.shape[1]},
    "channel.draw_scene": None,
    "channel.simulate_pilots": None,
    "denoiser.make_stage1_dataset": None,
    "unrolled.make_stage2_dataset": None,
    "denoiser.train_stage1": None,
    "unrolled.train_stage2": None,
    "denoiser.denoiser_forward": lambda a, r: {"training": bool(a["training"])},
    "autodiff.conv2d": None,
    "autodiff.matmul": None,
    "autodiff.Tape.backward": None,
    "optim.adam_step": None,
    "unrolled.lista_forward": _lista_attrs,
    "denoiser.denoise": None,
    "denoiser.select_support": None,
    "unrolled.project_to_bs_subspace": None,
    "omp.omp": _omp_attrs,
    "omp.VectorizedProblem.correlate": _correlate_attrs,
    "omp.cascaded_estimate": None,
    "omp.omp_dense": None,
    "schemes.estimate_omp": None,
    "schemes.estimate_dncnn_omp": None,
    "schemes.estimate_dncnn_istanet": None,
    "harness.train_stage1_model": None,
    "harness.train_stage2_model": None,
    "harness.evaluate_point": None,
    "harness.write_csv": None,
}


def make_tracer() -> Tracer:
    return Tracer("polarce", TARGETS)


def _median(values, scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def _p90(values, scale: float) -> float:
    if not values:
        return 0.0
    if len(values) < 100:
        return max(values) * scale
    return statistics.quantiles(values, n=10)[-1] * scale


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer values from the recorded spans, keyed by metric name."""
    def dur(name, under=None, **attrs):
        return [s.duration for s in tr.select(name, under, **attrs)]

    def self_times(name):
        return [s.self_time for s in tr.select(name)]

    out: dict[str, float] = {}
    for name, scale, key in (
            ("polar.build_dictionary", 1.0, "s"),
            ("polar.build_cascaded_dictionary", 1.0, "s"),
            ("channel.draw_scene", 1e3, "ms"),
            ("channel.simulate_pilots", 1e3, "ms"),
            ("denoiser.make_stage1_dataset", 1.0, "s"),
            ("unrolled.make_stage2_dataset", 1.0, "s"),
            ("denoiser.denoise", 1e3, "ms"),
            ("denoiser.select_support", 1e6, "us"),
            ("unrolled.project_to_bs_subspace", 1e6, "us"),
            ("omp.omp", 1e3, "ms"),
            ("omp.VectorizedProblem.correlate", 1e3, "ms"),
            ("omp.cascaded_estimate", 1e3, "ms"),
            ("omp.omp_dense", 1e3, "ms"),
            ("harness.train_stage1_model", 1.0, "s"),
            ("harness.train_stage2_model", 1.0, "s"),
            ("harness.evaluate_point", 1.0, "s"),
            ("harness.write_csv", 1e3, "ms")):
        out[f"{name}.{key}"] = _median(dur(name), scale)
    for name in ("channel.draw_scene", "channel.simulate_pilots",
                 "omp.VectorizedProblem.correlate", "omp.omp_dense"):
        out[f"{name}.ms.p90"] = _p90(dur(name), 1e3)

    cascaded = tr.select("polar.build_cascaded_dictionary")
    out["polar.cascaded_columns"] = float(cascaded[-1].attrs["columns"]) if cascaded else 0.0

    out["denoiser.denoiser_forward.train.ms"] = _median(
        dur("denoiser.denoiser_forward", training=True), 1e3)
    out["unrolled.lista_forward.taped.ms"] = _median(
        dur("unrolled.lista_forward", taped=True), 1e3)
    out["unrolled.lista_forward.untaped.ms"] = _median(
        dur("unrolled.lista_forward", taped=False), 1e3)
    for stage, fn in (("train_stage1", "denoiser.train_stage1"),
                      ("train_stage2", "unrolled.train_stage2")):
        out[f"autodiff.Tape.backward.{stage}.ms"] = _median(
            dur("autodiff.Tape.backward", under=fn), 1e3)
        out[f"optim.adam_step.{stage}.ms"] = _median(dur("optim.adam_step", under=fn), 1e3)
    for op in ("conv2d", "matmul"):
        name = f"autodiff.{op}"
        out[f"{name}.self_ms"] = _median(self_times(name), 1e3)
        out[f"{name}.self_ms.p90"] = _p90(self_times(name), 1e3)
        out[f"{name}.calls"] = float(len(tr.select(name)))
    out["autodiff.Tape.backward.calls"] = float(len(tr.select("autodiff.Tape.backward")))
    for name in ("schemes.estimate_omp", "schemes.estimate_dncnn_omp",
                 "schemes.estimate_dncnn_istanet"):
        out[f"{name}.self_ms"] = _median(self_times(name), 1e3)

    omp_spans = tr.select("omp.omp")
    out["omp.omp.calls"] = float(len(omp_spans))
    out["omp.iterations"] = (statistics.fmean(s.attrs["iterations"] for s in omp_spans)
                             if omp_spans else 0.0)
    out["omp.ridge_fallback"] = (sum(s.attrs["ridge"] for s in omp_spans) / len(omp_spans)
                                 if omp_spans else 0.0)

    # training flops: taped forward plus a backward that forms both operand
    # gradients of every matmul, i.e. three times the forward
    taped = tr.select("unrolled.lista_forward", taped=True)
    train_s = (sum(s.duration for s in taped)
               + sum(dur("autodiff.Tape.backward", under="unrolled.train_stage2")))
    out["unrolled.train_gflops_computed"] = (
        3 * sum(s.attrs["flops"] for s in taped) / train_s / 1e9 if taped else 0.0)
    corr = tr.select("omp.VectorizedProblem.correlate")
    out["omp.correlate_gflops_computed"] = (
        sum(s.attrs["flops"] for s in corr) / sum(s.duration for s in corr) / 1e9
        if corr else 0.0)
    out["trace.spans"] = float(len(tr.spans))
    return out
