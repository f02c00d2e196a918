"""The benchmark's tracer still finds every layer it times.

`perfbench/layers.py` wraps `polarce` functions by dotted name and its hooks
read call arguments by name (`tape`, `training`, ...). A renamed function or
parameter breaks the traced benchmark run, not the package, so this runs a
micro sweep of all three schemes under the tracer and checks that the
layers the metrics single out recorded spans.
"""
import os
import sys
from pathlib import Path

import pytest

from polarce.harness import config_from_dict, run_snr_sweep

from test_cli import MICRO

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ALL_SCHEMES = dict(MICRO, sweep=dict(MICRO["sweep"],
                                     schemes=["omp", "dncnn-omp", "dncnn-istanet"]))


@pytest.fixture()
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers as module          # perfbench/layers.py, which imports tracer
    yield module
    for name in ("layers", "tracer"):
        sys.modules.pop(name, None)


def test_traced_sweep_reaches_every_timed_layer(layers, monkeypatch, tmp_path):
    # the tracer sees this process only: with one usable CPU the sweep runs on
    # two processes, and this one trains stage 1 and then runs the second point
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tracer = layers.make_tracer()
    tracer.install()                 # resolves every target name
    try:
        run_snr_sweep(config_from_dict(ALL_SCHEMES), tmp_path)
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer)
    assert metrics["autodiff.Tape.backward.calls"] > 0
    assert metrics["autodiff.Tape.backward.train_stage1.ms"] > 0
    assert metrics["autodiff.Tape.backward.train_stage2.ms"] > 0
    assert metrics["unrolled.lista_forward.taped.ms"] > 0
    assert metrics["unrolled.lista_forward.untaped.ms"] > 0
    assert metrics["denoiser.denoiser_forward.train.ms"] > 0
    assert metrics["omp.omp.calls"] > 0
    assert metrics["omp.VectorizedProblem.correlate.ms"] > 0
    assert metrics["omp.omp_dense.ms"] > 0
    # uninstall put every original back
    import polarce.unrolled
    assert not hasattr(polarce.unrolled.lista_forward, "__wrapped__")
