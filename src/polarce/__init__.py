"""Two-stage learned estimation of near-field cascaded RIS channels.

The pipeline splits the cascaded base-station / surface / user channel into a
base-station side resolved by a denoising network over a polar-domain row
transform (stage 1) and a surface-side sparse recovery by an unrolled
soft-thresholding network over a cascaded polar dictionary (stage 2). Greedy
pursuit baselines and a paired evaluation harness round out the package.

Importing the package runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS
is already set: the trained stage-2 bytes depend on the BLAS thread count.
This takes effect only if numpy is not loaded yet, so a caller that imported
numpy first must pin BLAS themselves (OPENBLAS_NUM_THREADS=1 before that
import).
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # before any submodule loads numpy

from .channel import (PathParams, SceneRealization, SystemConfig,
                      build_channels, draw_scene, make_phase_matrix,
                      noise_var_for_snr, ris_side_rows, simulate_pilots,
                      steering_vector)
from .harness import (ExperimentConfig, SweepConfig, default_config,
                      load_config, nmse, run_loss_curves, run_pilot_sweep,
                      run_snr_sweep)
from .polar import (CascadedDictionary, GridConfig, PolarDictionary, PolarGrid,
                    build_cascaded_dictionary, build_dictionary,
                    nearest_grid_index, sample_polar_grid)
from .schemes import (PipelineContext, estimate_dncnn_istanet,
                      estimate_dncnn_omp, estimate_omp)

__version__ = "0.1.0"

__all__ = [
    "PathParams", "SceneRealization", "SystemConfig",
    "build_channels", "draw_scene", "make_phase_matrix", "noise_var_for_snr",
    "ris_side_rows", "simulate_pilots", "steering_vector",
    "ExperimentConfig", "SweepConfig", "default_config", "load_config",
    "nmse", "run_loss_curves", "run_pilot_sweep", "run_snr_sweep",
    "CascadedDictionary", "GridConfig", "PolarDictionary", "PolarGrid",
    "build_cascaded_dictionary", "build_dictionary", "nearest_grid_index",
    "sample_polar_grid",
    "PipelineContext", "estimate_dncnn_istanet", "estimate_dncnn_omp",
    "estimate_omp",
    "__version__",
]
