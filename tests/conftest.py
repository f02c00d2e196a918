import ctypes
import os

# one BLAS thread, as the package runs, set before numpy loads: threaded, some
# OpenBLAS kernels split a wide product across threads and round otherwise
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from polarce.channel import SystemConfig, make_phase_matrix
from polarce.harness import _openblas
from polarce.polar import GridConfig, build_cascaded_dictionary, build_dictionary
from polarce.rng import substream

# pytest loads numpy before this file when it resolves the numpy warning
# classes of its filterwarnings, which is too late for the variable, so the
# loaded library is set to the same count as well
_set_threads = _openblas("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")
if _set_threads is not None:
    _set_threads.argtypes, _set_threads.restype = [ctypes.c_int], None
    _set_threads(int(os.environ["OPENBLAS_NUM_THREADS"]))


@pytest.fixture(scope="session")
def small_system() -> SystemConfig:
    return SystemConfig(n_bs=8, n_ris=16, tau=12, paths_bs=2, paths_ris=2,
                        bs_dist=(5.0, 30.0), ris_dist=(1.0, 20.0))


@pytest.fixture(scope="session")
def small_bs_dict(small_system):
    cfg = GridConfig(angle_count=2 * small_system.n_bs, ring_limit=0,
                     distance_min=small_system.bs_dist[0])
    return build_dictionary(small_system.n_bs, small_system.wavelength,
                            small_system.spacing, cfg)


@pytest.fixture(scope="session")
def small_ris_dict(small_system):
    cfg = GridConfig(angle_count=small_system.n_ris,
                     distance_min=small_system.ris_dist[0])
    return build_dictionary(small_system.n_ris, small_system.wavelength,
                            small_system.spacing, cfg)


@pytest.fixture(scope="session")
def small_cas_dict(small_ris_dict):
    return build_cascaded_dictionary(small_ris_dict)


@pytest.fixture(scope="session")
def small_E(small_system):
    rng = substream(7, "phase")
    return make_phase_matrix(small_system.n_ris, small_system.tau, rng)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
