"""Polar-domain dictionaries: angle x curvature grids and their cascaded products.

The single-hop grid samples angles uniformly in the sin domain and distances on
curvature rings r_s = Z * (1 - sin^2) / s, s = 0 (far field), 1, 2, ... with
Z = aperture^2 / (2 lambda beta^2). On that law the ring curvature
(1 - sin^2)/(2 r) equals s/(2 Z) exactly, independent of angle, so every grid
column is indexed by the pair (sin, curvature) on a separable lattice.

A cascaded column is the elementwise product of a departure column and a
conjugated arrival column; its phase profile depends only on the parameter
differences (d_sin, d_curv), i.e. on the pair's angle-index difference and
ring difference. The cascaded dictionary enumerates those difference classes
directly, one column per class, and never forms the G x G table of pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import element_offsets

__all__ = [
    "GridConfig", "PolarGrid", "PolarDictionary", "CascadedDictionary",
    "sample_polar_grid", "build_dictionary", "build_cascaded_dictionary",
    "nearest_grid_index",
]

SIN60 = math.sqrt(3.0) / 2.0
_KEY_TOL = 1e-6                       # rounding step of the (d_sin, d_curv) class keys


@dataclass(frozen=True)
class GridConfig:
    """Sampling knobs for one array side."""

    angle_count: int
    sin_lo: float = -SIN60
    sin_hi: float = SIN60
    beta: float = 1.2                 # ring coherence budget
    distance_min: float = 0.5         # Fresnel clamp; no rings sampled below
    ring_limit: int | None = None     # cap on the ring index, None = until clamp
    include_far: bool = True

    def __post_init__(self):
        if self.angle_count < 1:
            raise ValueError("need at least one angle")
        if not (-1.0 <= self.sin_lo < self.sin_hi <= 1.0):
            raise ValueError("sin range must be ordered inside [-1, 1]")
        if self.beta <= 0 or self.distance_min <= 0:
            raise ValueError("beta and distance_min must be positive")


@dataclass
class PolarGrid:
    """Flattened (angle, ring) sample set, angle-major with the far ring first."""

    sin_angles: np.ndarray            # [G]
    distances: np.ndarray             # [G], +inf on the far ring
    rings: np.ndarray                 # [G] int ring index, 0 = far
    z_delta: float
    config: GridConfig

    def __len__(self):
        return self.sin_angles.size


@dataclass
class PolarDictionary:
    """Unit-norm steering columns over a polar grid."""

    F: np.ndarray                     # [size, G], read-only
    grid: PolarGrid
    size: int
    wavelength: float
    spacing: float


@dataclass
class CascadedDictionary:
    """Deduplicated elementwise products of departure x conjugate(arrival) columns.

    Column j is the unit-norm phase profile of the class (delta_sin[j],
    delta_curv[j]). Every steering entry has modulus 1/sqrt(size), so one
    scalar restores every raw product: F_dep[:, l] * conj(F_arr[:, p]) ==
    col_scale * F[:, j], where j is the class of the pair's sin and ring
    differences.
    """

    F: np.ndarray                     # [size, Gc], read-only: networks share it
    col_scale: float                  # 1/sqrt(size)
    delta_sin: np.ndarray             # [Gc] canonical tuple, wrapped
    delta_curv: np.ndarray            # [Gc]
    source: PolarDictionary


def sample_polar_grid(size: int, wavelength: float, spacing: float,
                      config: GridConfig) -> PolarGrid:
    """Lay out the (angle, ring) samples for one array side."""
    aperture = size * spacing
    z_delta = aperture * aperture / (2.0 * wavelength * config.beta ** 2)
    g = np.arange(config.angle_count)
    sins = config.sin_lo + (g + 0.5) * (config.sin_hi - config.sin_lo) / config.angle_count
    sin_list, dist_list, ring_list = [], [], []
    for u in sins:
        s = 0 if config.include_far else 1
        while config.ring_limit is None or s <= config.ring_limit:
            r = math.inf if s == 0 else z_delta * (1.0 - u * u) / s
            if r < config.distance_min:
                break
            sin_list.append(u)
            dist_list.append(r)
            ring_list.append(s)
            s += 1
    if not sin_list:
        raise ValueError("grid is empty; relax ring_limit/include_far")
    return PolarGrid(np.array(sin_list), np.array(dist_list),
                     np.array(ring_list, dtype=np.int64), z_delta, config)


def build_dictionary(size: int, wavelength: float, spacing: float,
                     config: GridConfig) -> PolarDictionary:
    """Steering columns of the whole grid in one broadcast.

    Column j equals steering_vector(size, asin(sin_j), distance_j, ...) bit
    for bit: the same sine round trip, the same operation order, and the
    curvature term added on the near-field columns only.
    """
    grid = sample_polar_grid(size, wavelength, spacing, config)
    u = np.array([math.sin(math.asin(s)) for s in grid.sin_angles])
    m = element_offsets(size)[:, None]
    path_delta = -m * spacing * u
    near = np.isfinite(grid.distances)
    path_delta[:, near] += ((m * spacing) ** 2 * (1.0 - u[near] * u[near])
                            / (2.0 * grid.distances[near]))
    k = 2.0 * math.pi / wavelength
    F = np.exp(-1j * k * path_delta) / math.sqrt(size)
    F.flags.writeable = False
    return PolarDictionary(F=F, grid=grid, size=size,
                           wavelength=wavelength, spacing=spacing)


def _wrap_delta_sin(ds: np.ndarray, single: PolarDictionary) -> np.ndarray:
    """Reduce sin differences modulo the element phase period lambda/spacing."""
    period = single.wavelength / single.spacing
    return (ds + period / 2.0) % period - period / 2.0


def build_cascaded_dictionary(single: PolarDictionary) -> CascadedDictionary:
    """One unit column per (d_sin, d_curv) class of the departure/arrival grid pairs.

    Angle g holds rings low..top(g). Over the angle pairs at difference dg the
    ring differences fill [low - max top(arrival), max top(departure) - low].
    Rounded keys merge classes whose sin offsets alias; columns are in key order.
    """
    grid, cfg = single.grid, single.grid.config
    count, low = cfg.angle_count, 0 if cfg.include_far else 1
    step = (cfg.sin_hi - cfg.sin_lo) / count
    top = np.full(3 * count, -1)                # top ring of angle g at count + g, -1 if none
    angle = np.rint((grid.sin_angles - cfg.sin_lo) / step - 0.5).astype(int)
    np.maximum.at(top, count + angle, grid.rings)
    dep, classes = top[count:2 * count], []
    for dg in range(1 - count, count):
        arr = top[count - dg:2 * count - dg]    # arr[g] = top of angle g - dg
        both = (dep >= low) & (arr >= low)
        if both.any():
            classes += [(dg, dr) for dr in range(low - arr[both].max(), dep[both].max() - low + 1)]
    d_angle, d_ring = np.array(classes).T
    d_sin = _wrap_delta_sin(d_angle * step, single)
    d_curv = d_ring / (2.0 * grid.z_delta)
    keys = np.stack([np.round(d_sin / _KEY_TOL), np.round(d_curv / _KEY_TOL)], axis=1)
    first = np.unique(keys, axis=0, return_index=True)[1]
    d_sin, d_curv = d_sin[first], d_curv[first]
    x = element_offsets(single.size) * single.spacing
    F = (np.outer(x * x, d_curv) - np.outer(x, d_sin)) * (-2j * math.pi / single.wavelength)
    scale = 1.0 / math.sqrt(single.size)
    F = np.multiply(np.exp(F, out=F), scale, out=F)
    F.flags.writeable = False
    return CascadedDictionary(F=F, col_scale=scale, delta_sin=d_sin,
                              delta_curv=d_curv, source=single)


def nearest_grid_index(grid: PolarGrid, angle: float, distance: float) -> int:
    """Nearest grid entry in the (sin, 1/distance) Euclidean metric."""
    u = math.sin(angle)
    inv_d = 0.0 if distance == math.inf else 1.0 / distance
    with np.errstate(divide="ignore"):
        grid_inv = np.where(np.isinf(grid.distances), 0.0, 1.0 / grid.distances)
    d2 = (grid.sin_angles - u) ** 2 + (grid_inv - inv_d) ** 2
    return int(np.argmin(d2))

