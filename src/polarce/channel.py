"""Geometric near-field channel model for a BS / RIS / single-antenna user link.

Uplink pilot observations of the one user:

    Y = sqrt(p) * G @ E + noise,   G = H @ diag(h)

with H the BS<->RIS multipath channel, h the RIS<->user channel, and E the
unit-modulus RIS phase schedule (one column per pilot slot). A drawn scene
keeps h and the cascaded G, which is all the estimators and their scoring
read; H is formed only to build G. Array responses use the Fresnel
(second-order) expansion of the exact spherical wavefront; distance +inf
marks the far-field response where the quadratic term vanishes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import complex_normal

__all__ = [
    "C_LIGHT", "SystemConfig", "PathParams", "SceneRealization",
    "steering_vector", "build_channels", "draw_scene", "make_phase_matrix",
    "simulate_pilots", "MIN_SNR_DB", "SNR_RULE", "valid_snr_db", "noise_var_for_snr",
    "ris_side_rows", "PHASE_KINDS", "SNR_CONVENTIONS",
]

C_LIGHT = 299_792_458.0
PHASE_KINDS = ("random", "dft")             # make_phase_matrix schedules
SNR_CONVENTIONS = ("receive", "transmit")   # noise_var_for_snr references


@dataclass(frozen=True)
class SystemConfig:
    """Static geometry and scene priors."""

    n_bs: int = 32
    n_ris: int = 64
    tau: int = 30
    carrier_hz: float = 30e9
    spacing_m: float | None = None      # element pitch; None = half wavelength
    paths_bs: int = 3                   # BS<->RIS paths
    paths_ris: int = 3                  # RIS<->user paths
    power: float = 1.0
    angle_bound: float = math.pi / 3    # scene angles uniform in (-bound, bound)
    bs_dist: tuple[float, float] = (5.0, 30.0)
    ris_dist: tuple[float, float] = (1.0, 20.0)
    dist_floor: float = 0.5             # Fresnel-validity clamp, meters

    def __post_init__(self):
        if self.n_bs < 1 or self.n_ris < 1 or self.tau < 1:
            raise ValueError("array sizes and pilot length must be positive")
        if not self.power > 0:
            raise ValueError(f"power must be positive, got {self.power}")
        if not 0 < self.angle_bound < math.pi / 2:
            raise ValueError("angle bound must be in (0, pi/2)")
        if self.paths_bs < 1 or self.paths_ris < 1:
            raise ValueError("paths_bs and paths_ris must be at least 1")
        for name in ("bs_dist", "ris_dist"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} must be [low, high] with low <= high, got {lo}, {hi}")

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.carrier_hz

    @property
    def spacing(self) -> float:
        return self.wavelength / 2.0 if self.spacing_m is None else self.spacing_m

    def aperture(self, size: int) -> float:
        return size * self.spacing

    def rayleigh_distance(self, size: int) -> float:
        a = self.aperture(size)
        return 2.0 * a * a / self.wavelength


@dataclass(frozen=True)
class PathParams:
    """One propagation path: angle (rad), distance (m, +inf = far field), gain."""

    angle: float
    distance: float
    gain: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not abs(self.angle) < math.pi / 2:
            raise ValueError("path angle must lie in (-pi/2, pi/2)")
        if not (self.distance == math.inf or self.distance > 0):
            raise ValueError("path distance must be positive or +inf")


@dataclass
class SceneRealization:
    """One drawn propagation environment plus its assembled channels.

    Bridge path gains live on the BS-side entries; the RIS-side entries carry
    the departure geometry of the same paths (gain field unused). `users`, h
    and G keep a leading axis for the one user, so callers read G[0]. The
    bridge channel H is not stored: G = H diag(h) holds what is read of it.
    """

    bridge_bs: tuple[PathParams, ...]
    bridge_ris: tuple[PathParams, ...]
    users: tuple[tuple[PathParams, ...], ...]
    h: np.ndarray                      # [1, M]
    G: np.ndarray                      # [1, N, M]


def element_offsets(size: int) -> np.ndarray:
    """Symmetric element indices; center element at 0 for odd sizes."""
    lo = -int(math.ceil((size - 1) / 2))
    return np.arange(lo, lo + size)


def steering_vector(size: int, angle: float, distance: float,
                    wavelength: float, spacing: float) -> np.ndarray:
    """Unit-norm Fresnel array response; distance=inf gives the planar response."""
    if size < 1:
        raise ValueError("array size must be positive")
    if not abs(angle) < math.pi / 2:
        raise ValueError("angle must lie in (-pi/2, pi/2)")
    if not (distance == math.inf or distance > 0):
        raise ValueError("distance must be positive or +inf")
    m = element_offsets(size)
    u = math.sin(angle)
    path_delta = -m * spacing * u
    if np.isfinite(distance):
        path_delta = path_delta + (m * spacing) ** 2 * (1.0 - u * u) / (2.0 * distance)
    k = 2.0 * math.pi / wavelength
    return np.exp(-1j * k * path_delta) / math.sqrt(size)


def build_channels(config: SystemConfig,
                   bridge_bs: tuple[PathParams, ...],
                   bridge_ris: tuple[PathParams, ...],
                   users: tuple[tuple[PathParams, ...], ...]):
    """Assemble (H, h, G) from explicit path parameters."""
    if len(bridge_bs) != len(bridge_ris):
        raise ValueError("bridge path lists must align")
    lam, delta = config.wavelength, config.spacing
    H = np.zeros((config.n_bs, config.n_ris), dtype=np.complex128)
    for pb, pr in zip(bridge_bs, bridge_ris):
        a_bs = steering_vector(config.n_bs, pb.angle, pb.distance, lam, delta)
        a_ris = steering_vector(config.n_ris, pr.angle, pr.distance, lam, delta)
        H += pb.gain * np.outer(a_bs, a_ris.conj())
    h = np.zeros((len(users), config.n_ris), dtype=np.complex128)
    for k, paths in enumerate(users):
        for p in paths:
            h[k] += p.gain * steering_vector(config.n_ris, p.angle, p.distance, lam, delta)
    G = H[None, :, :] * h[:, None, :]      # H @ diag(h_k), batched over users
    return H, h, G


def draw_scene(config: SystemConfig, rng: np.random.Generator) -> SceneRealization:
    """Sample path parameters from the configured priors and assemble channels."""
    def gains(n):
        return complex_normal(rng, n)

    def dists(lohi, n):
        lo, hi = lohi
        return np.maximum(rng.uniform(lo, hi, n), config.dist_floor)

    b = config.angle_bound
    th = rng.uniform(-b, b, config.paths_bs)
    r = dists(config.bs_dist, config.paths_bs)
    rho = gains(config.paths_bs)
    phi = rng.uniform(-b, b, config.paths_bs)
    s = dists(config.bs_dist, config.paths_bs)
    bridge_bs = tuple(PathParams(a, d, g) for a, d, g in zip(th, r, rho))
    bridge_ris = tuple(PathParams(a, d) for a, d in zip(phi, s))
    va = rng.uniform(-b, b, config.paths_ris)
    vd = dists(config.ris_dist, config.paths_ris)
    vb = gains(config.paths_ris)
    users = (tuple(PathParams(a, d, g) for a, d, g in zip(va, vd, vb)),)
    _, h, G = build_channels(config, bridge_bs, bridge_ris, users)
    return SceneRealization(bridge_bs, bridge_ris, users, h, G)


def make_phase_matrix(n_ris: int, tau: int, rng: np.random.Generator | None = None,
                      kind: str = "random") -> np.ndarray:
    """Unit-modulus RIS schedule, one column per pilot slot."""
    if kind not in PHASE_KINDS:
        raise ValueError(f"unknown phase matrix kind {kind!r}, expected {PHASE_KINDS}")
    if kind == "random":
        if rng is None:
            raise ValueError("random phase matrix needs an rng")
        return np.exp(2j * np.pi * rng.uniform(size=(n_ris, tau)))
    m = np.arange(n_ris)[:, None]
    t = np.arange(tau)[None, :]
    return np.exp(-2j * np.pi * m * t / n_ris)


def simulate_pilots(scene: SceneRealization, config: SystemConfig, E: np.ndarray,
                    noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """The [N, tau] pilot block Y = sqrt(p) G E + noise, with i.i.d. circular
    complex Gaussian noise."""
    if E.shape != (config.n_ris, config.tau):
        raise ValueError("phase matrix shape mismatch")
    if not noise_var >= 0:
        raise ValueError(f"noise variance must be nonnegative, got {noise_var}")
    Y = math.sqrt(config.power) * (scene.G[0] @ E)
    if noise_var > 0:
        Y = Y + complex_normal(rng, Y.shape, noise_var)
    return Y


# lowest SNR a sweep runs at; see valid_snr_db
MIN_SNR_DB = -10.0 * math.log10(math.sqrt(float(np.finfo(np.float32).max)) / 2 ** 16)
SNR_RULE = f"+inf or dB of at least {MIN_SNR_DB:.2f} whose linear value 10**(dB/10) is finite"


def valid_snr_db(snr_db: float) -> bool:
    """Whether a sweep can run at snr_db: +inf (no noise), or dB from
    MIN_SNR_DB (-144.49) up whose linear value 10**(snr_db/10) does not
    overflow, so not NaN or -inf.

    The floor keeps single-precision stage-2 training finite. Far below 0 dB
    the projected paths are noise r = 10**(-snr_db/10) times the signal's
    power, and the thresholds are calibrated on them, so the net's output
    grows as sqrt(r) and the loss (normalized by ||x_l||^2) and its largest
    gradients as g r, with a gain g of the profile and the step. Adam squares
    each gradient in float32, which overflows once (g r)^2 exceeds the float32
    maximum, so r must stay below sqrt(float32 max) / g. Training runs
    measured g up to 2.2e3 on the desk and paper profiles (the step-size
    gradient, at step 1 of a paper run), and g = 2**16 leaves 30x of headroom:
    MIN_SNR_DB = -10 log10(sqrt(float32 max) / 2**16). Without the gain, at
    -192.66 dB, a desk training overflowed within twelve steps.
    """
    try:
        return snr_db == math.inf or (snr_db >= MIN_SNR_DB
                                      and 10.0 ** (snr_db / 10.0) < math.inf)
    except OverflowError:
        return False


def noise_var_for_snr(scene: SceneRealization, config: SystemConfig, E: np.ndarray,
                      snr_db: float, convention: str = "receive") -> float:
    """Noise variance hitting the target SNR for this scene.

    receive: snr = p ||G E||_F^2 / (N tau sigma^2); transmit: snr = p / sigma^2.
    """
    if convention not in SNR_CONVENTIONS:
        raise ValueError(f"unknown SNR convention {convention!r}, expected {SNR_CONVENTIONS}")
    snr = 10.0 ** (snr_db / 10.0)
    if convention == "transmit":
        return config.power / snr
    sig = config.power * np.linalg.norm(scene.G[0] @ E) ** 2
    return float(sig / (config.n_bs * config.tau * snr))


def ris_side_rows(scene: SceneRealization, config: SystemConfig) -> np.ndarray:
    """Conjugated rows of the RIS-side composite channel, one column per bridge path.

    Column l is diag(h^*) a(phi_l, s_l) rho_l^*, i.e. the vector the stage-2
    solver recovers from the l-th projected observation.
    """
    lam, delta = config.wavelength, config.spacing
    cols = np.zeros((config.n_ris, len(scene.bridge_ris)), dtype=np.complex128)
    for l, (pb, pr) in enumerate(zip(scene.bridge_bs, scene.bridge_ris)):
        a = steering_vector(config.n_ris, pr.angle, pr.distance, lam, delta)
        cols[:, l] = np.conj(scene.h[0]) * a * np.conj(pb.gain)
    return cols
