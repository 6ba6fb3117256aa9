"""Physics-based fog / snow / rain corruption of LiDAR scans.

Fog: each return is split into a hard-target response i * exp(-2*alpha*R0)
and a soft (backscatter) response i * R0^2 * beta * FOG_IT_MAX; whichever is
stronger wins. Soft winners are relocated toward the sensor by a seeded
scatter range and labeled noise.

Snow and rain share one particle-interaction model: per beam, a seeded draw
decides whether the beam hits an airborne particle (probability grows with
the precipitation rate), in which case the return intensity follows the
focal-curve model and the coordinates are rescaled; a second draw models
full occlusion (beam dropped).

All corruption is deterministic given (params.seed, frame_id): the RNG
stream is derived per scan, so scans can be processed in any order or in
parallel without changing results.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .pointcloud import PointCloud, ScanParseError, read_text_lines

DETECT_FLOOR = 0.005   # attenuated returns below this intensity are lost
SCATTER_MIN = 1.5      # meters; nearest plausible particle return
FOG_IT_MAX = 0.8       # peak soft-target (backscatter) response


@dataclass(frozen=True)
class FogParams:
    alpha: float          # attenuation coefficient (1/m)
    beta: float           # noise factor / differential reflectivity ratio
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")


@dataclass(frozen=True)
class ParticleParams:
    """Snow or rain: one particle-interaction model. A kind's subclass
    (SnowParams, RainParams) carries its constants as class attributes."""

    rate: float            # precipitation rate (mm/h)
    seed: int = 0

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be non-negative")


class SnowParams(ParticleParams):
    """Snowfall rate r_s (mm/h)."""

    gamma = 5.0            # particle differential reflectivity coefficient
    f_s = 0.5              # focal slope
    f_o = 0.1              # focal offset
    i_max = 1.0
    r_max = 80.0           # farthest detectable range (m)
    t_r = 0.05             # response floor at the focal point
    hit_coeff = 0.12       # particle-hit probability per mm/h
    occlusion_coeff = 0.04  # full-occlusion probability per mm/h


class RainParams(ParticleParams):
    """Rain rate r_r (mm/h)."""

    gamma = 100.0
    f_s = 0.25
    f_o = 0.1
    i_max = 1.0
    r_max = 80.0
    t_r = 0.03
    hit_coeff = 0.006
    occlusion_coeff = 0.001


@dataclass(frozen=True)
class CorruptionAnnotation:
    """Per-output-point labels plus the input indices that were dropped.

    noise_mask[k] is True when output point k is a weather artifact;
    source_index[k] is the input point it originated from. particle_range
    records the sampled particle range for particle-model noise (NaN for
    fog noise and clean points).
    """

    noise_mask: np.ndarray        # (n_out,) bool
    source_index: np.ndarray      # (n_out,) int
    dropped: np.ndarray           # input indices lost to the weather
    particle_range: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.particle_range is None:
            object.__setattr__(self, "particle_range",
                               np.full(len(self.noise_mask), np.nan))

    @property
    def noise_count(self) -> int:
        return int(self.noise_mask.sum())


def scan_rng(seed: int, frame_id: str) -> np.random.Generator:
    """Per-scan RNG stream: seed split by a CRC of the frame id."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(frame_id.encode())]))


def corrupt_fog(cloud: PointCloud, p: FogParams):
    rng = scan_rng(p.seed, cloud.frame_id)
    n = len(cloud)
    r0 = cloud.ranges
    i0 = cloud.intensity

    i_hard = i0 * np.exp(-2.0 * p.alpha * r0)
    i_soft = i0 * r0 ** 2 * p.beta * FOG_IT_MAX
    soft = i_soft > i_hard
    soft &= r0 > 0  # zero-range points pass through unchanged

    # scatter ranges are drawn for every point so branch membership never
    # perturbs the stream; only soft winners consume theirs
    low = np.minimum(SCATTER_MIN, 0.5 * r0)
    r_scatter = low + rng.random(n) * np.maximum(r0 - low, 0.0)

    pts = cloud.points.copy()
    scale = np.where(soft & (r0 > 0), r_scatter / np.maximum(r0, 1e-12), 1.0)
    pts[:, :3] *= scale[:, None]
    new_i = np.where(soft, np.clip(i_soft, 0.0, 1.0), i_hard)
    nonzero = r0 > 0
    pts[:, 3] = np.where(nonzero, new_i, i0)

    # detectability floor: only genuinely attenuated returns can be lost
    lost = nonzero & (pts[:, 3] < DETECT_FLOOR) & (pts[:, 3] < i0)
    keep = ~lost
    ann = CorruptionAnnotation(
        noise_mask=(soft & keep)[keep],
        source_index=np.flatnonzero(keep),
        dropped=np.flatnonzero(lost),
    )
    return PointCloud(pts[keep], frame_id=cloud.frame_id), ann


def corrupt_particles(cloud: PointCloud, p: ParticleParams):
    """Snow and rain; see module docstring."""
    rng = scan_rng(p.seed, cloud.frame_id)
    n = len(cloud)
    r0 = cloud.ranges

    # fixed-size draws keep monotonicity across rates on the same seed
    u_hit = rng.random(n)
    u_occ = rng.random(n)
    u_range = rng.random(n)

    p_hit = min(1.0, p.hit_coeff * p.rate)
    p_occ = min(1.0, p.occlusion_coeff * p.rate)
    eligible = r0 > SCATTER_MIN
    hit = (u_hit < p_hit) & eligible
    occluded = (~hit) & (u_occ < p_occ) & eligible

    r_star = SCATTER_MIN + u_range * (np.minimum(r0, p.r_max) - SCATTER_MIN)
    i_snow = snow_intensity(r_star, f_s=p.f_s, f_o=p.f_o, i_max=p.i_max,
                            r_max=p.r_max, t_r=p.t_r)

    pts = cloud.points.copy()
    scale = np.where(hit, p.rate / p.gamma, 1.0)
    pts[:, :3] *= scale[:, None]
    pts[:, 3] = np.where(hit, i_snow, pts[:, 3])

    keep = ~occluded
    particle = np.full(n, np.nan)
    particle[hit] = r_star[hit]
    ann = CorruptionAnnotation(
        noise_mask=hit[keep],
        source_index=np.flatnonzero(keep),
        dropped=np.flatnonzero(occluded),
        particle_range=particle[keep],
    )
    return PointCloud(pts[keep], frame_id=cloud.frame_id), ann


corrupt_snow = corrupt_rain = corrupt_particles


def snow_intensity(r_star, *, f_s, f_o, i_max, r_max, t_r):
    """Focal-curve particle return response, clipped to [0, 1]."""
    raw = t_r + i_max * f_s * np.abs(f_o - (1.0 - r_star / r_max)) ** 2
    return np.clip(raw, 0.0, 1.0)


# severity presets; the three levels per corruption are ordered mild to severe
_LEVELS = {
    "fog": {1: (0.003, 0.008), 2: (0.006, 0.02), 3: (0.01, 0.05)},   # alpha, beta
    "snow": {1: 0.5, 2: 1.5, 3: 2.5},                                # r_s mm/h
    "rain": {1: 10.0, 2: 25.0, 3: 50.0},                             # r_r mm/h
}

CORRUPTION_KINDS = ("snow", "fog", "rain")
SEVERITY_LEVELS = (1, 2, 3)


def severity_preset(kind: str, level: int, seed: int = 0):
    """Documented preset table mapping (kind, level) to typed parameters."""
    if kind not in _LEVELS:
        raise ValueError(f"unknown corruption kind: {kind}")
    if level not in _LEVELS[kind]:
        raise ValueError(f"unknown {kind} severity level: {level}")
    if kind == "fog":
        alpha, beta = _LEVELS[kind][level]
        return FogParams(alpha=alpha, beta=beta, seed=seed)
    return (SnowParams if kind == "snow" else RainParams)(_LEVELS[kind][level], seed=seed)


def corrupt(cloud: PointCloud, kind: str, params):
    if kind == "fog":
        return corrupt_fog(cloud, params)
    if kind in ("snow", "rain"):
        return corrupt_particles(cloud, params)
    raise ValueError(f"unknown corruption kind: {kind}")


def write_annotations(records, path) -> None:
    """Line-oriented sidecar: per scan, the noise and dropped indices.

    Format, one scan per block:
        scan <frame_id>
        noise <space-separated output indices>
        dropped <space-separated input indices>
    """
    with open(path, "w") as fh:
        for frame_id, ann in records:
            fh.write(f"scan {frame_id}\n")
            fh.write("noise " + " ".join(map(str, np.flatnonzero(ann.noise_mask))) + "\n")
            fh.write("dropped " + " ".join(map(str, ann.dropped)) + "\n")


def read_annotations(path):
    """Parse a sidecar file back into {frame_id: (noise indices, dropped indices)};
    a malformed file raises pointcloud.ScanParseError naming path and line."""
    lines = read_text_lines(path)
    out = {}
    for k in range(0, len(lines), 3):
        block = []
        for n, tag in enumerate(("scan", "noise", "dropped"), k):
            line = lines[n] if n < len(lines) else "<end of file>"
            head, _, rest = line.partition(" ")
            if head != tag:
                raise ScanParseError(f"{path}:{n + 1}: expected a '{tag}' line, got {line!r}")
            try:
                block.append(rest if tag == "scan" else np.array(
                    [int(t) for t in rest.split()], dtype=int))
            except (ValueError, OverflowError) as exc:
                raise ScanParseError(f"{path}:{n + 1}: bad index in {line!r}") from exc
        out[block[0]] = (block[1], block[2])
    return out
