"""Physics-based fog / snow / rain corruption of LiDAR scans.

``corrupt(cloud, kind, params)`` is the one entry point. ``_KINDS`` has one
row per kind: its parameter class, the model that runs it and its presets.
A model computes only the physics: given (cloud, params, rng) it returns,
per input point, its new (x, y, z, i), whether it is kept, whether it is
noise and its particle range (NaN for none). ``corrupt`` draws the scan's
stream and builds the output cloud and its annotation from those.

Fog: each return is split into a hard-target response i * exp(-2*alpha*R0)
and a soft (backscatter) response i * R0^2 * beta * FOG_IT_MAX; whichever is
stronger wins. Soft winners are relocated toward the sensor by a seeded
scatter range and labeled noise.

Snow and rain share one particle-interaction model: per beam, a seeded draw
decides whether the beam hits an airborne particle (probability grows with
the precipitation rate), in which case the return intensity follows the
focal-curve model and the coordinates are rescaled; a second draw models
full occlusion (beam dropped).

All corruption is deterministic given (params.seed, frame_id): ``corrupt``
derives the RNG stream per scan, so scans can be processed in any order or
in parallel without changing results.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .pointcloud import (NATURAL, NON_NEGATIVE, PointCloud, ScanParseError, ascii_int,
                         check_fields, read_text_lines)

DETECT_FLOOR = 0.005   # attenuated returns below this intensity are lost
SCATTER_MIN = 1.5      # meters; nearest plausible particle return
FOG_IT_MAX = 0.8       # peak soft-target (backscatter) response


@dataclass(frozen=True)
class FogParams:
    alpha: float          # attenuation coefficient (1/m)
    beta: float           # noise factor / differential reflectivity ratio
    seed: int = 0

    def __post_init__(self):
        # finite: a zero-range point's i_hard is i0 only while alpha * 0 is 0
        check_fields(vars(self), {"alpha": NON_NEGATIVE, "beta": NON_NEGATIVE, "seed": NATURAL})


@dataclass(frozen=True)
class ParticleParams:
    """Snow or rain: one particle-interaction model. A kind's subclass
    (SnowParams, RainParams) carries its constants as class attributes."""

    rate: float            # precipitation rate (mm/h)
    seed: int = 0

    def __post_init__(self):
        check_fields(vars(self), {"rate": NON_NEGATIVE, "seed": NATURAL})


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
    particle_range: np.ndarray    # (n_out,) float, NaN where no particle

    @property
    def noise_count(self) -> int:
        return int(self.noise_mask.sum())


def scan_rng(seed: int, frame_id: str) -> np.random.Generator:
    """Per-scan RNG stream: seed split by a CRC of the frame id."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(frame_id.encode())]))


def _fog_model(cloud: PointCloud, p: FogParams, rng):
    r0 = cloud.ranges
    i0 = cloud.intensity

    i_hard = i0 * np.exp(-2.0 * p.alpha * r0)
    i_soft = i0 * r0 ** 2 * p.beta * FOG_IT_MAX
    soft = i_soft > i_hard
    soft &= r0 > 0  # zero-range points pass through: their i_hard is i0

    # scatter ranges are drawn for every point so branch membership never
    # perturbs the stream; only soft winners consume theirs
    low = np.minimum(SCATTER_MIN, 0.5 * r0)
    r_scatter = low + rng.random(len(cloud)) * np.maximum(r0 - low, 0.0)

    pts = cloud.points.copy()
    pts[:, :3] *= np.where(soft, r_scatter / np.maximum(r0, 1e-12), 1.0)[:, None]
    pts[:, 3] = np.where(soft, np.clip(i_soft, 0.0, 1.0), i_hard)

    # detectability floor: only genuinely attenuated returns can be lost
    lost = (pts[:, 3] < DETECT_FLOOR) & (pts[:, 3] < i0)
    return pts, ~lost, soft, np.full(len(cloud), np.nan)


def _particle_model(cloud: PointCloud, p: ParticleParams, rng):
    """Snow and rain; see module docstring."""
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

    pts = cloud.points.copy()
    pts[:, :3] *= np.where(hit, p.rate / p.gamma, 1.0)[:, None]
    pts[:, 3] = np.where(hit, snow_intensity(r_star, p), pts[:, 3])
    return pts, ~occluded, hit, np.where(hit, r_star, np.nan)


def snow_intensity(r_star, p: ParticleParams):
    """Focal-curve particle return response of ``p``'s kind, clipped to [0, 1]."""
    raw = p.t_r + p.i_max * p.f_s * np.abs(p.f_o - (1.0 - r_star / p.r_max)) ** 2
    return np.clip(raw, 0.0, 1.0)


# kind -> (parameter class, model, {level: preset}) in the report's order; the
# presets, mild to severe, are snow's and rain's rate (mm/h) and fog's alpha, beta
_KINDS = {
    "snow": (SnowParams, _particle_model, {1: (0.5,), 2: (1.5,), 3: (2.5,)}),
    "fog": (FogParams, _fog_model, {1: (0.003, 0.008), 2: (0.006, 0.02), 3: (0.01, 0.05)}),
    "rain": (RainParams, _particle_model, {1: (10.0,), 2: (25.0,), 3: (50.0,)}),
}

CORRUPTION_KINDS = tuple(_KINDS)
SEVERITY_LEVELS = (1, 2, 3)


def _kind(kind: str):
    if kind not in _KINDS:
        raise ValueError(f"unknown corruption kind: {kind}")
    return _KINDS[kind]


def severity_preset(kind: str, level: int, seed: int = 0):
    """Documented preset table mapping (kind, level) to typed parameters."""
    cls, _, levels = _kind(kind)
    if level not in SEVERITY_LEVELS:
        raise ValueError(f"unknown {kind} severity level: {level}")
    return cls(*levels[level], seed=seed)


def corrupt(cloud: PointCloud, kind: str, params):
    """(corrupted cloud, CorruptionAnnotation); ``params`` is of the kind's class."""
    cls, model, _ = _kind(kind)
    if not isinstance(params, cls):
        raise ValueError(f"{kind} takes {cls.__name__}, not {type(params).__name__}")
    pts, keep, noise, particle = model(cloud, params, scan_rng(params.seed, cloud.frame_id))
    ann = CorruptionAnnotation(noise_mask=noise[keep], source_index=np.flatnonzero(keep),
                               dropped=np.flatnonzero(~keep), particle_range=particle[keep])
    return PointCloud(pts[keep], frame_id=cloud.frame_id), ann


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
            where = f"{path}:{n + 1}"
            head, _, rest = line.partition(" ")
            if head != tag:
                raise ScanParseError(f"{where}: expected a '{tag}' line, got {line!r}")
            try:
                block.append(rest if tag == "scan" else np.array(
                    [ascii_int(t, where) for t in rest.split()], dtype=int))
            except OverflowError as exc:
                raise ScanParseError(f"{where}: index past int64 in {line!r}") from exc
        out[block[0]] = (block[1], block[2])
    return out
