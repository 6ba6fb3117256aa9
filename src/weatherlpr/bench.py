"""Benchmark orchestration: synthetic worlds, manifests, corruption runs,
optional restoration preprocessing, retrieval, and report assembly.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import lpr, metrics, weathersim
from .pointcloud import (PointCloud, ProjectionSpec, ScanParseError, back_project,
                         project, read_text_lines)
from .restorenet import ResLPRNet, load_checkpoint

QUERY_ID_BASE = 100000


class ConfigError(ValueError):
    """Invalid benchmark configuration or manifest."""


@dataclass(frozen=True)
class ScanEntry:
    scan_id: int
    cloud: PointCloud
    pose: tuple  # (x, y)


@dataclass(frozen=True)
class SyntheticWorld:
    database: tuple   # ScanEntry, ...
    queries: tuple    # ScanEntry, ...; revisits carry poses near database poses


@dataclass(frozen=True)
class Manifest:
    """Dataset roles: database scans, query scans, pose files, train pairs."""

    database_scans: tuple     # file paths
    query_scans: tuple
    database_poses: str       # pose file: "<scan_id> <x> <y>" per line
    query_poses: str
    train_pairs: tuple = ()   # ((corrupt_path, clean_path), ...)

    def validate(self) -> None:
        if set(self.database_scans) & set(self.query_scans):
            raise ConfigError("query and database sequences must be disjoint")
        for path in (*self.database_scans, *self.query_scans,
                     self.database_poses, self.query_poses):
            if not os.path.exists(path):
                raise ConfigError(f"manifest references missing file: {path}")


def load_manifest(path) -> Manifest:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    base = os.path.dirname(os.path.abspath(path))

    def _abs(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    try:
        m = Manifest(
            database_scans=tuple(_abs(p) for p in raw["database"]["scans"]),
            query_scans=tuple(_abs(p) for p in raw["queries"]["scans"]),
            database_poses=_abs(raw["database"]["poses"]),
            query_poses=_abs(raw["queries"]["poses"]),
            train_pairs=tuple((_abs(a), _abs(b)) for a, b in raw.get("train_pairs", ())),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed manifest {path}: {exc!r}") from exc
    m.validate()
    return m


def read_pose_file(path) -> dict:
    """{scan_id: (x, y)} from "<scan_id> <x> <y>" lines; a line with other
    than three fields, a malformed or non-finite field, or a repeated scan id
    raises pointcloud.ScanParseError naming path and line."""
    poses = {}
    for lineno, line in enumerate(read_text_lines(path), 1):
        parts = line.split()
        if not parts:
            continue
        try:
            if len(parts) != 3:
                raise ValueError(f"{len(parts)} fields, not 3")
            sid, pose = int(parts[0]), (float(parts[1]), float(parts[2]))
            if not np.isfinite(pose).all():
                raise ValueError("non-finite coordinate")
        except ValueError as exc:
            raise ScanParseError(f"{path}:{lineno}: bad pose line {line.strip()!r}") from exc
        if sid in poses:
            raise ScanParseError(f"{path}:{lineno}: repeated scan id {sid}")
        poses[sid] = pose
    return poses


def write_pose_file(entries, path) -> None:
    with open(path, "w") as fh:
        for e in entries:
            fh.write(f"{e.scan_id} {e.pose[0]:.6f} {e.pose[1]:.6f}\n")


# RunConfig's numeric fields: (name, accepted types, test, what the test asks)
_NUMBER_FIELDS = (
    ("top_n", int, lambda v: v >= 1, "an integer >= 1"),
    ("rings", int, lambda v: v >= 1, "an integer >= 1"),
    ("sectors", int, lambda v: v >= 1, "an integer >= 1"),
    ("exclude_recent", int, lambda v: v >= 0, "an integer >= 0"),
    ("seed", int, lambda v: True, "an integer"),
    ("pos_radius", (int, float), lambda v: 0 < v < math.inf, "a finite number > 0"),
    ("max_radius", (int, float), lambda v: 0 < v < math.inf, "a finite number > 0"),
)


@dataclass(frozen=True)
class RunConfig:
    kinds: tuple = weathersim.CORRUPTION_KINDS
    levels: tuple = weathersim.SEVERITY_LEVELS
    preprocessing: str = "none"           # none | restorenet
    checkpoint: str | None = None
    protocol: str = "kitti"               # kitti | nclt
    pos_radius: float = metrics.DEFAULT_POS_RADIUS
    top_n: int = 20
    seed: int = 0
    rings: int = lpr.DEFAULT_RINGS
    sectors: int = lpr.DEFAULT_SECTORS
    max_radius: float = lpr.DEFAULT_MAX_RADIUS
    exclude_recent: int = 0
    projection: ProjectionSpec = field(default_factory=ProjectionSpec)
    out_dir: str | None = None

    def __post_init__(self):
        if self.preprocessing not in ("none", "restorenet"):
            raise ConfigError(f"unknown preprocessing: {self.preprocessing}")
        if self.checkpoint is not None and not (
                isinstance(self.checkpoint, str) and self.preprocessing == "restorenet"):
            raise ConfigError(f"checkpoint must be a path used with preprocessing "
                              f"'restorenet', got {self.checkpoint!r} with "
                              f"{self.preprocessing!r}")
        if self.protocol not in ("kitti", "nclt"):
            raise ConfigError(f"unknown protocol: {self.protocol}")
        for field_name, name, values, known, element in (
                ("kinds", "corruption kinds", self.kinds, weathersim.CORRUPTION_KINDS, str),
                ("levels", "severity levels", self.levels, weathersim.SEVERITY_LEVELS, int)):
            # checked first: `in` below would take a string as its letters and True as 1
            if not isinstance(values, (list, tuple)) or any(
                    isinstance(v, bool) or not isinstance(v, element) for v in values):
                raise ConfigError(f"{field_name} must be a list of {element.__name__} "
                                  f"values, got {values!r}")
            bad = [v for v in values if v not in known]
            if bad:
                raise ConfigError(f"unknown {name}: {bad}")
            if len(set(values)) != len(values):
                raise ConfigError(f"repeated {name}: {list(values)}")
        for name, types, ok, rule in _NUMBER_FIELDS:
            value = getattr(self, name)
            # a bool is an int: True would run as 1
            if isinstance(value, bool) or not isinstance(value, types) or not ok(value):
                raise ConfigError(f"{name} must be {rule}, got {value!r}")


# ---------------------------------------------------------------------------
# synthetic world generation


def _uniform(u, lo, hi):
    """``Generator.uniform(lo, hi)`` from its one ``random()`` draw ``u``."""
    return lo + (hi - lo) * u


def _sample_place_scan(layout_rng, sample_rng, n_points, yaw=0.0, offset=(0.0, 0.0)):
    """Structured scene (ground, boxes, poles) sampled in the sensor frame.
    The draws and their order are part of the determinism contract: a normal
    can take more than one word, so box and pole points draw one at a time."""
    n_boxes = int(layout_rng.integers(6, 14))
    u = layout_rng.random((n_boxes, 5))   # range, bearing, half-extent, height, intensity
    r, th = _uniform(u[:, 0], 5.0, 45.0), _uniform(u[:, 1], 0.0, 2 * np.pi)
    box_x, box_y, box_half = r * np.cos(th), r * np.sin(th), _uniform(u[:, 2], 1.0, 4.0)
    box_h, box_i = _uniform(u[:, 3], 1.0, 5.0), _uniform(u[:, 4], 0.3, 0.9)
    n_poles = int(layout_rng.integers(4, 9))
    u = layout_rng.random((n_poles, 4))   # range, bearing, height, intensity
    r, th = _uniform(u[:, 0], 3.0, 40.0), _uniform(u[:, 1], 0.0, 2 * np.pi)
    pole_x, pole_y = r * np.cos(th), r * np.sin(th)
    pole_h, pole_i = _uniform(u[:, 2], 4.0, 8.0), _uniform(u[:, 3], 0.3, 0.9)

    n_ground = n_points * 3 // 10
    n_box = n_points * 5 // 10
    n_pole = n_points - n_ground - n_box
    pts = np.empty((n_points, 4))

    rr = 50.0 * np.sqrt(sample_rng.random(n_ground))
    th = sample_rng.uniform(0, 2 * np.pi, n_ground)
    pts[:n_ground, 0] = rr * np.cos(th)
    pts[:n_ground, 1] = rr * np.sin(th)
    pts[:n_ground, 2] = -1.8 + sample_rng.normal(0, 0.03, n_ground)
    pts[:n_ground, 3] = 0.2 + 0.1 * sample_rng.random(n_ground)

    which = sample_rng.integers(0, n_boxes, n_box)
    u, z = np.empty((n_box, 3)), np.empty(n_box)
    for k in range(n_box):
        u[k] = sample_rng.random(3)
        z[k] = sample_rng.standard_normal()
    half, box = box_half[which], pts[n_ground:n_ground + n_box]
    box[:, 0] = box_x[which] + _uniform(u[:, 0], -half, half)
    box[:, 1] = box_y[which] + _uniform(u[:, 1], -half, half)
    box[:, 2] = -1.8 + _uniform(u[:, 2], 0.0, box_h[which])
    box[:, 3] = np.clip(box_i[which] + 0.05 * z, 0.05, 1.0)

    which = sample_rng.integers(0, n_poles, n_pole)
    u, z = np.empty(n_pole), np.empty((n_pole, 3))
    for k in range(n_pole):
        z[k, :2] = sample_rng.standard_normal(2)
        u[k] = sample_rng.random()
        z[k, 2] = sample_rng.standard_normal()
    pole = pts[n_ground + n_box:]
    pole[:, 0] = pole_x[which] + 0.05 * z[:, 0]
    pole[:, 1] = pole_y[which] + 0.05 * z[:, 1]
    pole[:, 2] = -1.8 + _uniform(u, 0.0, pole_h[which])
    pole[:, 3] = np.clip(pole_i[which] + 0.05 * z[:, 2], 0.05, 1.0)

    # sensor displacement and yaw: world stays put, the frame moves
    pts[:, 0] -= offset[0]
    pts[:, 1] -= offset[1]
    if yaw:
        c, s = np.cos(-yaw), np.sin(-yaw)
        x, y = pts[:, 0].copy(), pts[:, 1].copy()
        pts[:, 0] = c * x - s * y
        pts[:, 1] = s * x + c * y
    return pts


def make_synthetic_world(seed: int, n_places: int, revisit_fraction: float = 1.0,
                         points_per_scan: int = 900) -> SyntheticWorld:
    """Procedural loop of structured places with revisit queries.

    Database scans sit on a loop with ~12 m spacing. A revisit query samples
    the same place layout from a jittered pose (<= 1 m offset, sector-aligned
    yaw); the remaining queries visit novel places with no positive match.
    """
    if n_places < 2:
        raise ConfigError("n_places must be >= 2")
    if not 0.0 <= revisit_fraction <= 1.0:
        raise ConfigError("revisit_fraction must be in [0, 1]")
    root = np.random.SeedSequence([int(seed), 0x57454c50])
    spacing = 12.0
    radius = n_places * spacing / (2 * np.pi)

    def place_pose(k):
        th = 2 * np.pi * k / n_places
        return (radius * np.cos(th), radius * np.sin(th))

    database = []
    for k in range(n_places):
        layout_rng = np.random.default_rng(np.random.SeedSequence([seed, 1, k]))
        sample_rng = np.random.default_rng(np.random.SeedSequence([seed, 2, k, 0]))
        pts = _sample_place_scan(layout_rng, sample_rng, points_per_scan)
        database.append(ScanEntry(k, PointCloud(pts, frame_id=f"db{k:06d}"),
                                  place_pose(k)))

    n_queries = n_places
    n_revisit = int(round(revisit_fraction * n_queries))
    qrng = np.random.default_rng(root.spawn(1)[0])
    queries = []
    for q in range(n_queries):
        qid = QUERY_ID_BASE + q
        if q < n_revisit:
            k = q % n_places
            layout_rng = np.random.default_rng(np.random.SeedSequence([seed, 1, k]))
            sample_rng = np.random.default_rng(np.random.SeedSequence([seed, 2, k, 1]))
            offset = tuple(qrng.uniform(-1.0, 1.0, 2))
            yaw = (2 * np.pi / lpr.DEFAULT_SECTORS) * int(qrng.integers(0, lpr.DEFAULT_SECTORS))
            pts = _sample_place_scan(layout_rng, sample_rng, points_per_scan,
                                     yaw=yaw, offset=offset)
            px, py = place_pose(k)
            pose = (px + offset[0], py + offset[1])
        else:
            # novel place well outside the loop
            layout_rng = np.random.default_rng(np.random.SeedSequence([seed, 3, q]))
            sample_rng = np.random.default_rng(np.random.SeedSequence([seed, 4, q]))
            pts = _sample_place_scan(layout_rng, sample_rng, points_per_scan)
            th = 2 * np.pi * q / n_queries
            pose = ((radius + 200.0) * np.cos(th), (radius + 200.0) * np.sin(th))
        queries.append(ScanEntry(qid, PointCloud(pts, frame_id=f"q{qid}"), pose))
    return SyntheticWorld(database=tuple(database), queries=tuple(queries))


# ---------------------------------------------------------------------------
# pipeline stages


def build_database(entries, config: RunConfig) -> lpr.PlaceDatabase:
    db = lpr.PlaceDatabase(rings=config.rings, sectors=config.sectors)
    for e in entries:
        desc = lpr.make_descriptor(e.cloud, config.rings, config.sectors,
                                   config.max_radius)
        db.add(e.scan_id, e.pose, desc)
    return db


def restore_cloud(cloud: PointCloud, net: ResLPRNet, spec: ProjectionSpec) -> PointCloud:
    """Round a cloud through the restoration network via the range image."""
    return back_project(net.forward(project(cloud, spec)))


def evaluate_queries(db: lpr.PlaceDatabase, query_entries, config: RunConfig,
                     net: ResLPRNet | None = None, corrupt_with=None):
    """Retrieval records for one query set, applying optional corruption and
    restoration per query."""
    db_poses = dict(zip(db.ids, db.poses))
    db_ids = np.asarray(db.ids)
    records = []
    for e in query_entries:
        cloud = e.cloud
        if corrupt_with is not None:
            kind, params = corrupt_with
            cloud, _ = weathersim.corrupt(cloud, kind, params)
        if net is not None:
            cloud = restore_cloud(cloud, net, config.projection)
        desc = lpr.make_descriptor(cloud, config.rings, config.sectors,
                                   config.max_radius)
        exclude = None
        if config.exclude_recent:
            exclude = db_ids[np.abs(db_ids - e.scan_id) <= config.exclude_recent].tolist()
        ranked = db.query(desc, top_n=config.top_n, exclude_ids=exclude)
        records.append(metrics.RetrievalRecord(
            query_id=e.scan_id, matches=tuple(ranked),
            query_pose=e.pose, db_poses=db_poses))
    return records


def run_benchmark(database_entries, query_entries, config: RunConfig,
                  net: ResLPRNet | None = None) -> dict:
    """Full benchmark: clean baseline, then every (kind, level), restored by
    ``net`` (or ``config.checkpoint``) when ``config.preprocessing`` is
    restorenet. SR for each kind run at all three levels, and mSR when all
    three kinds have an SR; otherwise ``"msr"`` is None.
    """
    if config.preprocessing == "none" and net is not None:
        raise ConfigError("a net was given but preprocessing is 'none'")
    if config.preprocessing == "restorenet" and net is None:
        if not config.checkpoint:
            raise ConfigError("restorenet preprocessing needs a checkpoint or net")
        net = load_checkpoint(config.checkpoint)

    db = build_database(database_entries, config)

    rows, clean_records = [], None
    grid = [(kind, level) for kind in config.kinds for level in config.levels]
    for kind, level in [("clean", 0)] + grid:
        clean = kind == "clean"
        corrupt_with = None if clean else (
            kind, weathersim.severity_preset(kind, level, seed=config.seed))
        try:
            records = evaluate_queries(db, query_entries, config, net=net,
                                       corrupt_with=corrupt_with)
        except ValueError:
            raise  # ConfigError, ScanParseError, MetricError keep their exit code
        except Exception as exc:
            label = "evaluate_clean" if clean else f"evaluate_{kind}_{level}"
            raise RuntimeError(f"benchmark stage '{label}' failed: {exc}") from exc
        if clean:
            clean_records = records
        rows.append(metrics.score_records(records, kind, level, config.preprocessing,
                                          config.pos_radius))
    alp_clean = rows[0].alp(config.protocol)

    sr = {}
    for kind in config.kinds:
        alps = [row.alp(config.protocol) for row in rows if row.kind == kind]
        if len(alps) == 3:
            sr[kind] = metrics.stability_rate(alps, alp_clean)

    report = {
        # the report must not depend on where it is written
        "config": {k: v for k, v in asdict(config).items() if k != "out_dir"},
        "protocol": config.protocol,
        "alp_clean": alp_clean,
        "rows": [asdict(r) for r in rows],
        "sr": sr,
        "msr": metrics.msr(sr.values()) if len(sr) == 3 else None,
    }
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        metrics.write_report(report, os.path.join(config.out_dir, "report.json"))
        metrics.write_csv(rows, os.path.join(config.out_dir, "metrics.csv"))
        _write_recall_curves(clean_records, config,
                             os.path.join(config.out_dir, "recall_at_n.csv"))
    return report


def _write_recall_curves(records, config: RunConfig, path) -> None:
    """Plot-ready Recall@N over N = 1..top_n for the clean query set."""
    ns = range(1, config.top_n + 1)
    recalls = metrics.recall_at_ns(records, ns, config.pos_radius)
    with open(path, "w") as fh:
        fh.write("n,recall\n")
        for n, recall in zip(ns, recalls):
            fh.write(f"{n},{recall}\n")


def make_restoration_pairs(entries, kind: str, levels, config: RunConfig):
    """(corrupt, clean) range-image training pairs from clean scans."""
    pairs = []
    for e in entries:
        clean_img = project(e.cloud, config.projection)
        for level in levels:
            params = weathersim.severity_preset(kind, level, seed=config.seed)
            corrupted, _ = weathersim.corrupt(e.cloud, kind, params)
            pairs.append((project(corrupted, config.projection), clean_img))
    return pairs
