"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed in ``setup``, runs one
round of identical operations in ``run_round`` (``state["units"]`` scans
each), records what its checks need through light capture wrappers, and
checks the recorded outputs in ``check``.
"""
from __future__ import annotations

import contextlib
import csv
import glob
import io
import json
import math
import os
import shutil

import numpy as np

from weatherlpr import (bench, cli, lpr, metrics, pointcloud, restorenet,
                        tensorops, wavelet, weathersim)

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_PATH = os.path.join(HERE, "reference", "restore_probe.npy")
PROBE_TOL = 1e-6          # max |restored - stored| on the probe image
HEAD_SEED = 1234          # output head of the restore-fog net; not the run seed

NET_BLOCKS = ("embed", "enc0", "enc1", "enc2", "bottleneck", "dec0", "dec1",
              "dec2", "ctg0", "ctg1", "ctg2", "outconv")
TENSOR_OPS = ("conv2d", "softmax", "gelu", "moment_norm", "linear",
              "conv_transpose2x2")


def net_blocks(net):
    """(name, block) for every top-level block of a ResLPRNet."""
    blocks = [net.embed, *net.encoders, net.bottleneck, *net.decoders,
              *net.guides, net.outconv]
    return list(zip(NET_BLOCKS, blocks))


def trace_targets(tracer, patches, net=None):
    """Wrap every traced layer boundary; ``net`` adds its blocks."""
    span, count = tracer.span, tracer.counter
    patches.wrap(bench, "make_synthetic_world", span("bench.make_synthetic_world"))
    patches.wrap(bench, "build_database", span("bench.build_database"))
    patches.wrap(bench, "run_benchmark", span("bench.run_benchmark"))
    patches.wrap(weathersim, "corrupt", span(
        lambda args, kw: f"weathersim.corrupt.{args[1] if len(args) > 1 else kw['kind']}"))
    # bench and cli import these names directly, so wrap them where called
    patches.wrap(bench, "project", span("pointcloud.project"))
    patches.wrap(bench, "back_project", span("pointcloud.back_project"))
    patches.wrap(cli, "read_scan", span("pointcloud.read_scan"))
    patches.wrap(restorenet, "train", span("restorenet.train"))
    patches.wrap(restorenet.Adam, "step", span("restorenet.adam_step"))
    for op in TENSOR_OPS:
        patches.wrap(tensorops, op, span(f"tensorops.{op}"))
        patches.wrap(tensorops, f"{op}_backward", span(f"tensorops.{op}_backward"))
    patches.wrap(wavelet, "dwt2", span("wavelet.dwt2"))
    patches.wrap(wavelet, "idwt2", span("wavelet.idwt2"))
    patches.wrap(lpr, "make_descriptor", span("lpr.make_descriptor"))
    for method in ("query", "candidates", "add", "save", "load"):
        patches.wrap(lpr.PlaceDatabase, method, span(f"lpr.{method}"))
    patches.wrap(lpr, "sc_distance", count("lpr.sc_distance"))
    patches.wrap(metrics, "score_records", span("metrics.score_records"))
    patches.wrap(metrics, "has_positive", count("metrics.has_positive"))
    patches.wrap(cli, "cmd_index", span("cli.index"))
    patches.wrap(cli, "cmd_evaluate", span("cli.evaluate"))
    if net is not None:
        patches.wrap(net, "forward", span("restorenet.forward"))
        for name, block in net_blocks(net):
            patches.wrap(block, "forward", span(f"restorenet.{name}.fwd"))
            patches.wrap(block, "backward", span(f"restorenet.{name}.bwd"))


def _recorder(log, keep_args=True):
    def make(fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append((args, kwargs, out) if keep_args else out)
            return out
        return recorded
    return make


def _report_check(blobs, label):
    if len(set(blobs)) > 1:
        return [f"{label} differs between rounds"]
    return []


def _check_queries(calls, sample=1):
    """Brute-force check of recorded PlaceDatabase.query calls."""
    fails = []
    cache = {}
    for args, kwargs, result in calls[::sample]:
        db, q = args[0], args[1]
        top_n = args[2] if len(args) > 2 else kwargs.get("top_n", 1)
        exclude = args[3] if len(args) > 3 else kwargs.get("exclude_ids")
        if id(db) not in cache:
            cache[id(db)] = np.stack([d.cells for d in db.descriptors])
        fails += oracles.check_ranking(result, cache[id(db)], db.ids, q.cells, top_n,
                                       lpr.CANDIDATE_FACTOR * top_n, exclude or ())
    return fails


def _check_descriptors(calls, sample=1):
    fails = []
    for args, kwargs, sc in calls[::sample]:
        rings = args[1] if len(args) > 1 else kwargs.get("rings", lpr.DEFAULT_RINGS)
        sectors = args[2] if len(args) > 2 else kwargs.get("sectors", lpr.DEFAULT_SECTORS)
        radius = args[3] if len(args) > 3 else kwargs.get("max_radius", lpr.DEFAULT_MAX_RADIUS)
        cells, key = oracles.descriptor(args[0].points, rings, sectors, radius)
        if not (np.array_equal(cells, sc.cells) and np.array_equal(key, sc.ring_key)):
            fails.append(f"descriptor of {args[0].frame_id} differs from the oracle")
    return fails


def _check_corruptions(calls):
    fails = []
    for args, kwargs, (out, ann) in calls:
        fails += oracles.check_corruption(args[1], args[0].points, out.points,
                                          ann.noise_mask, ann.source_index, ann.dropped)
    return fails


def _check_report_rows(report, record_sets, pos_radius):
    """Every report row against the oracle over the same rankings."""
    fails = []
    if len(report["rows"]) != len(record_sets):
        return ["report has a different number of rows than evaluations"]
    for row, records in zip(report["rows"], record_sets):
        db_ids = list(records[0].db_poses)
        expect = oracles.retrieval_row(
            [r.matches for r in records], [r.query_pose for r in records],
            db_ids, [records[0].db_poses[i] for i in db_ids], pos_radius)
        fails += oracles.compare_row(row, expect, f"{row['kind']}:{row['level']}")
    return fails


class Workload:
    name = ""

    def setup(self, seed, work):
        raise NotImplementedError

    def captures(self, state, patches):
        """Install capture wrappers. Called before every round with fresh
        logs, so the checks see the last round's outputs."""

    def run_round(self, state):
        raise NotImplementedError

    def after_round(self, state):
        """Untimed work after a round, such as reading its report."""

    def check(self, state):
        raise NotImplementedError

    def net(self, state):
        return None


class _ReportWorkload(Workload):
    """Shared parts of the two workloads that call bench.run_benchmark."""

    QUERY_SAMPLE = 1         # brute-force check every n-th query of the last round

    def captures(self, state, patches):
        state["evals"], state["corrupts"], state["queries"] = [], [], []
        patches.wrap(bench, "evaluate_queries", _recorder(state["evals"], keep_args=False))
        patches.wrap(weathersim, "corrupt", _recorder(state["corrupts"]))
        patches.wrap(lpr.PlaceDatabase, "query", _recorder(state["queries"]))

    def after_round(self, state):
        with open(os.path.join(state["config"].out_dir, "report.json"), "rb") as fh:
            state["reports"].append(fh.read())

    def check(self, state):
        fails = _report_check(state["reports"], "report.json")
        report = json.loads(state["reports"][-1])
        fails += _check_corruptions(state["corrupts"])
        fails += _check_queries(state["queries"], self.QUERY_SAMPLE)
        fails += _check_report_rows(report, state["evals"], state["config"].pos_radius)
        return fails


class GridNone(_ReportWorkload):
    """run_benchmark without restoration over all 3 kinds x 3 levels."""

    name = "grid-none"
    N_PLACES = 40            # database well under the 200-candidate preselection
    REVISIT = 0.8
    QUERY_SAMPLE = 4

    def setup(self, seed, work):
        world = bench.make_synthetic_world(seed=seed, n_places=self.N_PLACES,
                                           revisit_fraction=self.REVISIT)
        config = bench.RunConfig(seed=seed, out_dir=os.path.join(work, "report"))
        units = len(world.queries) * (1 + len(config.kinds) * len(config.levels))
        return {"world": world, "config": config, "reports": [], "units": units}

    def captures(self, state, patches):
        super().captures(state, patches)
        state["descriptors"] = []
        patches.wrap(lpr, "make_descriptor", _recorder(state["descriptors"]))

    def run_round(self, state):
        world, config = state["world"], state["config"]
        bench.run_benchmark(world.database, world.queries, config)

    def check(self, state):
        return super().check(state) + _check_descriptors(state["descriptors"], sample=5)


class RestoreFog(_ReportWorkload):
    """The restorenet arm of run_benchmark on fog at the default projection."""

    name = "restore-fog"
    N_PLACES = 2
    N_QUERIES = 1            # each round restores this query clean and fogged
    LEVEL = 3

    def setup(self, seed, work):
        world = bench.make_synthetic_world(seed=seed, n_places=self.N_PLACES,
                                           revisit_fraction=1.0)
        config = bench.RunConfig(preprocessing="restorenet", kinds=("fog",),
                                 levels=(self.LEVEL,), seed=seed,
                                 out_dir=os.path.join(work, "report"))
        return {"world": world, "config": config, "net": probe_net(), "reports": [],
                "units": self.N_QUERIES * (1 + len(config.levels))}

    def captures(self, state, patches):
        super().captures(state, patches)
        state["restored"] = []
        patches.wrap(state["net"], "forward", _recorder(state["restored"]))

    def run_round(self, state):
        world, config = state["world"], state["config"]
        bench.run_benchmark(world.database, world.queries[:self.N_QUERIES], config,
                            net=state["net"])

    def check(self, state):
        fails = super().check(state)
        if len(state["restored"]) != state["units"]:
            fails.append("restoration ran a different number of times than expected")
        for args, _, out in state["restored"]:
            fails += oracles.check_restored(args[0].mask, out.dist, out.inten, out.mask)
        return fails + check_probe(state["net"])

    def net(self, state):
        return state["net"]


def probe_net():
    """Default-size ResLPRNet whose zero-initialized output head is given
    seeded weights, so every block's arithmetic reaches the output."""
    net = restorenet.ResLPRNet(restorenet.NetConfig(seed=0))
    w = net.outconv.w.value
    w[...] = np.random.default_rng(HEAD_SEED).normal(0.0, 0.05, w.shape)
    return net


def probe_output(net):
    """Restore one fixed fog-corrupted scan, independent of the run seed, on
    a small projection; returns the raw (H, W, 2) network output."""
    world = bench.make_synthetic_world(seed=0, n_places=2, revisit_fraction=1.0)
    cloud, _ = weathersim.corrupt(world.queries[0].cloud, "fog",
                                  weathersim.severity_preset("fog", 3, seed=0))
    img = pointcloud.project(cloud, pointcloud.ProjectionSpec(height=32, width=256))
    return net.forward_array(img.channels())


def check_probe(net):
    stored = np.load(PROBE_PATH)
    out = probe_output(net)
    if out.shape != stored.shape:
        return [f"probe shape {out.shape} != stored {stored.shape}"]
    err = float(np.abs(out - stored).max())
    if err > PROBE_TOL:
        return [f"restored probe differs from the stored copy by {err:.3g} > {PROBE_TOL}"]
    return []


class TrainFog(Workload):
    """Seeded Adam steps on the criterion-9 fog set-up: fog pairs at levels
    1, 1, 2, 3 plus two identity pairs per place, 48x128 patches."""

    name = "train-fog"
    N_PLACES = 2
    PATCH = (48, 128)
    GRAD_STEP = 1e-6

    def setup(self, seed, work):
        fov = dict(fov_up=math.radians(40), fov_down=math.radians(-60), max_range=80.0)
        spec = pointcloud.ProjectionSpec(height=48, width=256, **fov)
        world = bench.make_synthetic_world(seed=seed, n_places=self.N_PLACES,
                                           revisit_fraction=0.0)
        pairs = bench.make_restoration_pairs(world.database, "fog", (1, 1, 2, 3),
                                             bench.RunConfig(projection=spec, seed=seed))
        pairs += [(pointcloud.project(e.cloud, spec), pointcloud.project(e.cloud, spec))
                  for e in world.database] * 2
        net = restorenet.ResLPRNet(restorenet.NetConfig(base_channels=8,
                                                        attn_token_cap=256, seed=0))
        return {"net": net, "pairs": pairs, "seed": seed, "curves": [],
                "start": [p.value.copy() for p in net.params()], "units": len(pairs)}

    def run_round(self, state):
        # every round trains from the same weights, so every round is the same work
        for p, v in zip(state["net"].params(), state["start"]):
            p.value[...] = v
        opts = restorenet.TrainOptions(lr=1e-3, epochs=1, patch=self.PATCH,
                                       seed=state["seed"])
        state["curves"].append(restorenet.train(state["net"], state["pairs"], opts))

    def check(self, state):
        fails = _report_check([tuple(c) for c in state["curves"]], "loss curve")
        if not all(math.isfinite(v) for v in state["curves"][-1]):
            fails.append("non-finite training loss")
        return fails + self.gradient_check(state["net"])

    def gradient_check(self, net):
        """backward_input and a sample of parameter gradients against central
        differences, on a 16x16 input inside the clip range."""
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 0.7, (16, 16, 2))
        gy = rng.standard_normal(x.shape)

        def loss():
            return float((net.forward_array(x) * gy).sum())

        net.zero_grad()
        loss()
        if not net._clip_mask.all():
            return ["gradient check input leaves the clip range"]
        gx = net.backward_input(gy)
        fails = []
        for idx in rng.choice(x.size, 6, replace=False):
            num = oracles.central_difference(loss, x, idx, self.GRAD_STEP)
            fails += oracles.check_gradient(f"input[{idx}]", gx.flat[idx], num)
        params = net.params()
        for p in params[::max(1, len(params) // 16)]:
            idx = int(rng.integers(p.value.size))
            ana = p.grad.flat[idx]
            num = oracles.central_difference(loss, p.value, idx, self.GRAD_STEP)
            fails += oracles.check_gradient(f"{p.name}[{idx}]", ana, num)
        return fails

    def net(self, state):
        return state["net"]


class IndexEvaluate(Workload):
    """`weatherlpr index` then `weatherlpr evaluate` on scans written to disk."""

    name = "index-evaluate"
    N_PLACES = 600           # three times the 200-candidate preselection
    POINTS = 200
    N_REVISIT_QUERIES = 48
    N_NOVEL_QUERIES = 12

    def setup(self, seed, work):
        world = bench.make_synthetic_world(seed=seed, n_places=self.N_PLACES,
                                           revisit_fraction=0.8,
                                           points_per_scan=self.POINTS)
        shutil.rmtree(work, ignore_errors=True)
        db_dir, q_dir = os.path.join(work, "database"), os.path.join(work, "queries")
        os.makedirs(db_dir)
        os.makedirs(q_dir)
        queries = (world.queries[:self.N_REVISIT_QUERIES]
                   + world.queries[-self.N_NOVEL_QUERIES:])
        for entries, out in ((world.database, db_dir), (queries, q_dir)):
            for e in entries:
                pointcloud.write_scan(e.cloud, os.path.join(out, f"{e.scan_id:06d}.bin"))
        bench.write_pose_file(world.database, os.path.join(work, "database_poses.txt"))
        bench.write_pose_file(queries, os.path.join(work, "query_poses.txt"))
        return {"work": work, "units": len(world.database) + len(queries), "csvs": []}

    def captures(self, state, patches):
        state["loads"], state["queries"] = [], []
        patches.wrap(lpr.PlaceDatabase, "load", _recorder(state["loads"], keep_args=False))
        patches.wrap(lpr.PlaceDatabase, "query", _recorder(state["queries"]))

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"weatherlpr {argv[0]} exited {code}")

    def run_round(self, state):
        w = state["work"]
        self._cli(["index", "--in", os.path.join(w, "database"),
                   "--poses", os.path.join(w, "database_poses.txt"),
                   "--out", os.path.join(w, "places.db")])
        self._cli(["evaluate", "--db", os.path.join(w, "places.db"),
                   "--queries", os.path.join(w, "queries"),
                   "--query-poses", os.path.join(w, "query_poses.txt"),
                   "--out", os.path.join(w, "metrics.csv")])

    def after_round(self, state):
        with open(os.path.join(state["work"], "metrics.csv"), "rb") as fh:
            state["csvs"].append(fh.read())

    def check(self, state):
        w = state["work"]
        fails = _report_check(state["csvs"], "metrics.csv")
        db = state["loads"][-1]
        db_poses = _read_poses(os.path.join(w, "database_poses.txt"))
        q_poses = _read_poses(os.path.join(w, "query_poses.txt"))
        # the database stores float32 cells; the oracle rounds the same way
        for k, path in enumerate(sorted(glob.glob(os.path.join(w, "database", "*.bin")))):
            sid = int(os.path.basename(path)[:-4])
            pts = np.fromfile(path, dtype="<f4").reshape(-1, 4).astype(float)
            cells, _ = oracles.descriptor(pts, db.rings, db.sectors, lpr.DEFAULT_MAX_RADIUS)
            cells = cells.astype("<f4").astype(float)
            if (db.ids[k], db.poses[k]) != (sid, db_poses[sid]) or \
                    not np.array_equal(db.descriptors[k].cells, cells):
                fails.append(f"database entry {k} differs from scan {sid}")
                break
        fails += _check_queries(state["queries"], sample=3)
        qids = sorted(q_poses)
        rankings = [result for _, _, result in state["queries"]]
        expect = oracles.retrieval_row(rankings, [q_poses[q] for q in qids], db.ids,
                                       [db_poses[i] for i in db.ids],
                                       metrics.DEFAULT_POS_RADIUS)
        row = next(csv.DictReader(io.StringIO(state["csvs"][-1].decode())))
        return fails + oracles.compare_row(row, expect, "evaluate")


def _read_poses(path):
    poses = {}
    with open(path) as fh:
        for line in fh:
            sid, x, y = line.split()
            poses[int(sid)] = (float(x), float(y))
    return poses


WORKLOADS = {w.name: w for w in (GridNone(), RestoreFog(), TrainFog(), IndexEvaluate())}
