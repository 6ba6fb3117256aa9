"""Tests for the benchmark's oracles and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracles  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402
from weatherlpr import bench, lpr, metrics, weathersim  # noqa: E402
from weatherlpr.pointcloud import PointCloud  # noqa: E402


@pytest.fixture(scope="module")
def world():
    return bench.make_synthetic_world(seed=3, n_places=12, revisit_fraction=0.75)


def sparse_cells(rng, shape):
    cells = rng.uniform(-1.8, 4.0, shape)
    cells[rng.random(shape) < 0.4] = 0.0
    return cells


def test_brute_distance_matches_sc_distance():
    rng = np.random.default_rng(0)
    a = sparse_cells(rng, (20, 60))
    b = np.stack([sparse_cells(rng, (20, 60)) for _ in range(5)])
    got = oracles.brute_distance(a, b)
    for k in range(len(b)):
        want, _ = lpr.sc_distance(lpr.ScanContext(a, np.zeros(20)),
                                  lpr.ScanContext(b[k], np.zeros(20)))
        assert abs(got[k] - want) < 1e-12


def test_brute_distance_finds_shift_and_empty():
    rng = np.random.default_rng(1)
    a = sparse_cells(rng, (20, 60))
    b = np.stack([np.roll(a, 7, axis=1), np.zeros((20, 60))])
    got = oracles.brute_distance(a, b)
    assert got[0] < 1e-12
    assert got[1] == 1.0


def test_descriptor_matches_program(world):
    for e in world.database[:4] + world.queries[-2:]:
        sc = lpr.make_descriptor(e.cloud)
        cells, key = oracles.descriptor(e.cloud.points, lpr.DEFAULT_RINGS,
                                        lpr.DEFAULT_SECTORS, lpr.DEFAULT_MAX_RADIUS)
        assert np.array_equal(cells, sc.cells)
        assert np.array_equal(key, sc.ring_key)


def test_ranking_check_accepts_program_and_rejects_tampering(world):
    db = bench.build_database(world.database, bench.RunConfig())
    cells = np.stack([d.cells for d in db.descriptors])
    q = lpr.make_descriptor(world.queries[0].cloud)
    result = db.query(q, top_n=5)
    assert oracles.check_ranking(result, cells, db.ids, q.cells, 5, 50) == []
    swapped = [result[1], result[0]] + result[2:]
    assert oracles.check_ranking(swapped, cells, db.ids, q.cells, 5, 50)
    shifted = [(sid, d + 1e-6) for sid, d in result]
    assert oracles.check_ranking(shifted, cells, db.ids, q.cells, 5, 50)
    # a ranking built from too small a candidate set misses better entries
    assert oracles.check_ranking(result[1:] + result[:1], cells, db.ids, q.cells, 5, 50)


def test_retrieval_row_matches_program_metrics(world):
    config = bench.RunConfig(top_n=20)
    db = bench.build_database(world.database, config)
    records = bench.evaluate_queries(db, world.queries, config, corrupt_with=(
        "fog", weathersim.severity_preset("fog", 3, seed=0)))
    row = metrics.score_records(records, "fog", 3, "none")
    expect = oracles.retrieval_row([r.matches for r in records],
                                   [r.query_pose for r in records], db.ids,
                                   db.poses, metrics.DEFAULT_POS_RADIUS)
    got = {k: getattr(row, k) for k in ("auc", "f1", "r1", "r5", "r20")}
    assert oracles.compare_row(got, expect, "fog") == []
    got["r5"] += 0.01
    assert oracles.compare_row(got, expect, "fog")


@pytest.mark.parametrize("kind", ["fog", "snow", "rain"])
def test_corruption_check_passes_program(world, kind):
    cloud = world.database[0].cloud
    out, ann = weathersim.corrupt(cloud, kind, weathersim.severity_preset(kind, 3, seed=2))
    assert ann.noise_count > 0
    assert oracles.check_corruption(kind, cloud.points, out.points, ann.noise_mask,
                                    ann.source_index, ann.dropped) == []


def test_corruption_check_rejects_faults(world):
    cloud = world.database[0].cloud
    out, ann = weathersim.corrupt(cloud, "fog", weathersim.severity_preset("fog", 3, seed=2))
    args = (cloud.points, out.points, ann.noise_mask, ann.source_index, ann.dropped)
    assert oracles.check_corruption("fog", *args) == []
    moved = out.points.copy()
    moved[np.flatnonzero(~ann.noise_mask)[0], 0] += 1e-9
    assert oracles.check_corruption("fog", cloud.points, moved, *args[2:])
    beyond = out.points.copy()
    beyond[np.flatnonzero(ann.noise_mask)[0], :3] *= 1e3
    assert oracles.check_corruption("fog", cloud.points, beyond, *args[2:])
    off_ray = out.points.copy()
    off_ray[np.flatnonzero(ann.noise_mask)[0], 2] += 0.5
    assert oracles.check_corruption("fog", cloud.points, off_ray, *args[2:])
    assert oracles.check_corruption("fog", cloud.points, out.points[:-1], ann.noise_mask[:-1],
                                    ann.source_index[:-1], ann.dropped)


def test_restored_check():
    in_mask = np.zeros((4, 4), dtype=bool)
    in_mask[:2] = True
    dist = np.where(in_mask, 0.5, 0.0)
    assert oracles.check_restored(in_mask, dist, dist, in_mask) == []
    assert oracles.check_restored(in_mask, dist, dist, np.ones((4, 4), dtype=bool))
    assert oracles.check_restored(in_mask, dist * 3, dist, in_mask)
    assert oracles.check_restored(in_mask, dist + 0.1, dist, in_mask)


def test_gradient_check():
    x = np.array([0.3, -1.2, 2.0])
    f = lambda: float((x ** 3).sum())  # noqa: E731
    for i in range(3):
        num = oracles.central_difference(f, x, i, 1e-6)
        assert oracles.check_gradient("x", 3 * x[i] ** 2, num) == []
        assert oracles.check_gradient("x", 3 * x[i] ** 2 + 0.1, num)
    assert np.array_equal(x, [0.3, -1.2, 2.0])


class Thing:
    def method(self):
        return "method"

    @classmethod
    def build(cls):
        return cls

    def nap(self):
        time.sleep(0.002)
        return self.method()


def test_tracer_self_time_and_undo():
    tr, patches = Tracer(), Patches()
    thing = Thing()
    patches.wrap(Thing, "method", tr.span("method"))
    patches.wrap(Thing, "build", tr.counter("build"))
    patches.wrap(thing, "nap", tr.span("nap"))
    patches.wrap(oracles, "positives", tr.counter("positives"))
    assert thing.nap() == "method" and Thing.build() is Thing
    oracles.positives([(0.0, 0.0)], [(0.0, 0.0)], 1.0)
    patches.undo()
    assert "nap" not in vars(thing)
    Thing().nap(), Thing.build()
    assert [s[0] for s in tr.spans] == ["nap", "method"]
    assert tr.spans[1][1] == 0
    assert tr.counts == {"build": 1, "positives": 1}
    selfs = tr.self_times()
    nap, method = tr.durations("nap")[0], tr.durations("method")[0]
    assert selfs["nap"] == pytest.approx(nap - method)
    assert selfs["method"] == pytest.approx(method)


def test_patches_restore_originals():
    original_method = vars(Thing)["method"]
    original_build = vars(Thing)["build"]
    original_positives = oracles.positives
    patches = Patches()
    patches.wrap(Thing, "method", Tracer().span("x"))
    patches.wrap(Thing, "build", Tracer().span("y"))
    patches.wrap(oracles, "positives", Tracer().span("z"))
    patches.undo()
    assert vars(Thing)["method"] is original_method
    assert vars(Thing)["build"] is original_build
    assert oracles.positives is original_positives


def test_descriptor_single_point():
    cloud = PointCloud(np.array([[10.0, 0.0, 1.5, 0.5]]))
    cells, key = oracles.descriptor(cloud.points, 20, 60, 80.0)
    assert cells[2, 0] == 1.5 and key[2] == 1 / 60
