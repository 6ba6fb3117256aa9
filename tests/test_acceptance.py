"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) and asserts the same condition, so the
suite doubles as a human-readable checklist.
"""

import json
import math
import time
import zlib

import numpy as np
import pytest

from weatherlpr import bench, lpr, metrics as M, restorenet as R
from weatherlpr import tensorops as T, wavelet as W, weathersim as S
from weatherlpr.pointcloud import PointCloud, ProjectionSpec, project

from helpers import brute_auc_f1, brute_recall, numeric_gradient, relative_error


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_cloud(rng, n=400, frame_id="scan"):
    pts = np.empty((n, 4), dtype=np.float32)
    r = rng.uniform(2.0, 60.0, n)
    az = rng.uniform(-np.pi, np.pi, n)
    el = rng.uniform(-0.4, 0.3, n)
    pts[:, 0] = r * np.cos(el) * np.cos(az)
    pts[:, 1] = r * np.cos(el) * np.sin(az)
    pts[:, 2] = r * np.sin(el)
    pts[:, 3] = rng.uniform(0.05, 1.0, n)
    return PointCloud(pts, frame_id=frame_id)


def test_criterion_1_wavelet_roundtrip():
    rng = np.random.default_rng(1)
    t0 = time.time()
    worst_rt = worst_energy = 0.0
    for _ in range(1000):
        h, w = 2 * rng.integers(1, 9), 2 * rng.integers(1, 9)
        c = int(rng.integers(1, 4))
        f = rng.standard_normal((h, w, c))
        sub = W.dwt2(f)
        back = W.idwt2(sub)
        worst_rt = max(worst_rt, float(np.abs(back - f).max()))
        energy = sum(float((b ** 2).sum()) for b in np.split(sub, 4, axis=-1))
        worst_energy = max(worst_energy, abs(energy - float((f ** 2).sum())))
    elapsed = time.time() - t0
    ok = worst_rt <= 1e-6 and worst_energy <= 1e-6 and elapsed < 5.0
    report("criterion 1: wavelet round trip (1000 maps)", ok,
           f"max|x-rt|={worst_rt:.2e} max|ΔE|={worst_energy:.2e} {elapsed:.1f}s")


class TestCriterion2Gradients:
    """Central-difference checks: step 1e-3, rel. err < 1e-4, >= 20 random
    instances per operation, covering inputs, weights, and the context /
    attention blocks."""

    INSTANCES = 20
    TOL = 1e-4
    STEP = 1e-3

    def check(self, f, x, analytic):
        num = numeric_gradient(f, x, step=self.STEP)
        return relative_error(analytic, num) < self.TOL

    def run_op(self, name, trial):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        bad = sum(0 if trial(rng) else 1 for _ in range(self.INSTANCES))
        assert bad == 0, f"{name}: {bad}/{self.INSTANCES} instances failed"

    def test_gradient_suite(self):
        t0 = time.time()

        def conv_trial(rng):
            g = int(rng.integers(1, 3))
            cin, cout = 2 * g, 2 * g
            x = rng.standard_normal((4, 5, cin))
            w = rng.standard_normal((3, 3, cin // g, cout))
            b = rng.standard_normal(cout)
            gy = rng.standard_normal((4, 5, cout))
            _, cache = T.conv2d(x, w, b, groups=g)
            gx, gw, gb = T.conv2d_backward(cache, gy)
            ok = self.check(lambda v: (T.conv2d(v, w, b, groups=g)[0] * gy).sum(), x, gx)
            ok &= self.check(lambda v: (T.conv2d(x, v, b, groups=g)[0] * gy).sum(), w, gw)
            ok &= self.check(lambda v: (T.conv2d(x, w, v, groups=g)[0] * gy).sum(), b, gb)
            return ok

        def up_trial(rng):
            cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x = rng.standard_normal((3, 4, cin))
            w = rng.standard_normal((2, 2, cin, cout))
            b = rng.standard_normal(cout)
            gy = rng.standard_normal((6, 8, cout))
            _, cache = T.conv_transpose2x2(x, w, b)
            gx, gw, gb = T.conv_transpose2x2_backward(cache, gy)
            ok = self.check(lambda v: (T.conv_transpose2x2(v, w, b)[0] * gy).sum(), x, gx)
            ok &= self.check(lambda v: (T.conv_transpose2x2(x, v, b)[0] * gy).sum(), w, gw)
            ok &= self.check(lambda v: (T.conv_transpose2x2(x, w, v)[0] * gy).sum(), b, gb)
            return ok

        def linear_trial(rng):
            cin, cout = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            x = rng.standard_normal((6, cin))
            w = rng.standard_normal((cin, cout))
            b = rng.standard_normal(cout)
            gy = rng.standard_normal((6, cout))
            _, cache = T.linear(x, w, b)
            gx, gw, gb = T.linear_backward(cache, gy)
            ok = self.check(lambda v: (T.linear(v, w, b)[0] * gy).sum(), x, gx)
            ok &= self.check(lambda v: (T.linear(x, v, b)[0] * gy).sum(), w, gw)
            ok &= self.check(lambda v: (T.linear(x, w, v)[0] * gy).sum(), b, gb)
            return ok

        def softmax_trial(rng):
            x = rng.standard_normal((3, int(rng.integers(2, 6))))
            gy = rng.standard_normal(x.shape)
            _, cache = T.softmax(x)
            gx = T.softmax_backward(cache, gy)
            return self.check(lambda v: (T.softmax(v)[0] * gy).sum(), x, gx)

        def gelu_trial(rng):
            x = rng.standard_normal((4, 3))
            gy = rng.standard_normal(x.shape)
            _, cache = T.gelu(x)
            gx = T.gelu_backward(cache, gy)
            return self.check(lambda v: (T.gelu(v)[0] * gy).sum(), x, gx)

        def gap_trial(rng):
            x = rng.standard_normal((3, 4, int(rng.integers(1, 4))))
            gy = rng.standard_normal(x.shape[-1])
            _, cache = T.gap(x)
            gx = T.gap_backward(cache, gy)
            return self.check(lambda v: (T.gap(v)[0] * gy).sum(), x, gx)

        def norm_trial(rng):
            c = int(rng.integers(4, 9))
            x = rng.standard_normal((3, 4, c)) * 2 + 1
            gain = rng.standard_normal(c)
            bias = rng.standard_normal(c)
            gy = rng.standard_normal(x.shape)
            _, cache = T.moment_norm(x, gain, bias, axes=(-1,))
            gx, gg, gb = T.moment_norm_backward(cache, gy)
            ok = self.check(lambda v: (T.moment_norm(v, gain, bias, axes=(-1,))[0]
                                       * gy).sum(), x, gx)
            ok &= self.check(lambda v: (T.moment_norm(x, v, bias, axes=(-1,))[0]
                                        * gy).sum(), gain, gg)
            ok &= self.check(lambda v: (T.moment_norm(x, gain, v, axes=(-1,))[0]
                                        * gy).sum(), bias, gb)
            return ok

        def fuse_trial(rng):
            """Transformer fusion block (wavelet/context cross attention)."""
            c = 4
            block = R.TransformerFuse(np.random.default_rng(rng.integers(2 ** 30)),
                                      c, token_cap=64)
            fw = rng.standard_normal((4, 4, c))
            fc = rng.standard_normal((4, 4, c))
            gy = rng.standard_normal((4, 4, c))

            def f(v):
                y = block.forward(v, fc)
                return float((y * gy).sum())

            block.forward(fw, fc)
            for p in block.params():
                p.zero_grad()
            gw, _ = block.backward(gy)
            return self.check(f, fw, gw)

        def ctg_trial(rng):
            """Context-guide block: softmax embedding mixture."""
            c = 4
            block = R.ContextGuide(np.random.default_rng(rng.integers(2 ** 30)),
                                   c, n_contexts=3)
            x = rng.standard_normal((4, 5, c))
            gy = rng.standard_normal((4, 5, c))
            block.forward(x)
            for p in block.params():
                p.zero_grad()
            gx = block.backward(gy)
            ok = self.check(lambda v: float((block.forward(v) * gy).sum()), x, gx)
            # parameter gradient through the softmax gate (context table)
            p = block.ce
            saved = p.value.copy()

            def fp(v):
                p.value[...] = v
                y = float((block.forward(x) * gy).sum())
                p.value[...] = saved
                return y

            block.forward(x)
            for q in block.params():
                q.zero_grad()
            block.backward(gy)
            ok &= self.check(fp, saved, p.grad)
            return ok

        ops = [("conv2d", conv_trial), ("conv_transpose2x2", up_trial),
               ("linear", linear_trial), ("softmax", softmax_trial),
               ("gelu", gelu_trial), ("gap", gap_trial),
               ("layer_norm", norm_trial), ("transformer_fuse", fuse_trial),
               ("context_guide", ctg_trial)]
        for name, trial in ops:
            self.run_op(name, trial)
        elapsed = time.time() - t0
        ok = elapsed < 120.0
        report("criterion 2: gradient suite (9 ops x 20 instances)", ok,
               f"{elapsed:.1f}s")


def test_criterion_3_shape_contract():
    net = R.ResLPRNet(R.NetConfig(base_channels=2, attn_token_cap=64, seed=0))
    c = net.config.base_channels
    rng = np.random.default_rng(3)
    checked = []
    for h in (32, 64):
        for w in (480, 1920):
            img = rng.random((h, w, 2))
            f0 = net.embed.forward(img)
            assert f0.shape == (h, w, c)
            x, _ = net.encode(f0)
            assert x.shape == (h // 8, w // 8, 8 * c), x.shape
            out = net.forward_array(img)
            assert out.shape == (h, w, 2)
            checked.append(f"{h}x{w}")
    report("criterion 3: encoder (H/8, W/8, 8C) and decoder (H, W, C) shapes",
           True, ", ".join(checked))


ZERO_PARAMS = {
    "fog": S.FogParams(alpha=0.0, beta=0.0, seed=0),
    "snow": S.SnowParams(rate=0.0, seed=0),
    "rain": S.RainParams(rate=0.0, seed=0),
}


def test_criterion_4_identity_and_monotonicity():
    rng = np.random.default_rng(4)
    clouds = [random_cloud(rng, n=300, frame_id=f"{k:06d}") for k in range(20)]
    for cloud in clouds:
        for kind, params in ZERO_PARAMS.items():
            out, ann = S.corrupt(cloud, kind, params)
            assert out.points.tobytes() == cloud.points.tobytes(), kind
            assert ann.noise_count == 0 and len(ann.dropped) == 0
    violations = 0
    for cloud in clouds:
        for kind in S.CORRUPTION_KINDS:
            counts = [S.corrupt(cloud, kind, S.severity_preset(kind, lv, seed=9))[1]
                      .noise_count for lv in S.SEVERITY_LEVELS]
            if not (counts[0] <= counts[1] <= counts[2]):
                violations += 1
    report("criterion 4: zero-severity byte identity + preset monotonicity",
           violations == 0, f"{violations} monotonicity violations / 60 cases")


def test_criterion_5_fog_branch_fidelity():
    rng = np.random.default_rng(5)
    params = S.FogParams(alpha=0.006, beta=0.02, seed=11)
    mismatches = total = 0
    for k in range(10):
        cloud = random_cloud(rng, n=500, frame_id=f"fog{k}")
        out, ann = S.corrupt(cloud, "fog", params)
        # independent re-evaluation of the two response formulas
        r0 = cloud.ranges
        i0 = cloud.intensity
        soft_oracle = (i0 * r0 ** 2 * params.beta * S.FOG_IT_MAX
                       > i0 * np.exp(-2.0 * params.alpha * r0)) & (r0 > 0)
        expected = soft_oracle[ann.source_index]
        total += len(out)
        mismatches += int((ann.noise_mask != expected).sum())
        # dropped points must come from the hard (attenuated) branch oracle
        i_hard = (i0 * np.exp(-2.0 * params.alpha * r0))
        lost_oracle = ~soft_oracle & (r0 > 0) & (i_hard < S.DETECT_FLOOR) & (i_hard < i0)
        assert set(ann.dropped) <= set(np.flatnonzero(lost_oracle | soft_oracle))
    report("criterion 5: fog soft/hard branch fidelity (10 scans)",
           mismatches == 0, f"{mismatches}/{total} mismatches")


def test_criterion_6_loss_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        a = rng.random((h, w, 2))
        b = rng.random((h, w, 2))
        value, _ = R.loss_l1(a, b)
        brute = sum(abs(float(a[i, j, c]) - float(b[i, j, c]))
                    for i in range(h) for j in range(w)
                    for c in range(2)) / (h * w)
        worst = max(worst, abs(value - brute))
    report("criterion 6: L1 loss vs brute-force summation (100 pairs)",
           worst <= 1e-7, f"max abs err {worst:.2e}")


def make_record(rng, qid, n_db=20, n_matches=10, force_positive=None):
    db_poses = {k: (float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
                for k in range(n_db)}
    qpose = (float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
    if force_positive:
        db_poses[0] = (qpose[0] + 1.0, qpose[1])
    ids = rng.permutation(n_db)[:n_matches]
    dists = np.sort(rng.random(n_matches))
    matches = tuple((int(s), float(d)) for s, d in zip(ids, dists))
    return M.RetrievalRecord(query_id=qid, matches=matches, query_pose=qpose,
                             db_poses=db_poses)


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(7)
    records = [make_record(rng, q, force_positive=(q % 3 == 0))
               for q in range(100)]
    radius = 5.0
    recall_exact = all(
        M.recall_at_n(records, n, radius) == brute_recall(records, n, radius)
        for n in (1, 5, 10))
    auc, f1 = M.auc_f1(records, radius)
    bauc, bf1 = brute_auc_f1(records, radius)
    auc_ok = abs(auc - bauc) <= 1e-9 and abs(f1 - bf1) <= 1e-9
    # SR / mSR arithmetic, including SR = 1 on unchanged performance
    sr_ok = (M.stability_rate([2.0, 2.0, 2.0], 2.0) == 1.0
             and M.stability_rate([1.5, 1.0, 0.5], 2.0) == 0.5
             and M.msr([1.0, 0.5, 0.25]) == pytest.approx(7.0 / 12.0, abs=0))
    ok = recall_exact and auc_ok and sr_ok
    report("criterion 7: metric oracles (100-record fixtures)", ok,
           f"recall exact={recall_exact} |ΔAUC|={abs(auc - bauc):.1e} "
           f"|ΔF1|={abs(f1 - bf1):.1e} SR/mSR exact={sr_ok}")


def test_criterion_8_scan_context_sanity():
    rng = np.random.default_rng(8)
    clouds = [random_cloud(rng, n=350, frame_id=f"{k:06d}") for k in range(200)]
    descs = [lpr.make_descriptor(c) for c in clouds]
    db = lpr.PlaceDatabase()
    for k, d in enumerate(descs):
        db.add(k, (float(k), 0.0), d)

    self_hits = sum(db.query(descs[k], top_n=1)[0][0] == k for k in range(200))

    sector_w = 2 * np.pi / lpr.DEFAULT_SECTORS
    rot_hits = 0
    for k in range(100):
        ang = sector_w * int(rng.integers(1, lpr.DEFAULT_SECTORS))
        ca, sa = np.cos(ang), np.sin(ang)
        pts = clouds[k].points.copy()
        x, y = pts[:, 0].copy(), pts[:, 1].copy()
        pts[:, 0] = ca * x - sa * y
        pts[:, 1] = sa * x + ca * y
        q = lpr.make_descriptor(PointCloud(pts, frame_id="rot"))
        rot_hits += db.query(q, top_n=1)[0][0] == k

    # ring-key pre-selection must keep the brute-force top-1 reachable
    contained = 0
    for k in range(100):
        pts = clouds[k].points.copy()
        pts[:, :3] += rng.normal(0.0, 0.15, (len(pts), 3)).astype(np.float32)
        q = lpr.make_descriptor(PointCloud(pts, frame_id="jit"))
        brute_top = min(range(200), key=lambda j: lpr.sc_distance(q, descs[j])[0])
        contained += brute_top in [db.ids[c] for c in
                                   db.candidates(q, lpr.CANDIDATE_FACTOR * 1)]

    ok = self_hits == 200 and rot_hits == 100 and contained >= 95
    report("criterion 8: scan-context sanity (200-scan database)", ok,
           f"self R@1 {self_hits}/200, rotation {rot_hits}/100, "
           f"preselection {contained}/100")


@pytest.mark.slow
def test_criterion_9_restoration_gain():
    """End-to-end direction check on the synthetic fog track: training plus
    both benchmark arms must finish inside 15 minutes, the restorenet arm
    must beat the no-preprocessing arm on mSR, and held-out restored L1 must
    beat corrupted L1."""
    t0 = time.time()
    fov = dict(fov_up=math.radians(40), fov_down=math.radians(-60),
               max_range=80.0)
    # evaluation wants a collision-free grid; training is cheaper (and was
    # tuned) at half resolution — the net is fully convolutional, so the
    # learned per-pixel statistics transfer
    proj = ProjectionSpec(height=64, width=512, **fov)
    train_proj = ProjectionSpec(height=48, width=256, **fov)
    cfg = dict(top_n=10, projection=proj, kinds=("fog",), levels=(1, 2, 3),
               seed=0)

    train_world = bench.make_synthetic_world(seed=77, n_places=10,
                                             revisit_fraction=0.0)
    pairs = bench.make_restoration_pairs(
        train_world.database, "fog", (1, 1, 2, 3),
        bench.RunConfig(projection=train_proj))
    # identity pairs keep the net honest on mild fog and clean scans
    pairs += [(project(e.cloud, train_proj), project(e.cloud, train_proj))
              for e in train_world.database] * 2
    net = R.ResLPRNet(R.NetConfig(base_channels=8, attn_token_cap=256, seed=0))
    curve = R.train(net, pairs, R.TrainOptions(lr=1e-3, epochs=12,
                                               patch=(48, 128), seed=0))
    assert curve[-1] < curve[0]

    world = bench.make_synthetic_world(seed=30, n_places=30,
                                       revisit_fraction=0.8)
    rep_none = bench.run_benchmark(world.database, world.queries,
                                   bench.RunConfig(**cfg))
    rep_net = bench.run_benchmark(
        world.database, world.queries,
        bench.RunConfig(preprocessing="restorenet", **cfg), net=net)
    sr_none = rep_none["sr"]["fog"]
    sr_net = rep_net["sr"]["fog"]

    held_out = bench.make_synthetic_world(seed=99, n_places=6,
                                          revisit_fraction=0.0)
    ho_pairs = bench.make_restoration_pairs(held_out.database, "fog",
                                            (1, 2, 3), bench.RunConfig(**cfg))
    l1_corrupt = l1_restored = 0.0
    for corrupted, clean in ho_pairs:
        a, b = corrupted.channels(), clean.channels()
        l1_corrupt += R.loss_l1(a, b)[0]
        l1_restored += R.loss_l1(net.forward_array(np.ascontiguousarray(a)), b)[0]
    l1_corrupt /= len(ho_pairs)
    l1_restored /= len(ho_pairs)

    elapsed = time.time() - t0
    ok = sr_net > sr_none and l1_restored < l1_corrupt and elapsed < 900.0
    report("criterion 9: end-to-end restoration gain (fog track)", ok,
           f"SR {sr_net:.3f} > {sr_none:.3f} (none), held-out L1 "
           f"{l1_restored:.4f} < {l1_corrupt:.4f}, {elapsed / 60:.1f} min")


def test_criterion_10_report_determinism(tmp_path):
    world = bench.make_synthetic_world(seed=10, n_places=8, revisit_fraction=0.5)
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = bench.RunConfig(kinds=("fog",), levels=(1,), top_n=5, seed=3,
                              out_dir=str(out))
        bench.run_benchmark(world.database, world.queries, cfg)
        blobs.append((out / "report.json").read_bytes())
    report("criterion 10: byte-identical reports across bench runs",
           blobs[0] == blobs[1], f"{len(blobs[0])} bytes")
