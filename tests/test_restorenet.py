import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from weatherlpr import restorenet as R
from weatherlpr import tensorops as T
from weatherlpr import wavelet
from weatherlpr.pointcloud import ProjectionSpec, RangeImage


def small_net(c=4, seed=0, cap=512):
    return R.ResLPRNet(R.NetConfig(base_channels=c, n_contexts=3,
                                   attn_token_cap=cap, seed=seed))


def zero_biases(net):
    for p in net.params():
        if p.name.endswith(".b") or p.name.endswith(".bias"):
            p.value[...] = 0.0


def rand_img(rng, h=16, w=24, c=2):
    return rng.random((h, w, c))


def seeded_head(net, rng):
    """Seeded weights for the zero-initialized outconv, so every block's
    arithmetic, and its backward, reaches the output."""
    w = net.outconv.w.value
    w[...] = rng.normal(0.0, 0.5, w.shape)
    return net


class TestBlocks:
    def test_embed_zero_input_zero_output(self):
        net = small_net()
        zero_biases(net)
        out = net.embed.forward(np.zeros((8, 8, 2)))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_embed_shape(self):
        net = small_net(c=4)
        out = net.embed.forward(np.zeros((16, 32, 2)))
        assert out.shape == (16, 32, 4)

    def test_encoder_chain_shapes(self):
        net = small_net(c=4)
        f0 = np.random.default_rng(0).random((16, 24, 4))
        x, skips = net.encode(f0)
        assert [s.shape for s in skips] == [
            (16, 24, 4), (8, 12, 8), (4, 6, 16), (2, 3, 32)]
        assert x.shape == (2, 3, 32)

    def test_encoder_block_zero_preserving(self):
        net = small_net()
        zero_biases(net)
        out = net.encoders[0].forward(np.zeros((8, 12, 4)))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_decoder_chain_shapes(self):
        net = small_net(c=4)
        rng = np.random.default_rng(2)
        f0 = rng.random((16, 24, 4))
        x, skips = net.encode(f0)
        for k, dec in enumerate(net.decoders):
            x = dec.forward(x, skips[2 - k])
        assert x.shape == (16, 24, 4)

    def test_decoder_synthesis_init_matches_idwt2(self):
        # untrained upsampling starts as the exact inverse wavelet transform
        rng = np.random.default_rng(3)
        net = small_net(c=4)
        stacked = wavelet.dwt2(rng.random((4, 6, 8)))  # dec0 consumes 32 channels
        up = net.decoders[0].upsample.forward(stacked)
        np.testing.assert_allclose(up, wavelet.idwt2(stacked), atol=1e-12)

    def test_feature_mix_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        net = small_net()
        mix = net.encoders[0].mix
        mix.forward(rng.random((4, 6, 16)))
        _, _, (p, _), _, _ = mix._attn_cache
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_feature_mix_single_token_identity_attention(self):
        rng = np.random.default_rng(5)
        net = small_net()
        mix = net.encoders[0].mix
        mix.forward(rng.random((1, 1, 16)))
        t, _, (p, v), _, _ = mix._attn_cache
        np.testing.assert_allclose(p, 1.0, atol=1e-15)
        np.testing.assert_allclose(p @ v, t, atol=1e-12)

    def test_fuse_constant_context_gives_constant_attention(self):
        rng = np.random.default_rng(6)
        net = small_net()
        fuse = net.encoders[0].fuse
        fw = rng.random((4, 6, 16))
        fc = np.broadcast_to(rng.random(16), (4, 6, 16)).copy()
        fuse.forward(fw, fc)
        _, _, (p, vp), _, _ = fuse._attn_cache
        attn = p @ vp
        np.testing.assert_allclose(attn, np.broadcast_to(attn[0], attn.shape),
                                   atol=1e-12)

    def test_fuse_token_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        net = small_net()
        fuse = net.encoders[0].fuse
        fw, fc = rng.random((4, 6, 16)), rng.random((4, 6, 16))
        out = fuse.forward(fw, fc)
        perm = rng.permutation(24)
        fwp = fw.reshape(24, 16)[perm].reshape(4, 6, 16)
        fcp = fc.reshape(24, 16)[perm].reshape(4, 6, 16)
        outp = fuse.forward(fwp, fcp)
        np.testing.assert_allclose(outp.reshape(24, 16),
                                   out.reshape(24, 16)[perm], atol=1e-10)

    def test_context_guide_weights_sum_to_one(self):
        rng = np.random.default_rng(8)
        net = small_net()
        w = net.guides[0].weights(rng.random((4, 6, 16)))
        assert w.shape == (3,)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0)

    def test_context_guide_single_context_degenerate(self):
        rng = np.random.default_rng(18)
        net = small_net(c=4)
        net1 = R.ResLPRNet(R.NetConfig(base_channels=4, n_contexts=1,
                                       attn_token_cap=64, seed=0))
        for ctg in net1.guides:
            w = ctg.weights(rng.random((4, 6, ctg.c)))
            np.testing.assert_allclose(w, [1.0], atol=1e-15)

    def test_context_guide_weights_leave_backward_state(self):
        rng = np.random.default_rng(20)
        img, proj = rand_img(rng, 16, 24), rng.normal(size=(16, 24, 2))
        probes = [rng.random((4, 6, c)) for c in (16, 8, 4)]
        head = rng.normal(0.0, 0.5, small_net(c=4).outconv.w.value.shape)

        def gradients(call_weights):
            net = small_net(c=4, cap=64)
            net.outconv.w.value[...] = head  # every block reaches the output
            net.forward_array(img)
            if call_weights:
                for ctg, probe in zip(net.guides, probes):
                    ctg.weights(probe)
            net.zero_grad()
            gimg = net.backward_input(proj)
            return gimg, [p.grad.copy() for p in net.params()]

        gimg, grads = gradients(False)
        gimg_w, grads_w = gradients(True)
        assert np.array_equal(gimg, gimg_w)
        for p, g, gw in zip(small_net(c=4, cap=64).params(), grads, grads_w):
            assert np.array_equal(g, gw), p.name

    def test_token_pooling_kicks_in_above_cap(self):
        assert R._pool_stride(100, 512) == 1
        assert R._pool_stride(513, 512) == 2
        assert R._pool_stride(2048, 512) == 4


def check_input_gradient(net, img, proj, rng, samples=12):
    """backward_input after forward_array against sampled central differences."""
    def f(v):
        return float(np.sum(net.forward_array(v) * proj))

    f(img)
    net.zero_grad()
    gimg = net.backward_input(proj)
    for fi in rng.integers(img.size, size=samples):
        idx = np.unravel_index(int(fi), img.shape)
        orig = img[idx]
        step = 1e-4
        img[idx] = orig + step
        up = f(img)
        img[idx] = orig - step
        dn = f(img)
        img[idx] = orig
        num = (up - dn) / (2 * step)
        assert abs(gimg[idx] - num) < 1e-4 * max(1.0, abs(num))


class TestGradients:
    def test_full_net_input_gradient_sampled(self):
        rng = np.random.default_rng(9)
        check_input_gradient(seeded_head(small_net(c=4, cap=64), rng), rand_img(rng, 16, 24),
                             rng.normal(size=(16, 24, 2)), rng)

    def test_random_parameter_gradients(self):
        rng = np.random.default_rng(10)
        net = seeded_head(small_net(c=4, cap=64), rng)
        img = rand_img(rng, 16, 24)
        proj = rng.normal(size=(16, 24, 2))
        net.forward_array(img)
        net.zero_grad()
        net.backward_input(proj)
        params = net.params()
        picks = rng.choice(len(params), size=6, replace=False)
        for pi in picks:
            p = params[int(pi)]
            flat = rng.integers(p.value.size, size=2)
            for fi in flat:
                idx = np.unravel_index(int(fi), p.value.shape)
                orig = p.value[idx]
                step = 1e-4
                p.value[idx] = orig + step
                up = float(np.sum(net.forward_array(img) * proj))
                p.value[idx] = orig - step
                dn = float(np.sum(net.forward_array(img) * proj))
                p.value[idx] = orig
                num = (up - dn) / (2 * step)
                assert abs(p.grad[idx] - num) < 1e-4 * max(1.0, abs(num)), p.name


class TestForward:
    def test_output_in_unit_interval_same_shape(self):
        rng = np.random.default_rng(11)
        net = small_net(c=4)
        out = net.forward_array(rand_img(rng, 16, 24))
        assert out.shape == (16, 24, 2)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_range_image_roundtrip_pads_odd_sizes(self):
        rng = np.random.default_rng(12)
        spec = ProjectionSpec(height=10, width=30, fov_up=0.05, fov_down=-0.4,
                              max_range=80.0)
        img = RangeImage(dist=rng.random((10, 30)), inten=rng.random((10, 30)),
                         mask=np.ones((10, 30), dtype=bool), spec=spec)
        out = small_net(c=4).forward(img)
        assert out.dist.shape == (10, 30)
        assert np.all(out.dist[out.mask] >= R.RESTORED_MASK_FLOOR)
        assert np.all(out.dist[~out.mask] == 0.0)

    def test_inference_bit_equal_to_training_forward(self):
        # inference drops its caches and reuses buffers, but every op keeps
        # its arithmetic and order, so not one output bit moves
        rng = np.random.default_rng(19)
        net = R.ResLPRNet(R.NetConfig(seed=0))
        w = net.outconv.w.value
        w[...] = rng.normal(0.0, 0.05, w.shape)  # every block reaches the output
        x = rng.random((32, 256, 2))
        kept = net.forward_array(x, keep=True)
        assert net.forward_array(x, keep=False).tobytes() == kept.tobytes()

    def test_inference_memory_bounded_at_default_projection(self):
        # forward keeps no backward state and reuses its buffers: one 64x1920
        # restoration peaks at about 87 MB (504 MB, holding 446 MB after it
        # returned, when the layers kept their caches; 155 MB without reuse)
        rng = np.random.default_rng(19)
        net = R.ResLPRNet(R.NetConfig(seed=0))
        w = net.outconv.w.value
        w[...] = rng.normal(0.0, 0.05, w.shape)  # every block reaches the output
        spec = ProjectionSpec()
        shape = (spec.height, spec.width)
        img = RangeImage(dist=rng.random(shape), inten=rng.random(shape),
                         mask=np.ones(shape, dtype=bool), spec=spec)
        tracemalloc.start()
        try:
            out = net.forward(img)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2**20, f"peak {peak / 2**20:.0f} MB"
        # the restored image itself is about 2 MB
        assert held <= 16 * 2**20, f"{held / 2**20:.0f} MB held after forward"
        assert out.dist.shape == shape
        # forward_array still keeps what backward_input needs
        check_input_gradient(net, rng.uniform(0.3, 0.7, (16, 16, 2)),
                             rng.normal(size=(16, 16, 2)), rng, samples=6)

    def test_no_backward_after_forward(self):
        rng = np.random.default_rng(20)
        spec = ProjectionSpec(height=16, width=24, fov_up=0.05, fov_down=-0.4,
                              max_range=80.0)
        img = RangeImage(dist=rng.random((16, 24)), inten=rng.random((16, 24)),
                         mask=np.ones((16, 24), dtype=bool), spec=spec)
        net = small_net(c=4)
        with pytest.raises(RuntimeError, match="forward_array"):
            net.backward_input(np.ones((16, 24, 2)))
        net.forward_array(img.channels())
        net.forward(img)
        with pytest.raises(RuntimeError, match="forward_array"):
            net.backward_input(np.ones((16, 24, 2)))

    def test_forward_is_cropped_masked_forward_array(self):
        # forward keeps nothing for a backward, but computes the same values
        rng = np.random.default_rng(21)
        h, w = 13, 29
        spec = ProjectionSpec(height=h, width=w, fov_up=0.05, fov_down=-0.4,
                              max_range=80.0)
        mask = rng.random((h, w)) < 0.8
        img = RangeImage(dist=np.where(mask, rng.random((h, w)), 0.0),
                         inten=np.where(mask, rng.random((h, w)), 0.0),
                         mask=mask, spec=spec)
        net = small_net(c=4, cap=64)
        ow = net.outconv.w.value
        ow[...] = rng.normal(0.0, 0.5, ow.shape)
        out = net.forward(img)
        padded = np.pad(img.channels(), [(0, 3), (0, 3), (0, 0)], mode="reflect")
        full = net.forward_array(padded)[:h, :w]
        kept = mask & (full[..., 0] >= R.RESTORED_MASK_FLOOR)
        assert not kept.all() and kept.any()
        assert np.array_equal(out.mask, kept)
        assert np.array_equal(out.dist, np.where(kept, full[..., 0], 0.0))
        assert np.array_equal(out.inten, np.where(kept, full[..., 1], 0.0))


class TestLoss:
    def test_identical_images_zero(self):
        x = np.random.default_rng(0).random((4, 6, 2))
        value, grad = R.loss_l1(x, x)
        assert value == 0.0
        np.testing.assert_array_equal(np.abs(grad) <= 1.0 / 24, True)

    def test_constant_depth_offset(self):
        # depth channel off by 0.1 everywhere, intensity exact -> 0.1
        a = np.zeros((4, 6, 2))
        b = a.copy()
        b[..., 0] += 0.1
        value, _ = R.loss_l1(a, b)
        assert value == pytest.approx(0.1)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        a, b = rng.random((4, 4, 2)), rng.random((4, 4, 2))
        value, grad = R.loss_l1(a, b)
        expect = sum(abs(a[i, j, 0] - b[i, j, 0]) + abs(a[i, j, 1] - b[i, j, 1])
                     for i in range(4) for j in range(4)) / 16
        assert value == pytest.approx(expect, abs=1e-12)
        np.testing.assert_allclose(grad, np.sign(a - b) / 16, atol=1e-12)


def train_pairs(rng, n=3, h=16, w=32):
    """Smooth scene images under a global attenuation corruption."""
    spec = ProjectionSpec(height=h, width=w, fov_up=0.05, fov_down=-0.4,
                          max_range=80.0)
    yy, xx = np.mgrid[0:h, 0:w]
    pairs = []
    for _ in range(n):
        a, b = rng.uniform(0.2, 0.5), rng.uniform(0.1, 0.4)
        clean = np.clip(np.stack([a + 0.4 * xx / w + 0.1 * np.sin(yy / 3),
                                  b + 0.3 * np.cos(xx / 5)], axis=-1), 0, 1)
        noisy = clean.copy()
        noisy[..., 0] *= 0.7
        noisy[..., 1] *= 0.8
        mask = np.ones((h, w), dtype=bool)
        pairs.append((RangeImage(noisy[..., 0], noisy[..., 1], mask, spec),
                      RangeImage(clean[..., 0], clean[..., 1], mask, spec)))
    return pairs


class TestTraining:
    def test_single_pair_overfit_500_steps(self):
        rng = np.random.default_rng(14)
        pairs = train_pairs(rng, n=1)
        net = small_net(c=4, cap=64)
        opts = R.TrainOptions(lr=2e-3, epochs=500, patch=(16, 32), flips=False,
                              seed=0)
        start, _ = R.loss_l1(net.forward(pairs[0][0]).channels(), pairs[0][1].channels())
        curve = R.train(net, pairs, opts)
        assert len(curve) == 500
        assert curve[-1] < 0.01
        assert curve[-1] < start

    def test_deterministic_curves(self):
        rng = np.random.default_rng(15)
        pairs = train_pairs(rng, n=2)
        opts = R.TrainOptions(lr=1e-3, epochs=3, patch=(16, 32), seed=7)
        c1 = R.train(small_net(c=4, seed=1, cap=64), pairs, opts)
        c2 = R.train(small_net(c=4, seed=1, cap=64), pairs, opts)
        assert c1 == c2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_step(self):
        rng = np.random.default_rng(16)
        pairs = train_pairs(rng, n=1)
        net = small_net(c=4, cap=64)
        net.params()[0].value[...] = 1e200
        with pytest.raises(RuntimeError, match="step 0"):
            R.train(net, pairs, R.TrainOptions(epochs=1, patch=(16, 32)))

    @pytest.mark.parametrize("settings", [
        dict(epochs=0), dict(epochs=-1), dict(epochs=2.0), dict(epochs=True),
        dict(lr=math.nan), dict(lr=math.inf), dict(lr=0.0), dict(lr=-1e-3),
        dict(patch=(8, 64)), dict(patch=(12, 0)), dict(patch=(-5, 32)), dict(patch=(16,)),
        dict(patch=(16.0, 32)), dict(patch=16),
    ], ids=["epochs-0", "epochs-negative", "epochs-float", "epochs-bool",
            "lr-nan", "lr-inf", "lr-0", "lr-negative", "patch-8", "patch-12-0",
            "patch-negative", "patch-one-side", "patch-float", "patch-scalar"])
    def test_unusable_settings_rejected(self, settings):
        with pytest.raises(ValueError, match=f"^{next(iter(settings))} must be"):
            R.TrainOptions(**settings)

    @pytest.mark.parametrize("channels", [0, 1, 3, 7])
    def test_odd_or_tiny_base_channels_rejected(self, channels):
        # the decoder splits 2 * base_channels into four sub-bands
        with pytest.raises(ValueError, match="^base_channels must be even"):
            R.NetConfig(base_channels=channels)


class TestCheckpoint:
    def test_roundtrip_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(17)
        net = small_net(c=4, seed=3, cap=64)
        img = rand_img(rng, 16, 24)
        R.save_checkpoint(net, tmp_path / "net.ckpt")
        back = R.load_checkpoint(tmp_path / "net.ckpt")
        # save quantizes to float32; outputs agree to that precision
        np.testing.assert_allclose(back.forward_array(img),
                                   net.forward_array(img), atol=1e-5)
        for a, b in zip(net.params(), back.params()):
            assert a.name == b.name
            np.testing.assert_array_equal(b.value,
                                          a.value.astype(np.float32).astype(float))

    def test_format_pinned(self, tmp_path):
        # names, order, shapes and seeded initial values of all parameters:
        # a layer refactor that changes any of them changes these bytes
        R.save_checkpoint(R.ResLPRNet(R.NetConfig(base_channels=2, seed=0)),
                          tmp_path / "net.ckpt")
        blob = (tmp_path / "net.ckpt").read_bytes()
        assert len(blob) == 70832
        assert int.from_bytes(blob[8:12], "little") == 157
        assert hashlib.sha256(blob).hexdigest() == (
            "1270f1f42da0c000f53caa89ba9787acd60541bd7f9ea6c0553d284f1f7590cb")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            R.load_checkpoint(path)
