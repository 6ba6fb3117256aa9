import numpy as np
import pytest

from weatherlpr.wavelet import dwt2, idwt2, synthesis_kernel


def rand_img(rng, h=8, w=12, c=3):
    return rng.normal(size=(h, w, c))


class TestForward:
    def test_constant_map(self):
        x = np.full((4, 4, 1), 7.0)
        sub = dwt2(x)
        np.testing.assert_allclose(sub.ll, 14.0)
        for band in (sub.lh, sub.hl, sub.hh):
            np.testing.assert_allclose(band, 0.0, atol=1e-15)

    def test_single_block_example(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0]]).reshape(2, 2, 1)
        sub = dwt2(x)
        assert sub.ll[0, 0, 0] == pytest.approx(0.5)
        assert sub.lh[0, 0, 0] == pytest.approx(0.5)
        assert sub.hl[0, 0, 0] == pytest.approx(0.5)
        assert sub.hh[0, 0, 0] == pytest.approx(0.5)

    def test_energy_preservation(self):
        rng = np.random.default_rng(0)
        x = rand_img(rng)
        sub = dwt2(x)
        e = sum(np.sum(b ** 2) for b in (sub.ll, sub.lh, sub.hl, sub.hh))
        assert e == pytest.approx(np.sum(x ** 2), rel=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rand_img(rng), rand_img(rng)
        a, b = 2.5, -1.25
        sab = dwt2(a * x + b * y)
        sx, sy = dwt2(x), dwt2(y)
        np.testing.assert_allclose(sab.ll, a * sx.ll + b * sy.ll, atol=1e-12)
        np.testing.assert_allclose(sab.hh, a * sx.hh + b * sy.hh, atol=1e-12)

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            dwt2(np.zeros((3, 4, 1)))


class TestInverse:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        x = rand_img(rng, 16, 10, 2)
        np.testing.assert_allclose(idwt2(dwt2(x)), x, atol=1e-12)

    def test_ll_only_gives_block_replication(self):
        rng = np.random.default_rng(3)
        sub = dwt2(rand_img(rng))
        zeros = np.zeros_like(sub.lh)
        smooth = idwt2(type(sub)(sub.ll, zeros, zeros, zeros))
        # each 2x2 block is the constant LL/2
        np.testing.assert_allclose(smooth[0::2, 0::2], sub.ll / 2, atol=1e-12)
        np.testing.assert_allclose(smooth[1::2, 0::2], sub.ll / 2, atol=1e-12)
        np.testing.assert_allclose(smooth[0::2, 1::2], sub.ll / 2, atol=1e-12)
        np.testing.assert_allclose(smooth[1::2, 1::2], sub.ll / 2, atol=1e-12)


class TestSynthesisKernel:
    def test_matches_idwt2(self):
        rng = np.random.default_rng(5)
        c = 3
        sub = dwt2(rand_img(rng, 6, 8, c))
        stacked = np.concatenate([sub.ll, sub.lh, sub.hl, sub.hh], axis=-1)
        k = synthesis_kernel(c)
        h, w = stacked.shape[:2]
        out = np.zeros((2 * h, 2 * w, c))
        for i in range(2):
            for j in range(2):
                out[i::2, j::2] = stacked @ k[i, j]
        np.testing.assert_allclose(out, idwt2(sub), atol=1e-12)
