import numpy as np
import pytest

from weatherlpr.wavelet import dwt2, idwt2, synthesis_kernel


def rand_img(rng, h=8, w=12, c=3):
    return rng.normal(size=(h, w, c))


def bands(stack):
    """The (LL, LH, HL, HH) channel blocks of a dwt2 stack."""
    return np.split(stack, 4, axis=-1)


class TestForward:
    def test_constant_map(self):
        x = np.full((4, 4, 1), 7.0)
        ll, *details = bands(dwt2(x))
        np.testing.assert_allclose(ll, 14.0)
        for band in details:
            np.testing.assert_allclose(band, 0.0, atol=1e-15)

    def test_single_block_example(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0]]).reshape(2, 2, 1)
        sub = dwt2(x)
        assert sub.shape == (1, 1, 4)
        np.testing.assert_allclose(sub[0, 0], 0.5)

    def test_band_order_pinned(self):
        # channels are [LL, LH, HL, HH]: the encoder's mixing weights and the
        # decoder's synthesis kernel both rest on this order
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        np.testing.assert_array_equal(dwt2(x)[0, 0], [5.0, -1.0, -2.0, 0.0])
        two = np.stack([x[..., 0], 10 * x[..., 0]], axis=-1)
        np.testing.assert_array_equal(dwt2(two)[0, 0],
                                      [5.0, 50.0, -1.0, -10.0, -2.0, -20.0, 0.0, 0.0])

    def test_energy_preservation(self):
        rng = np.random.default_rng(0)
        x = rand_img(rng)
        e = np.sum(dwt2(x) ** 2)
        assert e == pytest.approx(np.sum(x ** 2), rel=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rand_img(rng), rand_img(rng)
        a, b = 2.5, -1.25
        np.testing.assert_allclose(dwt2(a * x + b * y), a * dwt2(x) + b * dwt2(y),
                                   atol=1e-12)

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            dwt2(np.zeros((3, 4, 1)))
        with pytest.raises(ValueError):
            dwt2(np.zeros((4, 4)))


class TestInverse:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        x = rand_img(rng, 16, 10, 2)
        np.testing.assert_allclose(idwt2(dwt2(x)), x, atol=1e-12)

    def test_ll_only_gives_block_replication(self):
        rng = np.random.default_rng(3)
        sub = dwt2(rand_img(rng))
        ll = bands(sub)[0]
        smooth = idwt2(np.concatenate([ll, np.zeros_like(sub[..., ll.shape[-1]:])], axis=-1))
        # each 2x2 block is the constant LL/2
        np.testing.assert_allclose(smooth[0::2, 0::2], ll / 2, atol=1e-12)
        np.testing.assert_allclose(smooth[1::2, 0::2], ll / 2, atol=1e-12)
        np.testing.assert_allclose(smooth[0::2, 1::2], ll / 2, atol=1e-12)
        np.testing.assert_allclose(smooth[1::2, 1::2], ll / 2, atol=1e-12)


class TestSynthesisKernel:
    def test_matches_idwt2(self):
        rng = np.random.default_rng(5)
        c = 3
        stacked = dwt2(rand_img(rng, 6, 8, c))
        k = synthesis_kernel(c)
        h, w = stacked.shape[:2]
        out = np.zeros((2 * h, 2 * w, c))
        for i in range(2):
            for j in range(2):
                out[i::2, j::2] = stacked @ k[i, j]
        np.testing.assert_allclose(out, idwt2(stacked), atol=1e-12)

    @pytest.mark.parametrize("c", [1, 3, 8])
    def test_equals_one_idwt2_per_channel(self, c):
        # the kernel's one batched idwt2 call against one call per input channel
        reference = np.stack([idwt2(e.reshape(1, 1, -1)) for e in np.eye(4 * c)], axis=2)
        k = synthesis_kernel(c)
        assert k.shape == (2, 2, 4 * c, c) and k.flags.c_contiguous
        np.testing.assert_array_equal(k, reference)
