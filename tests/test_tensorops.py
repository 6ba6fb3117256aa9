import numpy as np
import pytest

from weatherlpr import tensorops as T


def check(analytic, f, x, tol=1e-6, step=1e-3):
    num = T.numeric_gradient(f, np.array(x, dtype=float), step=step)
    err = T.relative_error(analytic, num)
    assert err < tol, err


class TestConv2d:
    @pytest.mark.parametrize("groups", [1, 2])
    def test_gradcheck(self, groups):
        rng = np.random.default_rng(groups)
        x = rng.normal(size=(5, 6, 4))
        w = rng.normal(size=(3, 3, 4 // groups, 4), scale=0.3)
        b = rng.normal(size=4, scale=0.1)
        proj = rng.normal(size=(5, 6, 4))
        y, cache = T.conv2d(x, w, b, groups=groups)
        gx, gw, gb = T.conv2d_backward(cache, proj)
        check(gx, lambda v: np.sum(T.conv2d(v, w, b, groups=groups)[0] * proj), x)
        check(gw, lambda v: np.sum(T.conv2d(x, v, b, groups=groups)[0] * proj), w)
        check(gb, lambda v: np.sum(T.conv2d(x, w, v, groups=groups)[0] * proj), b)

    def test_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 5, 3))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[1, 1, c, c] = 1.0
        y, _ = T.conv2d(x, w, np.zeros(3))
        np.testing.assert_allclose(y, x, atol=1e-14)

    def test_reflect_padding_at_corner(self):
        x = np.arange(9.0).reshape(3, 3, 1)
        w = np.full((3, 3, 1, 1), 1.0 / 9.0)
        y, _ = T.conv2d(x, w, np.zeros(1))
        padded = np.pad(x[..., 0], 1, mode="reflect")
        assert y[0, 0, 0] == pytest.approx(padded[0:3, 0:3].mean())


class TestConvTranspose:
    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 6))
        w = rng.normal(size=(2, 2, 6, 2), scale=0.3)
        b = rng.normal(size=2, scale=0.1)
        proj = rng.normal(size=(6, 8, 2))
        _, cache = T.conv_transpose2x2(x, w, b)
        gx, gw, gb = T.conv_transpose2x2_backward(cache, proj)
        check(gx, lambda v: np.sum(T.conv_transpose2x2(v, w, b)[0] * proj), x)
        check(gw, lambda v: np.sum(T.conv_transpose2x2(x, v, b)[0] * proj), w)
        check(gb, lambda v: np.sum(T.conv_transpose2x2(x, w, v)[0] * proj), b)

    def test_upsamples_2x(self):
        y, _ = T.conv_transpose2x2(np.ones((3, 4, 2)), np.ones((2, 2, 2, 1)), np.zeros(1))
        assert y.shape == (6, 8, 1)
        np.testing.assert_allclose(y, 2.0)


class TestPointwise:
    def test_softmax_uniform(self):
        p, _ = T.softmax(np.zeros((2, 5)))
        np.testing.assert_allclose(p, 0.2)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 7))
        np.testing.assert_allclose(T.softmax(x)[0], T.softmax(x + 100.0)[0],
                                   atol=1e-12)

    def test_softmax_gradcheck(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 6))
        proj = rng.normal(size=(3, 6))
        _, cache = T.softmax(x)
        gx = T.softmax_backward(cache, proj)
        check(gx, lambda v: np.sum(T.softmax(v)[0] * proj), x)

    def test_gelu_gradcheck(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 4))
        proj = rng.normal(size=(4, 4))
        _, cache = T.gelu(x)
        gx = T.gelu_backward(cache, proj)
        check(gx, lambda v: np.sum(T.gelu(v)[0] * proj), x)

    def test_gap_constant(self):
        y, _ = T.gap(np.full((3, 5, 2), 4.0))
        np.testing.assert_allclose(y, 4.0)

    def test_gap_gradcheck(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 4, 2))
        proj = rng.normal(size=2)
        _, cache = T.gap(x)
        gx = T.gap_backward(cache, proj)
        check(gx, lambda v: np.sum(T.gap(v)[0] * proj), x)


class TestSoftmaxInPlace:
    def test_inputs_unmodified(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 7))
        gy = rng.normal(size=(4, 7))
        x0, gy0 = x.copy(), gy.copy()
        y, cache = T.softmax(x)
        y0 = y.copy()
        T.softmax_backward(cache, gy)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(gy, gy0)
        np.testing.assert_array_equal(y, y0)


class TestAttention:
    @pytest.mark.parametrize("prescaled", [True, False])
    def test_tiled_bit_equal_to_one_shot(self, prescaled):
        # 512 keys -> 512 query rows per tile: three full tiles and a ragged one
        rng = np.random.default_rng(13)
        n, d, m = 3 * 512 + 200, 32, 512
        assert T.ATTENTION_TILE // m == 512
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(m, d))
        v = rng.normal(size=(m, d))
        kt, scale = (k.T / np.sqrt(d), 1.0) if prescaled else (k.T, np.sqrt(d))
        p_ref, _ = T.softmax((q @ kt) / scale)
        y, (p, _) = T.attention(q, kt, v, scale)
        np.testing.assert_array_equal(y, p_ref @ v)
        np.testing.assert_array_equal(p, p_ref)
        y_infer, cache = T.attention(q, kt, v, scale, keep=False)
        np.testing.assert_array_equal(y_infer, y)
        assert cache is None

    def test_gradcheck_q_k_v(self):
        rng = np.random.default_rng(14)
        q = rng.normal(size=(5, 3))
        k = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 2))
        scale = np.sqrt(3.0)
        proj = rng.normal(size=(5, 2))
        _, cache = T.attention(q, k.T, v, scale)
        glog, gv = T.attention_backward(cache, proj)
        check(glog @ k / scale, lambda x: np.sum(T.attention(x, k.T, v, scale)[0] * proj), q)
        check(glog.T @ q / scale, lambda x: np.sum(T.attention(q, x.T, v, scale)[0] * proj), k)
        check(gv, lambda x: np.sum(T.attention(q, k.T, x, scale)[0] * proj), v)

    def test_backward_needs_kept_probabilities(self):
        _, cache = T.attention(np.ones((2, 3)), np.ones((3, 4)), np.ones((4, 2)), 1.0,
                               keep=False)
        with pytest.raises(RuntimeError):
            T.attention_backward(cache, np.ones((2, 2)))


class TestNorm:
    def test_layer_norm_moments(self):
        rng = np.random.default_rng(3)
        x = rng.normal(loc=5, scale=3, size=(10, 16))
        y = T.moment_norm(x, np.ones(16), np.zeros(16), axes=(-1,))[0]
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_gradcheck(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 8))
        g = rng.normal(size=8)
        b = rng.normal(size=8)
        proj = rng.normal(size=(4, 8))
        _, cache = T.moment_norm(x, g, b, axes=(-1,))
        gx, gg, gb = T.moment_norm_backward(cache, proj)
        check(gx, lambda v: np.sum(T.moment_norm(v, g, b, axes=(-1,))[0] * proj), x)
        check(gg, lambda v: np.sum(T.moment_norm(x, v, b, axes=(-1,))[0] * proj), g)
        check(gb, lambda v: np.sum(T.moment_norm(x, g, v, axes=(-1,))[0] * proj), b)

    def test_spatial_norm_gradcheck(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4, 2))
        g = rng.normal(size=2)
        b = rng.normal(size=2)
        proj = rng.normal(size=(3, 4, 2))
        _, cache = T.moment_norm(x, g, b, axes=(0, 1))
        gx, gg, gb = T.moment_norm_backward(cache, proj)
        check(gx, lambda v: np.sum(T.moment_norm(v, g, b, axes=(0, 1))[0] * proj), x)
        check(gg, lambda v: np.sum(T.moment_norm(x, v, b, axes=(0, 1))[0] * proj), g)
        check(gb, lambda v: np.sum(T.moment_norm(x, g, v, axes=(0, 1))[0] * proj), b)


class TestLinear:
    def test_gradcheck(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 5))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        proj = rng.normal(size=(6, 3))
        _, cache = T.linear(x, w, b)
        gx, gw, gb = T.linear_backward(cache, proj)
        check(gx, lambda v: np.sum(T.linear(v, w, b)[0] * proj), x)
        check(gw, lambda v: np.sum(T.linear(x, v, b)[0] * proj), w)
        check(gb, lambda v: np.sum(T.linear(x, w, v)[0] * proj), b)


class TestHarness:
    def test_numeric_gradient_on_quadratic(self):
        # known-gradient self-check of the finite-difference harness
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = np.array([1.5, -0.5])
        num = T.numeric_gradient(lambda v: 0.5 * v @ A @ v, x)
        np.testing.assert_allclose(num, A @ x, atol=1e-8)

    def test_relative_error(self):
        assert T.relative_error(np.ones(3), np.ones(3)) == 0.0
        assert T.relative_error(np.ones(3), 1.001 * np.ones(3)) < 2e-3
