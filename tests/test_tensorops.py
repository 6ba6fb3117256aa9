import math

import numpy as np
import pytest

from weatherlpr import tensorops as T

from helpers import (grouped_conv2d, grouped_conv2d_backward, numeric_gradient,
                     pad_reflect_backward_add_at, relative_error)


def check(analytic, f, x, tol=1e-6, step=1e-3):
    num = numeric_gradient(f, np.array(x, dtype=float), step=step)
    err = relative_error(analytic, num)
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

    # (H, W, Cin, Cout, groups, k): the grouped convolutions of the 64x1920
    # restoration and of train-fog's 48x128 patches, an odd shape, 1x1 ungrouped
    @pytest.mark.parametrize("shape", [
        (32, 960, 32, 32, 16, 3), (16, 480, 64, 64, 32, 3), (8, 240, 128, 128, 64, 3),
        (8, 240, 32, 32, 16, 3), (16, 480, 16, 16, 8, 3), (64, 1920, 8, 8, 4, 3),
        (24, 64, 32, 32, 16, 3), (12, 32, 64, 64, 32, 3), (6, 16, 128, 128, 64, 3),
        (6, 16, 32, 32, 16, 3), (12, 32, 16, 16, 8, 3), (48, 128, 8, 8, 4, 3),
        (13, 29, 6, 6, 3, 3), (6, 16, 16, 32, 1, 1),
    ], ids=str)
    def test_bit_equal_to_per_group_products(self, shape):
        # one block-diagonal product per tap adds exact zeros to each
        # output's sum over input channels, so it keeps the per-group bits
        H, W, cin, cout, groups, k = shape
        rng = np.random.default_rng(cin + groups)
        x = rng.normal(size=(H, W, cin))
        w = rng.normal(size=(k, k, cin // groups, cout))
        b = rng.normal(size=cout)
        gy = rng.normal(size=(H, W, cout))
        y, cache = T.conv2d(x, w, b, groups)
        y_ref, cache_ref = grouped_conv2d(x, w, b, groups)
        assert _bits_equal(y, y_ref)
        for got, want in zip(T.conv2d_backward(cache, gy),
                             grouped_conv2d_backward(cache_ref, gy)):
            assert _bits_equal(got, want)

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


class TestPadReflect:
    @pytest.mark.parametrize("pads", [(1, 1), (0, 1), (1, 0)], ids=str)
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_backward_bit_equal_to_add_at(self, h, w, pads):
        # slice adds in np.add.at's order keep its bits, the sign of a sum
        # of zeros included: 0.0 + -0.0 is 0.0
        rng = np.random.default_rng(10 * h + w)
        xp, cache = T.pad_reflect(rng.normal(size=(h, w, 3)), *pads)
        gpad = rng.normal(size=xp.shape)
        gpad[rng.random(xp.shape) < 0.3] = -0.0
        gpad[pads] = -0.0  # gx[0, 0]'s one source when both extents are > 1
        assert _bits_equal(T.pad_reflect_backward(cache, gpad),
                           pad_reflect_backward_add_at(cache, gpad))


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

    def test_out_is_input_gives_the_same_bits(self):
        x = _pointwise_input(14).reshape(-1, 8)
        y, _ = T.softmax(x)
        y_in, cache = T.softmax(x, out=x)
        assert y_in is x and cache is x
        assert _bits_equal(x, y)

    @pytest.mark.parametrize("shape", [(3 * (T.ATTENTION_TILE // 256) + 100, 256),
                                       (3 * 1024 + 7,)], ids=["rows", "1d"])
    def test_backward_in_blocks_gives_the_one_shot_bits(self, shape):
        # rows: three full blocks of rows and a ragged one; 1d: one softmax
        # longer than a tile's row count (the context guide's probabilities
        # at a large n_contexts), which must stay one block. Into a new array
        # and into the gradient itself, against (gy - sum(gy * y)) * y
        rng = np.random.default_rng(15)
        y, _ = T.softmax(rng.normal(size=shape))
        gy = rng.normal(size=y.shape)
        want = (gy - (gy * y).sum(axis=-1, keepdims=True)) * y
        assert _bits_equal(T.softmax_backward(y, gy), want)
        got = T.softmax_backward(y, gy, out=gy)
        assert got is gy and _bits_equal(got, want)


def _bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _pointwise_input(seed):
    # normal draws at three scales plus signed zeros, tiny and saturating values
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 10, 8)) * rng.choice([0.1, 1.0, 4.0], size=(6, 10, 8))
    x.reshape(-1)[:6] = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0]
    return x


class TestBuffersReused:
    """The in-place forwards do the arithmetic of their former one-line
    expressions, kept here as the references, in the same order."""

    @pytest.mark.parametrize("keep", [True, False])
    def test_gelu_bit_equal_to_expression(self, keep):
        x = _pointwise_input(30)
        t_ref = np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3))
        y_ref = 0.5 * x * (1.0 + t_ref)
        y, cache = T.gelu(x, keep=keep)
        assert _bits_equal(y, y_ref)
        if keep:
            assert cache[0] is x and _bits_equal(cache[1], t_ref)
        else:
            assert cache is None

    @pytest.mark.parametrize("size", [1, T.GELU_BLOCK - 1, T.GELU_BLOCK,
                                      T.GELU_BLOCK + 1, 3 * T.GELU_BLOCK + 17])
    def test_gelu_blocks_bit_equal_to_expression(self, size):
        # whole, ragged and single-element blocks of signed zeros, negatives
        # and |x| > 10, written into a new array or into x itself
        rng = np.random.default_rng(34)
        x = rng.normal(size=size) * rng.choice([0.1, 1.0, 4.0, 15.0], size=size)
        x[::13], x[1::13] = 0.0, -0.0
        t_ref = np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3))
        y_ref = 0.5 * x * (1.0 + t_ref)
        y, cache = T.gelu(x, keep=False)
        assert y is not x and cache is None and _bits_equal(y, y_ref)
        y, _ = T.gelu(x, keep=False, out=x)
        assert y is x and _bits_equal(x, y_ref)

    def test_gelu_out_must_fit(self):
        x = np.ones((4, 6))
        with pytest.raises(T.ShapeError):
            T.gelu(x, keep=False, out=np.empty((6, 4)).T)
        with pytest.raises(ValueError):
            T.gelu(x, keep=True, out=x)

    @pytest.mark.parametrize("axes", [(-1,), (0, 1)])
    def test_moment_norm_bit_equal_to_expression(self, axes):
        rng = np.random.default_rng(31)
        x = rng.normal(loc=3.0, scale=2.0, size=(6, 10, 8))
        gain, bias = rng.normal(size=8), rng.normal(size=8)
        mu = x.mean(axis=axes, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=axes, keepdims=True)
        s_ref = np.sqrt(var + T.EPS_NORM)
        xhat_ref = (x - mu) / s_ref
        y, (xhat, s, _, _) = T.moment_norm(x, gain, bias, axes)
        assert _bits_equal(y, xhat_ref * gain + bias)
        assert _bits_equal(xhat, xhat_ref) and _bits_equal(s, s_ref)

    @pytest.mark.parametrize("shape", [(6, 10, 8), (8,)])
    def test_linear_bit_equal_to_expression(self, shape):
        rng = np.random.default_rng(32)
        x = rng.normal(size=shape)
        w, b = rng.normal(size=(8, 5)), rng.normal(size=5)
        y, _ = T.linear(x, w, b)
        assert _bits_equal(y, x @ w + b)


def _forward_calls(rng):
    """(name, call, inputs) for every tensorops forward."""
    x = rng.normal(size=(6, 8, 4))
    w3, b4 = rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4)
    wt, bt = rng.normal(size=(2, 2, 4, 3)), rng.normal(size=3)
    wl = rng.normal(size=(4, 5))
    b5 = rng.normal(size=5)
    g4 = rng.normal(size=4)
    q, k, v = rng.normal(size=(7, 3)), rng.normal(size=(3, 5)), rng.normal(size=(5, 2))
    return [
        ("pad_reflect", lambda: T.pad_reflect(x, 1, 2), [x]),
        ("conv2d", lambda: T.conv2d(x, w3, b4, groups=2), [x, w3, b4]),
        ("conv_transpose2x2", lambda: T.conv_transpose2x2(x, wt, bt), [x, wt, bt]),
        ("linear", lambda: T.linear(x, wl, b5), [x, wl, b5]),
        ("softmax", lambda: T.softmax(x), [x]),
        ("attention", lambda: T.attention(q, k, v, 1.5), [q, k, v]),
        ("attention_no_keep", lambda: T.attention(q, k, v, 1.5, keep=False), [q, k, v]),
        ("moment_norm_layer", lambda: T.moment_norm(x, g4, b4, (-1,)), [x, g4, b4]),
        ("moment_norm_spatial", lambda: T.moment_norm(x, g4, b4, (0, 1)), [x, g4, b4]),
        ("gap", lambda: T.gap(x), [x]),
        ("gelu", lambda: T.gelu(x), [x]),
        ("gelu_no_keep", lambda: T.gelu(x, keep=False), [x]),
    ]


def test_every_forward_leaves_its_inputs_unchanged():
    for name, call, inputs in _forward_calls(np.random.default_rng(33)):
        before = [a.tobytes() for a in inputs]
        call()
        assert [a.tobytes() for a in inputs] == before, name


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
        num = numeric_gradient(lambda v: 0.5 * v @ A @ v, x)
        np.testing.assert_allclose(num, A @ x, atol=1e-8)

    def test_relative_error(self):
        assert relative_error(np.ones(3), np.ones(3)) == 0.0
        assert relative_error(np.ones(3), 1.001 * np.ones(3)) < 2e-3
