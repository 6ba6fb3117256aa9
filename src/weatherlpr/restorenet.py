"""Toy-scale trainable restoration network for weather-corrupted range images.

Three-layer encoder/decoder of WaveTransformer blocks around a bottleneck
transformer, with ContextGuide blocks in the decoder and skip connections.
Every layer implements its own backward rule; no autodiff framework is used.
The network operates on a single (H, W, 2) range image at a time and predicts
a residual added to the input, clamped to [0, 1].
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensorops as ops
from . import wavelet
from .pointcloud import RangeImage, ScanParseError, read_exact

_CKPT_MAGIC = b"WLCK"
_CKPT_VERSION = 1

RESTORED_MASK_FLOOR = 0.01  # restored pixels with d below this read as empty


@dataclass(frozen=True)
class NetConfig:
    base_channels: int = 8
    n_contexts: int = 3          # one context embedding per weather type
    attn_token_cap: int = 512    # keys/values are strided-pooled past this
    seed: int = 0

    def __post_init__(self):
        # the decoder's input, 2 * base_channels, must divide by 4
        if self.base_channels < 2 or self.base_channels % 2:
            raise ValueError(f"base_channels must be even and >= 2, got {self.base_channels!r}")
        if self.n_contexts < 1:
            raise ValueError("n_contexts must be >= 1")
        if self.attn_token_cap < 1:
            raise ValueError("attn_token_cap must be >= 1")


class Param:
    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


def _init(rng, shape, fan_in):
    return rng.normal(0.0, 0.5 / math.sqrt(fan_in), size=shape)


class OpLayer:
    """A tensorops op with a weight and a bias: ``forward`` calls ``ops.<op>``
    and ``backward`` calls ``ops.<op>_backward``, both looked up at call time
    so that a wrapper put on a tensorops function sees every layer's calls.
    ``kw`` holds the op's remaining keyword arguments."""

    def __init__(self, op, w: Param, b: Param, **kw):
        self.op, self.w, self.b, self.kw = op, w, b, kw

    def forward(self, x, keep=True):
        y, cache = getattr(ops, self.op)(x, self.w.value, self.b.value, **self.kw)
        self._cache = cache if keep else None
        return y

    def backward(self, gy):
        gx, gw, gb = getattr(ops, f"{self.op}_backward")(self._cache, gy)
        self.w.grad += gw
        self.b.grad += gb
        return gx

    def params(self):
        return [self.w, self.b]


def Conv2d(rng, cin, cout, k=3, groups=1, name="conv", w_init=None):
    """Same-size convolution layer with reflect padding."""
    fan = k * k * (cin // groups)
    w = w_init if w_init is not None else _init(rng, (k, k, cin // groups, cout), fan)
    return OpLayer("conv2d", Param(f"{name}.w", w), Param(f"{name}.b", np.zeros(cout)),
                   groups=groups)


def ConvTranspose2x2(cout, name="up"):
    """Stride-2 transposed convolution from 4 * cout channels, initialized to
    the exact wavelet synthesis filters."""
    w = wavelet.synthesis_kernel(cout)
    return OpLayer("conv_transpose2x2", Param(f"{name}.w", w),
                   Param(f"{name}.b", np.zeros(cout)))


def Linear(rng, cin, cout, name="fc"):
    return OpLayer("linear", Param(f"{name}.w", _init(rng, (cin, cout), cin)),
                   Param(f"{name}.b", np.zeros(cout)))


def Norm(channels, axes, name="norm"):
    """Per-channel affine normalization over the given axes."""
    return OpLayer("moment_norm", Param(f"{name}.g", np.ones(channels)),
                   Param(f"{name}.b", np.zeros(channels)), axes=axes)


def _pool_stride(n_tokens: int, cap: int) -> int:
    return max(1, -(-n_tokens // cap))  # ceil division


class FeatureMix:
    """Spatial mixing (parameter-free self-attention over positions) followed
    by channel mixing (grouped conv, normalization, channel FC)."""

    def __init__(self, rng, channels, token_cap, name="mix"):
        if channels % 2:
            raise ValueError("channel mixing with group size 2 needs even channels")
        self.cap = token_cap
        self.gconv = Conv2d(rng, channels, channels, k=3, groups=channels // 2,
                            name=f"{name}.gconv")
        self.norm = Norm(channels, axes=(0, 1), name=f"{name}.bn")
        self.fc = Linear(rng, channels, channels, name=f"{name}.fc")

    def forward(self, x, keep=True):
        h, w, c = x.shape
        t = x.reshape(-1, c)
        stride = _pool_stride(t.shape[0], self.cap)
        tk = t[::stride]
        # keys scaled before the product (TransformerFuse scales after it):
        # the two orders round differently, and training amplifies that
        s, acache = ops.attention(t, tk.T / math.sqrt(c), tk, 1.0, keep=keep)
        self._attn_cache = (t, tk, acache, stride, (h, w, c)) if keep else None
        fs = s.reshape(h, w, c)
        out = self.fc.forward(self.norm.forward(self.gconv.forward(fs, keep), keep), keep)
        return out

    def backward(self, gy):
        gfs = self.gconv.backward(self.norm.backward(self.fc.backward(gy)))
        t, tk, acache, stride, (h, w, c) = self._attn_cache
        glog, gtk = ops.attention_backward(acache, gfs.reshape(-1, c))
        gt = glog @ tk / math.sqrt(c)
        gtk += glog.T @ t / math.sqrt(c)
        gt[::stride] += gtk
        return gt.reshape(h, w, c)

    def params(self):
        return self.gconv.params() + self.norm.params() + self.fc.params()


class TransformerFuse:
    """Cross-attention fusion: Q from F_w, K/V from F_c, then layer norm and
    a two-layer FFN with residual connections."""

    def __init__(self, rng, channels, token_cap, name="fuse"):
        c = channels
        self.cap = token_cap
        self.wq = Linear(rng, c, c, name=f"{name}.wq")
        self.wk = Linear(rng, c, c, name=f"{name}.wk")
        self.wv = Linear(rng, c, c, name=f"{name}.wv")
        self.norm = Norm(c, axes=(-1,), name=f"{name}.ln")
        self.ff1 = Linear(rng, c, 2 * c, name=f"{name}.ff1")
        self.ff2 = Linear(rng, 2 * c, c, name=f"{name}.ff2")

    def forward(self, fw, fc, keep=True):
        if fw.shape != fc.shape:
            raise ValueError(f"fuse inputs differ: {fw.shape} vs {fc.shape}")
        fatt = self.norm.forward(self._attend(fw, fc, keep), keep)
        hact, gcache = ops.gelu(self.ff1.forward(fatt, keep), keep=keep)
        out = self.ff2.forward(hact, keep)
        out += fatt
        self._gelu_cache = gcache
        return out

    def _attend(self, fw, fc, keep):
        """fw plus its cross-attention over fc, the pre-norm sum. Only the
        pooled keys and values outlive their projections, and q outlives
        the attention only when ``keep`` is set."""
        h, w, c = fw.shape
        stride = _pool_stride(h * w, self.cap)
        kp = self.wk.forward(fc, keep).reshape(-1, c)[::stride].copy()
        vp = self.wv.forward(fc, keep).reshape(-1, c)[::stride].copy()
        q = self.wq.forward(fw, keep).reshape(-1, c)
        attn, acache = ops.attention(q, kp.T, vp, math.sqrt(c), keep=keep)
        self._attn_cache = (q, kp, acache, stride, (h, w, c)) if keep else None
        attn = attn.reshape(h, w, c)
        attn += fw
        return attn

    def backward(self, gy):
        q, kp, acache, stride, (h, w, c) = self._attn_cache
        gfatt = gy + self.ff1.backward(ops.gelu_backward(self._gelu_cache,
                                                         self.ff2.backward(gy)))
        gsum = self.norm.backward(gfatt)
        gfw = gsum.copy()
        glog, gvp = ops.attention_backward(acache, gsum.reshape(-1, c))
        gq = glog @ kp / math.sqrt(c)
        gkp = glog.T @ q / math.sqrt(c)
        gk = np.zeros((h * w, c))
        gv = np.zeros((h * w, c))
        gk[::stride] = gkp
        gv[::stride] = gvp
        gfw += self.wq.backward(gq.reshape(h, w, c))
        gfc = self.wk.backward(gk.reshape(h, w, c))
        gfc += self.wv.backward(gv.reshape(h, w, c))
        return gfw, gfc

    def params(self):
        return (self.wq.params() + self.wk.params() + self.wv.params()
                + self.norm.params() + self.ff1.params() + self.ff2.params())


class ContextGuide:
    """Learnable context-embedding mixture added to decoder features."""

    def __init__(self, rng, channels, n_contexts, name="ctg"):
        self.c = channels
        self.fc = Linear(rng, channels, n_contexts, name=f"{name}.fc")
        self.ce = Param(f"{name}.ce", _init(rng, (n_contexts, channels), channels))
        self.mlp = Linear(rng, channels, channels, name=f"{name}.mlp")

    def forward(self, x, keep=True):
        pooled, gap_cache = ops.gap(x)
        logits = self.fc.forward(pooled, keep)
        w, sm_cache = ops.softmax(logits)
        ctx = w @ self.ce.value            # (c,)
        fcb = self.mlp.forward(ctx, keep)
        self._cache = (gap_cache, sm_cache, w) if keep else None
        return x + fcb[None, None, :]

    def weights(self, x):
        """Softmax mixture weights for an input (diagnostic). Stores nothing,
        so a call between ``forward`` and ``backward`` leaves the gradients."""
        pooled, _ = ops.gap(x)
        logits, _ = ops.linear(pooled, self.fc.w.value, self.fc.b.value)
        w, _ = ops.softmax(logits)
        return w

    def backward(self, gy):
        gap_cache, sm_cache, w = self._cache
        gfcb = gy.sum(axis=(0, 1))
        gctx = self.mlp.backward(gfcb)
        self.ce.grad += np.outer(w, gctx)
        gw = self.ce.value @ gctx
        glog = ops.softmax_backward(sm_cache, gw)
        gpooled = self.fc.backward(glog)
        gx = gy + ops.gap_backward(gap_cache, gpooled)
        return gx

    def params(self):
        return self.fc.params() + [self.ce] + self.mlp.params()


class WatEncodeBlock:
    """DWT sub-band stack -> feature mixing -> transformer fuse ->
    channel-growth projection; halves spatial dims, doubles channels."""

    def __init__(self, rng, cin, token_cap, name="enc"):
        self.mix = FeatureMix(rng, 4 * cin, token_cap, name=f"{name}.mix")
        self.fuse = TransformerFuse(rng, 4 * cin, token_cap, name=f"{name}.fuse")
        self.proj = Conv2d(rng, 4 * cin, 2 * cin, k=1, name=f"{name}.proj")

    def forward(self, x, keep=True):
        fws = wavelet.dwt2(x)
        fc = self.mix.forward(fws, keep)
        fwb = self.fuse.forward(fws, fc, keep)
        return self.proj.forward(fwb, keep)

    def backward(self, gy):
        gfwb = self.proj.backward(gy)
        gfws, gfc = self.fuse.backward(gfwb)
        gfws += self.mix.backward(gfc)
        # orthonormal transform: the adjoint of dwt2 is idwt2
        return wavelet.idwt2(gfws)

    def params(self):
        return self.mix.params() + self.fuse.params() + self.proj.params()


class WatDecodeBlock:
    """Synthesis-initialized transposed-conv upsampling -> channel projection
    -> skip add -> feature mixing -> transformer fuse; doubles spatial dims,
    halves channels."""

    def __init__(self, rng, cin, token_cap, name="dec"):
        if cin % 4:
            raise ValueError("decoder input channels must be divisible by 4")
        cout = cin // 2
        self.upsample = ConvTranspose2x2(cin // 4, name=f"{name}.up")
        self.proj = Conv2d(rng, cin // 4, cout, k=1, name=f"{name}.proj")
        self.mix = FeatureMix(rng, cout, token_cap, name=f"{name}.mix")
        self.fuse = TransformerFuse(rng, cout, token_cap, name=f"{name}.fuse")

    def forward(self, x, skip, keep=True):
        merged = self.proj.forward(self.upsample.forward(x, keep), keep)
        if merged.shape != skip.shape:
            raise ValueError(f"skip shape {skip.shape} != decoder path {merged.shape}")
        merged += skip
        fc = self.mix.forward(merged, keep)
        return self.fuse.forward(merged, fc, keep)

    def backward(self, gy):
        gmerged, gfc = self.fuse.backward(gy)
        gmerged += self.mix.backward(gfc)
        gskip = gmerged.copy()
        gx = self.upsample.backward(self.proj.backward(gmerged))
        return gx, gskip

    def params(self):
        return (self.upsample.params() + self.proj.params()
                + self.mix.params() + self.fuse.params())


class ResLPRNet:
    """Hierarchical encoder-decoder restoration network, toy scale."""

    def __init__(self, config: NetConfig = NetConfig()):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c, cap = config.base_channels, config.attn_token_cap
        self.embed = Conv2d(rng, 2, c, k=3, name="embed")
        self.encoders = [
            WatEncodeBlock(rng, c, cap, name="enc0"),
            WatEncodeBlock(rng, 2 * c, cap, name="enc1"),
            WatEncodeBlock(rng, 4 * c, cap, name="enc2"),
        ]
        self.bottleneck = TransformerFuse(rng, 8 * c, cap, name="bottleneck")
        self.decoders = [
            WatDecodeBlock(rng, 8 * c, cap, name="dec0"),
            WatDecodeBlock(rng, 4 * c, cap, name="dec1"),
            WatDecodeBlock(rng, 2 * c, cap, name="dec2"),
        ]
        self.guides = [
            ContextGuide(rng, 4 * c, config.n_contexts, name="ctg0"),
            ContextGuide(rng, 2 * c, config.n_contexts, name="ctg1"),
            ContextGuide(rng, c, config.n_contexts, name="ctg2"),
        ]
        # identity-initialized residual path: the untrained net is a no-op
        self.outconv = Conv2d(rng, c, 2, k=3, name="out",
                              w_init=np.zeros((3, 3, c, 2)))
        self._clip_mask = None  # set by forward_array when a backward may follow

    def params(self):
        out = self.embed.params()
        for m in self.encoders:
            out += m.params()
        out += self.bottleneck.params()
        for d, g in zip(self.decoders, self.guides):
            out += d.params() + g.params()
        out += self.outconv.params()
        return out

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    def encode(self, f0, keep=True):
        """Encoder + bottleneck; returns (bottleneck features, skip list)."""
        skips = [f0]
        x = f0
        for enc in self.encoders:
            x = enc.forward(x, keep)
            skips.append(x)
        return self.bottleneck.forward(x, x, keep), skips

    def forward_array(self, img: np.ndarray, keep=True) -> np.ndarray:
        """(H, W, 2) -> (H, W, 2); H, W must be divisible by 8 (the public
        forward() pads and crops transparently). With ``keep`` off no layer
        stores backward state, so no backward_input may follow."""
        h, w, _ = img.shape
        if h % 8 or w % 8:
            raise ValueError(f"spatial dims must be divisible by 8, got {h}x{w}")
        if h < 16 or w < 16:
            raise ValueError(f"spatial dims must be at least 16, got {h}x{w}")
        f0 = self.embed.forward(img, keep)
        x, skips = self.encode(f0, keep)
        for k, (dec, ctg) in enumerate(zip(self.decoders, self.guides)):
            x = dec.forward(x, skips[2 - k], keep)
            x = ctg.forward(x, keep)
        delta = self.outconv.forward(x, keep)
        pre = img + delta
        self._clip_mask = ((pre >= 0.0) & (pre <= 1.0)) if keep else None
        return np.clip(pre, 0.0, 1.0)

    def backward_input(self, gy: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads for the last forward_array call;
        returns the gradient with respect to the input image."""
        if self._clip_mask is None:
            raise RuntimeError("backward_input follows only a forward_array call "
                               "that kept its backward state")
        g = gy * self._clip_mask
        gimg = g.copy()  # residual path
        gx = self.outconv.backward(g)
        # decoder k consumed skip 2 - k, so reversed they yield skip grads in order
        gskips = []
        for dec, ctg in zip(self.decoders[::-1], self.guides[::-1]):
            gx, gskip = dec.backward(ctg.backward(gx))
            gskips.append(gskip)
        ga, gb = self.bottleneck.backward(gx)
        gx = ga + gb
        for enc, gskip in zip(self.encoders[::-1], gskips[::-1]):
            gx = enc.backward(gx) + gskip
        gimg += self.embed.backward(gx)
        return gimg

    def forward(self, img: RangeImage) -> RangeImage:
        """Restore a range image; pads to /8-divisible extents and crops.

        For inference: no layer keeps backward state, so a backward_input
        call after it raises RuntimeError. Training calls forward_array
        instead.
        """
        arr = img.channels()
        h, w, _ = arr.shape
        ph, pw = (-h) % 8, (-w) % 8
        if ph or pw:
            arr = np.pad(arr, [(0, ph), (0, pw), (0, 0)], mode="reflect")
        out = self.forward_array(arr, keep=False)[:h, :w]
        dist, inten = out[..., 0], out[..., 1]
        # restoration can drop returns (floor) but never invent them: pixels
        # empty in the input stay empty
        mask = img.mask & (dist >= RESTORED_MASK_FLOOR)
        return RangeImage(dist=np.where(mask, dist, 0.0),
                          inten=np.where(mask, inten, 0.0),
                          mask=mask, spec=img.spec)


def loss_l1(pred: np.ndarray, clean: np.ndarray):
    """Mean absolute error over pixels: (1/N) sum(|d - d^| + |i - i^|).

    N is the pixel count; both channels contribute per pixel. Returns
    (loss, gradient wrt pred).
    """
    if pred.shape != clean.shape:
        raise ValueError(f"loss shapes differ: {pred.shape} vs {clean.shape}")
    n_px = pred.shape[0] * pred.shape[1]
    diff = pred - clean
    value = float(np.abs(diff).sum() / n_px)
    grad = np.sign(diff) / n_px
    return value, grad


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params, lr):
        self.params, self.lr = params, lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self):
        self.t += 1
        for k, p in enumerate(self.params):
            self.m[k] = ADAM_BETA1 * self.m[k] + (1 - ADAM_BETA1) * p.grad
            self.v[k] = ADAM_BETA2 * self.v[k] + (1 - ADAM_BETA2) * p.grad ** 2
            mhat = self.m[k] / (1 - ADAM_BETA1 ** self.t)
            vhat = self.v[k] / (1 - ADAM_BETA2 ** self.t)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


@dataclass(frozen=True)
class TrainOptions:
    lr: float = 1e-4
    epochs: int = 10
    patch: tuple = (32, 480)
    flips: bool = True
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.epochs, bool) or not isinstance(self.epochs, int) or self.epochs < 1:
            raise ValueError(f"epochs must be an integer >= 1, got {self.epochs!r}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        # forward_array takes sides of at least 16
        if not isinstance(self.patch, (tuple, list)) or len(self.patch) != 2 or any(
                isinstance(v, bool) or not isinstance(v, int) or v < 16 for v in self.patch):
            raise ValueError(f"patch must be two integers >= 16, got {self.patch!r}")


def _crop_flip(rng, corrupt, clean, patch, flips):
    h, w, _ = corrupt.shape
    ph, pw = min(patch[0], h), min(patch[1], w)
    ph -= ph % 8
    pw -= pw % 8
    top = int(rng.integers(0, h - ph + 1))
    left = int(rng.integers(0, w - pw + 1))
    a = corrupt[top:top + ph, left:left + pw]
    b = clean[top:top + ph, left:left + pw]
    if flips:
        if rng.random() < 0.5:
            a, b = a[::-1], b[::-1]
        if rng.random() < 0.5:
            a, b = a[:, ::-1], b[:, ::-1]
    return np.ascontiguousarray(a), np.ascontiguousarray(b)


def train(net: ResLPRNet, pairs, opts: TrainOptions = TrainOptions()):
    """Adam training over (corrupt, clean) range-image pairs.

    Deterministic under a fixed seed. Raises on non-finite loss, naming
    the failing step. Returns the per-step loss curve.
    """
    if not pairs:
        raise ValueError("training requires a non-empty dataset")
    arrays = [(c.channels(), g.channels()) for c, g in pairs]
    rng = np.random.default_rng(opts.seed)
    optimizer = Adam(net.params(), lr=opts.lr)
    curve = []
    step = 0
    for _ in range(opts.epochs):
        order = rng.permutation(len(arrays))
        for idx in order:
            corrupt, clean = arrays[idx]
            a, b = _crop_flip(rng, corrupt, clean, opts.patch, opts.flips)
            pred = net.forward_array(a)
            value, grad = loss_l1(pred, b)
            if not math.isfinite(value):
                raise RuntimeError(f"non-finite loss at step {step}")
            net.zero_grad()
            net.backward_input(grad)
            optimizer.step()
            curve.append(value)
            step += 1
    return curve


def save_checkpoint(net: ResLPRNet, path) -> None:
    """Flat binary: magic, version, tensor count, then per tensor a
    length-prefixed name, rank, dims, and float32 little-endian data."""
    params = net.params()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(params)))
        cfg = net.config
        fh.write(struct.pack("<III", cfg.base_channels, cfg.n_contexts,
                             cfg.attn_token_cap))
        for p in params:
            name = p.name.encode()
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)
            fh.write(struct.pack("<B", p.value.ndim))
            fh.write(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
            fh.write(p.value.astype("<f4").tobytes())


def load_checkpoint(path) -> ResLPRNet:
    """Read a save_checkpoint file; a truncated or malformed one, one with a
    non-finite or repeated tensor, or one with bytes past its last tensor,
    raises pointcloud.ScanParseError."""
    with open(path, "rb") as fh:
        if fh.read(4) != _CKPT_MAGIC:
            raise ScanParseError(f"{path}: not a checkpoint file")
        version, count = struct.unpack("<II", read_exact(fh, 8, path))
        if version != _CKPT_VERSION:
            raise ScanParseError(f"{path}: unsupported checkpoint version {version}")
        base_c, n_ctx, cap = struct.unpack("<III", read_exact(fh, 12, path))
        # the net holds at least 128 c^2 (bottleneck.ff1.w) + n c (ctg2.ce)
        # parameters, 4 bytes each here: check before building it
        if 4 * (128 * base_c * base_c + n_ctx * base_c) > os.fstat(fh.fileno()).st_size:
            raise ScanParseError(f"{path}: a net with {base_c} base channels and "
                                 f"{n_ctx} contexts does not fit in the file")
        try:
            net = ResLPRNet(NetConfig(base_channels=base_c, n_contexts=n_ctx,
                                      attn_token_cap=cap))
        except ValueError as exc:
            raise ScanParseError(f"{path}: {exc}") from exc
        table = {p.name: p for p in net.params()}
        if len(table) != count:
            raise ScanParseError(f"{path}: tensor count {count} != expected {len(table)}")
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read_exact(fh, 2, path))
            name = read_exact(fh, nlen, path).decode(errors="replace")
            (ndim,) = struct.unpack("<B", read_exact(fh, 1, path))
            shape = struct.unpack(f"<{ndim}I", read_exact(fh, 4 * ndim, path))
            param = table.pop(name, None)
            if param is None or param.value.shape != shape:
                raise ScanParseError(f"{path}: unexpected tensor {name} {shape}")
            data = np.frombuffer(read_exact(fh, 4 * int(np.prod(shape)), path), dtype="<f4")
            # checked as float32: casting a signalling NaN would warn first
            if not np.isfinite(data).all():
                raise ScanParseError(f"{path}: non-finite values in tensor {name}")
            param.value[...] = data.reshape(shape)
        if fh.read(1):
            raise ScanParseError(f"{path}: bytes past the last tensor at byte {fh.tell() - 1}")
    return net
