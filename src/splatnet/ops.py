"""Dense tensor kernels: forward and backward passes for every primitive.

All kernels are pure functions of ndarray inputs and are deterministic given
their arguments: none takes a mode, and none writes an array it did not
make but an ``out`` it is handed. Activations are batch-innermost:
[C, H, W, N] at rank 4 and [F, N] at rank 2, so a channel's values for the
whole batch form one contiguous row (cuda-convnet's layout). The network
converts from and to NCHW once, at its boundary (``to_chwn``, ``to_nchw``).
Each forward has a matching ``*_backward`` that returns exact analytic
gradients. A conv or pool forward returns its output alone; its backward
takes the forward's input or its shape (the max pool's output too) and
rebuilds from it what it needs. There is no graph engine:
:mod:`splatnet.layers` wraps each kernel in a layer, and a composite module
runs its backward over the same layer list as its forward.

Conventions:
    * convolution is cross-correlation (no kernel flip), zero padding only;
    * default dtype is float64 so gradients can be checked against central
      finite differences; float32 works for timing runs;
    * softmax is always computed in max-subtracted form.
"""

from __future__ import annotations

import functools
from math import prod

import numpy as np

from .params import ConfigurationError


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def to_chwn(x: np.ndarray) -> np.ndarray:
    """NCHW (or [N, F]) -> a [C, H, W, N] (or [F, N]) view."""
    return x.transpose(*range(1, x.ndim), 0)


def to_nchw(x: np.ndarray) -> np.ndarray:
    """[C, H, W, N] (or [F, N]) -> a C-contiguous NCHW (or [N, F]) copy."""
    return np.ascontiguousarray(x.transpose(-1, *range(x.ndim - 1)))


def _pad_spatial(x: np.ndarray, ph: int, pw: int, value: float = 0.0) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    c, h, w, n = x.shape
    shape = (c, h + 2 * ph, w + 2 * pw, n)
    xp = np.full(shape, value, dtype=x.dtype) if value else np.zeros(shape, x.dtype)
    xp[:, ph : ph + h, pw : pw + w] = x
    return xp


def _window(x_shape, kernel, stride, padding, name="kernel"):
    """Window geometry (kh, kw, sh, sw, ph, pw, ho, wo) of a kernel sliding
    over the spatial axes of x_shape [C, H, W, N] with zero padding; kernel,
    stride and padding are each an int or a pair. A kernel larger than the
    padded input is an error, reported as ``name``.
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    hp, wp = x_shape[1] + 2 * ph, x_shape[2] + 2 * pw
    if hp < kh or wp < kw:
        raise ConfigurationError(f"{name} ({kh}x{kw}) larger than padded input ({hp}x{wp})")
    return kh, kw, sh, sw, ph, pw, (hp - kh) // sh + 1, (wp - kw) // sw + 1


def _window_slices(xp, window):
    """The kh*kw strided views [C, Ho, Wo, N] of a padded input, one per
    window offset, in row-major offset order."""
    kh, kw, sh, sw, ph, pw, ho, wo = window
    return [xp[:, i : i + sh * ho : sh, j : j + sw * wo : sw]
            for i in range(kh) for j in range(kw)]


def _scatter_windows(part, x_shape, window, dtype):
    """col2im, the backward of every windowed kernel: adds ``part(i, j)``, the
    [C, Ho, Wo, N] gradient of window offset (i, j), onto a zeroed padded
    canvas and returns its C-contiguous [C, H, W, N] interior. Offsets go in
    descending order, so each input position sums its windows in window order.
    """
    kh, kw, sh, sw, ph, pw, ho, wo = window
    c, h, w, n = x_shape
    canvas = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=dtype)
    for i in reversed(range(kh)):
        for j in reversed(range(kw)):
            canvas[:, i : i + sh * ho : sh, j : j + sw * wo : sw] += part(i, j)
    if ph == 0 and pw == 0:
        return canvas
    return np.ascontiguousarray(canvas[:, ph : ph + h, pw : pw + w])


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def _group_columns(x, g, groups, window):
    """Columns [Cin/g*kh*kw, Ho*Wo*N] of group g of x [Cin, H, W, N], made
    from the group's channels alone, so only they are padded.

    Row order is (channel, ki, kj). A 1x1 stride-1 unpadded kernel reads the
    group's channels themselves, whatever their layout. Any other kernel
    reads its windows from a C-contiguous array (the zero-padded channels,
    the channels, or a copy of non-contiguous ones); the columns are a view
    of that array where the windows lie at uniform strides (a strided 1x1
    kernel) and a copy otherwise. Callers only read them.
    """
    kh, kw, sh, sw, ph, pw, ho, wo = window
    cing = x.shape[0] // groups
    xg = x[g * cing : (g + 1) * cing]
    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        return xg.reshape(cing, -1)
    xp = np.ascontiguousarray(_pad_spatial(xg, ph, pw))
    sc, sy, sx, sn = xp.strides
    cols = np.ndarray((cing, kh, kw, ho, wo, xp.shape[3]), xp.dtype, xp, 0,
                      (sc, sy, sx, sy * sh, sx * sw, sn))
    return cols.reshape(cing * kh * kw, -1)


def conv2d(x, weight, stride=1, padding=0, groups=1):
    """Grouped 2-D convolution (cross-correlation): im2col lowering plus one
    GEMM per group.

    x: [Cin, H, W, N]; weight: [Cout, Cin/groups, kh, kw]; no bias (a batch
    norm follows). Each group's columns cols[Cin/g*kh*kw, Ho*Wo*N] are made
    in turn from its channels and multiplied, W[Cout/g, Cin/g*kh*kw] @ cols,
    into the group's rows of the [Cout, Ho, Wo, N] output, so only one
    group's columns (and padded channels) are held at a time. Returns y;
    ``conv2d_backward`` takes the same x.
    """
    cin, h, w, n = x.shape
    cout, cing, kh, kw = weight.shape
    if cin % groups != 0:
        raise ConfigurationError(f"in_channels {cin} not divisible by groups {groups}")
    if cout % groups != 0:
        raise ConfigurationError(f"out_channels {cout} not divisible by groups {groups}")
    if cing != cin // groups:
        raise ConfigurationError(
            f"weight expects {cing} channels per group, input provides {cin // groups}"
        )
    window = _window(x.shape, (kh, kw), stride, padding)
    ho, wo = window[6:]
    wg = weight.reshape(groups, cout // groups, cing * kh * kw)
    out = None
    for g in range(groups):
        cols = _group_columns(x, g, groups, window)
        if out is None:  # made after the padded channels are freed, as in one GEMM
            out = np.empty((groups, cout // groups, ho * wo * n), np.result_type(x, weight))
        np.matmul(wg[g], cols, out=out[g])
        del cols  # before the next group's columns are made
    return out.reshape(cout, ho, wo, n)


def conv2d_backward(grad_out, x, weight, stride=1, padding=0, groups=1):
    """Gradients of conv2d w.r.t. (input, weight).

    x is the forward's input; each group's columns are rebuilt as the
    forward made them, one group at a time. Per group, with go = grad_out
    as [Cout/g, Ho*Wo*N], one GEMM gives the weight gradient go @ colsᵀ.
    The column gradient Wᵀ @ go takes one GEMM per window offset, each added
    onto the input by ``_scatter_windows`` as it is made, so no
    kh*kw-times-input array is held. A 1x1 stride-1 unpadded kernel
    multiplies by a transposed view of the weight, so it allocates nothing
    weight-sized beyond the weight gradient. Returns C-contiguous arrays.
    """
    x_shape = cin, h, w, n = x.shape
    cout, cing, kh, kw = weight.shape
    window = _window(x_shape, (kh, kw), stride, padding)
    ho, wo = window[6:]
    go = grad_out.reshape(groups, cout // groups, ho * wo * n)
    grad_w = np.empty((groups, cout // groups, cing * kh * kw), np.result_type(grad_out, x))
    for g in range(groups):
        np.matmul(go[g], _group_columns(x, g, groups, window).T, out=grad_w[g])
    grad_w = grad_w.reshape(weight.shape)
    if window[:6] == (1, 1, 1, 1, 0, 0):
        wt = weight.reshape(groups, cout // groups, cing).transpose(0, 2, 1)
        return np.matmul(wt, go).reshape(x_shape), grad_w
    # Wᵀ per window offset: [kh*kw, groups, Cin/g, Cout/g], contiguous for the GEMMs
    wt = weight.reshape(groups, cout // groups, cing, kh * kw).transpose(3, 0, 2, 1).copy()
    gx = _scatter_windows(lambda i, j: np.matmul(wt[i * kw + j], go).reshape(cin, ho, wo, n),
                          x_shape, window, grad_out.dtype)
    return gx, grad_w


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def _window_counts(h, w, window):
    """In-bounds positions of each pooling window over an H x W input, [Ho, Wo].

    A window's count is the product of its in-bounds extents along each
    axis, so the counts are the outer product of two per-axis vectors.
    """
    kh, kw, sh, sw, ph, pw, ho, wo = window

    def extents(size, out, k, s, p):
        start = np.arange(out) * s - p
        return np.minimum(start + k, size) - np.maximum(start, 0)

    return np.outer(extents(h, ho, kh, sh, ph), extents(w, wo, kw, sw, pw))


@functools.lru_cache(maxsize=256)
def _pool_divisors(h, w, window, dtype):
    """Per-window divisor [Ho, Wo, 1] of average pooling, made once per
    shape and dtype. Every call with that key gets the same array, so it is
    read-only; the kernels only divide by it.
    """
    divisors = _window_counts(h, w, window)[:, :, None].astype(dtype)
    divisors.flags.writeable = False
    return divisors


def avg_pool2d(x, kernel, stride, padding=0):
    """Mean over each window; zero padding, which the divisor does not count.

    The kh*kw strided slices of the padded input, one per window offset,
    are summed into one accumulator in window order, then divided.
    """
    window = _window(x.shape, kernel, stride, padding, "pool kernel")
    slices = _window_slices(_pad_spatial(x, *window[4:6]), window)
    out = slices[0].copy()
    for s in slices[1:]:
        out += s
    out /= _pool_divisors(x.shape[1], x.shape[2], window, x.dtype)
    return out


def avg_pool2d_backward(grad_out, x_shape, kernel, stride, padding=0):
    """Distributes each window's gradient uniformly over its contributors.

    Returns a C-contiguous array of grad_out's dtype.
    """
    window = _window(x_shape, kernel, stride, padding, "pool kernel")
    g = grad_out / _pool_divisors(x_shape[1], x_shape[2], window, grad_out.dtype)
    return _scatter_windows(lambda i, j: g, x_shape, window, grad_out.dtype)


def max_pool2d(x, kernel, stride, padding=0):
    """Max over each window; padding filled with -inf so it never wins.

    An elementwise maximum over the kh*kw strided slices of the padded
    input. Returns y; ``max_pool2d_backward`` takes the same x and pads it
    again, so a forward does no index work and keeps no padded copy.
    """
    window = _window(x.shape, kernel, stride, padding, "pool kernel")
    slices = _window_slices(_pad_spatial(x, *window[4:6], -np.inf), window)
    best = slices[0].copy()
    for s in slices[1:]:
        np.maximum(best, s, out=best)
    return best


def max_pool2d_backward(grad_out, x, y, kernel, stride, padding=0):
    """Routes each window's gradient to its first argmax position.

    x and y are ``max_pool2d``'s input and output. A window hits at the first
    offset, in row-major order, whose slice of the -inf-padded x equals its
    maximum. Each offset's hits take grad_out and the rest zero, added onto
    the input by ``_scatter_windows``. Returns an array of grad_out's dtype.
    """
    window = _window(x.shape, kernel, stride, padding, "pool kernel")
    taken = np.zeros(y.shape, dtype=bool)
    hits = []
    for s in _window_slices(_pad_spatial(x, *window[4:6], -np.inf), window):
        hit = s == y
        np.greater(hit, taken, out=hit)  # not taken by an earlier offset
        taken |= hit
        hits.append(hit)
    return _scatter_windows(lambda i, j: np.where(hits[i * window[1] + j], grad_out, 0),
                            x.shape, window, grad_out.dtype)


def global_avg_pool(x):
    """[C, H, W, N] -> [C, N], mean over all spatial positions: the sum
    divided by the count, as ``np.mean`` computes it."""
    c, h, w, n = x.shape
    return x.sum(axis=(1, 2)) / (h * w)


def global_avg_pool_backward(grad_out, x_shape):
    c, h, w, n = x_shape
    return np.broadcast_to(grad_out[:, None, None, :] / (h * w), x_shape).copy()


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


BN_MOMENTUM = 0.1  # a batch's weight in a running average
BN_EPS = 1e-5
# Inputs of fewer elements than this get per-element eval constants
# (batch_norm_eval_constants). Per call, those halve the time up to ~64K
# elements and stop paying past ~100K, out of L2 (timeit, 2-core Xeon,
# float64 and float32). They cost three input-sized arrays for as long as the
# input shape holds, so memory sets the limit: at most 384 KiB per batch
# norm, and nothing for ResNeSt-50 at 224², whose smallest batch-norm input
# is 512 × 49 elements apart from the attention ones of one element per row.
BN_FLAT_SIZE = 1 << 14


def batch_norm(x, gamma, beta):
    """Per-channel batch normalization of a rank 2 [F, N] or rank 4
    [C, H, W, N] input with the batch's own statistics. Returns (y, cache,
    mean, var): the cache for ``batch_norm_backward``, and the per-channel
    mean and unbiased variance that ``layers.BatchNorm`` keeps averages of.
    """
    if x.ndim not in (2, 4):
        raise ConfigurationError(f"batch_norm expects rank 2 or 4 input, got rank {x.ndim}")
    x2 = x.reshape(x.shape[0], -1)  # [C, M]: each statistic reduces one contiguous row
    m = x2.shape[1]
    mean = x2.sum(axis=1) / m
    xhat = x2 - mean[:, None]
    buf = np.multiply(xhat, xhat)
    var = buf.sum(axis=1) / m
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std[:, None]
    y = np.multiply(xhat, gamma[:, None], out=buf)
    y += beta[:, None]
    return y.reshape(x.shape), (xhat, inv_std, gamma), mean, var * m / max(m - 1, 1)


def batch_norm_eval_constants(x_shape, gamma, beta, mean, var):
    """The operands (mean, scale, beta) of y = (x - mean)·scale + beta for a
    rank 2 or 4 input of ``x_shape``, scale = gamma/σ. A nonempty input of
    fewer than ``BN_FLAT_SIZE`` elements gets them repeated to x's shape, so
    each ufunc walks one flat loop in place of one loop per channel; a larger
    one gets per-channel columns that broadcast against x."""
    if len(x_shape) not in (2, 4):
        raise ConfigurationError(f"batch_norm expects rank 2 or 4 input, got rank {len(x_shape)}")
    row = prod(x_shape[1:])
    scale = gamma * (1.0 / np.sqrt(var + BN_EPS))
    if 0 < row * x_shape[0] < BN_FLAT_SIZE:
        return tuple(np.repeat(a, row).reshape(x_shape) for a in (mean, scale, beta))
    column = (-1,) + (1,) * (len(x_shape) - 1)
    return mean.reshape(column), scale.reshape(column), beta.reshape(column)


def batch_norm_affine(x, mean, scale, beta, out=None):
    """y = (x - mean)·scale + beta with the operands of
    ``batch_norm_eval_constants`` for x's shape, in one input-sized array:
    ``out`` when given (x itself writes in place)."""
    y = np.subtract(x, mean, out=out)
    y *= scale
    y += beta
    return y


def batch_norm_backward(grad_out, cache):
    """Train-mode gradients w.r.t. (x, gamma, beta) from the forward cache.

    Ioffe & Szegedy's gradient, evaluated over the forward's [C, M] view of
    x̂ as gx = (g - Σg/m - x̂·Σg·x̂/m)·gamma/σ, where Σg is dbeta and Σg·x̂ is
    dgamma.
    """
    xhat, inv_std, gamma = cache
    g2 = grad_out.reshape(xhat.shape)
    m = xhat.shape[1]
    dbeta = g2.sum(axis=1)
    dgamma = np.einsum("cm,cm->c", g2, xhat)
    gx = g2 - (dbeta / m)[:, None]
    gx -= xhat * (dgamma / m)[:, None]
    gx *= (gamma * inv_std)[:, None]
    return gx.reshape(grad_out.shape), dgamma, dbeta


def batch_norm_eval_backward(grad_out, gamma, var):
    """Eval-mode input gradient: a fixed per-channel scale."""
    scale = gamma / np.sqrt(var + BN_EPS)
    return grad_out * scale.reshape(-1, *(1,) * (grad_out.ndim - 1))


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def relu(x, out=None):
    """max(x, 0), into ``out`` when given (x itself writes in place)."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(grad_out, x):
    """``x`` is the ReLU's input or its output: both are > 0 at the same entries."""
    return grad_out * (x > 0)


def sigmoid(x):
    # split by sign for stability on large-magnitude inputs
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(grad_out, y):
    return grad_out * y * (1.0 - y)


def softmax(x, axis=-1):
    """Shift-invariant softmax along ``axis``."""
    z = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def softmax_backward(grad_out, y, axis=-1):
    dot = (grad_out * y).sum(axis=axis, keepdims=True)
    return y * (grad_out - dot)


# ---------------------------------------------------------------------------
# Dropout and DropBlock
# ---------------------------------------------------------------------------


def dropout_mask(shape, p: float, rng: np.random.Generator | None = None,
                 dtype=np.float64):
    """Inverted-dropout mask of ``shape``: survivors scaled by 1/(1-p).

    The shape has its batch last; the draws are taken batch first, in NCHW
    (or [N, F]) order, so a seed drops the same entries in either layout.
    Returns None, drawing nothing, when p == 0: the identity needs no mask.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return None
    if rng is None:
        raise ConfigurationError("dropout in train mode requires an rng")
    keep = rng.random((shape[-1], *shape[:-1])) >= p
    return np.moveaxis(keep, 0, -1).astype(dtype, order="C") / (1.0 - p)


def dropblock_mask(shape, block_size: int, drop_prob: float,
                   rng: np.random.Generator | None = None, dtype=np.float64):
    """Multiplicative mask [C, H, W, N] zeroing contiguous block_size^2 squares.

    Seed positions are Bernoulli draws over the valid top-left region at rate
    gamma = drop_prob * H*W / (block_size^2 * (H-bs+1) * (W-bs+1)), so the
    expected zeroed fraction is about drop_prob. The draws are taken in NCHW
    order, as ``dropout_mask`` takes them. Survivors are rescaled per feature
    map by total/kept, so drop_prob 0 gives all ones. The mask takes the
    activations' ``dtype`` so it keeps their precision.
    """
    c, h, w, n = shape
    if block_size % 2 == 0 or block_size < 1:
        raise ConfigurationError(f"block_size must be odd and positive, got {block_size}")
    if block_size > min(h, w):
        raise ConfigurationError(
            f"block_size {block_size} exceeds feature map {h}x{w}"
        )
    if rng is None:
        raise ConfigurationError("dropblock requires an rng")
    hv, wv = h - block_size + 1, w - block_size + 1
    gamma = drop_prob * (h * w) / (block_size * block_size * hv * wv)
    seeds = np.moveaxis(rng.random((n, c, hv, wv)) < gamma, 0, -1)
    covered = np.zeros(shape, dtype=bool)
    for i in range(block_size):
        for j in range(block_size):
            covered[:, i : i + hv, j : j + wv] |= seeds
    mask = (~covered).astype(dtype)
    kept = mask.sum(axis=(1, 2), keepdims=True)
    scale = (h * w) / np.maximum(kept, 1.0)
    return mask * scale
