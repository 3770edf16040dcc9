"""Dense tensor kernels: forward and backward passes for every primitive.

All kernels are pure functions of ndarray inputs (NCHW layout for rank-4
activations) and are deterministic given their arguments. Each forward has a
matching ``*_backward`` that returns exact analytic gradients. There is no
graph engine: :mod:`splatnet.layers` wraps each kernel in a layer, and a
composite module runs its backward over the same layer list as its forward.

Conventions:
    * convolution is cross-correlation (no kernel flip), zero padding only;
    * default dtype is float64 so gradients can be checked against central
      finite differences; float32 works for timing runs;
    * softmax is always computed in max-subtracted form.
"""

from __future__ import annotations

import numpy as np

from .params import ConfigurationError


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def _out_extent(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _pad_spatial(x: np.ndarray, ph: int, pw: int, value: float = 0.0) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    n, c, h, w = x.shape
    xp = np.full((n, c, h + 2 * ph, w + 2 * pw), value, dtype=x.dtype)
    xp[:, :, ph : ph + h, pw : pw + w] = x
    return xp


def _windows(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Sliding-window view [N, C, Ho, Wo, kh, kw] over a padded input."""
    n, c, hp, wp = xp.shape
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    sn, sc, sy, sx = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, ho, wo, kh, kw),
        strides=(sn, sc, sy * sh, sx * sw, sy, sx),
        writeable=False,
    )


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def im2col(x, kernel, stride=1, padding=0):
    """Input [N, C, H, W] -> columns [C*kh*kw, N, Ho, Wo] of the zero-padded input.

    Row order is (channel, ki, kj), so a grouped reshape along rows keeps
    channel groups contiguous. The batch sits inside the columns: viewed as
    [groups, C*kh*kw/groups, N*Ho*Wo], each group's columns for the whole
    batch form one matrix. A copy, except for a 1x1 stride-1 unpadded
    kernel on one image, where it is a view of the input.
    """
    kh, kw = _pair(kernel)
    ph, pw = _pair(padding)
    n, c = x.shape[:2]
    win = _windows(_pad_spatial(x, ph, pw), kh, kw, *_pair(stride))  # [N, C, Ho, Wo, kh, kw]
    ho, wo = win.shape[2], win.shape[3]
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n, ho, wo)


def conv2d(x, weight, stride=1, padding=0, groups=1):
    """Grouped 2-D convolution (cross-correlation) as im2col plus GEMMs.

    x: [N, Cin, H, W]; weight: [Cout, Cin/groups, kh, kw]; no bias (a batch norm follows).
    Output group g (rows g*Cout/g ..) reads only input channel group g.
    Returns (y, cols): y is [N, Cout, Ho, Wo] and cols are the ``im2col``
    columns, which ``conv2d_backward`` takes so a train step builds them
    once. Each image and group is one GEMM over its slice of the columns,
    so an output is the same dot product whatever the batch size.
    """
    n, cin, h, w = x.shape
    cout, cing, kh, kw = weight.shape
    ph, pw = _pair(padding)
    if cin % groups != 0:
        raise ConfigurationError(f"in_channels {cin} not divisible by groups {groups}")
    if cout % groups != 0:
        raise ConfigurationError(f"out_channels {cout} not divisible by groups {groups}")
    if cing != cin // groups:
        raise ConfigurationError(
            f"weight expects {cing} channels per group, input provides {cin // groups}"
        )
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise ConfigurationError(
            f"kernel ({kh}x{kw}) larger than padded input ({h + 2 * ph}x{w + 2 * pw})"
        )
    cols = im2col(x, (kh, kw), stride, padding)
    ho, wo = cols.shape[2], cols.shape[3]
    colsg = cols.reshape(groups, cing * kh * kw, n, ho * wo).transpose(2, 0, 1, 3)
    wg = weight.reshape(groups, cout // groups, cing * kh * kw)
    out = np.matmul(wg, colsg).reshape(n, cout, ho, wo)  # [N, g, Cout/g, L]
    return out, cols


def conv2d_backward(grad_out, cols, x_shape, weight, stride=1, padding=0, groups=1):
    """Gradients of conv2d w.r.t. (input, weight).

    cols are the columns of the forward (``conv2d``'s second output, or
    ``im2col`` of its input) and x_shape is the input's shape. The batch is
    folded into the GEMMs, one per group each for the weight gradient
    go @ colsᵀ (go = grad_out as [groups, Cout/groups, N*Ho*Wo], summed over
    m in the columns' (N, Ho, Wo) order) and the column gradient Wᵀ @ go.
    For a 1x1 stride-1 unpadded conv the column gradient is the input
    gradient. Otherwise it is taken with the batch innermost,
    [Cin*kh*kw, Ho, Wo, N], and each window offset is added in (ki, kj)
    order onto a zeroed [Cin, Hp, Wp, N] canvas (col2im), so every add runs
    over Wo*N contiguous elements. Returns C-contiguous NCHW arrays.
    """
    n, cin, h, w = x_shape
    cout, cing, kh, kw = weight.shape
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    ckk, m = cing * kh * kw, n * ho * wo
    go = grad_out.transpose(1, 0, 2, 3).reshape(groups, cout // groups, m)
    grad_w = np.matmul(go, cols.reshape(groups, ckk, m).transpose(0, 2, 1))
    grad_w = grad_w.reshape(weight.shape)

    wgt = weight.reshape(groups, cout // groups, ckk).transpose(0, 2, 1)
    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        gx = np.matmul(wgt, go).reshape(cin, n, h, w).transpose(1, 0, 2, 3)
    else:
        go_last = grad_out.transpose(1, 2, 3, 0).reshape(groups, cout // groups, m)
        gcols = np.matmul(wgt, go_last).reshape(cin, kh, kw, ho, wo, n)
        gx = np.zeros((cin, h + 2 * ph, w + 2 * pw, n), dtype=gcols.dtype)
        for i in range(kh):
            for j in range(kw):
                gx[:, i : i + sh * ho : sh, j : j + sw * wo : sw] += gcols[:, i, j]
        gx = gx[:, ph : ph + h, pw : pw + w].transpose(3, 0, 1, 2)
    return np.ascontiguousarray(gx), grad_w


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def _pool_window(x_shape, kernel, stride, padding):
    """(kh, kw, sh, sw, ph, pw, ho, wo) of a pooling window over x_shape.

    The stride defaults to the kernel; a kernel larger than the padded
    input is an error.
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    ph, pw = _pair(padding)
    h, w = x_shape[2], x_shape[3]
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise ConfigurationError(
            f"pool kernel ({kh}x{kw}) larger than padded input ({h + 2 * ph}x{w + 2 * pw})"
        )
    return kh, kw, sh, sw, ph, pw, _out_extent(h, kh, sh, ph), _out_extent(w, kw, sw, pw)


def _pool_divisors(h, w, kh, kw, sh, sw, ph, pw, dtype):
    """Per-window divisor for average pooling: the count of in-bounds positions.

    A window's count is the product of its in-bounds extents along each
    axis, so the counts are the outer product of two per-axis vectors.
    """
    ho = _out_extent(h, kh, sh, ph)
    wo = _out_extent(w, kw, sw, pw)
    if ph == 0 and pw == 0:  # every window lies in bounds
        return np.full((ho, wo), float(kh * kw), dtype=dtype)

    def extents(size, k, s, p, out):
        start = np.arange(out) * s - p
        return np.minimum(start + k, size) - np.maximum(start, 0)

    return np.outer(extents(h, kh, sh, ph, ho), extents(w, kw, sw, pw, wo)).astype(dtype)


def _window_slices(xp, kh, kw, sh, sw, ho, wo):
    """The kh*kw strided views [N, C, Ho, Wo] of a padded input, one per
    window offset, in row-major offset order."""
    return [xp[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw]
            for i in range(kh) for j in range(kw)]


def avg_pool2d(x, kernel, stride=None, padding=0):
    """Mean over each window; zero padding, which the divisor does not count.

    The kh*kw strided slices of the padded input, one per window offset,
    are summed into one accumulator in window order, then divided.
    """
    kh, kw, sh, sw, ph, pw, ho, wo = _pool_window(x.shape, kernel, stride, padding)
    n, c, h, w = x.shape
    slices = _window_slices(_pad_spatial(x, ph, pw), kh, kw, sh, sw, ho, wo)
    out = slices[0].copy()
    for s in slices[1:]:
        out += s
    out /= _pool_divisors(h, w, kh, kw, sh, sw, ph, pw, x.dtype)
    return out


def avg_pool2d_backward(grad_out, x_shape, kernel, stride=None, padding=0):
    """Distributes each window's gradient uniformly over its contributors.

    The gradient is divided into a batch-innermost [C, Ho, Wo, N] array and
    added, one window offset at a time in row-major order, onto a zeroed
    [C, Hp, Wp, N] canvas, so every add runs over Wo*N contiguous elements.
    Returns a C-contiguous NCHW array of grad_out's dtype.
    """
    kh, kw, sh, sw, ph, pw, ho, wo = _pool_window(x_shape, kernel, stride, padding)
    n, c, h, w = x_shape
    div = _pool_divisors(h, w, kh, kw, sh, sw, ph, pw, grad_out.dtype)
    g = np.divide(grad_out.transpose(1, 2, 3, 0), div[:, :, None], order="C")
    gxp = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=grad_out.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, i : i + sh * ho : sh, j : j + sw * wo : sw] += g
    return np.ascontiguousarray(gxp[:, ph : ph + h, pw : pw + w].transpose(3, 0, 1, 2))


def max_pool2d(x, kernel, stride=None, padding=0):
    """Max over each window; padding filled with -inf so it never wins.

    An elementwise maximum over the kh*kw strided slices of the padded
    input. Which position won is left to ``max_pool2d_argmax``, which only
    the backward needs.
    """
    kh, kw, sh, sw, ph, pw, ho, wo = _pool_window(x.shape, kernel, stride, padding)
    slices = _window_slices(_pad_spatial(x, ph, pw, -np.inf), kh, kw, sh, sw, ho, wo)
    best = slices[0].copy()
    for s in slices[1:]:
        np.maximum(best, s, out=best)
    return best


def max_pool2d_argmax(x, y, kernel, stride=None, padding=0):
    """Each window's argmax as a row-major offset within the kh x kw window.

    y is ``max_pool2d``'s output for x. On ties the first occurrence wins:
    the slices are compared with y in descending offset order, so the
    lowest matching offset is written last.
    """
    kh, kw, sh, sw, ph, pw, ho, wo = _pool_window(x.shape, kernel, stride, padding)
    slices = _window_slices(_pad_spatial(x, ph, pw, -np.inf), kh, kw, sh, sw, ho, wo)
    idx = np.zeros(y.shape, dtype=np.intp)
    for k in range(kh * kw - 1, -1, -1):
        idx[slices[k] == y] = k
    return idx


def max_pool2d_backward(grad_out, x, y, kernel, stride=None, padding=0):
    """Routes each window's gradient to its (first) argmax position.

    x and y are the forward's input and output; the argmax is found here
    (``max_pool2d_argmax``), so a forward that no backward follows does no
    index work. Each window's argmax becomes a flat offset into the padded
    input, and ``np.bincount`` sums the gradients per offset in window
    order. It accumulates in float64; the result is cast back to grad_out's
    dtype.
    """
    kh, kw, sh, sw, ph, pw, ho, wo = _pool_window(x.shape, kernel, stride, padding)
    n, c, h, w = x.shape
    hp, wp = h + 2 * ph, w + 2 * pw
    ki, kj = np.divmod(max_pool2d_argmax(x, y, kernel, stride, padding), kw)
    rows = np.arange(ho)[:, None] * sh + ki
    cols = np.arange(wo) * sw + kj
    planes = np.arange(n * c).reshape(n, c, 1, 1) * (hp * wp)
    flat = (planes + rows * wp + cols).ravel()
    gxp = np.bincount(flat, weights=grad_out.ravel(), minlength=n * c * hp * wp)
    gxp = gxp.reshape(n, c, hp, wp)[:, :, ph : ph + h, pw : pw + w]
    return gxp.astype(grad_out.dtype, copy=False)


def global_avg_pool(x):
    """[N, C, H, W] -> [N, C], mean over all spatial positions."""
    return x.mean(axis=(2, 3))


def global_avg_pool_backward(grad_out, x_shape):
    n, c, h, w = x_shape
    return np.broadcast_to(grad_out[:, :, None, None] / (h * w), x_shape).copy()


# ---------------------------------------------------------------------------
# Fully connected
# ---------------------------------------------------------------------------


def fully_connected(x, weight, bias=None, groups=1):
    """Grouped affine map: x [N, F], weight [O, F/groups], bias [O].

    Output group i reads only input feature group i; groups=1 is dense.
    """
    n, f = x.shape
    o, fg = weight.shape
    if f % groups != 0:
        raise ConfigurationError(f"in_features {f} not divisible by groups {groups}")
    if o % groups != 0:
        raise ConfigurationError(f"out_features {o} not divisible by groups {groups}")
    if fg != f // groups:
        raise ConfigurationError(
            f"weight expects {fg} features per group, input provides {f // groups}"
        )
    xg = x.reshape(n, groups, f // groups)
    wg = weight.reshape(groups, o // groups, fg)
    # one GEMM per group on transposed views, so the weight is never copied
    out = np.matmul(xg.transpose(1, 0, 2), wg.transpose(0, 2, 1)).transpose(1, 0, 2)
    out = out.reshape(n, o)
    if bias is not None:
        out = out + bias[None, :]
    return out


def fully_connected_backward(grad_out, x, weight, groups=1, has_bias=False):
    """Gradients of fully_connected w.r.t. (x, weight, bias).

    One GEMM per group for each of the weight and input gradients, on
    transposed views as in the forward, so nothing weight-sized is
    allocated beyond the returned weight gradient.
    """
    n, f = x.shape
    o = weight.shape[0]
    xg = x.reshape(n, groups, f // groups).transpose(1, 0, 2)
    wg = weight.reshape(groups, o // groups, f // groups)
    gg = grad_out.reshape(n, groups, o // groups).transpose(1, 0, 2)
    grad_w = np.matmul(gg.transpose(0, 2, 1), xg).reshape(weight.shape)
    grad_x = np.matmul(gg, wg).transpose(1, 0, 2).reshape(n, f)
    grad_b = grad_out.sum(axis=0) if has_bias else None
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def _bn_expand(v: np.ndarray, ndim: int) -> np.ndarray:
    return v[None, :, None, None] if ndim == 4 else v[None, :]


def batch_norm(x, gamma, beta, running_mean, running_var, mode="train",
               momentum=BN_MOMENTUM, eps=BN_EPS):
    """Per-channel batch normalization over all non-channel axes.

    Train mode normalizes with batch statistics and updates the running
    buffers in place (exponential moving average); eval mode uses the running
    buffers as-is. Freshly initialized buffers (mean 0, var 1) make eval mode
    before any training a plain affine map.

    Train mode works on an [N, C, L] view for rank 2 and rank 4 alike: each
    statistic is reduced over L, then over N, and the centred input is
    scaled in place into x̂, so the forward allocates two input-sized
    arrays, x̂ and y. Eval mode computes y = (x - mean)·(gamma/σ) + beta
    in place in one input-sized array.

    Returns (y, cache); cache is needed by batch_norm_backward and is None in
    eval mode.
    """
    if x.ndim not in (2, 4):
        raise ConfigurationError(f"batch_norm expects rank 2 or 4 input, got rank {x.ndim}")
    if mode == "train":
        n, c = x.shape[:2]
        x3 = x.reshape(n, c, -1)
        m = n * x3.shape[2]
        mean = x3.sum(axis=2).sum(axis=0) / m
        xhat = x3 - mean[:, None]
        buf = np.multiply(xhat, xhat)
        var = buf.sum(axis=2).sum(axis=0) / m
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std[:, None]
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        # unbiased variance in the running buffer, matching common practice
        running_var += momentum * (var * m / max(m - 1, 1))
        y = np.multiply(xhat, gamma[:, None], out=buf)
        y += beta[:, None]
        return y.reshape(x.shape), (xhat, inv_std, gamma)
    if mode == "eval":
        nd = x.ndim
        inv_std = 1.0 / np.sqrt(running_var + eps)
        y = np.subtract(x, _bn_expand(running_mean, nd))
        y *= _bn_expand(gamma * inv_std, nd)
        y += _bn_expand(beta, nd)
        return y, None
    raise ConfigurationError(f"unknown batch_norm mode {mode!r}")


def batch_norm_backward(grad_out, cache):
    """Train-mode gradients w.r.t. (x, gamma, beta) from the forward cache.

    Ioffe & Szegedy's gradient, evaluated over the forward's [N, C, L] view
    of x̂ as gx = (g - Σg/m - x̂·Σg·x̂/m)·gamma/σ, where Σg is dbeta and
    Σg·x̂ is dgamma.
    """
    xhat, inv_std, gamma = cache
    g3 = grad_out.reshape(xhat.shape)
    m = xhat.shape[0] * xhat.shape[2]
    dbeta = g3.sum(axis=2).sum(axis=0)
    dgamma = np.einsum("ncl,ncl->c", g3, xhat)
    gx = g3 - (dbeta / m)[:, None]
    gx -= xhat * (dgamma / m)[:, None]
    gx *= (gamma * inv_std)[:, None]
    return gx.reshape(grad_out.shape), dgamma, dbeta


def batch_norm_eval_backward(grad_out, gamma, running_var, eps=BN_EPS):
    """Eval-mode input gradient: a fixed per-channel scale."""
    nd = grad_out.ndim
    return grad_out * _bn_expand(gamma / np.sqrt(running_var + eps), nd)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(grad_out, x):
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
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(grad_out, y, axis=-1):
    dot = (grad_out * y).sum(axis=axis, keepdims=True)
    return y * (grad_out - dot)


# ---------------------------------------------------------------------------
# Dropout and DropBlock
# ---------------------------------------------------------------------------


def dropout(x, p, rng=None, mode="train"):
    """Inverted dropout: survivors are scaled by 1/(1-p) at train time.

    Returns (y, mask); mask is None when the call is an identity (eval mode
    or p == 0).
    """
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return x, None
    if rng is None:
        raise ConfigurationError("dropout in train mode requires an rng")
    keep = rng.random(x.shape) >= p
    mask = keep.astype(x.dtype) / (1.0 - p)
    return x * mask, mask


def dropout_backward(grad_out, mask):
    return grad_out if mask is None else grad_out * mask


def dropblock_mask(shape, block_size: int, drop_prob: float,
                   rng: np.random.Generator | None = None, dtype=np.float64):
    """Multiplicative mask zeroing contiguous block_size^2 squares.

    Seed positions are Bernoulli draws over the valid top-left region at rate
    gamma = drop_prob * H*W / (block_size^2 * (H-bs+1) * (W-bs+1)), so the
    expected zeroed fraction is about drop_prob. Survivors are rescaled per
    feature map by total/kept, so drop_prob 0 gives all ones. The mask takes
    the activations' ``dtype`` so it keeps their precision.
    """
    n, c, h, w = shape
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
    seeds = rng.random((n, c, hv, wv)) < gamma
    covered = np.zeros((n, c, h, w), dtype=bool)
    for i in range(block_size):
        for j in range(block_size):
            covered[:, :, i : i + hv, j : j + wv] |= seeds
    mask = (~covered).astype(dtype)
    kept = mask.sum(axis=(2, 3), keepdims=True)
    scale = (h * w) / np.maximum(kept, 1.0)
    return mask * scale
