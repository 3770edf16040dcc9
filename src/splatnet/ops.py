"""Dense tensor kernels: forward and backward passes for every primitive.

All kernels are pure functions of ndarray inputs (NCHW layout for rank-4
activations) and are deterministic given their arguments. Each forward has a
matching ``*_backward`` that returns exact analytic gradients; there is no
graph engine here, callers compose backwards by hand in reverse order.

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


def _pad_spatial(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


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


def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
    """Grouped 2-D convolution (cross-correlation) as im2col plus GEMMs.

    x: [N, Cin, H, W]; weight: [Cout, Cin/groups, kh, kw]; bias: [Cout] or None.
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
    if bias is not None:
        out = out + bias[None, :, None, None]
    return out, cols


def conv2d_backward(grad_out, cols, x_shape, weight, stride=1, padding=0, groups=1,
                    has_bias=False):
    """Gradients of conv2d w.r.t. (input, weight, bias).

    cols are the columns of the forward (``conv2d``'s second output, or
    ``im2col`` of its input) and x_shape is the input's shape. The batch is
    folded into the GEMMs: with grad_out as go = [groups, Cout/groups,
    N*Ho*Wo], the weight gradient go @ colsᵀ and the column gradient
    Wᵀ @ go are one GEMM per group each. The column gradient is summed back
    onto the padded input (col2im) on a contiguous [Cin, N, Hp, Wp] canvas,
    transposed to NCHW once; for a 1x1 stride-1 unpadded conv it already is
    the input gradient.
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

    wg = weight.reshape(groups, cout // groups, ckk)
    gcols = np.matmul(wg.transpose(0, 2, 1), go).reshape(cin, kh, kw, n, ho, wo)
    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        gx = gcols[:, 0, 0]
    else:
        gx = np.zeros((cin, n, h + 2 * ph, w + 2 * pw), dtype=gcols.dtype)
        for i in range(kh):
            for j in range(kw):
                gx[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw] += gcols[:, i, j]
        gx = gx[:, :, ph : ph + h, pw : pw + w]
    grad_x = np.ascontiguousarray(gx.transpose(1, 0, 2, 3))

    grad_b = grad_out.sum(axis=(0, 2, 3)) if has_bias else None
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def _pool_divisors(h, w, kh, kw, sh, sw, ph, pw, count_includes_pad, dtype):
    """Per-window divisor for average pooling: window area or valid count."""
    ho = _out_extent(h, kh, sh, ph)
    wo = _out_extent(w, kw, sw, pw)
    if count_includes_pad or (ph == 0 and pw == 0):
        return np.full((ho, wo), float(kh * kw), dtype=dtype)
    ones = np.ones((1, 1, h, w), dtype=dtype)
    counts = _windows(_pad_spatial(ones, ph, pw), kh, kw, sh, sw).sum(axis=(-1, -2))
    return counts[0, 0]


def avg_pool2d(x, kernel, stride=None, padding=0, count_includes_pad=False):
    """Mean over each window; zero padding, divisor excludes pad by default."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise ConfigurationError(
            f"pool kernel ({kh}x{kw}) larger than padded input ({h + 2 * ph}x{w + 2 * pw})"
        )
    win = _windows(_pad_spatial(x, ph, pw), kh, kw, sh, sw)
    div = _pool_divisors(h, w, kh, kw, sh, sw, ph, pw, count_includes_pad, x.dtype)
    return win.sum(axis=(-1, -2)) / div


def avg_pool2d_backward(grad_out, x_shape, kernel, stride=None, padding=0,
                        count_includes_pad=False, dtype=np.float64):
    """Distributes each window's gradient uniformly over its contributors."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    ph, pw = _pair(padding)
    n, c, h, w = x_shape
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    div = _pool_divisors(h, w, kh, kw, sh, sw, ph, pw, count_includes_pad, grad_out.dtype)
    g = grad_out / div
    gxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=grad_out.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw] += g
    return gxp[:, :, ph : ph + h, pw : pw + w]


def max_pool2d(x, kernel, stride=None, padding=0):
    """Max over each window; padding filled with -inf so it never wins."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise ConfigurationError(
            f"pool kernel ({kh}x{kw}) larger than padded input ({h + 2 * ph}x{w + 2 * pw})"
        )
    if ph or pw:
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    else:
        xp = x
    win = _windows(xp, kh, kw, sh, sw)
    flat = win.reshape(*win.shape[:4], kh * kw)
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def max_pool2d_backward(grad_out, idx, x_shape, kernel, stride=None, padding=0):
    """Routes each window's gradient to its (first) argmax position."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    ph, pw = _pair(padding)
    n, c, h, w = x_shape
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    gxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=grad_out.dtype)
    ki, kj = np.divmod(idx, kw)  # offsets within each window
    oy = np.arange(ho)[None, None, :, None] * sh
    ox = np.arange(wo)[None, None, None, :] * sw
    rows = (oy + ki).ravel()
    cols = (ox + kj).ravel()
    nn = np.repeat(np.arange(n), c * ho * wo)
    cc = np.tile(np.repeat(np.arange(c), ho * wo), n)
    np.add.at(gxp, (nn, cc, rows, cols), grad_out.ravel())
    return gxp[:, :, ph : ph + h, pw : pw + w]


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
    n, f = x.shape
    o = weight.shape[0]
    xg = x.reshape(n, groups, f // groups)
    wg = weight.reshape(groups, o // groups, f // groups)
    gg = grad_out.reshape(n, groups, o // groups)
    grad_w = np.einsum("ngo,ngf->gof", gg, xg, optimize=True).reshape(weight.shape)
    grad_x = np.einsum("ngo,gof->ngf", gg, wg, optimize=True).reshape(n, f)
    grad_b = grad_out.sum(axis=0) if has_bias else None
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


def _bn_axes(x: np.ndarray) -> tuple[int, ...]:
    if x.ndim == 4:
        return (0, 2, 3)
    if x.ndim == 2:
        return (0,)
    raise ConfigurationError(f"batch_norm expects rank 2 or 4 input, got rank {x.ndim}")


def _bn_expand(v: np.ndarray, ndim: int) -> np.ndarray:
    return v[None, :, None, None] if ndim == 4 else v[None, :]


def batch_norm(x, gamma, beta, running_mean, running_var, mode="train",
               momentum=0.1, eps=1e-5):
    """Per-channel batch normalization over all non-channel axes.

    Train mode normalizes with batch statistics and updates the running
    buffers in place (exponential moving average); eval mode uses the running
    buffers as-is. Freshly initialized buffers (mean 0, var 1) make eval mode
    before any training a plain affine map.

    Returns (y, cache); cache is needed by batch_norm_backward and is None in
    eval mode.
    """
    axes = _bn_axes(x)
    nd = x.ndim
    if mode == "train":
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        m = x.size // x.shape[1]
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - _bn_expand(mean, nd)) * _bn_expand(inv_std, nd)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        # unbiased variance in the running buffer, matching common practice
        running_var += momentum * (var * m / max(m - 1, 1))
        y = _bn_expand(gamma, nd) * xhat + _bn_expand(beta, nd)
        return y, (xhat, inv_std, gamma)
    if mode == "eval":
        inv_std = 1.0 / np.sqrt(running_var + eps)
        y = _bn_expand(gamma * inv_std, nd) * (x - _bn_expand(running_mean, nd))
        return y + _bn_expand(beta, nd), None
    raise ConfigurationError(f"unknown batch_norm mode {mode!r}")


def batch_norm_backward(grad_out, cache):
    """Train-mode gradients w.r.t. (x, gamma, beta) from the forward cache."""
    xhat, inv_std, gamma = cache
    axes = _bn_axes(grad_out)
    nd = grad_out.ndim
    m = grad_out.size // grad_out.shape[1]
    dgamma = (grad_out * xhat).sum(axis=axes)
    dbeta = grad_out.sum(axis=axes)
    gxhat = grad_out * _bn_expand(gamma, nd)
    gx = (
        gxhat
        - _bn_expand(gxhat.sum(axis=axes) / m, nd)
        - xhat * _bn_expand((gxhat * xhat).sum(axis=axes) / m, nd)
    ) * _bn_expand(inv_std, nd)
    return gx, dgamma, dbeta


def batch_norm_eval_backward(grad_out, gamma, running_var, eps=1e-5):
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
# Dropout
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
