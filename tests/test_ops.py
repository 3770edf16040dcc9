"""Kernel tests: every forward against an independent oracle, every backward
against central finite differences.

The kernels take batch-innermost [C, H, W, N] and [F, N] arrays; the
loop-based oracles index NCHW and [N, F] arrays, and the tests convert with
``ops.to_chwn`` and ``ops.to_nchw``."""

import inspect
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splatnet import ops
from splatnet.ops import to_chwn, to_nchw
from splatnet.gradcheck import grad_check
from splatnet.layers import BatchNorm, Conv2d, Dropout, Linear, MaxPool2d
from splatnet.params import ConfigurationError, make_rng


# ---------------------------------------------------------------------------
# Oracles: deliberately naive, loop-based reference implementations
# ---------------------------------------------------------------------------


def conv2d_oracle(x, w, stride, padding, groups):
    """Direct 7-nested-loop cross-correlation."""
    n, cin, h, wd = x.shape
    cout, cing, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    xp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw), dtype=x.dtype)
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    cpg_out = cout // groups
    for b in range(n):
        for o in range(cout):
            g = o // cpg_out
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cing):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (
                                    xp[b, g * cing + c, i * sh + ki, j * sw + kj]
                                    * w[o, c, ki, kj]
                                )
                    out[b, o, i, j] = acc
    return out


def conv2d_backward_oracle(grad_out, x, w, stride, padding, groups):
    """Direct loops over the forward's products: each x*w term of output
    (b, o, i, j) passes grad_out[b, o, i, j] times its partner to the other."""
    n, cin, h, wd = x.shape
    cout, cing, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    xp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw), dtype=x.dtype)
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    cpg_out = cout // groups
    for b in range(n):
        for o in range(cout):
            g = o // cpg_out
            for i in range(ho):
                for j in range(wo):
                    go = grad_out[b, o, i, j]
                    for c in range(cing):
                        for ki in range(kh):
                            for kj in range(kw):
                                pos = (b, g * cing + c, i * sh + ki, j * sw + kj)
                                gxp[pos] += go * w[o, c, ki, kj]
                                gw[o, c, ki, kj] += go * xp[pos]
    return gxp[:, :, ph : ph + h, pw : pw + wd], gw


def _window_positions(i, j, kernel, stride, padding, hw):
    """(k, y, z) for each in-bounds input position of window (i, j), in
    window order; k = ki*kw + kj is the offset within the padded window."""
    (kh, kw), (sh, sw), (ph, pw), (h, w) = kernel, stride, padding, hw
    for ki in range(kh):
        for kj in range(kw):
            y, z = i * sh + ki - ph, j * sw + kj - pw
            if 0 <= y < h and 0 <= z < w:
                yield ki * kw + kj, y, z


def _pool_out_shape(x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    ho = (h + 2 * padding[0] - kernel[0]) // stride[0] + 1
    wo = (w + 2 * padding[1] - kernel[1]) // stride[1] + 1
    return n, c, ho, wo


def avg_pool_oracle(x, kernel, stride, padding):
    out = np.zeros(_pool_out_shape(x.shape, kernel, stride, padding), dtype=x.dtype)
    n, c, ho, wo = out.shape
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    total, count = 0.0, 0
                    for _, y, z in _window_positions(i, j, kernel, stride, padding,
                                                     x.shape[2:]):
                        total += x[b, ch, y, z]
                        count += 1
                    out[b, ch, i, j] = total / count
    return out


def avg_pool_backward_oracle(grad_out, x_shape, kernel, stride, padding):
    """Each window hands grad/count to every in-bounds position it covers."""
    gx = np.zeros(x_shape, dtype=grad_out.dtype)
    n, c, ho, wo = grad_out.shape
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    pos = list(_window_positions(i, j, kernel, stride, padding,
                                                 x_shape[2:]))
                    for _, y, z in pos:
                        gx[b, ch, y, z] += grad_out[b, ch, i, j] / len(pos)
    return gx


def max_pool_oracle(x, kernel, stride, padding):
    """Window max and the offset of its first occurrence in window order."""
    y = np.zeros(_pool_out_shape(x.shape, kernel, stride, padding), dtype=x.dtype)
    idx = np.zeros(y.shape, dtype=np.intp)
    n, c, ho, wo = y.shape
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    best, arg = -np.inf, -1
                    for k, yy, zz in _window_positions(i, j, kernel, stride, padding,
                                                       x.shape[2:]):
                        if x[b, ch, yy, zz] > best:
                            best, arg = x[b, ch, yy, zz], k
                    y[b, ch, i, j], idx[b, ch, i, j] = best, arg
    return y, idx


def max_pool_backward_oracle(grad_out, idx, x_shape, kernel, stride, padding):
    """Each window's gradient goes to its argmax, windows taken in order."""
    gx = np.zeros(x_shape, dtype=grad_out.dtype)
    n, c, ho, wo = grad_out.shape
    kw = kernel[1]
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    ki, kj = divmod(int(idx[b, ch, i, j]), kw)
                    y = i * stride[0] + ki - padding[0]
                    z = j * stride[1] + kj - padding[1]
                    gx[b, ch, y, z] += grad_out[b, ch, i, j]
    return gx


def fc_oracle(x, w, bias, groups):
    n, f = x.shape
    o = w.shape[0]
    out = np.zeros((n, o), dtype=x.dtype)
    fg, og = f // groups, o // groups
    for g in range(groups):
        xg = x[:, g * fg : (g + 1) * fg]
        wg = w[g * og : (g + 1) * og]
        out[:, g * og : (g + 1) * og] = xg @ wg.T
    if bias is not None:
        out += bias
    return out


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


class TestConv2d:
    def test_identity_1x1(self):
        rng = make_rng(0)
        x = rng.standard_normal((3, 4, 4, 2))
        w = np.eye(3).reshape(3, 3, 1, 1)
        npt.assert_array_equal(ops.conv2d(x, w), x)

    def test_constant_sum(self):
        x = np.ones((1, 3, 3, 1))
        w = np.ones((1, 1, 3, 3))
        y = ops.conv2d(x, w)
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == 9.0

    @pytest.mark.parametrize("groups,stride,padding", [
        (1, (1, 1), (0, 0)),
        (2, (1, 1), (1, 1)),
        (2, (2, 2), (1, 1)),
        (4, (1, 2), (0, 1)),
    ])
    def test_against_naive_oracle(self, groups, stride, padding):
        rng = make_rng(1)
        x = rng.standard_normal((1, 4, 5, 5))
        w = rng.standard_normal((8, 4 // groups, 3, 3))
        got = ops.conv2d(to_chwn(x), w, stride, padding, groups)
        want = conv2d_oracle(x, w, stride, padding, groups)
        got = to_nchw(got)
        npt.assert_allclose(got, want, atol=1e-12)

    def test_groups_equal_concatenated_slices(self):
        rng = make_rng(2)
        g = 3
        x = rng.standard_normal((6, 6, 6, 2))
        w = rng.standard_normal((9, 2, 3, 3))
        grouped = ops.conv2d(x, w, stride=1, padding=1, groups=g)
        parts = [
            ops.conv2d(x[2 * i : 2 * (i + 1)], w[3 * i : 3 * (i + 1)],
                       stride=1, padding=1)
            for i in range(g)
        ]
        npt.assert_array_equal(grouped, np.concatenate(parts, axis=0))

    def test_linearity(self):
        rng = make_rng(3)
        x = rng.standard_normal((2, 5, 5, 1))
        y = rng.standard_normal((2, 5, 5, 1))
        w = rng.standard_normal((3, 2, 3, 3))
        a, b = 1.7, -0.4
        lhs = ops.conv2d(a * x + b * y, w, padding=1)
        rhs = a * ops.conv2d(x, w, padding=1) + b * ops.conv2d(y, w, padding=1)
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_divisibility_errors(self):
        x = np.zeros((3, 4, 4, 1))
        w = np.zeros((4, 1, 1, 1))
        with pytest.raises(ConfigurationError, match="in_channels 3"):
            ops.conv2d(x, w, groups=2)
        with pytest.raises(ConfigurationError, match="out_channels 5"):
            ops.conv2d(np.zeros((4, 4, 4, 1)), np.zeros((5, 2, 1, 1)), groups=2)
        with pytest.raises(ConfigurationError, match="kernel"):
            ops.conv2d(np.zeros((1, 2, 2, 1)), np.zeros((1, 1, 5, 5)))
        with pytest.raises(ConfigurationError, match="kernel"):
            ops.conv2d_backward(np.zeros((1, 1, 1, 1)), np.zeros((1, 2, 2, 1)),
                                np.zeros((1, 1, 5, 5)))

    def test_backward_matches_finite_differences(self):
        rng = make_rng(4)
        x = rng.standard_normal((4, 5, 5, 2))
        w = rng.standard_normal((6, 2, 3, 3))
        proj = rng.standard_normal((6, 3, 3, 2))

        def loss():
            y = ops.conv2d(x, w, (2, 2), (1, 1), 2)
            gx, gw = ops.conv2d_backward(proj, x, w, (2, 2), (1, 1), 2)
            return float((y * proj).sum()), {"x": gx, "w": gw}

        report = grad_check(loss, {"x": x, "w": w}, tolerance=1e-6)
        assert report.passed, report.summary()


@st.composite
def conv_cases(draw):
    """Random small conv problems: batch, groups, channels per group, kernel
    1-3, stride 1-2, padding 0-1, and an input from the smallest the kernel
    allows (a single output position) up to four positions larger."""
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sh, sw = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    ph, pw = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    h = draw(st.integers(max(1, kh - 2 * ph), kh - 2 * ph + 4))
    w = draw(st.integers(max(1, kw - 2 * pw), kw - 2 * pw + 4))
    return dict(n=draw(st.integers(1, 3)), groups=draw(st.integers(1, 3)),
                cin_g=draw(st.integers(1, 3)), cout_g=draw(st.integers(1, 3)),
                kernel=(kh, kw), stride=(sh, sw), padding=(ph, pw), hw=(h, w),
                seed=draw(st.integers(0, 2**16)))


_ONE_POSITION = dict(n=2, groups=2, cin_g=2, cout_g=3, kernel=(3, 3), stride=(2, 2),
                     padding=(1, 1), hw=(1, 1), seed=0)
_NO_CANVAS = dict(n=3, groups=1, cin_g=3, cout_g=2, kernel=(1, 1), stride=(1, 1),
                  padding=(0, 0), hw=(3, 2), seed=1)


class TestConv2dReference:
    """conv2d and conv2d_backward against the direct nested-loop references."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(conv_cases())
    @example(_ONE_POSITION)
    @example(dict(_NO_CANVAS, n=1, hw=(1, 1)))
    @example(_NO_CANVAS)
    def test_forward_and_backward(self, case):
        rng = make_rng(case["seed"])
        g = case["groups"]
        cin, cout = g * case["cin_g"], g * case["cout_g"]
        x = rng.standard_normal((case["n"], cin, *case["hw"]))
        w = rng.standard_normal((cout, case["cin_g"], *case["kernel"]))
        stride, padding = case["stride"], case["padding"]

        xc = to_chwn(x)
        y = ops.conv2d(xc, w, stride, padding, g)
        npt.assert_allclose(to_nchw(y), conv2d_oracle(x, w, stride, padding, g), atol=1e-12)

        grad_out = rng.standard_normal(y.shape)
        gx, gw = ops.conv2d_backward(grad_out, xc, w, stride, padding, g)
        want_gx, want_gw = conv2d_backward_oracle(to_nchw(grad_out), x, w, stride, padding, g)
        assert gx.shape == xc.shape and gx.flags.c_contiguous
        npt.assert_allclose(to_nchw(gx), want_gx, atol=1e-12)
        npt.assert_allclose(gw, want_gw, atol=1e-12)


# ---------------------------------------------------------------------------
# windowed kernels, byte for byte, against a plain im2col reference
# ---------------------------------------------------------------------------


def _ref_pad(x, padding, value=0.0):
    ph, pw = padding
    return np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)), constant_values=value)


def _ref_windows(xp, kernel, stride, out_hw):
    """The [C, Ho, Wo, N] slices of a padded input, one per window offset,
    in row-major offset order."""
    (kh, kw), (sh, sw), (ho, wo) = kernel, stride, out_hw
    return [xp[:, i : i + sh * ho : sh, j : j + sw * wo : sw]
            for i in range(kh) for j in range(kw)]


def _ref_out_hw(hw, kernel, stride, padding):
    return tuple((hw[a] + 2 * padding[a] - kernel[a]) // stride[a] + 1 for a in (0, 1))


def _ref_scatter(parts, x_shape, kernel, stride, padding, dtype):
    """col2im: each offset's part added onto a zeroed padded canvas in
    descending offset order; the canvas interior."""
    c, h, w, n = x_shape
    ph, pw = padding
    canvas = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype)
    views = _ref_windows(canvas, kernel, stride, parts[0].shape[1:3])
    for view, part in reversed(list(zip(views, parts))):
        view += part
    return canvas[:, ph : ph + h, pw : pw + w]


def _ref_columns(xg, kernel, stride, padding):
    """im2col of one group's channels [C, H, W, N]: np.pad, then one copy per
    window offset into rows (channel, ki, kj)."""
    c, h, w, n = xg.shape
    out_hw = _ref_out_hw((h, w), kernel, stride, padding)
    cols = np.empty((c, kernel[0] * kernel[1], *out_hw, n), xg.dtype)
    for k, view in enumerate(_ref_windows(_ref_pad(xg, padding), kernel, stride, out_hw)):
        cols[:, k] = view
    return cols.reshape(c * kernel[0] * kernel[1], -1)


def _ref_conv(x, w, stride, padding, groups):
    """Per group, W_g @ cols_g: the GEMMs ``ops.conv2d`` makes."""
    (cin, h, wd, n), (cout, cing, kh, kw) = x.shape, w.shape
    wg = w.reshape(groups, cout // groups, -1)
    y = [np.matmul(wg[g], _ref_columns(x[g * cing : (g + 1) * cing], (kh, kw), stride, padding))
         for g in range(groups)]
    return np.concatenate(y).reshape(cout, *_ref_out_hw((h, wd), (kh, kw), stride, padding), n)


def _ref_conv_backward(grad_out, x, w, stride, padding, groups):
    """Per group go_g @ cols_gᵀ; per window offset Wᵀ_k @ go, scattered."""
    (cin, h, wd, n), (cout, cing, kh, kw) = x.shape, w.shape
    go = grad_out.reshape(groups, cout // groups, -1)
    gw = [np.matmul(go[g], _ref_columns(x[g * cing : (g + 1) * cing], (kh, kw), stride,
                                        padding).T) for g in range(groups)]
    wt = w.reshape(groups, cout // groups, cing, kh * kw).transpose(3, 0, 2, 1).copy()
    parts = [np.matmul(wt[k], go).reshape(cin, *grad_out.shape[1:]) for k in range(kh * kw)]
    gx = _ref_scatter(parts, x.shape, (kh, kw), stride, padding, grad_out.dtype)
    return gx, np.stack(gw).reshape(w.shape)


def _ref_counts(hw, kernel, stride, padding, dtype):
    """In-bounds positions of each window, [Ho, Wo, 1], from a padded plane of ones."""
    ones = _ref_pad(np.ones((1, *hw, 1)), padding)
    views = _ref_windows(ones, kernel, stride, _ref_out_hw(hw, kernel, stride, padding))
    return sum(views)[0].astype(dtype)


def _ref_pool(x, kernel, stride, padding, fold, pad_value):
    """Window slices folded in row-major offset order into a copy of the first."""
    xp = _ref_pad(x, padding, pad_value)
    views = _ref_windows(xp, kernel, stride, _ref_out_hw(x.shape[1:3], kernel, stride, padding))
    out = views[0].copy()
    for view in views[1:]:
        fold(out, view, out=out)
    return out


def _ref_avg_pool(x, kernel, stride, padding):
    return (_ref_pool(x, kernel, stride, padding, np.add, 0.0)
            / _ref_counts(x.shape[1:3], kernel, stride, padding, x.dtype))


def _ref_avg_pool_backward(grad_out, x_shape, kernel, stride, padding):
    g = grad_out / _ref_counts(x_shape[1:3], kernel, stride, padding, grad_out.dtype)
    return _ref_scatter([g] * (kernel[0] * kernel[1]), x_shape, kernel, stride, padding,
                        grad_out.dtype)


def _ref_max_pool_backward(grad_out, x, y, kernel, stride, padding):
    """Each window's gradient to its first maximum in row-major offset order."""
    taken = np.zeros(y.shape, bool)
    parts = []
    for view in _ref_windows(_ref_pad(x, padding, -np.inf), kernel, stride, y.shape[1:3]):
        hit = (view == y) & ~taken
        taken |= hit
        parts.append(np.where(hit, grad_out, 0))
    return _ref_scatter(parts, x.shape, kernel, stride, padding, grad_out.dtype)


def _signature(out):
    """(dtype, shape, bytes) of an array or of each array of a tuple."""
    if isinstance(out, tuple):
        return tuple(_signature(a) for a in out)
    return out.dtype, out.shape, out.tobytes()


def _three_calls(call, other):
    """The signatures of ``call()`` made first (the shape caches cleared),
    made again, and made after ``other()`` ran the kernel on another shape."""
    ops._window.cache_clear()
    ops._pool_divisors.cache_clear()
    first = _signature(call())
    again = _signature(call())
    other()
    return [first, again, _signature(call())]


@st.composite
def window_cases(draw):
    """A windowed kernel's arguments down to the smallest input it accepts.
    A pool's padding is at most half its kernel, so no window lies wholly in
    the padding (such a window has no mean)."""
    kernel = tuple(draw(st.sampled_from((1, 2, 3, 7))) for _ in range(2))
    padding = tuple(draw(st.integers(0, 3)) for _ in range(2))
    least = [max(1, k - 2 * p) for k, p in zip(kernel, padding)]
    return dict(
        kernel=kernel, padding=padding,
        stride=tuple(draw(st.sampled_from((1, 2))) for _ in range(2)),
        hw=tuple(draw(st.integers(m, m + 3)) for m in least),
        pool_padding=tuple(min(p, k // 2) for k, p in zip(kernel, padding)),
        groups=draw(st.sampled_from((1, 2, 4))),
        cin_g=draw(st.integers(1, 3)), cout_g=draw(st.integers(1, 2)),
        n=draw(st.integers(0, 3)),
        dtype=draw(st.sampled_from((np.float32, np.float64))),
        seed=draw(st.integers(0, 2**16)),
    )


def _window_case(**changes):
    """A batch-1 float64 case, the eval path of every network request."""
    case = dict(kernel=(3, 3), padding=(1, 1), stride=(1, 1), hw=(5, 4), groups=1, cin_g=2,
                cout_g=2, n=1, dtype=np.float64, seed=7) | changes
    case["pool_padding"] = tuple(min(p, k // 2) for k, p in zip(case["kernel"], case["padding"]))
    return case


def _plain(pair):
    """An equal pair as the int it repeats, so both spellings are called."""
    return pair[0] if pair[0] == pair[1] else pair


class TestWindowedKernelBytes:
    """The conv and pool kernels, forward and backward, give the bytes of a
    plain im2col reference on a first call, a repeated call, and a call made
    after another shape: what they work out once per shape changes nothing."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(window_cases())
    @example(_window_case(kernel=(1, 1), padding=(0, 0), groups=2))  # the input is the columns
    @example(_window_case(kernel=(3, 3), padding=(1, 1), stride=(2, 2), groups=4))
    @example(_window_case(kernel=(7, 7), padding=(3, 3), hw=(1, 1)))
    def test_kernels_match_reference(self, case):
        rng = make_rng(case["seed"])
        dt, g, n = case["dtype"], case["groups"], case["n"]
        kernel, stride, padding = case["kernel"], case["stride"], case["padding"]
        k, s, p = _plain(kernel), _plain(stride), _plain(padding)
        cin = g * case["cin_g"]
        x = rng.standard_normal((cin, *case["hw"], n)).astype(dt)
        other = np.zeros((cin, case["hw"][0] + 1, case["hw"][1], n), dt)

        w = rng.standard_normal((g * case["cout_g"], case["cin_g"], *kernel)).astype(dt)
        y = ops.conv2d(x, w, s, p, g)
        go = rng.standard_normal(y.shape).astype(dt)
        want = [_signature(_ref_conv(x, w, stride, padding, g))] * 3
        assert _three_calls(lambda: ops.conv2d(x, w, s, p, g),
                            lambda: ops.conv2d(other, w, s, p, g)) == want
        want = [_signature(_ref_conv_backward(go, x, w, stride, padding, g))] * 3
        assert _three_calls(lambda: ops.conv2d_backward(go, x, w, s, p, g),
                            lambda: ops.conv2d(other, w, s, p, g)) == want

        padding = case["pool_padding"]
        p = _plain(padding)
        y = ops.avg_pool2d(x, k, s, p)
        go = rng.standard_normal(y.shape).astype(dt)
        want = [_signature(_ref_avg_pool(x, kernel, stride, padding))] * 3
        assert _three_calls(lambda: ops.avg_pool2d(x, k, s, p),
                            lambda: ops.avg_pool2d(other, k, s, p)) == want
        want = [_signature(_ref_avg_pool_backward(go, x.shape, kernel, stride, padding))] * 3
        assert _three_calls(lambda: ops.avg_pool2d_backward(go, x.shape, k, s, p),
                            lambda: ops.avg_pool2d(other, k, s, p)) == want

        y = ops.max_pool2d(x, k, s, p)
        want = [_signature(_ref_pool(x, kernel, stride, padding, np.maximum, -np.inf))] * 3
        assert _three_calls(lambda: ops.max_pool2d(x, k, s, p),
                            lambda: ops.max_pool2d(other, k, s, p)) == want
        want = [_signature(_ref_max_pool_backward(go, x, y, kernel, stride, padding))] * 3
        assert _three_calls(lambda: ops.max_pool2d_backward(go, x, y, k, s, p),
                            lambda: ops.max_pool2d(other, k, s, p)) == want

    def test_list_pairs_are_read_as_tuples(self):
        """A kernel, stride or padding given as a list is the same pair as a
        tuple: the shape cache takes it, and the bytes are the tuple's."""
        rng = make_rng(11)
        x = rng.standard_normal((4, 6, 5, 2))
        w = rng.standard_normal((4, 2, 3, 3))

        def outputs(k, s, p):
            y = ops.conv2d(x, w, s, p, 2)
            z = ops.max_pool2d(x, k, s, p)
            go = np.ones_like(z)
            return (y, ops.conv2d_backward(np.ones_like(y), x, w, s, p, 2),
                    ops.avg_pool2d(x, k, s, p), ops.avg_pool2d_backward(go, x.shape, k, s, p),
                    z, ops.max_pool2d_backward(go, x, z, k, s, p))

        ops._window.cache_clear()
        got = _signature(outputs([3, 2], [2, 1], [1, 0]))
        assert got == _signature(outputs((3, 2), (2, 1), (1, 0)))


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


class TestPooling:
    def test_avg_constant(self):
        x = np.full((2, 6, 6, 1), 3.25)
        y = ops.avg_pool2d(x, 3, stride=2, padding=1)
        npt.assert_allclose(y, 3.25)

    def test_avg_2x2_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        y = ops.avg_pool2d(x, 2, stride=2)
        assert y.item() == 2.5

    def test_avg_against_oracle(self):
        rng = make_rng(5)
        x = rng.standard_normal((2, 3, 7, 6))
        got = to_nchw(ops.avg_pool2d(to_chwn(x), (3, 2), (2, 1), (1, 1)))
        want = avg_pool_oracle(x, (3, 2), (2, 1), (1, 1))
        npt.assert_allclose(got, want, atol=1e-12)

    def test_mean_of_means_tiling(self):
        # pooling over a partitioning grid then averaging equals one global mean
        rng = make_rng(6)
        x = rng.standard_normal((3, 8, 8, 2))
        tiled = ops.avg_pool2d(x, 4, stride=4)
        npt.assert_allclose(ops.global_avg_pool(tiled), ops.global_avg_pool(x),
                            atol=1e-12)

    def test_avg_kernel_too_large(self):
        with pytest.raises(ConfigurationError, match="pool kernel"):
            ops.avg_pool2d(np.zeros((1, 3, 3, 1)), 5, 5)
        with pytest.raises(ConfigurationError, match="pool kernel"):
            ops.avg_pool2d_backward(np.zeros((1, 1, 1, 1)), (1, 3, 3, 1), 5, 5)
        with pytest.raises(ConfigurationError, match="pool kernel"):
            ops.max_pool2d_backward(np.zeros((1, 1, 1, 1)), np.zeros((1, 3, 3, 1)),
                                    np.zeros((1, 1, 1, 1)), 5, 5)

    def test_avg_backward_fd(self):
        rng = make_rng(7)
        x = rng.standard_normal((2, 6, 6, 1))
        proj = rng.standard_normal((2, 3, 3, 1))

        def loss():
            y = ops.avg_pool2d(x, 3, 2, 1)
            gx = ops.avg_pool2d_backward(proj, x.shape, 3, 2, 1)
            return float((y * proj).sum()), {"x": gx}

        assert grad_check(loss, {"x": x}, tolerance=1e-8).passed

    def test_max_pool_and_backward(self):
        rng = make_rng(8)
        x = rng.standard_normal((2, 3, 7, 7))
        y = to_nchw(ops.max_pool2d(to_chwn(x), 3, 2, 1))
        # oracle via explicit windows
        for b in range(2):
            for c in range(3):
                for i in range(4):
                    for j in range(4):
                        y0, x0 = i * 2 - 1, j * 2 - 1
                        vals = [
                            x[b, c, yy, xx]
                            for yy in range(max(0, y0), min(7, y0 + 3))
                            for xx in range(max(0, x0), min(7, x0 + 3))
                        ]
                        assert y[b, c, i, j] == max(vals)
        xc = np.ascontiguousarray(to_chwn(x))  # grad_check perturbs it in place
        proj = rng.standard_normal((3, 4, 4, 2))

        def loss():
            yy = ops.max_pool2d(xc, 3, 2, 1)
            gx = ops.max_pool2d_backward(proj, xc, yy, 3, 2, 1)
            return float((yy * proj).sum()), {"x": gx}

        assert grad_check(loss, {"x": xc}, tolerance=1e-8).passed

    def test_max_pool_layer_backward_after_eval_forward(self):
        # the layer finds the argmax in its backward, whichever mode ran forward
        rng = make_rng(31)
        x = np.maximum(rng.standard_normal((3, 7, 6, 2)), 0.0)
        grad_out = rng.standard_normal((3, 4, 3, 2))
        grads = []
        for mode in ("train", "eval"):
            pool = MaxPool2d(3, 2, 1)
            _, saved = pool.forward(x, mode)
            grads.append(pool.backward(saved, grad_out))
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_global_avg_pool(self):
        rng = make_rng(9)
        x = rng.standard_normal((4, 5, 5, 3))
        got = ops.global_avg_pool(x)
        want = np.array([[x[c, :, :, b].sum() / 25.0 for b in range(3)] for c in range(4)])
        npt.assert_allclose(got, want, atol=1e-12)
        npt.assert_allclose(ops.global_avg_pool(np.full((2, 3, 3, 1), 7.5)), 7.5)
        one = rng.standard_normal((6, 1, 1, 2))
        npt.assert_array_equal(ops.global_avg_pool(one), one[:, 0, 0])

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_divisors_never_reach_an_output(self, dtype, padding):
        # one divisor array per shape and dtype is shared by every call
        x = make_rng(32).standard_normal((2, 5, 5, 3)).astype(dtype)
        window = ops._pool_window(x.shape, 3, 2, padding, x.itemsize)
        divisors = ops._pool_divisors(window, np.dtype(dtype))
        assert not divisors.flags.writeable and divisors.dtype == dtype
        assert ops._pool_divisors(window, np.dtype(dtype)) is divisors

        def run():
            y = ops.avg_pool2d(x, 3, 2, padding)
            return y, ops.avg_pool2d_backward(y, x.shape, 3, 2, padding)

        first = run()
        want = [a.tobytes() for a in first]
        for out in first:
            assert out.dtype == dtype and out.flags.writeable
            assert not np.shares_memory(out, divisors)
            out[...] = 7.0
        assert [a.tobytes() for a in run()] == want


@st.composite
def pool_cases(draw):
    """Random small pooling problems: kernel 1-3 per axis, stride 1-2,
    padding up to half the kernel (so every window holds an input position,
    but a corner window can hold only one), inputs from the smallest the
    kernel allows up to four positions larger, and optionally a ReLU output
    whose exact zeros tie for the max."""
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ph, pw = draw(st.integers(0, kh // 2)), draw(st.integers(0, kw // 2))
    h = draw(st.integers(max(1, kh - 2 * ph), kh - 2 * ph + 4))
    w = draw(st.integers(max(1, kw - 2 * pw), kw - 2 * pw + 4))
    return dict(n=draw(st.integers(1, 2)), c=draw(st.integers(1, 3)), kernel=(kh, kw),
                stride=(draw(st.integers(1, 2)), draw(st.integers(1, 2))),
                padding=(ph, pw), hw=(h, w),
                relu=draw(st.booleans()), seed=draw(st.integers(0, 2**16)))


# one input position under a 3x3 window: eight of its nine entries are padding
_MOSTLY_PADDING = dict(n=2, c=2, kernel=(3, 3), stride=(2, 2), padding=(1, 1),
                       hw=(1, 1), relu=False, seed=0)
# the stem's 3x3/2 pad-1 max-pool on ReLU output, non-square map
_STEM_TIES = dict(n=2, c=3, kernel=(3, 3), stride=(2, 2), padding=(1, 1),
                  hw=(7, 6), relu=True, seed=1)
_NON_SQUARE = dict(n=1, c=2, kernel=(2, 3), stride=(1, 2), padding=(1, 1),
                   hw=(3, 4), relu=True, seed=2)


class TestPoolingReference:
    """Pooling forwards and backwards against the nested-loop references."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(pool_cases())
    @example(_MOSTLY_PADDING)
    @example(dict(_MOSTLY_PADDING, relu=True))
    @example(_STEM_TIES)
    @example(_NON_SQUARE)
    def test_forward_and_backward(self, case):
        rng = make_rng(case["seed"])
        x = rng.standard_normal((case["n"], case["c"], *case["hw"]))
        if case["relu"]:
            x = np.maximum(x, 0.0)
        kernel, stride, padding = case["kernel"], case["stride"], case["padding"]

        xc = to_chwn(x)
        y = ops.avg_pool2d(xc, kernel, stride, padding)
        npt.assert_allclose(to_nchw(y), avg_pool_oracle(x, kernel, stride, padding),
                            rtol=0, atol=1e-14)
        grad_out = rng.standard_normal(y.shape)
        gx = ops.avg_pool2d_backward(grad_out, xc.shape, kernel, stride, padding)
        want = avg_pool_backward_oracle(to_nchw(grad_out), x.shape, kernel, stride, padding)
        npt.assert_allclose(to_nchw(gx), want, rtol=0, atol=1e-14)
        assert gx.flags.c_contiguous and gx.dtype == grad_out.dtype

        y = ops.max_pool2d(xc, kernel, stride, padding)
        want_y, want_idx = max_pool_oracle(x, kernel, stride, padding)
        npt.assert_array_equal(to_nchw(y), want_y)
        # the routed gradient sees the argmax, first occurrence on ties
        gx = ops.max_pool2d_backward(grad_out, xc, y, kernel, stride, padding)
        want = max_pool_backward_oracle(to_nchw(grad_out), want_idx, x.shape, kernel,
                                        stride, padding)
        npt.assert_array_equal(to_nchw(gx), want)
        assert gx.flags.c_contiguous and gx.dtype == grad_out.dtype


# ---------------------------------------------------------------------------
# fully connected: layers.Linear on the grouped 1x1 conv kernel
# ---------------------------------------------------------------------------


def linear(w, b=None, groups=1):
    """A Linear layer holding weight ``w`` [O, F/groups] and bias ``b``."""
    layer = Linear(w.shape[1] * groups, w.shape[0], groups, bias=b is not None,
                   dtype=w.dtype)
    with layer.writing():
        layer.weight.value[...] = w
        if b is not None:
            layer.bias.value[...] = b
    return layer


class TestFullyConnected:
    def test_identity(self):
        rng = make_rng(10)
        x = rng.standard_normal((6, 4))
        npt.assert_array_equal(linear(np.eye(6)).forward(x)[0], x)

    def test_two_groups_are_independent_halves(self):
        rng = make_rng(11)
        x = rng.standard_normal((8, 3))
        w = rng.standard_normal((10, 4))
        got, _ = linear(w, groups=2).forward(x)
        top = w[:5] @ x[:4]
        bottom = w[5:] @ x[4:]
        npt.assert_allclose(got, np.concatenate([top, bottom], axis=0), atol=1e-12)

    def test_against_oracle(self):
        rng = make_rng(12)
        x = rng.standard_normal((5, 12))
        w = rng.standard_normal((9, 4))
        b = rng.standard_normal(9)
        npt.assert_allclose(
            to_nchw(linear(w, b, groups=3).forward(to_chwn(x))[0]),
            fc_oracle(x, w, b, 3),
            atol=1e-12,
        )

    def test_errors(self):
        layer = linear(np.zeros((4, 2)), groups=2)
        for width in (3, 5, 6):
            with pytest.raises(ConfigurationError,
                               match=f"expects 4 input features, got {width}"):
                layer.forward(np.zeros((width, 1)))
        with pytest.raises(ConfigurationError, match="not divisible"):
            Linear(4, 5, groups=2)
        with pytest.raises(ConfigurationError, match="conv channels .* not divisible"):
            Conv2d(4, 6, 3, groups=4)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_backward_against_einsum(self, groups):
        rng = make_rng(31)
        n, f, o = 5, 16, 12
        x = rng.standard_normal((f, n))
        w = rng.standard_normal((o, f // groups))
        b = rng.standard_normal(o)
        g = rng.standard_normal((o, n))
        layer = linear(w, b, groups)
        xg = x.reshape(groups, -1, n)
        gg = g.reshape(groups, -1, n)
        wg = w.reshape(groups, o // groups, -1)
        y, saved = layer.forward(x)
        npt.assert_allclose(y, np.einsum("gof,gfn->gon", wg, xg).reshape(o, n) + b[:, None],
                            rtol=0, atol=1e-12)
        gx = layer.backward(saved, g)
        npt.assert_allclose(layer.weight.grad,
                            np.einsum("gon,gfn->gof", gg, xg).reshape(w.shape),
                            rtol=0, atol=1e-12)
        npt.assert_allclose(gx, np.einsum("gon,gof->gfn", gg, wg).reshape(x.shape),
                            rtol=0, atol=1e-12)
        npt.assert_allclose(layer.bias.grad, g.sum(axis=1), rtol=0, atol=1e-12)

    def test_backward_allocates_only_the_weight_gradient(self):
        # a 2048x1000 classifier at batch 1: the 16.4 MB weight gradient is
        # the only large allocation
        rng = make_rng(32)
        x = rng.standard_normal((2048, 1))
        layer = linear(rng.standard_normal((1000, 2048)), rng.standard_normal(1000))
        g = rng.standard_normal((1000, 1))
        _, saved = layer.forward(x)
        tracemalloc.start()
        try:
            layer.backward(saved, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * layer.weight.grad.nbytes

    def test_backward_fd(self):
        rng = make_rng(13)
        x = rng.standard_normal((8, 3))
        layer = linear(rng.standard_normal((6, 4)), rng.standard_normal(6), 2)
        proj = rng.standard_normal((6, 3))

        def loss():
            y, saved = layer.forward(x)
            gx = layer.backward(saved, proj)
            return float((y * proj).sum()), {"x": gx, "w": layer.weight.grad,
                                              "b": layer.bias.grad}

        params = {"x": x, "w": layer.weight.value, "b": layer.bias.value}
        assert grad_check(loss, params, tolerance=1e-7, writing=layer.writing).passed

    def test_keeps_float32(self):
        rng = make_rng(30)
        f32 = np.float32
        x = rng.standard_normal((8, 3)).astype(f32)
        layer = linear(rng.standard_normal((6, 4)).astype(f32), np.zeros(6, f32), 2)
        y, saved = layer.forward(x)
        gx = layer.backward(saved, np.ones((6, 3), f32))
        arrays = [y, gx, layer.weight.grad, layer.bias.grad]
        assert [a.dtype for a in arrays] == [f32] * 4


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = make_rng(14)
        x = rng.standard_normal((3, 6, 6, 8)) * 4 + 2
        y, *_ = ops.batch_norm(x, np.ones(3), np.zeros(3))
        npt.assert_allclose(y.mean(axis=(1, 2, 3)), 0.0, atol=1e-12)
        npt.assert_allclose(y.var(axis=(1, 2, 3)), 1.0, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        rng = make_rng(15)
        x = rng.standard_normal((2, 3, 3, 4))
        beta = np.array([1.5, -2.0])
        y, *_ = ops.batch_norm(x, np.zeros(2), beta)
        npt.assert_allclose(y, np.broadcast_to(beta[:, None, None, None], y.shape))

    def test_against_two_pass_oracle(self):
        rng = make_rng(16)
        x = rng.standard_normal((4, 3, 2, 5)) * 3 + 1
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        y, _, mean, var = ops.batch_norm(x, gamma, beta)
        want = np.empty_like(x)
        for c in range(4):
            vals = x[c]
            mu = vals.sum() / vals.size
            sq = ((vals - mu) ** 2).sum()
            want[c] = (vals - mu) / np.sqrt(sq / vals.size + ops.BN_EPS) * gamma[c] + beta[c]
            assert mean[c] == pytest.approx(mu, abs=1e-12)
            assert var[c] == pytest.approx(sq / (vals.size - 1), abs=1e-12)  # unbiased
        npt.assert_allclose(y, want, atol=1e-10)

    def test_eval_uses_running_stats(self):
        rng = make_rng(17)
        x = rng.standard_normal((3, 4, 4, 2))
        rm = rng.standard_normal(3)
        rv = np.abs(rng.standard_normal(3)) + 0.5
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        y = ops.batch_norm_affine(x, *ops.batch_norm_eval_constants(x.shape, gamma, beta, rm, rv))
        col = (slice(None), None, None, None)
        want = (x - rm[col]) / np.sqrt(rv + 1e-5)[col]
        want = want * gamma[col] + beta[col]
        npt.assert_allclose(y, want, atol=1e-12)

    def test_fresh_eval_is_affine_identity(self):
        # eval before any training: initialized stats are mean 0, var 1
        x = make_rng(18).standard_normal((3, 4, 4, 2))
        y = ops.batch_norm_affine(x, *ops.batch_norm_eval_constants(
            x.shape, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3)))
        npt.assert_allclose(y, x / np.sqrt(1.0 + ops.BN_EPS), atol=1e-12)

    def test_running_stats_update(self):
        """BatchNorm folds each train batch's mean and unbiased variance into
        its running buffers with weight BN_MOMENTUM; eval leaves them be."""
        rng = make_rng(19)
        bn = BatchNorm(2)
        m, mom = 5 * 5 * 16, ops.BN_MOMENTUM
        want_mean, want_var = np.zeros(2), np.ones(2)
        for _ in range(2):
            x = rng.standard_normal((2, 5, 5, 16)) * 2 + 3
            bn.forward(x, "train")
            want_mean = (1 - mom) * want_mean + mom * x.mean(axis=(1, 2, 3))
            want_var = (1 - mom) * want_var + mom * x.var(axis=(1, 2, 3)) * m / (m - 1)
            npt.assert_allclose(bn.running_mean, want_mean, atol=1e-12)
            npt.assert_allclose(bn.running_var, want_var, atol=1e-12)
        bn.forward(x, "eval")
        npt.assert_allclose(bn.running_mean, want_mean, atol=1e-12)

    def test_rank2_input(self):
        rng = make_rng(20)
        x = rng.standard_normal((4, 10))
        y, *_ = ops.batch_norm(x, np.ones(4), np.zeros(4))
        npt.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)

    def test_backward_fd(self):
        rng = make_rng(21)
        x = rng.standard_normal((3, 4, 4, 4))
        gamma = rng.standard_normal(3) + 1.5
        beta = rng.standard_normal(3)
        proj = rng.standard_normal(x.shape)

        def loss():
            y, cache, *_ = ops.batch_norm(x, gamma, beta)
            gx, dg, db = ops.batch_norm_backward(proj, cache)
            return float((y * proj).sum()), {"x": gx, "gamma": dg, "beta": db}

        report = grad_check(loss, {"x": x, "gamma": gamma, "beta": beta},
                            tolerance=1e-6)
        assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


class TestActivations:
    def test_softmax_equal_logits(self):
        for r in (2, 3, 7):
            y = ops.softmax(np.full((2, r), 4.2), axis=1)
            npt.assert_allclose(y, 1.0 / r, atol=1e-15)

    def test_sigmoid_zero(self):
        assert ops.sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_extremes_stable(self):
        y = ops.sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(y))
        npt.assert_allclose(y, [0.0, 1.0], atol=1e-12)

    def test_softmax_123(self):
        y = ops.softmax(np.array([[1.0, 2.0, 3.0]]), axis=1)
        npt.assert_allclose(
            y[0], [0.09003057, 0.24472847, 0.66524096], atol=1e-8
        )

    def test_softmax_shift_invariance(self):
        rng = make_rng(22)
        z = rng.standard_normal((3, 5))
        npt.assert_allclose(
            ops.softmax(z, axis=1), ops.softmax(z + 1e4, axis=1), atol=1e-12
        )

    def test_softmax_jacobian_fd(self):
        rng = make_rng(23)
        z = rng.standard_normal((2, 6))
        proj = rng.standard_normal((2, 6))

        def loss():
            y = ops.softmax(z, axis=1)
            return float((y * proj).sum()), {"z": ops.softmax_backward(proj, y, 1)}

        assert grad_check(loss, {"z": z}, tolerance=1e-6).passed

    def test_relu_and_sigmoid_backward_fd(self):
        rng = make_rng(24)
        x = rng.standard_normal((4, 5)) + 0.1  # keep away from the relu kink
        proj = rng.standard_normal((4, 5))

        def relu_loss():
            return float((ops.relu(x) * proj).sum()), {"x": ops.relu_backward(proj, x)}

        def sig_loss():
            y = ops.sigmoid(x)
            return float((y * proj).sum()), {"x": ops.sigmoid_backward(proj, y)}

        assert grad_check(relu_loss, {"x": x}, tolerance=1e-7).passed
        assert grad_check(sig_loss, {"x": x}, tolerance=1e-7).passed


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


class TestDropout:
    def test_p_zero_identity(self):
        x = make_rng(25).standard_normal((3, 4))
        layer, rng = Dropout(0.0), make_rng(0)
        y, mask = layer.forward(x, "train", rng)
        assert y is x and mask is None
        assert rng.random() == make_rng(0).random()  # nothing drawn
        g = make_rng(1).standard_normal((3, 4))
        assert layer.backward(mask, g) is g

    def test_eval_identity(self):
        x = make_rng(26).standard_normal((3, 4))
        layer = Dropout(0.7)
        y, mask = layer.forward(x, "eval", make_rng(0))
        assert y is x and mask is None
        assert layer.backward(mask, x) is x

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError, match="probability"):
            Dropout(1.0)
        with pytest.raises(ConfigurationError, match="probability"):
            ops.dropout_mask((3,), 1.0, make_rng(0))

    def test_monte_carlo_survival_and_mean(self):
        rng = make_rng(27)
        x = np.abs(rng.standard_normal(1_000_000)) + 1.0
        y, _ = Dropout(0.2).forward(x, "train", rng)
        survivors = (y != 0).mean()
        assert abs(survivors - 0.8) < 0.005
        assert abs(y.mean() - x.mean()) / x.mean() < 0.01

    def test_backward_routes_through_mask(self):
        rng = make_rng(28)
        x = rng.standard_normal((100,))
        layer = Dropout(0.3)
        y, mask = layer.forward(x, "train", rng)
        assert y.tobytes() == (x * mask).tobytes()
        g = layer.backward(mask, np.ones_like(x))
        npt.assert_array_equal(g, mask)


class TestFloat32:
    """A float32 input gives float32 outputs, caches and running buffers."""

    def test_kernels_keep_float32(self):
        rng = make_rng(30)
        f32 = np.float32
        x = np.maximum(rng.standard_normal((3, 5, 5, 2)), 0.0).astype(f32)
        y = ops.avg_pool2d(x, 3, 2, 1)
        g = rng.standard_normal(y.shape).astype(f32)
        gx = ops.avg_pool2d_backward(g, x.shape, 3, 2, 1)
        assert y.dtype == f32 and gx.dtype == f32
        y = ops.max_pool2d(x, 3, 2, 1)
        gx = ops.max_pool2d_backward(g, x, y, 3, 2, 1)
        assert y.dtype == f32 and gx.dtype == f32

        w = rng.standard_normal((4, 3, 3, 3)).astype(f32)
        y = ops.conv2d(x, w, 2, 1)
        gx, gw = ops.conv2d_backward(np.ones_like(y), x, w, 2, 1)
        assert [a.dtype for a in (y, gx, gw)] == [f32] * 3

        for shape in ((3, 4), (3, 5, 5, 2)):
            x = rng.standard_normal(shape).astype(f32)
            bn = BatchNorm(3, dtype=f32)
            y, cache = bn.forward(x, "train")
            gx = bn.backward(cache, np.ones_like(y))
            arrays = [y, bn.running_mean, bn.running_var, gx, bn.gamma.grad, bn.beta.grad,
                      *cache]
            assert [a.dtype for a in arrays] == [f32] * len(arrays), shape
            assert bn.forward(x, "eval")[0].dtype == f32, shape


class TestDeterminism:
    def test_kernels_deterministic(self):
        rng = make_rng(29)
        x = rng.standard_normal((4, 6, 6, 2))
        w = rng.standard_normal((4, 2, 3, 3))
        a = ops.conv2d(x, w, groups=2, padding=1)
        b = ops.conv2d(x, w, groups=2, padding=1)
        npt.assert_array_equal(a, b)
        d1 = ops.dropout_mask(x.shape, 0.4, make_rng(99))
        d2 = ops.dropout_mask(x.shape, 0.4, make_rng(99))
        npt.assert_array_equal(d1, d2)


# ---------------------------------------------------------------------------
# every kernel reads its array arguments and writes only an ``out`` it is handed
# ---------------------------------------------------------------------------


def _kernel_calls():
    """One or more (args, kwargs) per public ``ops`` kernel; every ndarray in
    ``args`` (also inside a tuple) is an input, ``kwargs`` may hold an ``out``."""
    rng = make_rng(40)
    x = rng.standard_normal((4, 5, 5, 2))
    g1 = rng.standard_normal((4, 5, 5, 2))
    w = rng.standard_normal((6, 2, 3, 3))
    w1 = rng.standard_normal((6, 4, 1, 1))
    gamma, beta, mean = (rng.standard_normal(4) for _ in range(3))
    var = np.abs(rng.standard_normal(4)) + 0.5
    _, cache, _, _ = ops.batch_norm(x, gamma, beta)
    flat = ops.batch_norm_eval_constants(x.shape, gamma, beta, mean, var)
    cols = ops.batch_norm_eval_constants((4, ops.BN_FLAT_SIZE, 1, 1), gamma, beta, mean, var)
    yc, yc1 = ops.conv2d(x, w, 2, 1, 2), ops.conv2d(x, w1)
    ya = ops.avg_pool2d(x, 3, 2, 1)
    ym = ops.max_pool2d(x, 3, 2, 1)
    p = ops.softmax(x[:, 0, 0], axis=0)
    s = ops.sigmoid(x)
    return {
        "to_chwn": [((x,), {})],
        "to_nchw": [((x,), {})],
        "conv2d": [((x, w, 2, 1, 2), {}), ((x, w1), {})],
        "conv2d_backward": [((yc, x, w, 2, 1, 2), {}), ((yc1, x, w1), {})],
        "fully_connected": [((x[:, 0, 0], w1[:, :, 0, 0]), {}),
                            ((x[:, 0, 0], w1[:, :2, 0, 0], 2), {})],
        "fully_connected_backward": [((yc1[:, 0, 0], x[:, 0, 0], w1[:, :, 0, 0]), {}),
                                     ((yc1[:, 0, 0], x[:, 0, 0], w1[:, :2, 0, 0], 2), {})],
        "avg_pool2d": [((x, 3, 2, 1), {})],
        "avg_pool2d_backward": [((ya, x.shape, 3, 2, 1), {})],
        "max_pool2d": [((x, 3, 2, 1), {}), ((x, 2, 2), {})],
        "max_pool2d_backward": [((ym, x, ym, 3, 2, 1), {})],
        "global_avg_pool": [((x,), {})],
        "global_avg_pool_backward": [((x[:, 0, 0], x.shape), {})],
        "batch_norm": [((x, gamma, beta), {}), ((x[:, 0, 0], gamma, beta), {})],
        "batch_norm_eval_constants": [((x.shape, gamma, beta, mean, var), {}),
                                      (((4, ops.BN_FLAT_SIZE, 1, 1), gamma, beta, mean, var), {})],
        "batch_norm_affine": [((x, *flat), {}), ((x, *cols), {"out": np.empty_like(x)})],
        "batch_norm_backward": [((g1, cache), {})],
        "relu": [((x,), {}), ((x,), {"out": np.empty_like(x)})],
        "relu_backward": [((g1, x), {})],
        "sigmoid": [((x,), {})],
        "sigmoid_backward": [((g1, s), {})],
        "softmax": [((x[:, 0, 0],), {"axis": 0})],
        "softmax_backward": [((g1[:, 0, 0], p), {"axis": 0})],
        "dropout_mask": [((x.shape, 0.3, make_rng(1)), {})],
        "dropblock_mask": [((x.shape, 3, 0.3, make_rng(2)), {})],
    }


def _arrays(args):
    for a in args:
        if isinstance(a, np.ndarray):
            yield a
        elif isinstance(a, tuple):
            yield from _arrays(a)


def _ops_functions():
    return {name: f for name, f in vars(ops).items()
            if inspect.isfunction(inspect.unwrap(f)) and f.__module__ == ops.__name__}


class TestKernelsArePure:
    def test_every_kernel_is_listed(self):
        public = {name for name in _ops_functions() if not name.startswith("_")}
        assert public == set(_kernel_calls())

    def test_no_function_takes_a_mode(self):
        for name, f in _ops_functions().items():
            taken = {"train", "mode", "momentum", "eps"} & set(inspect.signature(f).parameters)
            assert not taken, f"{name} takes {taken}"

    @pytest.mark.parametrize("name", sorted(_kernel_calls()))
    def test_inputs_read_only_and_unchanged(self, name):
        """Each kernel runs with every array argument read-only, and leaves
        their values as they were."""
        for args, kwargs in _kernel_calls()[name]:
            arrays = list(_arrays(args))
            before = [a.copy() for a in arrays]
            for a in arrays:
                a.flags.writeable = False
            getattr(ops, name)(*args, **kwargs)
            for a, b in zip(arrays, before):
                assert a.tobytes() == b.tobytes(), name
