"""Kernel tests: every forward against an independent oracle, every backward
against central finite differences."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splatnet import ops
from splatnet.gradcheck import grad_check
from splatnet.layers import MaxPool2d
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
        x = rng.standard_normal((2, 3, 4, 4))
        w = np.eye(3).reshape(3, 3, 1, 1)
        npt.assert_array_equal(ops.conv2d(x, w)[0], x)

    def test_constant_sum(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y, _ = ops.conv2d(x, w)
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
        got, _ = ops.conv2d(x, w, stride, padding, groups)
        want = conv2d_oracle(x, w, stride, padding, groups)
        npt.assert_allclose(got, want, atol=1e-12)

    def test_groups_equal_concatenated_slices(self):
        rng = make_rng(2)
        g = 3
        x = rng.standard_normal((2, 6, 6, 6))
        w = rng.standard_normal((9, 2, 3, 3))
        grouped, _ = ops.conv2d(x, w, stride=1, padding=1, groups=g)
        parts = [
            ops.conv2d(x[:, 2 * i : 2 * (i + 1)], w[3 * i : 3 * (i + 1)],
                       stride=1, padding=1)[0]
            for i in range(g)
        ]
        npt.assert_array_equal(grouped, np.concatenate(parts, axis=1))

    def test_linearity(self):
        rng = make_rng(3)
        x = rng.standard_normal((1, 2, 5, 5))
        y = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        a, b = 1.7, -0.4
        lhs, _ = ops.conv2d(a * x + b * y, w, padding=1)
        rhs = a * ops.conv2d(x, w, padding=1)[0] + b * ops.conv2d(y, w, padding=1)[0]
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_divisibility_errors(self):
        x = np.zeros((1, 3, 4, 4))
        w = np.zeros((4, 1, 1, 1))
        with pytest.raises(ConfigurationError, match="in_channels 3"):
            ops.conv2d(x, w, groups=2)
        with pytest.raises(ConfigurationError, match="out_channels 5"):
            ops.conv2d(np.zeros((1, 4, 4, 4)), np.zeros((5, 2, 1, 1)), groups=2)
        with pytest.raises(ConfigurationError, match="kernel"):
            ops.conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)))

    def test_backward_matches_finite_differences(self):
        rng = make_rng(4)
        x = rng.standard_normal((2, 4, 5, 5))
        w = rng.standard_normal((6, 2, 3, 3))
        proj = rng.standard_normal((2, 6, 3, 3))

        def loss():
            y, cols = ops.conv2d(x, w, (2, 2), (1, 1), 2)
            gx, gw = ops.conv2d_backward(proj, cols, x.shape, w, (2, 2), (1, 1), 2)
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

        y, cols = ops.conv2d(x, w, stride, padding, g)
        npt.assert_allclose(y, conv2d_oracle(x, w, stride, padding, g), atol=1e-12)
        # an eval-mode backward rebuilds exactly the columns the forward returned
        assert ops.im2col(x, case["kernel"], stride, padding).tobytes() == cols.tobytes()

        grad_out = rng.standard_normal(y.shape)
        gx, gw = ops.conv2d_backward(grad_out, cols, x.shape, w, stride, padding, g)
        want_gx, want_gw = conv2d_backward_oracle(grad_out, x, w, stride, padding, g)
        assert gx.shape == x.shape and gx.flags.c_contiguous
        npt.assert_allclose(gx, want_gx, atol=1e-12)
        npt.assert_allclose(gw, want_gw, atol=1e-12)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


class TestPooling:
    def test_avg_constant(self):
        x = np.full((1, 2, 6, 6), 3.25)
        y = ops.avg_pool2d(x, 3, stride=2, padding=1)
        npt.assert_allclose(y, 3.25)

    def test_avg_2x2_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        y = ops.avg_pool2d(x, 2, stride=2)
        assert y.item() == 2.5

    def test_avg_against_oracle(self):
        rng = make_rng(5)
        x = rng.standard_normal((2, 3, 7, 6))
        got = ops.avg_pool2d(x, (3, 2), (2, 1), (1, 1))
        want = avg_pool_oracle(x, (3, 2), (2, 1), (1, 1))
        npt.assert_allclose(got, want, atol=1e-12)

    def test_mean_of_means_tiling(self):
        # pooling over a partitioning grid then averaging equals one global mean
        rng = make_rng(6)
        x = rng.standard_normal((2, 3, 8, 8))
        tiled = ops.avg_pool2d(x, 4, stride=4)
        npt.assert_allclose(ops.global_avg_pool(tiled), ops.global_avg_pool(x),
                            atol=1e-12)

    def test_avg_kernel_too_large(self):
        with pytest.raises(ConfigurationError, match="pool kernel"):
            ops.avg_pool2d(np.zeros((1, 1, 3, 3)), 5)

    def test_avg_backward_fd(self):
        rng = make_rng(7)
        x = rng.standard_normal((1, 2, 6, 6))
        proj = rng.standard_normal((1, 2, 3, 3))

        def loss():
            y = ops.avg_pool2d(x, 3, 2, 1)
            gx = ops.avg_pool2d_backward(proj, x.shape, 3, 2, 1)
            return float((y * proj).sum()), {"x": gx}

        assert grad_check(loss, {"x": x}, tolerance=1e-8).passed

    def test_max_pool_and_backward(self):
        rng = make_rng(8)
        x = rng.standard_normal((2, 3, 7, 7))
        y = ops.max_pool2d(x, 3, 2, 1)
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
        proj = rng.standard_normal(y.shape)

        def loss():
            yy = ops.max_pool2d(x, 3, 2, 1)
            gx = ops.max_pool2d_backward(proj, x, yy, 3, 2, 1)
            return float((yy * proj).sum()), {"x": gx}

        assert grad_check(loss, {"x": x}, tolerance=1e-8).passed

    def test_max_pool_layer_backward_after_eval_forward(self):
        # the layer finds the argmax in its backward, whichever mode ran forward
        rng = make_rng(31)
        x = np.maximum(rng.standard_normal((2, 3, 7, 6)), 0.0)
        grad_out = rng.standard_normal((2, 3, 4, 3))
        grads = []
        for mode in ("train", "eval"):
            pool = MaxPool2d(3, 2, 1)
            pool.forward(x, mode)
            grads.append(pool.backward(grad_out))
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_global_avg_pool(self):
        rng = make_rng(9)
        x = rng.standard_normal((3, 4, 5, 5))
        got = ops.global_avg_pool(x)
        want = np.array([[x[b, c].sum() / 25.0 for c in range(4)] for b in range(3)])
        npt.assert_allclose(got, want, atol=1e-12)
        npt.assert_allclose(ops.global_avg_pool(np.full((1, 2, 3, 3), 7.5)), 7.5)
        one = rng.standard_normal((2, 6, 1, 1))
        npt.assert_array_equal(ops.global_avg_pool(one), one[:, :, 0, 0])


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

        y = ops.avg_pool2d(x, kernel, stride, padding)
        npt.assert_allclose(y, avg_pool_oracle(x, kernel, stride, padding),
                            rtol=0, atol=1e-14)
        grad_out = rng.standard_normal(y.shape)
        gx = ops.avg_pool2d_backward(grad_out, x.shape, kernel, stride, padding)
        want = avg_pool_backward_oracle(grad_out, x.shape, kernel, stride, padding)
        npt.assert_allclose(gx, want, rtol=0, atol=1e-14)
        assert gx.flags.c_contiguous and gx.dtype == grad_out.dtype

        y = ops.max_pool2d(x, kernel, stride, padding)
        want_y, want_idx = max_pool_oracle(x, kernel, stride, padding)
        npt.assert_array_equal(y, want_y)
        npt.assert_array_equal(ops.max_pool2d_argmax(x, y, kernel, stride, padding), want_idx)
        gx = ops.max_pool2d_backward(grad_out, x, y, kernel, stride, padding)
        want = max_pool_backward_oracle(grad_out, want_idx, x.shape, kernel, stride, padding)
        npt.assert_array_equal(gx, want)


# ---------------------------------------------------------------------------
# fully connected
# ---------------------------------------------------------------------------


class TestFullyConnected:
    def test_identity(self):
        rng = make_rng(10)
        x = rng.standard_normal((4, 6))
        npt.assert_array_equal(ops.fully_connected(x, np.eye(6)), x)

    def test_two_groups_are_independent_halves(self):
        rng = make_rng(11)
        x = rng.standard_normal((3, 8))
        w = rng.standard_normal((10, 4))
        got = ops.fully_connected(x, w, groups=2)
        left = x[:, :4] @ w[:5].T
        right = x[:, 4:] @ w[5:].T
        npt.assert_allclose(got, np.concatenate([left, right], axis=1), atol=1e-12)

    def test_against_oracle(self):
        rng = make_rng(12)
        x = rng.standard_normal((5, 12))
        w = rng.standard_normal((9, 4))
        b = rng.standard_normal(9)
        npt.assert_allclose(
            ops.fully_connected(x, w, b, groups=3),
            fc_oracle(x, w, b, 3),
            atol=1e-12,
        )

    def test_errors(self):
        with pytest.raises(ConfigurationError, match="in_features"):
            ops.fully_connected(np.zeros((1, 5)), np.zeros((4, 2)), groups=2)
        with pytest.raises(ConfigurationError, match="out_features"):
            ops.fully_connected(np.zeros((1, 4)), np.zeros((5, 2)), groups=2)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_backward_against_einsum(self, groups):
        rng = make_rng(31)
        n, f, o = 5, 16, 12
        x = rng.standard_normal((n, f))
        w = rng.standard_normal((o, f // groups))
        g = rng.standard_normal((n, o))
        gx, gw, gb = ops.fully_connected_backward(g, x, w, groups, True)
        xg = x.reshape(n, groups, -1)
        gg = g.reshape(n, groups, -1)
        wg = w.reshape(groups, o // groups, -1)
        npt.assert_allclose(gw, np.einsum("ngo,ngf->gof", gg, xg).reshape(w.shape),
                            rtol=0, atol=1e-12)
        npt.assert_allclose(gx, np.einsum("ngo,gof->ngf", gg, wg).reshape(x.shape),
                            rtol=0, atol=1e-12)
        npt.assert_allclose(gb, g.sum(axis=0), rtol=0, atol=1e-12)

    def test_backward_allocates_only_the_weight_gradient(self):
        # a 2048x1000 classifier at batch 1: the 16.4 MB weight gradient is
        # the only large allocation
        rng = make_rng(32)
        x = rng.standard_normal((1, 2048))
        w = rng.standard_normal((1000, 2048))
        g = rng.standard_normal((1, 1000))
        tracemalloc.start()
        try:
            _, gw, _ = ops.fully_connected_backward(g, x, w, 1, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * gw.nbytes

    def test_backward_fd(self):
        rng = make_rng(13)
        x = rng.standard_normal((3, 8))
        w = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        proj = rng.standard_normal((3, 6))

        def loss():
            y = ops.fully_connected(x, w, b, 2)
            gx, gw, gb = ops.fully_connected_backward(proj, x, w, 2, True)
            return float((y * proj).sum()), {"x": gx, "w": gw, "b": gb}

        assert grad_check(loss, {"x": x, "w": w, "b": b}, tolerance=1e-7).passed


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = make_rng(14)
        x = rng.standard_normal((8, 3, 6, 6)) * 4 + 2
        gamma, beta = np.ones(3), np.zeros(3)
        rm, rv = np.zeros(3), np.ones(3)
        y, _ = ops.batch_norm(x, gamma, beta, rm, rv, "train")
        npt.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        npt.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        rng = make_rng(15)
        x = rng.standard_normal((4, 2, 3, 3))
        beta = np.array([1.5, -2.0])
        y, _ = ops.batch_norm(x, np.zeros(2), beta, np.zeros(2), np.ones(2), "train")
        npt.assert_allclose(y, np.broadcast_to(beta[None, :, None, None], y.shape))

    def test_against_two_pass_oracle(self):
        rng = make_rng(16)
        x = rng.standard_normal((5, 4, 3, 2)) * 3 + 1
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        y, _ = ops.batch_norm(x, gamma, beta, np.zeros(4), np.ones(4), "train",
                              eps=1e-5)
        want = np.empty_like(x)
        for c in range(4):
            vals = x[:, c]
            mean = vals.sum() / vals.size
            var = ((vals - mean) ** 2).sum() / vals.size
            want[:, c] = (vals - mean) / np.sqrt(var + 1e-5) * gamma[c] + beta[c]
        npt.assert_allclose(y, want, atol=1e-10)

    def test_eval_uses_running_stats(self):
        rng = make_rng(17)
        x = rng.standard_normal((2, 3, 4, 4))
        rm = rng.standard_normal(3)
        rv = np.abs(rng.standard_normal(3)) + 0.5
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        y, cache = ops.batch_norm(x, gamma, beta, rm, rv, "eval")
        assert cache is None
        want = (x - rm[None, :, None, None]) / np.sqrt(rv + 1e-5)[None, :, None, None]
        want = want * gamma[None, :, None, None] + beta[None, :, None, None]
        npt.assert_allclose(y, want, atol=1e-12)

    def test_fresh_eval_is_affine_identity(self):
        # eval before any training: initialized stats are mean 0, var 1
        x = make_rng(18).standard_normal((2, 3, 4, 4))
        y, _ = ops.batch_norm(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3),
                              "eval", eps=0.0)
        npt.assert_allclose(y, x, atol=1e-12)

    def test_running_stats_update(self):
        rng = make_rng(19)
        x = rng.standard_normal((16, 2, 5, 5)) * 2 + 3
        rm, rv = np.zeros(2), np.ones(2)
        ops.batch_norm(x, np.ones(2), np.zeros(2), rm, rv, "train", momentum=1.0)
        m = x.size // 2
        npt.assert_allclose(rm, x.mean(axis=(0, 2, 3)), atol=1e-12)
        npt.assert_allclose(rv, x.var(axis=(0, 2, 3)) * m / (m - 1), atol=1e-12)

    def test_rank2_input(self):
        rng = make_rng(20)
        x = rng.standard_normal((10, 4))
        y, _ = ops.batch_norm(x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4),
                              "train")
        npt.assert_allclose(y.mean(axis=0), 0.0, atol=1e-12)

    def test_backward_fd(self):
        rng = make_rng(21)
        x = rng.standard_normal((4, 3, 4, 4))
        gamma = rng.standard_normal(3) + 1.5
        beta = rng.standard_normal(3)
        proj = rng.standard_normal(x.shape)

        def loss():
            y, cache = ops.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), "train")
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
        y, mask = ops.dropout(x, 0.0, make_rng(0), "train")
        assert mask is None
        npt.assert_array_equal(y, x)

    def test_eval_identity(self):
        x = make_rng(26).standard_normal((3, 4))
        y, mask = ops.dropout(x, 0.7, make_rng(0), "eval")
        assert mask is None
        npt.assert_array_equal(y, x)

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError, match="probability"):
            ops.dropout(np.zeros(3), 1.0, make_rng(0), "train")

    def test_monte_carlo_survival_and_mean(self):
        rng = make_rng(27)
        x = np.abs(rng.standard_normal(1_000_000)) + 1.0
        y, mask = ops.dropout(x, 0.2, rng, "train")
        survivors = (y != 0).mean()
        assert abs(survivors - 0.8) < 0.005
        assert abs(y.mean() - x.mean()) / x.mean() < 0.01

    def test_backward_routes_through_mask(self):
        rng = make_rng(28)
        x = rng.standard_normal((100,))
        y, mask = ops.dropout(x, 0.3, rng, "train")
        g = ops.dropout_backward(np.ones_like(x), mask)
        npt.assert_array_equal(g, mask)


class TestFloat32:
    """A float32 input gives float32 outputs, caches and running buffers."""

    def test_kernels_keep_float32(self):
        rng = make_rng(30)
        f32 = np.float32
        x = np.maximum(rng.standard_normal((2, 3, 5, 5)), 0.0).astype(f32)
        y = ops.avg_pool2d(x, 3, 2, 1)
        g = rng.standard_normal(y.shape).astype(f32)
        gx = ops.avg_pool2d_backward(g, x.shape, 3, 2, 1)
        assert y.dtype == f32 and gx.dtype == f32
        y = ops.max_pool2d(x, 3, 2, 1)
        gx = ops.max_pool2d_backward(g, x, y, 3, 2, 1)
        assert y.dtype == f32 and gx.dtype == f32

        w = rng.standard_normal((4, 3, 3, 3)).astype(f32)
        y, cols = ops.conv2d(x, w, 2, 1)
        gx, gw = ops.conv2d_backward(np.ones_like(y), cols, x.shape, w, 2, 1)
        assert [a.dtype for a in (y, cols, gx, gw)] == [f32] * 4

        for shape in ((4, 3), (2, 3, 5, 5)):
            x = rng.standard_normal(shape).astype(f32)
            gamma, beta = np.ones(3, f32), np.zeros(3, f32)
            rm, rv = np.zeros(3, f32), np.ones(3, f32)
            y, cache = ops.batch_norm(x, gamma, beta, rm, rv, "train")
            gx, dgamma, dbeta = ops.batch_norm_backward(np.ones_like(y), cache)
            arrays = [y, rm, rv, gx, dgamma, dbeta, *cache]
            assert [a.dtype for a in arrays] == [f32] * len(arrays), shape
            y, _ = ops.batch_norm(x, gamma, beta, rm, rv, "eval")
            assert y.dtype == f32, shape

        x = rng.standard_normal((3, 8)).astype(f32)
        w = rng.standard_normal((6, 4)).astype(f32)
        grads = ops.fully_connected_backward(np.ones((3, 6), f32), x, w, 2, True)
        assert [a.dtype for a in grads] == [f32] * 3


class TestDeterminism:
    def test_kernels_deterministic(self):
        rng = make_rng(29)
        x = rng.standard_normal((2, 4, 6, 6))
        w = rng.standard_normal((4, 2, 3, 3))
        a, _ = ops.conv2d(x, w, groups=2, padding=1)
        b, _ = ops.conv2d(x, w, groups=2, padding=1)
        npt.assert_array_equal(a, b)
        d1, _ = ops.dropout(x, 0.4, make_rng(99), "train")
        d2, _ = ops.dropout(x, 0.4, make_rng(99), "train")
        npt.assert_array_equal(d1, d2)
