"""Stateful layer wrappers around the functional kernels, and the chain runner.

Each layer caches whatever its backward pass needs during forward; a layer is
therefore a one-slot tape: call ``forward`` then ``backward`` once, in that
order. Each backward writes (replaces) its parameters' ``Parameter.grad``;
an eval-mode batch-norm backward writes no gamma/beta gradient.

A composite module names each of its chains once, as a list of layers in
forward order (``None`` for a layer the configuration leaves out):
:func:`run_forward` runs the list, :func:`run_backward` runs it in reverse.
Only the joins of two paths (the residual sum, the attention-weighted
fusion) route gradients by hand.

Every layer also prices one image: ``cost(x_shape, y_shape)`` returns
``(macs, aux_ops)`` from the per-image shapes of its first input and its
output (conventions in :mod:`splatnet.analysis`).
"""

from __future__ import annotations

from math import prod

import numpy as np

from . import ops
from .params import ConfigurationError, Module, Parameter, kaiming_normal


def run_forward(layers, x, mode="train", rng=None):
    for layer in layers:
        if layer is not None:
            x = layer.forward(x, mode, rng)
    return x


def run_backward(layers, grad):
    for layer in reversed(layers):
        if layer is not None:
            grad = layer.backward(grad)
    return grad


class Conv2d(Module):
    def __init__(self, in_channels, out_channels, kernel, stride=1, padding=0,
                 groups=1, rng=None, dtype=np.float64):
        kh, kw = ops._pair(kernel)
        if in_channels % groups or out_channels % groups:
            raise ConfigurationError(
                f"conv channels ({in_channels} -> {out_channels}) not divisible "
                f"by groups {groups}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = (kh, kw)
        self.stride = ops._pair(stride)
        self.padding = ops._pair(padding)
        self.groups = groups
        fan_in = (in_channels // groups) * kh * kw
        shape = (out_channels, in_channels // groups, kh, kw)
        if rng is None:
            w = np.zeros(shape, dtype=dtype)
        else:
            w = kaiming_normal(rng, shape, fan_in, dtype)
        self.weight = Parameter(w, decay_eligible=True)
        self._x = None
        self._cols = None

    def forward(self, x, mode="train", rng=None):
        self._x = x
        y, cols = ops.conv2d(x, self.weight.value, self.stride, self.padding, self.groups)
        # the columns are kh*kw times the input: only a train-mode forward keeps them
        self._cols = cols if mode == "train" else None
        return y

    def cost(self, x_shape, y_shape):
        kh, kw = self.kernel
        macs = prod(y_shape) * (self.in_channels // self.groups) * kh * kw
        return macs, 0

    def backward(self, grad_out):
        cols = self._cols
        if cols is None:  # after an eval-mode forward
            cols = ops.im2col(self._x, self.kernel, self.stride, self.padding)
        self._cols = None
        gx, gw = ops.conv2d_backward(grad_out, cols, self._x.shape, self.weight.value,
                                     self.stride, self.padding, self.groups)
        self.weight.set_grad(gw)
        return gx


class Linear(Module):
    """Grouped fully-connected layer on [N, F] inputs."""

    def __init__(self, in_features, out_features, groups=1, bias=True,
                 rng=None, dtype=np.float64):
        if in_features % groups or out_features % groups:
            raise ConfigurationError(
                f"linear features ({in_features} -> {out_features}) not divisible "
                f"by groups {groups}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.groups = groups
        shape = (out_features, in_features // groups)
        if rng is None:
            w = np.zeros(shape, dtype=dtype)
        else:
            w = kaiming_normal(rng, shape, in_features // groups, dtype)
        self.weight = Parameter(w, decay_eligible=True)
        self.bias = Parameter(np.zeros(out_features, dtype=dtype), decay_eligible=False) if bias else None
        self._x = None

    def forward(self, x, mode="train", rng=None):
        self._x = x
        b = self.bias.value if self.bias is not None else None
        return ops.fully_connected(x, self.weight.value, b, self.groups)

    def cost(self, x_shape, y_shape):
        macs = self.out_features * (self.in_features // self.groups)
        return macs, self.out_features if self.bias is not None else 0

    def backward(self, grad_out):
        gx, gw, gb = ops.fully_connected_backward(
            grad_out, self._x, self.weight.value, self.groups,
            has_bias=self.bias is not None,
        )
        self.weight.set_grad(gw)
        if self.bias is not None:
            self.bias.set_grad(gb)
        return gx


class BatchNorm(Module):
    """Per-channel batch norm for rank-2 or rank-4 inputs (``ops.BN_*`` constants)."""

    def __init__(self, num_features, dtype=np.float64):
        self.num_features = num_features
        self.gamma = Parameter(np.ones(num_features, dtype=dtype), decay_eligible=False)
        self.beta = Parameter(np.zeros(num_features, dtype=dtype), decay_eligible=False)
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        self._cache = None
        self._mode = "train"

    def extra_state(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, mode="train", rng=None):
        self._mode = mode
        y, cache = ops.batch_norm(x, self.gamma.value, self.beta.value,
                                  self.running_mean, self.running_var, mode)
        self._cache = cache
        return y

    def cost(self, x_shape, y_shape):
        return 0, 2 * prod(y_shape)

    def backward(self, grad_out):
        if self._mode != "train":
            # eval mode: input gradient only; gamma/beta grads stay as they were
            return ops.batch_norm_eval_backward(grad_out, self.gamma.value, self.running_var)
        gx, dgamma, dbeta = ops.batch_norm_backward(grad_out, self._cache)
        self.gamma.set_grad(dgamma)
        self.beta.set_grad(dbeta)
        return gx


class ReLU(Module):
    def __init__(self):
        self._x = None

    def forward(self, x, mode="train", rng=None):
        self._x = x
        return ops.relu(x)

    def cost(self, x_shape, y_shape):
        return 0, prod(y_shape)

    def backward(self, grad_out):
        return ops.relu_backward(grad_out, self._x)


class AddReLU(Module):
    """Residual join: ReLU of the branch output plus the shortcut."""

    def __init__(self):
        self._x = None

    def forward(self, x, shortcut):
        if x.shape != shortcut.shape:
            raise ConfigurationError(
                f"residual/shortcut shape mismatch: {x.shape[1:]} vs "
                f"{shortcut.shape[1:]} per image"
            )
        self._x = x + shortcut
        return ops.relu(self._x)

    def cost(self, x_shape, y_shape):
        return 0, 2 * prod(y_shape)

    def backward(self, grad_out):
        return ops.relu_backward(grad_out, self._x)


class AvgPool2d(Module):
    def __init__(self, kernel, stride=None, padding=0):
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self._x_shape = None

    def forward(self, x, mode="train", rng=None):
        self._x_shape = x.shape
        return ops.avg_pool2d(x, self.kernel, self.stride, self.padding)

    def cost(self, x_shape, y_shape):
        return 0, prod(y_shape) * prod(ops._pair(self.kernel))

    def backward(self, grad_out):
        return ops.avg_pool2d_backward(grad_out, self._x_shape, self.kernel,
                                       self.stride, self.padding)


class MaxPool2d(Module):
    def __init__(self, kernel, stride=None, padding=0):
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self._x = None
        self._y = None

    def forward(self, x, mode="train", rng=None):
        # the backward finds each window's argmax from the input and output
        self._x = x
        self._y = ops.max_pool2d(x, self.kernel, self.stride, self.padding)
        return self._y

    def cost(self, x_shape, y_shape):
        return 0, prod(y_shape) * prod(ops._pair(self.kernel))

    def backward(self, grad_out):
        return ops.max_pool2d_backward(grad_out, self._x, self._y,
                                       self.kernel, self.stride, self.padding)


class GlobalAvgPool(Module):
    def __init__(self):
        self._x_shape = None

    def forward(self, x, mode="train", rng=None):
        self._x_shape = x.shape
        return ops.global_avg_pool(x)

    def cost(self, x_shape, y_shape):
        return 0, prod(x_shape)

    def backward(self, grad_out):
        return ops.global_avg_pool_backward(grad_out, self._x_shape)


class Dropout(Module):
    def __init__(self, p):
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._mask = None

    def forward(self, x, mode="train", rng=None):
        y, self._mask = ops.dropout(x, self.p, rng, mode)
        return y

    def cost(self, x_shape, y_shape):
        return 0, 0  # the identity at inference

    def backward(self, grad_out):
        return ops.dropout_backward(grad_out, self._mask)


class DropBlock(Module):
    """DropBlock on [N, C, H, W] maps: a train forward zeroes contiguous
    squares at rate ``p``; eval is the identity."""

    def __init__(self, p, block_size):
        self.p = p
        self.block_size = block_size
        self._mask = None

    def forward(self, x, mode="train", rng=None):
        self._mask = None
        if mode != "train":
            return x
        # the block is clamped (and kept odd) when the map is smaller
        size = min(self.block_size, x.shape[2], x.shape[3])
        if size % 2 == 0:
            size -= 1
        self._mask = ops.dropblock_mask(x.shape, size, self.p, rng, dtype=x.dtype)
        return x * self._mask

    def cost(self, x_shape, y_shape):
        return 0, 0  # the identity at inference

    def backward(self, grad_out):
        return ops.dropout_backward(grad_out, self._mask)
