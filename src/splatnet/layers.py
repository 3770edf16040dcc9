"""Stateful layer wrappers around the functional kernels, and the chain runner.

Each layer keeps what its backward reads in one slot, ``_tape``, and its
backward pops the slot and hands the kernel exactly what it kept: call
``forward`` then ``backward`` once, in that order. Each array is kept once:
a conv or max pool keeps its input (usually the array the ReLU before it
keeps), which its backward kernel takes as it is. No layer writes in place
into an array that an earlier layer's tape holds, and a train forward's
input must not change before its backward. Each backward writes (replaces)
its parameters' ``Parameter.grad``; an eval-mode batch-norm backward writes
no gamma/beta gradient.

Layers take a third mode, :data:`INFER`. What a layer computes branches only
on ``mode == "train"``, so INFER computes exactly what eval mode computes;
:func:`run_forward` empties the slot of each layer it runs in INFER (the two
joins, called directly, empty their own). In INFER, :class:`BatchNorm`,
:class:`ReLU` and :class:`AddReLU` write their output into their (first)
input: in every chain that input is an array the previous layer has just
made and nothing else holds, a conv or FC output or a batch-norm output.
A network's eval forward runs its layers in INFER, so inference holds no
activations and allocates none for these layers, and leaves nothing for a
backward. Layers and units called directly in eval mode keep their tapes
and leave their inputs as they were.

A composite module names each of its chains once, as a list of layers in
forward order (``None`` for a layer the configuration leaves out):
:func:`run_forward` runs the list, :func:`run_backward` runs it in reverse.
Only the joins of two paths (the residual sum, the attention-weighted
fusion) route gradients by hand.

Parameter values and batch-norm running buffers are read-only; their
writers (the build, ``load_state_dict``, the SGD update and a train-mode
batch norm's running update) go through :meth:`Module.writing`, which bumps
the owning modules' ``version`` (:mod:`splatnet.params`). So a
:class:`BatchNorm` keeps its eval constants keyed by (version, input shape)
and rebuilds them only when that key changes.

Every layer takes [C, H, W, N] or [F, N] activations (:mod:`splatnet.ops`)
and prices one image: ``cost(x_shape, y_shape)`` returns ``(macs, aux_ops)``
from the per-image shapes (all axes but the last) of its first input and its
output (conventions in :mod:`splatnet.analysis`).
"""

from __future__ import annotations

from math import prod

import numpy as np

from . import ops
from .params import ConfigurationError, Module, Parameter, kaiming_normal

INFER = "infer"  # eval without a tape; see the module docstring


def run_forward(layers, x, mode="train", rng=None):
    for layer in layers:
        if layer is not None:
            x = layer.forward(x, mode, rng)
            if mode == INFER:
                layer._tape = None
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
        self.stride = ops._pair(stride)
        self.padding = ops._pair(padding)
        self.groups = groups
        shape = (out_channels, in_channels // groups, kh, kw)
        self.weight = Parameter(kaiming_normal(rng, shape, prod(shape[1:]), dtype))

    def forward(self, x, mode="train", rng=None):
        self._tape = x
        return ops.conv2d(x, self.weight.value, self.stride, self.padding, self.groups)

    def cost(self, x_shape, y_shape):
        # each output element sums one filter: Cin/groups * kh * kw products
        return prod(y_shape) * prod(self.weight.value.shape[1:]), 0

    def backward(self, grad_out):
        x, self._tape = self._tape, None
        gx, gw = ops.conv2d_backward(grad_out, x, self.weight.value, self.stride,
                                     self.padding, self.groups)
        self.weight.set_grad(gw)
        return gx


class Linear(Module):
    """Grouped fully-connected layer on [F, N] inputs: the grouped 1x1
    convolution of the [F, 1, 1, N] map, run on ``ops.conv2d`` views."""

    def __init__(self, in_features, out_features, groups=1, bias=True,
                 rng=None, dtype=np.float64):
        if in_features % groups or out_features % groups:
            raise ConfigurationError(
                f"linear features ({in_features} -> {out_features}) not divisible "
                f"by groups {groups}"
            )
        self.in_features = in_features
        self.groups = groups
        shape = (out_features, in_features // groups)
        self.weight = Parameter(kaiming_normal(rng, shape, prod(shape[1:]), dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype)) if bias else None

    def forward(self, x, mode="train", rng=None):
        if x.shape[0] != self.in_features:
            raise ConfigurationError(f"linear layer expects {self.in_features} input "
                                     f"features, got {x.shape[0]}")
        x = self._tape = x[:, None, None]  # [F, 1, 1, N]
        y = ops.conv2d(x, self.weight.value[:, :, None, None], groups=self.groups)[:, 0, 0]
        if self.bias is not None:
            y += self.bias.value[:, None]
        return y

    def cost(self, x_shape, y_shape):
        return self.weight.value.size, 0 if self.bias is None else self.bias.value.size

    def backward(self, grad_out):
        x, self._tape = self._tape, None
        gx, gw = ops.conv2d_backward(grad_out[:, None, None], x,
                                     self.weight.value[:, :, None, None], groups=self.groups)
        self.weight.set_grad(gw[:, :, 0, 0])
        if self.bias is not None:
            self.bias.set_grad(grad_out.sum(axis=1))
        return gx[:, 0, 0]


class BatchNorm(Module):
    """Per-channel batch norm (``ops.BN_*`` constants).

    Its gamma, beta and read-only running buffers change only through
    :meth:`Module.writing`: in the build, ``load_state_dict``, the SGD update
    (gamma and beta) and a train forward, which folds the batch statistics
    into the running buffers. An eval forward applies the constants of
    ``ops.batch_norm_eval_constants``, built once per (``version``, input
    shape) and kept until either changes."""

    def __init__(self, num_features, dtype=np.float64):
        self.gamma = Parameter(np.ones(num_features, dtype=dtype))
        self.beta = Parameter(np.zeros(num_features, dtype=dtype))
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        self.running_mean.flags.writeable = self.running_var.flags.writeable = False
        self._eval = None, ()  # (version, input shape) and the eval constants for it

    def extra_state(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, mode="train", rng=None):
        if mode != "train":
            self._tape = None
            key = (self.version, x.shape)
            if self._eval[0] != key:
                self._eval = key, ops.batch_norm_eval_constants(
                    x.shape, self.gamma.value, self.beta.value, self.running_mean,
                    self.running_var)
            return ops.batch_norm_affine(x, *self._eval[1], out=x if mode == INFER else None)
        y, self._tape, mean, var = ops.batch_norm(x, self.gamma.value, self.beta.value)
        with self.writing():
            for buf, stat in ((self.running_mean, mean), (self.running_var, var)):
                buf *= 1.0 - ops.BN_MOMENTUM
                buf += ops.BN_MOMENTUM * stat
        return y

    def cost(self, x_shape, y_shape):
        return 0, 2 * prod(y_shape)

    def backward(self, grad_out):
        cache, self._tape = self._tape, None
        if cache is None:
            # eval mode: input gradient only; gamma/beta grads stay as they were
            return ops.batch_norm_eval_backward(grad_out, self.gamma.value, self.running_var)
        gx, dgamma, dbeta = ops.batch_norm_backward(grad_out, cache)
        self.gamma.set_grad(dgamma)
        self.beta.set_grad(dbeta)
        return gx


class ReLU(Module):
    """Keeps its output for the backward: y > 0 exactly where x > 0."""

    def forward(self, x, mode="train", rng=None):
        self._tape = y = ops.relu(x, out=x if mode == INFER else None)
        return y

    def cost(self, x_shape, y_shape):
        return 0, prod(y_shape)

    def backward(self, grad_out):
        y, self._tape = self._tape, None
        return ops.relu_backward(grad_out, y)


class AddReLU(Module):
    """Residual join: ReLU of the branch output plus the shortcut. Keeps its
    output, as :class:`ReLU` does."""

    def forward(self, x, shortcut, mode="train"):
        if x.shape != shortcut.shape:
            raise ConfigurationError(
                f"residual/shortcut shape mismatch: {x.shape[:-1]} vs "
                f"{shortcut.shape[:-1]} per image"
            )
        s = np.add(x, shortcut, out=x if mode == INFER else None)
        y = ops.relu(s, out=s)
        self._tape = None if mode == INFER else y
        return y

    def cost(self, x_shape, y_shape):
        return 0, 2 * prod(y_shape)

    def backward(self, grad_out):
        y, self._tape = self._tape, None
        return ops.relu_backward(grad_out, y)


class _Pool2d(Module):
    """The pooling layers' window arguments and cost, kh*kw ops per output."""

    def __init__(self, kernel, stride, padding=0):
        self.kernel = kernel
        self.stride = stride
        self.padding = padding

    def cost(self, x_shape, y_shape):
        return 0, prod(y_shape) * prod(ops._pair(self.kernel))


class AvgPool2d(_Pool2d):
    def forward(self, x, mode="train", rng=None):
        self._tape = x.shape
        return ops.avg_pool2d(x, self.kernel, self.stride, self.padding)

    def backward(self, grad_out):
        x_shape, self._tape = self._tape, None
        return ops.avg_pool2d_backward(grad_out, x_shape, self.kernel,
                                       self.stride, self.padding)


class MaxPool2d(_Pool2d):
    """Keeps its input and output, from which the backward finds each argmax."""

    def forward(self, x, mode="train", rng=None):
        y = ops.max_pool2d(x, self.kernel, self.stride, self.padding)
        self._tape = x, y
        return y

    def backward(self, grad_out):
        (x, y), self._tape = self._tape, None
        return ops.max_pool2d_backward(grad_out, x, y, self.kernel, self.stride,
                                       self.padding)


class GlobalAvgPool(Module):
    def forward(self, x, mode="train", rng=None):
        self._tape = x.shape
        return ops.global_avg_pool(x)

    def cost(self, x_shape, y_shape):
        return 0, prod(x_shape)

    def backward(self, grad_out):
        x_shape, self._tape = self._tape, None
        return ops.global_avg_pool_backward(grad_out, x_shape)


class Dropout(Module):
    """Inverted dropout: a train forward multiplies by ``mask``; eval is the
    identity. Subclasses change only the mask."""

    def __init__(self, p):
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def mask(self, shape, rng, dtype):
        return ops.dropout_mask(shape, self.p, rng, dtype)

    def forward(self, x, mode="train", rng=None):
        self._tape = mask = self.mask(x.shape, rng, x.dtype) if mode == "train" else None
        return x if mask is None else x * mask

    def cost(self, x_shape, y_shape):
        return 0, 0  # the identity at inference

    def backward(self, grad_out):
        mask, self._tape = self._tape, None
        return grad_out if mask is None else grad_out * mask


class DropBlock(Dropout):
    """DropBlock on [C, H, W, N] maps: a train forward zeroes contiguous
    squares at rate ``p``."""

    def __init__(self, p, block_size):
        super().__init__(p)
        self.block_size = block_size

    def mask(self, shape, rng, dtype):
        # the block is clamped (and kept odd) when the map is smaller
        size = min(self.block_size, shape[1], shape[2])
        if size % 2 == 0:
            size -= 1
        return ops.dropblock_mask(shape, size, self.p, rng, dtype)
