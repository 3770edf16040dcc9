"""Layer wrappers around the functional kernels, and the chain runner.

A layer's ``forward`` returns its output and the record its backward reads,
and ``backward(saved, grad)`` takes that record back: the caller holds it,
so a layer keeps no per-call state. Each array is recorded once: a conv or
max pool records its input (usually the array the ReLU before it records),
which its backward kernel takes as it is. No layer writes in place into an
array that a record holds, and a train forward's input must not change
before its backward. Each backward writes (replaces) its parameters'
``Parameter.grad``.

Layers take two modes, ``"train"`` and ``"eval"``, and what a layer computes
branches only on ``mode == "train"``. A leaf returns its record in either
mode; :func:`run_forward` keeps it only in train mode and drops an eval
record before the next layer runs, so a chain's backward follows only its
train forward. In eval mode :class:`BatchNorm`, :class:`ReLU` and
:class:`AddReLU` write their output into their (first) input: in every chain
that input is an array the previous layer has just made and nothing else
holds, a conv or FC output or a batch-norm output. So an eval forward holds
no activations and allocates none for these layers, and a unit or network
leaves its input as it was, since a conv or a pool reads it first.

A chain is a list of layers in forward order (``None`` for a layer the
configuration leaves out): :func:`run_forward` runs it and returns its
tape, one record per layer; :func:`run_backward` runs it in reverse and
pops the records, so memory is freed as it goes. Only the joins of two
paths nest tapes: a block's record holds its branch's and shortcut's tapes,
a split-attention unit's its transform's and attention's, and each routes
its join's gradients (residual sum, attention-weighted fusion) by hand.

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


def run_forward(layers, x, mode="train", rng=None):
    """(output, tape): the tape holds one record per layer run, and is
    ``None`` in eval mode."""
    tape = [] if mode == "train" else None
    for layer in layers:
        if layer is not None:
            x, saved = layer.forward(x, mode, rng)
            if tape is not None:
                tape.append(saved)
            del saved  # an eval record dies before the next layer runs
    return x, tape


def run_backward(layers, tape, grad):
    """Input gradient of the chain; pops ``tape`` empty, last record first."""
    for layer in reversed(layers):
        if layer is not None:
            grad = layer.backward(tape.pop(), grad)
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
        return ops.conv2d(x, self.weight.value, self.stride, self.padding, self.groups), x

    def cost(self, x_shape, y_shape):
        # each output element sums one filter: Cin/groups * kh * kw products
        return prod(y_shape) * prod(self.weight.value.shape[1:]), 0

    def backward(self, x, grad_out):
        gx, gw = ops.conv2d_backward(grad_out, x, self.weight.value, self.stride,
                                     self.padding, self.groups)
        self.weight.set_grad(gw)
        return gx


class Linear(Module):
    """Grouped fully-connected layer on [F, N] inputs (``ops.fully_connected``,
    the grouped 1x1 convolution of N positions)."""

    def __init__(self, in_features, out_features, groups=1, bias=True,
                 rng=None, dtype=np.float64):
        if in_features % groups or out_features % groups:
            raise ConfigurationError(
                f"linear features ({in_features} -> {out_features}) not divisible "
                f"by groups {groups}"
            )
        self.groups = groups
        shape = (out_features, in_features // groups)
        self.weight = Parameter(kaiming_normal(rng, shape, prod(shape[1:]), dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype)) if bias else None

    def forward(self, x, mode="train", rng=None):
        if x.shape[0] != (features := self.weight.value.shape[1] * self.groups):
            raise ConfigurationError(f"linear layer expects {features} input "
                                     f"features, got {x.shape[0]}")
        y = ops.fully_connected(x, self.weight.value, self.groups)
        if self.bias is not None:
            y += self.bias.value[:, None]
        return y, x

    def cost(self, x_shape, y_shape):
        return self.weight.value.size, 0 if self.bias is None else self.bias.value.size

    def backward(self, x, grad_out):
        gx, gw = ops.fully_connected_backward(grad_out, x, self.weight.value, self.groups)
        self.weight.set_grad(gw)
        if self.bias is not None:
            self.bias.set_grad(grad_out.sum(axis=1))
        return gx


class BatchNorm(Module):
    """Per-channel batch norm (``ops.BN_*`` constants).

    Its gamma, beta and read-only running buffers change only through
    :meth:`Module.writing`: in the build, ``load_state_dict``, the SGD update
    (gamma and beta) and a train forward, which folds the batch statistics
    into the running buffers. An eval forward writes into its input with the
    constants of ``ops.batch_norm_eval_constants``, built once per
    (``version``, input shape) and kept until either changes."""

    def __init__(self, num_features, dtype=np.float64):
        self.gamma = Parameter(np.ones(num_features, dtype=dtype))
        self.beta = Parameter(np.zeros(num_features, dtype=dtype))
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        self.running_mean.flags.writeable = self.running_var.flags.writeable = False
        self._eval = (None,)  # (version, input shape, *eval constants for them)

    def extra_state(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, mode="train", rng=None):
        if mode != "train":
            e = self._eval
            if e[0] != self.version or e[1] != x.shape:
                e = self._eval = (self.version, x.shape, *ops.batch_norm_eval_constants(
                    x.shape, self.gamma.value, self.beta.value, self.running_mean,
                    self.running_var))
            return ops.batch_norm_affine(x, e[2], e[3], e[4], x), None
        y, cache, mean, var = ops.batch_norm(x, self.gamma.value, self.beta.value)
        with self.writing():
            for buf, stat in ((self.running_mean, mean), (self.running_var, var)):
                buf *= 1.0 - ops.BN_MOMENTUM
                buf += ops.BN_MOMENTUM * stat
        return y, cache

    def cost(self, x_shape, y_shape):
        return 0, 2 * prod(y_shape)

    def backward(self, cache, grad_out):
        gx, dgamma, dbeta = ops.batch_norm_backward(grad_out, cache)
        self.gamma.set_grad(dgamma)
        self.beta.set_grad(dbeta)
        return gx


class ReLU(Module):
    """Records its output for the backward: y > 0 exactly where x > 0."""

    def forward(self, x, mode="train", rng=None):
        y = ops.relu(x, None if mode == "train" else x)
        return y, y

    def cost(self, x_shape, y_shape):
        return 0, prod(y_shape)

    def backward(self, y, grad_out):
        return ops.relu_backward(grad_out, y)


class AddReLU(Module):
    """Residual join: ReLU of the branch output plus the shortcut. Records its
    output, as :class:`ReLU` does."""

    def forward(self, x, shortcut, mode="train"):
        if x.shape != shortcut.shape:
            raise ConfigurationError(
                f"residual/shortcut shape mismatch: {x.shape[:-1]} vs "
                f"{shortcut.shape[:-1]} per image"
            )
        s = np.add(x, shortcut, out=None if mode == "train" else x)
        y = ops.relu(s, out=s)
        return y, y

    def cost(self, x_shape, y_shape):
        return 0, 2 * prod(y_shape)

    def backward(self, y, grad_out):
        return ops.relu_backward(grad_out, y)


class _Pool2d(Module):
    """The pooling layers' window arguments and cost, kh*kw ops per output."""

    def __init__(self, kernel, stride, padding=0):
        self.kernel = ops._pair(kernel)
        self.stride = ops._pair(stride)
        self.padding = ops._pair(padding)

    def cost(self, x_shape, y_shape):
        return 0, prod(y_shape) * prod(self.kernel)


class AvgPool2d(_Pool2d):
    def forward(self, x, mode="train", rng=None):
        return ops.avg_pool2d(x, self.kernel, self.stride, self.padding), x.shape

    def backward(self, x_shape, grad_out):
        return ops.avg_pool2d_backward(grad_out, x_shape, self.kernel,
                                       self.stride, self.padding)


class MaxPool2d(_Pool2d):
    """Records its input and output, from which the backward finds each argmax."""

    def forward(self, x, mode="train", rng=None):
        y = ops.max_pool2d(x, self.kernel, self.stride, self.padding)
        return y, (x, y)

    def backward(self, saved, grad_out):
        x, y = saved
        return ops.max_pool2d_backward(grad_out, x, y, self.kernel, self.stride,
                                       self.padding)


class GlobalAvgPool(Module):
    def forward(self, x, mode="train", rng=None):
        return ops.global_avg_pool(x), x.shape

    def cost(self, x_shape, y_shape):
        return 0, prod(x_shape)

    def backward(self, x_shape, grad_out):
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
        mask = self.mask(x.shape, rng, x.dtype) if mode == "train" else None
        return (x if mask is None else x * mask), mask

    def cost(self, x_shape, y_shape):
        return 0, 0  # the identity at inference

    def backward(self, mask, grad_out):
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
