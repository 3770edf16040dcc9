"""The shortcut chain of a network, which the tests compare its forward with,
and the seeded batch-norm state that takes a network off it.

A fresh build zeroes the final normalization scale of every residual
branch, so until training moves those scales a network computes only this
chain: the stem, each block's shortcut and ReLU, the pool and the head.
"""

from splatnet import ops
from splatnet.layers import BatchNorm, Dropout, run_forward
from splatnet.network import Bottleneck, _check_mode
from splatnet.params import spawn_rng


def shortcut_only_forward(net, x, mode="eval"):
    """NCHW images -> logits [N, classes] with every residual branch bypassed:
    the network's chain with each block swapped for its shortcut and ReLU,
    and without its dropout layers."""
    _check_mode(mode)
    x = ops.to_chwn(x)
    for layer in net.layers():
        if isinstance(layer, Bottleneck):
            x = ops.relu(run_forward(layer.shortcut(), x, mode)[0])
        elif layer is not None and not isinstance(layer, Dropout):
            x, _ = layer.forward(x, mode)
    return ops.to_nchw(x)


def randomize_batch_norm(net):
    """Every batch norm's gamma, beta and running statistics drawn from stream
    (0, 1), in module order: every bn3 gets a nonzero gamma, so the residual
    branches reach the logits. Returns ``net``."""
    stats = spawn_rng(0, 1)
    for _, module in net.named_modules():
        if isinstance(module, BatchNorm):
            c = module.gamma.value.size
            with module.writing():
                module.gamma.value[...] = stats.normal(1.0, 0.5, c)
                module.beta.value[...] = stats.normal(0.0, 0.2, c)
                module.running_mean[...] = stats.normal(0.0, 0.5, c)
                module.running_var[...] = stats.uniform(0.5, 2.0, c)
    return net
