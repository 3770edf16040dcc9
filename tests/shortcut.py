"""The shortcut chain of a network, which the tests compare its forward with,
and the seeded batch-norm state that takes a network off it.

A fresh build zeroes the final normalization scale of every residual
branch, so until training moves those scales a network computes only this
chain: the stem, each block's shortcut and ReLU, the pool and the head.
"""

from splatnet import ops
from splatnet.layers import BatchNorm, run_forward
from splatnet.network import _layer_mode
from splatnet.params import spawn_rng


def shortcut_only_forward(net, x, mode="eval"):
    """NCHW images -> logits [N, classes] with every residual branch bypassed."""
    mode = _layer_mode(mode)
    x = net.stem.forward(ops.to_chwn(x), mode)
    for stage in (net.stage1, net.stage2, net.stage3, net.stage4):
        for block in stage.block:
            x = ops.relu(run_forward(block.shortcut(), x, mode))
    return ops.to_nchw(run_forward([net.gap, net.fc], x, mode))


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
