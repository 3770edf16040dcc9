"""The shortcut chain of a network, which the tests compare its forward with.

A fresh build zeroes the final normalization scale of every residual
branch, so until training moves those scales a network computes only this
chain: the stem, each block's shortcut and ReLU, the pool and the head.
"""

from splatnet import ops
from splatnet.layers import run_forward
from splatnet.network import _layer_mode


def shortcut_only_forward(net, x, mode="eval"):
    """NCHW images -> logits [N, classes] with every residual branch bypassed."""
    mode = _layer_mode(mode)
    x = net.stem.forward(ops.to_chwn(x), mode)
    for stage in (net.stage1, net.stage2, net.stage3, net.stage4):
        for block in stage.block:
            x = ops.relu(run_forward(block.shortcut(), x, mode))
    return ops.to_nchw(run_forward([net.gap, net.fc], x, mode))
