"""Hypothesis strategies shared by the tests that sweep the config space.

``network_configs`` draws small networks (four stages of one or two blocks)
over the options that change the topology; ``input_sizes`` draws image sides
that every such network accepts. Both stay small enough that a derandomized
sweep of about 20 examples builds and traces in a few seconds.
"""

from hypothesis import strategies as st

from splatnet.network import NetworkConfig

input_sizes = st.sampled_from((32, 64))


@st.composite
def network_configs(draw) -> NetworkConfig:
    return NetworkConfig(
        depth=50,
        stage_blocks=tuple(draw(st.lists(st.integers(1, 2), min_size=4, max_size=4))),
        radix=draw(st.integers(0, 4)),
        cardinality=draw(st.integers(1, 4)),
        base_width=draw(st.sampled_from((14, 40, 64))),
        fast=draw(st.booleans()),
        avg_down=draw(st.booleans()),
        deep_stem=draw(st.booleans()),
        base_planes=16,
        stem_width=16,
        num_classes=2,
        input_channels=draw(st.sampled_from((1, 3))),
        dropout=0.0,
    )
