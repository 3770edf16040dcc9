"""Config file grammar, schema typing, and unknown-key rejection."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatnet.configio import (
    NETWORK_KEYS,
    TRAIN_KEYS,
    network_config,
    parse_settings,
    read_config_file,
    train_settings,
)
from splatnet.params import ConfigurationError


def write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_basic_parse(tmp_path):
    p = write(tmp_path, """
# toy network
depth = 50
radix = 2          # inline comment
cardinality = 1
fast = true
stage_blocks = 1,1,1,1
""")
    raw = read_config_file(p)
    assert raw == {"depth": "50", "radix": "2", "cardinality": "1",
                   "fast": "true", "stage_blocks": "1,1,1,1"}
    settings = parse_settings(raw, allow_training=False)
    assert settings["fast"] is True
    assert settings["stage_blocks"] == (1, 1, 1, 1)
    cfg = network_config(settings)
    assert cfg.radix == 2 and cfg.fast and cfg.stage_blocks == (1, 1, 1, 1)


def test_unknown_key_named(tmp_path):
    raw = read_config_file(write(tmp_path, "depht = 50\n"))
    with pytest.raises(ConfigurationError, match="depht"):
        parse_settings(raw, allow_training=False)


def test_training_keys_only_when_allowed(tmp_path):
    raw = read_config_file(write(tmp_path, "epochs = 5\n"))
    with pytest.raises(ConfigurationError, match="epochs"):
        parse_settings(raw, allow_training=False)
    settings = parse_settings(raw, allow_training=True)
    assert train_settings(settings).epochs == 5


def test_type_errors_name_the_key(tmp_path):
    raw = read_config_file(write(tmp_path, "radix = two\n"))
    with pytest.raises(ConfigurationError, match="radix"):
        parse_settings(raw, allow_training=False)
    raw = read_config_file(write(tmp_path, "fast = maybe\n"))
    with pytest.raises(ConfigurationError, match="fast"):
        parse_settings(raw, allow_training=False)


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="duplicate"):
        read_config_file(write(tmp_path, "depth = 50\ndepth = 101\n"))


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="key=value"):
        read_config_file(write(tmp_path, "just words\n"))


def test_classes_maps_to_num_classes(tmp_path):
    raw = read_config_file(write(tmp_path, "classes = 10\nstage_blocks = 1,1,1,1\ndepth = 50\n"))
    cfg = network_config(parse_settings(raw, allow_training=False))
    assert cfg.num_classes == 10


def test_dropblock_keys_reach_the_network(tmp_path):
    raw = read_config_file(write(tmp_path, "dropblock_prob = 0.1\ndropblock_size = 5\n"))
    cfg = network_config(parse_settings(raw, allow_training=False))
    assert cfg.dropblock_prob == 0.1 and cfg.dropblock_size == 5
    raw = read_config_file(write(tmp_path, "dropblock_size = 2.5\n"))
    with pytest.raises(ConfigurationError, match="dropblock_size"):
        parse_settings(raw, allow_training=False)


def test_train_settings_defaults():
    ts = train_settings({})
    assert ts.seed == 0
    assert ts.momentum == 0.9
    assert ts.weight_decay == 1e-4


def test_non_finite_float_rejected(tmp_path):
    for key in ("dropout", "dropblock_prob", "base_lr", "mixup_alpha", "smoothing",
                "weight_decay", "momentum"):
        for value in ("nan", "inf", "-inf"):
            raw = read_config_file(write(tmp_path, f"{key} = {value}\n"))
            with pytest.raises(ConfigurationError, match=f"key {key}: expected a finite"):
                parse_settings(raw, allow_training=True)


BIG = 2**70
VALUES = st.one_of(
    st.integers(-BIG, BIG).map(str),
    st.sampled_from(("nan", "inf", "-inf", "1e308", "-1e308")),
    st.floats(-sys.float_info.min, sys.float_info.min).map(repr),  # subnormals
    st.text(max_size=12),
    st.lists(st.integers(-BIG, BIG), max_size=5).map(lambda v: ", ".join(map(str, v))),
)


@settings(max_examples=240, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(NETWORK_KEYS.keys() | TRAIN_KEYS.keys())), value=VALUES)
def test_any_one_line_parses_or_raises_configuration_error(key, value, tmp_path_factory):
    """One ``key = value`` line of a known key and a drawn value: reading,
    typing and mapping it onto the settings either return or raise
    ``ConfigurationError``, never anything else. No network is built."""
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(f"{key} = {value}\n", encoding="utf-8")
    try:
        parsed = parse_settings(read_config_file(path), allow_training=True)
        network_config(parsed)
        train_settings(parsed)
    except ConfigurationError:
        pass
