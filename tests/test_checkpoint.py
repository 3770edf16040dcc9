"""Checkpoint format: golden bytes, round trips, and corruption handling."""

import struct
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from splatnet.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


def test_golden_bytes(tmp_path):
    """The on-disk layout is pinned byte for byte for a tiny file."""
    path = tmp_path / "one.ckpt"
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    save_checkpoint(path, {"w": arr})
    want = b"SPLT"
    want += struct.pack("<II", 1, 1)
    want += struct.pack("<H", 1) + b"w"
    want += struct.pack("<BB", 1, 2)           # dtype f64, rank 2
    want += struct.pack("<QQ", 2, 2)
    want += arr.astype("<f8").tobytes()
    assert path.read_bytes() == want


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.weight": rng.standard_normal((3, 4, 2, 2)),
        "a.bias": rng.standard_normal(3).astype(np.float32),
        "deep.path.with.dots": rng.standard_normal((7,)),
    }
    path = tmp_path / "rt.ckpt"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(tensors)  # order preserved
    for name in tensors:
        assert loaded[name].dtype == tensors[name].dtype
        npt.assert_array_equal(loaded[name], tensors[name])


def test_round_trip_keeps_rank_0(tmp_path):
    path = tmp_path / "scalar.ckpt"
    save_checkpoint(path, {"scalar": np.array(3.5), "vector": np.array([3.5])})
    loaded = load_checkpoint(path)
    assert loaded["scalar"].shape == () and loaded["scalar"] == 3.5
    assert loaded["vector"].shape == (1,)


def test_load_holds_the_file_once(tmp_path):
    """Each tensor is read straight into its own array: a load's traced peak
    is the tensors themselves, with no whole-file buffer beside them."""
    rng = np.random.default_rng(1)
    tensors = {f"t{i}": rng.standard_normal((256, 1024)) for i in range(4)}  # 8 MiB
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, tensors)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size + (1 << 20)
    assert all(loaded[k].tobytes() == v.tobytes() for k, v in tensors.items())


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    path = tmp_path / "v9.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", 9, 0))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated(tmp_path):
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(path, {"x": np.ones(10)})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_every_truncated_prefix_rejected(tmp_path):
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 3)), "b": np.zeros(2, dtype=np.float32)})
    data = path.read_bytes()
    for n in range(len(data)):
        path.write_bytes(data[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize("name, extents, match", [
    (b"\xff", (1,), "not UTF-8"),
    (b"w", (2**62, 4), "truncated data"),  # byte count overflows int64
    (b"w", (0, 2**63), "too large"),  # zero bytes, an extent beyond int64
    (b"w", (2**62, 0, 4), "too large"),  # zero bytes, nonzero extents overflow
])
def test_corrupt_header_rejected(tmp_path, name, extents, match):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(
        MAGIC + struct.pack("<IIH", VERSION, 1, len(name)) + name
        + struct.pack(f"<BB{len(extents)}Q", 1, len(extents), *extents)
        + np.ones(1).tobytes()
    )
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_duplicate_name_rejected(tmp_path):
    """Two records named ``a``: the header's count of 2 holds, but a load
    would keep only the second."""
    record = struct.pack("<H", 1) + b"a" + struct.pack("<BBQ", 1, 1, 1)
    path = tmp_path / "dup.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 2)
                     + record + np.ones(1).tobytes() + record + np.zeros(1).tobytes())
    with pytest.raises(CheckpointError, match="tensor a appears twice"):
        load_checkpoint(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "trail.ckpt"
    save_checkpoint(path, {"x": np.ones(2)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_unsupported_dtype(tmp_path):
    with pytest.raises(CheckpointError, match="dtype"):
        save_checkpoint(tmp_path / "int.ckpt", {"x": np.arange(3)})


class _HalfFullFile:
    """A file that takes the headers, then half of the first tensor's data
    before the disk fills."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        data = memoryview(data).cast("B")
        if len(data) > 1024:
            self.f.write(data[: len(data) // 2])
            raise OSError("disk full")
        return self.f.write(data)


def _write_half_then_fail(monkeypatch):
    real = Path.open
    monkeypatch.setattr(Path, "open", lambda self, *a, **k: _HalfFullFile(real(self, *a, **k)))


@pytest.mark.parametrize("failure", ["write", "dtype", "name"])
def test_failed_save_keeps_previous_file(tmp_path, monkeypatch, failure):
    """A save that fails midway leaves the previous checkpoint byte-identical
    and no temporary file behind."""
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, {"w": np.arange(4.0)})
    before = path.read_bytes()
    if failure == "write":
        _write_half_then_fail(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"w": np.arange(1000.0)})
        monkeypatch.undo()
    elif failure == "dtype":
        with pytest.raises(CheckpointError, match="unsupported dtype"):
            save_checkpoint(path, {"w": np.arange(1000.0), "bad": np.arange(3)})
    else:  # a name of 65,536 UTF-8 bytes overflows its u16 length
        with pytest.raises(CheckpointError, match="tensor name too long"):
            save_checkpoint(path, {"w": np.arange(1000.0), "\xe9" * 32768: np.ones(1)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]


def test_save_replaces_previous_file(tmp_path):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, {"w": np.arange(4.0)})
    save_checkpoint(path, {"v": np.ones((2, 3), dtype=np.float32)})
    got = load_checkpoint(path)
    assert list(got) == ["v"]
    npt.assert_array_equal(got["v"], np.ones((2, 3), dtype=np.float32))
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]


def test_version_constant():
    assert VERSION == 1
