"""Binary checkpoint files for named tensors.

Layout (all integers little-endian):

    magic   4 bytes  b"SPLT"
    version u32      currently 1
    count   u32      number of tensors
    then per tensor:
        name_len u16, name UTF-8 bytes
        dtype    u8   (0 = float32, 1 = float64)
        rank     u8
        extents  rank x u64
        data     raw little-endian values, row-major

Round-tripping float64 tensors is bit-exact, so a saved model reproduces its
logits exactly after loading.
"""

from __future__ import annotations

import math
import os
import struct
from collections import OrderedDict
from pathlib import Path

import numpy as np

MAGIC = b"SPLT"
VERSION = 1

_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write ``tensors`` to ``path`` atomically.

    Every tensor is checked before anything is written. The headers and
    each tensor's buffer then go in turn to a temporary file in the same
    directory, with no copy of the state in memory, and the file replaces
    ``path`` in one rename, so a write that fails midway leaves the
    previous file as it was and no temporary file behind.
    """
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        a = np.asarray(arr, order="C")  # C-contiguous, and a 0-d array stays 0-d
        key = np.dtype(a.dtype).newbyteorder("<")
        if key not in _DTYPE_TAGS:
            raise CheckpointError(f"tensor {name}: unsupported dtype {a.dtype}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:32]}...")
        chunks.append(struct.pack("<H", len(encoded)) + encoded
                      + struct.pack(f"<BB{a.ndim}Q", _DTYPE_TAGS[key], a.ndim, *a.shape))
        chunks.append(a.astype(key, copy=False))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after a successful replace


def _read(f, fmt: str, path) -> tuple:
    """``struct.unpack`` of the next bytes of ``f``; a short read is a truncated file."""
    size = struct.calcsize(fmt)
    buf = f.read(size)
    if len(buf) < size:
        raise CheckpointError(f"{path}: truncated header at byte {f.tell() - len(buf)}")
    return struct.unpack(fmt, buf)


def load_checkpoint(path) -> "OrderedDict[str, np.ndarray]":
    """The tensors of ``path`` in file order, each read into its own array once
    its size is checked against the file's: a load holds the data once."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if (magic := f.read(4)) != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, count = _read(f, "<II", path)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        tensors: OrderedDict[str, np.ndarray] = OrderedDict()
        for _ in range(count):
            off = f.tell()
            (name_len,) = _read(f, "<H", path)
            raw, tag, rank = _read(f, f"<{name_len}sBB", path)
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: tensor name at byte {off} is not UTF-8") from None
            if name in tensors:
                raise CheckpointError(f"{path}: tensor {name} appears twice")
            if tag not in _TAG_DTYPES:
                raise CheckpointError(f"{path}: tensor {name}: unknown dtype tag {tag}")
            shape = _read(f, f"<{rank}Q", path)
            dtype = _TAG_DTYPES[tag]
            if f.tell() + math.prod(shape) * dtype.itemsize > size:
                raise CheckpointError(f"{path}: truncated data for tensor {name}")
            # numpy checks the size of an empty shape over its nonzero extents
            if math.prod(s for s in shape if s) * dtype.itemsize > np.iinfo(np.intp).max:
                raise CheckpointError(f"{path}: tensor {name}: shape {shape} is too large")
            tensors[name] = np.empty(shape, dtype)
            f.readinto(tensors[name])
        if f.tell() != size:
            raise CheckpointError(f"{path}: {size - f.tell()} trailing bytes after last tensor")
    return tensors
