"""Prints every pin of ``test_bit_gate.py`` as the code computes it now.

The four networks' pins come out in the layout of that file's ``PINS``,
then the ResNeSt-50 constants and the command-line digests, so a change that
moves bits on purpose can paste them over the old ones (and must say why in
CHANGES.md). It asserts nothing. Run it from the repository root::

    PYTHONPATH=src python tests/repin_bit_gate.py

Its name keeps pytest from collecting it. It imports ``conftest`` before
anything imports numpy, so the BLAS thread count is the one the digests
were taken at.
"""

import conftest  # noqa: F401  (first: pins the BLAS threads)

import hashlib
import io
import tempfile
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from splatnet.cli import main
from splatnet.network import NetworkConfig
from splatnet.params import spawn_rng
from test_bit_gate import (ANALYZE_ROWS, BENCH_ARGS, TOY_CONFIG, TRAIN_ARGS, VARIANTS,
                           _seeded_network, _sha256, _spaced, eval_logits, train_grads)


def _floats(head, values, indent, tail):
    """A list literal of ``values``, wrapped between ``head`` and ``tail``."""
    body = textwrap.fill(", ".join(repr(float(v)) for v in values) + ",", width=92,
                         initial_indent=indent + "    ", subsequent_indent=indent + "    ")
    return f"{indent}{head}\n{body}\n{indent}{tail}"


def _pinned(name, a, indent="        "):
    """``name="<sha256>",`` and, for float64, its 16 spaced references."""
    lines = [f'{indent}{name}="{_sha256(a)}",']
    if a.dtype == np.float64:
        lines.append(_floats(f"{name}_ref=[", _spaced(a), indent, "],"))
    return lines


def _quiet_main(args):
    with redirect_stdout(io.StringIO()) as out:
        assert main(args) == 0, args
    return out.getvalue()


def _train_digests(args):
    with tempfile.TemporaryDirectory() as tmp:
        log, ckpt = Path(tmp) / "run.tsv", Path(tmp) / "run.ckpt"
        _quiet_main([*args, "--out", str(log), "--checkpoint", str(ckpt)])
        return [hashlib.sha256(p.read_bytes()).hexdigest() for p in (log, ckpt)]


def print_pins():
    print("PINS = {")
    for variant in VARIANTS:
        gx, grads = train_grads(variant)
        print(f'    "{variant}": dict(')
        for line in (*_pinned("logits_f64", eval_logits(variant)),
                     *_pinned("logits_f32", eval_logits(variant, np.float32)),
                     *_pinned("train_input_grad", gx),
                     *_pinned("param_grads", grads)):
            print(line)
        print("    ),")
    print("}")

    cfg = NetworkConfig()
    x = spawn_rng(0, 2).standard_normal((1, 3, 224, 224)).astype(np.float32)
    logits32 = _seeded_network(cfg, np.float32).forward(x, mode="eval")
    logits64 = _seeded_network(cfg).forward(x.astype(np.float64), mode="eval")
    print(f'R50_LOGITS_F32 = "{_sha256(logits32)}"')
    print(f'R50_LOGITS_F64 = "{_sha256(logits64)}"')
    print(_floats("R50_LOGITS_F64_REF = [", _spaced(logits64), "", "]"))

    print('TRAIN_LOG, TRAIN_CHECKPOINT = "{}", "{}"'.format(*_train_digests(TRAIN_ARGS)))
    print('TOY_CFG_LOG, TOY_CFG_CHECKPOINT = "{}", "{}"'.format(
        *_train_digests(["train", "--config", str(TOY_CONFIG)])))
    bench = next(line for line in _quiet_main(BENCH_ARGS).splitlines()
                 if line.startswith("logits sha256 "))
    print(f'BENCH_LOGITS = "{bench.split()[-1]}"')
    for name, (args, _, _) in ANALYZE_ROWS.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "rows.tsv"
            _quiet_main(["analyze", *args, "--out", str(out)])
            rows = out.read_bytes()
        print(f'ANALYZE_ROWS["{name}"]: {len(rows.splitlines())} rows, '
              f'"{hashlib.sha256(rows).hexdigest()}"')


if __name__ == "__main__":
    print_pins()
