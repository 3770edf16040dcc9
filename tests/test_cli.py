"""Command-line behaviour: exit codes, output contracts, determinism."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splatnet import training
from splatnet.cli import main
from splatnet.checkpoint import load_checkpoint, save_checkpoint

MICRO_FLAGS = [
    "--depth", "50", "--stage-blocks", "1,1,1,1", "--base-planes", "16",
    "--stem-width", "16", "--classes", "2", "--input-channels", "1",
    "--radix", "2", "--cardinality", "1", "--base-width", "64",
]
TOY_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "toy.cfg")
SRC = Path(__file__).resolve().parent.parent / "src"


def test_analyze_totals_line(capsys):
    rc = main(["analyze", "--depth", "50", "--radix", "2", "--cardinality", "1",
               "--base-width", "64"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "TOTAL" in out
    assert "-- machine readable --" in out


def test_analyze_reference_match_row(capsys):
    rc = main(["analyze", "--depth", "50", "--radix", "0", "--deep-stem", "false",
               "--avg-down", "false"])
    out = capsys.readouterr().out
    assert rc == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("reference ResNet-50"))
    assert "MATCH" in line and "MISMATCH" not in line


@pytest.mark.parametrize("flags", [["--classes", "10"], ["--input-size", "256"]])
def test_analyze_no_reference_row_for_another_network(flags, capsys):
    rc = main(["analyze", "--radix", "2", "--fast", "true", *flags])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reference" not in out


def test_analyze_prices_dropout_leaves_at_zero(capsys):
    """DropBlock and dropout are the identity at inference: each has a row
    of 0 params and 0 MACs, and the totals are those without them."""
    def rows(*flags):
        assert main(["analyze", "--config", TOY_CONFIG, "--input-size", "32", *flags]) == 0
        out = capsys.readouterr().out.split("-- machine readable --\n")[1]
        return dict(line.split("\t", 1) for line in out.splitlines())
    dropped = rows("--dropout", "0.2", "--dropblock-prob", "0.1")
    for path in ("dropblock3", "dropblock4", "head_dropout"):
        assert dropped[path] == "0\t0"
    assert dropped["TOTAL"] == rows()["TOTAL"] == "550098\t4972032"


def test_analyze_machine_rows_to_file(tmp_path, capsys):
    out_file = tmp_path / "rows.tsv"
    rc = main(["analyze", *MICRO_FLAGS, "--input-size", "64", "--out", str(out_file)])
    assert rc == 0
    rows = out_file.read_text().strip().splitlines()
    assert rows[-1].startswith("TOTAL\t")
    assert all(len(r.split("\t")) == 3 for r in rows)


@pytest.mark.parametrize("size, reason", [
    (33, "residual/shortcut shape mismatch"),  # the stride chain does not divide 33
    (16, "pool kernel (2x2) larger than padded input (1x1)"),  # stage 4's avg_down pool
])
def test_analyze_unrunnable_input_size_exit_2(size, reason, capsys):
    rc = main(["analyze", "--depth", "50", "--radix", "2", "--fast", "true",
               "--input-size", str(size)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and reason in captured.err
    assert "Traceback" not in captured.err
    assert "TOTAL" not in captured.out


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("depht = 50\n")
    rc = main(["analyze", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "depht" in err


def test_unknown_flag_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--depht", "50"])
    assert exc.value.code == 2


def test_missing_config_file_exit_2(capsys):
    rc = main(["analyze", "--config", "/nonexistent/path.cfg"])
    assert rc == 2


def test_verify_selected_suite_exit_0(capsys):
    rc = main(["verify", "schedule"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "checks passed" in out


def test_verify_equivalence_prints_grid(capsys):
    rc = main(["verify", "equivalence"])
    out = capsys.readouterr().out
    assert rc == 0
    for r, k, c in [(1, 1, 8), (4, 4, 32), (2, 2, 16)]:
        assert f"equivalence R={r} K={k} C={c}" in out


def test_verify_unknown_suite_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_failure_exit_1(monkeypatch, capsys):
    import splatnet.splat as splat_mod

    original = splat_mod.weighted_fuse
    monkeypatch.setattr(splat_mod, "weighted_fuse", lambda u, a: -original(u, a))
    rc = main(["verify", "equivalence"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_bench_defaults_and_determinism(capsys):
    args = ["bench", *MICRO_FLAGS, "--batch", "2", "--input-size", "32",
            "--reps", "2", "--warmup", "0"]
    rc = main(args)
    out1 = capsys.readouterr().out
    assert rc == 0
    assert "ms/image" in out1
    rc = main(args)
    out2 = capsys.readouterr().out
    h1 = [l for l in out1.splitlines() if "sha256" in l]
    h2 = [l for l in out2.splitlines() if "sha256" in l]
    assert h1 == h2


def test_bench_rejects_zero_reps(capsys):
    rc = main(["bench", *MICRO_FLAGS, "--batch", "1", "--reps", "0"])
    assert rc == 2
    assert "repetition" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--radix", "0", "--cardinality", "0"],
    ["analyze", "--stage-blocks", "0,0,0,0"],
    ["bench", *MICRO_FLAGS, "--batch", "0", "--reps", "1"],
    ["bench", *MICRO_FLAGS, "--batch", "-1", "--reps", "1"],
    ["train", *MICRO_FLAGS, "--samples", "32", "--batch", "0"],
    ["train", *MICRO_FLAGS, "--samples", "32", "--epochs", "1", "--warmup-epochs", "-1"],
    ["analyze", "--config", "{tmp}"],
    ["inspect-checkpoint", "{tmp}"],
    ["analyze", "--config", "{tmp}/latin1.cfg"],
    ["analyze", "--classes", "0"],
    ["analyze", "--classes", "-3"],
    ["analyze", "--radix", "0", "--base-width", "-8"],
    ["train", *MICRO_FLAGS, "--samples", "32", "--epochs", "1", "--warmup-epochs", "0",
     "--mixup-alpha", "-1"],
    ["analyze", "--dropblock-prob", "1.5"],
    ["analyze", "--dropblock-size", "0"],
    ["analyze", "--dropblock-size", "three"],
    ["train", *MICRO_FLAGS, "--samples", "-5"],
    ["train", *MICRO_FLAGS, "--image-size", "-3"],
    ["analyze", "--input-size", "-5"],
    ["bench", *MICRO_FLAGS, "--input-size", "-5"],
    ["bench", *MICRO_FLAGS, "--warmup", "-1", "--reps", "1"],
    ["train", *MICRO_FLAGS, "--samples", "32", "--epochs", "1", "--warmup-epochs", "0",
     "--mixup-alpha", "nan"],
    ["train", *MICRO_FLAGS, "--samples", "32", "--epochs", "1", "--warmup-epochs", "0",
     "--base-lr", "inf"],
    ["train", *MICRO_FLAGS, "--samples", "32", "--epochs", "1", "--warmup-epochs", "0",
     "--noise", "nan"],
    ["analyze", "--radix", "0", "--base-width", "1", "--base-planes", "16",
     "--stage-blocks", "1,1,1,1", "--input-channels", "1", "--classes", "2"],
    ["analyze", "--radix", "-1"],
], ids=["cardinality-0", "empty-stages", "bench-batch-0", "bench-batch-negative",
        "train-batch-0", "negative-warmup", "config-is-directory",
        "checkpoint-is-directory", "config-not-utf8", "classes-0", "classes-negative",
        "base-width-negative", "mixup-alpha-negative", "dropblock-prob-1.5",
        "dropblock-size-0", "dropblock-size-not-int", "train-samples-negative",
        "train-image-size-negative", "analyze-input-size-negative",
        "bench-input-size-negative", "bench-warmup-negative", "mixup-alpha-nan",
        "base-lr-inf", "noise-nan", "zero-group-width", "radix-negative"])
def test_bad_input_exit_2(argv, tmp_path, capsys):
    (tmp_path / "latin1.cfg").write_bytes("# caf\xe9\ndepth = 50\n".encode("latin-1"))
    rc = main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def _train_args(tmp_path, tag, extra=()):
    return [
        "train", *MICRO_FLAGS,
        "--samples", "64", "--epochs", "2", "--batch", "16",
        "--warmup-epochs", "1", "--base-lr", "0.05",
        "--out", str(tmp_path / f"{tag}.log"),
        "--checkpoint", str(tmp_path / f"{tag}.ckpt"),
        *extra,
    ]


@pytest.mark.parametrize("argv", [
    ["--seed", "-3", "train", *MICRO_FLAGS, "--samples", "32", "--epochs", "1"],
    ["train", *MICRO_FLAGS, "--samples", "32", "--epochs", "1", "--seed", "-3"],
    ["train", *MICRO_FLAGS, "--config", "{tmp}/seed.cfg", "--samples", "32", "--epochs", "1"],
    ["--seed", "-3", "bench", *MICRO_FLAGS, "--batch", "1", "--reps", "1"],
    ["bench", *MICRO_FLAGS, "--config", "{tmp}/seed.cfg", "--batch", "1", "--reps", "1"],
    ["--seed", "-3", "verify", "attention"],
], ids=["train-flag", "train-key-flag", "train-config", "bench-flag", "bench-config",
        "verify-flag"])
def test_negative_seed_exit_2(argv, tmp_path, capsys):
    (tmp_path / "seed.cfg").write_text("seed = -1\n")
    rc = main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "seed" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--classes", "10000000000000"],
    ["analyze", "--classes", "10000000000000000"],
    ["bench", "--config", TOY_CONFIG, "--batch", "1000000000000"],
    ["train", "--config", TOY_CONFIG, "--samples", "1000000000000"],
    ["analyze", "--input-size", "2147483648"],
    ["bench", "--config", TOY_CONFIG, "--input-size", "4294967296", "--batch", "1"],
    ["train", "--config", TOY_CONFIG, "--image-size", "4294967296", "--samples", "1",
     "--batch", "1"],
], ids=["analyze-classes", "analyze-classes-unsizable", "bench-batch", "train-samples",
        "analyze-input-size", "bench-input-size", "train-image-size"])
def test_unallocatable_size_exit_2(argv, capsys):
    """Each setting needs an array of more than 2**47 bytes, which no host
    maps even under overcommit. The unsizable classes and the input sizes
    need more than numpy can even size (it raises ValueError, not
    MemoryError), so every requested size is checked before it is allocated."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "allocate" in err


OVERFLOW_TRAIN = ["train", "--config", TOY_CONFIG, "--samples", "64", "--epochs", "3",
                  "--warmup-epochs", "1", "--base-lr", "1e300"]
OVERFLOW_ERROR = "error: loss diverged at epoch 0 step 1 (global step 1): overflow"


def test_train_overflow_divergence_exit_1(capsys):
    """The first step's update overflows the weights, and the next forward
    overflows in its arithmetic: under the suite's warnings-as-errors, the
    run still ends with one error line naming that step."""
    rc = main(OVERFLOW_TRAIN)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(OVERFLOW_ERROR) and len(err.splitlines()) == 1


def test_train_overflow_divergence_prints_no_warning():
    run = subprocess.run([sys.executable, "-m", "splatnet.cli", *OVERFLOW_TRAIN],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=300)
    assert run.returncode == 1
    assert run.stderr.startswith(OVERFLOW_ERROR) and len(run.stderr.splitlines()) == 1


def test_train_writes_log_and_checkpoint(tmp_path, capsys):
    rc = main(_train_args(tmp_path, "a"))
    out = capsys.readouterr().out
    assert rc == 0
    log = (tmp_path / "a.log").read_text()
    assert log.startswith("# seed=0")  # missing seed key defaults to 0, echoed
    assert len([l for l in log.splitlines() if not l.startswith("#")]) == 2
    ck = load_checkpoint(tmp_path / "a.ckpt")
    assert "meta.next_epoch" in ck
    assert "fc.weight" in ck


@pytest.mark.parametrize("flag", ["--out", "--checkpoint"])
def test_train_rejects_missing_directory_before_training(flag, tmp_path, capsys):
    missing = tmp_path / "missing" / "run.file"
    rc = main(_train_args(tmp_path, "a", extra=[flag, str(missing)]))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and str(missing) in captured.err
    assert ".tmp" not in captured.err
    assert [l for l in captured.out.splitlines() if not l.startswith("#")] == []  # no epoch row
    assert list(tmp_path.iterdir()) == []


def test_train_byte_identical_runs(tmp_path, capsys):
    rc1 = main(_train_args(tmp_path, "r1"))
    capsys.readouterr()
    rc2 = main(_train_args(tmp_path, "r2"))
    capsys.readouterr()
    assert rc1 == rc2 == 0
    log1 = (tmp_path / "r1.log").read_bytes()
    log2 = (tmp_path / "r2.log").read_bytes()
    assert log1 == log2
    ck1 = (tmp_path / "r1.ckpt").read_bytes()
    ck2 = (tmp_path / "r2.ckpt").read_bytes()
    assert ck1 == ck2


def test_train_resume_restores_bit_exact(tmp_path, capsys):
    main(_train_args(tmp_path, "base"))
    capsys.readouterr()
    # resuming from the finished checkpoint trains zero further epochs and
    # reproduces the stored parameters exactly
    rc = main(_train_args(tmp_path, "resumed", ("--resume", str(tmp_path / "base.ckpt"))))
    capsys.readouterr()
    assert rc == 0
    a = load_checkpoint(tmp_path / "base.ckpt")
    b = load_checkpoint(tmp_path / "resumed.ckpt")
    assert list(a) == list(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


# 64 pixels leave a 4x4 map in stage 3, so DropBlock drops whole 3x3 blocks
AT_64 = ("--image-size", "64")
DROPBLOCK_FLAGS = ("--dropblock-prob", "0.2", "--dropblock-size", "3", *AT_64)


def test_train_dropblock_byte_identical_and_resumable(tmp_path, capsys, monkeypatch):
    def rows(tag):
        return [l for l in (tmp_path / f"{tag}.log").read_text().splitlines()
                if not l.startswith("#")]

    for tag in ("r1", "r2"):
        assert main(_train_args(tmp_path, tag, DROPBLOCK_FLAGS)) == 0
    assert main(_train_args(tmp_path, "plain", AT_64)) == 0
    ck = (tmp_path / "r1.ckpt").read_bytes()
    assert (tmp_path / "r2.log").read_bytes() == (tmp_path / "r1.log").read_bytes()
    assert (tmp_path / "r2.ckpt").read_bytes() == ck
    assert (tmp_path / "plain.ckpt").read_bytes() != ck  # the masks took effect

    # interrupted right after the first epoch's checkpoint, then resumed
    class Interrupt(Exception):
        pass

    def save_then_interrupt(path, tensors):
        save_checkpoint(path, tensors)
        raise Interrupt

    monkeypatch.setattr(training, "save_checkpoint", save_then_interrupt)
    with pytest.raises(Interrupt):
        main(_train_args(tmp_path, "part", DROPBLOCK_FLAGS))
    monkeypatch.undo()
    resume = ("--resume", str(tmp_path / "part.ckpt"))
    assert main(_train_args(tmp_path, "resumed", DROPBLOCK_FLAGS + resume)) == 0
    capsys.readouterr()
    assert rows("resumed") == rows("r1")[1:]
    assert (tmp_path / "resumed.ckpt").read_bytes() == ck


@pytest.mark.parametrize("shape", [(5,), (1,), "renamed", "missing"])
def test_train_resume_rejects_bad_velocity_shape(tmp_path, capsys, monkeypatch, shape):
    """A velocity of the wrong shape, one whose name matches no parameter, or
    a missing one while the others are there (either way its momentum would
    silently restart at zero), exits 2 before any step."""
    main(_train_args(tmp_path, "base"))
    capsys.readouterr()
    tensors = load_checkpoint(tmp_path / "base.ckpt")
    name = "velocity.stem.conv1.weight"
    if shape == "renamed":
        name = "velocity.stem.conv1.weighs"
        tensors[name] = tensors.pop("velocity.stem.conv1.weight")
    elif shape == "missing":
        del tensors[name]
    else:
        tensors[name] = np.zeros(shape)
    save_checkpoint(tmp_path / "bad.ckpt", tensors)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training, "sgd_step", no_step)
    rc = main(_train_args(tmp_path, "resumed", ("--resume", str(tmp_path / "bad.ckpt"))))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and name in err
    assert not (tmp_path / "resumed.ckpt").exists()


@pytest.mark.parametrize("next_epoch", [None, [], [np.nan], [np.inf], [-2.0], [1.5]],
                         ids=["missing", "empty", "nan", "inf", "negative", "fraction"])
def test_train_resume_without_next_epoch(tmp_path, capsys, monkeypatch, next_epoch):
    """A checkpoint without a whole epoch counter >= 0 is no resume point:
    exit 2 before any step."""
    main(_train_args(tmp_path, "base"))
    capsys.readouterr()
    tensors = load_checkpoint(tmp_path / "base.ckpt")
    del tensors["meta.next_epoch"]
    if next_epoch is not None:
        tensors["meta.next_epoch"] = np.array(next_epoch, dtype=np.float64)
    save_checkpoint(tmp_path / "bare.ckpt", tensors)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training, "sgd_step", no_step)
    rc = main(_train_args(tmp_path, "resumed", ("--resume", str(tmp_path / "bare.ckpt"))))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "meta.next_epoch" in err
    assert not (tmp_path / "resumed.ckpt").exists()


def test_train_config_file_seed_echo(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "depth = 50\nstage_blocks = 1,1,1,1\nbase_planes = 16\nstem_width = 16\n"
        "classes = 2\ninput_channels = 1\nradix = 2\n"
        "epochs = 1\nbatch = 16\nwarmup_epochs = 0\nseed = 7\n"
    )
    rc = main(["train", "--config", str(cfg), "--samples", "32"])
    out = capsys.readouterr().out
    assert rc == 1 or rc == 0  # warmup 0 is allowed; divergence would be 1
    assert "# seed=7" in out


def test_seed_precedence_train(tmp_path, capsys):
    """Config file < global ``--seed`` < ``train --seed``: toy.cfg's ``seed = 0``
    loses to both flags, and the global flag to the train one."""
    short = ["--samples", "32", "--epochs", "1", "--warmup-epochs", "0", "--batch", "16"]
    logs = []
    for argv in (["train", "--config", TOY_CONFIG, "--seed", "5"],
                 ["--seed", "5", "train", "--config", TOY_CONFIG],
                 ["--seed", "7", "train", "--config", TOY_CONFIG, "--seed", "5"]):
        log = tmp_path / "run.tsv"
        assert main([*argv, *short, "--out", str(log)]) == 0
        logs.append(log.read_bytes())
    capsys.readouterr()
    assert logs[0].startswith(b"# seed=5 ") and logs[1] == logs[0] and logs[2] == logs[0]


def test_seed_precedence_bench(tmp_path, capsys):
    """``bench`` reads the same ``seed`` setting: a file's key draws the
    weights, and the global flag beats it."""
    (tmp_path / "seed.cfg").write_text(Path(TOY_CONFIG).read_text().replace("seed = 0", "seed = 5"))
    bench = ["bench", "--batch", "1", "--input-size", "32", "--reps", "1", "--warmup", "0"]
    runs = [["--seed", "5", *bench, "--config", TOY_CONFIG],
            [*bench, "--config", str(tmp_path / "seed.cfg")],
            ["--seed", "0", *bench, "--config", str(tmp_path / "seed.cfg")],
            [*bench, "--config", TOY_CONFIG]]
    hashes = []
    for argv in runs:
        assert main(argv) == 0
        out = capsys.readouterr().out
        hashes.append(next(ln for ln in out.splitlines() if "logits sha256" in ln))
    assert hashes[0] == hashes[1] != hashes[2] == hashes[3]


def test_inspect_checkpoint(tmp_path, capsys):
    main(_train_args(tmp_path, "ins"))
    capsys.readouterr()
    rc = main(["inspect-checkpoint", str(tmp_path / "ins.ckpt")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tensors" in out.splitlines()[0]
    assert any(l.startswith("fc.weight\tfloat64\t") for l in out.splitlines())


def test_inspect_checkpoint_bad_file(tmp_path, capsys):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"not a checkpoint")
    rc = main(["inspect-checkpoint", str(p)])
    assert rc == 2
    assert "magic" in capsys.readouterr().err


def test_inspect_checkpoint_empty_tensor_huge_extent(tmp_path, capsys):
    p = tmp_path / "huge.ckpt"
    p.write_bytes(b"SPLT" + struct.pack("<IIH", 1, 1, 1) + b"w"
                  + struct.pack("<BB2Q", 1, 2, 0, 2**63))
    rc = main(["inspect-checkpoint", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "too large" in err


def test_inspect_checkpoint_unknown_dtype_tag(tmp_path, capsys):
    p = tmp_path / "tag.ckpt"
    p.write_bytes(b"SPLT" + struct.pack("<IIH", 1, 1, 1) + b"w"
                  + struct.pack("<BBQ", 7, 1, 1) + bytes(8))
    rc = main(["inspect-checkpoint", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "tensor w: unknown dtype tag 7" in err


def test_inspect_checkpoint_truncated_header(tmp_path, capsys):
    p = tmp_path / "short.ckpt"
    p.write_bytes(b"SPLT\x01\x00")
    rc = main(["inspect-checkpoint", str(p)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
