"""Bit-level gate over every residual branch, in eval and train mode.

A freshly built network computes only its shortcut chain (every
``bn3.gamma`` starts at zero), so the ``splatnet bench`` logits hash cannot
see the split-attention branch. Here every batch-norm gamma, beta and
running statistic is first drawn from a seeded stream, with no training, and
the sha256 of four results is pinned for four small networks (the toy
network, a 2s2x40d variant, a plain bottleneck with the classic stem, and a
sigmoid-gated unit with the pool before its 3x3):

* the eval-mode logits in float64 and in float32;
* the input gradient and every parameter gradient after one train-mode
  forward and backward with DropBlock and head dropout on.

The paper's ResNeSt-50 2s1x64d is pinned the same way at its own size,
batch 1 at 224x224, by its eval-mode logits in float64 and float32: its
grouped convolutions are large enough that a kernel splitting a GEMM in a
new way shows there first.

A change that only reorders floating-point sums may move a hash, and must
then say why in CHANGES.md. The float64 results must still match the
literal reference values stored beside each hash: 16 logits, or 16 evenly
spaced entries of a gradient, within 1e-12 of the largest reference value.

The digests hold for one BLAS build at one thread count (they were taken
with OpenBLAS on two threads, which ``conftest.py`` pins): a GEMM split over
more threads may sum in another order. The literal references hold on any
host.

The ROADMAP's byte-identity outputs of the command line are pinned the
same way: the sha256 of the TSV log and the checkpoint of a short
``splatnet train --config configs/toy.cfg`` run, the logits hash that
``splatnet bench`` prints for the toy network, and the sha256 of the
``splatnet analyze --out`` rows of two networks. The bench hash sees only
the shortcut chain of a fresh network; the train digests see every branch.

A directional-derivative check covers the same residual branches in train
mode at batch 16: the gradient of every parameter along one random unit
direction must match a central difference of the loss. It runs on the
networks above and on a derandomized sweep over the config space, where
each example also keeps float32 end to end and round-trips its checkpoint.
"""

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from splatnet.checkpoint import load_checkpoint, save_checkpoint
from splatnet.cli import main
from splatnet.configio import network_config, parse_settings, read_config_file
from splatnet.network import NetworkConfig, build_network
from splatnet.params import spawn_rng
from shortcut import randomize_batch_norm
from strategies import input_sizes, network_configs

TOY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy.cfg"
# 64 pixels leave a 4x4 map in stage 3, so DropBlock drops whole 3x3 blocks
BATCH, SIZE = 8, 64
VARIANTS = {
    "toy": {},
    "2s2x40d": dict(cardinality=2, base_width=40),
    # plain bottleneck, classic stem, strided 1x1 projection
    "0s1x64d-classic": dict(radix=0, deep_stem=False, avg_down=False),
    # sigmoid gate, pool before the 3x3
    "1s2x32d-fast": dict(radix=1, cardinality=2, base_width=32, fast=True),
}


def _network(variant, dtype=np.float64, dropout=0.2, dropblock_prob=0.1):
    settings = parse_settings(read_config_file(TOY_CONFIG), allow_training=True)
    cfg = replace(network_config(settings), dropout=dropout, dropblock_prob=dropblock_prob,
                  **VARIANTS[variant])
    return _seeded_network(cfg, dtype)


def _seeded_network(cfg, dtype=np.float64):
    """Weights from stream (0, 0), batch-norm state from stream (0, 1); a
    float32 network is a weightless build given the float64 state."""
    net = randomize_batch_norm(build_network(cfg, spawn_rng(0, 0)))
    if dtype == np.float64:
        return net
    cast = build_network(cfg, None, dtype=dtype)
    cast.load_state_dict(net.state_dict())
    return cast


def _inputs(dtype=np.float64):
    x = spawn_rng(0, 2).standard_normal((BATCH, 1, SIZE, SIZE)).astype(dtype)
    grad_logits = spawn_rng(0, 3).standard_normal((BATCH, 2)).astype(dtype)
    return x, grad_logits


def eval_logits(variant, dtype=np.float64):
    x, _ = _inputs(dtype)
    return _network(variant, dtype).forward(x, mode="eval")


def train_grads(variant):
    """The NCHW input gradient, and every parameter gradient flattened in
    parameter order."""
    net = _network(variant)
    x, grad_logits = _inputs()
    _, tape = net.forward(x, mode="train", rng=spawn_rng(0, 4))
    gx = net.backward(tape, grad_logits)
    return gx, np.concatenate([p.grad.ravel() for p in net.parameters()])


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _spaced(a, k=16):
    flat = a.ravel()
    return flat[:: max(1, flat.size // k)][:k]


def _assert_reference(got, want):
    want = np.array(want)
    npt.assert_allclose(_spaced(got), want, rtol=0, atol=1e-12 * np.abs(want).max())


PINS = {
    "toy": dict(
        logits_f64="a93fa5045eb3ef5b747f0feadb9e1b7c8d402f52f30d88b60cac05af63c722a2",
        logits_f64_ref=[
            0.4586019222128632, 3.0271982285343597, 0.222871029635475, 2.964690179257354,
            0.3833067991554602, 3.0915647177116696, 0.2648386766699038,
            2.9457064859323125, 0.5290512504834228, 3.11784203215982, 0.4163323737268958,
            3.056334852631784, 0.30128455499859585, 2.9989671039270647,
            0.3787083666354438, 3.184185637881451,
        ],
        logits_f32="b36893ac253abd7f09d63c254ba49b5e068d04156bb6593db1260e04f2794232",
        train_input_grad="4bc672f57ff33279562b791e5ea503ed46ee8e0257204a1509e135800aa2979a",
        train_input_grad_ref=[
            0.0017468356611224749, 0.0033176633944980508, 0.006196095621846197,
            -0.021222748298430856, -0.00836996471274571, -0.012108900472686292,
            -0.06918331028189643, 0.021448312046235384, 0.0033679568028941523,
            0.004963168407763879, 0.004057602130090951, -0.02535968203198402,
            0.015643047035915198, -0.019647029700712415, 0.011162344362882356,
            -0.025940510817406663,
        ],
        param_grads="54623ed62a0d7396935093a303906c46a7fe79dfee6dd6870f5331c3bfecf237",
        param_grads_ref=[
            -0.4110725392362865, 0.03120486440548811, -0.06343220243184208,
            0.031770117544266875, -0.05654119444993179, 0.07830604251803308,
            0.0006295556110021004, 0.037468621179617335, -0.015386459006090699,
            -0.00026861450023686867, -0.014656870269601548, -0.00038162507360165745,
            0.0004887736077319178, 6.045717705810579e-05, 0.0003135476863277695,
            -7.078240135760287e-05,
        ],
    ),
    "2s2x40d": dict(
        logits_f64="70b0de876befccf799f89b944ced95fbc6efe5d4867c26de721fe124ebf23bb4",
        logits_f64_ref=[
            -1.0803063140043845, -1.637418741197834, -1.0124233682280503,
            -1.5628182856107231, -0.839265105491942, -1.0669946876797216,
            -0.9875510986193596, -1.4810296128734326, -0.8349896895327371,
            -1.5970968037647393, -0.8721162171338444, -1.5072723665563865,
            -1.1018637212446931, -1.576352955897769, -0.9637403567684646,
            -1.6266587816619542,
        ],
        logits_f32="cab2c235ee28f1dcb49794e5e81a9e49261004a688f4c35056543fa5d60c20cc",
        train_input_grad="4a1f75d4384e12b25917161588f83254efa76df242e0a7e32fa5ac54c292139e",
        train_input_grad_ref=[
            2.3900174667972236e-06, 0.030831349689909346, 0.008402818894681988,
            -0.024220797367890234, 0.012526692341154073, -0.013055289291031663,
            0.03691008950704777, -0.009068152028653752, 0.0039895202113255195,
            0.01037629335875195, -0.008969141062116529, 0.012701885074011807,
            -0.002449747868983156, 0.011169995387080321, 0.006812809406229744,
            -0.022291981712925277,
        ],
        param_grads="db74b9ffd118a35c217529a57764435c614ee3db3e512b5e0d6b74918ff21d6b",
        param_grads_ref=[
            0.7243364199417393, -0.23944380058452946, 0.0514462965788038,
            -0.023987607810558184, 0.00343244209900068, 0.02571663502516752,
            4.969196038017954e-05, 0.014988454462863487, -0.010791759228486969,
            0.002491621657898609, -0.00758856156999171, -0.00025795066328301023,
            -0.002866375873846172, -0.0048754106983006145, -0.00260544219751377,
            0.0034848443692232956,
        ],
    ),
    "0s1x64d-classic": dict(
        logits_f64="c19af9dba750baa63d428dacfd49f5cb7eb1e1af6c24e1fc8e5e0a9e8bbef344",
        logits_f64_ref=[
            5.724191420012339, 3.630159399990702, 5.644065911735181, 4.026955238684506,
            5.7727896201759386, 3.954068813257302, 6.1548491898086946,
            4.556674988708921, 5.512839426122937, 4.064699727713645, 6.46454620507278,
            4.609321323198878, 5.916186583522064, 3.5163930164891437,
            4.9521182988953925, 3.7685651325474527,
        ],
        logits_f32="f19abf4b9710fe9010fa2b16df6101bbb025b330176eb5d340d848da334497c6",
        train_input_grad="1199267ae3d60a99af523a4be20353f51143d7ba0e42cf2e0f12479e681da383",
        train_input_grad_ref=[
            0.005586390679307581, -0.0010099617907468267, -0.0028098622188784533,
            0.003198742118101665, 0.012448365189696706, -0.013695560744216127,
            -0.024217385390409803, 0.003669627956958181, -0.010382848046972277,
            -0.005330197140094034, 0.0016904211213373415, -0.01075681795319952,
            -0.02604286945847767, 0.01791174663344576, 0.008927156832294784,
            -0.010530939225483402,
        ],
        param_grads="9b143697352315d107331f96229b58e44be08b694551e1340d36bd00af80809c",
        param_grads_ref=[
            -0.19601290044353292, -0.08012836363916712, -0.01080209543261714,
            -0.012598263600700838, 0.0038553831943480867, -0.015796412051539425,
            0.07544206372232874, -0.015355217825388793, -0.0016644933078577722,
            -0.0025098372812230457, 0.00615523596451087, 0.0023046751135006797,
            0.01766514207446668, -0.0020069976887597124, 0.003059726592223468,
            0.005532968269545641,
        ],
    ),
    "1s2x32d-fast": dict(
        logits_f64="a4a56de6743fbdeaebb6c2e210b28ed99b2416fe23c4b1b325a9ea99abbc5287",
        logits_f64_ref=[
            -2.0943809906556634, -0.22344755804166316, -2.019499548013997,
            -0.17061506321007586, -2.007728388347324, -0.13938749912455983,
            -1.8122537940011827, 0.014121912092524058, -2.017557484161238,
            -0.05013450293777924, -1.978277888872192, -0.025940704103542656,
            -1.86078570877032, -0.045163634146843185, -1.861614965211202,
            -0.07145049277166599,
        ],
        logits_f32="357ccf2038d2f2c4588d2298c707d2c27d0b903109d5dc0dd5fbc6f713b639c7",
        train_input_grad="766c96b198aa3a57597831b5322a04c35924362f557510934d2db5ad303c6ce7",
        train_input_grad_ref=[
            -0.005688463400988047, -0.0028113657832091778, -0.00919874331858005,
            0.006737905436224233, -0.010253309265683358, -0.017414298862690854,
            0.040047513699824205, -0.032078824115480103, 0.005635382451730397,
            0.004708479668241224, -0.00018833430568094222, -0.0013165251155564362,
            -0.010620793939207986, -0.0005336898473303287, -0.004050303963110379,
            0.0005035110785949774,
        ],
        param_grads="a276851cf19a705d42e098a4cdc31f2be4c6b092e47466bc584e3d00b14ed65d",
        param_grads_ref=[
            1.7069877398769557, 0.005927755697858646, -0.06608245702037988,
            -0.0379371376983331, -0.0006901743624889357, 0.11646406710112157,
            -0.01342091470528255, -0.002835038849425011, 0.007441774547968963,
            -0.002664756329284262, -0.004478550619378614, 0.0022285715075881737,
            0.0012663789703187365, -0.04003299759481383, -0.00015549952702170007,
            -5.9460595493764817e-05,
        ],
    ),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
class TestBitGate:
    def test_eval_logits_and_input_grad(self, variant):
        """The eval logits, and the input gradient of the train backward."""
        pins = PINS[variant]
        logits, (gx, _) = eval_logits(variant), train_grads(variant)
        _assert_reference(logits, pins["logits_f64_ref"])
        _assert_reference(gx, pins["train_input_grad_ref"])
        assert _sha256(logits) == pins["logits_f64"]
        assert _sha256(gx) == pins["train_input_grad"]

    def test_eval_logits_f32(self, variant):
        logits = eval_logits(variant, np.float32)
        assert logits.dtype == np.float32
        assert _sha256(logits) == PINS[variant]["logits_f32"]

    def test_train_param_grads(self, variant):
        pins = PINS[variant]
        _, grads = train_grads(variant)
        _assert_reference(grads, pins["param_grads_ref"])
        assert _sha256(grads) == pins["param_grads"]


# ResNeSt-50 2s1x64d, batch 1 at 224², by the same recipe: the paper's
# network with every residual branch reaching the logits
R50_LOGITS_F32 = "04e3bc78636044dae3ff8cf03296378b663e98d79fcdc7e44ec2ce6c6ab7ef4f"
R50_LOGITS_F64 = "20eb02fb04357c529df29a2e1fc0739f5192b7f3a996de4c6619a639a07734e7"
R50_LOGITS_F64_REF = [
    1648.6930314956937, 165.988572278849, 4220.4136636767225, 1145.8548045391335,
    -2947.2934029570165, -902.8593127650231, -4598.478243133503, -1713.2142219672357,
    365.9031997378856, -3950.650113877179, 3032.9440011688675, 3969.6002527150877,
    1416.4188068777412, 2059.0702169614665, -1311.0868107854715, -613.5258164160082,
]


def test_r50_eval_logits():
    """The float32 forward of the float64 weights, and the float64 forward
    of the same float32 input."""
    cfg = NetworkConfig()
    x = spawn_rng(0, 2).standard_normal((1, 3, 224, 224)).astype(np.float32)
    logits32 = _seeded_network(cfg, np.float32).forward(x, mode="eval")
    logits64 = _seeded_network(cfg).forward(x.astype(np.float64), mode="eval")
    assert logits32.dtype == np.float32
    _assert_reference(logits64, R50_LOGITS_F64_REF)
    assert _sha256(logits64) == R50_LOGITS_F64
    assert _sha256(logits32) == R50_LOGITS_F32


# the bit gate's networks without dropout, and the toy network with both
DIRECTIONAL = {**{v: dict(variant=v, dropout=0.0, dropblock_prob=0.0) for v in VARIANTS},
               "toy-dropblock-dropout": dict(variant="toy", dropout=0.1, dropblock_prob=0.1)}
STEPS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


def directional_error(net, size=SIZE, channels=1, batch=16):
    """Relative error of ⟨∇L, v⟩ against (L(θ+hv) − L(θ−hv))/2h, best over h.

    L = Σ logits·proj of a train-mode forward; every forward gets a fresh
    copy of the same rng, so the DropBlock and dropout masks repeat. v is one
    random unit direction over all parameters.
    """
    rng = spawn_rng(0, 5)
    x = rng.standard_normal((batch, channels, size, size))
    proj = rng.standard_normal((batch, 2))
    params = net.parameters()
    v = [rng.standard_normal(p.value.shape) for p in params]
    norm = math.sqrt(sum(float((d * d).sum()) for d in v))

    def loss():
        logits, tape = net.forward(x, mode="train", rng=spawn_rng(0, 4))
        return float((logits * proj).sum()), tape

    net.backward(loss()[1], proj)
    analytic = sum(float((p.grad * d).sum()) for p, d in zip(params, v)) / norm
    start = [p.value.copy() for p in params]
    errors = []
    for h in STEPS:
        sides = []
        for sign in (1.0, -1.0):
            with net.writing():
                for p, s, d in zip(params, start, v):
                    p.value[...] = s + (sign * h / norm) * d
            sides.append(loss()[0])
        fd = (sides[0] - sides[1]) / (2.0 * h)
        errors.append(abs(fd - analytic) / max(abs(fd), abs(analytic)))
    with net.writing():
        for p, s in zip(params, start):
            p.value[...] = s
    return min(errors)


@pytest.mark.parametrize("name", sorted(DIRECTIONAL))
def test_train_directional_derivative(name):
    assert directional_error(_network(**DIRECTIONAL[name])) < 1e-6


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(cfg=network_configs(), size=input_sizes)
def test_train_directional_derivative_over_config_space(cfg, size, tmp_path_factory):
    """The fixed networks' check over drawn configs: other radices and
    cardinalities, both stems, 1 or 3 input channels, 32² or 64² images.
    Clean errors read at most ~1e-6; dropping a term of the batch-norm or
    the attention backward reads 0.05 and more."""
    net = _seeded_network(cfg)
    assert directional_error(net, size, cfg.input_channels) < 1e-5
    # the checkpoint round-trips, and a float32 build of it trains in float32
    path = tmp_path_factory.mktemp("sweep") / "net.ckpt"
    state = net.state_dict()
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(state)
    assert all((loaded[k].dtype, loaded[k].shape, loaded[k].tobytes())
               == (v.dtype, v.shape, v.tobytes()) for k, v in state.items())
    net32 = build_network(cfg, None, dtype=np.float32)
    net32.load_state_dict(loaded)
    x = spawn_rng(0, 6).standard_normal((2, cfg.input_channels, size, size))
    logits, tape = net32.forward(x.astype(np.float32), mode="train")
    grads = [net32.backward(tape, np.ones_like(logits)), *(p.grad for p in net32.parameters())]
    assert {a.dtype for a in (logits, *grads)} == {np.dtype(np.float32)}


# a two-epoch toy run on 128 samples (4 steps per epoch), checkpoint per epoch
TRAIN_ARGS = ["train", "--config", str(TOY_CONFIG), "--epochs", "2",
              "--warmup-epochs", "1", "--samples", "128"]
TRAIN_LOG = "e5f379ff861ff9865de897412423a2e902e484ba81471dd3c72998282781ec42"
TRAIN_CHECKPOINT = "e9b532b7fc36e49c74b62398921d257f3807ba8cfb84f9d3380113564c236cc0"
# the full configs/toy.cfg run: 10 epochs on 512 samples
TOY_CFG_LOG = "6162aacf800abc503151a7e49f2ece172edb215d5c06a092c15396e01e2a62a8"
TOY_CFG_CHECKPOINT = "f6aa7634ca4fdec990524d01e168acf8a65c0e0ec6da9417d3b0ea92fbb76a5c"
BENCH_ARGS = ["bench", "--config", str(TOY_CONFIG), "--batch", "8", "--input-size", "32",
              "--reps", "1", "--warmup", "0"]
BENCH_LOGITS = "e21e6df1cc301cd09067539b496072f17aec219cda11e481bd3f872084ed535d"
# the cost rows of the toy network and of ResNeSt-50-fast 2s1x64d
ANALYZE_ROWS = {
    "toy-32": (["--config", str(TOY_CONFIG), "--input-size", "32"], 95,
               "5fb065ecb811f1b24093fe9ec1cf337783d8ab4afbbe71fbe5c81d75224412c0"),
    "2s1x64d-fast-224": (["--radix", "2", "--fast", "true", "--input-size", "224"], 299,
                         "39d45932af677291a52a8e94a0bb3261b5aca663c05d3464640c08a81517a149"),
}


class TestCommandLineDigests:
    @staticmethod
    def _train_digests(args, tmp_path, capsys):
        log, ckpt = tmp_path / "run.tsv", tmp_path / "run.ckpt"
        assert main([*args, "--out", str(log), "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        return (hashlib.sha256(log.read_bytes()).hexdigest(),
                hashlib.sha256(ckpt.read_bytes()).hexdigest())

    def test_train_log_and_checkpoint(self, tmp_path, capsys):
        assert self._train_digests(TRAIN_ARGS, tmp_path, capsys) == (TRAIN_LOG, TRAIN_CHECKPOINT)

    def test_toy_config_train_run(self, tmp_path, capsys):
        args = ["train", "--config", str(TOY_CONFIG)]
        assert self._train_digests(args, tmp_path, capsys) == (TOY_CFG_LOG, TOY_CFG_CHECKPOINT)

    def test_bench_logits(self, capsys):
        assert main(BENCH_ARGS) == 0
        assert f"logits sha256 {BENCH_LOGITS}" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(ANALYZE_ROWS))
    def test_analyze_rows(self, name, tmp_path, capsys):
        args, rows, digest = ANALYZE_ROWS[name]
        out = tmp_path / "rows.tsv"
        assert main(["analyze", *args, "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == rows
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
