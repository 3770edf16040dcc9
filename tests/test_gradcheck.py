"""The finite-difference harness itself, and the end-to-end unit check."""

import numpy as np
import pytest

from splatnet.gradcheck import grad_check, rel_err
from splatnet.params import make_rng
from splatnet.verify import splat_gradcheck


class TestHarness:
    def test_linear_function_machine_epsilon(self):
        rng = make_rng(0)
        w = rng.standard_normal(6)
        a = rng.standard_normal(6)

        def loss():
            return float(a @ w), {"w": a.copy()}

        report = grad_check(loss, {"w": w}, tolerance=1e-9)
        assert report.passed
        assert report.max_rel_err < 1e-9

    def test_detects_wrong_gradient(self):
        w = np.array([1.0, 2.0])

        def loss():
            return float((w ** 2).sum()), {"w": 3.0 * w}  # wrong: should be 2w

        report = grad_check(loss, {"w": w}, tolerance=1e-6)
        assert not report.passed
        assert "FAIL" in report.summary()

    def test_relative_error_definition(self):
        assert rel_err(1.0, 1.0) == 0.0
        assert rel_err(2.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert rel_err(0.0, 0.0) == 0.0  # guarded denominator

    def test_non_contiguous_parameter(self):
        """A transposed view is perturbed in place, not through a copy, and the
        worst index is reported as plain ints."""
        w = make_rng(2).standard_normal((4, 3)).T
        c = make_rng(3).standard_normal((3, 4))

        def loss():
            return float((c * w).sum()), {"w": c.copy()}

        report = grad_check(loss, {"w": w}, tolerance=1e-9)
        assert report.passed, report.summary()
        entry = report.entries[0]
        assert all(type(i) is int for i in entry.worst_index)
        assert f"at {entry.worst_index} " in report.summary()

    def test_requires_float64(self):
        w = np.ones(3, dtype=np.float32)
        with pytest.raises(TypeError, match="float64"):
            grad_check(lambda: (0.0, {"w": np.zeros(3)}), {"w": w})

    def test_subsampling_needs_rng(self):
        w = np.ones(100)
        with pytest.raises(ValueError, match="rng"):
            grad_check(lambda: (0.0, {"w": np.zeros(100)}), {"w": w},
                       max_entries_per_param=3)

    def test_single_conv_sum(self):
        from splatnet import ops

        rng = make_rng(1)
        x = rng.standard_normal((2, 4, 4, 1))  # [C, H, W, N]
        w = rng.standard_normal((3, 2, 3, 3))

        def loss():
            y = ops.conv2d(x, w, padding=1)
            gx, gw = ops.conv2d_backward(np.ones_like(y), x, w, 1, 1, 1)
            return float(y.sum()), {"x": gx, "w": gw}

        report = grad_check(loss, {"x": x, "w": w}, tolerance=1e-7)
        assert report.passed, report.summary()


class TestUnitGradients:
    def test_full_unit_under_tolerance(self):
        report = splat_gradcheck(seed=0)
        assert report.passed, report.summary()
        assert report.max_rel_err < 1e-4

    def test_covers_input_and_every_parameter(self):
        report = splat_gradcheck(seed=1)
        names = {e.name for e in report.entries}
        assert "input" in names
        assert any(n.endswith("fc2.bias") for n in names)
        assert any(n.endswith("conv_split.weight") for n in names)
        assert any(n.endswith("bn_att.gamma") for n in names)
