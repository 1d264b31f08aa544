"""Unit tests for optimisers, schedulers and gradient clipping."""

import warnings

import numpy as np
import pytest

from repro.nn import MLP, Linear
from repro.optim import SGD, Adam, CosineDecay, StepDecay, clip_grad_norm
from repro.tensor import Tensor


def _quadratic_step(optimizer, parameter):
    """One gradient step on f(w) = ||w||^2 / 2."""
    optimizer.zero_grad()
    (parameter * parameter * 0.5).sum().backward()
    optimizer.step()


class TestSGD:
    def test_plain_step_direction(self):
        w = Tensor(np.array([2.0]), requires_grad=True)
        opt = SGD([w], lr=0.1)
        _quadratic_step(opt, w)
        np.testing.assert_allclose(w.data, [1.8])

    def test_momentum_accelerates(self):
        w_plain = Tensor(np.array([1.0]), requires_grad=True)
        w_momentum = Tensor(np.array([1.0]), requires_grad=True)
        opt_plain = SGD([w_plain], lr=0.05)
        opt_momentum = SGD([w_momentum], lr=0.05, momentum=0.9)
        for _ in range(10):
            _quadratic_step(opt_plain, w_plain)
            _quadratic_step(opt_momentum, w_momentum)
        assert abs(w_momentum.data.item()) < abs(w_plain.data.item())

    def test_weight_decay_shrinks_weights(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([w], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (w * 0.0).sum().backward()
        opt.step()
        assert w.data.item() < 1.0

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0], requires_grad=True)], lr=0.0)

    def test_skips_parameters_without_grad(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        SGD([w], lr=0.1).step()  # no backward ran; must not crash
        np.testing.assert_allclose(w.data, [1.0])


class TestAdam:
    def test_converges_on_quadratic(self):
        w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([w], lr=0.2)
        for _ in range(200):
            _quadratic_step(opt, w)
        np.testing.assert_allclose(w.data, 0.0, atol=1e-3)

    def test_bad_betas_rejected(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], betas=(1.0, 0.9))

    def test_fits_linear_regression(self, rng):
        x = rng.normal(size=(128, 3))
        true_w = np.array([[1.0], [-2.0], [0.5]])
        y = Tensor(x @ true_w)
        model = Linear(3, 1, rng=rng)
        opt = Adam(model.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            loss = ((model(Tensor(x)) - y) ** 2).mean()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(model.weight.data, true_w, atol=0.05)

    def test_decoupled_weight_decay(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([w], lr=0.001, weight_decay=0.5)
        opt.zero_grad()
        (w * 0.0).sum().backward()
        opt.step()
        assert w.data.item() < 1.0


class TestSchedulers:
    def test_step_decay_halves(self):
        w = Tensor([1.0], requires_grad=True)
        opt = SGD([w], lr=1.0)
        sched = StepDecay(opt, step_size=2, gamma=0.5)
        sched.step()
        assert opt.lr == 1.0
        sched.step()
        assert opt.lr == 0.5

    def test_step_decay_invalid_step_size(self):
        with pytest.raises(ValueError):
            StepDecay(SGD([Tensor([1.0], requires_grad=True)], lr=1.0), 0)

    def test_cosine_reaches_min(self):
        opt = SGD([Tensor([1.0], requires_grad=True)], lr=1.0)
        sched = CosineDecay(opt, total=10, min_lr=0.1)
        for _ in range(10):
            sched.step()
        np.testing.assert_allclose(opt.lr, 0.1, atol=1e-12)

    def test_cosine_monotone_decreasing(self):
        opt = SGD([Tensor([1.0], requires_grad=True)], lr=1.0)
        sched = CosineDecay(opt, total=8)
        previous = opt.lr
        for _ in range(8):
            sched.step()
            assert opt.lr <= previous + 1e-12
            previous = opt.lr


class TestClipGradNorm:
    def test_large_gradient_scaled_to_max(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        w.grad = np.array([30.0, 40.0])[:1] * 0 + np.array([30.0])
        v = Tensor(np.array([1.0]), requires_grad=True)
        v.grad = np.array([40.0])
        total = clip_grad_norm([w, v], max_norm=5.0)
        np.testing.assert_allclose(total, 50.0)
        clipped = np.sqrt(float((w.grad**2).sum() + (v.grad**2).sum()))
        np.testing.assert_allclose(clipped, 5.0)

    def test_small_gradient_untouched(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        w.grad = np.array([0.3])
        clip_grad_norm([w], max_norm=5.0)
        np.testing.assert_allclose(w.grad, [0.3])

    def test_float32_norm_beyond_its_range_still_clips(self):
        # (1e20)**2 overflows float32; the old norm was inf, its scale 0,
        # and every gradient was zeroed.
        w = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        w.grad = np.array([1e20, 0.5], dtype=np.float32)
        v = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        v.grad = np.array([1e20], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow RuntimeWarning
            total = clip_grad_norm([w, v], max_norm=5.0)
        np.testing.assert_allclose(total, np.sqrt(2.0) * 1e20, rtol=1e-6)
        assert w.grad.dtype == np.float32
        np.testing.assert_allclose(
            np.concatenate([w.grad, v.grad]),
            [5.0 / np.sqrt(2.0), 0.0, 5.0 / np.sqrt(2.0)],
            rtol=1e-5, atol=1e-12,
        )

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_gradient_is_reported_and_left_alone(self, bad):
        w = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        w.grad = np.array([bad, 3.0], dtype=np.float32)
        total = clip_grad_norm([w], max_norm=1.0)
        assert not np.isfinite(total)
        np.testing.assert_array_equal(w.grad, np.array([bad, 3.0], np.float32))

    def test_no_grads_returns_zero(self):
        assert clip_grad_norm([Tensor([1.0], requires_grad=True)], 1.0) == 0.0

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], 0.0)

    def test_training_mlp_end_to_end_improves(self, rng):
        x = rng.normal(size=(64, 2))
        y = Tensor((x[:, :1] * 2 - x[:, 1:]) ** 2)
        model = MLP([2, 16, 1], rng=rng)
        opt = Adam(model.parameters(), lr=0.01)
        first = None
        for step in range(150):
            opt.zero_grad()
            loss = ((model(Tensor(x)) - y) ** 2).mean()
            loss.backward()
            clip_grad_norm(model.parameters(), 1.0)
            opt.step()
            if first is None:
                first = float(loss.data)
        assert float(loss.data) < first
