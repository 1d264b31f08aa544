"""Unit tests for losses, metrics and the training loops."""

import warnings

import numpy as np
import pytest

from repro.gnn import GraphRegressor, NodeClassifier
from repro.tensor import Tensor, gradcheck
from repro.training import (
    TrainConfig,
    bce_with_logits,
    binary_accuracy,
    huber_loss,
    mape,
    mse_loss,
)
from repro.training.trainer import (
    evaluate_node_classifier,
    evaluate_regressor,
    train_graph_regressor,
    train_node_classifier,
)

TYPES = 8


class TestLosses:
    def test_mse_value(self):
        loss = mse_loss(Tensor([[1.0], [3.0]]), Tensor([[0.0], [0.0]]))
        np.testing.assert_allclose(loss.data, 5.0)

    def test_mse_gradcheck(self, rng):
        pred = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        target = Tensor(rng.normal(size=(4, 2)))
        assert gradcheck(lambda: mse_loss(pred, target), [pred])

    def test_huber_quadratic_region_matches_mse_half(self):
        pred = Tensor([[0.5]])
        target = Tensor([[0.0]])
        np.testing.assert_allclose(huber_loss(pred, target, 1.0).data, 0.125)

    def test_huber_linear_region(self):
        loss = huber_loss(Tensor([[10.0]]), Tensor([[0.0]]), delta=1.0)
        np.testing.assert_allclose(loss.data, 9.5)

    def test_huber_gradcheck(self, rng):
        pred = Tensor(rng.normal(size=(5,)) * 3, requires_grad=True)
        target = Tensor(rng.normal(size=(5,)))
        assert gradcheck(lambda: huber_loss(pred, target), [pred])

    def test_bce_matches_reference(self, rng):
        logits = rng.normal(size=(6, 3))
        target = (rng.random((6, 3)) > 0.5).astype(float)
        ours = bce_with_logits(Tensor(logits), Tensor(target)).data
        p = 1 / (1 + np.exp(-logits))
        reference = -(target * np.log(p) + (1 - target) * np.log(1 - p)).mean()
        np.testing.assert_allclose(ours, reference, atol=1e-9)

    def test_bce_stable_for_extreme_logits(self):
        loss = bce_with_logits(Tensor([[1000.0, -1000.0]]), Tensor([[1.0, 0.0]]))
        assert np.isfinite(loss.data)
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-9)

    def test_bce_gradcheck(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        target = Tensor((rng.random((4, 3)) > 0.5).astype(float))
        assert gradcheck(lambda: bce_with_logits(logits, target), [logits])


class TestMetrics:
    def test_mape_simple(self):
        result = mape(np.array([[110.0]]), np.array([[100.0]]))
        np.testing.assert_allclose(result, [0.1])

    def test_mape_floor_guards_zero_targets(self):
        result = mape(np.array([[1.0]]), np.array([[0.0]]), floor=1.0)
        np.testing.assert_allclose(result, [1.0])

    def test_mape_per_column(self):
        pred = np.array([[110.0, 90.0], [110.0, 90.0]])
        target = np.array([[100.0, 100.0], [100.0, 100.0]])
        np.testing.assert_allclose(mape(pred, target), [0.1, 0.1])

    def test_mape_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mape(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_binary_accuracy(self):
        logits = np.array([[2.0, -1.0], [-2.0, 3.0]])
        labels = np.array([[1.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(binary_accuracy(logits, labels), [0.5, 1.0])


class TestTrainerRegression:
    def test_training_reduces_loss_and_restores_best(self, dfg_samples):
        train, val = dfg_samples[:16], dfg_samples[16:20]
        model = GraphRegressor(
            "gcn", in_dim=train[0].feature_dim, hidden_dim=16, num_layers=2,
            num_edge_types=TYPES, rng=np.random.default_rng(0),
        )
        result = train_graph_regressor(
            model, train, val, TrainConfig(epochs=8, batch_size=8, lr=3e-3)
        )
        losses = [h["loss"] for h in result.history]
        assert losses[-1] < losses[0]
        assert 1 <= result.best_epoch <= 8
        # restored weights reproduce the recorded best val MAPE
        val_mape = float(np.mean(evaluate_regressor(model, val)))
        np.testing.assert_allclose(val_mape, result.best_val_metric, atol=1e-9)

    def test_early_stopping_respects_patience(self, dfg_samples, monkeypatch):
        train, val = dfg_samples[:12], dfg_samples[12:16]
        model = GraphRegressor(
            "gcn", in_dim=train[0].feature_dim, hidden_dim=8, num_layers=1,
            num_edge_types=TYPES, rng=np.random.default_rng(0),
        )
        # Freeze the validation metric so "no improvement" is guaranteed:
        # patience must cut training off after exactly 1 + patience epochs.
        import repro.training.trainer as trainer_module

        monkeypatch.setattr(
            trainer_module,
            "evaluate_regressor",
            lambda *_args, **_kwargs: np.array([0.5, 0.5, 0.5, 0.5]),
        )
        result = train_graph_regressor(
            model, train, val,
            TrainConfig(epochs=50, batch_size=8, lr=1e-3, patience=2),
        )
        assert len(result.history) == 3
        assert result.best_epoch == 1

    def test_prediction_shape_and_positivity(self, dfg_samples):
        model = GraphRegressor(
            "gcn", in_dim=dfg_samples[0].feature_dim, hidden_dim=8, num_layers=1,
            num_edge_types=TYPES, rng=np.random.default_rng(0),
        )
        from repro.training.trainer import predict_regressor

        pred = predict_regressor(model, dfg_samples[:5])
        assert pred.shape == (5, 4)
        assert (pred > -1.0).all()  # expm1 lower bound

    def test_outputs_beyond_float32_exp_range_stay_finite(self, dfg_samples):
        from repro.gnn.streaming import predict_regressor_streaming
        from repro.tensor import default_dtype
        from repro.training.trainer import predict_regressor

        with default_dtype(np.float32):
            # Re-wrapping casts the inputs to float32 under any global policy.
            graphs = [g.with_features(g.node_features) for g in dfg_samples[:3]]
            model = GraphRegressor(
                "gcn", in_dim=graphs[0].feature_dim, hidden_dim=8, num_layers=1,
                num_edge_types=TYPES, rng=np.random.default_rng(0),
            )
            # Zero the last head layer and bias it to a log-space output of
            # 100, past log(finfo(float32).max) ~= 88.72.
            head = [p for n, p in model.named_parameters() if n.startswith("head.")]
            weight, bias = head[-2:]
            weight.data[...] = 0.0
            bias.data[...] = 100.0
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                pred = predict_regressor(model, graphs)
                streamed = predict_regressor_streaming(model, graphs[0])
                errors = evaluate_regressor(model, graphs)
        assert pred.dtype == np.float32
        assert np.isfinite(pred).all() and (pred > 1e38).all()
        np.testing.assert_array_equal(streamed, pred[0])
        assert np.isfinite(errors).all()

    def test_clamped_predictions_are_counted(self, dfg_samples):
        from repro.gnn.streaming import predict_regressor_streaming
        from repro.obs import MetricsRegistry, use_registry
        from repro.tensor import default_dtype
        from repro.training.metrics import expm1_finite
        from repro.training.trainer import predict_regressor

        with default_dtype(np.float32):
            graphs = [g.with_features(g.node_features) for g in dfg_samples[:3]]
            model = GraphRegressor(
                "gcn", in_dim=graphs[0].feature_dim, hidden_dim=8, num_layers=1,
                num_edge_types=TYPES, rng=np.random.default_rng(0),
            )
            head = [p for n, p in model.named_parameters() if n.startswith("head.")]
            weight, bias = head[-2:]
            weight.data[...] = 0.0
            # Two of the four outputs overflow float32's exp range.
            bias.data[...] = np.array([100.0, 1.0, 95.0, 2.0], dtype=np.float32)
            with use_registry(MetricsRegistry()) as registry:
                predict_regressor(model, graphs)
                assert registry.counter("predict.nonfinite_clamped").value == 2 * 3
                predict_regressor_streaming(model, graphs[0])
                assert registry.counter("predict.nonfinite_clamped").value == 2 * 4
                expm1_finite(np.array([1.0, 2.0], dtype=np.float32))
                assert registry.counter("predict.nonfinite_clamped").value == 2 * 4


    def test_nonfinite_gradient_skips_the_step(self, dfg_samples, monkeypatch):
        import repro.training.trainer as trainer_module
        from repro.obs import MetricsRegistry, use_registry
        from repro.optim import clip_grad_norm

        train, val = dfg_samples[:8], dfg_samples[8:12]
        model = GraphRegressor(
            "gcn", in_dim=train[0].feature_dim, hidden_dim=8, num_layers=1,
            num_edge_types=TYPES, rng=np.random.default_rng(0),
        )
        before = {k: v.copy() for k, v in model.state_dict().items()}
        calls = []

        def poisoned(parameters, max_norm):
            parameters = list(parameters)
            parameters[0].grad = np.full_like(parameters[0].grad, np.inf)
            calls.append(1)
            return clip_grad_norm(parameters, max_norm)

        monkeypatch.setattr(trainer_module, "clip_grad_norm", poisoned)
        with use_registry(MetricsRegistry()) as registry:
            train_graph_regressor(
                model, train, val, TrainConfig(epochs=2, batch_size=4, lr=1e-2)
            )
            skipped = registry.counter("train.nonfinite_grad").value
        assert skipped == len(calls) == 4
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])


class TestTrainerNodeClassifier:
    def test_training_improves_accuracy(self, dfg_samples):
        train, val = dfg_samples[:16], dfg_samples[16:20]
        model = NodeClassifier(
            "sage", in_dim=train[0].feature_dim, hidden_dim=16, num_layers=2,
            num_edge_types=TYPES, rng=np.random.default_rng(0),
        )
        before = float(np.mean(evaluate_node_classifier(model, val)))
        result = train_node_classifier(
            model, train, val, TrainConfig(epochs=10, batch_size=8, lr=3e-3)
        )
        after = float(np.mean(evaluate_node_classifier(model, val)))
        assert after >= before
        assert after > 0.6  # opcode features make this task very learnable

    def test_history_records_epochs(self, dfg_samples):
        model = NodeClassifier(
            "gcn", in_dim=dfg_samples[0].feature_dim, hidden_dim=8, num_layers=1,
            num_edge_types=TYPES, rng=np.random.default_rng(0),
        )
        result = train_node_classifier(
            model, dfg_samples[:8], dfg_samples[8:12],
            TrainConfig(epochs=3, batch_size=8),
        )
        assert [h["epoch"] for h in result.history] == [1, 2, 3]
