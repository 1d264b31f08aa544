"""Training loops for the two task families.

Targets are regressed in ``log1p`` space (resource counts span three
orders of magnitude) and mapped back with ``expm1`` for MAPE evaluation
(clamped below float overflow: :func:`~repro.training.metrics.expm1_finite`).
Gradients are clipped to ``grad_clip`` in global norm; a step whose norm
is not finite is skipped, not taken, and counted in
``train.nonfinite_grad``.

All batching — training, validation, the predict/evaluate helpers —
goes through :class:`BatchStream`, which draws one batch schedule
(:func:`repro.graph.batch.batch_schedule`) and replays it every epoch:

- **in-memory lists** materialise their :class:`~repro.graph.batch.
  Batch` objects once and reuse them, so each batch's cached
  :class:`~repro.gnn.message_passing.GraphContext` (symmetrised edges,
  GCN norms, relation partition, scatter plans) is built exactly once
  across all epochs;
- **streaming sources** (``streaming = True`` — e.g.
  :class:`~repro.dataset.shards.ShardedDataset` or the
  :class:`~repro.dataset.shards.DatasetView` partitions produced by
  splitting one) rebuild batches lazily from the reader on every pass,
  holding only the current batch plus the reader's byte-bounded cache
  of decoded shards in memory (a dataset within the budget is decoded
  once, not once per batch). The replayed schedule makes the loss curve
  bitwise-identical to the in-memory path.

Validation batches are always prebuilt and reused across epochs (the
validation set is small; context reuse there dominates).

Training is crash-safe when a :class:`~repro.training.checkpoint.
CheckpointConfig` is passed: atomic, digest-verified snapshots of the
full training state land every K epochs (and mid-epoch on
SIGTERM/SIGINT), and ``resume=True`` continues a killed run so the
finished loss curve is bitwise-identical to an uninterrupted one — see
:mod:`repro.training.checkpoint`. The ``train.step`` fault seam fires
once per optimiser step so chaos tests can kill training mid-epoch
deterministically.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.faults import fault_point
from repro.gnn.network import GraphRegressor, NodeClassifier
from repro.graph.batch import Batch, batch_schedule
from repro.graph.data import GraphData
from repro.obs import active_ledger, get_registry
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor, gather_rows, get_default_dtype, no_grad
from repro.training.checkpoint import (
    CheckpointConfig,
    CheckpointManager,
    TrainerState,
    TrainingInterrupted,
    check_config,
    config_dict,
    flush_signals,
    load_checkpoint,
    module_rng_states,
    restore_module_rngs,
)
from repro.training.losses import bce_with_logits, mse_loss
from repro.training.metrics import binary_accuracy, expm1_finite, mape

GraphSource = Sequence[GraphData]

#: Epoch progress goes through ``logging`` (satellite of the obs PR): a
#: library must not ``print``. Callers opt in with ``log_every`` +
#: ``verbose`` and a standard ``logging.basicConfig(level=logging.INFO)``.
LOG = logging.getLogger("repro.training")


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 32
    lr: float = 3e-3
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    seed: int = 0
    log_every: int = 0  # 0 = silent
    patience: int = 0  # 0 = no early stopping
    verbose: bool = True  # master switch over log_every output


@dataclass
class TrainResult:
    best_epoch: int
    best_val_metric: float
    history: list[dict] = field(default_factory=list)
    #: Best-validation weights — the publishable artifact. Identical to the
    #: state the trainer restored into the model, so it can be handed to
    #: :func:`repro.serve.artifacts.save_predictor` / a registry directly.
    best_state: dict[str, np.ndarray] | None = None


class BatchStream:
    """Epoch-reiterable batch source over a graph sequence.

    The schedule (sample permutation + batch boundaries) is drawn once
    at construction; every iteration replays it. In-memory sources
    prebuild their batches, streaming sources rebuild them lazily per
    pass — see the module docstring for why both yield identical runs.

    :class:`~repro.graph.partition.SampledNodeDataset` is a streaming
    source too — its ``gather`` resamples neighbor-capped subgraphs on
    demand (bitwise-reproducibly per sampler seed), which is the
    sampled-subgraph training mode for graphs too large to batch whole.
    """

    def __init__(
        self,
        graphs: GraphSource,
        batch_size: int,
        rng: np.random.Generator | None = None,
    ):
        self.graphs = graphs
        self.schedule = batch_schedule(len(graphs), batch_size, rng)
        self.num_graphs = len(graphs)
        self.streaming = bool(getattr(graphs, "streaming", False))
        self._prebuilt: list[Batch] | None = None
        if not self.streaming:
            self._prebuilt = [self._build(chunk) for chunk in self.schedule]

    def _build(self, chunk: np.ndarray) -> Batch:
        # Streaming readers expose ``gather`` (shard-grouped loads: each
        # distinct shard is fetched once per batch, not once per sample).
        gather = getattr(self.graphs, "gather", None)
        if gather is not None:
            return Batch(gather(chunk))
        return Batch([self.graphs[int(i)] for i in chunk])

    def __len__(self) -> int:
        return len(self.schedule)

    def __iter__(self):
        if self._prebuilt is not None:
            yield from self._prebuilt
        else:
            for chunk in self.schedule:
                yield self._build(chunk)

    def batch_at(self, index: int) -> Batch:
        """The batch at one schedule position (prebuilt when in-memory).

        Index-addressed access is what makes mid-epoch checkpoint resume
        possible: a restored run re-enters the replayed schedule at the
        exact position the interrupted run stopped at.
        """
        if self._prebuilt is not None:
            return self._prebuilt[index]
        return self._build(self.schedule[index])

    def materialized(self) -> list[Batch]:
        """The stream as a reusable batch list (prebuilt where possible)."""
        return self._prebuilt if self._prebuilt is not None else list(self)


def _require_targets(batch: Batch) -> np.ndarray:
    if batch.y is None:
        raise ValueError("batch lacks graph targets")
    return batch.y


def _require_node_labels(batch: Batch) -> np.ndarray:
    if batch.node_labels is None:
        raise ValueError("batch lacks node labels")
    return batch.node_labels


def _target_matrix(batch: Batch) -> np.ndarray:
    # Loss targets follow the model's precision policy so a float32
    # forward is not silently promoted to float64 by the loss.
    return np.log1p(_require_targets(batch)).astype(get_default_dtype())


def _label_matrix(batch: Batch) -> np.ndarray:
    return _require_node_labels(batch).astype(get_default_dtype())


def _forward_batches(
    model,
    batches: Iterable[Batch],
    transform: Callable[[np.ndarray], np.ndarray],
    extract: Callable[[Batch], np.ndarray] | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Eval-mode, no-grad forward over a batch iterable, single pass.

    Reused batches keep their cached contexts, so calling this every
    epoch (the validation loop) pays for topology precomputation once.
    ``extract`` optionally collects per-batch reference arrays (targets,
    labels) in the same pass, which keeps streaming sources to one
    traversal. The model's train/eval mode is restored on exit, so
    eval-mode models (the common case when serving) stay in eval mode.
    """
    was_training = model.training
    model.eval()
    outputs, extras = [], []
    with no_grad():
        for batch in batches:
            outputs.append(transform(model(batch).data))
            if extract is not None:
                extras.append(extract(batch))
    model.train(was_training)
    stacked = np.concatenate(outputs, axis=0)
    if extract is None:
        return stacked
    return stacked, np.concatenate(extras, axis=0)


def predict_regressor(
    model: GraphRegressor, graphs: GraphSource, batch_size: int = 64
) -> np.ndarray:
    """Predict raw-scale targets for a sequence of graphs."""
    return _forward_batches(model, BatchStream(graphs, batch_size), expm1_finite)


def _evaluate_regressor_batches(
    model: GraphRegressor, batches: Iterable[Batch]
) -> np.ndarray:
    pred, target = _forward_batches(model, batches, expm1_finite, _require_targets)
    return mape(pred, target)


def evaluate_regressor(
    model: GraphRegressor,
    graphs: GraphSource,
    batch_size: int = 64,
    batches: Sequence[Batch] | None = None,
) -> np.ndarray:
    """Per-target MAPE of the model over ``graphs``.

    ``batches`` short-circuits batching: the epoch loop passes its
    prebuilt (context-cached) validation batches here. They must cover
    exactly ``graphs``.
    """
    if batches is None:
        batches = BatchStream(graphs, batch_size)
    else:
        _check_batches_cover(batches, graphs)
    return _evaluate_regressor_batches(model, batches)


def _check_batches_cover(batches: Sequence[Batch], graphs: GraphSource) -> None:
    if sum(b.num_graphs for b in batches) != len(graphs):
        raise ValueError(
            "prebuilt batches do not cover the given graphs; pass the "
            "graph list they were built from"
        )


def _fit(
    model,
    train_graphs: GraphSource,
    val_graphs: GraphSource,
    config: TrainConfig,
    batch_loss: Callable[[Batch], Tensor],
    batch_weight: Callable[[Batch], int],
    validate: Callable[[Sequence[Batch]], float],
    metric_name: str,
    maximize: bool,
    checkpoint: CheckpointConfig | None = None,
    resume: bool | str | Path = False,
) -> TrainResult:
    """Shared epoch loop behind both task trainers.

    Instrumented end to end: each epoch's batch-build / forward /
    backward+step split, loss and throughput land in the global
    :class:`~repro.obs.MetricsRegistry` and — when a
    :class:`~repro.obs.RunLedger` is active — as one ``epoch`` ledger
    record. The loop itself replays the exact op order of the previous
    per-task loops, so loss curves stay bitwise identical.

    With ``checkpoint`` set, the loop snapshots the complete training
    state (:class:`~repro.training.checkpoint.TrainerState`) every
    ``every_epochs`` completed epochs, at the final epoch, and mid-epoch
    when SIGTERM/SIGINT arrives (then raises
    :class:`~repro.training.checkpoint.TrainingInterrupted`). ``resume``
    restores such a snapshot and continues — checkpointed, interrupted
    and resumed runs all produce bitwise-identical loss curves.
    """
    rng = np.random.default_rng(config.seed)
    stream = BatchStream(train_graphs, config.batch_size, rng)
    val_batches = BatchStream(val_graphs, 64).materialized()
    optimizer = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    sign = -1.0 if maximize else 1.0  # best = lowest signed metric
    registry = get_registry()

    manager = CheckpointManager(checkpoint) if checkpoint is not None else None
    state = None
    if resume:
        if isinstance(resume, (str, Path)):
            state = load_checkpoint(resume)
        elif manager is not None:
            state = manager.resolve(True)
        else:
            raise ValueError(
                "resume=True needs a CheckpointConfig (or pass the "
                "checkpoint path directly)"
            )
    if state is not None:
        if state.metric_name != metric_name or state.maximize != maximize:
            raise ValueError(
                f"checkpoint belongs to a different task "
                f"({state.metric_name!r}, not {metric_name!r})"
            )
        check_config(
            state.train_config, config_dict(config), stream.num_graphs, state.num_graphs
        )
        model.load_state_dict(state.model_state)
        optimizer.load_state_dict(state.optim_state)
        rng.bit_generator.state = state.rng_state
        restore_module_rngs(model, state.module_rngs)
        best = (state.best_epoch, state.best_metric, state.best_state)
        history = list(state.history)
        stall = state.stall
        start_epoch, start_batch = state.epoch, state.batch_index
        global_step = state.step
        resumed_loss, resumed_weight = state.epoch_loss, state.epoch_weight
        registry.inc("train.resumes")
        ledger = active_ledger()
        if ledger is not None:
            ledger.record(
                "resume", epoch=state.epoch, batch_index=state.batch_index,
                step=state.step,
            )
        LOG.info(
            "resuming at epoch %d (batch %d, step %d)",
            state.epoch, state.batch_index, state.step,
        )
    else:
        best = (0, -np.inf if maximize else np.inf, model.state_dict())
        history = []
        stall = 0
        start_epoch, start_batch = 1, 0
        global_step = 0
        resumed_loss, resumed_weight = 0.0, 0.0

    def snapshot(epoch: int, batch_index: int, loss_sum: float, weight_sum: float):
        return TrainerState(
            epoch=epoch,
            batch_index=batch_index,
            step=global_step,
            epoch_loss=loss_sum,
            epoch_weight=weight_sum,
            history=list(history),
            best_epoch=best[0],
            best_metric=best[1],
            stall=stall,
            metric_name=metric_name,
            maximize=maximize,
            num_graphs=stream.num_graphs,
            train_config=config_dict(config),
            rng_state=rng.bit_generator.state,
            module_rngs=module_rng_states(model),
            model_state=model.state_dict(),
            optim_state=optimizer.state_dict(),
            best_state=best[2],
        )

    with flush_signals(manager is not None and checkpoint.on_signal) as stop_flag:
        for epoch in range(start_epoch, config.epochs + 1):
            epoch_start = time.perf_counter()
            if epoch == start_epoch and start_batch:
                # Mid-epoch resume: continue the interrupted epoch's
                # partial loss sums at the exact schedule position.
                first_batch = start_batch
                epoch_loss, epoch_weight = resumed_loss, resumed_weight
            else:
                first_batch = 0
                epoch_loss, epoch_weight = 0.0, 0.0
            build_s = forward_s = backward_s = 0.0
            for batch_index in range(first_batch, len(stream)):
                mark = time.perf_counter()
                batch = stream.batch_at(batch_index)
                build_s += time.perf_counter() - mark
                fault_point("train.step")
                optimizer.zero_grad()
                mark = time.perf_counter()
                loss = batch_loss(batch)
                forward_s += time.perf_counter() - mark
                mark = time.perf_counter()
                loss.backward()
                norm = clip_grad_norm(model.parameters(), config.grad_clip)
                if math.isfinite(norm):
                    optimizer.step()
                else:
                    # An inf/nan gradient would poison every weight (and
                    # Adam's moments); drop this step and count it.
                    registry.inc("train.nonfinite_grad")
                backward_s += time.perf_counter() - mark
                global_step += 1
                weight = batch_weight(batch)
                epoch_loss += float(loss.data) * weight
                epoch_weight += weight
                if stop_flag.is_set():
                    path = manager.save(
                        snapshot(epoch, batch_index + 1, epoch_loss, epoch_weight)
                    )
                    raise TrainingInterrupted(
                        f"training interrupted mid-epoch {epoch}; "
                        f"checkpoint flushed to {path}",
                        checkpoint=path,
                    )
            epoch_loss /= epoch_weight
            val_metric = validate(val_batches)
            epoch_s = time.perf_counter() - epoch_start
            samples_per_s = stream.num_graphs / epoch_s if epoch_s > 0 else float("inf")

            registry.observe("train.epoch_s", epoch_s)
            registry.set_gauge("train.loss", epoch_loss)
            registry.set_gauge(f"train.{metric_name}", val_metric)
            registry.set_gauge("train.samples_per_s", samples_per_s)
            registry.inc("train.epochs")
            registry.inc("train.samples", stream.num_graphs)
            record = {
                "epoch": epoch,
                "loss": epoch_loss,
                metric_name: val_metric,
                "samples_per_s": round(samples_per_s, 1),
                "batch_build_s": build_s,
                "forward_s": forward_s,
                "backward_s": backward_s,
            }
            ledger = active_ledger()
            if ledger is not None:
                ledger.record("epoch", record)
            history.append(
                {"epoch": epoch, "loss": epoch_loss, metric_name: val_metric}
            )
            if config.verbose and config.log_every and epoch % config.log_every == 0:
                LOG.info(
                    "epoch %3d  loss %.4f  %s %.4f  (%.0f samples/s)",
                    epoch,
                    epoch_loss,
                    metric_name,
                    val_metric,
                    samples_per_s,
                )
            if sign * val_metric < sign * best[1]:
                best = (epoch, val_metric, model.state_dict())
                stall = 0
            else:
                stall += 1
            # Epoch-boundary checkpoint: stored position is the *next*
            # (epoch, batch) so resume continues where this run left off.
            flushed = None
            if manager is not None and (
                epoch % checkpoint.every_epochs == 0 or epoch == config.epochs
            ):
                flushed = manager.save(snapshot(epoch + 1, 0, 0.0, 0.0))
            if stop_flag.is_set():
                if flushed is None:
                    flushed = manager.save(snapshot(epoch + 1, 0, 0.0, 0.0))
                raise TrainingInterrupted(
                    f"training interrupted after epoch {epoch}; "
                    f"checkpoint flushed to {flushed}",
                    checkpoint=flushed,
                )
            if config.patience and stall >= config.patience:
                break
    model.load_state_dict(best[2])
    return TrainResult(
        best_epoch=best[0],
        best_val_metric=best[1],
        history=history,
        best_state=best[2],
    )


def train_graph_regressor(
    model: GraphRegressor,
    train_graphs: GraphSource,
    val_graphs: GraphSource,
    config: TrainConfig = TrainConfig(),
    *,
    checkpoint: CheckpointConfig | None = None,
    resume: bool | str | Path = False,
) -> TrainResult:
    """Fit the regressor, restoring the best-validation-MAPE weights.

    ``train_graphs``/``val_graphs`` may be in-memory lists or streaming
    readers (:class:`~repro.dataset.shards.ShardedDataset` /
    :class:`~repro.dataset.shards.DatasetView`); both produce identical
    results on a fixed seed. ``checkpoint``/``resume`` make the run
    crash-safe — see :mod:`repro.training.checkpoint`.
    """
    return _fit(
        model,
        train_graphs,
        val_graphs,
        config,
        checkpoint=checkpoint,
        resume=resume,
        batch_loss=lambda batch: mse_loss(
            model(batch), Tensor(_target_matrix(batch))
        ),
        batch_weight=lambda batch: batch.num_graphs,
        # Resolved through the module so tests can monkeypatch the
        # public evaluation seam.
        validate=lambda batches: float(
            np.mean(evaluate_regressor(model, val_graphs, batches=batches))
        ),
        metric_name="val_mape",
        maximize=False,
    )


def predict_node_logits(
    model: NodeClassifier, graphs: GraphSource, batch_size: int = 64
) -> np.ndarray:
    return _forward_batches(
        model, BatchStream(graphs, batch_size), lambda data: data
    )


def _evaluate_node_classifier_batches(
    model: NodeClassifier, batches: Iterable[Batch]
) -> np.ndarray:
    """Accuracy over target rows only: sampled-subgraph batches
    (``batch.core_index`` non-None) score their seed nodes and skip the
    receptive-field support rows, whose embeddings are fan-in biased."""
    was_training = model.training
    model.eval()
    logit_parts, label_parts = [], []
    with no_grad():
        for batch in batches:
            logits = model(batch).data
            labels = _require_node_labels(batch)
            core = batch.core_index
            if core is not None:
                logits, labels = logits[core], labels[core]
            logit_parts.append(logits)
            label_parts.append(labels)
    model.train(was_training)
    return binary_accuracy(
        np.concatenate(logit_parts, axis=0), np.concatenate(label_parts, axis=0)
    )


def evaluate_node_classifier(
    model: NodeClassifier,
    graphs: GraphSource,
    batch_size: int = 64,
    batches: Sequence[Batch] | None = None,
) -> np.ndarray:
    """Per-task (DSP/LUT/FF) classification accuracy over all nodes."""
    if batches is None:
        batches = BatchStream(graphs, batch_size)
    else:
        _check_batches_cover(batches, graphs)
    return _evaluate_node_classifier_batches(model, batches)


def train_node_classifier(
    model: NodeClassifier,
    train_graphs: GraphSource,
    val_graphs: GraphSource,
    config: TrainConfig = TrainConfig(),
    *,
    checkpoint: CheckpointConfig | None = None,
    resume: bool | str | Path = False,
) -> TrainResult:
    """Fit the node-level resource-type classifier (3 binary tasks).

    ``train_graphs``/``val_graphs`` may also be a
    :class:`~repro.graph.partition.SampledNodeDataset` — the
    sampled-subgraph mode for graphs too large to batch whole. Its
    elements are rebuilt lazily per epoch (``streaming = True``) and the
    loss/metrics are masked to each subgraph's seed nodes via
    ``batch.core_index``; the sampler's per-node seeding keeps the loss
    curve deterministic per seed.
    """

    def node_loss(batch: Batch) -> Tensor:
        logits = model(batch)
        labels = _label_matrix(batch)
        core = batch.core_index
        if core is not None:
            logits = gather_rows(logits, core)
            labels = labels[core]
        return bce_with_logits(logits, Tensor(labels))

    return _fit(
        model,
        train_graphs,
        val_graphs,
        config,
        checkpoint=checkpoint,
        resume=resume,
        batch_loss=node_loss,
        batch_weight=lambda batch: (
            batch.num_nodes if batch.core_index is None else len(batch.core_index)
        ),
        validate=lambda batches: float(
            np.mean(evaluate_node_classifier(model, val_graphs, batches=batches))
        ),
        metric_name="val_acc",
        maximize=True,
    )
