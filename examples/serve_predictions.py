#!/usr/bin/env python3
"""Serving: train once, publish, answer batched queries forever.

The DSE workflows built on this predictor (Sohrabizadeh et al.,
Ferretti et al.) query it thousands of times per exploration — so the
model must be trained *once*, saved, and served cheaply. This example
walks that lifecycle:

1. train a small hierarchical (knowledge-infused) predictor,
2. publish it to a model registry (versioned artifact on disk),
3. stand up a ``PredictionService`` from the registry in "another
   process" (nothing shared with the trainer but the directory),
4. answer a raw C-source request end to end,
5. run a mock DSE loop — repeated, overlapping queries — and watch the
   batched evaluate and fingerprint cache absorb the traffic.

Run:  python examples/serve_predictions.py
"""

import tempfile
import time

import numpy as np

from repro.dataset import TARGET_NAMES, build_synthetic_dataset, split_dataset
from repro.models import HierarchicalPredictor, PredictorConfig
from repro.serve import ModelRegistry, PredictionService, ServiceConfig
from repro.training import TrainConfig

KERNEL = """
#include <stdint.h>

int32_t fir(int16_t x[16], int16_t h[16]) {
    int32_t acc = 0;
    for (int i = 0; i < 16; i++) {
        acc = acc + x[i] * h[i];
    }
    return acc;
}
"""


def main() -> None:
    # 1. Train (the expensive step — everything after reuses it).
    print("[1/5] building dataset and training ...")
    samples = build_synthetic_dataset("cdfg", 60, seed=0)
    train, val, test = split_dataset(samples, seed=0)
    config = PredictorConfig(
        model_name="rgcn",
        hidden_dim=32,
        num_layers=2,
        train=TrainConfig(epochs=10, batch_size=16),
    )
    predictor = HierarchicalPredictor(config)
    predictor.fit(train, val)
    test_mape = predictor.evaluate(test)
    print(f"      test MAPE: {np.mean(test_mape):.3f}")

    with tempfile.TemporaryDirectory() as root:
        # 2. Publish a versioned artifact under a name.
        registry = ModelRegistry(root)
        record = registry.register(
            "rgcn-hier",
            predictor,
            extras={"test_mape_mean": round(float(np.mean(test_mape)), 4)},
        )
        print(f"[2/5] published {record.name} v{record.version} -> {record.path}")

        # 3. A consumer resolves by name — no training code involved.
        service = PredictionService.from_registry(
            root, "rgcn-hier", config=ServiceConfig(max_batch_size=16)
        )
        print("[3/5] service up; model reloaded bitwise from the artifact")

        # 4. One raw C-source request, end to end.
        values = service.predict_source(KERNEL)
        pretty = ", ".join(
            f"{name}={value:.1f}" for name, value in zip(TARGET_NAMES, values)
        )
        print(f"[4/5] fir kernel -> {pretty}")

        # 5. Mock DSE loop: 4 sweeps over the same candidate set.
        candidates = list(test)
        start = time.perf_counter()
        for _ in range(4):
            service.predict(candidates)
        elapsed = time.perf_counter() - start
        stats = service.stats
        print(
            f"[5/5] DSE loop: {stats.requests - 1} queries in {elapsed:.2f}s — "
            f"{stats.model_graphs} model evaluations in {stats.batches} "
            f"batches, {stats.cache_hits} cache hits"
        )


if __name__ == "__main__":
    main()
