"""repro — reproduction of "High-Level Synthesis Performance Prediction using
GNNs: Benchmarking, Modeling, and Advancing" (Wu et al., DAC 2022).

The package is organised bottom-up:

- :mod:`repro.tensor` — a numpy reverse-mode autograd engine.
- :mod:`repro.nn`, :mod:`repro.optim` — neural-network layers and optimisers.
- :mod:`repro.graph` — graph containers and mini-batching.
- :mod:`repro.gnn` — the 14 GNN architectures screened by the paper.
- :mod:`repro.frontend`, :mod:`repro.ir` — mini-C AST, LLVM-flavoured IR and
  DFG/CDFG extraction (the HLS front-end substitute).
- :mod:`repro.ldrgen` — the synthetic C program generator.
- :mod:`repro.hls` — scheduling/binding/implementation simulator providing
  ground-truth DSP/LUT/FF/CP labels and a biased synthesis report.
- :mod:`repro.suites` — MachSuite/CHStone/PolyBench kernel substitutes.
- :mod:`repro.dataset` — benchmark construction (Table 1 features, labels,
  splits, serialisation).
- :mod:`repro.models` — the three prediction approaches (off-the-shelf,
  knowledge-rich, knowledge-infused hierarchical GNN).
- :mod:`repro.training` — losses, metrics and the trainer.
- :mod:`repro.experiments` — one runner per paper table (Tables 2-5).
- :mod:`repro.serve` — model artifacts, registry and the batched
  inference service.

Saving and serving predictors
-----------------------------
Trained predictors outlive the training process: ``repro.serve`` saves
any of the three approaches as a versioned artifact (JSON manifest +
``.npz`` weights), publishes it to a directory-backed model registry,
and serves predictions — for pre-encoded graphs or raw mini-C source —
through a batched, fingerprint-cached ``PredictionService``::

    from repro.serve import ModelRegistry, PredictionService

    ModelRegistry("model-registry").register("rgcn-hier", predictor)
    service = PredictionService.from_registry("model-registry", "rgcn-hier")
    dsp, lut, ff, cp = service.predict_source(c_source_text)

The same flow is scriptable via ``python -m repro.serve``
(``save`` / ``list`` / ``predict`` / ``bench``) and
``python -m repro.experiments publish``; see :mod:`repro.serve` for the
full tour and ``examples/serve_predictions.py`` for a runnable demo.
"""

from repro.version import __version__

__all__ = ["__version__"]
