"""Versioned predictor checkpoints: a manifest + one weights archive.

An artifact is a directory::

    <artifact>/
        manifest.json   # schema version, approach, config, dims, extras
        weights.npz     # flat Module.state_dict() (dtype-preserving)

The manifest carries everything needed to rebuild the network *untrained*
(:class:`~repro.models.base.PredictorConfig`, input widths, approach
kind, feature view); the weights restore it bitwise — the round-trip
contract of :meth:`repro.nn.module.Module.state_dict`. ``weights.npz``
preserves each parameter's dtype exactly (float32 under the default
precision policy, float64 for models built under
``default_dtype(np.float64)``); on load, arrays are cast to the dtype of
the freshly built skeleton's parameters, so a same-policy round-trip is
bitwise. All three approaches serialise through the same two files; the
hierarchical predictor's two stages share one archive via ``node.`` /
``graph.`` key prefixes.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.dataset.features import TARGET_NAMES
from repro.integrity import IntegrityError, digest_file, load_npz_verified
from repro.models.base import PredictorConfig
from repro.models.knowledge_infused import HierarchicalPredictor
from repro.models.knowledge_rich import KnowledgeRichPredictor
from repro.models.off_the_shelf import OffTheShelfPredictor
from repro.training.trainer import TrainConfig
from repro.version import __version__

#: Bump when the manifest layout or weight key scheme changes.
#: v2: relational layers batched their per-relation Linear stacks into
#: single RelationLinear parameters (``relation_linears.0.weight`` ->
#: ``relation_linear.weight``), and archives are float32 by default.
#: v3: the base feature encoding grew three directive columns
#: (unroll/pipeline/clock — see repro.dataset.features.DIRECTIVE_DIM),
#: so models published under v2 expect narrower request graphs than the
#: encoder now produces and must be retrained.
#: v4: manifests record ``weights_digest`` (sha256 of weights.npz) and
#: loads verify it, so silent corruption of a published artifact is
#: caught before the weights reach a server. Older schemas are refused.
SCHEMA_VERSION = 4

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.npz"

Predictor = OffTheShelfPredictor | KnowledgeRichPredictor | HierarchicalPredictor

_KINDS = {
    "off_the_shelf": OffTheShelfPredictor,
    "knowledge_rich": KnowledgeRichPredictor,
    "hierarchical": HierarchicalPredictor,
}


class ArtifactError(ValueError):
    """Raised on malformed, missing or incompatible artifacts."""


def predictor_kind(predictor: Predictor) -> str:
    """The manifest ``kind`` string for a predictor instance."""
    for kind, cls in _KINDS.items():
        if type(predictor) is cls:
            return kind
    raise ArtifactError(f"unsupported predictor type {type(predictor).__name__}")


def _config_to_dict(config: PredictorConfig) -> dict:
    return dataclasses.asdict(config)


def _config_from_dict(payload: dict) -> PredictorConfig:
    payload = dict(payload)
    train = payload.pop("train", None)
    config = PredictorConfig(**payload)
    if train is not None:
        config.train = TrainConfig(**train)
    return config


def build_manifest(predictor: Predictor, extras: dict | None = None) -> dict:
    """The JSON-serialisable description of a fitted predictor."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": predictor_kind(predictor),
        "feature_view": predictor.feature_view,
        "requires_hls": predictor.requires_hls,
        "config": _config_to_dict(predictor.config),
        "input_dims": predictor.input_dims,
        "target_names": list(TARGET_NAMES),
        "repro_version": __version__,
    }
    if isinstance(predictor, HierarchicalPredictor):
        manifest["node_model_name"] = predictor.node_model_name
        manifest["teacher_forcing"] = predictor.teacher_forcing
    if extras:
        manifest["extras"] = extras
    return manifest


def save_predictor(
    predictor: Predictor, path: str | Path, extras: dict | None = None
) -> Path:
    """Write a fitted predictor as a versioned artifact directory.

    ``extras`` (e.g. validation metrics, dataset provenance) is stored
    verbatim in the manifest and surfaced by the registry listing.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(predictor, extras=extras)
    state = predictor.state_dict()
    np.savez_compressed(path / WEIGHTS_NAME, **state)
    # Digest the bytes actually on disk, after the archive is written:
    # the manifest then seals the weights, and writing it last means a
    # crash mid-save leaves a directory read_manifest refuses.
    manifest["weights_digest"] = digest_file(path / WEIGHTS_NAME)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def read_manifest(path: str | Path) -> dict:
    """Load and schema-check an artifact's manifest."""
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ArtifactError(f"no {MANIFEST_NAME} in {path}")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported artifact schema {version!r} "
            f"(supported: {[SCHEMA_VERSION]})"
        )
    if manifest.get("kind") not in _KINDS:
        raise ArtifactError(f"unknown predictor kind {manifest.get('kind')!r}")
    return manifest


def load_predictor(path: str | Path) -> Predictor:
    """Rebuild a predictor from an artifact directory.

    The returned predictor produces bitwise-identical predictions to the
    instance that was saved (weights are restored exactly; the network
    skeleton is rebuilt from the manifest config and input widths). The
    weight archive's sha256 is checked against the manifest's
    ``weights_digest`` before any array is deserialised; a mismatch
    raises :class:`repro.integrity.DigestMismatch`; a manifest without a
    digest raises :class:`ArtifactError`.
    """
    path = Path(path)
    manifest = read_manifest(path)
    config = _config_from_dict(manifest["config"])
    kind = manifest["kind"]
    if kind == "hierarchical":
        predictor: Predictor = HierarchicalPredictor(
            config,
            node_model_name=manifest.get("node_model_name"),
            teacher_forcing=manifest.get("teacher_forcing", False),
        )
    else:
        predictor = _KINDS[kind](config)
    predictor.build({k: int(v) for k, v in manifest["input_dims"].items()})
    weights_path = path / WEIGHTS_NAME
    if not weights_path.is_file():
        raise ArtifactError(f"no {WEIGHTS_NAME} in {path}")
    expected = manifest.get("weights_digest")
    if expected is None:
        raise ArtifactError(f"manifest in {path} records no weights_digest")
    try:
        state = load_npz_verified(
            weights_path, expected=expected, label=f"artifact {path}"
        )
    except IntegrityError:
        raise
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"unreadable {WEIGHTS_NAME} in {path}: {exc}") from exc
    predictor.load_state_dict(state)
    return predictor
