"""Sharded on-disk dataset layout and lazy readers.

Layout of a sharded dataset rooted at ``<root>/``::

    <root>/manifest.json     # schema version, build provenance, shard table
    <root>/shard-00000.npz   # packed columnar archive (pack_samples)
    <root>/shard-00001.npz
    ...

The manifest is rewritten (atomically, tmp + rename) after every shard
the builder completes, with ``complete: false`` until the final shard
lands — a killed build leaves a valid prefix that
:func:`repro.dataset.pipeline.build_pipeline` resumes from by skipping
every shard already on disk.

Readers are lazy: :class:`ShardedDataset` decodes shards on demand and
keeps decoded shards in an LRU bounded by their array bytes
(``cache_bytes``, default :data:`DEFAULT_CACHE_BYTES`). A dataset that
fits the budget is decoded once per reader however its batches are
shuffled; a larger one streams through it, and the cache never holds
more than the budget or, when one shard exceeds it, that single shard.
:class:`DatasetView` is an index-selected view over any such source
(what :func:`repro.dataset.splits.split_dataset` returns for streaming
inputs), preserving laziness through train/val/test splitting.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.graph.data import GraphData
from repro.integrity import IntegrityError, digest_file, load_npz_verified

#: Bump on any incompatible change to the manifest/shard layout. Schema 2
#: made every shard entry carry its content digest.
SHARD_SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"

#: Default budget of a reader's decoded-shard cache, in array bytes.
DEFAULT_CACHE_BYTES = 256 * 2**20


def pack_samples(samples: Sequence[GraphData]) -> dict[str, np.ndarray]:
    """Columnar payload of one shard archive for a sample list."""
    samples = list(samples)
    if not samples:
        raise ValueError(
            "cannot serialise an empty sample list; datasets must contain "
            "at least one graph"
        )
    node_ptr = np.cumsum([0] + [s.num_nodes for s in samples])
    edge_ptr = np.cumsum([0] + [s.num_edges for s in samples])
    return {
        "node_ptr": node_ptr,
        "edge_ptr": edge_ptr,
        "node_features": np.concatenate([s.node_features for s in samples], axis=0),
        "edge_index": np.concatenate([s.edge_index for s in samples], axis=1),
        "edge_type": np.concatenate([s.edge_type for s in samples]),
        "edge_back": np.concatenate([s.edge_back for s in samples]),
        "y": np.stack([s.y for s in samples]),
        "node_labels": np.concatenate([s.node_labels for s in samples], axis=0),
        "node_resources": np.concatenate([s.node_resources for s in samples], axis=0),
        "meta_json": np.frombuffer(
            json.dumps([s.meta for s in samples]).encode(), dtype=np.uint8
        ),
    }


def unpack_samples(payload: Mapping[str, np.ndarray]) -> list[GraphData]:
    """Inverse of :func:`pack_samples`.

    ``payload`` may be a live ``np.load`` archive: every key is read
    exactly once up front (``NpzFile`` decompresses per access, so
    indexing inside the per-sample loop would decompress each column
    once per sample).
    """
    node_ptr = np.asarray(payload["node_ptr"])
    edge_ptr = np.asarray(payload["edge_ptr"])
    node_features = np.asarray(payload["node_features"])
    edge_index = np.asarray(payload["edge_index"])
    edge_type = np.asarray(payload["edge_type"])
    edge_back = np.asarray(payload["edge_back"])
    y = np.asarray(payload["y"])
    node_labels = np.asarray(payload["node_labels"])
    node_resources = np.asarray(payload["node_resources"])
    metas = json.loads(bytes(np.asarray(payload["meta_json"])).decode())
    samples = []
    for k in range(len(node_ptr) - 1):
        n0, n1 = int(node_ptr[k]), int(node_ptr[k + 1])
        e0, e1 = int(edge_ptr[k]), int(edge_ptr[k + 1])
        samples.append(
            GraphData(
                node_features=node_features[n0:n1],
                edge_index=edge_index[:, e0:e1],
                edge_type=edge_type[e0:e1],
                edge_back=edge_back[e0:e1],
                y=y[k],
                node_labels=node_labels[n0:n1],
                node_resources=node_resources[n0:n1],
                meta=metas[k],
            )
        )
    return samples


def shard_filename(index: int) -> str:
    return f"shard-{index:05d}.npz"


@dataclass
class ShardInfo:
    """One shard's entry in the manifest."""

    file: str
    start: int  # global index of the shard's first sample
    num_samples: int
    #: Content digest of the shard file (``"sha256:<hex>"``), verified on
    #: every read.
    digest: str


@dataclass
class Manifest:
    """Self-describing header of a sharded dataset."""

    schema_version: int = SHARD_SCHEMA_VERSION
    complete: bool = False
    num_samples: int = 0
    shard_size: int = 0
    encoder_schema: str = ""
    #: Free-form build provenance (mode, count, seed, device, ...) used
    #: by resumable builds to refuse mixing incompatible configurations.
    build: dict = field(default_factory=dict)
    #: Quarantined samples: ``{"index", "error", "retries"}`` per sample
    #: that kept failing after the pipeline's retries. Their indices are
    #: *build* indices (the deterministic (config, seed, index) space);
    #: the dataset itself stays dense — shards skip quarantined samples
    #: and ``num_samples`` still counts the planned build, so a complete
    #: manifest satisfies ``covered + len(failed) == num_samples``.
    failed: list[dict] = field(default_factory=list)
    shards: list[ShardInfo] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        raw = json.loads(text)
        version = raw.get("schema_version")
        if version != SHARD_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported shard schema {version!r} "
                f"(supported: {SHARD_SCHEMA_VERSION}); rebuild the dataset "
                "with `python -m repro.dataset build`"
            )
        shards = []
        for entry in raw.pop("shards", []):
            if not entry.get("digest"):
                raise ValueError(
                    f"shard {entry.get('file')!r} has no content digest in "
                    "the manifest; rebuild the dataset with "
                    "`python -m repro.dataset build`"
                )
            shards.append(ShardInfo(**entry))
        return cls(**{**raw, "shards": shards})

    def save(self, root: str | Path) -> Path:
        """Atomic write (tmp + rename) so a crash mid-write can never
        leave a torn manifest behind."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        path = root / MANIFEST_NAME
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(self.to_json())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, root: str | Path) -> "Manifest":
        root = Path(root)
        path = root if root.name == MANIFEST_NAME else root / MANIFEST_NAME
        return cls.from_json(path.read_text())


def write_shard(
    root: str | Path, index: int, start: int, samples: Sequence[GraphData]
) -> ShardInfo:
    """Persist one shard atomically and return its manifest entry."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    name = shard_filename(index)
    payload = pack_samples(samples)
    tmp = root / (name + ".tmp")
    with open(tmp, "wb") as handle:
        np.savez_compressed(handle, **payload)
    # Hash before the rename: the digest lands in the manifest entry, so
    # the (shard, manifest) pair is sealed together.
    digest = digest_file(tmp)
    os.replace(tmp, root / name)
    return ShardInfo(
        file=name, start=start, num_samples=len(samples), digest=digest
    )


def read_shard(root: str | Path, info: ShardInfo) -> list[GraphData]:
    """Decode one shard, digest-verified against its manifest entry.

    Bytes pass through the ``io.read`` fault seam keyed by the shard
    file name; corruption (real or injected) raises
    :class:`repro.integrity.DigestMismatch` instead of yielding
    plausible-but-wrong samples.
    """
    arrays = load_npz_verified(
        Path(root) / info.file,
        expected=info.digest,
        label=f"shard {info.file}",
        key=info.file,
    )
    samples = unpack_samples(arrays)
    if len(samples) != info.num_samples:
        raise IntegrityError(
            f"shard {info.file} holds {len(samples)} samples, manifest "
            f"says {info.num_samples}"
        )
    return samples


def decoded_nbytes(samples: Sequence[GraphData]) -> int:
    """Array bytes held by decoded samples: the shard cache's unit."""
    return sum(
        value.nbytes
        for sample in samples
        for value in vars(sample).values()
        if isinstance(value, np.ndarray)
    )


class ShardedDataset(Sequence[GraphData]):
    """Lazy random-access reader over a sharded dataset.

    Implements the :class:`~typing.Sequence` protocol, so it drops in
    wherever a sample list is expected (splitting, batching, training);
    the ``streaming`` marker tells the trainer to rebuild batches lazily
    per epoch instead of materialising everything up front.

    Decoded shards stay in an LRU until their summed array bytes
    (:func:`decoded_nbytes`) exceed ``cache_bytes``; the most recently
    decoded shard is always kept, so a budget smaller than one shard
    still holds exactly one. Views over the reader
    (:class:`DatasetView`, :class:`ConcatDataset`) share its cache.
    """

    #: Consumers (trainer, splits) key memory behaviour off this flag.
    streaming = True

    def __init__(
        self,
        root: str | Path,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        require_complete: bool = True,
    ):
        root = Path(root)
        if root.name == MANIFEST_NAME:
            root = root.parent
        self.root = root
        self.manifest = Manifest.load(root)
        if require_complete and not self.manifest.complete:
            raise ValueError(
                f"sharded dataset at {root} is incomplete (interrupted "
                "build?); finish it with build_pipeline(..., resume=True) "
                "or pass require_complete=False"
            )
        if cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0")
        self.cache_bytes = cache_bytes
        #: shard index -> (decoded samples, their decoded_nbytes)
        self._cache: OrderedDict[int, tuple[list[GraphData], int]] = OrderedDict()
        self._cached_nbytes = 0
        self._starts = np.array(
            [info.start for info in self.manifest.shards], dtype=np.int64
        )
        covered = sum(info.num_samples for info in self.manifest.shards)
        self._length = covered
        expected = self.manifest.num_samples - len(self.manifest.failed)
        if self.manifest.complete and covered != expected:
            raise ValueError(
                f"manifest covers {covered} samples but declares "
                f"{self.manifest.num_samples} with {len(self.manifest.failed)} "
                "quarantined"
            )

    def __len__(self) -> int:
        return self._length

    def _shard(self, shard_index: int) -> list[GraphData]:
        cached = self._cache.get(shard_index)
        if cached is not None:
            self._cache.move_to_end(shard_index)
            return cached[0]
        samples = read_shard(self.root, self.manifest.shards[shard_index])
        nbytes = decoded_nbytes(samples)
        self._cache[shard_index] = (samples, nbytes)
        self._cached_nbytes += nbytes
        while self._cached_nbytes > self.cache_bytes and len(self._cache) > 1:
            _, (_, evicted) = self._cache.popitem(last=False)
            self._cached_nbytes -= evicted
        return samples

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        index = int(index)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range for {self._length} samples")
        shard_index = int(np.searchsorted(self._starts, index, side="right")) - 1
        info = self.manifest.shards[shard_index]
        return self._shard(shard_index)[index - info.start]

    def gather(self, indices) -> list[GraphData]:
        """Samples at ``indices`` (original order), grouped by shard.

        A shuffled batch scatters across shards; grouping touches each
        distinct shard once per call, so even a cache that holds a
        single shard decodes each shard at most once per batch.
        :class:`~repro.training.trainer.BatchStream` routes streaming
        batch construction through here.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self._length):
            raise IndexError(f"gather indices out of range for {self._length} samples")
        shard_of = np.searchsorted(self._starts, indices, side="right") - 1
        out: list[GraphData | None] = [None] * len(indices)
        for position in np.argsort(shard_of, kind="stable"):
            shard_index = int(shard_of[position])
            samples = self._shard(shard_index)
            offset = self.manifest.shards[shard_index].start
            out[int(position)] = samples[int(indices[position]) - offset]
        return out

    def __iter__(self) -> Iterator[GraphData]:
        # Shard-sequential iteration: one decode per shard regardless of
        # the cache budget.
        for shard_index in range(len(self.manifest.shards)):
            yield from self._shard(shard_index)

    def iter_shards(self) -> Iterator[list[GraphData]]:
        for shard_index in range(len(self.manifest.shards)):
            yield self._shard(shard_index)

    def __repr__(self) -> str:
        return (
            f"ShardedDataset(root={str(self.root)!r}, samples={self._length}, "
            f"shards={len(self.manifest.shards)})"
        )


class DatasetView(Sequence[GraphData]):
    """Index-selected view over a sample sequence, itself lazy.

    Splitting a :class:`ShardedDataset` yields these instead of
    materialised lists so train/val/test partitions keep streaming.
    """

    streaming = True

    def __init__(self, base: Sequence[GraphData], indices):
        self.base = base
        self.indices = np.asarray(indices, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DatasetView(self.base, self.indices[index])
        return self.base[int(self.indices[int(index)])]

    def gather(self, indices) -> list[GraphData]:
        base_indices = self.indices[np.asarray(indices, dtype=np.int64)]
        gather = getattr(self.base, "gather", None)
        if gather is not None:
            return gather(base_indices)
        return [self.base[int(i)] for i in base_indices]

    def __repr__(self) -> str:
        return f"DatasetView(samples={len(self.indices)}, base={self.base!r})"


class ConcatDataset(Sequence[GraphData]):
    """Concatenation view over several sample sequences.

    ``Sequence`` readers do not support ``+``; this keeps concatenation
    (e.g. the joint DFG+CDFG training set of Table 5) lazy instead of
    materialising both sides. Streaming propagates: the view streams iff
    any part does, so plain-list concatenations still split into lists.
    """

    def __init__(self, *parts: Sequence[GraphData]):
        if not parts:
            raise ValueError("need at least one dataset to concatenate")
        self.parts = list(parts)
        self._offsets = np.cumsum([0] + [len(p) for p in self.parts])
        self.streaming = any(getattr(p, "streaming", False) for p in self.parts)

    def __len__(self) -> int:
        return int(self._offsets[-1])

    def _locate(self, index: int) -> tuple[int, int]:
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} out of range for {len(self)} samples")
        part = int(np.searchsorted(self._offsets, index, side="right")) - 1
        return part, index - int(self._offsets[part])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        part, local = self._locate(index)
        return self.parts[part][local]

    def __iter__(self) -> Iterator[GraphData]:
        for part in self.parts:
            yield from part

    def gather(self, indices) -> list[GraphData]:
        located = [self._locate(int(i)) for i in indices]
        out: list[GraphData | None] = [None] * len(located)
        for part_index, part in enumerate(self.parts):
            wanted = [
                (position, local)
                for position, (p, local) in enumerate(located)
                if p == part_index
            ]
            if not wanted:
                continue
            gather = getattr(part, "gather", None)
            if gather is not None:
                samples = gather([local for _, local in wanted])
            else:
                samples = [part[local] for _, local in wanted]
            for (position, _), sample in zip(wanted, samples):
                out[position] = sample
        return out

    def __repr__(self) -> str:
        return f"ConcatDataset(parts={len(self.parts)}, samples={len(self)})"

