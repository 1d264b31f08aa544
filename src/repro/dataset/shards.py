"""Sharded on-disk dataset layout and lazy readers.

Layout of a sharded dataset rooted at ``<root>/``::

    <root>/manifest.json     # schema version, build provenance, shard table
    <root>/shard-00000.npz   # packed columnar archive (repro.dataset.io)
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
from typing import Iterator, Sequence

import numpy as np

from repro.dataset.io import pack_samples, unpack_samples
from repro.graph.data import GraphData
from repro.integrity import IntegrityError, digest_file, load_npz_verified

#: Bump on any incompatible change to the manifest/shard layout.
SHARD_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Default budget of a reader's decoded-shard cache, in array bytes.
DEFAULT_CACHE_BYTES = 256 * 2**20


def shard_filename(index: int) -> str:
    return f"shard-{index:05d}.npz"


@dataclass
class ShardInfo:
    """One shard's entry in the manifest."""

    file: str
    start: int  # global index of the shard's first sample
    num_samples: int
    #: Content digest of the shard file (``"sha256:<hex>"``), verified on
    #: every read. Empty for shards written before digests existed —
    #: those load unverified (schema unchanged, so old manifests parse).
    digest: str = ""


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
                f"(supported: {SHARD_SCHEMA_VERSION})"
            )
        shards = [ShardInfo(**entry) for entry in raw.pop("shards", [])]
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


def is_sharded(path: str | Path) -> bool:
    """True when ``path`` is a sharded dataset root (or its manifest)."""
    path = Path(path)
    if path.name == MANIFEST_NAME:
        return path.exists()
    return path.is_dir() and (path / MANIFEST_NAME).exists()


def write_shard(
    root: str | Path, index: int, start: int, samples: Sequence[GraphData]
) -> ShardInfo:
    """Persist one shard atomically and return its manifest entry."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    name = shard_filename(index)
    tmp = root / (name + ".tmp")
    with open(tmp, "wb") as handle:
        np.savez_compressed(handle, **pack_samples(samples))
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
    plausible-but-wrong samples. Legacy entries without a digest load
    unverified.
    """
    arrays = load_npz_verified(
        Path(root) / info.file,
        expected=info.digest or None,
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

    def materialize(self) -> list[GraphData]:
        """Decode everything into one in-memory list (legacy behaviour)."""
        return list(self)

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


def migrate_dataset(
    src: str | Path, out_dir: str | Path, shard_size: int = 256
) -> "ShardedDataset":
    """Convert a legacy single-``.npz`` archive to a sharded manifest."""
    from repro.dataset.features import FeatureEncoder
    from repro.dataset.io import load_dataset

    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    samples = load_dataset(src)
    manifest = Manifest(
        complete=False,
        num_samples=len(samples),
        shard_size=shard_size,
        encoder_schema=FeatureEncoder().schema_key(),
        build={"source": "migrate", "origin": str(src)},
    )
    out_dir = Path(out_dir)
    for shard_index, start in enumerate(range(0, len(samples), shard_size)):
        chunk = samples[start : start + shard_size]
        manifest.shards.append(write_shard(out_dir, shard_index, start, chunk))
        manifest.save(out_dir)
    manifest.complete = True
    manifest.save(out_dir)
    return ShardedDataset(out_dir)
