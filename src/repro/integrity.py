"""End-to-end artifact integrity: content digests, verified loads.

Every durable artifact the system produces — training checkpoints
(:mod:`repro.training.checkpoint`), serve artifacts (``weights.npz`` +
``manifest.json``), dataset shards (``shard-*.npz``) — records a content
digest at write time and verifies it on every load, so silent disk or
transfer corruption surfaces as a typed :class:`IntegrityError` at the
boundary instead of NaNs (or worse, plausible-but-wrong predictions)
deep inside a run.

Digests are self-describing ``"sha256:<hex>"`` strings over the exact
bytes on disk. Loads route through :func:`read_bytes`, which passes the
raw bytes through the ``io.read`` fault seam (:mod:`repro.faults`):
chaos tests flip a deterministic byte with ``FaultSpec(seam="io.read",
corrupt=True, ...)`` and assert the digest check catches it, without
touching the real file.

Failure taxonomy:

- :class:`DigestMismatch` — the bytes hash differently than the
  recorded digest (bit flips, truncation, partial writes);
- :class:`IntegrityError` (base) — also raised directly when an archive
  whose bytes match their digest still fails to parse (it was torn
  before it was hashed).

Callers decide the recovery policy: the checkpoint resolver skips-and-
warns back to an older snapshot, the model registry refuses the
artifact outright, and the serving tier's hot reload keeps workers on
their current model instead of swapping in a corrupt candidate.
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from pathlib import Path

import numpy as np

from repro.faults import fault_data

__all__ = [
    "DigestMismatch",
    "IntegrityError",
    "digest_bytes",
    "digest_file",
    "load_npz_verified",
    "read_bytes",
    "verify_bytes",
]

#: Fault seam every verified read passes its bytes through.
READ_SEAM = "io.read"


class IntegrityError(ValueError):
    """An artifact failed its integrity check on load."""


class DigestMismatch(IntegrityError):
    """Bytes on disk hash differently than the recorded content digest."""


def digest_bytes(data: bytes) -> str:
    """Self-describing content digest of ``data``."""
    return "sha256:" + hashlib.sha256(data).hexdigest()


def digest_file(path: str | Path) -> str:
    """Digest of a file's exact on-disk bytes (no fault seam: this is
    the write-side hash that gets recorded)."""
    return digest_bytes(Path(path).read_bytes())


def read_bytes(path: str | Path, key: str | None = None) -> bytes:
    """Read a file through the ``io.read`` fault seam.

    ``key`` (default: the file name) scopes fault specs to individual
    artifacts; a ``corrupt=True`` spec flips a seeded byte in the
    returned buffer, a plain spec raises — both without modifying disk.
    """
    path = Path(path)
    data = path.read_bytes()
    return fault_data(READ_SEAM, key if key is not None else path.name, data)


def verify_bytes(data: bytes, expected: str, label: str) -> None:
    """Raise :class:`DigestMismatch` unless ``data`` hashes to ``expected``."""
    actual = digest_bytes(data)
    if actual != expected:
        raise DigestMismatch(
            f"{label}: content digest mismatch (expected {expected}, "
            f"got {actual}) — artifact is corrupt or was tampered with"
        )


def load_npz_verified(
    path: str | Path,
    expected: str,
    label: str | None = None,
    key: str | None = None,
) -> dict[str, np.ndarray]:
    """Load an ``.npz`` archive with digest verification.

    Bytes come through :func:`read_bytes` (the fault seam), are checked
    against the recorded ``expected`` digest, and only then parsed. A
    parse failure after a matching digest still raises
    :class:`IntegrityError`, so torn files never escape as cryptic
    ``zipfile`` errors.
    """
    path = Path(path)
    label = label or str(path)
    data = read_bytes(path, key=key)
    verify_bytes(data, expected, label)
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    except (ValueError, OSError, KeyError, zipfile.BadZipFile) as exc:
        raise IntegrityError(f"{label}: unreadable archive: {exc}") from exc
