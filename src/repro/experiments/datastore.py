"""Disk-backed result cache with checksummed, schema-versioned entries.

The paper's training data is >300,000 simulations; even at this
reproduction's scale the sweep, profiling and cross-validation results are
worth caching.  :class:`DataStore` is a tiny content-addressed pickle
store: results are keyed by a human-readable tag (hashed to a filename)
and recomputed only when missing.

Every entry is framed as::

    magic (4B) | schema version (2B LE) | sha256(payload) (32B) | payload

which makes three failure modes distinguishable instead of one
``AttributeError`` catch-all:

* **bad bytes** (truncation, bit rot, a fault-injected garbled write):
  the magic/length/digest check fails — the entry is deleted and treated
  as a miss, exactly like before;
* **stale schema** (a refactor changed what we pickle): the writer bumps
  :attr:`DataStore.SCHEMA_VERSION`, and every old entry is invalidated
  deterministically on first read — no guessing from unpickle errors;
* **stale code** (the pickle is intact and the version matches, but the
  classes it references no longer unpickle): raised as
  :class:`~repro.experiments.errors.StaleCodeError` instead of silently
  deleting provably-good data — that is a bug to fix (or a version to
  bump), not a cache miss.

Pickles are written atomically (temp file + rename) so an interrupted run
never leaves a torn cache entry.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from pathlib import Path
from typing import Callable, TypeVar

from repro import obs
from repro.experiments.errors import StaleCodeError

__all__ = ["DataStore"]

T = TypeVar("T")

_MAGIC = b"RPDS"
_VERSION_STRUCT = struct.Struct("<H")
_DIGEST_SIZE = hashlib.sha256().digest_size
_HEADER_SIZE = len(_MAGIC) + _VERSION_STRUCT.size + _DIGEST_SIZE


class DataStore:
    """Pickle cache under a directory (default ``.repro_cache/``)."""

    #: Bump whenever the *shape* of cached values changes (a pickled
    #: class moves, gains/loses fields, ...).  Entries written under any
    #: other version are deleted on first read and recomputed.
    SCHEMA_VERSION = 1

    def __init__(
        self,
        directory: str | Path | None = None,
        schema_version: int | None = None,
    ) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.schema_version = (self.SCHEMA_VERSION if schema_version is None
                               else schema_version)
        self.hits = 0
        self.misses = 0
        self.corruptions = 0  # bad bytes: failed magic/length/digest
        self.invalidations = 0  # valid bytes from another schema version

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.directory / f"{digest}.pkl"

    def versioned_key(self, *parts: object) -> str:
        """The blessed cache-key builder: ``s<version>/<part>/<part>/...``.

        Keys built through this helper embed :attr:`schema_version`, so
        a schema bump makes every old key unreachable *by construction*
        (in addition to the frame-level invalidation on read).
        ``tests/test_experiments_pipeline.py::TestTrainingKeys`` checks
        that every key a pipeline run writes through :meth:`put` /
        :meth:`get_or_compute` comes from here.
        """
        return "/".join(str(part) for part in
                        (f"s{self.schema_version}", *parts))

    # -- entry framing ---------------------------------------------------------

    def _frame(self, payload: bytes) -> bytes:
        return (_MAGIC + _VERSION_STRUCT.pack(self.schema_version)
                + hashlib.sha256(payload).digest() + payload)

    def _check_frame(self, raw: bytes) -> tuple[bytes | None, str]:
        """Validate an entry's framing.

        Returns ``(payload, "")`` when the entry is intact and current,
        or ``(None, reason)`` where ``reason`` is ``"corrupt"`` (bad
        bytes) or ``"stale-version"`` (intact bytes, older schema).
        """
        if len(raw) < _HEADER_SIZE or raw[:len(_MAGIC)] != _MAGIC:
            return None, "corrupt"
        offset = len(_MAGIC)
        (version,) = _VERSION_STRUCT.unpack_from(raw, offset)
        offset += _VERSION_STRUCT.size
        digest = raw[offset:offset + _DIGEST_SIZE]
        payload = raw[offset + _DIGEST_SIZE:]
        if hashlib.sha256(payload).digest() != digest:
            return None, "corrupt"
        if version != self.schema_version:
            return None, "stale-version"
        return payload, ""

    def _discard(self, path: Path, reason: str, key_hint: str) -> KeyError:
        path.unlink(missing_ok=True)
        if reason == "stale-version":
            self.invalidations += 1
            obs.inc("datastore.stale")
        else:
            self.corruptions += 1
            obs.inc("datastore.corrupt")
        return KeyError(f"{reason} cache entry {key_hint}")

    def contains(self, key: str, verify: bool = True) -> bool:
        """Whether ``key`` has a *usable* cached value.

        With ``verify`` (the default) the entry's magic, schema version
        and SHA-256 digest are checked, so a corrupt or stale entry
        reads as absent — callers planning work from ``contains`` (the
        prefetch fan-out) schedule a recompute instead of tripping over
        the entry later.  ``verify=False`` is a plain existence test.
        """
        path = self._path(key)
        if not path.exists():
            return False
        if not verify:
            return True
        try:
            payload, _ = self._check_frame(path.read_bytes())
        except OSError:
            return False
        return payload is not None

    def _load(self, path: Path) -> object:
        """Unpickle a verified entry.

        Raises:
            KeyError: the entry is corrupt or written under another
                schema version; it is deleted (a miss).
            StaleCodeError: the bytes are provably intact but no longer
                unpickle — code drifted without a schema bump.  The
                entry is *kept* as evidence.
        """
        raw = path.read_bytes()
        payload, reason = self._check_frame(raw)
        if payload is None:
            raise self._discard(path, reason, path.name)
        try:
            return pickle.loads(payload)
        except Exception as error:
            raise StaleCodeError(
                f"cache entry {path.name} is checksum-valid (schema "
                f"v{self.schema_version}) but failed to unpickle: {error!r}. "
                "Code drifted without a DataStore.SCHEMA_VERSION bump; "
                "bump it (or clear the cache) to invalidate old entries."
            ) from error

    def get(self, key: str) -> object:
        """Load a cached value.

        Raises:
            KeyError: if the key has no cached value (a corrupt or
                stale-version entry counts as absent and is deleted).
        """
        path = self._path(key)
        if not path.exists():
            raise KeyError(key)
        return self._load(path)

    def put(self, key: str, value: object) -> None:
        """Store ``value`` under ``key`` (atomic replace)."""
        path = self._path(key)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        fd, temp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self._frame(payload))
            os.replace(temp_name, path)
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise
        if os.environ.get("REPRO_FAULTS"):  # fault-injection hook (tests/CI)
            from repro.testing.faults import inject

            if "corrupt" in inject("store-write", key):
                garbled = bytearray(path.read_bytes())
                position = len(garbled) // 2
                garbled[position] ^= 0xFF
                path.write_bytes(bytes(garbled))

    def delete(self, key: str) -> bool:
        """Remove ``key``'s entry if present; returns whether it was."""
        path = self._path(key)
        existed = path.exists()
        path.unlink(missing_ok=True)
        return existed

    def get_or_compute(self, key: str, compute: Callable[[], T]) -> T:
        """Return the cached value for ``key``, computing and storing it
        on first use.  A corrupt or stale-version entry is deleted and
        recomputed."""
        path = self._path(key)
        if path.exists():
            try:
                value = self._load(path)
            except KeyError:
                pass  # corrupt/stale: fall through to recompute and re-store
            else:
                self.hits += 1
                obs.inc("datastore.hit")
                return value
        self.misses += 1
        obs.inc("datastore.miss")
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            path.unlink()
            removed += 1
        return removed
