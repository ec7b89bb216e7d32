"""Content-addressed artifact store: in-memory LRU + on-disk JSON.

Every artifact is addressed by a deterministic content key
(:mod:`repro.fingerprint`): same inputs, same key, same artifact.  The
pipeline stores one artifact per submission, its verdict.  The store
has two tiers:

* **memory** — an LRU of Python values (verdict dicts, or the live
  images of the process-default image cache).  Serves repeat lookups
  within a process at dict-lookup cost.
* **disk** — one JSON file per verdict, for a store given a ``path``.
  Serves repeat submissions across processes.  Each file carries a
  checksum of its payload; a corrupt or tampered file is counted,
  deleted and treated as a miss, so the pipeline falls back to a clean
  recompute.

All operations are thread-safe (the serve executor fans submissions
over worker threads) and best-effort on the disk tier: an unwritable
directory degrades to memory-only, never an error.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

from ..fingerprint import blake2b_hex

#: On-disk artifact schema version; mismatching files are corrupt.
DISK_VERSION = 1

_MISSING = object()


@dataclass
class StoreStats:
    """Traffic counters, exported by ``sensmart serve`` stats."""

    hits: int = 0        # memory-tier hits
    misses: int = 0      # lookups satisfied by neither tier
    disk_hits: int = 0   # disk-tier hits (memory cold)
    evictions: int = 0   # memory-tier LRU evictions
    corrupt: int = 0     # disk files rejected (bad JSON/checksum/version)

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        if lookups == 0:
            return 0.0
        return (self.hits + self.disk_hits) / lookups

    def as_dict(self) -> dict:
        return {"hits": self.hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "evictions": self.evictions,
                "corrupt": self.corrupt,
                "hit_rate": round(self.hit_rate, 6)}


class ArtifactStore:
    """Two-tier content-addressed store keyed by fingerprint strings.

    A store with a ``path`` writes every value it is given to disk as
    well as to memory, so it holds JSON data only: the pipeline's
    verdicts.  A store without one (the process-default image cache)
    keeps live objects in memory only.
    """

    def __init__(self, path: Optional[str] = None,
                 max_memory: int = 1024):
        self.path = path
        self.max_memory = max_memory
        self.stats = StoreStats()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    # -- lookups ----------------------------------------------------------------

    def get(self, key: str):
        """The stored value for *key*, or None.

        Memory is consulted first; with a ``path`` a memory miss falls
        through to the disk tier (and a disk hit is promoted into
        memory).  Stored values are never None, so None is an
        unambiguous miss.
        """
        with self._lock:
            value = self._memory.get(key, _MISSING)
            if value is not _MISSING:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                return value
        if self.path is not None:
            payload = self._read_disk(key)
            if payload is not _MISSING:
                self.stats.disk_hits += 1
                self._put_memory(key, payload)
                return payload
        self.stats.misses += 1
        return None

    # -- inserts ----------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Store *value* in memory and, with a ``path``, on disk."""
        if value is None:
            raise ValueError("ArtifactStore cannot hold None values")
        self._put_memory(key, value)
        if self.path is not None:
            self._write_disk(key, value)

    def _put_memory(self, key: str, value: Any) -> None:
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
            self._memory[key] = value
            while len(self._memory) > self.max_memory:
                self._memory.popitem(last=False)
                self.stats.evictions += 1

    # -- disk tier --------------------------------------------------------------

    def _file_for(self, key: str) -> str:
        return os.path.join(self.path, f"{key}.json")

    def _read_disk(self, key: str):
        filename = self._file_for(key)
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                wrapper = json.load(handle)
            body = wrapper["payload"]
            good = (wrapper.get("version") == DISK_VERSION
                    and wrapper.get("key") == key
                    and wrapper.get("checksum") == self._checksum(body))
        except OSError:
            return _MISSING
        except (ValueError, TypeError, KeyError):
            good = False
        if not good:
            self.stats.corrupt += 1
            try:
                os.remove(filename)
            except OSError:
                pass
            return _MISSING
        return body

    def _write_disk(self, key: str, artifact: dict) -> None:
        wrapper = {"version": DISK_VERSION, "key": key,
                   "checksum": self._checksum(artifact),
                   "payload": artifact}
        filename = self._file_for(key)
        try:
            os.makedirs(self.path, exist_ok=True)
            tmp = f"{filename}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(wrapper, handle)
            os.replace(tmp, filename)
        except (OSError, TypeError, ValueError):
            pass  # best-effort: memory tier still serves this process

    @staticmethod
    def _checksum(body) -> str:
        canonical = json.dumps(body, sort_keys=True,
                               separators=(",", ":"))
        return blake2b_hex(canonical.encode("utf-8"), digest_size=8)
