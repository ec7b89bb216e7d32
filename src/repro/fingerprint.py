"""Content fingerprints: the one blake2b helper for every cache key.

Two subsystems key caches by content — the flash image fingerprint
behind the cross-CPU :class:`~repro.avr.cpu.SuperblockCache`, and the
build pipeline's per-stage artifact keys.  They both hash here, so a key
is stable across refactors exactly when this module is stable (the
pinned digests in ``tests/test_fingerprint.py`` enforce that), and a
deliberate format change is one :data:`KEY_VERSION` bump away from
invalidating every store at once.

Two entry points:

* :func:`blake2b_hex` — hash raw bytes (the flash image payload).
* :func:`content_key` — hash structured Python data (tuples of sources,
  option mappings, stage names).  Values are serialized with an
  unambiguous type-tagged, length-prefixed encoding, so ``("ab",)`` and
  ``("a", "b")`` cannot collide and dict key order never matters.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

#: Bump to invalidate every content-keyed store after an encoding or
#: semantics change.  Mixed into :func:`content_key`, not
#: :func:`blake2b_hex` (raw-bytes hashes carry their own meaning).
KEY_VERSION = 1

#: Default digest size, hex-encoded to 32 characters — short enough for
#: filenames, long enough that collisions are never a practical concern.
DIGEST_SIZE = 16


def blake2b_hex(payload: bytes, digest_size: int = DIGEST_SIZE) -> str:
    """Hex blake2b digest of raw *payload* bytes."""
    return hashlib.blake2b(payload, digest_size=digest_size).hexdigest()


def _encode(value) -> Iterator[bytes]:
    """Type-tagged canonical encoding of *value* (generator of chunks).

    Supported: None, bool, int, float, str, bytes/bytearray, and
    list/tuple/dict/set compositions thereof.  Every atom is prefixed
    with a one-byte tag and its length, every container with its item
    count, so distinct structures always produce distinct byte streams.
    """
    if value is None:
        yield b"N"
    elif value is True:
        yield b"T"
    elif value is False:
        yield b"F"
    elif isinstance(value, int):
        body = str(value).encode()
        yield b"i%d:" % len(body)
        yield body
    elif isinstance(value, float):
        body = repr(value).encode()
        yield b"f%d:" % len(body)
        yield body
    elif isinstance(value, str):
        body = value.encode("utf-8")
        yield b"s%d:" % len(body)
        yield body
    elif isinstance(value, (bytes, bytearray)):
        yield b"b%d:" % len(value)
        yield bytes(value)
    elif isinstance(value, (list, tuple)):
        yield b"l%d:" % len(value)
        for item in value:
            yield from _encode(item)
    elif isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        yield b"d%d:" % len(items)
        for key, item in items:
            yield from _encode(key)
            yield from _encode(item)
    elif isinstance(value, (set, frozenset)):
        encoded = sorted(b"".join(_encode(item)) for item in value)
        yield b"e%d:" % len(encoded)
        for chunk in encoded:
            yield chunk
    else:
        raise TypeError(
            f"content_key cannot canonicalize {type(value).__name__!r}")


def content_key(*parts, digest_size: int = DIGEST_SIZE) -> str:
    """Hex blake2b digest of the canonical encoding of *parts*."""
    digest = hashlib.blake2b(digest_size=digest_size)
    digest.update(b"v%d;" % KEY_VERSION)
    for part in parts:
        for chunk in _encode(part):
            digest.update(chunk)
    return digest.hexdigest()
