"""Keyed swap-permutation of the feature bit string (revocable template).

A user-specific transformation key seeds a deterministic index stream; the
i-th stream value j_i selects the bit swapped with position i, for
i = 1..N in order. The composition is a bijection on N-bit strings, so a
leaked template is revoked by switching to a fresh key. The result is a
:class:`RevocableTemplate`, a feature bit string of the same length that
serializes the same way. Keys live only in memory: a session draws a fresh
one and stores none.

``permute`` moves only the template's set bits through the swaps that
touch them (``_track``), so a session key builds no arrangement and nothing
that holds its token is cached. ``invert`` gathers through the full
arrangement (``_arrangement``, an LRU cache).

The stream is a hash counter: index i is
SHA-256(token || i as 8 big-endian bytes) reduced mod N, which keeps the
permutation bit-exact across implementations and unbiased whenever N
divides 2**256 (true for all power-of-two N). For power-of-two N the
reduction mod N is exactly the low log2(N) bits of the digest, so the
swap targets are taken from each digest's last big-endian 32-bit word
instead of reducing the 256-bit integer.

SHA-256(token || BE64(i)) for i = 1..N is, byte for byte, the ANSI X9.63
key derivation function's output (X9.63 section 5.6.3; the hash-based
one-step KDF of NIST SP 800-56C has the same structure) with shared secret
Z = token || 0x00000000 and no SharedInfo: the KDF hashes Z || BE32(counter)
with the counter starting at 1, and Z's four zero bytes are the high half
of BE64(i). So every digest the stream needs comes from one
``ECDH_KDF_X9_62`` call into the OpenSSL that ``hashlib`` links. That call
derives at most 2**30 bytes (2**25 digests, far below the counter's 2**32
wrap). Above that cap, where the library or its KDF cannot be bound, or
when the call fails, the digests are computed one message at a time with
``hashlib.sha256``. SHA-256 is one function (FIPS 180-4) whichever code
computes it, so the choice changes speed only.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from . import _openssl
from .features import FeatureBitString

__all__ = [
    "TransformationKey",
    "RevocableTemplate",
    "TransformError",
    "index_stream",
    "permute",
    "invert",
]

DEFAULT_TOKEN_LEN = 16
# OpenSSL's output cap for one X9.63 KDF call, in bytes
_KDF_MAX_BYTES = 1 << 30


class TransformError(ValueError):
    """Invalid transformation key or template."""


@dataclass(frozen=True)
class TransformationKey:
    """Secret permutation seed; revoking a template means drawing a new one."""

    token: bytes

    def __post_init__(self):
        if not self.token:
            raise TransformError("empty transformation token")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "TransformationKey":
        return cls(rng.bytes(DEFAULT_TOKEN_LEN))


class RevocableTemplate(FeatureBitString):
    """Permuted feature bit string: same length, popcount and wire form as
    its source, and never equal to a plain :class:`FeatureBitString`."""

    __slots__ = ()


def _digests(token: bytes, count: int) -> ctypes.Array | bytes:
    """SHA-256(token || BE64(i)) for i = 1..count, concatenated in order.

    Returns one buffer of 32 * count bytes: the X9.63 KDF output when
    OpenSSL computes it, else the joined ``hashlib`` digests. A failed KDF
    call falls back too, so a zero-filled buffer is never returned.
    """
    size = 32 * count
    kdf = _openssl.sha256_kdf()
    if kdf is not None and size <= _KDF_MAX_BYTES:
        derive, sha256 = kdf
        out = ctypes.create_string_buffer(size)
        z = token + bytes(4)
        if derive(out, size, z, len(z), None, 0, sha256):
            return out
        _openssl.libcrypto().ERR_clear_error()
    return b"".join(
        [hashlib.sha256(token + i.to_bytes(8, "big")).digest() for i in range(1, count + 1)]
    )


def index_stream(key: TransformationKey, n: int, count: int) -> list[int]:
    """First ``count`` values of the keyed index stream over [1, n].

    The i-th value (1-based) is 1 + (SHA-256(token || BE64(i)) as a
    big-endian integer, mod n).
    """
    if n < 1:
        raise TransformError(f"stream range n={n} must be >= 1")
    if count < 1:
        raise TransformError(f"stream count={count} must be >= 1")
    digests = _digests(key.token, count)
    return [1 + int.from_bytes(digests[k:k + 32], "big") % n for k in range(0, 32 * count, 32)]


def _swap_targets(token: bytes, n: int) -> np.ndarray:
    """0-based swap target j_t of every walk step t = 0..n-1: ``index_stream``
    over [1, n] with n values, minus one.

    n must be a power of two, so that the digest's low bits are its value
    mod n, and at most 2**31, so that every index fits int32.
    """
    if n < 1 or n & (n - 1) or n > 1 << 31:
        raise TransformError(f"arrangement size {n} is not a power of two up to 2**31")
    # masking copies the last words, so the digest buffer goes on return
    return np.frombuffer(_digests(token, n), dtype=">u4")[7::8] & (n - 1)


@functools.lru_cache(maxsize=8)
def _arrangement(token: bytes, n: int) -> np.ndarray:
    """Read-only arrangement of the swap walk over ``_swap_targets``: entry p
    is the source index whose bit ends up at position p."""
    low = _swap_targets(token, n)
    # iterating a memoryview makes each index an int only while in use
    arr = list(range(n))
    for i, j in enumerate(memoryview(low)):
        arr[i], arr[j] = arr[j], arr[i]
    out = np.array(arr, dtype=np.int32)
    out.setflags(write=False)
    return out


def _track(bits: np.ndarray, token: bytes) -> np.ndarray:
    """``bits[_arrangement(token, len(bits))]``, found by moving only the set
    bits through the swap walk.

    A bit at position x, with steps 0..s-1 applied, next moves at the first
    step t >= s that touches x: its own step t = x, which sends it to j_x, or
    a step with j_t = x, which sends it to t. The keys j_t * n + t, sorted
    once, give the latter with one ``searchsorted`` for all bits per round; a
    bit with no step left has reached its final position.
    """
    n = len(bits)
    j = _swap_targets(token, n).astype(np.int64)
    # keys are unique, one per step; the sentinel n * n ends every search.
    # One array, sorted in place: two parties' derivations may run at once
    keys = np.empty(n + 1, dtype=np.int64)
    np.multiply(j, n, out=keys[:n])
    keys[:n] += np.arange(n)
    keys[:n].sort()
    keys[n] = n * n
    out = np.zeros(n, dtype=np.uint8)
    x = np.flatnonzero(bits)
    s = np.zeros_like(x)
    while x.size:
        base = x * n
        t = keys[np.searchsorted(keys, base + s)] - base
        t = np.where(x >= s, np.minimum(t, x), t)
        done = t >= n
        out[x[done]] = 1
        live = ~done
        x, t = x[live], t[live]
        x, s = np.where(t == x, j[t], t), t + 1
    return out


def permute(fbs: FeatureBitString, key: TransformationKey) -> RevocableTemplate:
    """Apply the keyed swap permutation; preserves length and popcount."""
    return RevocableTemplate(_track(fbs.bits, key.token), fbs.n_p)


def invert(template: RevocableTemplate, key: TransformationKey) -> FeatureBitString:
    """Undo ``permute`` under the same key.

    A mismatched key is undetectable here: it yields a valid but different
    bit string, never an error.
    """
    arr = _arrangement(key.token, len(template))
    bits = np.empty(len(template), dtype=np.uint8)
    bits[arr] = template.bits
    return FeatureBitString(bits, template.n_p)
