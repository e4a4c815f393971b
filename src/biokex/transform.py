"""Keyed swap-permutation of the feature bit string (revocable template).

A user-specific transformation key seeds a deterministic index stream; the
i-th stream value j_i selects the bit swapped with position i, for
i = 1..N in order. The composition is a bijection on N-bit strings, so a
leaked template is revoked by switching to a fresh key. The stream is a
hash counter: index i is SHA-256(token || i as 8 big-endian bytes) reduced
mod N, which keeps the permutation bit-exact across implementations and
unbiased whenever N divides 2**256 (true for all power-of-two N). For
power-of-two N the reduction mod N is exactly the low log2(N) bits of the
digest, so the arrangement takes them from each digest's last big-endian
32-bit word instead of reducing the 256-bit integer.

The digests are computed in-process by CPython's built-in SHA-256 (``_sha2``
on 3.12+, ``_sha256`` before), falling back to ``hashlib.sha256`` where it is
absent. SHA-256 is one function (FIPS 180-4) whichever code computes it, so
the choice changes speed only: the arrangement hashes tens of thousands of
short messages, and the built-in's per-call cost is lower than that of
``hashlib``'s OpenSSL path.
"""

from __future__ import annotations

import functools
import secrets
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

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
_BLOCK = 4096


class TransformError(ValueError):
    """Invalid transformation key or template."""


@dataclass(frozen=True)
class TransformationKey:
    """Secret permutation seed plus a label identifying the key version."""

    token: bytes
    label: str = "default"

    def __post_init__(self):
        if not self.token:
            raise TransformError("empty transformation token")

    @classmethod
    def random(cls, rng: np.random.Generator | None = None, label: str = "default") -> "TransformationKey":
        token = rng.bytes(DEFAULT_TOKEN_LEN) if rng is not None else secrets.token_bytes(DEFAULT_TOKEN_LEN)
        return cls(token, label)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(f"{self.token.hex()}\n{self.label}\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "TransformationKey":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if len(lines) < 2:
            raise TransformError(f"{path}: expected hex token line and label line")
        try:
            token = bytes.fromhex(lines[0].strip())
        except ValueError:
            raise TransformError(f"{path}: bad hex token") from None
        return cls(token, lines[1].strip())


class RevocableTemplate:
    """Permuted feature bit string; same length and popcount as its source."""

    __slots__ = ("bits", "key_label")

    def __init__(self, bits: np.ndarray, key_label: str):
        bits = np.ascontiguousarray(bits, dtype=np.uint8)
        n = bits.shape[0]
        if bits.ndim != 1 or n == 0 or (n & (n - 1)) != 0:
            raise TransformError(f"template length {n} is not a power of two")
        bits.setflags(write=False)
        self.bits = bits
        self.key_label = key_label

    def __len__(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RevocableTemplate):
            return NotImplemented
        return self.key_label == other.key_label and bool(np.array_equal(self.bits, other.bits))

    def __repr__(self) -> str:
        return f"RevocableTemplate(n={len(self)}, popcount={self.popcount}, key_label={self.key_label!r})"

    @property
    def n_p(self) -> int:
        return int(len(self)).bit_length() - 1

    @property
    def popcount(self) -> int:
        return int(self.bits.sum())

    def serialize(self) -> bytes:
        """Same packed wire form as the source feature bit string."""
        return FeatureBitString(self.bits, self.n_p).serialize()


def _digest_blocks(token: bytes, count: int) -> Iterator[bytes]:
    """SHA-256(token || BE64(i)) for i = 1..count, in order.

    Yields the digests concatenated in blocks of at most ``_BLOCK``, so only
    one block's digest objects are alive at a time (this bounds peak memory).
    Each block's messages are the rows of one uint8 array, read out as bytes
    through a void view, which keeps trailing NUL bytes.
    """
    width = len(token) + 8
    prefix = np.frombuffer(token, dtype=np.uint8)
    for start in range(1, count + 1, _BLOCK):
        stop = min(start + _BLOCK, count + 1)
        msgs = np.empty((stop - start, width), dtype=np.uint8)
        msgs[:, :-8] = prefix
        msgs[:, -8:] = np.arange(start, stop, dtype=">u8").view(np.uint8).reshape(-1, 8)
        yield b"".join([_sha256(m).digest() for m in msgs.view(f"V{width}").ravel().tolist()])


def index_stream(key: TransformationKey, n: int, count: int) -> list[int]:
    """First ``count`` values of the keyed index stream over [1, n].

    The i-th value (1-based) is 1 + (SHA-256(token || BE64(i)) as a
    big-endian integer, mod n).
    """
    if n < 1:
        raise TransformError(f"stream range n={n} must be >= 1")
    if count < 1:
        raise TransformError(f"stream count={count} must be >= 1")
    return [
        1 + int.from_bytes(block[k:k + 32], "big") % n
        for block in _digest_blocks(key.token, count)
        for k in range(0, len(block), 32)
    ]


@functools.lru_cache(maxsize=8)
def _arrangement(token: bytes, n: int) -> np.ndarray:
    """Read-only arrangement for ``index_stream`` over [1, n] with n values.

    n must be a power of two, so that the digest's low bits are its value
    mod n, and at most 2**31, so that every index fits int32.
    """
    if n < 1 or n & (n - 1) or n > 1 << 31:
        raise TransformError(f"arrangement size {n} is not a power of two up to 2**31")
    # masking copies each block's last words, so no digest block outlives its
    # turn; dropping the array before the walk leaves its two lists as the peak
    low = np.concatenate(
        [np.frombuffer(block, dtype=">u4")[7::8] & (n - 1) for block in _digest_blocks(token, n)]
    )
    stream = low.tolist()
    del low
    # the swap walk of index_stream's 1-based values, with both positions 0-based:
    # entry p is the source index whose bit ends up at position p
    arr = list(range(n))
    for i, j in enumerate(stream):
        arr[i], arr[j] = arr[j], arr[i]
    out = np.array(arr, dtype=np.int32)
    out.setflags(write=False)
    return out


def permute(fbs: FeatureBitString, key: TransformationKey) -> RevocableTemplate:
    """Apply the keyed swap permutation; preserves length and popcount."""
    arr = _arrangement(key.token, len(fbs))
    return RevocableTemplate(fbs.bits[arr], key.label)


def invert(template: RevocableTemplate, key: TransformationKey) -> FeatureBitString:
    """Undo ``permute`` under the same key.

    A mismatched key is undetectable here: it yields a valid but different
    bit string, never an error.
    """
    arr = _arrangement(key.token, len(template))
    bits = np.empty(len(template), dtype=np.uint8)
    bits[arr] = template.bits
    return FeatureBitString(bits, template.n_p)
