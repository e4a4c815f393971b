"""Pair-minutiae feature extraction: invariant triplets, quantization, binning.

Every unordered minutiae pair (i, j), i < j, yields a triplet
(L, alpha, beta): segment length, segment direction relative to the first
minutia's orientation, and the same direction adjusted by the orientation
difference. The triplets are invariant to global translation and rotation
of the impression. Each field v quantizes to min(floor(v / width), bins - 1),
with L over [0, l_max) and the angles over [0, 360); the fields concatenate,
most-significant-field first, into an n_p-bit code, and the codes index a
2**n_p-long bit string: a bin is 1 iff at least one pair lands in it.

:func:`extract_features` is the one extraction path, over all pairs at once.
It bins L from ``sqrt(x*x + y*y)`` and falls back to ``hypot`` wherever that
could move a bin, so its bits equal those of ``hypot``; alpha and beta are
computed exactly as :func:`pair_triplet`, the scalar math for one pair,
orders them.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .minutiae import MinutiaeSet

__all__ = [
    "QuantizationConfig",
    "FeatureBitString",
    "FeatureError",
    "DegeneratePairError",
    "pair_triplet",
    "extract_features",
]


class FeatureError(ValueError):
    """Feature extraction failure."""


class DegeneratePairError(FeatureError):
    """Coincident minutiae positions; the pair direction is undefined."""


@dataclass(frozen=True)
class QuantizationConfig:
    """Bit budget per triplet field and the distance range to quantize over.

    n_p = n_l + n_alpha + n_beta is the code width; the feature string has
    2**n_p bins, so n_p is capped at 24 to keep it allocatable. l_max, a
    positive finite length, defaults to 540, covering the diagonal of a
    388x374 image; distances at or beyond l_max clamp into the top bin.
    """

    n_l: int = 5
    n_alpha: int = 5
    n_beta: int = 5
    l_max: float = 540.0

    def __post_init__(self):
        if min(self.n_l, self.n_alpha, self.n_beta) < 1:
            raise FeatureError("each field needs at least one bit")
        if self.n_p > 24:
            raise FeatureError(f"n_p={self.n_p} too large; 2**n_p must stay allocatable")
        if not (math.isfinite(self.l_max) and self.l_max > 0):
            raise FeatureError(f"l_max must be positive and finite, got {self.l_max}")

    @property
    def n_p(self) -> int:
        return self.n_l + self.n_alpha + self.n_beta

    @classmethod
    def for_np(cls, n_p: int, l_max: float = 540.0) -> "QuantizationConfig":
        """Split n_p across the three fields as evenly as possible (L gets the remainder)."""
        base = n_p // 3
        return cls(n_l=n_p - 2 * base, n_alpha=base, n_beta=base, l_max=l_max)


class FeatureBitString:
    """Fixed-length binned template: bit b is 1 iff some pair quantized to code b."""

    __slots__ = ("bits", "n_p")

    def __init__(self, bits: np.ndarray, n_p: int):
        bits = np.ascontiguousarray(bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.shape[0] != (1 << n_p):
            raise FeatureError(
                f"bit string length {bits.shape} does not match 2**{n_p}"
            )
        if bits.max(initial=0) > 1:
            raise FeatureError("bit string entries must be 0 or 1")
        bits.setflags(write=False)
        self.bits = bits
        self.n_p = n_p

    def __len__(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other) -> bool:
        # exact types: a revocable template never equals a feature string
        if type(other) is not type(self):
            return NotImplemented
        return self.n_p == other.n_p and bool(np.array_equal(self.bits, other.bits))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_p={self.n_p}, popcount={self.popcount})"

    @property
    def popcount(self) -> int:
        return int(self.bits.sum())

    def serialize(self) -> bytes:
        """Length-prefixed packed form: u32 big-endian bit count, then packed
        bytes with bit 0 as the most significant bit of byte 0."""
        return struct.pack(">I", len(self)) + np.packbits(self.bits, bitorder="big").tobytes()

    @classmethod
    def deserialize(cls, blob: bytes) -> "FeatureBitString":
        if len(blob) < 4:
            raise FeatureError("truncated bit string blob")
        (nbits,) = struct.unpack(">I", blob[:4])
        n_p = nbits.bit_length() - 1
        if nbits <= 0 or (1 << n_p) != nbits:
            raise FeatureError(f"bit count {nbits} is not a power of two")
        expected = (nbits + 7) // 8
        if len(blob) != 4 + expected:
            raise FeatureError(f"expected {expected} packed bytes, got {len(blob) - 4}")
        bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, offset=4), bitorder="big")
        return cls(bits[:nbits], n_p)


def pair_triplet(
    xi: float, yi: float, theta_i: float, xj: float, yj: float, theta_j: float
) -> tuple[float, float, float]:
    """Raw triplet math on real-valued coordinates (angles in degrees).

    The segment direction is taken from point i to point j, projected into
    the frame of minutia i:

        X = (xj - xi) cos(theta_i) + (yj - yi) sin(theta_i)
        Y = (xj - xi) sin(theta_i) - (yj - yi) cos(theta_i)

    L = hypot(X, Y); alpha = atan2(Y, X) reduced to [0, 360);
    beta = alpha + theta_j - theta_i, reduced likewise.
    """
    t = math.radians(theta_i)
    dx = xj - xi
    dy = yj - yi
    x = dx * math.cos(t) + dy * math.sin(t)
    y = dx * math.sin(t) - dy * math.cos(t)
    if x == 0.0 and y == 0.0:
        raise DegeneratePairError(f"coincident minutiae at ({xi}, {yi})")
    length = math.hypot(x, y)
    alpha = math.degrees(math.atan2(y, x)) % 360.0
    if alpha >= 360.0:
        alpha = 0.0
    beta = (alpha + theta_j - theta_i) % 360.0
    if beta >= 360.0:
        beta = 0.0
    return length, alpha, beta


@functools.lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``triu_indices(n, k=1)``: every (i, j) with i < j in row order."""
    i_idx, j_idx = np.triu_indices(n, k=1)
    i_idx.setflags(write=False)
    j_idx.setflags(write=False)
    return i_idx, j_idx


def _wrap360(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``v % 360.0`` into ``out`` (not ``v``) for every v in (-360, 720),
    without a float remainder.

    There fmod returns v itself below 360 and v - 360 from 360 up (exact by
    Sterbenz's lemma); the remainder then adds 360 to a negative result.
    Adding 0.0 elsewhere turns -0.0 into the remainder's +0.0, so every
    result is bit for bit ``v % 360.0``.
    """
    np.subtract(v < 0.0, v >= 360.0, out=out, dtype=np.float64)
    out *= 360.0
    return np.add(v, out, out=out)


def extract_features(mset: MinutiaeSet, cfg: QuantizationConfig) -> FeatureBitString:
    """Feature bit string of every pair with a defined direction; degenerate
    pairs are skipped, and a set with none left raises :class:`FeatureError`.
    Its bits are those of quantizing :func:`pair_triplet` pair by pair, the
    scalar reference in the feature tests, wherever NumPy's trigonometry
    rounds as ``math``'s does.

    The x, y and theta columns are the rows of the set's ``points`` array.
    Radians, cosine and sine are computed once per minutia and gathered per
    pair. The projection, alpha and beta keep :func:`pair_triplet`'s operands
    and order, computed in place in five pair-length buffers. L is binned
    from ``sqrt(x*x + y*y)``, which lies within a few ulps of ``hypot(x, y)``;
    where the quotient by the bin width is within 1e-9 (relative) of an
    integer, or not finite, L is recomputed with ``hypot``, so every L bin is
    the one ``hypot`` gives.
    """
    xs, ys, th = mset.points
    n = len(xs)
    rad = np.radians(th)
    cos_t, sin_t = np.cos(rad), np.sin(rad)

    i_idx, j_idx = _pair_indices(n)
    x, y, c, s, w = np.empty((5, len(i_idx)))
    # the indices are in range; mode "clip" lets take write straight into out
    np.subtract(xs.take(j_idx, out=x, mode="clip"), xs.take(i_idx, out=c, mode="clip"), out=x)
    np.subtract(ys.take(j_idx, out=y, mode="clip"), ys.take(i_idx, out=c, mode="clip"), out=y)
    # now x, y hold dx, dy; project them into minutia i's frame
    cos_t.take(i_idx, out=c, mode="clip")
    sin_t.take(i_idx, out=s, mode="clip")
    np.multiply(x, s, out=w)
    x *= c
    s *= y
    x += s  # dx*cos_i + dy*sin_i
    c *= y
    w -= c  # dx*sin_i - dy*cos_i
    y, free = w, (y, c, s)  # dy, cos_i, sin_i are dead

    degenerate = x == 0.0
    degenerate &= y == 0.0
    if degenerate.any():
        valid = ~degenerate
        if not valid.any():
            raise FeatureError("no valid pair vectors: all pairs coincident")
        x, y, i_idx, j_idx = x[valid], y[valid], i_idx[valid], j_idx[valid]
    a, b, c = (f[: len(x)] for f in free)

    l_bins = 1 << cfg.n_l
    a_bins = 1 << cfg.n_alpha
    b_bins = 1 << cfg.n_beta
    l_width = cfg.l_max / l_bins
    np.multiply(x, x, out=a)
    a += np.multiply(y, y, out=b)
    np.sqrt(a, out=a)
    # a tiny l_max makes the quotient inf, which clamps into the top bin below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a /= l_width
        # division is monotone, so the sqrt and hypot quotients straddle an
        # integer only within a few ulps of it; NaN compares false, so falls back
        np.subtract(a, np.rint(a, out=b), out=b)
        np.abs(b, out=b)
        near = ~(b > np.multiply(a, 1e-9, out=c))
        if near.any():
            a[near] = np.hypot(x[near], y[near]) / l_width
    l_bin = np.minimum(a, l_bins - 1, out=a).astype(np.int32)

    alpha = _wrap360(np.degrees(np.arctan2(y, x, out=b), out=b), out=a)
    alpha[alpha >= 360.0] = 0.0
    beta = np.add(alpha, th.take(j_idx, out=b, mode="clip"), out=b)
    beta -= th.take(i_idx, out=c, mode="clip")
    beta = _wrap360(beta, out=c)
    beta[beta >= 360.0] = 0.0

    alpha /= 360.0 / a_bins
    beta /= 360.0 / b_bins
    codes = l_bin << (cfg.n_alpha + cfg.n_beta)
    codes |= np.minimum(alpha, a_bins - 1, out=alpha).astype(np.int32) << cfg.n_beta
    codes |= np.minimum(beta, b_bins - 1, out=beta).astype(np.int32)

    bits = np.zeros(1 << cfg.n_p, dtype=np.uint8)
    bits[codes] = 1
    return FeatureBitString(bits, cfg.n_p)
