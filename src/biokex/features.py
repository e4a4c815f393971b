"""Pair-minutiae feature extraction: invariant triplets, quantization, binning.

Every unordered minutiae pair (i, j), i < j, yields a triplet
(L, alpha, beta): segment length, segment direction relative to the first
minutia's orientation, and the same direction adjusted by the orientation
difference. The triplets are invariant to global translation and rotation
of the impression. Each triplet quantizes to an n_p-bit code
(L bits, alpha bits, beta bits concatenated most-significant-field first)
and the codes index a 2**n_p-long bit string: a bin is 1 iff at least one
pair lands in it.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .minutiae import Minutia, MinutiaeSet

__all__ = [
    "PairVector",
    "QuantizationConfig",
    "FeatureBitString",
    "FeatureError",
    "DegeneratePairError",
    "pair_triplet",
    "pair_vector",
    "all_pair_vectors",
    "PairVectorResult",
    "quantize",
    "quantize_code",
    "bin_to_bitstring",
    "extract_features",
]


class FeatureError(ValueError):
    """Feature extraction failure."""


class DegeneratePairError(FeatureError):
    """Coincident minutiae positions; the pair direction is undefined."""


@dataclass(frozen=True)
class PairVector:
    """Invariant triplet for one minutiae pair: distance and two relative angles."""

    L: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.L < 0:
            raise FeatureError(f"negative pair distance {self.L}")
        if not 0.0 <= self.alpha < 360.0 or not 0.0 <= self.beta < 360.0:
            raise FeatureError(f"angles ({self.alpha}, {self.beta}) not normalized")


@dataclass(frozen=True)
class QuantizationConfig:
    """Bit budget per triplet field and the distance range to quantize over.

    n_p = n_l + n_alpha + n_beta is the code width; the feature string has
    2**n_p bins, so n_p is capped at 24 to keep it allocatable. l_max
    defaults to 540, covering the diagonal of a 388x374 image; distances at
    or beyond l_max clamp into the top bin.
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
        if self.l_max <= 0:
            raise FeatureError("l_max must be positive")

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
        if not isinstance(other, FeatureBitString):
            return NotImplemented
        return self.n_p == other.n_p and bool(np.array_equal(self.bits, other.bits))

    def __repr__(self) -> str:
        return f"FeatureBitString(n_p={self.n_p}, popcount={self.popcount})"

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


def pair_vector(m_i: Minutia, m_j: Minutia) -> PairVector:
    """Invariant triplet for the ordered pair (m_i, m_j)."""
    length, alpha, beta = pair_triplet(m_i.x, m_i.y, m_i.theta, m_j.x, m_j.y, m_j.theta)
    return PairVector(length, alpha, beta)


class PairVectorResult(NamedTuple):
    vectors: list[PairVector]
    skipped: int


def all_pair_vectors(mset: MinutiaeSet) -> PairVectorResult:
    """Triplets for all n(n-1)/2 unordered pairs, in (i, j) order with i < j.

    Pairs with coincident positions have no direction; they are skipped and
    counted rather than raised, since duplicates in position (with distinct
    orientations) can survive synthesis and perturbation.
    """
    ms = mset.minutiae
    vectors: list[PairVector] = []
    skipped = 0
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            try:
                vectors.append(pair_vector(ms[i], ms[j]))
            except DegeneratePairError:
                skipped += 1
    return PairVectorResult(vectors, skipped)


def quantize_code(v: PairVector, cfg: QuantizationConfig) -> int:
    """Integer value of the quantized n_p-bit code for one triplet."""
    l_bins = 1 << cfg.n_l
    a_bins = 1 << cfg.n_alpha
    b_bins = 1 << cfg.n_beta
    l_bin = min(int(v.L / (cfg.l_max / l_bins)), l_bins - 1)
    a_bin = min(int(v.alpha / (360.0 / a_bins)), a_bins - 1)
    b_bin = min(int(v.beta / (360.0 / b_bins)), b_bins - 1)
    return (l_bin << (cfg.n_alpha + cfg.n_beta)) | (a_bin << cfg.n_beta) | b_bin


def quantize(v: PairVector, cfg: QuantizationConfig) -> str:
    """Quantized code rendered as an n_p-character bit string, L field first,
    each field most-significant-bit first."""
    return format(quantize_code(v, cfg), f"0{cfg.n_p}b")


def bin_to_bitstring(vectors: list[PairVector], cfg: QuantizationConfig) -> FeatureBitString:
    """Bin quantized codes into the 2**n_p feature bit string.

    Idempotent under duplicate codes: a bin indexed any number of times is 1.
    """
    if not vectors:
        raise FeatureError("empty vector list")
    bits = np.zeros(1 << cfg.n_p, dtype=np.uint8)
    for v in vectors:
        bits[quantize_code(v, cfg)] = 1
    return FeatureBitString(bits, cfg.n_p)


@functools.lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``triu_indices(n, k=1)``: every (i, j) with i < j in row order."""
    i_idx, j_idx = np.triu_indices(n, k=1)
    i_idx.setflags(write=False)
    j_idx.setflags(write=False)
    return i_idx, j_idx


def _wrap360(v: np.ndarray) -> np.ndarray:
    """``v % 360.0`` for every v in (-360, 720), without a float remainder.

    There fmod returns v itself below 360 and v - 360 from 360 up (exact by
    Sterbenz's lemma); the remainder then adds 360 to a negative result.
    Adding 0.0 elsewhere turns -0.0 into the remainder's +0.0, so every
    result is bit for bit ``v % 360.0``.
    """
    return v + ((v < 0.0) * 360.0 - (v >= 360.0) * 360.0)


def extract_features(mset: MinutiaeSet, cfg: QuantizationConfig) -> FeatureBitString:
    """Fused extraction path: equivalent to binning ``all_pair_vectors`` but
    vectorized over all pairs; degenerate pairs are skipped.

    Radians, cosine and sine are computed once per minutia and gathered per
    pair; every per-pair operation keeps :func:`pair_triplet`'s operands and
    order, so the bits equal the per-pair path's.
    """
    xs, ys, th = np.array(
        [(m.x, m.y, m.theta) for m in mset.minutiae], dtype=np.float64
    ).T
    rad = np.radians(th)
    cos_t, sin_t = np.cos(rad), np.sin(rad)

    i_idx, j_idx = _pair_indices(len(mset.minutiae))
    th_i, th_j = th[i_idx], th[j_idx]
    dx = xs[j_idx] - xs[i_idx]
    dy = ys[j_idx] - ys[i_idx]
    cos_i, sin_i = cos_t[i_idx], sin_t[i_idx]
    x = dx * cos_i + dy * sin_i
    y = dx * sin_i - dy * cos_i

    valid = ~((x == 0.0) & (y == 0.0))
    if not valid.all():
        if not valid.any():
            raise FeatureError("no valid pair vectors: all pairs coincident")
        x, y, th_i, th_j = x[valid], y[valid], th_i[valid], th_j[valid]

    length = np.hypot(x, y)
    alpha = _wrap360(np.degrees(np.arctan2(y, x)))
    alpha[alpha >= 360.0] = 0.0
    beta = _wrap360(alpha + th_j - th_i)
    beta[beta >= 360.0] = 0.0

    l_bins = 1 << cfg.n_l
    a_bins = 1 << cfg.n_alpha
    b_bins = 1 << cfg.n_beta
    l_bin = np.minimum((length / (cfg.l_max / l_bins)).astype(np.int64), l_bins - 1)
    a_bin = np.minimum((alpha / (360.0 / a_bins)).astype(np.int64), a_bins - 1)
    b_bin = np.minimum((beta / (360.0 / b_bins)).astype(np.int64), b_bins - 1)
    codes = (l_bin << (cfg.n_alpha + cfg.n_beta)) | (a_bin << cfg.n_beta) | b_bin

    bits = np.zeros(1 << cfg.n_p, dtype=np.uint8)
    bits[codes] = 1
    return FeatureBitString(bits, cfg.n_p)
