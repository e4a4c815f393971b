"""Diffie-Hellman key agreement seeded by the revocable template.

The 256-bit private exponent is the SHA-256 digest of the packed template;
public values live in the RFC 3526 2048-bit MODP group (generator 2). The
shared group element (the intermediate key) is hashed once more, over its
fixed-width 256-byte big-endian encoding, into the 32-byte session key.
Fixed-width encoding matters: without it, implementations disagree on
leading zero bytes and derive different keys from equal intermediates.

Every modular exponentiation in the package is Diffie-Hellman's and goes
through :func:`modexp`. It runs in the
OpenSSL that ``hashlib`` links (``BN_mod_exp_mont_consttime``) for any odd
modulus, the toy test group included, and in Python ``pow`` for an even
modulus or where that library cannot be bound. Both compute the same
integers.

When the generator is a quadratic residue mod q (2 is, in the RFC 3526
group, since q = 7 mod 8), every honest public value is one too, and
:func:`shared_secret` rejects a peer value that is not: the quadratic
character of the shared element would otherwise give that peer the parity
of the private exponent. The Jacobi symbol that decides it is computed by
OpenSSL's ``BN_kronecker``, or in Python where that library cannot be
bound, once per peer value and once per group for the generator.

All functions are pure and big-integer values immutable. No timing-channel
resistance is claimed for the modular exponentiation.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
from dataclasses import dataclass

from . import _openssl
from .transform import RevocableTemplate

__all__ = [
    "DhGroup",
    "PrivateKey",
    "PublicKey",
    "SessionKey",
    "KeyAgreementError",
    "DegenerateKeyError",
    "NonResidueKeyError",
    "RFC3526_MODP_2048_HEX",
    "RFC3526_2048",
    "derive_private_key",
    "modexp",
    "public_key",
    "shared_secret",
    "session_key",
]

PUBLIC_KEY_BYTES = 256

# RFC 3526 section 3: 2048-bit MODP group. Prime = 2^2048 - 2^1984 - 1 +
# 2^64 * ( floor(2^1918 pi) + 124476 ); generator 2.
RFC3526_MODP_2048_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF"
)


class KeyAgreementError(ValueError):
    """Invalid key material or parameters."""


class DegenerateKeyError(KeyAgreementError):
    """Public value in a trivial subgroup (0, 1, or q-1); rejected outright."""


class NonResidueKeyError(DegenerateKeyError):
    """Peer value outside the quadratic residues a residue generator spans."""


@dataclass(frozen=True)
class DhGroup:
    """Prime modulus q and generator alpha."""

    q: int
    alpha: int

    def __post_init__(self):
        if self.q < 5:
            raise KeyAgreementError(f"modulus {self.q} too small")
        if not 2 <= self.alpha < self.q:
            raise KeyAgreementError("generator must satisfy 2 <= alpha < q")


RFC3526_2048 = DhGroup(q=int(RFC3526_MODP_2048_HEX, 16), alpha=2)


@dataclass(frozen=True)
class PrivateKey:
    """256-bit DH exponent taken directly from a SHA-256 digest."""

    exponent: int

    def __post_init__(self):
        if not 1 <= self.exponent < (1 << 256):
            raise KeyAgreementError("exponent must be a nonzero 256-bit integer")

    def to_bytes(self) -> bytes:
        return self.exponent.to_bytes(32, "big")


@dataclass(frozen=True)
class PublicKey:
    """Group element alpha**x mod q; wire form is 256 big-endian bytes."""

    value: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << (8 * PUBLIC_KEY_BYTES)):
            raise KeyAgreementError("public value out of encodable range")

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(PUBLIC_KEY_BYTES, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        if len(data) != PUBLIC_KEY_BYTES:
            raise KeyAgreementError(
                f"public key wire form must be {PUBLIC_KEY_BYTES} bytes, got {len(data)}"
            )
        return cls(int.from_bytes(data, "big"))


@dataclass(frozen=True)
class SessionKey:
    """32-byte symmetric key for one session."""

    key: bytes

    def __post_init__(self):
        if len(self.key) != 32:
            raise KeyAgreementError(f"session key must be 32 bytes, got {len(self.key)}")


def derive_private_key(template: RevocableTemplate) -> PrivateKey:
    """SHA-256 of the packed template bytes, used directly as the exponent.

    No reduction or padding is applied: the exponent is 256 bits and the
    default modulus 2048, so exponent < q always holds; :class:`PrivateKey`
    refuses the all-zero digest.
    """
    digest = hashlib.sha256(template.serialize()).digest()
    return PrivateKey(int.from_bytes(digest, "big"))


@contextlib.contextmanager
def _bignums(lib, *values: int):
    """A fresh ``BN_CTX`` and one ``BIGNUM`` per value, cleared and freed on exit.

    Either may be NULL where allocation failed; the caller checks before use.
    """
    ctx = lib.BN_CTX_new()
    nums = []
    try:
        for value in values:
            raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
            nums.append(lib.BN_bin2bn(raw, len(raw), None))
        yield ctx, nums
    finally:
        # both free calls accept NULL
        for num in nums:
            lib.BN_clear_free(num)
        lib.BN_CTX_free(ctx)


def modexp(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` for non-negative operands and ``modulus > 1``.

    Runs in OpenSSL for an odd modulus. Each call owns its ``BN_CTX`` and
    ``BIGNUM``s and clears them before freeing, since the exponent is a
    private key; nothing is shared between threads. Montgomery multiplication needs an odd modulus,
    so an even one, like every call when OpenSSL cannot be bound, uses
    ``pow``.
    """
    lib = _openssl.libcrypto()
    if lib is None or modulus % 2 == 0:
        return pow(base, exponent, modulus)
    size = (modulus.bit_length() + 7) // 8
    out = ctypes.create_string_buffer(size)
    # the trailing 0 is a fresh BIGNUM for the result
    with _bignums(lib, base, exponent, modulus, 0) as (ctx, nums):
        if not (
            ctx
            and all(nums)
            and lib.BN_mod_exp_mont_consttime(nums[3], *nums[:3], ctx, None)
            and lib.BN_bn2binpad(nums[3], out, size) == size
        ):
            lib.ERR_clear_error()
            raise KeyAgreementError("OpenSSL modular exponentiation failed")
    return int.from_bytes(out.raw, "big")


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for a >= 0 and odd n > 1; the Legendre symbol for prime n.

    OpenSSL's ``BN_kronecker`` (the Kronecker symbol, which is the Jacobi
    symbol for odd n) computes it without holding the GIL, so two threads'
    checks run side by side. It is not constant-time and need not be: ``a``
    is a peer's public value. Where OpenSSL cannot be bound, Python runs the
    binary algorithm of Cohen, "A Course in Computational Algebraic Number
    Theory", Algorithm 1.4.10.
    """
    a %= n
    lib = _openssl.libcrypto()
    if lib is not None:
        with _bignums(lib, a, n) as (ctx, nums):
            symbol = lib.BN_kronecker(*nums, ctx) if ctx and all(nums) else -2
        if symbol == -2:
            lib.ERR_clear_error()
            raise KeyAgreementError("OpenSSL Jacobi symbol failed")
        return symbol
    symbol = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        # (2/n) = -1 exactly when n = 3 or 5 (mod 8)
        if twos & 1 and n & 7 in (3, 5):
            symbol = -symbol
        # quadratic reciprocity flips the sign when both are 3 (mod 4)
        if a & n & 3 == 3:
            symbol = -symbol
        a, n = n % a, a
    return symbol if n == 1 else 0


@functools.lru_cache(maxsize=8)
def _residue_generator(group: DhGroup) -> bool:
    """Whether alpha is a quadratic residue mod an odd q, so every honest value is one."""
    return group.q % 2 == 1 and _jacobi(group.alpha, group.q) == 1


def public_key(group: DhGroup, prv: PrivateKey) -> PublicKey:
    """alpha**exponent mod q."""
    return PublicKey(modexp(group.alpha, prv.exponent, group.q))


def shared_secret(group: DhGroup, prv: PrivateKey, other_pub: PublicKey) -> int:
    """other_pub**exponent mod q; commutative across the two parties.

    Degenerate peer values 0, 1 and q-1 are rejected: they pin the result
    to a trivial subgroup regardless of the exponent. When alpha is a
    quadratic residue mod an odd q, so is every honest value, and a
    non-residue is rejected with :class:`NonResidueKeyError`.
    """
    v, q = other_pub.value, group.q
    if v <= 1 or v >= q - 1:
        raise DegenerateKeyError(f"degenerate peer public value {v if v < 10 else 'q-1 or larger'}")
    if _residue_generator(group) and _jacobi(v, q) != 1:
        raise NonResidueKeyError("peer public value is not a quadratic residue mod q")
    return modexp(v, prv.exponent, q)


def session_key(intermediate: int) -> SessionKey:
    """SHA-256 of the 256-byte big-endian encoding of the shared element."""
    if intermediate < 2:
        raise KeyAgreementError(f"intermediate {intermediate} too small")
    if intermediate >= 1 << (8 * PUBLIC_KEY_BYTES):
        raise KeyAgreementError("intermediate exceeds the 2048-bit encoding width")
    key = hashlib.sha256(intermediate.to_bytes(PUBLIC_KEY_BYTES, "big")).digest()
    return SessionKey(key)
