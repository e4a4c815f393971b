"""Diffie-Hellman key agreement seeded by the revocable template.

The 256-bit private exponent is the SHA-256 digest of the packed template;
public values live in the RFC 3526 2048-bit MODP group (generator 2). The
shared group element (the intermediate key) is hashed once more, over its
fixed-width 256-byte big-endian encoding, into the 32-byte session key.
Fixed-width encoding matters: without it, implementations disagree on
leading zero bytes and derive different keys from equal intermediates.

Every modular exponentiation in the package, Diffie-Hellman here and the
CA's Miller-Rabin witnesses, goes through :func:`modexp`. It runs in the
OpenSSL that ``hashlib`` links (``BN_mod_exp_mont_consttime``) for any odd
modulus, the toy test group included, and in Python ``pow`` for an even
modulus or where that library cannot be bound. Both compute the same
integers.

All functions are pure and big-integer values immutable. No timing-channel
resistance is claimed for the modular exponentiation.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
from dataclasses import dataclass

from .transform import RevocableTemplate

__all__ = [
    "DhGroup",
    "PrivateKey",
    "PublicKey",
    "SessionKey",
    "KeyAgreementError",
    "DegenerateKeyError",
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
    """32-byte symmetric key for one session, tagged with a session id."""

    key: bytes
    session_id: int

    def __post_init__(self):
        if len(self.key) != 32:
            raise KeyAgreementError(f"session key must be 32 bytes, got {len(self.key)}")


def _exponent_from_digest(digest: bytes) -> int:
    exponent = int.from_bytes(digest, "big")
    if exponent == 0:
        raise KeyAgreementError("all-zero digest cannot seed a private key")
    return exponent


def derive_private_key(template: RevocableTemplate) -> PrivateKey:
    """SHA-256 of the packed template bytes, used directly as the exponent.

    No reduction or padding is applied: the exponent is 256 bits and the
    default modulus 2048, so exponent < q always holds.
    """
    digest = hashlib.sha256(template.serialize()).digest()
    return PrivateKey(_exponent_from_digest(digest))


@functools.cache
def _libcrypto():
    """Bind the OpenSSL BIGNUM calls :func:`modexp` uses, once; None if unavailable.

    ``dlsym`` on the ``_hashlib`` extension's handle also searches the
    libcrypto it links, so this is the OpenSSL ``hashlib`` already loaded.
    """
    try:
        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        p, i = ctypes.c_void_p, ctypes.c_int
        for name, restype, argtypes in (
            ("BN_CTX_new", p, ()),
            ("BN_CTX_free", None, (p,)),
            ("BN_new", p, ()),
            ("BN_clear_free", None, (p,)),
            ("BN_bin2bn", p, (ctypes.c_char_p, i, p)),
            ("BN_bn2binpad", i, (p, ctypes.c_char_p, i)),
            ("BN_mod_exp_mont_consttime", i, (p, p, p, p, p, p)),
            ("ERR_clear_error", None, ()),
        ):
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
    except (ImportError, OSError, AttributeError):
        return None
    return lib


def modexp(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` for non-negative operands and ``modulus > 1``.

    Runs in OpenSSL for an odd modulus. Each call owns its ``BN_CTX`` and
    ``BIGNUM``s and clears them before freeing, since the exponent is a
    private key and the CA's moduli are secret prime candidates; nothing is
    shared between threads. Montgomery multiplication needs an odd modulus,
    so an even one, like every call when OpenSSL cannot be bound, uses
    ``pow``.
    """
    lib = _libcrypto()
    if lib is None or modulus % 2 == 0:
        return pow(base, exponent, modulus)
    size = (modulus.bit_length() + 7) // 8
    out = ctypes.create_string_buffer(size)
    ctx = lib.BN_CTX_new()
    nums = []
    try:
        for value in (base, exponent, modulus):
            raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
            nums.append(lib.BN_bin2bn(raw, len(raw), None))
        result = lib.BN_new()
        nums.append(result)
        if not (
            ctx
            and all(nums)
            and lib.BN_mod_exp_mont_consttime(result, *nums[:3], ctx, None)
            and lib.BN_bn2binpad(result, out, size) == size
        ):
            lib.ERR_clear_error()
            raise KeyAgreementError("OpenSSL modular exponentiation failed")
        return int.from_bytes(out.raw, "big")
    finally:
        # both free calls accept NULL
        for num in nums:
            lib.BN_clear_free(num)
        lib.BN_CTX_free(ctx)


def public_key(group: DhGroup, prv: PrivateKey) -> PublicKey:
    """alpha**exponent mod q."""
    return PublicKey(modexp(group.alpha, prv.exponent, group.q))


def shared_secret(group: DhGroup, prv: PrivateKey, other_pub: PublicKey) -> int:
    """other_pub**exponent mod q; commutative across the two parties.

    Degenerate peer values 0, 1 and q-1 are rejected: they pin the result
    to a trivial subgroup regardless of the exponent.
    """
    v = other_pub.value
    if v <= 1 or v >= group.q - 1:
        raise DegenerateKeyError(f"degenerate peer public value {v if v < 10 else 'q-1 or larger'}")
    return modexp(v, prv.exponent, group.q)


def session_key(intermediate: int, session_id: int) -> SessionKey:
    """SHA-256 of the 256-byte big-endian encoding of the shared element."""
    if intermediate < 2:
        raise KeyAgreementError(f"intermediate {intermediate} too small")
    if intermediate >= 1 << (8 * PUBLIC_KEY_BYTES):
        raise KeyAgreementError("intermediate exceeds the 2048-bit encoding width")
    key = hashlib.sha256(intermediate.to_bytes(PUBLIC_KEY_BYTES, "big")).digest()
    return SessionKey(key, session_id)
