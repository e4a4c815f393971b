"""Diffie-Hellman key agreement seeded by the revocable template.

The 256-bit private exponent is the SHA-256 digest of the packed template;
public values live in the RFC 3526 2048-bit MODP group (generator 2). The
shared group element (the intermediate key) is hashed once more, over its
fixed-width 256-byte big-endian encoding, into the 32-byte session key.
Fixed-width encoding matters: without it, implementations disagree on
leading zero bytes and derive different keys from equal intermediates.

Modular exponentiation takes one of two paths. In the RFC 3526 group it
runs in OpenSSL, through the Diffie-Hellman primitive of ``cryptography``;
every other group (the toy test group, custom group files) uses Python's
``pow``, because OpenSSL refuses moduli under 512 bits and parameters it
does not accept as a DH group. Both paths compute the same integers.

All functions are pure and big-integer values immutable. No timing-channel
resistance is claimed for the modular exponentiation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric import dh

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
    "public_key",
    "shared_secret",
    "session_key",
    "load_group",
    "save_group",
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
_RFC3526_PARAMS = dh.DHParameterNumbers(RFC3526_2048.q, RFC3526_2048.alpha)


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


def _modexp(group: DhGroup, base: int, exponent: int) -> int:
    """base**exponent mod q; OpenSSL in the RFC 3526 group, ``pow`` elsewhere."""
    if group != RFC3526_2048:
        return pow(base, exponent, group.q)
    # OpenSSL's derive reads only the private exponent x, so the public value
    # paired with it here is a placeholder (the generator)
    prv = dh.DHPrivateNumbers(exponent, dh.DHPublicNumbers(group.alpha, _RFC3526_PARAMS))
    peer = dh.DHPublicNumbers(base, _RFC3526_PARAMS).public_key()
    return int.from_bytes(prv.private_key().exchange(peer), "big")


def public_key(group: DhGroup, prv: PrivateKey) -> PublicKey:
    """alpha**exponent mod q (the exchange with alpha as the peer value)."""
    return PublicKey(_modexp(group, group.alpha, prv.exponent))


def shared_secret(group: DhGroup, prv: PrivateKey, other_pub: PublicKey) -> int:
    """other_pub**exponent mod q; commutative across the two parties.

    Degenerate peer values 0, 1 and q-1 are rejected: they pin the result
    to a trivial subgroup regardless of the exponent.
    """
    v = other_pub.value
    if v <= 1 or v >= group.q - 1:
        raise DegenerateKeyError(f"degenerate peer public value {v if v < 10 else 'q-1 or larger'}")
    return _modexp(group, v, prv.exponent)


def session_key(intermediate: int, session_id: int) -> SessionKey:
    """SHA-256 of the 256-byte big-endian encoding of the shared element."""
    if intermediate < 2:
        raise KeyAgreementError(f"intermediate {intermediate} too small")
    if intermediate >= 1 << (8 * PUBLIC_KEY_BYTES):
        raise KeyAgreementError("intermediate exceeds the 2048-bit encoding width")
    key = hashlib.sha256(intermediate.to_bytes(PUBLIC_KEY_BYTES, "big")).digest()
    return SessionKey(key, session_id)


def save_group(group: DhGroup, path: str | Path) -> None:
    """Two-line text form: hex modulus, decimal generator."""
    Path(path).write_text(f"{group.q:X}\n{group.alpha}\n", encoding="utf-8")


def load_group(path: str | Path) -> DhGroup:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        raise KeyAgreementError(f"{path}: expected hex modulus line and generator line")
    try:
        return DhGroup(q=int(lines[0].strip(), 16), alpha=int(lines[1].strip()))
    except ValueError:
        raise KeyAgreementError(f"{path}: malformed group file") from None
