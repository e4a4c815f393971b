"""Toy certificate authority: enrollment, issuance, verification.

A certificate binds a user id to an Ed25519 public key (RFC 8032): the CA
signs the SHA-256 digest of (public key DER || id bytes) with Ed25519.
Ed25519 signatures are deterministic, so issued certificates are
byte-reproducible. An enrollment carries nothing a certificate does not
already carry in clear, an identity and a public key, so it is submitted to
the registry as is.

An Ed25519 private key is any 32 bytes, so a seeded key pair needs no
local key search: its private key is SHA-256 over a domain tag and the
integer seed, and ``cryptography`` does the rest. Keys of any other type
are refused with a :class:`CaError`.

A registry lives in memory or in a CA directory: ``ca_key.pem`` (PKCS#8),
``ca_pub.der`` (SPKI), the audit file ``registry.txt`` and, per
enrollment, ``<id>.cert`` and the user's ``<id>_key.pem``.

``verify_certificate`` is pure and freely concurrent; ``CaRegistry.enroll``
mutates the registry and follows a single-writer contract.
"""

from __future__ import annotations

import hashlib
import secrets
import struct
import time
from dataclasses import dataclass
from pathlib import Path

from cryptography.exceptions import InvalidSignature, UnsupportedAlgorithm
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519

__all__ = [
    "Identity",
    "RsaKeyPair",
    "Certificate",
    "CaRegistry",
    "CaError",
    "EnrollmentConflictError",
    "MalformedCertificateError",
    "DigestMismatchError",
    "SignatureInvalidError",
    "verify_certificate",
    "certificate_digest",
    "USER_KEY",
]

# the files of a CA directory: the CA's own, then one user's
_CA_KEY, _CA_PUB, _AUDIT = "ca_key.pem", "ca_pub.der", "registry.txt"
USER_KEY, _USER_CERT = "{}_key.pem", "{}.cert"


class CaError(ValueError):
    """Certificate authority failure."""


class EnrollmentConflictError(CaError):
    """User id already enrolled."""


class MalformedCertificateError(CaError):
    """Certificate bytes do not decode."""


class DigestMismatchError(CaError):
    """Recomputed digest differs from the stored one."""


class SignatureInvalidError(CaError):
    """Signature does not verify under the given CA public key."""


@dataclass(frozen=True)
class Identity:
    """Unique user identifier, at most 64 UTF-8 bytes."""

    user_id: str

    def __post_init__(self):
        if not self.user_id:
            raise CaError("empty user id")
        if len(self.user_id.encode("utf-8")) > 64:
            raise CaError("user id exceeds 64 UTF-8 bytes")

    def encode(self) -> bytes:
        return self.user_id.encode("utf-8")


# domain tag that a seeded private key's SHA-256 input starts with
_SEED_TAG = b"ed25519-keygen"


class RsaKeyPair:
    """Ed25519 signing pair (RFC 8032). The name predates the move from
    RSA-2048. A seeded pair is fully deterministic: its private key is
    SHA-256 over a domain tag and the seed's 16 big-endian bytes."""

    def __init__(self, private_key: ed25519.Ed25519PrivateKey):
        self.private_key = private_key
        self.public_key = private_key.public_key()

    @classmethod
    def generate(cls, seed: int | None = None) -> "RsaKeyPair":
        if seed is None:
            private_bytes = secrets.token_bytes(32)
        elif 0 <= seed < 1 << 128:
            private_bytes = hashlib.sha256(_SEED_TAG + seed.to_bytes(16, "big")).digest()
        else:
            raise CaError(f"key seed must be in [0, 2**128), got {seed}")
        return cls(ed25519.Ed25519PrivateKey.from_private_bytes(private_bytes))

    @property
    def public_der(self) -> bytes:
        return self.public_key.public_bytes(
            serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
        )

    def save_private(self, path: str | Path) -> None:
        Path(path).write_bytes(
            self.private_key.private_bytes(
                serialization.Encoding.PEM,
                serialization.PrivateFormat.PKCS8,
                serialization.NoEncryption(),
            )
        )


def _load_public_der(der: bytes) -> ed25519.Ed25519PublicKey:
    try:
        key = serialization.load_der_public_key(der)
    except Exception as exc:
        raise CaError(f"malformed public key encoding: {exc}") from None
    if not isinstance(key, ed25519.Ed25519PublicKey):
        raise CaError("public key is not Ed25519")
    return key


def certificate_digest(user_public_der: bytes, identity: Identity) -> bytes:
    return hashlib.sha256(user_public_der + identity.encode()).digest()


@dataclass(frozen=True)
class Certificate:
    """CA-signed binding of an identity to an Ed25519 public key."""

    identity: Identity
    user_public_der: bytes
    digest: bytes
    signature: bytes

    def encode(self) -> bytes:
        """Big-endian binary form:
        [u16 id_len][id][u16 pub_len][pub DER][32-byte digest][u16 sig_len][sig]."""
        ident = self.identity.encode()
        return b"".join(
            (
                struct.pack(">H", len(ident)),
                ident,
                struct.pack(">H", len(self.user_public_der)),
                self.user_public_der,
                self.digest,
                struct.pack(">H", len(self.signature)),
                self.signature,
            )
        )

    @classmethod
    def decode(cls, blob: bytes) -> "Certificate":
        def fail(reason: str):
            raise MalformedCertificateError(f"certificate decode: {reason}")

        off = 0

        def take(n: int) -> bytes:
            nonlocal off
            if off + n > len(blob):
                fail(f"truncated at offset {off}")
            chunk = blob[off : off + n]
            off += n
            return chunk

        (id_len,) = struct.unpack(">H", take(2))
        try:
            identity = Identity(take(id_len).decode("utf-8"))
        except (UnicodeDecodeError, CaError) as exc:
            raise MalformedCertificateError(f"certificate decode: bad identity ({exc})") from None
        (pub_len,) = struct.unpack(">H", take(2))
        pub = take(pub_len)
        digest = take(32)
        (sig_len,) = struct.unpack(">H", take(2))
        sig = take(sig_len)
        if off != len(blob):
            fail(f"{len(blob) - off} trailing bytes")
        return cls(identity, pub, digest, sig)

    @property
    def public_fingerprint(self) -> str:
        return hashlib.sha256(self.user_public_der).hexdigest()


class CaRegistry:
    """Enrollment database plus the CA key pair.

    Enrollments are serialized by contract (one writer); verification needs
    only the public key and never touches the registry.
    ``CaRegistry(ca_keypair)`` keeps everything in memory. :meth:`create`
    starts a registry in a CA directory and :meth:`open` reopens it; there
    each enrollment appends one audit line "<user_id> <hex pub fingerprint>
    <timestamp>" and writes ``<user_id>.cert``. An id that is not one
    printable file name, or whose ``<id>.cert`` or ``<id>_key.pem`` is one of
    the CA's own file names in any letter case (``ca``), is refused before
    anything is written. An id is everything before an audit line's last two
    fields, so it may hold spaces.
    """

    def __init__(self, ca_keypair: RsaKeyPair):
        self.ca_keypair = ca_keypair
        self.enrolled: set[str] = set()
        self.directory: Path | None = None

    @classmethod
    def create(cls, directory: str | Path, ca_keypair: RsaKeyPair) -> "CaRegistry":
        """Write the CA key, ``ca_pub.der`` and an empty audit file into
        ``directory``, which must not already hold a CA key."""
        directory = Path(directory)
        if (directory / _CA_KEY).exists():
            raise CaError(f"{directory / _CA_KEY} exists; a CA directory is initialized once")
        directory.mkdir(parents=True, exist_ok=True)
        ca_keypair.save_private(directory / _CA_KEY)
        (directory / _CA_PUB).write_bytes(ca_keypair.public_der)
        (directory / _AUDIT).write_bytes(b"")
        registry = cls(ca_keypair)
        registry.directory = directory
        return registry

    @classmethod
    def open(cls, directory: str | Path) -> "CaRegistry":
        """Load the CA key of ``directory``, which must be Ed25519, and the
        ids its audit file lists (none when the file is missing)."""
        directory = Path(directory)
        key_path = directory / _CA_KEY
        if not key_path.exists():
            raise CaError(f"no CA key at {key_path}; run ca-init first")
        try:
            key = serialization.load_pem_private_key(key_path.read_bytes(), password=None)
        except (ValueError, TypeError, UnsupportedAlgorithm) as exc:
            raise CaError(f"{key_path}: unreadable CA key ({exc})") from None
        if not isinstance(key, ed25519.Ed25519PrivateKey):
            raise CaError(f"{key_path}: not an Ed25519 private key")
        registry = cls(RsaKeyPair(key))
        registry.directory = directory
        audit = directory / _AUDIT
        lines = audit.read_text(encoding="utf-8").splitlines() if audit.exists() else []
        registry.enrolled.update(line.rsplit(" ", 2)[0] for line in lines if line.strip())
        return registry

    @property
    def public_key(self) -> ed25519.Ed25519PublicKey:
        return self.ca_keypair.public_key

    def enroll(
        self, identity: Identity, user_public_der: bytes, now: int | None = None
    ) -> Certificate:
        user_id = identity.user_id
        if user_id in self.enrolled:
            raise EnrollmentConflictError(f"user {user_id!r} already enrolled")
        if self.directory is not None:
            if not user_id.isprintable() or user_id in (".", "..") or set(user_id) & {"/", "\\"}:
                raise CaError(f"user id {user_id!r} is not one printable file name")
            own = {n.format(user_id).lower() for n in (USER_KEY, _USER_CERT)}
            if own & {_CA_KEY, _CA_PUB, _AUDIT}:
                raise CaError(f"user id {user_id!r} would overwrite a file of the CA")
        _load_public_der(user_public_der)
        timestamp = int(time.time()) if now is None else int(now)

        digest = certificate_digest(user_public_der, identity)
        signature = self.ca_keypair.private_key.sign(digest)
        cert = Certificate(identity, user_public_der, digest, signature)

        if self.directory is not None:
            self._record(cert, timestamp)
        self.enrolled.add(identity.user_id)
        return cert

    def _record(self, cert: Certificate, timestamp: int) -> None:
        user_id = cert.identity.user_id
        with (self.directory / _AUDIT).open("a", encoding="utf-8") as fh:
            fh.write(f"{user_id} {cert.public_fingerprint} {timestamp}\n")
        (self.directory / _USER_CERT.format(user_id)).write_bytes(cert.encode())


def verify_certificate(ca_public_key: ed25519.Ed25519PublicKey, cert: Certificate) -> Identity:
    """Recompute the digest, check it, check the CA signature; return the identity.

    The three failure modes are distinct errors: malformed encoding (raised
    at decode time), digest mismatch, invalid signature. A CA key that is
    not Ed25519 is a plain :class:`CaError`.
    """
    if not isinstance(ca_public_key, ed25519.Ed25519PublicKey):
        raise CaError("CA public key is not Ed25519")
    expected = certificate_digest(cert.user_public_der, cert.identity)
    if expected != cert.digest:
        raise DigestMismatchError(
            f"certificate digest mismatch for {cert.identity.user_id!r}"
        )
    try:
        ca_public_key.verify(cert.signature, cert.digest)
    except InvalidSignature:
        raise SignatureInvalidError(
            f"certificate signature invalid for {cert.identity.user_id!r}"
        ) from None
    return cert.identity
