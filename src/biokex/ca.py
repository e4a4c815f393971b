"""Toy certificate authority: enrollment, issuance, verification.

A certificate binds a user id to an RSA-2048 public key: the CA signs the
SHA-256 digest of (public key DER || id bytes) with deterministic PKCS#1
v1.5 padding, so issued certificates are byte-reproducible. Enrollment
requests travel under hybrid encryption (RSA-OAEP wrapped AES-256-GCM),
since an identity plus public key exceeds one RSA block.

Key pairs can be generated deterministically from a seed: primes come from
a SHA-256 counter stream checked by trial division and 40 Miller-Rabin
rounds, and the resulting numbers are handed to ``cryptography`` for the
actual RSA operations. Signing and verification therefore use the library
code path; prime sampling is local, which is what makes seeded CA setup
reproducible. Miller-Rabin's witness exponentiation runs in the OpenSSL
that ``hashlib`` links (``BN_mod_exp_mont_consttime``, constant-time), with
Python ``pow`` as the fallback where that library cannot be bound; both give
the same numbers, so a seed gives the same key either way.

``verify_certificate`` is pure and freely concurrent; ``CaRegistry.enroll``
mutates the registry and follows a single-writer contract.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import secrets
import struct
import time
from dataclasses import dataclass
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

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
    "seal_enrollment_request",
    "open_enrollment_request",
]

RSA_BITS = 2048
RSA_E = 65537


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


# --- deterministic prime sampling -----------------------------------------

_SMALL_PRIMES = [p for p in range(3, 2000) if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)


class _HashStream:
    """Counter-mode SHA-256 byte stream; deterministic for a fixed seed."""

    def __init__(self, seed: bytes):
        self._seed = seed
        self._counter = 0

    def take(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            block = hashlib.sha256(self._seed + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            out.extend(block)
        return bytes(out[:n])

    def take_int(self, bits: int) -> int:
        return int.from_bytes(self.take((bits + 7) // 8), "big") % (1 << bits)


@functools.cache
def _libcrypto():
    """Bind the OpenSSL BIGNUM calls :func:`_modexp` uses, once; None if unavailable.

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


def _modexp(a: int, d: int, n: int) -> int:
    """``pow(a, d, n)`` for non-negative ``a``, ``d`` and ``n > 1``; in OpenSSL for odd ``n``.

    Each call owns its ``BN_CTX`` and ``BIGNUM``s and clears them before
    freeing, since ``n`` is a secret prime candidate; nothing is shared
    between threads. Montgomery multiplication needs an odd modulus, so an
    even ``n``, like every call when OpenSSL cannot be bound, uses ``pow``.
    """
    lib = _libcrypto()
    if lib is None or n % 2 == 0:
        return pow(a, d, n)
    size = (n.bit_length() + 7) // 8
    out = ctypes.create_string_buffer(size)
    ctx = lib.BN_CTX_new()
    nums = []
    try:
        for value in (a, d, n):
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
            raise CaError("OpenSSL modular exponentiation failed")
        return int.from_bytes(out.raw, "big")
    finally:
        # both free calls accept NULL
        for num in nums:
            lib.BN_clear_free(num)
        lib.BN_CTX_free(ctx)


def _is_probable_prime(n: int, stream: _HashStream, rounds: int = 40) -> bool:
    # Below 2 Miller-Rabin's set-up would halve d = n - 1 forever at n = 1.
    if n < 2:
        return False
    # One gcd stands in for trial division by each small prime in turn: that
    # loop returns n == p for the first p dividing n, which holds exactly
    # when n is itself one of the small primes.
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + stream.take_int(n.bit_length() + 16) % (n - 3)
        x = _modexp(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _gen_prime(stream: _HashStream, bits: int) -> int:
    while True:
        candidate = stream.take_int(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if math.gcd(RSA_E, candidate - 1) != 1:
            continue
        if _is_probable_prime(candidate, stream):
            return candidate


class RsaKeyPair:
    """RSA-2048 pair; seeded construction is fully deterministic."""

    def __init__(self, private_key: rsa.RSAPrivateKey):
        self.private_key = private_key
        self.public_key = private_key.public_key()

    @classmethod
    def generate(cls, seed: int | None = None) -> "RsaKeyPair":
        seed_bytes = (
            secrets.token_bytes(32)
            if seed is None
            else b"rsa-keygen" + seed.to_bytes(16, "big", signed=False)
        )
        stream = _HashStream(seed_bytes)
        half = RSA_BITS // 2
        p = _gen_prime(stream, half)
        q = _gen_prime(stream, half)
        while q == p:
            q = _gen_prime(stream, half)
        if p < q:
            p, q = q, p
        n = p * q
        lam = math.lcm(p - 1, q - 1)
        d = pow(RSA_E, -1, lam)
        numbers = rsa.RSAPrivateNumbers(
            p=p,
            q=q,
            d=d,
            dmp1=d % (p - 1),
            dmq1=d % (q - 1),
            iqmp=pow(q, -1, p),
            public_numbers=rsa.RSAPublicNumbers(e=RSA_E, n=n),
        )
        return cls(numbers.private_key())

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

    @classmethod
    def load_private(cls, path: str | Path) -> "RsaKeyPair":
        key = serialization.load_pem_private_key(Path(path).read_bytes(), password=None)
        if not isinstance(key, rsa.RSAPrivateKey):
            raise CaError(f"{path}: not an RSA private key")
        return cls(key)


def _load_public_der(der: bytes) -> rsa.RSAPublicKey:
    try:
        key = serialization.load_der_public_key(der)
    except Exception as exc:
        raise CaError(f"malformed public key encoding: {exc}") from None
    if not isinstance(key, rsa.RSAPublicKey):
        raise CaError("public key is not RSA")
    return key


def certificate_digest(user_public_der: bytes, identity: Identity) -> bytes:
    return hashlib.sha256(user_public_der + identity.encode()).digest()


@dataclass(frozen=True)
class Certificate:
    """CA-signed binding of an identity to an RSA public key."""

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
    only the public key and never touches the registry. When a record path
    is configured each enrollment appends one audit line:
    "<user_id> <hex pub fingerprint> <timestamp>", and a registry opened on
    an existing audit file starts with the ids it lists.
    """

    def __init__(self, ca_keypair: RsaKeyPair, record_path: str | Path | None = None):
        self.ca_keypair = ca_keypair
        self.enrolled: set[str] = set()
        self.record_path = Path(record_path) if record_path is not None else None
        if self.record_path is not None and self.record_path.exists():
            lines = self.record_path.read_text(encoding="utf-8").splitlines()
            self.enrolled.update(line.split()[0] for line in lines if line.strip())

    @property
    def public_key(self) -> rsa.RSAPublicKey:
        return self.ca_keypair.public_key

    def enroll(
        self, identity: Identity, user_public_der: bytes, now: int | None = None
    ) -> Certificate:
        if identity.user_id in self.enrolled:
            raise EnrollmentConflictError(f"user {identity.user_id!r} already enrolled")
        _load_public_der(user_public_der)
        timestamp = int(time.time()) if now is None else int(now)

        digest = certificate_digest(user_public_der, identity)
        signature = self.ca_keypair.private_key.sign(
            digest, padding.PKCS1v15(), hashes.SHA256()
        )
        cert = Certificate(identity, user_public_der, digest, signature)

        self.enrolled.add(identity.user_id)
        if self.record_path is not None:
            line = f"{identity.user_id} {cert.public_fingerprint} {timestamp}\n"
            with self.record_path.open("a", encoding="utf-8") as fh:
                fh.write(line)
        return cert

    def process_enrollment(self, blob: bytes, now: int | None = None) -> Certificate:
        """Open a sealed enrollment request and enroll its contents."""
        identity, user_public_der = open_enrollment_request(self.ca_keypair, blob)
        return self.enroll(identity, user_public_der, now=now)


def verify_certificate(ca_public_key: rsa.RSAPublicKey, cert: Certificate) -> Identity:
    """Recompute the digest, check it, check the CA signature; return the identity.

    The three failure modes are distinct errors: malformed encoding (raised
    at decode time), digest mismatch, invalid signature.
    """
    expected = certificate_digest(cert.user_public_der, cert.identity)
    if expected != cert.digest:
        raise DigestMismatchError(
            f"certificate digest mismatch for {cert.identity.user_id!r}"
        )
    try:
        ca_public_key.verify(cert.signature, cert.digest, padding.PKCS1v15(), hashes.SHA256())
    except InvalidSignature:
        raise SignatureInvalidError(
            f"certificate signature invalid for {cert.identity.user_id!r}"
        ) from None
    return cert.identity


def seal_enrollment_request(
    ca_public_key: rsa.RSAPublicKey, identity: Identity, user_public_der: bytes
) -> bytes:
    """Encrypt (identity, public key) to the CA: RSA-OAEP wraps a fresh
    AES-256-GCM key, the payload rides under that key."""
    ident = identity.encode()
    payload = struct.pack(">H", len(ident)) + ident + user_public_der
    sym = secrets.token_bytes(32)
    nonce = secrets.token_bytes(12)
    sealed = AESGCM(sym).encrypt(nonce, payload, b"enroll")
    wrapped = ca_public_key.encrypt(
        sym,
        padding.OAEP(
            mgf=padding.MGF1(algorithm=hashes.SHA256()),
            algorithm=hashes.SHA256(),
            label=None,
        ),
    )
    return struct.pack(">H", len(wrapped)) + wrapped + nonce + sealed


def open_enrollment_request(
    ca_keypair: RsaKeyPair, blob: bytes
) -> tuple[Identity, bytes]:
    if len(blob) < 2:
        raise CaError("enrollment request truncated")
    (wrapped_len,) = struct.unpack(">H", blob[:2])
    if len(blob) < 2 + wrapped_len + 12 + 16:
        raise CaError("enrollment request truncated")
    wrapped = blob[2 : 2 + wrapped_len]
    nonce = blob[2 + wrapped_len : 2 + wrapped_len + 12]
    sealed = blob[2 + wrapped_len + 12 :]
    try:
        sym = ca_keypair.private_key.decrypt(
            wrapped,
            padding.OAEP(
                mgf=padding.MGF1(algorithm=hashes.SHA256()),
                algorithm=hashes.SHA256(),
                label=None,
            ),
        )
        payload = AESGCM(sym).decrypt(nonce, sealed, b"enroll")
    except Exception as exc:
        raise CaError(f"enrollment request rejected: {exc.__class__.__name__}") from None
    (id_len,) = struct.unpack(">H", payload[:2])
    if len(payload) < 2 + id_len:
        raise CaError("enrollment request payload truncated")
    identity = Identity(payload[2 : 2 + id_len].decode("utf-8"))
    return identity, payload[2 + id_len :]
