import hashlib
import struct

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec

from biokex.ca import (
    CaError,
    CaRegistry,
    Certificate,
    EnrollmentConflictError,
    Identity,
    MalformedCertificateError,
    RsaKeyPair,
    SignatureInvalidError,
    verify_certificate,
)


@pytest.fixture(scope="module")
def ca():
    return CaRegistry(RsaKeyPair.generate(111))


@pytest.fixture(scope="module")
def user_keys():
    return RsaKeyPair.generate(222)


@pytest.fixture(scope="module")
def issued(ca, user_keys):
    return ca.enroll(Identity("alice"), user_keys.public_der, now=1700000000)


def test_seeded_generation_is_deterministic():
    a = RsaKeyPair.generate(999)
    b = RsaKeyPair.generate(999)
    assert a.public_der == b.public_der
    assert a.public_der != RsaKeyPair.generate(998).public_der


def test_seeded_private_key_is_tagged_seed_digest():
    raw = RsaKeyPair.generate(7).private_key.private_bytes(
        serialization.Encoding.Raw, serialization.PrivateFormat.Raw, serialization.NoEncryption()
    )
    assert raw == hashlib.sha256(b"ed25519-keygen" + (7).to_bytes(16, "big")).digest()


@pytest.mark.parametrize("seed", [0, 2**128 - 1])
def test_seed_range_ends_are_accepted(seed):
    assert len(RsaKeyPair.generate(seed).public_der) == 44


@pytest.mark.parametrize("seed", [-1, 2**128, 1 << 130])
def test_seed_outside_range_is_ca_error(seed):
    with pytest.raises(CaError, match=r"seed must be in \[0, 2\*\*128\)"):
        RsaKeyPair.generate(seed)


def test_unseeded_keys_differ():
    assert RsaKeyPair.generate().public_der != RsaKeyPair.generate().public_der


def test_issuing_twice_gives_identical_bytes(ca, user_keys):
    first, second = (
        CaRegistry(ca.ca_keypair).enroll(Identity("carol"), user_keys.public_der, now=5)
        for _ in range(2)
    )
    assert first.encode() == second.encode()


@pytest.fixture(scope="module")
def p256_key():
    """A key of a type the CA refuses; EC keygen is fast, unlike RSA's."""
    return ec.generate_private_key(ec.SECP256R1())


def _pkcs8_pem(private_key, encryption=serialization.NoEncryption()) -> bytes:
    return private_key.private_bytes(
        serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8, encryption
    )


@pytest.mark.parametrize(
    "pem, message",
    [
        (_pkcs8_pem(ec.generate_private_key(ec.SECP256R1())), "not an Ed25519 private key"),
        (b"not a PEM file", "unreadable CA key"),
        (_pkcs8_pem(RsaKeyPair.generate(3).private_key,
                    serialization.BestAvailableEncryption(b"passphrase")), "unreadable CA key"),
    ],
    ids=["p256", "garbage", "encrypted"],
)
def test_open_refuses_unusable_ca_key(tmp_path, pem, message):
    (tmp_path / "ca_key.pem").write_bytes(pem)
    with pytest.raises(CaError, match=f"ca_key.pem: {message}"):
        CaRegistry.open(tmp_path)


def test_enroll_refuses_public_key_that_is_not_ed25519(ca, p256_key):
    der = p256_key.public_key().public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
    )
    with pytest.raises(CaError, match="^public key is not Ed25519$"):
        ca.enroll(Identity("erin"), der)
    assert "erin" not in ca.enrolled


def test_verify_refuses_ca_key_that_is_not_ed25519(issued, p256_key):
    with pytest.raises(CaError, match="CA public key is not Ed25519"):
        verify_certificate(p256_key.public_key(), issued)


def test_enroll_then_verify_roundtrip(ca, issued):
    identity = verify_certificate(ca.public_key, issued)
    assert identity == Identity("alice")


def test_duplicate_enrollment_conflicts(ca, user_keys):
    with pytest.raises(EnrollmentConflictError):
        ca.enroll(Identity("alice"), user_keys.public_der)


def test_malformed_public_key_rejected(ca):
    with pytest.raises(CaError, match="malformed public key"):
        ca.enroll(Identity("mallory"), b"not a DER key")


def test_every_single_byte_corruption_rejected(ca, issued):
    blob = issued.encode()
    for i in range(len(blob)):
        tampered = bytearray(blob)
        tampered[i] ^= 0x41
        try:
            cert = Certificate.decode(bytes(tampered))
        except MalformedCertificateError:
            continue
        with pytest.raises(CaError):
            verify_certificate(ca.public_key, cert)


def test_identity_alteration_is_signature_invalid(ca, issued):
    forged = Certificate(Identity("alicia"), issued.user_public_der, issued.signature)
    with pytest.raises(SignatureInvalidError):
        verify_certificate(ca.public_key, forged)


def test_public_key_substitution_is_signature_invalid(ca, issued):
    swapped = Certificate(issued.identity, RsaKeyPair.generate(223).public_der, issued.signature)
    with pytest.raises(SignatureInvalidError):
        verify_certificate(ca.public_key, swapped)


def test_rogue_ca_signature_invalid(issued, user_keys):
    rogue = CaRegistry(RsaKeyPair.generate(333))
    rogue_cert = rogue.enroll(Identity("alice"), user_keys.public_der)
    # internally consistent, but signed by the wrong authority
    with pytest.raises(SignatureInvalidError):
        verify_certificate(RsaKeyPair.generate(111).public_key, rogue_cert)


def test_resigned_digest_fails_under_real_ca(ca, issued):
    rogue = CaRegistry(RsaKeyPair.generate(334))
    resigned = rogue.enroll(Identity("alice"), issued.user_public_der)
    cert = Certificate(issued.identity, issued.user_public_der, resigned.signature)
    with pytest.raises(SignatureInvalidError):
        verify_certificate(ca.public_key, cert)


def test_certificate_encode_decode_roundtrip(issued):
    blob = issued.encode()
    back = Certificate.decode(blob)
    assert back == issued


def test_truncated_certificate_malformed(issued):
    blob = issued.encode()
    for cut in (0, 1, 5, len(blob) // 2, len(blob) - 1):
        with pytest.raises(MalformedCertificateError):
            Certificate.decode(blob[:cut])
    with pytest.raises(MalformedCertificateError):
        Certificate.decode(blob + b"\x00")


@pytest.mark.parametrize("length", [0, 63, 65, 128])
def test_signature_not_64_bytes_is_malformed(issued, length):
    signature = (issued.signature * 2)[:length]
    with pytest.raises(MalformedCertificateError, match=f"signature is {length} bytes, not 64"):
        Certificate.decode(issued.body() + signature)


def test_single_bit_flips_break_verification(ca, issued, rng):
    blob = bytearray(issued.encode())
    for _ in range(192):
        pos = int(rng.integers(0, len(blob)))
        bit = 1 << int(rng.integers(0, 8))
        blob[pos] ^= bit
        try:
            cert = Certificate.decode(bytes(blob))
            with pytest.raises(CaError):
                verify_certificate(ca.public_key, cert)
        except MalformedCertificateError:
            pass
        blob[pos] ^= bit  # restore


def test_registry_audit_lines(tmp_path):
    registry = CaRegistry.create(tmp_path / "ca", RsaKeyPair.generate(444))
    user = RsaKeyPair.generate(445)
    cert = registry.enroll(Identity("u1"), user.public_der, now=123)
    registry.enroll(Identity("u2"), RsaKeyPair.generate(446).public_der, now=456)
    lines = (tmp_path / "ca" / "registry.txt").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == f"u1 {cert.public_fingerprint} 123"
    assert lines[1].startswith("u2 ") and lines[1].endswith(" 456")
    assert (tmp_path / "ca" / "u1.cert").read_bytes() == cert.encode()


def test_registry_reloads_audit_file(ca, user_keys, tmp_path):
    CaRegistry.create(tmp_path, ca.ca_keypair)
    path = tmp_path / "registry.txt"
    path.write_text("erin 00ff 1\nbob smith 00ff 2\n\n", encoding="utf-8")
    registry = CaRegistry.open(tmp_path)
    assert registry.enrolled == {"erin", "bob smith"}
    for user_id in ("erin", "bob smith"):
        with pytest.raises(EnrollmentConflictError):
            registry.enroll(Identity(user_id), user_keys.public_der, now=1)
    assert path.read_text(encoding="utf-8") == "erin 00ff 1\nbob smith 00ff 2\n\n"


def test_registry_enrolls_after_audit_file_deleted(ca, user_keys, tmp_path):
    CaRegistry.create(tmp_path, ca.ca_keypair).enroll(Identity("u1"), user_keys.public_der, now=1)
    (tmp_path / "registry.txt").unlink()
    registry = CaRegistry.open(tmp_path)
    assert registry.enrolled == set()
    cert = registry.enroll(Identity("u2"), user_keys.public_der, now=2)
    assert (tmp_path / "registry.txt").read_text() == f"u2 {cert.public_fingerprint} 2\n"


@pytest.mark.parametrize("user_id", ["../outside", "a/b", "a\\b", ".", "..", "a\nb", "a\x00b", "a\u2028b"])
def test_directory_registry_refuses_non_file_name_ids(ca, user_keys, tmp_path, user_id):
    registry = CaRegistry.create(tmp_path / "ca", ca.ca_keypair)
    with pytest.raises(CaError):
        registry.enroll(Identity(user_id), user_keys.public_der, now=1)
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "ca", "ca_key.pem", "ca_pub.der", "registry.txt",
    ]
    assert (tmp_path / "ca" / "registry.txt").read_bytes() == b""
    assert registry.enrolled == set()
    # in memory, and on the wire, every valid identity stays acceptable
    cert = CaRegistry(ca.ca_keypair).enroll(Identity(user_id), user_keys.public_der, now=1)
    assert verify_certificate(ca.public_key, Certificate.decode(cert.encode())) == Identity(user_id)


@pytest.mark.parametrize("user_id", ["ca", "CA"])
def test_directory_registry_refuses_ids_that_name_ca_files(ca, user_keys, tmp_path, user_id):
    registry = CaRegistry.create(tmp_path, ca.ca_keypair)
    with pytest.raises(CaError, match="would overwrite a file of the CA"):
        registry.enroll(Identity(user_id), user_keys.public_der, now=1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ca_key.pem", "ca_pub.der", "registry.txt"]
    assert (tmp_path / "registry.txt").read_bytes() == b"" and registry.enrolled == set()
    # in memory there is no file to overwrite
    CaRegistry(ca.ca_keypair).enroll(Identity(user_id), user_keys.public_der, now=1)


def test_identity_limits():
    with pytest.raises(CaError):
        Identity("")
    with pytest.raises(CaError):
        Identity("x" * 65)
    Identity("x" * 64)


def test_signature_verifies_over_body(ca, issued, user_keys):
    der = user_keys.public_der
    assert issued.body() == struct.pack(">H", 5) + b"alice" + struct.pack(">H", len(der)) + der
    assert issued.encode() == issued.body() + issued.signature
    assert len(issued.signature) == 64
    ca.public_key.verify(issued.signature, issued.body())


# SHA-256 of (public SubjectPublicKeyInfo DER, private PKCS#8 DER), pinned
# when seeded keys became Ed25519
FROZEN_KEYGEN = {
    0: (
        "0860225a5eb2acfc1e039eaf7347a63c0225278c8b03d273a246887d946a25db",
        "cf7705af5a4aff5d2ebec5143be54b8eb9118b6e9ca280c9f6f100c99cd9ee73",
    ),
    1: (
        "062d6d53824fe8f888d2fe8dad98dc3ab82299dbaa5ddfad4a1ffad5296f0f5a",
        "893ff7bd36d845822b7dfedf4f0607e82ddbed15f1727332e72d864ed5838cf6",
    ),
    7: (
        "4aa37ecd6ae8221ccb3c2c9226957ffab52c52990c86f573837a1842dbb877e6",
        "81f812ed806c7fa98110cff2facc22f3ddd16276888eb4f9a5a65831e52d53eb",
    ),
    111: (
        "f566c9f2ccf12c0b6bc877eae006690fc3291f601e2fdb454ce57e947d27bf20",
        "de598163b3f9de0f942b6a86e45ab9d49e25beb9e2c93a8927c4db1069ba04f5",
    ),
    999: (
        "3647c0981fbfccf89ecda8185e38d21d83495f14fad0b9f8ec899b85abdd1f40",
        "c42162d185f540743748fe8cfeccac8051317a81a7ecdc3b572797b1c1b070f9",
    ),
}


def keygen_digests(seed: int) -> tuple[str, str]:
    key = RsaKeyPair.generate(seed)
    private_der = key.private_key.private_bytes(
        serialization.Encoding.DER,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    )
    return hashlib.sha256(key.public_der).hexdigest(), hashlib.sha256(private_der).hexdigest()


@pytest.mark.parametrize("seed", sorted(FROZEN_KEYGEN))
def test_seeded_keygen_frozen_reference(seed):
    assert keygen_digests(seed) == FROZEN_KEYGEN[seed]


# the seed digest must not depend on which SHA-256 ``hashlib`` links
def test_seeded_keygen_frozen_reference_without_openssl(without_openssl):
    assert {seed: keygen_digests(seed) for seed in FROZEN_KEYGEN} == FROZEN_KEYGEN
