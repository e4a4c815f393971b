import pytest

from biokex.ca import (
    CaError,
    CaRegistry,
    Certificate,
    DigestMismatchError,
    EnrollmentConflictError,
    Identity,
    MalformedCertificateError,
    RsaKeyPair,
    SignatureInvalidError,
    certificate_digest,
    open_enrollment_request,
    seal_enrollment_request,
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


def test_generated_modulus_is_2048_bits():
    key = RsaKeyPair.generate(7)
    assert key.public_key.key_size == 2048


def test_enroll_then_verify_roundtrip(ca, issued):
    identity = verify_certificate(ca.public_key, issued)
    assert identity == Identity("alice")


def test_duplicate_enrollment_conflicts(ca, user_keys):
    with pytest.raises(EnrollmentConflictError):
        ca.enroll(Identity("alice"), user_keys.public_der)


def test_malformed_public_key_rejected(ca):
    with pytest.raises(CaError, match="malformed public key"):
        ca.enroll(Identity("mallory"), b"not a DER key")


def test_all_single_byte_digest_corruptions_rejected(ca, issued):
    for i in range(32):
        tampered = bytearray(issued.digest)
        tampered[i] ^= 0x41
        cert = Certificate(issued.identity, issued.user_public_der, bytes(tampered), issued.signature)
        with pytest.raises(CaError):
            verify_certificate(ca.public_key, cert)


def test_identity_alteration_is_digest_mismatch(ca, issued):
    forged = Certificate(Identity("alicia"), issued.user_public_der, issued.digest, issued.signature)
    with pytest.raises(DigestMismatchError):
        verify_certificate(ca.public_key, forged)


def test_rogue_ca_signature_invalid(issued, user_keys):
    rogue = CaRegistry(RsaKeyPair.generate(333))
    rogue_cert = rogue.enroll(Identity("alice"), user_keys.public_der)
    # internally consistent, but signed by the wrong authority
    with pytest.raises(SignatureInvalidError):
        verify_certificate(RsaKeyPair.generate(111).public_key, rogue_cert)


def test_resigned_digest_fails_under_real_ca(ca, issued):
    rogue = CaRegistry(RsaKeyPair.generate(334))
    resigned = rogue.enroll(Identity("alice"), issued.user_public_der)
    cert = Certificate(issued.identity, issued.user_public_der, issued.digest, resigned.signature)
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
    path = tmp_path / "registry.txt"
    registry = CaRegistry(RsaKeyPair.generate(444), record_path=path)
    user = RsaKeyPair.generate(445)
    cert = registry.enroll(Identity("u1"), user.public_der, now=123)
    registry.enroll(Identity("u2"), RsaKeyPair.generate(446).public_der, now=456)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == f"u1 {cert.public_fingerprint} 123"
    assert lines[1].startswith("u2 ") and lines[1].endswith(" 456")


def test_registry_reloads_audit_file(ca, user_keys, tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text("erin 00ff 1\n\n", encoding="utf-8")
    registry = CaRegistry(ca.ca_keypair, record_path=path)
    assert registry.enrolled == {"erin"}
    with pytest.raises(EnrollmentConflictError):
        registry.enroll(Identity("erin"), user_keys.public_der, now=1)
    assert path.read_text(encoding="utf-8") == "erin 00ff 1\n\n"


def test_identity_limits():
    with pytest.raises(CaError):
        Identity("")
    with pytest.raises(CaError):
        Identity("x" * 65)
    Identity("x" * 64)


def test_digest_definition(issued, user_keys):
    assert issued.digest == certificate_digest(user_keys.public_der, Identity("alice"))


def test_hybrid_enrollment_roundtrip():
    ca_keys = RsaKeyPair.generate(555)
    user = RsaKeyPair.generate(556)
    blob = seal_enrollment_request(ca_keys.public_key, Identity("carol"), user.public_der)
    identity, der = open_enrollment_request(ca_keys, blob)
    assert identity == Identity("carol")
    assert der == user.public_der


def test_hybrid_enrollment_tamper_rejected():
    ca_keys = RsaKeyPair.generate(557)
    user = RsaKeyPair.generate(558)
    blob = bytearray(seal_enrollment_request(ca_keys.public_key, Identity("dave"), user.public_der))
    blob[-1] ^= 1
    with pytest.raises(CaError, match="rejected"):
        open_enrollment_request(ca_keys, bytes(blob))


def test_process_enrollment_end_to_end(tmp_path):
    registry = CaRegistry(RsaKeyPair.generate(559))
    user = RsaKeyPair.generate(560)
    blob = seal_enrollment_request(registry.public_key, Identity("erin"), user.public_der)
    cert = registry.process_enrollment(blob, now=1)
    assert verify_certificate(registry.public_key, cert) == Identity("erin")
    assert "erin" in registry.enrolled
