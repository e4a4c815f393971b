import hashlib
import math
import random

import pytest
from cryptography.hazmat.primitives import serialization

from biokex import ca as ca_module
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


# SHA-256 of (public SubjectPublicKeyInfo DER, private PKCS#8 DER), pinned
# before Miller-Rabin's witness exponentiation moved to OpenSSL.
FROZEN_KEYGEN = {
    0: (
        "0addb8be69a9d1066ce338561e58b39ab84fb6bd5f2257cb8d7ad30949c4b07c",
        "e45cf04fcd472093a7e527c6a9a06fab2f1cf99e005910b4882bd7054e49bed2",
    ),
    1: (
        "bb5fd789de04ab054a8548feaecc47a53571c5056476b921a182d205a97183b3",
        "a8b5f16492ae0c6dff1b0e60a00c16977ee18175de0a1458fd8e133241a069ef",
    ),
    7: (
        "464072fad06a1373395854f62163cc86443a9f48e7dc1809e67546002333f6b7",
        "044ae808844d5a562d4caa22487e110080c227e5929cea137341afffcd307b36",
    ),
    111: (
        "687be9462c6652568977331d59aa049a0f4ebdf367aeb989ed8e70a08aa05399",
        "54cba3afb8b02d40eea7e83ad02d6ef9ff7903c0bd75801daab66724ac0654c3",
    ),
    999: (
        "b8af46ce7601fff5f81e3a9cbf6d521a3fa200e9313dad4543a7b6680d53a031",
        "f25eaeaa800dc61b0e65983d28461f94b3d50d5dc343f835fa557c9468dc607c",
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


def test_seeded_keygen_frozen_reference_without_openssl(without_openssl):
    assert {seed: keygen_digests(seed) for seed in FROZEN_KEYGEN} == FROZEN_KEYGEN


def _is_probable_prime_by_loop(n, stream, rounds=40):
    """``_is_probable_prime`` with trial division by each small prime in turn
    and Python ``pow`` throughout; the reference the gcd form must equal."""
    for p in ca_module._SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + stream.take_int(n.bit_length() + 16) % (n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_probable_prime_matches_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit, p))
    for n in range(2, limit):
        assert ca_module._is_probable_prime(n, ca_module._HashStream(b"mr")) is sieve[n], n


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_is_probable_prime_below_two(n):
    stream = ca_module._HashStream(b"mr")
    assert ca_module._is_probable_prime(n, stream) is False
    assert stream._counter == 0


def test_trial_division_by_gcd_matches_loop():
    rng = random.Random(1024)
    # n = 1 is left out: the loop reaches Miller-Rabin with d = 0 and halves
    # it forever. test_is_probable_prime_below_two covers it.
    candidates = [n for n in range(5000) if n != 1]
    candidates += [rng.getrandbits(1024) | (1 << 1023) | 1 for _ in range(200)]
    candidates += [2**521 - 1, 2**607 - 1, 2**1279 - 1]
    primes = 0
    for n in candidates:
        new, old = ca_module._HashStream(b"mr"), ca_module._HashStream(b"mr")
        verdict = ca_module._is_probable_prime(n, new)
        assert verdict == _is_probable_prime_by_loop(n, old), n
        assert new._counter == old._counter, n
        primes += verdict
    assert primes >= 300
