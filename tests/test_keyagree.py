import ctypes
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from biokex import _openssl, keyagree
from biokex.features import FeatureBitString
from biokex.keyagree import (
    DegenerateKeyError,
    DhGroup,
    KeyAgreementError,
    NonResidueKeyError,
    PrivateKey,
    PublicKey,
    RFC3526_2048,
    RFC3526_MODP_2048_HEX,
    SessionKey,
    _jacobi,
    _residue_generator,
    derive_private_key,
    modexp,
    public_key,
    session_key,
    shared_secret,
)
from biokex.transform import RevocableTemplate, TransformationKey, permute

TOY = DhGroup(q=353, alpha=3)

# RFC 3526 section 3, for byte-exactness of the embedded constant
RFC3526_GROUP14_HEX = "".join((
    "FFFFFFFF", "FFFFFFFF", "C90FDAA2", "2168C234", "C4C6628B", "80DC1CD1",
    "29024E08", "8A67CC74", "020BBEA6", "3B139B22", "514A0879", "8E3404DD",
    "EF9519B3", "CD3A431B", "302B0A6D", "F25F1437", "4FE1356D", "6D51C245",
    "E485B576", "625E7EC6", "F44C42E9", "A637ED6B", "0BFF5CB6", "F406B7ED",
    "EE386BFB", "5A899FA5", "AE9F2411", "7C4B1FE6", "49286651", "ECE45B3D",
    "C2007CB8", "A163BF05", "98DA4836", "1C55D39A", "69163FA8", "FD24CF5F",
    "83655D23", "DCA3AD96", "1C62F356", "208552BB", "9ED52907", "7096966D",
    "670C354E", "4ABC9804", "F1746C08", "CA18217C", "32905E46", "2E36CE3B",
    "E39E772C", "180E8603", "9B2783A2", "EC07A28F", "B5C55DF0", "6F4C52C9",
    "DE2BCBF6", "95581718", "3995497C", "EA956AE5", "15D22618", "98FA0510",
    "15728E5A", "8AACAA68", "FFFFFFFF", "FFFFFFFF",
))


def _template(bits_array):
    return RevocableTemplate(bits_array, 12)


def test_sha256_primitive_wiring():
    # published reference vector for the empty string
    assert hashlib.sha256(b"").hexdigest() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_toy_group_golden_public_keys():
    assert public_key(TOY, PrivateKey(97)).value == 40
    assert public_key(TOY, PrivateKey(233)).value == 248


def test_toy_group_golden_shared_secret_both_directions():
    assert shared_secret(TOY, PrivateKey(97), PublicKey(248)) == 160
    assert shared_secret(TOY, PrivateKey(233), PublicKey(40)) == 160


def test_identity_exponent_gives_generator():
    assert public_key(TOY, PrivateKey(1)).value == 3
    assert public_key(RFC3526_2048, PrivateKey(1)).value == 2


def test_group_constant_matches_rfc3526():
    assert RFC3526_MODP_2048_HEX == RFC3526_GROUP14_HEX
    assert RFC3526_2048.q == int(RFC3526_GROUP14_HEX, 16)
    assert RFC3526_2048.q.bit_length() == 2048
    assert RFC3526_2048.alpha == 2
    raw = RFC3526_2048.q.to_bytes(256, "big")
    assert raw[:12] == bytes.fromhex("FFFFFFFFFFFFFFFFC90FDAA2")
    assert raw[-8:] == bytes.fromhex("FFFFFFFFFFFFFFFF")


def test_commutativity_random_pairs(rng):
    for _ in range(10):
        a = PrivateKey(int.from_bytes(rng.bytes(32), "big") | 1)
        b = PrivateKey(int.from_bytes(rng.bytes(32), "big") | 1)
        ya = public_key(RFC3526_2048, a)
        yb = public_key(RFC3526_2048, b)
        assert shared_secret(RFC3526_2048, a, yb) == shared_secret(RFC3526_2048, b, ya)


def _modexp_exponents():
    rng = np.random.default_rng(20240607)
    randoms = [int.from_bytes(rng.bytes(32), "big") | 1 for _ in range(50)]
    return [
        pytest.param(1, id="one"),
        pytest.param((1 << 256) - 1, id="max"),
        *(pytest.param(x, id=f"random{k:02d}") for k, x in enumerate(randoms)),
    ]


def _assert_rfc3526_matches_pow(exponent):
    q = RFC3526_2048.q
    prv = PrivateKey(exponent)
    peer = pow(3, exponent ^ 0x5A5A, q)
    assert public_key(RFC3526_2048, prv).value == pow(2, exponent, q)
    assert shared_secret(RFC3526_2048, prv, PublicKey(peer)) == pow(peer, exponent, q)


@pytest.mark.parametrize("exponent", _modexp_exponents())
def test_rfc3526_modexp_matches_pow(exponent):
    _assert_rfc3526_matches_pow(exponent)


def test_rfc3526_modexp_matches_pow_without_openssl(without_openssl):
    for param in _modexp_exponents():
        _assert_rfc3526_matches_pow(*param.values)


def test_openssl_binding_resolves():
    # a Python whose OpenSSL lacks any of these would run tier-1 on the
    # fallbacks alone; name what is missing
    import _hashlib

    lib = ctypes.CDLL(_hashlib.__file__)
    signatures = _openssl._SIGNATURES + _openssl._KDF_SIGNATURES
    assert [name for name, _, _ in signatures if not hasattr(lib, name)] == []
    assert _openssl.libcrypto() is not None
    assert _openssl.sha256_kdf() is not None
    # bound once: rebinding would set argtypes on functions other threads call
    assert _openssl.sha256_kdf() is _openssl.sha256_kdf()


def test_missing_symbol_falls_back_to_pow(monkeypatch):
    class NoSymbols:
        def __init__(self, path):
            pass

    _openssl.libcrypto.cache_clear()
    monkeypatch.setattr(_openssl.ctypes, "CDLL", NoSymbols)
    try:
        assert _openssl.libcrypto() is None
        assert modexp(3, 2**200 + 1, 2**127 - 1) == pow(3, 2**200 + 1, 2**127 - 1)
    finally:
        _openssl.libcrypto.cache_clear()


def test_modexp_failure_raises(fail_modexp):
    fail_modexp()
    with pytest.raises(KeyAgreementError, match="modular exponentiation failed"):
        modexp(2, 5, 7)


@given(st.integers(0, 2**300), st.integers(1, 2**299).map(lambda k: 2 * k + 1))
@example(0, 3)
@example(9, 15)
@example(2, 15)
@example(11, RFC3526_2048.q)
@example(RFC3526_2048.q + 2, RFC3526_2048.q)
@settings(max_examples=300, deadline=None)
def test_jacobi_matches_reference(a, n):
    assert _jacobi(a, n) == _jacobi_reference(a, n)


def _jacobi_reference(a, n):
    """Textbook Jacobi symbol: halve out twos, then apply reciprocity."""
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def test_jacobi_is_euler_criterion_mod_rfc3526_prime(rng):
    q = RFC3526_2048.q
    for _ in range(10):
        v = int.from_bytes(rng.bytes(256), "big") % q
        euler = pow(v, (q - 1) // 2, q)
        assert _jacobi(v, q) == {0: 0, 1: 1, q - 1: -1}[euler]


@pytest.mark.parametrize(
    "value",
    [11, RFC3526_2048.q - 2, pow(11, 2**255 + 1, RFC3526_2048.q)],
    ids=["11", "q-2", "11^odd"],
)
def test_rfc3526_non_residue_peers_rejected(value):
    # a DegenerateKeyError subclass, so protocol.establish aborts on it
    assert issubclass(NonResidueKeyError, DegenerateKeyError)
    assert _jacobi(value, RFC3526_2048.q) == -1
    with pytest.raises(NonResidueKeyError):
        shared_secret(RFC3526_2048, PrivateKey(97), PublicKey(value))


def test_honest_public_values_are_residues(rng):
    q = RFC3526_2048.q
    for _ in range(20):
        prv = PrivateKey(int.from_bytes(rng.bytes(32), "big") | 1)
        assert _jacobi(public_key(RFC3526_2048, prv).value, q) == 1


def test_generator_residuosity_computed_once_per_group():
    _residue_generator.cache_clear()
    for value in (4, 9, 16):
        shared_secret(RFC3526_2048, PrivateKey(97), PublicKey(value))
    assert _residue_generator.cache_info().misses == 1


def test_non_residue_generator_skips_the_residue_check():
    # 3 is a non-residue mod 353, so the toy group's honest values include
    # non-residues (alpha itself) and none may be refused
    assert _jacobi(TOY.alpha, TOY.q) == -1
    assert shared_secret(TOY, PrivateKey(2), PublicKey(TOY.alpha)) == 9


@st.composite
def modexp_operands(draw):
    m = 2 * draw(st.integers(1, 2**1099 - 1)) + 1
    e = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 2**1100)))
    a = draw(
        st.one_of(
            st.sampled_from([0, 1, m - 1]),
            st.integers(0, m - 1),
            st.integers(m, 4 * m),
        )
    )
    return a, e, m


@given(modexp_operands())
@example((0, 0, 3))
@example((0, 1, 3))
@example((1, 2**1100, 3))
@example((2, 0, 3))
@example((5, 7, 3))
@example((2**1100 - 2, 2**1100, 2**1100 - 1))
@example((2**1200, 2**1100, 2**1100 - 1))
@settings(max_examples=300, deadline=None)
def test_modexp_matches_pow(operands):
    a, e, m = operands
    assert modexp(a, e, m) == pow(a, e, m)


@pytest.mark.parametrize(
    "value",
    [0, 1, RFC3526_2048.q - 1, RFC3526_2048.q],
    ids=["0", "1", "q-1", "q"],
)
def test_rfc3526_degenerate_peers_rejected(value):
    with pytest.raises(DegenerateKeyError):
        shared_secret(RFC3526_2048, PrivateKey(97), PublicKey(value))


def test_other_large_group_matches_pow(rng):
    group = DhGroup(q=RFC3526_2048.q, alpha=5)
    x = int.from_bytes(rng.bytes(32), "big") | 1
    peer = pow(7, x, group.q)
    assert public_key(group, PrivateKey(x)).value == pow(5, x, group.q)
    assert shared_secret(group, PrivateKey(x), PublicKey(peer)) == pow(peer, x, group.q)


@pytest.mark.parametrize("value", [0, 1])
def test_degenerate_public_keys_rejected(value):
    with pytest.raises(DegenerateKeyError):
        shared_secret(TOY, PrivateKey(97), PublicKey(value))


def test_q_minus_one_rejected():
    with pytest.raises(DegenerateKeyError):
        shared_secret(TOY, PrivateKey(97), PublicKey(352))
    with pytest.raises(DegenerateKeyError):
        shared_secret(RFC3526_2048, PrivateKey(97), PublicKey(RFC3526_2048.q - 1))


def test_derive_private_key_hashes_serialized_template(rng):
    bits = (rng.random(1 << 12) < 0.5).astype(np.uint8)
    template = _template(bits)
    prv = derive_private_key(template)
    expected = int.from_bytes(hashlib.sha256(template.serialize()).digest(), "big")
    assert prv.exponent == expected
    assert prv.to_bytes() == expected.to_bytes(32, "big")


def test_identical_templates_identical_keys(rng):
    bits = (rng.random(1 << 12) < 0.5).astype(np.uint8)
    assert derive_private_key(_template(bits)) == derive_private_key(_template(bits.copy()))


def test_private_key_avalanche_on_single_bit_flips(rng):
    # Monte-Carlo avalanche: flipping one template bit should flip about
    # half of the 256 private-key bits
    bits = (rng.random(1 << 12) < 0.5).astype(np.uint8)
    base = derive_private_key(_template(bits)).to_bytes()
    base_arr = np.frombuffer(base, dtype=np.uint8)
    positions = rng.choice(1 << 12, size=1000, replace=False)
    fractions = np.empty(len(positions))
    for k, pos in enumerate(positions):
        flipped = bits.copy()
        flipped[pos] ^= 1
        other = derive_private_key(_template(flipped)).to_bytes()
        diff = np.bitwise_count(
            np.bitwise_xor(base_arr, np.frombuffer(other, dtype=np.uint8))
        ).sum()
        fractions[k] = diff / 256.0
    assert 0.48 <= float(fractions.mean()) <= 0.52


def test_zero_digest_guard(monkeypatch):
    template = _template(np.zeros(1 << 12, dtype=np.uint8))
    zero = SimpleNamespace(digest=lambda: b"\x00" * 32)
    monkeypatch.setattr(keyagree.hashlib, "sha256", lambda data: zero)
    with pytest.raises(KeyAgreementError, match="nonzero"):
        derive_private_key(template)


def test_session_key_from_toy_exchange():
    k1 = session_key(160, session_id=7)
    k2 = session_key(160, session_id=7)
    assert k1 == k2
    assert len(k1.key) == 32
    assert k1.key == hashlib.sha256((160).to_bytes(256, "big")).digest()


def test_session_key_avalanche_adjacent_intermediates():
    a = np.frombuffer(session_key(160, 0).key, dtype=np.uint8)
    b = np.frombuffer(session_key(161, 0).key, dtype=np.uint8)
    assert int(np.bitwise_count(np.bitwise_xor(a, b)).sum()) >= 96


def test_session_key_guards():
    with pytest.raises(KeyAgreementError):
        session_key(1, 0)
    with pytest.raises(KeyAgreementError):
        session_key(1 << 2048, 0)


def test_session_key_shape():
    with pytest.raises(KeyAgreementError):
        SessionKey(b"\x00" * 16, 0)


def test_public_key_wire_roundtrip(rng):
    prv = PrivateKey(int.from_bytes(rng.bytes(32), "big") | 1)
    pub = public_key(RFC3526_2048, prv)
    blob = pub.to_bytes()
    assert len(blob) == 256
    assert PublicKey.from_bytes(blob) == pub
    with pytest.raises(KeyAgreementError):
        PublicKey.from_bytes(blob[:-1])


def test_private_key_is_256_bit_space():
    with pytest.raises(KeyAgreementError):
        PrivateKey(0)
    with pytest.raises(KeyAgreementError):
        PrivateKey(1 << 256)
    assert PrivateKey((1 << 256) - 1).to_bytes() == b"\xff" * 32


def test_group_validation():
    with pytest.raises(KeyAgreementError):
        DhGroup(q=353, alpha=1)
    with pytest.raises(KeyAgreementError):
        DhGroup(q=4, alpha=2)


def test_pipeline_end_to_end_agreement(rng):
    # two parties with independent templates agree on the same session key
    bits_a = (rng.random(1 << 12) < 0.4).astype(np.uint8)
    bits_b = (rng.random(1 << 12) < 0.4).astype(np.uint8)
    fa = FeatureBitString(bits_a, 12)
    fb = FeatureBitString(bits_b, 12)
    ka = TransformationKey(rng.bytes(16))
    kb = TransformationKey(rng.bytes(16))
    prv_a = derive_private_key(permute(fa, ka))
    prv_b = derive_private_key(permute(fb, kb))
    ya = public_key(RFC3526_2048, prv_a)
    yb = public_key(RFC3526_2048, prv_b)
    ia = shared_secret(RFC3526_2048, prv_a, yb)
    ib = shared_secret(RFC3526_2048, prv_b, ya)
    assert ia == ib
    assert session_key(ia, 5) == session_key(ib, 5)
