import ctypes
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biokex.transform as transform_module
from biokex import _openssl, netsim
from biokex.features import FeatureBitString, QuantizationConfig, extract_features
from biokex.keyagree import modexp
from biokex.minutiae import synthesize_subject
from biokex.transform import (
    RevocableTemplate,
    TransformationKey,
    TransformError,
    _arrangement,
    _digests,
    _track,
    index_stream,
    invert,
    permute,
)

TOKEN = bytes(range(16))
KEY = TransformationKey(TOKEN)

# frozen reference: SHA-256(token 00..0f || 0x0000000000000001) mod 2**15,
# computed independently with hashlib at test-writing time
FIRST_INDEX_32768 = 12859

# frozen reference: SHA-256 of _arrangement(TOKEN, n) as little-endian int64,
# computed with the per-index big-integer stream and the swap walk
ARRANGEMENT_SHA256 = {
    1 << 12: "ce65d20e5d2c5dd7968b3bbd1fabf23c74a77e18372018b87b8ea570d71aa291",
    1 << 15: "40463825cc64e0695373145c127548a9fa5f1c171afd2a21809d4be715cace8a",
}


def _arrangement_from_stream(stream: list[int], n: int) -> np.ndarray:
    """Reference walk: final occupancy after the sequential swap loop.

    Walks i = 1..n swapping positions i and stream[i-1] (both 1-based) in
    order; entry p of the result is the source index whose bit ends up at
    position p.
    """
    if len(stream) != n:
        raise TransformError(f"need {n} stream indices, got {len(stream)}")
    arr = list(range(n))
    for i, j in enumerate(stream):
        arr[i], arr[j - 1] = arr[j - 1], arr[i]
    return np.array(arr, dtype=np.int32)


def _random_fbs(rng, n_p=15, density=0.5):
    bits = (rng.random(1 << n_p) < density).astype(np.uint8)
    return FeatureBitString(bits, n_p)


def test_index_stream_n1_all_ones():
    assert index_stream(KEY, 1, 20) == [1] * 20


def test_index_stream_frozen_reference():
    stream = index_stream(KEY, 1 << 15, 3)
    assert stream[0] == FIRST_INDEX_32768
    digest = hashlib.sha256(TOKEN + (1).to_bytes(8, "big")).digest()
    assert stream[0] == 1 + int.from_bytes(digest, "big") % (1 << 15)


def test_index_stream_crosses_digest_blocks():
    # values on both sides of 4096 counters, a former hashing block boundary
    stream = index_stream(KEY, 1000, 5000)
    for i in (4095, 4096, 4097, 5000):
        digest = hashlib.sha256(TOKEN + i.to_bytes(8, "big")).digest()
        assert stream[i - 1] == 1 + int.from_bytes(digest, "big") % 1000


@pytest.fixture(params=["without-openssl", "over-kdf-cap"])
def hashlib_fallback(request, monkeypatch):
    """Force ``_digests`` onto its hashlib loop: no OpenSSL binding, or an
    X9.63 KDF output cap below every request."""
    if request.param == "without-openssl":
        request.getfixturevalue("without_openssl")
    else:
        monkeypatch.setattr(transform_module, "_KDF_MAX_BYTES", 31)
    _arrangement.cache_clear()
    yield
    _arrangement.cache_clear()


def _hashlib_digests(token, count):
    return b"".join(
        hashlib.sha256(token + i.to_bytes(8, "big")).digest() for i in range(1, count + 1)
    )


def _assert_arrangement_frozen_reference():
    _arrangement.cache_clear()
    for n, digest in ARRANGEMENT_SHA256.items():
        arr = _arrangement(TOKEN, n)
        assert hashlib.sha256(arr.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("token_len", range(1, 81))
def test_digest_blocks_match_hashlib(token_len):
    # token || BE64(i) crosses SHA-256's one-to-two-block padding boundary at
    # 56 bytes, the count crosses 4096, and every 256th counter ends the
    # message in a NUL byte; this is the X9.63 KDF path
    token = bytes(range(token_len))
    count = 4096 + token_len
    digests = _digests(token, count)
    assert isinstance(digests, ctypes.Array)
    assert bytes(digests) == _hashlib_digests(token, count)


@pytest.mark.parametrize("token_len", range(1, 81))
def test_digest_blocks_match_hashlib_on_fallback(hashlib_fallback, token_len):
    token = bytes(range(token_len))
    count = 4096 + token_len
    digests = _digests(token, count)
    assert isinstance(digests, bytes)
    assert digests == _hashlib_digests(token, count)


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097])
def test_digests_at_counts(count):
    digests = _digests(TOKEN, count)
    assert isinstance(digests, ctypes.Array)
    assert bytes(digests) == _hashlib_digests(TOKEN, count)


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097])
def test_digests_at_counts_on_fallback(hashlib_fallback, count):
    assert _digests(TOKEN, count) == _hashlib_digests(TOKEN, count)


def test_kdf_output_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(transform_module, "_KDF_MAX_BYTES", 32 * 100)
    assert isinstance(_digests(TOKEN, 100), ctypes.Array)
    assert _digests(TOKEN, 101) == _hashlib_digests(TOKEN, 101)


def test_failed_kdf_call_falls_back(monkeypatch):
    # the failing call scribbles on its buffer first; neither that buffer nor
    # a zero-filled one may come back
    lib = _openssl.libcrypto()
    _, sha256 = _openssl.sha256_kdf()
    cleared = []

    def failing_kdf(out, outlen, *args):
        ctypes.memset(out, 0xFF, outlen)
        return 0

    class ClearRecorder:
        def __getattr__(self, name):
            return getattr(lib, name)

        def ERR_clear_error(self):
            cleared.append(True)

    monkeypatch.setattr(_openssl, "sha256_kdf", lambda: (failing_kdf, sha256))
    monkeypatch.setattr(_openssl, "libcrypto", lambda: ClearRecorder())
    assert _digests(TOKEN, 4097) == _hashlib_digests(TOKEN, 4097)
    assert cleared
    try:
        _assert_arrangement_frozen_reference()
    finally:
        _arrangement.cache_clear()


def test_missing_kdf_keeps_the_bignum_binding(monkeypatch):
    # a libcrypto built without deprecated or EC APIs lacks ECDH_KDF_X9_62;
    # only the digests may fall back, not modexp
    real_cdll = ctypes.CDLL
    exponentiations = []

    class NoKdf:
        def __init__(self, path):
            self._lib = real_cdll(path)

        def __getattr__(self, name):
            if name == "ECDH_KDF_X9_62":
                raise AttributeError(name)
            fn = getattr(self._lib, name)
            if name == "BN_mod_exp_mont_consttime":
                exponentiations.append(fn)
            return fn

    _openssl.libcrypto.cache_clear()
    _openssl.sha256_kdf.cache_clear()
    monkeypatch.setattr(_openssl.ctypes, "CDLL", NoKdf)
    try:
        assert _openssl.libcrypto() is not None
        assert _openssl.sha256_kdf() is None
        assert _digests(TOKEN, 4097) == _hashlib_digests(TOKEN, 4097)
        exponentiations.clear()
        assert modexp(3, 2**200 + 1, 2**127 - 1) == pow(3, 2**200 + 1, 2**127 - 1)
        assert exponentiations
    finally:
        _openssl.libcrypto.cache_clear()
        _openssl.sha256_kdf.cache_clear()


def test_arrangement_frozen_reference_through_hashlib_fallback(without_openssl):
    try:
        _assert_arrangement_frozen_reference()
    finally:
        _arrangement.cache_clear()


def test_arrangement_frozen_reference_over_kdf_cap(monkeypatch):
    monkeypatch.setattr(transform_module, "_KDF_MAX_BYTES", 31)
    try:
        _assert_arrangement_frozen_reference()
    finally:
        _arrangement.cache_clear()


def test_index_stream_references_on_fallback(hashlib_fallback):
    assert index_stream(KEY, 1 << 15, 3)[0] == FIRST_INDEX_32768
    stream = index_stream(KEY, 1000, 5000)
    for i in (1, 4095, 4096, 4097, 5000):
        digest = hashlib.sha256(TOKEN + i.to_bytes(8, "big")).digest()
        assert stream[i - 1] == 1 + int.from_bytes(digest, "big") % 1000


def test_index_stream_deterministic_and_ranged():
    a = index_stream(KEY, 100, 500)
    b = index_stream(KEY, 100, 500)
    assert a == b
    assert all(1 <= v <= 100 for v in a)


def test_index_stream_validation():
    with pytest.raises(TransformError):
        index_stream(KEY, 0, 5)
    with pytest.raises(TransformError):
        index_stream(KEY, 5, 0)


@pytest.mark.parametrize("n", sorted(ARRANGEMENT_SHA256))
def test_arrangement_frozen_reference(n):
    # computed afresh, so the X9.63 KDF path, not a cached array, is checked
    _arrangement.cache_clear()
    arr = _arrangement(TOKEN, n)
    assert hashlib.sha256(arr.astype("<i8").tobytes()).hexdigest() == ARRANGEMENT_SHA256[n]


@given(st.binary(min_size=1, max_size=40), st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_arrangement_matches_index_stream_walk(token, k):
    n = 1 << k
    arr = _arrangement(token, n)
    expected = _arrangement_from_stream(index_stream(TransformationKey(token), n, n), n)
    assert arr.dtype == np.int32
    assert not arr.flags.writeable
    assert np.array_equal(arr, expected)


@pytest.mark.parametrize("n", [0, -4, 3, 12, (1 << 15) + 1, 1 << 32])
def test_arrangement_rejects_non_power_of_two_or_oversized(n):
    with pytest.raises(TransformError):
        _arrangement(TOKEN, n)


def test_swap_walkthrough_scripted_stream():
    # first index 5 swaps positions 5 and 1; next index 11 swaps 2 and 11
    n = 15
    stream = [5, 11] + list(range(3, n + 1))  # identity swaps from step 3 on
    arrangement = _arrangement_from_stream(stream, n)

    reference = list(range(n))
    for i, j in enumerate(stream):
        reference[i], reference[j - 1] = reference[j - 1], reference[i]
    assert arrangement.tolist() == reference

    bits = np.zeros(n, dtype=np.uint8)
    bits[0] = 1  # bit at position 1 (1-based)
    out = bits[arrangement]
    assert out[4] == 1 and out.sum() == 1  # moved to position 5


def test_permute_zeros_and_ones_fixed_points():
    zeros = FeatureBitString(np.zeros(1 << 12, dtype=np.uint8), 12)
    ones = FeatureBitString(np.ones(1 << 12, dtype=np.uint8), 12)
    assert permute(zeros, KEY).popcount == 0
    t = permute(ones, KEY)
    assert t.popcount == len(t)
    assert invert(t, KEY) == ones


def test_permute_single_bit_tracks_reference_loop():
    n = 1 << 12
    bits = np.zeros(n, dtype=np.uint8)
    bits[123] = 1
    fbs = FeatureBitString(bits, 12)
    template = permute(fbs, KEY)
    assert template.popcount == 1

    # independent swap-loop oracle
    stream = index_stream(KEY, n, n)
    ref = list(range(n))
    for i, j in enumerate(stream):
        ref[i], ref[j - 1] = ref[j - 1], ref[i]
    expected_position = ref.index(123)
    assert template.bits[expected_position] == 1


def test_permute_preserves_popcount_and_label(rng):
    fbs = _random_fbs(rng)
    template = permute(fbs, KEY)
    assert template.popcount == fbs.popcount
    assert len(template) == len(fbs)


def test_template_never_equals_feature_string(rng):
    fbs = _random_fbs(rng, n_p=12)
    template = permute(fbs, KEY)
    plain = FeatureBitString(template.bits, template.n_p)
    assert not template == plain
    assert not plain == template
    assert template != plain and plain != template
    assert template == permute(fbs, KEY)


def test_invert_roundtrip_large(rng):
    fbs = _random_fbs(rng, n_p=15)
    assert invert(permute(fbs, KEY), KEY) == fbs


@given(st.integers(0, 2**32 - 1), st.integers(3, 8))
@settings(max_examples=30, deadline=None)
def test_invert_roundtrip_property(seed, n_p):
    rng = np.random.default_rng(seed)
    fbs = _random_fbs(rng, n_p=n_p)
    key = TransformationKey(rng.bytes(16))
    assert invert(permute(fbs, key), key) == fbs


def test_mismatched_key_roundtrip_differs(rng):
    fbs = _random_fbs(rng, n_p=12)
    template = permute(fbs, KEY)
    for _ in range(100):
        wrong = TransformationKey(rng.bytes(16))
        assert invert(template, wrong) != fbs


def test_permute_deterministic_bytes(rng):
    fbs = _random_fbs(rng, n_p=12)
    assert permute(fbs, KEY).serialize() == permute(fbs, KEY).serialize()


def test_templates_under_independent_keys_decorrelate(rng):
    # with density 1/2, two independent permutations should disagree on
    # about half the positions
    fbs = _random_fbs(rng, n_p=15, density=0.5)
    fractions = []
    for _ in range(20):
        t1 = permute(fbs, TransformationKey(rng.bytes(16)))
        t2 = permute(fbs, TransformationKey(rng.bytes(16)))
        fractions.append(np.mean(t1.bits != t2.bits))
    assert 0.47 <= float(np.mean(fractions)) <= 0.53


def test_pipeline_template_from_features(rng):
    mset = synthesize_subject(20, 388, 374, seed=3)
    fbs = extract_features(mset, QuantizationConfig())
    template = permute(fbs, KEY)
    assert template.popcount == fbs.popcount
    assert invert(template, KEY) == fbs


def test_key_validation():
    with pytest.raises(TransformError):
        TransformationKey(b"")


def test_template_serialization_matches_feature_form(rng):
    fbs = _random_fbs(rng, n_p=12)
    template = permute(fbs, KEY)
    blob = template.serialize()
    assert blob[:4] == (1 << 12).to_bytes(4, "big")
    assert FeatureBitString.deserialize(blob).bits.tolist() == template.bits.tolist()


def _assert_track_matches_gather(k):
    # bit strings from empty through sparse and dense to all ones, under
    # tokens of 1, 16 and 57 bytes in turn
    n = 1 << k
    rng = np.random.default_rng(k)
    single = np.zeros(n, dtype=np.uint8)
    single[rng.integers(n)] = 1
    strings = [np.zeros(n, dtype=np.uint8), single, np.ones(n, dtype=np.uint8)]
    strings += [(rng.random(n) < d).astype(np.uint8) for d in (0.01, 0.03, 0.3, 0.5)]
    tokens = [rng.bytes(token_len) for token_len in (1, 16, 57)]
    for i, bits in enumerate(strings):
        token = tokens[i % len(tokens)]
        out = _track(bits, token)
        assert out.dtype == np.uint8
        assert np.array_equal(out, bits[_arrangement(token, n)])


@pytest.mark.parametrize("k", range(16))
def test_track_matches_gather(k):
    _assert_track_matches_gather(k)


@pytest.mark.parametrize("k", range(16))
def test_track_matches_gather_on_fallback(hashlib_fallback, k):
    _assert_track_matches_gather(k)


def test_track_rejects_non_power_of_two():
    with pytest.raises(TransformError):
        _track(np.ones(12, dtype=np.uint8), TOKEN)


def test_permute_twice_under_one_key_builds_no_arrangement(rng):
    fbs = _random_fbs(rng, n_p=15, density=0.02)
    key = TransformationKey(rng.bytes(16))
    _arrangement.cache_clear()
    first = permute(fbs, key)
    second = permute(fbs, key)
    assert _arrangement.cache_info().currsize == 0
    assert first == second
    assert invert(first, key) == fbs
    _arrangement.cache_clear()


def test_session_keys_leave_no_arrangement(ca_env):
    # a session's two fresh keys are tracked: nothing that holds a token
    # outlives the session
    registry, alice, bob = ca_env
    _arrangement.cache_clear()
    outcome = netsim.run_session(
        alice, bob, None, ca_public_key=registry.public_key, seed=31, session_id=7
    )
    assert outcome.established
    assert _arrangement.cache_info().currsize == 0
