import itertools

import numpy as np
import pytest

from biokex.ca import CaRegistry, Identity, RsaKeyPair
from biokex.keyagree import RFC3526_2048
from biokex.minutiae import Minutia, MinutiaeSet, synthesize_subject
from biokex.protocol import (
    MSG_ABORT,
    MSG_CERT,
    MSG_DATA,
    MSG_DH_PUB,
    NONCE_BYTES,
    AbortReason,
    HandshakeAborted,
    IntegrityError,
    MalformedMessageError,
    Phase,
    ProtocolError,
    ProtocolStateError,
    ReplayError,
    SessionEndpoint,
    WireMessage,
)
from biokex.transform import TransformationKey


def _endpoint(ca_env, party, *, initiator, session_id=1, token=b"0123456789abcdef", **kw):
    registry, alice, bob = ca_env
    p = {"alice": alice, "bob": bob}[party]
    return SessionEndpoint(
        p.certificate,
        p.fingerprint,
        registry.public_key,
        initiator=initiator,
        session_id=session_id,
        transform_key=TransformationKey(token + party.encode()),
        **kw,
    )


def _handshake(ca_env, session_id=1, tok_a=b"token-a-0123456", tok_b=b"token-b-0123456"):
    a = _endpoint(ca_env, "alice", initiator=True, session_id=session_id, token=tok_a)
    b = _endpoint(ca_env, "bob", initiator=False, session_id=session_id, token=tok_b)
    cert_a = a.initiate()
    cert_b = b.on_peer_certificate(cert_a)
    assert a.on_peer_certificate(cert_b) is None
    pub_a = a.exchange_dh()
    pub_b = b.exchange_dh()
    sk_b = b.establish(pub_a)
    sk_a = a.establish(pub_b)
    return a, b, sk_a, sk_b


def _verified_alice(ca_env, **kw):
    """Alice's initiator endpoint once she has verified Bob's certificate."""
    a = _endpoint(ca_env, "alice", initiator=True, **kw)
    a.on_peer_certificate(_endpoint(ca_env, "bob", initiator=False).on_peer_certificate(a.initiate()))
    return a


def test_wire_message_roundtrip():
    msg = WireMessage(MSG_DATA, b"payload")
    blob = msg.encode()
    assert blob[0] == MSG_DATA
    assert int.from_bytes(blob[1:5], "big") == 7
    assert WireMessage.decode(blob) == msg


@pytest.mark.parametrize("blob", [b"", b"\x01", b"\x01\x00\x00\x00\x05abc", b"\x09\x00\x00\x00\x00"])
def test_wire_message_malformed(blob):
    with pytest.raises(MalformedMessageError):
        WireMessage.decode(blob)


def test_full_handshake_agrees(ca_env):
    a, b, sk_a, sk_b = _handshake(ca_env)
    assert a.state.phase is Phase.ESTABLISHED
    assert b.state.phase is Phase.ESTABLISHED
    assert sk_a.key == sk_b.key
    assert a.state.peer_identity == Identity("bob")
    assert b.state.peer_identity == Identity("alice")


def test_dh_message_is_261_bytes(ca_env):
    frame = _verified_alice(ca_env).exchange_dh().encode()
    assert len(frame) == 261  # 1 type + 4 length + 256 value


def test_initiate_twice_is_state_error(ca_env):
    a = _endpoint(ca_env, "alice", initiator=True)
    a.initiate()
    with pytest.raises(ProtocolStateError):
        a.initiate()


def test_exchange_dh_requires_verified_peer(ca_env):
    a = _endpoint(ca_env, "alice", initiator=True)
    with pytest.raises(ProtocolStateError):
        a.exchange_dh()


def test_rogue_certificate_aborts(ca_env):
    registry, alice, bob = ca_env
    rogue_registry = CaRegistry(RsaKeyPair.generate(9999))
    mallory_keys = RsaKeyPair.generate(9998)
    rogue_cert = rogue_registry.enroll(Identity("mallory"), mallory_keys.public_der)

    b = _endpoint(ca_env, "bob", initiator=False)
    with pytest.raises(HandshakeAborted) as exc:
        b.on_peer_certificate(WireMessage(MSG_CERT, rogue_cert.encode()))
    assert exc.value.reason is AbortReason.CERT_VERIFICATION
    assert b.state.phase is Phase.FAILED
    assert b.state.abort_reason is AbortReason.CERT_VERIFICATION
    assert exc.value.frame == WireMessage(MSG_ABORT, bytes([AbortReason.CERT_VERIFICATION]))


def test_truncated_certificate_payload_aborts_malformed(ca_env):
    registry, alice, _ = ca_env
    b = _endpoint(ca_env, "bob", initiator=False)
    with pytest.raises(HandshakeAborted) as exc:
        b.on_peer_certificate(WireMessage(MSG_CERT, alice.certificate.encode()[:20]))
    assert b.state.phase is Phase.FAILED
    assert b.state.abort_reason is AbortReason.MALFORMED_MESSAGE
    assert exc.value.frame.msg_type == MSG_ABORT


def test_wrong_handshake_frames_abort_malformed(ca_env):
    malformed = WireMessage(MSG_ABORT, bytes([AbortReason.MALFORMED_MESSAGE]))
    b = _endpoint(ca_env, "bob", initiator=False)
    with pytest.raises(HandshakeAborted) as exc:
        b.on_peer_certificate(WireMessage(MSG_DH_PUB, b""))
    assert (exc.value.reason, exc.value.frame, b.state.phase) == (
        AbortReason.MALFORMED_MESSAGE, malformed, Phase.FAILED)
    a = _verified_alice(ca_env)
    a.exchange_dh()
    with pytest.raises(HandshakeAborted) as exc:
        a.establish(WireMessage(MSG_DH_PUB, b"\x02" * 255))
    assert (exc.value.reason, exc.value.frame, a.state.phase) == (
        AbortReason.MALFORMED_MESSAGE, malformed, Phase.FAILED)


def test_feature_extraction_failure_aborts(ca_env):
    registry, alice, _ = ca_env
    # two minutiae at one position: every pair is degenerate
    degenerate = MinutiaeSet(
        "stub", 0, 10, 10, (Minutia(5, 5, 0.0), Minutia(5, 5, 180.0))
    )
    a = SessionEndpoint(
        alice.certificate, degenerate, registry.public_key,
        initiator=True, transform_key=TransformationKey(b"x" * 16),
    )
    b = _endpoint(ca_env, "bob", initiator=False)
    cert_b = b.on_peer_certificate(a.initiate())
    a.on_peer_certificate(cert_b)
    with pytest.raises(HandshakeAborted) as exc:
        a.exchange_dh()
    assert exc.value.frame.msg_type == MSG_ABORT
    assert a.state.abort_reason is AbortReason.FEATURE_EXTRACTION


def test_degenerate_peer_public_value_aborts(ca_env):
    a = _verified_alice(ca_env)
    a.exchange_dh()
    with pytest.raises(HandshakeAborted) as exc:
        a.establish(WireMessage(MSG_DH_PUB, (1).to_bytes(256, "big")))
    assert exc.value.reason is AbortReason.DEGENERATE_PUBLIC_KEY
    assert exc.value.frame.payload == bytes([AbortReason.DEGENERATE_PUBLIC_KEY])


def test_non_residue_peer_public_value_aborts(ca_env):
    # 11 is a quadratic non-residue mod the RFC 3526 prime; accepting it would
    # leak the parity of the private exponent
    a = _verified_alice(ca_env)
    a.exchange_dh()
    with pytest.raises(HandshakeAborted, match="not a quadratic residue") as exc:
        a.establish(WireMessage(MSG_DH_PUB, (11).to_bytes(256, "big")))
    assert exc.value.reason is AbortReason.DEGENERATE_PUBLIC_KEY
    assert a.state.phase is Phase.FAILED


def test_exchange_dh_fails_closed_on_key_agreement_failure(ca_env, fail_modexp):
    a = _verified_alice(ca_env)
    fail_modexp()
    with pytest.raises(HandshakeAborted) as exc:
        a.exchange_dh()
    assert exc.value.frame.payload == bytes([AbortReason.KEY_AGREEMENT])
    assert (a.state.phase, a.state.abort_reason) == (Phase.FAILED, AbortReason.KEY_AGREEMENT)
    assert AbortReason.KEY_AGREEMENT.label == "key-agreement"


def test_establish_fails_closed_on_key_agreement_failure(ca_env, fail_modexp):
    a = _verified_alice(ca_env)
    a.exchange_dh()
    fail_modexp()
    with pytest.raises(HandshakeAborted) as exc:
        a.establish(WireMessage(MSG_DH_PUB, pow(2, 12345, RFC3526_2048.q).to_bytes(256, "big")))
    assert exc.value.reason is AbortReason.KEY_AGREEMENT
    assert a.state.phase is Phase.FAILED
    assert exc.value.frame.payload == bytes([AbortReason.KEY_AGREEMENT])


def test_seal_open_roundtrip_including_empty(ca_env):
    a, b, _, _ = _handshake(ca_env)
    for plaintext in (b"", b"x", b"a longer message body", bytes(range(256))):
        assert b.open(a.seal(plaintext)) == plaintext
        assert a.open(b.seal(plaintext)) == plaintext


def test_replay_same_message_rejected(ca_env):
    a, b, _, _ = _handshake(ca_env)
    sealed = a.seal(b"only once please")
    assert b.open(sealed) == b"only once please"
    with pytest.raises(ReplayError):
        b.open(sealed)


def test_stale_counter_rejected(ca_env):
    a, b, _, _ = _handshake(ca_env)
    first = a.seal(b"first in flight")
    second = a.seal(b"second in flight")
    assert b.open(second) == b"second in flight"
    with pytest.raises(ReplayError):
        b.open(first)


def test_reflected_message_rejected(ca_env):
    a, b, _, _ = _handshake(ca_env)
    sealed = a.seal(b"do not bounce this back")
    with pytest.raises(ReplayError, match="direction"):
        a.open(sealed)


def test_cross_session_ciphertext_fails_integrity(ca_env):
    a1, b1, _, _ = _handshake(ca_env, session_id=1, tok_a=b"fresh-a-1-xxxxx", tok_b=b"fresh-b-1-xxxxx")
    a2, b2, _, _ = _handshake(ca_env, session_id=2, tok_a=b"fresh-a-2-xxxxx", tok_b=b"fresh-b-2-xxxxx")
    sealed = a1.seal(b"bound to session one")
    with pytest.raises(IntegrityError):
        b2.open(sealed)


def test_fresh_transform_keys_change_public_and_session_keys(ca_env):
    a1, _, sk1, _ = _handshake(ca_env, session_id=1, tok_a=b"fresh-a-1-xxxxx", tok_b=b"fresh-b-1-xxxxx")
    a2, _, sk2, _ = _handshake(ca_env, session_id=2, tok_a=b"fresh-a-2-xxxxx", tok_b=b"fresh-b-2-xxxxx")
    assert sk1.key != sk2.key


def test_fresh_keys_differ_at_dh_stage(ca_env):
    frames = []
    for tok in (b"fresh-a-1-xxxxx", b"fresh-a-2-xxxxx"):
        frames.append(_verified_alice(ca_env, token=tok).exchange_dh().payload)
    assert frames[0] != frames[1]


def test_nonce_uniqueness_over_session_trace(ca_env):
    a, b, _, _ = _handshake(ca_env)
    nonces = set()
    for i in range(50):
        sealed = a.seal(b"tick %d" % i)
        nonces.add(sealed.payload[:NONCE_BYTES])
        b.open(sealed)
        back = b.seal(b"tock %d" % i)
        nonces.add(back.payload[:NONCE_BYTES])
        a.open(back)
    assert len(nonces) == 100


def test_close_drops_session_key_and_is_idempotent(ca_env):
    a, _, _, _ = _handshake(ca_env)
    a.close()
    assert a._aead is None and a._private_key is None
    a.close()
    with pytest.raises(ProtocolStateError):
        a.seal(b"after close")


def test_open_rejects_malformed_data_frames(ca_env):
    a, b, _, _ = _handshake(ca_env)
    sealed = a.seal(b"framed")
    assert sealed.msg_type == MSG_DATA
    assert len(sealed.payload) == NONCE_BYTES + len(b"framed") + 16
    with pytest.raises(MalformedMessageError, match="expected data frame"):
        b.open(WireMessage(MSG_DH_PUB, sealed.payload))
    with pytest.raises(MalformedMessageError, match="shorter than nonce plus tag"):
        b.open(WireMessage(MSG_DATA, sealed.payload[:NONCE_BYTES + 15]))
    # framing is checked before the phase
    idle = _endpoint(ca_env, "bob", initiator=False)
    with pytest.raises(MalformedMessageError):
        idle.open(WireMessage(MSG_DATA, b"short"))
    with pytest.raises(ProtocolStateError):
        idle.open(sealed)
    assert b.open(sealed) == b"framed"


def test_never_established_without_verified_certificate(ca_env):
    """Small-model enumeration: over every ordering of incoming messages (a
    valid certificate, a rogue certificate, a well-formed DH public value, an
    abort), the endpoint only ever reaches Established after a successful
    certificate verification."""
    registry, alice, bob = ca_env
    rogue_registry = CaRegistry(RsaKeyPair.generate(31337))
    rogue_cert = rogue_registry.enroll(Identity("eve"), RsaKeyPair.generate(31338).public_der)

    inputs = {
        "valid_cert": WireMessage(MSG_CERT, alice.certificate.encode()),
        "bad_cert": WireMessage(MSG_CERT, rogue_cert.encode()),
        # 2**12345 mod q: a value an honest peer could send; a bare 12345 is a
        # quadratic non-residue, which establish refuses
        "pub": WireMessage(MSG_DH_PUB, pow(2, 12345, RFC3526_2048.q).to_bytes(256, "big")),
        "abort": WireMessage(MSG_ABORT, b"\x01"),
    }

    reachable = 0
    for length in (1, 2, 3):
        for combo in itertools.product(inputs, repeat=length):
            endpoint = _endpoint(ca_env, "bob", initiator=False)
            verified = False
            for name in combo:
                msg = inputs[name]
                try:
                    if msg.msg_type == MSG_CERT:
                        endpoint.on_peer_certificate(msg)
                        if endpoint.state.phase is Phase.PEER_VERIFIED:
                            verified = True
                            endpoint.exchange_dh()  # driver emits its value once verified
                    elif msg.msg_type == MSG_DH_PUB:
                        endpoint.establish(msg)
                except ProtocolError:
                    pass
                if endpoint.state.phase is Phase.ESTABLISHED:
                    assert verified, f"established without verification via {combo}"
            if endpoint.state.phase is Phase.ESTABLISHED:
                reachable += 1
            elif endpoint.state.phase in (Phase.IDLE, Phase.CERT_SENT):
                with pytest.raises(ProtocolStateError):
                    endpoint.exchange_dh()
    assert reachable > 0  # the model does reach Established on honest orderings
