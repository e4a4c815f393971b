"""Two-party session handshake and authenticated messaging.

Order of play: certificates are exchanged and verified first, so a
certificate substituted by an interposed attacker is refused; then each
side derives a fresh DH key pair in the RFC 3526 2048-bit group from its
fingerprint under a per-session transformation key and exchanges the
256-byte public value, then both compute the same 256-bit session key.
Data flows under AES-256-GCM with counter nonces.

The DH public values are not signed: nothing binds them to the verified
certificates, so a relay that forwards the genuine certificates and swaps
the DH values is not detected.

Fresh transformation keys per session are the point: the DH exponent is a
deterministic function of (fingerprint, transformation key), so reusing a
transformation key would reuse the exponent and one compromised session
would expose its siblings. With a fresh key each time, a leaked session key
unlocks exactly one transcript.

Failure contract: each handshake step returns what it produces (the frame
to send, or from ``establish`` the session key) or raises. A step called in
the wrong phase raises :class:`ProtocolStateError` and changes nothing. Any
other failure sets phase ``FAILED`` and ``abort_reason``, then raises
:class:`HandshakeAborted`, which carries the ``reason`` and the abort
``frame`` for the caller to send. No step returns an abort frame.

A data frame is a ``MSG_DATA`` message whose payload is the 12-byte nonce,
the ciphertext and the 16-byte tag. Nonces are 96-bit big-endian counters
with the initiator counting from 0 and the responder from 2**95, so the two
directions can never collide under the shared key. ``open`` checks the frame
type and length, the phase, the nonce direction and counter, and only then
the tag: a received counter at or below the last one seen is a replay and is
rejected before decryption.

One endpoint per session, driven sequentially by its owner (mailbox
contract); independent sessions are independent objects.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import NoReturn

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .ca import Certificate, Identity, MalformedCertificateError, CaError, verify_certificate
from .features import FeatureError, QuantizationConfig
from .keyagree import (
    PUBLIC_KEY_BYTES,
    DegenerateKeyError,
    KeyAgreementError,
    PublicKey,
    RFC3526_2048,
    SessionKey,
    session_key,
    shared_secret,
)
from .minutiae import MinutiaeSet
from .pipeline import keypair_from_minutiae
from .transform import TransformationKey

__all__ = [
    "MSG_CERT",
    "MSG_DH_PUB",
    "MSG_DATA",
    "MSG_ABORT",
    "NONCE_BYTES",
    "Phase",
    "AbortReason",
    "WireMessage",
    "HandshakeState",
    "SessionEndpoint",
    "ProtocolError",
    "ProtocolStateError",
    "MalformedMessageError",
    "IntegrityError",
    "ReplayError",
    "HandshakeAborted",
]

MSG_CERT = 0x01
MSG_DH_PUB = 0x02
MSG_DATA = 0x03
MSG_ABORT = 0x04

NONCE_BYTES = 12
_TAG_BYTES = 16
_RESPONDER_NONCE_BASE = 1 << 95


class ProtocolError(Exception):
    """Session protocol failure."""


class ProtocolStateError(ProtocolError):
    """Operation invoked in the wrong handshake phase."""


class MalformedMessageError(ProtocolError):
    """Framing or payload does not parse."""


class IntegrityError(ProtocolError):
    """Authentication tag failure."""


class ReplayError(ProtocolError):
    """Stale, duplicate, or wrong-direction nonce."""


class HandshakeAborted(ProtocolError):
    """Handshake failed; carries the machine-readable reason and the abort
    frame that tells the peer."""

    def __init__(self, reason: "AbortReason", detail: str = ""):
        super().__init__(f"handshake aborted: {reason.name.lower()} {detail}".rstrip())
        self.reason = reason
        self.frame = WireMessage(MSG_ABORT, bytes([int(reason)]))


class Phase(enum.Enum):
    IDLE = "idle"
    CERT_SENT = "cert_sent"
    PEER_VERIFIED = "peer_verified"
    PUBKEY_SENT = "pubkey_sent"
    ESTABLISHED = "established"
    FAILED = "failed"
    CLOSED = "closed"


class AbortReason(enum.IntEnum):
    CERT_VERIFICATION = 1
    MALFORMED_MESSAGE = 2
    DEGENERATE_PUBLIC_KEY = 3
    FEATURE_EXTRACTION = 4
    KEY_AGREEMENT = 5

    @property
    def label(self) -> str:
        return {
            AbortReason.CERT_VERIFICATION: "certificate-verification",
            AbortReason.MALFORMED_MESSAGE: "malformed-message",
            AbortReason.DEGENERATE_PUBLIC_KEY: "degenerate-public-key",
            AbortReason.FEATURE_EXTRACTION: "feature-extraction",
            AbortReason.KEY_AGREEMENT: "key-agreement",
        }[self]


@dataclass(frozen=True)
class WireMessage:
    """Framed message: type byte, u32 big-endian payload length, payload."""

    msg_type: int
    payload: bytes

    def encode(self) -> bytes:
        return struct.pack(">BI", self.msg_type, len(self.payload)) + self.payload

    @classmethod
    def decode(cls, buf: bytes) -> "WireMessage":
        if len(buf) < 5:
            raise MalformedMessageError(f"frame too short ({len(buf)} bytes)")
        msg_type, length = struct.unpack(">BI", buf[:5])
        if msg_type not in (MSG_CERT, MSG_DH_PUB, MSG_DATA, MSG_ABORT):
            raise MalformedMessageError(f"unknown message type 0x{msg_type:02x}")
        if len(buf) != 5 + length:
            raise MalformedMessageError(
                f"payload length {len(buf) - 5} does not match prefix {length}"
            )
        return cls(msg_type, buf[5:])


@dataclass
class HandshakeState:
    phase: Phase = Phase.IDLE
    peer_identity: Identity | None = None
    send_counter: int = 0
    recv_counter: int = -1
    abort_reason: AbortReason | None = None


class SessionEndpoint:
    """One party's view of one session.

    The initiator calls ``initiate``; both sides then feed peer messages to
    ``on_peer_certificate`` / ``establish`` and emit with ``exchange_dh``.
    Each step returns the frame to send (``None`` from the initiator's
    ``on_peer_certificate``) or raises :class:`HandshakeAborted`, whose
    ``frame`` is the abort to send, with phase ``FAILED``. Once established,
    ``seal`` makes data frames and ``open`` reads them. Private key material
    lives only in memory. ``exchange_dh`` drops the transformation key and
    the fingerprint, from which the DH private key could be recomputed, on
    success and on abort alike. ``close`` drops this endpoint's references to
    those two (if ``exchange_dh`` never ran), to the DH private key and to
    the AES-GCM context keyed by the session key, and leaves the endpoint
    unusable in phase ``CLOSED`` (or ``FAILED``, if it had failed); it cannot
    wipe them, because CPython ``bytes`` are immutable and the
    :class:`SessionKey` returned by ``establish`` stays with the caller.
    """

    def __init__(
        self,
        certificate: Certificate,
        fingerprint: MinutiaeSet,
        ca_public_key,
        *,
        initiator: bool,
        session_id: int = 0,
        cfg: QuantizationConfig = QuantizationConfig(),
        transform_key: TransformationKey,
    ):
        self.certificate = certificate
        self.fingerprint: MinutiaeSet | None = fingerprint
        self.ca_public_key = ca_public_key
        self.initiator = initiator
        self.session_id = session_id
        self.cfg = cfg
        self.transform_key: TransformationKey | None = transform_key
        self.state = HandshakeState()
        self._private_key = None
        self._aead: AESGCM | None = None

    # -- handshake ---------------------------------------------------------

    def initiate(self) -> WireMessage:
        """Send our certificate; Idle -> CertSent."""
        if self.state.phase is not Phase.IDLE:
            raise ProtocolStateError(f"initiate in phase {self.state.phase.value}")
        self.state.phase = Phase.CERT_SENT
        return WireMessage(MSG_CERT, self.certificate.encode())

    def on_peer_certificate(self, msg: WireMessage) -> WireMessage | None:
        """Verify the peer certificate; emit our own when we are the responder.

        A malformed or unverifiable certificate aborts the handshake.
        """
        if self.state.phase not in (Phase.IDLE, Phase.CERT_SENT):
            raise ProtocolStateError(f"peer certificate in phase {self.state.phase.value}")
        responder = self.state.phase is Phase.IDLE
        if msg.msg_type != MSG_CERT:
            self._abort(AbortReason.MALFORMED_MESSAGE, f"expected cert, got 0x{msg.msg_type:02x}")
        try:
            cert = Certificate.decode(msg.payload)
            identity = verify_certificate(self.ca_public_key, cert)
        except MalformedCertificateError as exc:
            self._abort(AbortReason.MALFORMED_MESSAGE, str(exc))
        except CaError as exc:
            self._abort(AbortReason.CERT_VERIFICATION, str(exc))
        self.state.peer_identity = identity
        self.state.phase = Phase.PEER_VERIFIED
        if responder:
            return WireMessage(MSG_CERT, self.certificate.encode())
        return None

    def exchange_dh(self) -> WireMessage:
        """Derive this session's DH pair from the fingerprint and emit the
        256-byte public value; PeerVerified -> PubKeySent.

        Feature extraction failure (too few usable minutiae) or a failed key
        agreement computation aborts the handshake. On success and on abort
        alike, the fingerprint and the transformation key are dropped.
        """
        if self.state.phase is not Phase.PEER_VERIFIED:
            raise ProtocolStateError(f"exchange_dh in phase {self.state.phase.value}")
        try:
            prv, pub = keypair_from_minutiae(self.fingerprint, self.cfg, self.transform_key)
        except FeatureError as exc:
            self._abort(AbortReason.FEATURE_EXTRACTION, str(exc))
        except KeyAgreementError as exc:
            self._abort(AbortReason.KEY_AGREEMENT, str(exc))
        finally:
            self.fingerprint = self.transform_key = None
        self._private_key = prv
        self.state.phase = Phase.PUBKEY_SENT
        return WireMessage(MSG_DH_PUB, pub.to_bytes())

    def establish(self, peer_pub: WireMessage) -> SessionKey:
        """Consume the peer's public value and derive the session key.

        A malformed or degenerate peer value, or a failed key agreement
        computation, aborts the handshake.
        """
        if self.state.phase is not Phase.PUBKEY_SENT:
            raise ProtocolStateError(f"establish in phase {self.state.phase.value}")
        if peer_pub.msg_type != MSG_DH_PUB or len(peer_pub.payload) != PUBLIC_KEY_BYTES:
            self._abort(AbortReason.MALFORMED_MESSAGE, "bad public key frame")
        try:
            value = PublicKey.from_bytes(peer_pub.payload)
            intermediate = shared_secret(RFC3526_2048, self._private_key, value)
        except DegenerateKeyError as exc:
            self._abort(AbortReason.DEGENERATE_PUBLIC_KEY, str(exc))
        except KeyAgreementError as exc:
            self._abort(AbortReason.KEY_AGREEMENT, str(exc))
        sk = session_key(intermediate, self.session_id)
        self._private_key = None
        self._aead = AESGCM(sk.key)
        self.state.phase = Phase.ESTABLISHED
        return sk

    # -- established traffic -------------------------------------------------

    def seal(self, plaintext: bytes) -> WireMessage:
        """Encrypt under the next send counter into a data frame."""
        if self.state.phase is not Phase.ESTABLISHED:
            raise ProtocolStateError(f"seal in phase {self.state.phase.value}")
        base = 0 if self.initiator else _RESPONDER_NONCE_BASE
        nonce = (base | self.state.send_counter).to_bytes(NONCE_BYTES, "big")
        self.state.send_counter += 1
        return WireMessage(MSG_DATA, nonce + self._aead.encrypt(nonce, plaintext, None))

    def open(self, msg: WireMessage) -> bytes:
        """Authenticate and decrypt the peer's next data frame."""
        if msg.msg_type != MSG_DATA:
            raise MalformedMessageError(f"expected data frame, got 0x{msg.msg_type:02x}")
        if len(msg.payload) < NONCE_BYTES + _TAG_BYTES:
            raise MalformedMessageError("data frame shorter than nonce plus tag")
        if self.state.phase is not Phase.ESTABLISHED:
            raise ProtocolStateError(f"open in phase {self.state.phase.value}")
        nonce = msg.payload[:NONCE_BYTES]
        nonce_value = int.from_bytes(nonce, "big")
        peer_base = _RESPONDER_NONCE_BASE if self.initiator else 0
        if (nonce_value & _RESPONDER_NONCE_BASE) != peer_base:
            raise ReplayError("nonce from wrong direction")
        counter = nonce_value & (_RESPONDER_NONCE_BASE - 1)
        if counter <= self.state.recv_counter:
            raise ReplayError(f"nonce counter {counter} already seen")
        try:
            plaintext = self._aead.decrypt(nonce, msg.payload[NONCE_BYTES:], None)
        except InvalidTag:
            raise IntegrityError("authentication tag mismatch") from None
        self.state.recv_counter = counter
        return plaintext

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Drop the key material and what could recompute it, and end the
        session; idempotent. The phase becomes ``CLOSED``, except that a
        failed endpoint stays ``FAILED`` and keeps its ``abort_reason``."""
        self._aead = None
        self._private_key = None
        self.fingerprint = self.transform_key = None
        if self.state.phase is not Phase.FAILED:
            self.state.phase = Phase.CLOSED

    # -- helpers ---------------------------------------------------------------

    def _abort(self, reason: AbortReason, detail: str = "") -> NoReturn:
        self.state.phase = Phase.FAILED
        self.state.abort_reason = reason
        raise HandshakeAborted(reason, detail) from None
