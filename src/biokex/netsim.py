"""In-process two-party network with adversary hooks.

The channel is the only exchange point between parties: per-direction FIFO
queues, an optional adversary interception hook, and a transcript of
delivered frames. Everything is seeded, and every frame is sent and
delivered from the caller's thread in one fixed order. Only the two
parties' key-pair derivations (``exchange_dh``) run side by side, as on two
hosts (:func:`pipeline.side_by_side`): each reads only its own endpoint and
the transformation key drawn for it before the split, and the initiator's
failure is the one reported whenever it fails. So a scenario's outcome is
exactly reproducible and independent of scheduling.

Adversary modes:

* passive: records every frame, alters nothing.
* mitm: substitutes its own certificate (signed by a rogue authority)
  for each certificate frame.
* replay: captures one session's ciphertext and tries to open it under the
  key of the next session between the same parties.
* host-compromise: captures three sessions and obtains the key of the
  middle one, as if that host's memory were dumped mid-session.

The endpoints alone verify certificates; the simulator checks none itself.

"Attacker learned X" is operationalized as: the bytes of X occur in what
the adversary can read, which is the clear frames it captured
(certificates, DH values, aborts), the keys it stole, and what those keys
open of its captured data frames. A ciphertext is opaque without its key
(Dolev-Yao), so ciphertext bytes are not knowledge: a plaintext that occurs
only inside them is not learned. That is a falsifiable predicate, not an
information-theoretic claim; ``AdversaryPolicy.learned`` is the one check.

Biometric data never enters any persisted or captured state; an adversary
resident in a host's memory during capture is outside this model.
"""

from __future__ import annotations

import enum
import hashlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .ca import CaRegistry, Certificate, Identity, RsaKeyPair
from .features import QuantizationConfig
from .minutiae import SENSOR_HEIGHT, SENSOR_WIDTH, MinutiaeSet, synthesize_subject
from .pipeline import side_by_side
from .protocol import (
    MSG_CERT,
    MSG_DATA,
    NONCE_BYTES,
    AbortReason,
    HandshakeAborted,
    SessionEndpoint,
    WireMessage,
)
from .transform import TransformationKey

__all__ = [
    "AdversaryMode",
    "AdversaryPolicy",
    "Channel",
    "PartyConfig",
    "SessionOutcome",
    "SessionRecord",
    "Scenario",
    "ScenarioRecord",
    "SimulationError",
    "format_transcript",
    "make_environment",
    "make_enrolled_party",
    "run_session",
    "load_scenario",
    "run_scenario",
]

_DEFAULT_PLAINTEXTS = (
    ("a->b", b"meet at the north gate at nine"),
    ("b->a", b"confirmed, bring the documents"),
)

# minutiae in every simulated party's fingerprint
_PARTY_MINUTIAE = 30


class SimulationError(ValueError):
    """Bad scenario file or channel use."""


class AdversaryMode(enum.Enum):
    PASSIVE = "passive"
    REPLAY = "replay"
    MITM = "mitm"
    HOST_COMPROMISE = "host-compromise"


@dataclass
class AdversaryPolicy:
    """Attacker behavior plus everything the attacker has stored."""

    mode: AdversaryMode = AdversaryMode.PASSIVE
    captured: list[tuple[str, bytes]] = field(default_factory=list)
    attacker_certificate: Certificate | None = None
    stolen: list[bytes] = field(default_factory=list)

    def intercept(self, direction: str, frame: bytes) -> bytes:
        self.captured.append((direction, frame))
        if self.mode is AdversaryMode.MITM:
            msg = WireMessage.decode(frame)
            if msg.msg_type == MSG_CERT and self.attacker_certificate is not None:
                return WireMessage(MSG_CERT, self.attacker_certificate.encode()).encode()
        return frame

    def state_blob(self) -> bytes:
        """Captured clear frames, stolen keys, then what each stolen key opens."""
        clear = [f for _, f in self.captured if WireMessage.decode(f).msg_type != MSG_DATA]
        opened = [p for k in self.stolen for p in _opened_frames(k, self.captured) if p is not None]
        return b"".join(clear) + b"".join(self.stolen) + b"".join(opened)

    def knows(self, material: bytes) -> bool:
        return material in self.state_blob()

    def learned(self, keys: list[bytes], plaintexts: list[bytes]) -> tuple[bool, bool]:
        """Whether any key, and any plaintext, occurs in one snapshot of what it can read."""
        blob = self.state_blob()
        return any(k in blob for k in keys), any(p in blob for p in plaintexts)


def _opened_frames(key: bytes, frames: list[tuple[str, bytes]]) -> list[bytes | None]:
    """Each data frame's AES-GCM plaintext under ``key``, or None where the tag fails."""
    aead = AESGCM(key)
    opened: list[bytes | None] = []
    for _, frame in frames:
        msg = WireMessage.decode(frame)
        if msg.msg_type == MSG_DATA:
            nonce, sealed = msg.payload[:NONCE_BYTES], msg.payload[NONCE_BYTES:]
            try:
                opened.append(aead.decrypt(nonce, sealed, None))
            except InvalidTag:
                opened.append(None)
    return opened


def format_transcript(transcript: list[tuple[str, bytes]]) -> str:
    """Newline-delimited ``"<direction> <hex frame>"`` records, one per frame."""
    return "\n".join(f"{d} {f.hex()}" for d, f in transcript) + "\n"


class Channel:
    """Lossless in-order per-direction queues with adversary interception."""

    def __init__(self, adversary: AdversaryPolicy | None = None):
        self.adversary = adversary
        self.queues: dict[str, deque[bytes]] = {"a->b": deque(), "b->a": deque()}
        self.delivered_log: list[tuple[str, bytes]] = []

    def send(self, direction: str, msg: WireMessage) -> None:
        if direction not in self.queues:
            raise SimulationError(f"unknown direction {direction!r}")
        self.queues[direction].append(msg.encode())

    def deliver(self, direction: str) -> WireMessage:
        if not self.queues.get(direction):
            raise SimulationError(f"nothing queued on {direction!r}")
        frame = self.queues[direction].popleft()
        if self.adversary is not None:
            frame = self.adversary.intercept(direction, frame)
        self.delivered_log.append((direction, frame))
        return WireMessage.decode(frame)


@dataclass
class PartyConfig:
    """Everything one enrolled party brings to a session."""

    identity: Identity
    keypair: RsaKeyPair
    certificate: Certificate
    fingerprint: MinutiaeSet


@dataclass
class SessionOutcome:
    established: bool
    attacker_learned_key: bool
    attacker_learned_plaintext: bool
    failure_reason: AbortReason | None
    session_id: int
    record: "SessionRecord | None" = None
    transcript: list[tuple[str, bytes]] = field(default_factory=list)


@dataclass
class SessionRecord:
    """Retained by the simulator for offline analysis (test instrumentation;
    the parties themselves drop their key material at teardown)."""

    key: bytes
    plaintexts: list[tuple[str, bytes]]


def make_environment(seed: int, directory: str | Path | None = None) -> CaRegistry:
    """CA with a deterministic key pair derived from the seed, in memory or
    started in a CA directory (:meth:`CaRegistry.create`)."""
    ca_seed = int(np.random.SeedSequence([seed, 0xCA]).generate_state(1, np.uint64)[0])
    keypair = RsaKeyPair.generate(ca_seed)
    return CaRegistry(keypair) if directory is None else CaRegistry.create(directory, keypair)


def make_enrolled_party(
    registry: CaRegistry, user_id: str, seed: int, *, now: int | None = 0
) -> PartyConfig:
    """Synthesize a subject, generate an Ed25519 pair, and enroll with the CA."""
    uid_tag = int.from_bytes(hashlib.sha256(user_id.encode("utf-8")).digest()[:4], "big")
    ss = np.random.SeedSequence([seed, uid_tag])
    key_seed, fp_seed = (int(v) for v in ss.generate_state(2, np.uint64))
    identity = Identity(user_id)
    keypair = RsaKeyPair.generate(key_seed)
    certificate = registry.enroll(identity, keypair.public_der, now=now)
    fingerprint = synthesize_subject(
        _PARTY_MINUTIAE, SENSOR_WIDTH, SENSOR_HEIGHT, fp_seed, subject_id=user_id
    )
    return PartyConfig(identity, keypair, certificate, fingerprint)


def run_session(
    a: PartyConfig,
    b: PartyConfig,
    adversary: AdversaryPolicy | None,
    *,
    ca_public_key,
    session_id: int = 0,
    seed: int = 0,
    cfg: QuantizationConfig = QuantizationConfig(),
    plaintexts: tuple = _DEFAULT_PLAINTEXTS,
) -> SessionOutcome:
    """Drive one full session between two enrolled parties.

    Fresh transformation keys are drawn per party from the session seed, so
    re-running the same parties under a new seed or session id yields
    unrelated key material. The session is established exactly when it
    yields a record; both endpoints are closed however it ends. Only the
    endpoints verify certificates, under ``ca_public_key``: a party whose
    certificate this CA did not sign fails with a certificate-verification
    abort, as its peer sees it on the wire.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, session_id]))
    ep_a, ep_b = (
        SessionEndpoint(
            party.certificate, party.fingerprint, ca_public_key, initiator=side == "a",
            session_id=session_id, cfg=cfg, transform_key=TransformationKey.random(rng),
        )
        for side, party in (("a", a), ("b", b))
    )
    channel = Channel(adversary)
    record: SessionRecord | None = None
    failure: AbortReason | None = None
    try:
        # certificates first; a side that refuses one still sends its abort
        # frame, which is delivered in its own direction
        channel.send("a->b", ep_a.initiate())
        refusing = "b->a"
        try:
            channel.send("b->a", ep_b.on_peer_certificate(channel.deliver("a->b")))
            refusing = "a->b"
            ep_a.on_peer_certificate(channel.deliver("b->a"))
        except HandshakeAborted as exc:
            channel.send(refusing, exc.frame)
            channel.deliver(refusing)
            raise

        # DH public values, each side deriving its pair from its own
        # fingerprint and key; an abort here sends no frame, and a's is the
        # one reported when both sides abort
        pub_a, pub_b = side_by_side(ep_a.exchange_dh, ep_b.exchange_dh)
        channel.send("a->b", pub_a)
        channel.send("b->a", pub_b)
        sk_b = ep_b.establish(channel.deliver("a->b"))
        sk_a = ep_a.establish(channel.deliver("b->a"))

        # scripted traffic
        if sk_a.key == sk_b.key:
            delivered: list[tuple[str, bytes]] = []
            for direction, plaintext in plaintexts:
                sender, receiver = (ep_a, ep_b) if direction == "a->b" else (ep_b, ep_a)
                channel.send(direction, sender.seal(plaintext))
                delivered.append((direction, receiver.open(channel.deliver(direction))))
            record = SessionRecord(sk_a.key, delivered)
    except HandshakeAborted as exc:
        failure = exc.reason
    finally:
        ep_a.close()
        ep_b.close()

    learned_key, learned_plaintext = (False, False) if adversary is None else adversary.learned(
        [record.key] if record is not None else [], [p for _, p in plaintexts]
    )
    return SessionOutcome(
        established=record is not None,
        attacker_learned_key=learned_key,
        attacker_learned_plaintext=learned_plaintext,
        failure_reason=failure,
        session_id=session_id,
        record=record,
        transcript=list(channel.delivered_log),
    )


# --- scenarios --------------------------------------------------------------


@dataclass
class Scenario:
    mode: AdversaryMode
    party_a: str = "alice"
    party_b: str = "bob"
    messages: tuple = _DEFAULT_PLAINTEXTS
    seed: int = 0


@dataclass
class ScenarioRecord:
    """One line per assertion, ``name=value``."""

    assertions: list[tuple[str, str]]

    def to_lines(self) -> list[str]:
        return [f"{name}={value}" for name, value in self.assertions]

    def get(self, name: str) -> str:
        return dict(self.assertions)[name]


def load_scenario(text: str) -> Scenario:
    """Parse the scenario definition format.

    Lines: ``adversary <mode>``, ``party <a|b> <user_id>``,
    ``message <a->b|b->a> <text>``, ``seed <digits>``; ``#`` comments ignored.
    """
    mode: AdversaryMode | None = None
    parties = {"a": "alice", "b": "bob"}
    messages: list[tuple[str, bytes]] = []
    seed = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 2)
        kind = fields[0]
        if kind == "adversary" and len(fields) == 2:
            try:
                mode = AdversaryMode(fields[1])
            except ValueError:
                raise SimulationError(f"line {lineno}: unknown adversary mode {fields[1]!r}") from None
        elif kind == "party" and len(fields) == 3:
            if fields[1] not in parties:
                raise SimulationError(f"line {lineno}: party must be 'a' or 'b'")
            parties[fields[1]] = fields[2]
        elif kind == "message" and len(fields) == 3:
            if fields[1] not in ("a->b", "b->a"):
                raise SimulationError(f"line {lineno}: direction must be a->b or b->a")
            messages.append((fields[1], fields[2].encode("utf-8")))
        elif kind == "seed" and len(fields) == 2:
            if not fields[1].isdecimal():
                raise SimulationError(f"line {lineno}: seed must be a non-negative integer")
            seed = int(fields[1])
        else:
            raise SimulationError(f"line {lineno}: unrecognized scenario line {raw!r}")
    if mode is None:
        raise SimulationError("scenario missing 'adversary <mode>' line")
    return Scenario(
        mode, parties["a"], parties["b"], tuple(messages) or _DEFAULT_PLAINTEXTS, seed
    )


def _bool(v: bool) -> str:
    return "true" if v else "false"


_SESSIONS_PER_SCENARIO = {AdversaryMode.REPLAY: 2, AdversaryMode.HOST_COMPROMISE: 3}
_COMPROMISED_SESSION = 1


def run_scenario(scenario: Scenario) -> ScenarioRecord:
    """Execute one adversary scenario end to end and emit its assertion record.

    Passive and mitm run one session, replay two and host-compromise three,
    all against one adversary. The record is ``scenario, established, <mode
    rows>, attacker_learned_key, attacker_learned_plaintext, failure_reason``,
    each value computed from those sessions and that adversary's state.
    """
    registry = make_environment(scenario.seed)
    a = make_enrolled_party(registry, scenario.party_a, scenario.seed + 1)
    b = make_enrolled_party(registry, scenario.party_b, scenario.seed + 2)
    adversary = AdversaryPolicy(scenario.mode)
    if scenario.mode is AdversaryMode.MITM:
        rogue = CaRegistry(RsaKeyPair.generate(
            int(np.random.SeedSequence([scenario.seed, 0xBAD]).generate_state(1, np.uint64)[0])
        ))
        adversary.attacker_certificate = make_enrolled_party(
            rogue, "mallory", scenario.seed + 3
        ).certificate

    outcomes = [
        run_session(
            a, b, adversary, ca_public_key=registry.public_key, seed=scenario.seed,
            session_id=sid, plaintexts=scenario.messages,
        )
        for sid in range(1, _SESSIONS_PER_SCENARIO.get(scenario.mode, 1) + 1)
    ]
    records = [o.record for o in outcomes if o.record is not None]

    mode_rows: list[tuple[str, str]] = []
    if scenario.mode is AdversaryMode.REPLAY:
        first, second = records
        replayed = _opened_frames(second.key, outcomes[0].transcript)
        mode_rows = [
            ("session_keys_differ", _bool(first.key != second.key)),
            ("replayed_ciphertext_rejected", _bool(all(p is None for p in replayed))),
        ]
    elif scenario.mode is AdversaryMode.HOST_COMPROMISE:
        stolen = records[_COMPROMISED_SESSION].key
        adversary.stolen.append(stolen)
        # session-key independence: the stolen key opens every data frame of
        # its own session, of which there is one at least, and no other's
        opened = [_opened_frames(stolen, o.transcript) for o in outcomes]
        mode_rows = [
            ("sessions", str(len(records))),
            ("compromised", str(_COMPROMISED_SESSION)),
            ("decrypts_only_own_session", _bool(all(
                (bool(frames) and None not in frames) == (i == _COMPROMISED_SESSION)
                for i, frames in enumerate(opened)
            ))),
        ]

    failure = next((o.failure_reason for o in outcomes if o.failure_reason is not None), None)
    # asked after any stolen key is stored
    learned_key, learned_plaintext = adversary.learned(
        [r.key for r in records], [p for _, p in scenario.messages]
    )
    return ScenarioRecord([
        ("scenario", scenario.mode.value),
        ("established", _bool(all(o.established for o in outcomes))),
        *mode_rows,
        ("attacker_learned_key", _bool(learned_key)),
        ("attacker_learned_plaintext", _bool(learned_plaintext)),
        ("failure_reason", "none" if failure is None else failure.label),
    ])
