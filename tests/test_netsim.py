import dataclasses
import hashlib
import sys

import pytest

from biokex import netsim, protocol
from biokex.ca import CaRegistry, Certificate, Identity, RsaKeyPair
from biokex.minutiae import MinutiaeSet
from biokex.netsim import (
    AdversaryMode,
    AdversaryPolicy,
    Channel,
    Scenario,
    SimulationError,
    _opened_frames,
    format_transcript,
    load_scenario,
    make_enrolled_party,
    make_environment,
    run_scenario,
    run_session,
)
from biokex.protocol import AbortReason, WireMessage, MSG_ABORT, MSG_CERT, MSG_DATA


def _passive_outcome(ca_env, adversary, seed=5):
    registry, alice, bob = ca_env
    return run_session(
        alice, bob, adversary, ca_public_key=registry.public_key,
        seed=seed, session_id=1,
    )


def test_passive_adversary_sees_nothing_useful(ca_env):
    adversary = AdversaryPolicy()
    outcome = _passive_outcome(ca_env, adversary)
    assert outcome.established
    assert not outcome.attacker_learned_key
    assert not outcome.attacker_learned_plaintext
    assert outcome.failure_reason is None
    assert len(adversary.captured) == len(outcome.transcript)


@pytest.mark.parametrize(("case", "learned"), [
    pytest.param("certificate_slice", True, id="certificate_slice"),
    pytest.param("frame_boundary", True, id="frame_boundary"),
    pytest.param("ciphertext_slice", False, id="ciphertext_slice"),
])
def test_passive_adversary_learns_plaintext_it_captured(ca_env, case, learned):
    # the predicate is "the bytes occur in what the adversary can read": a
    # plaintext that the certificate frames already carry is learned, also
    # when it straddles two captured frames; one that occurs only inside a
    # captured ciphertext is not, as a ciphertext is opaque without its key
    registry, alice, bob = ca_env
    cert_a, cert_b = (WireMessage(MSG_CERT, p.certificate.encode()).encode() for p in (alice, bob))

    def session(plaintext):
        adversary = AdversaryPolicy()
        outcome = run_session(
            alice, bob, adversary, ca_public_key=registry.public_key, seed=5, session_id=1,
            plaintexts=(("a->b", b"meet at the north gate at nine"), ("b->a", plaintext)),
        )
        return adversary, outcome

    if case == "ciphertext_slice":
        # the first data frame, the same whatever the second plaintext is
        first_data = next(
            f for _, f in session(b"")[0].captured if WireMessage.decode(f).msg_type == MSG_DATA
        )
        plaintext = first_data[20:40]
    else:
        plaintext = cert_a[40:60] if case == "certificate_slice" else cert_a[-10:] + cert_b[:10]
    adversary, outcome = session(plaintext)
    assert adversary.captured[:2] == [("a->b", cert_a), ("b->a", cert_b)]
    assert plaintext in b"".join(f for _, f in adversary.captured)
    assert outcome.established
    assert outcome.attacker_learned_plaintext is learned
    assert not outcome.attacker_learned_key


def test_passive_equals_adversary_free_transcript(ca_env):
    with_adv = _passive_outcome(ca_env, AdversaryPolicy(), seed=8)
    without = _passive_outcome(ca_env, None, seed=8)
    assert with_adv.transcript == without.transcript
    assert with_adv.record.key == without.record.key


def test_record_key_opens_the_delivered_data_frames(ca_env):
    outcome = _passive_outcome(ca_env, AdversaryPolicy())
    record = outcome.record
    assert _opened_frames(record.key, outcome.transcript) == [p for _, p in record.plaintexts]


def test_session_determinism(ca_env):
    one = _passive_outcome(ca_env, None, seed=12)
    two = _passive_outcome(ca_env, None, seed=12)
    assert one.transcript == two.transcript
    assert one.record.key == two.record.key
    other = _passive_outcome(ca_env, None, seed=13)
    assert other.record.key != one.record.key


def _mallory_certificate():
    rogue = CaRegistry(RsaKeyPair.generate(777))
    return rogue.enroll(Identity("mallory"), RsaKeyPair.generate(778).public_der)


def test_mitm_aborts_at_certificate_verification(ca_env):
    registry, alice, bob = ca_env
    adversary = AdversaryPolicy(attacker_certificate=_mallory_certificate())
    outcome = run_session(
        alice, bob, adversary, ca_public_key=registry.public_key, seed=3, session_id=1
    )
    assert not outcome.established
    assert outcome.failure_reason is AbortReason.CERT_VERIFICATION
    assert not outcome.attacker_learned_key
    assert not outcome.attacker_learned_plaintext


def test_adversary_swaps_certificates_only_when_it_holds_one():
    # without a certificate a frame passes undecoded, so bytes that are no
    # wire message pass too; with one, every certificate frame is swapped
    passive = AdversaryPolicy()
    assert passive.intercept("a->b", b"\xff not a frame") == b"\xff not a frame"
    rogue = _mallory_certificate()
    mitm = AdversaryPolicy(attacker_certificate=rogue)
    swapped = WireMessage(MSG_CERT, rogue.encode()).encode()
    data = WireMessage(MSG_DATA, b"sealed").encode()
    for direction in ("a->b", "b->a"):
        assert mitm.intercept(direction, WireMessage(MSG_CERT, b"x").encode()) == swapped
        assert mitm.intercept(direction, data) == data
    assert len(mitm.captured) == 4


@dataclasses.dataclass
class _SwapResponderCertificate(AdversaryPolicy):
    """Substitutes a rogue certificate for the responder's ``b->a`` one only,
    so the responder accepts and the initiator refuses. It holds no
    ``attacker_certificate``, which would swap both certificate frames."""

    rogue_certificate: Certificate | None = None

    def intercept(self, direction, frame):
        frame = super().intercept(direction, frame)
        if direction == "b->a" and WireMessage.decode(frame).msg_type == MSG_CERT:
            return WireMessage(MSG_CERT, self.rogue_certificate.encode()).encode()
        return frame


def _failing_parties(request, alice, bob, case):
    """``(a, b, adversary)`` for one failure case."""
    if case == "mitm":
        return alice, bob, AdversaryPolicy(attacker_certificate=_mallory_certificate())
    if case == "responder_cert_swap":
        return alice, bob, _SwapResponderCertificate(rogue_certificate=_mallory_certificate())
    # all of a party's minutiae at one position: every pair is degenerate
    stub = MinutiaeSet("stub", 0, 10, 10, [[5, 5], [5, 5], [0.0, 180.0]])
    if case == "coincident_minutiae":
        return dataclasses.replace(alice, fingerprint=stub), bob, None
    if case == "both_abort":
        # the responder fails on its features, quickly, and the initiator
        # later on its public-value modexp
        request.getfixturevalue("fail_modexp")()
    return alice, dataclasses.replace(bob, fingerprint=stub), None


# re-pinned when the CA came to sign the certificate body; only the
# certificate frames moved. A failure in the DH phase leaves the two
# certificate frames alone
_CERTIFICATES_ONLY = "ed5fc3b1d03f52f34a315adf2bb1614c9c60bc5379684e4fff475d8ca308fc5b"
FAILURE_TRANSCRIPT_SHA256 = {
    "mitm": "1ade10332c01a902c7170e800e7f94367f14141e2d84bccdee6cebc7dfc4b4e3",
    "responder_cert_swap": "324e2410f98839cbfd22420e2630c633487bfc7dfb4f83f4b4194f5d0d7a38f7",
    "coincident_minutiae": _CERTIFICATES_ONLY,
    "responder_coincident_minutiae": _CERTIFICATES_ONLY,
    "both_abort": _CERTIFICATES_ONLY,
}


@pytest.mark.parametrize(
    "case, frames, reason",
    [
        ("mitm", 2, AbortReason.CERT_VERIFICATION),
        ("responder_cert_swap", 3, AbortReason.CERT_VERIFICATION),
        ("coincident_minutiae", 2, AbortReason.FEATURE_EXTRACTION),
        ("responder_coincident_minutiae", 2, AbortReason.FEATURE_EXTRACTION),
        # the two sides derive their pairs at once; a's reason is reported
        ("both_abort", 2, AbortReason.KEY_AGREEMENT),
    ],
    ids=list(FAILURE_TRANSCRIPT_SHA256),
)
def test_failure_transcripts_pinned(request, ca_env, case, frames, reason):
    # a refused certificate still sends the refusing side's abort frame in its
    # own direction; a failure in the DH phase sends none
    registry, alice, bob = ca_env
    alice, bob, adversary = _failing_parties(request, alice, bob, case)
    outcome = run_session(
        alice, bob, adversary, ca_public_key=registry.public_key, seed=3, session_id=1
    )
    assert not outcome.established
    assert outcome.failure_reason is reason
    assert len(outcome.transcript) == frames
    assert (
        hashlib.sha256(format_transcript(outcome.transcript).encode()).hexdigest()
        == FAILURE_TRANSCRIPT_SHA256[case]
    )


@pytest.mark.parametrize("stranger_side", ["a", "b"])
def test_unenrolled_party_fails_certificate_verification(ca_env, stranger_side):
    # the endpoints are the only certificate check: a party enrolled under
    # another CA fails the handshake exactly as its peer sees it on the wire
    registry, alice, bob = ca_env
    stranger = make_enrolled_party(CaRegistry(RsaKeyPair.generate(555)), "stranger", 50)
    a, b = (stranger, bob) if stranger_side == "a" else (alice, stranger)
    outcome = run_session(a, b, None, ca_public_key=registry.public_key)
    assert not outcome.established and outcome.record is None
    assert outcome.failure_reason is AbortReason.CERT_VERIFICATION
    expected = ["a->b", "b->a"] if stranger_side == "a" else ["a->b", "b->a", "a->b"]
    assert [d for d, _ in outcome.transcript] == expected
    assert WireMessage.decode(outcome.transcript[-1][1]) == WireMessage(MSG_ABORT, bytes([1]))


def test_each_certificate_is_verified_once(ca_env, monkeypatch):
    # every biokex module that holds the function, not only the endpoint's
    verified = []
    original = protocol.verify_certificate

    def counting(ca_public_key, cert):
        verified.append(cert.identity.user_id)
        return original(ca_public_key, cert)

    for name, module in list(sys.modules.items()):
        if name.startswith("biokex") and vars(module).get("verify_certificate") is original:
            monkeypatch.setattr(module, "verify_certificate", counting)
    outcome = _passive_outcome(ca_env, AdversaryPolicy())
    assert outcome.established
    assert sorted(verified) == ["alice", "bob"]


def _opened_by_each_key(outcomes):
    """Row i: what session i's key opens of each session's transcript."""
    return [[_opened_frames(own.record.key, o.transcript) for o in outcomes] for own in outcomes]


def test_host_compromise_probe_matrix(ca_env):
    # session-key independence: a session's key opens every data frame of its
    # own session and no frame of any other session between the same pair
    registry, alice, bob = ca_env
    outcomes = [
        run_session(alice, bob, None, ca_public_key=registry.public_key,
                    seed=30, session_id=sid)
        for sid in (1, 2, 3)
    ]
    for i, row in enumerate(_opened_by_each_key(outcomes)):
        for j, opened in enumerate(row):
            own = [p for _, p in outcomes[j].record.plaintexts]
            assert opened == (own if i == j else [None] * len(own))


def test_host_compromise_key_fails_on_foreign_pair(ca_env):
    registry, alice, bob = ca_env
    carol = make_enrolled_party(registry, "carol", 60)
    dave = make_enrolled_party(registry, "dave", 61)
    own = run_session(alice, bob, None, ca_public_key=registry.public_key,
                      seed=70, session_id=1)
    foreign = run_session(carol, dave, None, ca_public_key=registry.public_key,
                          seed=71, session_id=2)
    assert _opened_by_each_key([own, foreign]) == [
        [[p for _, p in own.record.plaintexts], [None, None]],
        [[None, None], [p for _, p in foreign.record.plaintexts]],
    ]


def test_host_compromise_single_session_trivially_decrypts_itself(ca_env):
    registry, alice, bob = ca_env
    outcome = run_session(alice, bob, None, ca_public_key=registry.public_key,
                          seed=80, session_id=1)
    opened = _opened_frames(outcome.record.key, outcome.transcript)
    assert opened and opened == [p for _, p in outcome.record.plaintexts]


def test_stolen_key_adds_what_it_opens_to_the_learned_state(ca_env):
    # Dolev-Yao closure: a plaintext counts as learned once a stolen key
    # opens a captured frame that carries it, and only then
    registry, alice, bob = ca_env
    texts = [b"first session: the courier is late", b"second session: the vault code changed"]
    adversary = AdversaryPolicy()
    outcomes = [
        run_session(
            alice, bob, adversary, ca_public_key=registry.public_key, seed=40,
            session_id=sid, plaintexts=(("a->b", text),),
        )
        for sid, text in enumerate(texts, start=1)
    ]
    assert all(o.established and not o.attacker_learned_plaintext for o in outcomes)

    adversary.stolen.append(bytes(32))  # a key of no session opens nothing
    assert _opened_frames(bytes(32), adversary.captured) == [None, None]
    assert adversary.learned([], texts) == (False, False)

    adversary.stolen.append(outcomes[1].record.key)
    assert adversary.learned([], [texts[1]]) == (False, True)
    assert adversary.learned([], [texts[0]]) == (False, False)


def test_channel_requires_queued_message():
    channel = Channel()
    with pytest.raises(SimulationError):
        channel.deliver("a->b")
    with pytest.raises(SimulationError):
        channel.send("sideways", WireMessage(MSG_DATA, b""))
    with pytest.raises(SimulationError, match="nothing queued on 'sideways'"):
        channel.deliver("sideways")


def test_transcript_export_format(ca_env):
    outcome = _passive_outcome(ca_env, None, seed=90)
    text = format_transcript(outcome.transcript)
    lines = text.strip().split("\n")
    assert len(lines) == len(outcome.transcript)
    direction, hexframe = lines[0].split()
    assert direction in ("a->b", "b->a")
    bytes.fromhex(hexframe)


def test_scenario_file_parsing():
    text = """
    # demo scenario
    adversary mitm
    party a alice
    party b bob
    message a->b attack at dawn, bring all the documents
    seed 9
    """
    scenario = load_scenario(text)
    assert scenario.mode is AdversaryMode.MITM
    assert scenario.party_a == "alice"
    assert scenario.messages == (("a->b", b"attack at dawn, bring all the documents"),)
    assert scenario.seed == 9


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("party a alice\n", "missing"),
        ("adversary nuke\n", "unknown adversary"),
        ("adversary mitm\nparty c x\n", "party must be"),
        ("adversary mitm\nmessage up hello\n", "direction"),
        ("adversary mitm\nbogus line here\n", "unrecognized"),
        ("adversary mitm\nseed x\n", "line 2: seed must be a non-negative integer"),
        ("adversary mitm\nseed -3\n", "line 2: seed must be a non-negative integer"),
        ("adversary mitm extra words\n", "line 1: unrecognized scenario line 'adversary mitm extra"),
        ("adversary mitm\nseed 9 junk\n", "line 2: unrecognized scenario line 'seed 9 junk'"),
        # past CPython's int-conversion limit of 4,300 digits
        pytest.param("adversary mitm\nseed " + "9" * 4301 + "\n",
                     "line 2: seed must be a non-negative integer", id="overlong_seed"),
    ],
)
def test_scenario_file_errors(text, fragment):
    with pytest.raises(SimulationError, match=fragment):
        load_scenario(text)


def test_scenario_records():
    passive = run_scenario(Scenario(AdversaryMode.PASSIVE, seed=2))
    assert passive["established"] == "true"
    assert passive["attacker_learned_key"] == "false"

    mitm = run_scenario(Scenario(AdversaryMode.MITM, seed=2))
    assert mitm["established"] == "false"
    assert mitm["failure_reason"] == "certificate-verification"

    replay = run_scenario(Scenario(AdversaryMode.REPLAY, seed=2))
    assert replay["session_keys_differ"] == "true"
    assert replay["replayed_ciphertext_rejected"] == "true"
    assert replay["attacker_learned_plaintext"] == "false"

    hc = run_scenario(Scenario(AdversaryMode.HOST_COMPROMISE, seed=2))
    assert hc["decrypts_only_own_session"] == "true"
    assert hc["attacker_learned_key"] == "true"

    assert next(iter(mitm.items())) == ("scenario", "mitm")


def _lines(rows):
    """A scenario's rows as ``biokex attack`` prints them."""
    return [f"{name}={value}" for name, value in rows.items()]


SCENARIO_LINES_SEED_1 = {
    AdversaryMode.PASSIVE: [
        "scenario=passive",
        "established=true",
        "attacker_learned_key=false",
        "attacker_learned_plaintext=false",
        "failure_reason=none",
    ],
    AdversaryMode.MITM: [
        "scenario=mitm",
        "established=false",
        "attacker_learned_key=false",
        "attacker_learned_plaintext=false",
        "failure_reason=certificate-verification",
    ],
    AdversaryMode.REPLAY: [
        "scenario=replay",
        "established=true",
        "session_keys_differ=true",
        "replayed_ciphertext_rejected=true",
        "attacker_learned_key=false",
        "attacker_learned_plaintext=false",
        "failure_reason=none",
    ],
    AdversaryMode.HOST_COMPROMISE: [
        "scenario=host-compromise",
        "established=true",
        "sessions=3",
        "compromised=1",
        "decrypts_only_own_session=true",
        "attacker_learned_key=true",
        "attacker_learned_plaintext=true",
        "failure_reason=none",
    ],
}


@pytest.mark.parametrize("mode", list(AdversaryMode), ids=lambda m: m.value)
def test_scenario_record_lines_pinned(mode):
    # whole records in order: every mode shares one schema, and mode rows
    # sit between "established" and the attacker/failure rows
    assert _lines(run_scenario(Scenario(mode, seed=1))) == SCENARIO_LINES_SEED_1[mode]


@pytest.mark.parametrize("mode, planted, learned_key, learned_plaintext", [
    (AdversaryMode.HOST_COMPROMISE, b"", "true", "true"),
    (AdversaryMode.PASSIVE, b"alice", "false", "true"),
], ids=["host-compromise", "passive-planted"])
def test_long_scenario_record_matches_knows(
    monkeypatch, mode, planted, learned_key, learned_plaintext
):
    # about 300 messages; the rows must equal one knows() call per session
    # key and per message against the adversary's final state
    sessions = []
    real_run_session = netsim.run_session

    def recording(a, b, adversary, **kwargs):
        outcome = real_run_session(a, b, adversary, **kwargs)
        sessions.append((adversary, outcome))
        return outcome

    monkeypatch.setattr(netsim, "run_session", recording)
    messages = tuple(
        ("a->b" if i % 2 == 0 else "b->a", f"message {i:03d};".encode() * (1 + i % 37))
        for i in range(300)
    ) + ((("a->b", planted),) if planted else ())
    record = run_scenario(Scenario(mode, messages=messages, seed=3))

    adversary = sessions[0][0]
    assert all(adv is adversary for adv, _ in sessions)
    keys = [o.record.key for _, o in sessions if o.record is not None]
    naive_key = any(adversary.knows(k) for k in keys)
    naive_plaintext = any(adversary.knows(p) for _, p in messages)
    assert record["attacker_learned_key"] == ("true" if naive_key else "false")
    assert record["attacker_learned_plaintext"] == ("true" if naive_plaintext else "false")
    assert (record["attacker_learned_key"], record["attacker_learned_plaintext"]) == (
        learned_key, learned_plaintext
    )


def test_scenario_record_determinism():
    a = run_scenario(Scenario(AdversaryMode.REPLAY, seed=6))
    b = run_scenario(Scenario(AdversaryMode.REPLAY, seed=6))
    assert _lines(a) == _lines(b)
