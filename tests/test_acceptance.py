"""Acceptance suite: every criterion runs at its stated tolerance and emits
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``, or
read the "acceptance criteria" section of the terminal summary).
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import record_acceptance

from biokex.evaluation import (
    eer,
    fvc_pairings,
    pairwise_key_hamming,
    revocability_fractions,
    session_key_sample,
    shannon_entropy,
    template_similarity_scores,
)
from biokex.features import FeatureBitString, QuantizationConfig, extract_features, pair_triplet
from biokex.keyagree import (
    PrivateKey,
    PublicKey,
    RFC3526_2048,
    RFC3526_MODP_2048_HEX,
    public_key,
    shared_secret,
)
from biokex.minutiae import MinutiaeSet, PerturbationProfile, synthesize_dataset, synthesize_subject
from biokex.netsim import (
    AdversaryMode, Scenario, make_enrolled_party, make_environment, run_scenario,
)
from biokex.protocol import ReplayError, SessionEndpoint
from biokex.transform import TransformationKey, invert, permute

CFG12 = QuantizationConfig.for_np(12)


@contextmanager
def criterion(number: int, limit_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        record_acceptance(f"criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"criterion {number} overran: {elapsed:.1f}s >= {limit_s}s"
    record_acceptance(
        f"criterion {number:2d} PASS  ({elapsed:6.1f}s < {limit_s:.0f}s)  {description}"
    )


_IMPOSTOR_KEYS: list[bytes] = []


def impostor_keys() -> list[bytes]:
    """1000 impostor pairings (2000 independent subjects), one agreed session
    key each; computed once and shared between the key-randomness and entropy
    criteria so each criterion's own timing budget covers it when it runs
    first."""
    if not _IMPOSTOR_KEYS:
        dataset = synthesize_dataset(2000, 1, PerturbationProfile(), n_minutiae=16, seed=303)
        _IMPOSTOR_KEYS.extend(session_key_sample(dataset, CFG12, seed=303))
        assert len(_IMPOSTOR_KEYS) == 1000
    return list(_IMPOSTOR_KEYS)


def test_criterion_01_dh_golden_vectors():
    with criterion(1, 1.0, "DH golden vectors q=353: Y_A=40, Y_B=248, shared=160"):
        from biokex.keyagree import DhGroup

        toy = DhGroup(q=353, alpha=3)
        y_a = public_key(toy, PrivateKey(97))
        y_b = public_key(toy, PrivateKey(233))
        assert y_a.value == 40
        assert y_b.value == 248
        assert shared_secret(toy, PrivateKey(97), y_b) == 160
        assert shared_secret(toy, PrivateKey(233), y_a) == 160


def test_criterion_02_group_integrity_and_commutativity():
    with criterion(2, 10.0, "RFC 3526 2048-bit group byte-exact; 100 random commutes"):
        expected_hex = (
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
            "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
            "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
            "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
            "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
            "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
            "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
            "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
            "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
            "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
            "15728E5A8AACAA68FFFFFFFFFFFFFFFF"
        )
        assert RFC3526_MODP_2048_HEX == expected_hex
        assert RFC3526_2048.q == int(expected_hex, 16)
        assert RFC3526_2048.alpha == 2
        rng = np.random.default_rng(2026)
        for _ in range(100):
            a = PrivateKey(int.from_bytes(rng.bytes(32), "big") | 1)
            b = PrivateKey(int.from_bytes(rng.bytes(32), "big") | 1)
            lhs = shared_secret(RFC3526_2048, b, public_key(RFC3526_2048, a))
            rhs = shared_secret(RFC3526_2048, a, public_key(RFC3526_2048, b))
            assert lhs == rhs


def test_criterion_03_impostor_key_randomness():
    with criterion(3, 120.0, "impostor session keys: mean~0.50, >=99% in [0.40,0.60]"):
        fractions = pairwise_key_hamming(impostor_keys())
        assert fractions.size >= 1000
        mean = float(fractions.mean())
        in_band = float(np.mean((fractions >= 0.40) & (fractions <= 0.60)))
        assert 0.48 <= mean <= 0.52, f"mean {mean:.4f}"
        assert in_band >= 0.99, f"in-band fraction {in_band:.4f}"


def test_criterion_04_revocability():
    with criterion(4, 120.0, "revocability: 100 subjects x 30 keys, mean~0.50"):
        dataset = synthesize_dataset(100, 1, PerturbationProfile(), n_minutiae=16, seed=404)
        fractions = revocability_fractions(dataset, 30, CFG12, seed=404)
        assert fractions.size == 3000
        mean = float(fractions.mean())
        in_band = float(np.mean((fractions >= 0.40) & (fractions <= 0.60)))
        assert 0.48 <= mean <= 0.52, f"mean {mean:.4f}"
        assert in_band >= 0.99, f"in-band fraction {in_band:.4f}"


def test_criterion_05_genuine_impostor_separation_and_eer():
    with criterion(5, 300.0, "genuine-impostor separation >= 0.15 and EER < 0.05"):
        # Quantization for this study uses the 12-bit code width with an
        # L-heavy split (6,3,3): the mandated 4-degree orientation jitter
        # needs 45-degree angle bins to stay inside one bin most of the
        # time, while pair distance is robust and can carry more bits.
        # Subjects carry 65 minutiae on a 1000x1000 canvas (l_max covers
        # the diagonal), which puts pair density in the discriminative
        # range of the 4096-bin string.
        profile = PerturbationProfile(
            translation_sigma=2.0, rotation_sigma=4.0, drop_rate=0.05
        )
        cfg = QuantizationConfig(6, 3, 3, l_max=1415.0)
        dataset = synthesize_dataset(
            100, 8, profile, n_minutiae=65, width=1000, height=1000, seed=505
        )
        scores = template_similarity_scores(dataset, cfg)
        separation = float(scores.genuine.mean() - scores.impostor.mean())
        error_rate = eer(scores)
        assert separation >= 0.15, f"separation {separation:.4f}"
        assert error_rate < 0.05, f"EER {error_rate:.4f}"


def test_criterion_06_fvc_pairing_counts():
    with criterion(6, 1.0, "pairing protocol: (100, 8) -> 2800 genuine, 4950 impostor"):
        pairs = fvc_pairings(100, 8)
        assert len(pairs.genuine) == 2800
        assert len(pairs.impostor) == 4950


def test_criterion_07_entropy():
    with criterion(7, 60.0, "pooled session-key entropy >= 7.9 bits/byte"):
        pooled = b"".join(impostor_keys())
        assert len(pooled) == 1000 * 32
        assert shannon_entropy(pooled) >= 7.9
        assert shannon_entropy(b"\x42" * 1024) == 0.0
        assert shannon_entropy(bytes(range(256))) == 8.0
        # a single 32-byte key cannot exhibit more than log2(32) = 5 bits of
        # measurable byte entropy, so the single-key reference figure of
        # 7.28 bits/byte is recorded here as untestable in that form; the
        # pooled-key statement above is the nearest testable claim
        assert math.log2(32) == 5.0


def test_criterion_08_attack_suite():
    with criterion(8, 60.0, "attack suite: passive, replay, mitm, host compromise"):
        passive = run_scenario(Scenario(AdversaryMode.PASSIVE, seed=801))
        assert passive["established"] == "true"
        assert passive["attacker_learned_key"] == "false"

        replay = run_scenario(Scenario(AdversaryMode.REPLAY, seed=802))
        assert replay["replayed_ciphertext_rejected"] == "true"
        assert replay["session_keys_differ"] == "true"
        assert replay["attacker_learned_plaintext"] == "false"

        mitm = run_scenario(Scenario(AdversaryMode.MITM, seed=803))
        assert mitm["established"] == "false"
        assert mitm["failure_reason"] == "certificate-verification"

        hc = run_scenario(Scenario(AdversaryMode.HOST_COMPROMISE, seed=804))
        assert hc["sessions"] == "3"
        assert hc["decrypts_only_own_session"] == "true"

        # intra-session replay: a data frame the receiver has opened,
        # delivered to the same endpoint again
        registry = make_environment(805)
        alice = make_enrolled_party(registry, "alice", 806)
        bob = make_enrolled_party(registry, "bob", 807)
        a, b = (
            SessionEndpoint(
                party.certificate, party.fingerprint, registry.public_key,
                initiator=party is alice, transform_key=TransformationKey(token),
            )
            for party, token in ((alice, b"alice-token-0805"), (bob, b"bob-token-000805"))
        )
        a.on_peer_certificate(b.on_peer_certificate(a.initiate()))
        pub_a, pub_b = a.exchange_dh(), b.exchange_dh()
        b.establish(pub_a)
        a.establish(pub_b)
        frame = a.seal(b"delivered once")
        assert b.open(frame) == b"delivered once"
        try:
            b.open(frame)
        except ReplayError:
            pass
        else:
            raise AssertionError("an opened data frame was accepted again")


def test_criterion_09_structural_properties():
    with criterion(9, 60.0, "bijectivity x1000, popcount, invariances, lengths"):
        rng = np.random.default_rng(909)

        # permutation bijectivity and popcount preservation, fresh key each time
        for _ in range(1000):
            bits = (rng.random(1 << 12) < 0.3).astype(np.uint8)
            fbs = FeatureBitString(bits, 12)
            key = TransformationKey(rng.bytes(16))
            template = permute(fbs, key)
            assert template.popcount == fbs.popcount
            assert invert(template, key) == fbs

        # translation invariance, exact within 1e-9 / 1e-6
        base = synthesize_subject(12, 200, 200, seed=9090)
        shifted = MinutiaeSet("t", 0, 500, 500, base.points + [[211], [153], [0.0]])
        ms, ns = base.points.T.tolist(), shifted.points.T.tolist()
        for m1, m2, n1, n2 in zip(ms, ms[1:], ns, ns[1:]):
            t_a = pair_triplet(*m1, *m2)
            t_b = pair_triplet(*n1, *n2)
            assert abs(t_a[0] - t_b[0]) <= 1e-9
            assert abs(t_a[1] - t_b[1]) <= 1e-6
            assert abs(t_a[2] - t_b[2]) <= 1e-6

        # rotation invariance at an arbitrary angle about an arbitrary center
        angle, cx, cy = 37.3, 91.0, -40.0
        rad = math.radians(angle)
        cos_a, sin_a = math.cos(rad), math.sin(rad)
        pts = rng.uniform(0, 300, size=(8, 2))
        thetas = rng.uniform(0, 360, size=8)
        for i in range(7):
            xi, yi, ti = pts[i][0], pts[i][1], thetas[i]
            xj, yj, tj = pts[i + 1][0], pts[i + 1][1], thetas[i + 1]
            rxi = cx + (xi - cx) * cos_a - (yi - cy) * sin_a
            ryi = cy + (xi - cx) * sin_a + (yi - cy) * cos_a
            rxj = cx + (xj - cx) * cos_a - (yj - cy) * sin_a
            ryj = cy + (xj - cx) * sin_a + (yj - cy) * cos_a
            t_a = pair_triplet(xi, yi, ti, xj, yj, tj)
            t_b = pair_triplet(rxi, ryi, (ti + angle) % 360, rxj, ryj, (tj + angle) % 360)
            assert abs(t_a[0] - t_b[0]) <= 1e-9 * max(1.0, t_a[0])
            assert min(abs(t_a[1] - t_b[1]), 360 - abs(t_a[1] - t_b[1])) <= 1e-6
            assert min(abs(t_a[2] - t_b[2]), 360 - abs(t_a[2] - t_b[2])) <= 1e-6

        # bit-string length for both supported code widths
        for n_p in (12, 15):
            mset = synthesize_subject(10, 388, 374, seed=n_p)
            fbs = extract_features(mset, QuantizationConfig.for_np(n_p))
            assert len(fbs) == 2 ** n_p


def test_criterion_10_gar_figures_not_reproduced():
    with criterion(10, 1.0, "reference GAR figures substituted by criteria 3-5 and 9"):
        # The published GAR numbers (96.49% on the combined four-dataset
        # fingerprint benchmark, 96.73% on the partial NIST database) depend
        # on licensed datasets and a commercial minutiae extractor; they are
        # explicitly not reproduced at desk scale. The substituted property
        # suite is criteria 3, 4, 5 and 9 above.
        for name in (
            "test_criterion_03_impostor_key_randomness",
            "test_criterion_04_revocability",
            "test_criterion_05_genuine_impostor_separation_and_eer",
            "test_criterion_09_structural_properties",
        ):
            assert name in globals()
