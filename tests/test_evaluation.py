import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biokex import cli
from biokex.evaluation import (
    DistributionSummary,
    EvaluationError,
    ROC_CSV_HEADER,
    ScoreSet,
    compute_roc,
    eer,
    fvc_pairings,
    pairwise_key_hamming,
    revocability_fractions,
    session_key_sample,
    shannon_entropy,
    template_similarity_scores,
    write_roc_csv,
)
from biokex.features import QuantizationConfig
from biokex.minutiae import PerturbationProfile, synthesize_dataset
from biokex.pipeline import private_key_from_minutiae, revocable_template
from biokex.transform import TransformationKey


# --- pairings ----------------------------------------------------------------

def test_fvc_pairings_paper_counts():
    pairs = fvc_pairings(100, 8)
    assert len(pairs.genuine) == 2800
    assert len(pairs.impostor) == 4950


def test_fvc_pairings_smallest():
    pairs = fvc_pairings(2, 2)
    assert len(pairs.genuine) == 2
    assert len(pairs.impostor) == 1


@pytest.mark.parametrize("s", [2, 3, 5])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_fvc_pairings_closed_forms(s, m):
    pairs = fvc_pairings(s, m)
    assert len(pairs.genuine) == s * math.comb(m, 2)
    assert len(pairs.impostor) == math.comb(s, 2)
    assert len(set(pairs.genuine)) == len(pairs.genuine)
    assert len(set(pairs.impostor)) == len(pairs.impostor)


def test_fvc_pairings_validation():
    with pytest.raises(EvaluationError):
        fvc_pairings(1, 8)
    with pytest.raises(EvaluationError):
        fvc_pairings(100, 1)


# --- entropy -----------------------------------------------------------------

def test_entropy_constant_zero():
    assert shannon_entropy(b"\x07" * 4096) == 0.0


def test_entropy_uniform_exactly_eight():
    assert shannon_entropy(bytes(range(256))) == 8.0
    assert shannon_entropy(bytes(range(256)) * 5) == 8.0


def test_entropy_permutation_invariant(rng):
    data = bytes(rng.integers(0, 256, size=2000, dtype=np.uint8))
    shuffled = bytes(rng.permutation(np.frombuffer(data, dtype=np.uint8)))
    assert shannon_entropy(data) == pytest.approx(shannon_entropy(shuffled), abs=1e-12)


def test_entropy_empty_rejected():
    with pytest.raises(EvaluationError):
        shannon_entropy(b"")


# --- roc / eer -----------------------------------------------------------------

def test_eer_perfectly_separated():
    scores = ScoreSet(genuine=np.full(50, 0.9), impostor=np.full(80, 0.1))
    assert eer(scores) == 0.0


def test_eer_identical_distributions():
    rng = np.random.default_rng(1)
    common = rng.uniform(0, 1, size=400)
    scores = ScoreSet(genuine=common, impostor=common.copy())
    assert eer(scores) == pytest.approx(0.5, abs=0.02)


def test_roc_monotonicity(rng):
    scores = ScoreSet(
        genuine=rng.normal(0.7, 0.1, size=300).clip(0, 1),
        impostor=rng.normal(0.4, 0.1, size=300).clip(0, 1),
    )
    points = compute_roc(scores)
    fars = [p.far for p in points]
    frrs = [p.frr for p in points]
    assert all(a >= b for a, b in zip(fars, fars[1:]))
    assert all(a <= b for a, b in zip(frrs, frrs[1:]))
    assert all(p.gar == pytest.approx(1.0 - p.frr) for p in points)
    assert fars[0] == 1.0 and frrs[0] == 0.0
    assert fars[-1] == 0.0 and frrs[-1] == 1.0


def test_roc_csv_format(tmp_path, rng):
    scores = ScoreSet(genuine=rng.uniform(0.6, 1.0, 40), impostor=rng.uniform(0.0, 0.5, 40))
    out = tmp_path / "roc.csv"
    write_roc_csv(compute_roc(scores), out)
    lines = out.read_text().splitlines()
    assert lines[0] == ROC_CSV_HEADER == "threshold,far,frr,gar"
    assert len(lines) > 2
    for line in lines[1:]:
        t, far, frr, gar = map(float, line.split(","))
        assert 0.0 <= far <= 1.0 and 0.0 <= frr <= 1.0


def test_scoreset_rejects_empty():
    with pytest.raises(EvaluationError):
        ScoreSet(genuine=np.array([]), impostor=np.array([0.5]))


# --- distribution summary -----------------------------------------------------

def test_summary_histogram_sums_to_count(rng):
    samples = rng.uniform(0, 1, size=500)
    summary = DistributionSummary.from_samples(samples)
    assert summary.histogram.sum() == summary.count == 500
    assert summary.min <= summary.mean <= summary.max
    assert len(summary.histogram) == 50
    assert any(line.startswith("mean=") for line in summary.to_record_lines())


# --- template studies ---------------------------------------------------------

def test_identical_impressions_have_similarity_one(cfg12):
    ds = synthesize_dataset(2, 1, PerturbationProfile(), n_minutiae=20, seed=5)
    dataset = [[ds[0][0], ds[0][0]], [ds[1][0], ds[1][0]]]
    scores = template_similarity_scores(dataset, cfg12)
    assert np.all(scores.genuine == 1.0)


def test_genuine_scores_exceed_impostor(small_dataset, cfg12):
    scores = template_similarity_scores(small_dataset, cfg12)
    assert scores.genuine.mean() > scores.impostor.mean() + 0.05
    summary = DistributionSummary.from_samples(
        template_similarity_scores(small_dataset, cfg12).genuine
    )
    assert summary.mean == pytest.approx(scores.genuine.mean())


def test_template_study_needs_two_impressions(cfg12):
    ds = synthesize_dataset(3, 1, PerturbationProfile(), n_minutiae=10, seed=2)
    with pytest.raises(EvaluationError):
        template_similarity_scores(ds, cfg12)


# --- key studies ----------------------------------------------------------------

def test_impostor_key_study_near_half(cfg12):
    ds = synthesize_dataset(40, 1, PerturbationProfile(), n_minutiae=12, seed=8)
    summary = DistributionSummary.from_samples(
        pairwise_key_hamming(session_key_sample(ds, cfg12, seed=8))
    )
    assert summary.count == 190  # C(20, 2)
    assert 0.46 <= summary.mean <= 0.54


def test_session_key_sample_shape(cfg12):
    ds = synthesize_dataset(6, 1, PerturbationProfile(), n_minutiae=10, seed=9)
    keys = session_key_sample(ds, cfg12, seed=9)
    assert len(keys) == 3
    assert all(len(k) == 32 for k in keys)
    assert len(set(keys)) == 3


def test_pairwise_key_hamming_counts():
    keys = [bytes([i]) * 32 for i in range(5)]
    assert pairwise_key_hamming(keys).size == 10
    with pytest.raises(EvaluationError):
        pairwise_key_hamming(keys[:1])


def test_revocability_fractions_near_half(cfg12):
    ds = synthesize_dataset(10, 1, PerturbationProfile(), n_minutiae=12, seed=10)
    fr = revocability_fractions(ds, 10, cfg12, seed=10)
    assert fr.size == 100
    assert 0.45 <= float(fr.mean()) <= 0.55


def test_same_transformation_key_distance_zero(cfg12):
    ds = synthesize_dataset(2, 1, PerturbationProfile(), n_minutiae=12, seed=11)
    tkey = TransformationKey(b"same-key-twice!!")
    k1 = private_key_from_minutiae(ds[0][0], cfg12, tkey)
    k2 = private_key_from_minutiae(ds[0][0], cfg12, tkey)
    assert k1 == k2


def test_end_to_end_low_noise_eer(small_dataset, cfg12):
    scores = template_similarity_scores(small_dataset, cfg12)
    assert eer(scores) < 0.2  # tiny gallery; the acceptance suite runs at scale


def test_low_noise_pipeline_eer_under_five_percent(cfg12):
    profile = PerturbationProfile(translation_sigma=0.5, rotation_sigma=1.0, rng_seed=0)
    ds = synthesize_dataset(12, 4, profile, n_minutiae=40, seed=77)
    assert eer(template_similarity_scores(ds, cfg12)) < 0.05


def test_write_summary_records(tmp_path, rng):
    from biokex.evaluation import write_summary_records

    summary = DistributionSummary.from_samples(rng.uniform(0, 1, 200))
    path = tmp_path / "summary.txt"
    write_summary_records({"genuine": summary, "impostor": summary}, path)
    lines = path.read_text().splitlines()
    assert any(line.startswith("genuine.mean=") for line in lines)
    assert any(line.startswith("impostor.histogram=") for line in lines)
    hist_line = next(l for l in lines if l.startswith("genuine.histogram="))
    counts = [int(v) for v in hist_line.split("=", 1)[1].split(",")]
    assert len(counts) == 50 and sum(counts) == 200


# --- batched scoring and sweep against their per-pair and per-threshold forms ---

@pytest.mark.parametrize("token", [b"shared-eval-key!", b"per-pair-oracle!", None],
                         ids=["shared-eval-key", "per-pair-oracle", "random"])
def test_template_scores_match_per_pair_path(small_dataset, cfg12, token):
    # the scores take no key, and revocable templates under any one shared
    # key, a fresh random one included, score exactly as they do
    token = os.urandom(16) if token is None else token
    tkey = TransformationKey(token)
    # a ragged gallery: the pairings use the shortest row's impressions
    dataset = [list(row) for row in small_dataset]
    dataset[3] = dataset[3] + [dataset[4][0]]
    packed = [
        [np.packbits(revocable_template(m, cfg12, tkey).bits, bitorder="big") for m in row]
        for row in dataset
    ]
    nbits = 1 << cfg12.n_p

    def score(a, b):
        return 1.0 - int(np.bitwise_count(np.bitwise_xor(a, b)).sum()) / nbits

    pairs = fvc_pairings(len(dataset), 3)
    genuine = np.array([score(packed[s][i], packed[s][j]) for s, i, j in pairs.genuine])
    impostor = np.array([score(packed[si][0], packed[sj][0]) for si, sj in pairs.impostor])
    scores = template_similarity_scores(dataset, cfg12)
    assert scores.genuine.tobytes() == genuine.tobytes(), token.hex()
    assert scores.impostor.tobytes() == impostor.tobytes(), token.hex()


def roc_per_threshold(scores):
    """Reference sweep: one pair of ``searchsorted`` calls per threshold."""
    genuine = np.sort(scores.genuine)
    impostor = np.sort(scores.impostor)
    hi = max(genuine[-1], impostor[-1])
    thresholds = np.unique(np.concatenate((genuine, impostor, [np.nextafter(hi, np.inf)])))
    n_gen, n_imp = genuine.size, impostor.size
    points = []
    for t in thresholds:
        far = (n_imp - np.searchsorted(impostor, t, side="left")) / n_imp
        frr = np.searchsorted(genuine, t, side="left") / n_gen
        points.append((float(t), float(far), float(frr), float(1.0 - frr)))
    return points


@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=60),
    st.lists(st.integers(0, 40), min_size=1, max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_roc_matches_per_threshold_sweep(genuine, impostor):
    # scores on a 1/40 grid, so ties within and across the two lists are common
    scores = ScoreSet(np.array(genuine) / 40.0, np.array(impostor) / 40.0)
    points = compute_roc(scores)
    assert [tuple(p) for p in points] == roc_per_threshold(scores)
    assert all(type(v) is float for p in points for v in p)


# SHA-256 of roc.csv and of the summary file, computed with per-pair scoring
# and the per-threshold sweep
EVAL_PINS = {
    "roc.csv": "db302c880e6849f5aa899e9f2b78a6f06aa3f3dc2c42a6ea40984c4b197ce920",
    "summary.txt": "fad9994bfa1e97b0c95bd39609d0c18d5acb0f84ebacadb297009e82df4fee2c",
}


def test_eval_outputs_frozen_reference(tmp_path, capsys):
    # noisy enough that the two score distributions overlap (EER 0.25)
    rc = cli.dispatch([
        "eval", "--synthetic", "--subjects", "8", "--impressions", "4",
        "--minutiae", "60", "--seed", "3", "--np", "12", "--noise", "8",
        "--rotation-noise", "30", "--drop-rate", "0.3",
        "--out", str(tmp_path / "roc.csv"), "--summary-out", str(tmp_path / "summary.txt"),
    ])
    assert rc == 0
    assert capsys.readouterr().out.startswith(
        "genuine_mean=0.7484 impostor_mean=0.7405 separation=0.0079 eer=0.2500\n"
    )
    for name, digest in EVAL_PINS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
