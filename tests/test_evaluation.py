import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biokex.evaluation import (
    DistributionSummary,
    EvaluationError,
    ROC_CSV_HEADER,
    ScoreSet,
    compute_roc,
    eer,
    fvc_pairings,
    hamming_fraction,
    pairwise_key_hamming,
    revocability_fractions,
    session_key_sample,
    shannon_entropy,
    template_similarity_scores,
    write_roc_csv,
)
from biokex.features import QuantizationConfig
from biokex.minutiae import PerturbationProfile, synthesize_dataset
from biokex.pipeline import private_key_from_minutiae
from biokex.transform import TransformationKey


# --- hamming ---------------------------------------------------------------

def test_hamming_identical_is_zero():
    assert hamming_fraction(b"\xaa" * 8, b"\xaa" * 8) == 0.0


def test_hamming_complementary_is_one():
    assert hamming_fraction(b"\x00" * 8, b"\xff" * 8) == 1.0


def test_hamming_half_of_256_bits():
    # 256-bit strings differing in exactly 128 positions
    a = b"\x00" * 32
    b = b"\x0f" * 32
    assert hamming_fraction(a, b) == 0.5


def test_hamming_accepts_bit_arrays():
    a = np.array([0, 1, 0, 1], dtype=np.uint8)
    b = np.array([0, 1, 1, 1], dtype=np.uint8)
    assert hamming_fraction(a, b) == 0.25


def test_hamming_length_mismatch():
    with pytest.raises(EvaluationError, match="length"):
        hamming_fraction(b"\x00", b"\x00\x00")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_hamming_is_a_metric(seed):
    rng = np.random.default_rng(seed)
    x, y, z = (rng.integers(0, 2, size=64).astype(np.uint8) for _ in range(3))
    dxy = hamming_fraction(x, y)
    assert dxy == hamming_fraction(y, x)
    assert hamming_fraction(x, x) == 0.0
    assert dxy <= hamming_fraction(x, z) + hamming_fraction(z, y) + 1e-12


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
    assert hamming_fraction(k1.to_bytes(), k2.to_bytes()) == 0.0


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
