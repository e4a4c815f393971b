import hashlib
import math
import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_cli

from biokex import cli, evaluation
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
from biokex.features import FeatureError, QuantizationConfig
from biokex.minutiae import MinutiaeSet, PerturbationProfile, synthesize_dataset
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
    profile = PerturbationProfile(translation_sigma=0.5, rotation_sigma=1.0)
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


# SHA-256 of roc.csv and of the summary file for the benchmark's gallery
# shape (190 minutiae, 8 impressions, 5% drop) on 12 subjects at seed 11,
# written by the scalar synthesis draws and the index-gathered pair features
BENCH_SHAPE_PINS = {
    "roc.csv": "9a789aff1880ab1ecc256ab2498b0634a6e44f6ef5539df7e596ab37653e3dac",
    "summary.txt": "1ee9ddd37c5457460081c842869487121c1ebd572e60c1f14eeaacad766f490d",
}


BENCH_SHAPE_ARGS = [
    "eval", "--synthetic", "--subjects", "12", "--impressions", "8", "--minutiae", "190",
    "--drop-rate", "0.05", "--seed", "11", "--out", "roc.csv", "--summary-out", "summary.txt",
]
BENCH_SHAPE_LINE = "genuine_mean=0.7250 impostor_mean=0.6566 separation=0.0684 eer=0.0000\n"


def test_eval_benchmark_shape_frozen_reference(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(BENCH_SHAPE_ARGS) == 0
    assert capsys.readouterr().out.startswith(BENCH_SHAPE_LINE)
    for name, digest in BENCH_SHAPE_PINS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_eval_benchmark_shape_frozen_reference_in_child_interpreter(tmp_path):
    # a fresh interpreter runs no second thread, so on two CPUs or more its
    # feature strings come half from a forked child
    proc = run_cli(BENCH_SHAPE_ARGS, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith(BENCH_SHAPE_LINE)
    for name, digest in BENCH_SHAPE_PINS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


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


# --- feature strings extracted in two processes ---------------------------------

def _timed_out(signum, frame):
    raise TimeoutError("feature extraction did not finish in 60 s")


@pytest.fixture
def packed_with(monkeypatch):
    """``_packed_templates`` with the fork taken or not, as ``fork`` says.

    Tier-1's process runs a worker thread once a session has run, so the fork
    is forced here. Each call has 60 s, so that a blocked pipe fails the test
    instead of hanging the suite, and leaves no child of this process behind.
    """
    def packed(fork, dataset, n_impressions, cfg):
        monkeypatch.setattr(evaluation, "_may_fork", lambda: fork)
        previous = signal.signal(signal.SIGALRM, _timed_out)
        signal.alarm(60)
        try:
            return evaluation._packed_templates(dataset, n_impressions, cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    return packed


def _gallery(n_subjects):
    profile = PerturbationProfile(translation_sigma=2.0, rotation_sigma=4.0, drop_rate=0.05)
    return synthesize_dataset(n_subjects, 3, profile, n_minutiae=40, seed=28)


fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform does not fork")


@fork_only
@pytest.mark.parametrize("n_subjects", [5, 6], ids=["odd", "even"])
def test_forked_extraction_matches_serial(packed_with, monkeypatch, cfg12, n_subjects):
    dataset = _gallery(n_subjects)
    serial = packed_with(False, dataset, 3, cfg12)
    extracted = []
    extract = evaluation.extract_features
    monkeypatch.setattr(
        evaluation, "extract_features", lambda mset, cfg: extracted.append(mset) or extract(mset, cfg)
    )
    forked = packed_with(True, dataset, 3, cfg12)
    assert forked.tobytes() == serial.tobytes()
    # the caller extracted the first half only: the rest came from the child
    assert extracted == [m for row in dataset[: n_subjects // 2] for m in row]


@fork_only
@pytest.mark.parametrize("subject", [4, 0], ids=["child_half", "caller_half"])
def test_forked_extraction_fails_as_serial(packed_with, cfg12, subject):
    # two minutiae at one position: no pair has a direction
    dataset = [list(row) for row in _gallery(5)]
    dataset[subject][1] = MinutiaeSet(
        dataset[subject][1].subject_id, 1, 10, 10, [[5, 5], [5, 5], [0.0, 180.0]]
    )
    with pytest.raises(FeatureError) as serial:
        packed_with(False, dataset, 3, cfg12)
    with pytest.raises(FeatureError) as forked:
        packed_with(True, dataset, 3, cfg12)
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)


def test_extraction_forks_only_on_two_cpus_and_one_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    assert evaluation._may_fork() is hasattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    assert not evaluation._may_fork()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert not evaluation._may_fork()
