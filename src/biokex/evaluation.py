"""Statistical evaluation harness: pairing protocol, Hamming distributions,
entropy, and FAR/FRR/GAR/ROC/EER.

Comparison protocol over an s-subjects x m-impressions gallery:

* genuine pairs: every unique impression pair within a subject,
  s * C(m, 2) comparisons;
* impostor pairs: first impressions of every unique subject pair,
  C(s, 2) comparisons.

Template similarity is the matching-bit fraction of the two revocable
templates under one shared transformation key (the stolen-token scenario:
an impostor who knows the key). A bit permutation preserves the Hamming
distance between two strings permuted by the same key, so the feature bit
strings are scored: their scores equal the templates' under any one shared
key. Scores for ROC purposes come from templates, not hashed keys: the
hash is avalanching by design, so one differing template bit already
yields unrelated keys and a graded score only exists before hashing.
Key-level studies (impostor keys, revocability) therefore expect Hamming
fractions near 0.5.

Everything here is a pure function over its inputs; pair ranges may be
split across workers and merged without changing any result.

Feature extraction is most of a gallery evaluation, so one forked child
extracts the second half of the subjects' feature strings while the caller
extracts the first, and sends its packed rows back through a pipe. Each row
is a function of its minutiae set and the quantization alone, so the bytes
are those of the serial loop. The loop stays serial where ``os.fork`` is
missing, where the process may run on one CPU only, and where it already
runs a second thread, which a fork could leave holding a lock: a process
that has run a session keeps :func:`pipeline.side_by_side`'s worker. If the
child fails or sends too few rows, the caller extracts its half too, so an
error surfaces exactly as on the serial path.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .features import QuantizationConfig, extract_features
from .minutiae import MinutiaeSet
from .pipeline import pair_session_key, private_key_from_minutiae
from .transform import TransformationKey

__all__ = [
    "ScoreSet",
    "DistributionSummary",
    "RocPoint",
    "EvaluationError",
    "HISTOGRAM_BINS",
    "fvc_pairings",
    "template_similarity_scores",
    "session_key_sample",
    "pairwise_key_hamming",
    "revocability_fractions",
    "shannon_entropy",
    "compute_roc",
    "eer",
    "write_roc_csv",
    "write_summary_records",
]

HISTOGRAM_BINS = 50

ROC_CSV_HEADER = "threshold,far,frr,gar"


class EvaluationError(ValueError):
    """Degenerate evaluation input."""


@dataclass(frozen=True)
class ScoreSet:
    """Labeled similarity scores in [0, 1]: genuine and impostor trials."""

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "genuine", np.asarray(self.genuine, dtype=np.float64))
        object.__setattr__(self, "impostor", np.asarray(self.impostor, dtype=np.float64))
        if self.genuine.size == 0 or self.impostor.size == 0:
            raise EvaluationError("both genuine and impostor score lists must be non-empty")


@dataclass(frozen=True)
class DistributionSummary:
    """Moments plus a fixed 50-bin histogram over [0, 1]."""

    mean: float
    std: float
    min: float
    max: float
    histogram: np.ndarray
    count: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "DistributionSummary":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size == 0:
            raise EvaluationError("no samples to summarize")
        hist, _ = np.histogram(samples, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
        return cls(
            mean=float(samples.mean()),
            std=float(samples.std()),
            min=float(samples.min()),
            max=float(samples.max()),
            histogram=hist,
            count=int(samples.size),
        )

    def to_record_lines(self) -> list[str]:
        return [
            f"count={self.count}",
            f"mean={self.mean:.6f}",
            f"std={self.std:.6f}",
            f"min={self.min:.6f}",
            f"max={self.max:.6f}",
            "histogram=" + ",".join(str(int(c)) for c in self.histogram),
        ]


class FvcPairings(NamedTuple):
    genuine: list[tuple[int, int, int]]   # (subject, impression_i, impression_j)
    impostor: list[tuple[int, int]]       # (subject_i, subject_j), first impressions


def fvc_pairings(n_subjects: int, n_impressions: int) -> FvcPairings:
    """Comparison lists for the s x m protocol.

    Yields exactly s * C(m, 2) genuine and C(s, 2) impostor pairs; for
    (100, 8) that is 2800 and 4950.
    """
    if n_subjects < 2 or n_impressions < 2:
        raise EvaluationError("need at least 2 subjects and 2 impressions")
    genuine = [
        (s, i, j)
        for s in range(n_subjects)
        for i in range(n_impressions)
        for j in range(i + 1, n_impressions)
    ]
    impostor = [
        (si, sj) for si in range(n_subjects) for sj in range(si + 1, n_subjects)
    ]
    return FvcPairings(genuine, impostor)


def _packed_templates(
    dataset: Sequence[Sequence[MinutiaeSet]],
    n_impressions: int,
    cfg: QuantizationConfig,
) -> np.ndarray:
    """Feature bits of the first ``n_impressions`` impressions of every
    subject, packed into bytes MSB first: shape (subjects, impressions,
    2**n_p / 8)."""
    packed = np.empty((len(dataset), n_impressions, (1 << cfg.n_p) // 8), np.uint8)

    def fill(rows: range) -> None:
        for s in rows:
            for i, mset in enumerate(dataset[s][:n_impressions]):
                packed[s, i] = np.packbits(extract_features(mset, cfg).bits, bitorder="big")

    half = len(dataset) // 2
    if not _may_fork():
        fill(range(len(dataset)))
        return packed
    rest = memoryview(packed[half:]).cast("B")
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # from Python 3.12 a native thread, such as the BLAS pool NumPy starts
        # on import, makes fork warn; no Python thread runs (see _may_fork)
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            fill(range(half, len(dataset)))
            with open(write_fd, "wb") as rows_out:
                rows_out.write(rest)
            code = 0
        finally:
            os._exit(code)

    os.close(write_fd)
    status = None
    try:
        with open(read_fd, "rb") as rows_in:
            fill(range(half))
            received = rows_in.readinto(rest)
        _, status = os.waitpid(pid, 0)
    finally:
        if status is None:
            import signal  # only here: a `biokex eval` process does not load it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status != 0 or received != rest.nbytes:
        fill(range(half, len(dataset)))
    return packed


def _may_fork() -> bool:
    """Whether :func:`_packed_templates` may fork a child for half the rows:
    the platform forks, the process may run on two CPUs at least, and no
    other thread runs."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    affinity = getattr(os, "sched_getaffinity", None)
    return (len(affinity(0)) if affinity else os.cpu_count() or 1) > 1


def _differing_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise differing-bit counts of two packed byte stacks (b may be one row)."""
    return np.bitwise_count(np.bitwise_xor(a, b)).sum(axis=-1)


def template_similarity_scores(
    dataset: Sequence[Sequence[MinutiaeSet]],
    cfg: QuantizationConfig = QuantizationConfig(),
) -> ScoreSet:
    """Genuine and impostor matching-bit fractions under one shared key.

    The feature bit strings are scored: one shared key permutes both
    templates of a pair alike, which keeps their Hamming distance, so the
    revocable templates under any one shared key score exactly the same.

    Scores come out in :func:`fvc_pairings` order. Genuine pairs are scored
    one subject at a time and impostor pairs one row at a time, so the XOR
    temporaries stay at C(m, 2) or s - 1 templates.
    """
    if len(dataset) < 2 or min(len(row) for row in dataset) < 2:
        raise EvaluationError("dataset needs >= 2 subjects with >= 2 impressions each")
    n_impressions = min(len(row) for row in dataset)
    packed = _packed_templates(dataset, n_impressions, cfg)
    nbits = 1 << cfg.n_p
    i_idx, j_idx = np.triu_indices(n_impressions, k=1)
    genuine = [_differing_bits(row[i_idx], row[j_idx]) for row in packed]
    first = packed[:, 0]
    impostor = [_differing_bits(first[si + 1 :], first[si]) for si in range(len(first) - 1)]
    return ScoreSet(
        1.0 - np.concatenate(genuine) / nbits, 1.0 - np.concatenate(impostor) / nbits
    )


def session_key_sample(
    dataset: Sequence[Sequence[MinutiaeSet]],
    cfg: QuantizationConfig = QuantizationConfig(),
    *,
    seed: int = 0,
) -> list[bytes]:
    """One agreed session key per impostor pairing.

    Consecutive subjects are paired into communicating couples: 2k subjects
    give k pairings, each running the full exchange (fresh transformation
    keys both sides) down to one 32-byte session key.
    """
    n_pairings = len(dataset) // 2
    if n_pairings < 1:
        raise EvaluationError("need at least 2 subjects for one pairing")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A]))
    keys = []
    for k in range(n_pairings):
        sk = pair_session_key(
            dataset[2 * k][0], TransformationKey.random(rng),
            dataset[2 * k + 1][0], TransformationKey.random(rng),
            cfg, session_id=k,
        )
        keys.append(sk.key)
    return keys


def pairwise_key_hamming(keys: Sequence[bytes]) -> np.ndarray:
    """Hamming fractions over all unordered pairs of equal-length keys."""
    if len(keys) < 2:
        raise EvaluationError("need at least 2 keys to compare")
    mat = np.stack([np.frombuffer(k, dtype=np.uint8) for k in keys])
    nbits = mat.shape[1] * 8
    diffs = [_differing_bits(mat[i + 1 :], mat[i]) for i in range(len(keys) - 1)]
    return np.concatenate(diffs) / nbits


def revocability_fractions(
    dataset: Sequence[Sequence[MinutiaeSet]],
    n_keys: int = 30,
    cfg: QuantizationConfig = QuantizationConfig(),
    *,
    seed: int = 0,
) -> np.ndarray:
    """Per-subject private-key Hamming fractions against the first key.

    Each subject's private key under a base transformation key is compared
    with the keys under ``n_keys`` independently drawn replacement keys.
    """
    if n_keys < 2:
        raise EvaluationError("need at least 2 transformation keys")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x2B]))
    fractions = []
    for impressions in dataset:
        mset = impressions[0]
        base = private_key_from_minutiae(mset, cfg, TransformationKey.random(rng)).to_bytes()
        base_bits = np.frombuffer(base, dtype=np.uint8)
        for _ in range(n_keys):
            other = private_key_from_minutiae(mset, cfg, TransformationKey.random(rng)).to_bytes()
            diff = int(_differing_bits(base_bits, np.frombuffer(other, dtype=np.uint8)))
            fractions.append(diff / 256.0)
    return np.array(fractions)


def shannon_entropy(samples: bytes) -> float:
    """Shannon entropy of the byte-value distribution, in bits per byte.

    Sum of p * log2(1/p) over the 256 byte values; 0 for constant input,
    exactly 8 for a uniform multiset. Permutation-invariant by construction.
    """
    if len(samples) == 0:
        raise EvaluationError("empty sample")
    counts = np.bincount(np.frombuffer(samples, dtype=np.uint8), minlength=256)
    p = counts[counts > 0] / len(samples)
    return float(-(p * np.log2(p)).sum())


class RocPoint(NamedTuple):
    threshold: float
    far: float
    frr: float
    gar: float


def compute_roc(scores: ScoreSet) -> list[RocPoint]:
    """Threshold sweep over the observed scores.

    At threshold t: FAR is the impostor fraction scoring >= t, FRR the
    genuine fraction scoring < t, GAR = 1 - FRR. The sweep is padded below
    the minimum and above the maximum score so FAR runs 1 -> 0 and FRR
    0 -> 1 across every output.
    """
    genuine = np.sort(scores.genuine)
    impostor = np.sort(scores.impostor)
    hi = max(genuine[-1], impostor[-1])
    # at the lowest observed score FAR=1 and FRR=0 already; one extra point
    # above the maximum closes the sweep at FAR=0, FRR=1
    thresholds = np.unique(np.concatenate((
        genuine, impostor, [np.nextafter(hi, np.inf)],
    )))
    n_gen, n_imp = genuine.size, impostor.size
    far = (n_imp - np.searchsorted(impostor, thresholds, side="left")) / n_imp
    frr = np.searchsorted(genuine, thresholds, side="left") / n_gen
    return [
        RocPoint(*row)
        for row in zip(thresholds.tolist(), far.tolist(), frr.tolist(), (1.0 - frr).tolist())
    ]


def eer(scores: ScoreSet) -> float:
    """Equal error rate: FAR at the FAR/FRR crossing, linearly interpolated
    between the two adjacent sweep thresholds."""
    points = compute_roc(scores)
    diffs = [p.far - p.frr for p in points]
    for i in range(len(points) - 1):
        d0, d1 = diffs[i], diffs[i + 1]
        if d0 == 0.0:
            return points[i].far
        if d0 > 0.0 >= d1:
            if d0 == d1:
                return points[i].far
            u = d0 / (d0 - d1)
            return points[i].far + u * (points[i + 1].far - points[i].far)
    return points[-1].far if abs(diffs[-1]) < abs(diffs[0]) else points[0].far


def write_roc_csv(points: Iterable[RocPoint], path: str | Path) -> None:
    lines = [ROC_CSV_HEADER]
    lines += [f"{p.threshold:.9f},{p.far:.9f},{p.frr:.9f},{p.gar:.9f}" for p in points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_records(
    summaries: dict[str, DistributionSummary], path: str | Path
) -> None:
    """Structured record file: blocks of ``name.field=value`` lines."""
    lines = []
    for name, summary in summaries.items():
        lines.extend(f"{name}.{row}" for row in summary.to_record_lines())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
