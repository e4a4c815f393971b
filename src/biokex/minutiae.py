"""Minutiae data model, text-format parsing, and synthetic capture simulation.

Minutiae arrive as pre-extracted point lists (x, y, theta); raw fingerprint
image processing is out of scope. The text format is the ingestion boundary:

    line 1:            "<width> <height>"
    following lines:   "<x> <y> <theta>"   (integer x, y; decimal theta)
    lines starting "#" are ignored; encoding is UTF-8 with LF line endings.

Angles are degrees, normalized into [0, 360) at parse time. Widths, heights
and coordinates are at most ``MAX_COORDINATE`` (2**31 - 1). A
:class:`Minutia` is a validated ``(x, y, theta)`` named tuple, so it equals
the plain tuple of its fields and carries no per-instance ``__dict__``. All
types are immutable after construction and every operation here is a pure
function, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

__all__ = [
    "MAX_COORDINATE",
    "Minutia",
    "MinutiaeSet",
    "PerturbationProfile",
    "MinutiaeError",
    "InsufficientMinutiaeError",
    "MinutiaeParseError",
    "normalize_degrees",
    "parse_minutiae_file",
    "serialize_minutiae",
    "synthesize_subject",
    "perturb",
    "synthesize_dataset",
]


# Largest accepted image width, height and coordinate. Keeps every coordinate
# difference exact in float64 and every pair length far from overflow.
MAX_COORDINATE = 2**31 - 1


class MinutiaeError(ValueError):
    """Invalid minutiae data."""


class InsufficientMinutiaeError(MinutiaeError):
    """Fewer than two minutiae; pair features are undefined."""


class MinutiaeParseError(MinutiaeError):
    """Malformed minutiae file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def normalize_degrees(theta: float) -> float:
    """Reduce a finite angle into [0, 360)."""
    t = math.fmod(float(theta), 360.0)
    if t < 0.0:
        t += 360.0
    # fmod of a tiny negative can round up to exactly 360.0
    return 0.0 if t >= 360.0 else t


class Minutia(namedtuple("Minutia", "x y theta")):
    """A single ridge feature: pixel position plus orientation in degrees.

    An immutable ``(x, y, theta)`` tuple: x and y coerce to ``int`` in
    [0, MAX_COORDINATE], theta to ``float`` in [0, 360). As a tuple it has no
    per-instance ``__dict__``, and it equals the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, x, y, theta):
        x, y, theta = int(x), int(y), float(theta)
        if not (0 <= x <= MAX_COORDINATE and 0 <= y <= MAX_COORDINATE):
            raise MinutiaeError(f"coordinate ({x}, {y}) outside [0, {MAX_COORDINATE}]")
        # also false for NaN and both infinities
        if not 0.0 <= theta < 360.0:
            raise MinutiaeError(f"theta {theta!r} not in [0, 360)")
        return tuple.__new__(cls, (x, y, theta))

    @classmethod
    def _make(cls, iterable):
        # the namedtuple default skips __new__; ``_replace`` also goes through here
        return cls(*iterable)


@dataclass(frozen=True)
class MinutiaeSet:
    """One impression's minutiae with capture metadata.

    Order is significant and preserved from the source. Needs at least two
    minutiae (otherwise no pair vector exists) and no exact duplicates.
    """

    subject_id: str
    impression_id: int
    width: int
    height: int
    minutiae: tuple[Minutia, ...]

    def __post_init__(self):
        object.__setattr__(self, "minutiae", tuple(self.minutiae))
        if self.width <= 0 or self.height <= 0:
            raise MinutiaeError(f"non-positive image size {self.width}x{self.height}")
        if self.width > MAX_COORDINATE or self.height > MAX_COORDINATE:
            raise MinutiaeError(
                f"image size {self.width}x{self.height} above {MAX_COORDINATE}"
            )
        if len(self.minutiae) < 2:
            raise InsufficientMinutiaeError(
                f"insufficient minutiae: found {len(self.minutiae)}, need at least 2"
            )
        seen = set()
        for m in self.minutiae:
            if m.x > self.width or m.y > self.height:
                raise MinutiaeError(
                    f"minutia ({m.x}, {m.y}) outside {self.width}x{self.height} image"
                )
            if m in seen:
                raise MinutiaeError(f"duplicate minutia {tuple(m)}")
            seen.add(m)

    def __len__(self) -> int:
        return len(self.minutiae)


@dataclass(frozen=True)
class PerturbationProfile:
    """Intra-subject capture variation used to synthesize genuine impressions.

    Gaussian positional jitter (pixels), Gaussian orientation jitter
    (degrees), a dropped fraction of true minutiae and a spurious fraction
    of invented ones. Deterministic for a fixed ``rng_seed``.
    """

    translation_sigma: float = 0.0
    rotation_sigma: float = 0.0
    drop_rate: float = 0.0
    spurious_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        for sigma in (self.translation_sigma, self.rotation_sigma):
            if not (math.isfinite(sigma) and sigma >= 0):
                raise MinutiaeError("perturbation sigmas must be finite and >= 0")
        if not 0.0 <= self.drop_rate <= 1.0 or not 0.0 <= self.spurious_rate <= 1.0:
            raise MinutiaeError("drop/spurious rates must lie in [0, 1]")


def _format_theta(theta: float) -> str:
    return str(int(theta)) if float(theta).is_integer() else repr(theta)


def serialize_minutiae(mset: MinutiaeSet) -> bytes:
    """Render the canonical text form (inverse of :func:`parse_minutiae_file`)."""
    lines = [f"{mset.width} {mset.height}"]
    lines.extend(f"{m.x} {m.y} {_format_theta(m.theta)}" for m in mset.minutiae)
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_minutiae_file(
    data: bytes, subject_id: str = "", impression_id: int = 0
) -> MinutiaeSet:
    """Parse the minutiae text format into a :class:`MinutiaeSet`.

    Subject/impression identifiers are not part of the format; callers supply
    them (typically from the file name). Parsing is byte-deterministic and
    raises :class:`MinutiaeParseError` naming the offending line.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MinutiaeParseError(0, f"not valid UTF-8: {exc}") from None

    lines = text.split("\n")
    if not lines or not lines[0].strip() or lines[0].lstrip().startswith("#"):
        raise MinutiaeParseError(1, "malformed header: expected '<width> <height>'")
    header = lines[0].split()
    if len(header) != 2:
        raise MinutiaeParseError(1, "malformed header: expected '<width> <height>'")
    try:
        width, height = int(header[0]), int(header[1])
    except ValueError:
        raise MinutiaeParseError(1, f"malformed header: non-numeric {lines[0]!r}") from None
    if width <= 0 or height <= 0:
        raise MinutiaeParseError(1, f"malformed header: non-positive size {width}x{height}")
    if width > MAX_COORDINATE or height > MAX_COORDINATE:
        raise MinutiaeParseError(
            1, f"malformed header: size {width}x{height} above {MAX_COORDINATE}"
        )

    minutiae: list[Minutia] = []
    seen: set[tuple[int, int, float]] = set()
    last_line = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw:
            last_line = lineno
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 3:
            raise MinutiaeParseError(lineno, f"expected '<x> <y> <theta>', got {raw!r}")
        try:
            x, y = int(fields[0]), int(fields[1])
        except ValueError:
            raise MinutiaeParseError(lineno, f"non-numeric coordinate in {raw!r}") from None
        try:
            theta_raw = float(fields[2])
        except ValueError:
            raise MinutiaeParseError(lineno, f"non-numeric angle {fields[2]!r}") from None
        if not math.isfinite(theta_raw):
            raise MinutiaeParseError(lineno, f"angle {fields[2]!r} out of range after normalization")
        theta = normalize_degrees(theta_raw)
        if x < 0 or x > width or y < 0 or y > height:
            raise MinutiaeParseError(lineno, f"coordinate ({x}, {y}) outside {width}x{height} image")
        key = (x, y, theta)
        if key in seen:
            raise MinutiaeParseError(lineno, f"duplicate minutia {key}")
        seen.add(key)
        minutiae.append(Minutia(x, y, theta))

    if len(minutiae) < 2:
        raise MinutiaeParseError(
            last_line, f"insufficient minutiae: found {len(minutiae)}, need at least 2"
        )
    return MinutiaeSet(subject_id, impression_id, width, height, tuple(minutiae))


def synthesize_subject(
    n_minutiae: int,
    width: int,
    height: int,
    seed: int,
    subject_id: str | None = None,
) -> MinutiaeSet:
    """Generate a subject with minutiae uniform over the image rectangle.

    Pure function of its arguments: the same seed always yields the same set.
    Coordinates are drawn from [0, width] x [0, height] inclusive, angles
    uniform over [0, 360).
    """
    if n_minutiae < 2:
        raise InsufficientMinutiaeError(
            f"insufficient minutiae: requested {n_minutiae}, need at least 2"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    minutiae: list[Minutia] = []
    seen: set[tuple[int, int, float]] = set()
    while len(minutiae) < n_minutiae:
        x = int(rng.integers(0, width, endpoint=True))
        y = int(rng.integers(0, height, endpoint=True))
        theta = normalize_degrees(rng.uniform(0.0, 360.0))
        key = (x, y, theta)
        if key in seen:
            continue
        seen.add(key)
        minutiae.append(Minutia(x, y, theta))
    sid = subject_id if subject_id is not None else f"synth-{seed}"
    return MinutiaeSet(sid, 0, width, height, tuple(minutiae))


def perturb(mset: MinutiaeSet, profile: PerturbationProfile) -> MinutiaeSet:
    """Simulate a fresh capture of the same finger.

    Surviving minutiae are displaced by Gaussian noise in position and
    orientation, a ``drop_rate`` fraction is removed, and a ``spurious_rate``
    fraction of invented minutiae is appended. Deterministic for a fixed
    profile seed; the all-zero profile is the identity map.

    The displacement runs on whole arrays, but the RNG draw order is the
    per-minutia one: x, y and angle noise for every minutia, then the drop
    choice, then one scalar (x, y, angle) draw per spurious minutia. Positions
    round half to even (as ``round``) and clip to the image; angles reduce as
    :func:`normalize_degrees` does. Positional rounding can collide two
    survivors; the first occurrence is kept.
    """
    return replace(mset, minutiae=_perturbed_minutiae(mset, profile))


def _perturbed_minutiae(mset: MinutiaeSet, profile: PerturbationProfile) -> tuple[Minutia, ...]:
    """The minutiae of ``perturb(mset, profile)``, not yet wrapped in a set."""
    rng = np.random.default_rng(np.random.SeedSequence(profile.rng_seed))
    n = len(mset.minutiae)
    pts = np.fromiter(chain.from_iterable(mset.minutiae), np.float64, 3 * n).reshape(n, 3)

    dx = rng.normal(0.0, profile.translation_sigma, size=n)
    dy = rng.normal(0.0, profile.translation_sigma, size=n)
    dtheta = rng.normal(0.0, profile.rotation_sigma, size=n)

    xs = np.clip(np.rint(pts[:, 0] + dx), 0, mset.width).astype(np.int64)
    ys = np.clip(np.rint(pts[:, 1] + dy), 0, mset.height).astype(np.int64)
    thetas = np.fmod(pts[:, 2] + dtheta, 360.0)
    thetas[thetas < 0.0] += 360.0
    # fmod of a tiny negative can round up to exactly 360.0
    thetas[thetas >= 360.0] = 0.0

    n_drop = int(round(profile.drop_rate * n))
    if n_drop:
        keep = np.ones(n, dtype=bool)
        keep[rng.choice(n, size=n_drop, replace=False)] = False
        xs, ys, thetas = xs[keep], ys[keep], thetas[keep]
    moved = list(zip(xs.tolist(), ys.tolist(), thetas.tolist()))

    n_spurious = int(round(profile.spurious_rate * n))
    seen = set(moved)
    for _ in range(n_spurious):
        while True:
            x = int(rng.integers(0, mset.width, endpoint=True))
            y = int(rng.integers(0, mset.height, endpoint=True))
            theta = normalize_degrees(rng.uniform(0.0, 360.0))
            if (x, y, theta) not in seen:
                break
        seen.add((x, y, theta))
        moved.append((x, y, theta))

    unique = dict.fromkeys(moved)
    if len(unique) < 2:
        raise InsufficientMinutiaeError(
            f"insufficient minutiae: {len(unique)} left after perturbation"
        )
    return tuple(Minutia(*key) for key in unique)


def synthesize_dataset(
    n_subjects: int,
    n_impressions: int,
    profile: PerturbationProfile,
    *,
    n_minutiae: int = 30,
    width: int = 388,
    height: int = 374,
    seed: int = 0,
) -> list[list[MinutiaeSet]]:
    """Build a synthetic gallery: ``dataset[s][i]`` is impression i of subject s.

    Genuine impressions re-perturb one underlying subject with per-impression
    sub-seeds; different subjects are synthesized independently, so
    cross-subject comparisons behave as impostor pairs.
    """
    if n_subjects < 1 or n_impressions < 1:
        raise MinutiaeError("need at least one subject and one impression")
    dataset: list[list[MinutiaeSet]] = []
    for s in range(n_subjects):
        base_seed = int(np.random.SeedSequence([seed, s]).generate_state(1, np.uint64)[0])
        base = synthesize_subject(n_minutiae, width, height, base_seed, subject_id=f"s{s:04d}")
        impressions = []
        for i in range(n_impressions):
            sub_seed = int(
                np.random.SeedSequence([seed, s, i]).generate_state(1, np.uint64)[0]
            )
            moved = _perturbed_minutiae(base, replace(profile, rng_seed=sub_seed))
            impressions.append(MinutiaeSet(base.subject_id, i, base.width, base.height, moved))
        dataset.append(impressions)
    return dataset
