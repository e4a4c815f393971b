"""Minutiae data model, text-format parsing, and synthetic capture simulation.

Minutiae arrive as pre-extracted point lists (x, y, theta); raw fingerprint
image processing is out of scope. The text format is the ingestion boundary:

    line 1:            "<width> <height>"
    following lines:   "<x> <y> <theta>"   (integer x, y; decimal theta)
    lines starting "#" are ignored; encoding is UTF-8 with LF line endings.

Angles are degrees, normalized into [0, 360) at parse time. Widths, heights
and coordinates are at most ``MAX_COORDINATE`` (2**31 - 1). A
:class:`MinutiaeSet` holds its minutiae as one read-only (3, n) float64
array, validated once on construction. Parsing, synthesis and perturbation
hand it plain tuples or an array, so no per-minutia object exists on the
evaluation path. :class:`Minutia`, a validated ``(x, y, theta)`` named
tuple, is the element type of ``MinutiaeSet.minutiae``, built on demand. All
types are immutable after construction and every operation here is a pure
function, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

__all__ = [
    "MAX_COORDINATE",
    "SENSOR_WIDTH",
    "SENSOR_HEIGHT",
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


# Image width and height of synthetic captures: the 388x374 sensor of
# FVC2002 DB1.
SENSOR_WIDTH, SENSOR_HEIGHT = 388, 374

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
    A :class:`MinutiaeSet` does not store these; it builds them on demand.
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


def _check_image_size(width: int, height: int) -> None:
    if width <= 0 or height <= 0:
        raise MinutiaeError(f"non-positive image size {width}x{height}")
    if width > MAX_COORDINATE or height > MAX_COORDINATE:
        raise MinutiaeError(f"image size {width}x{height} above {MAX_COORDINATE}")


def _check_seed(seed, name: str) -> None:
    """Reject what ``np.random.SeedSequence`` would, as a :class:`MinutiaeError`."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise MinutiaeError(f"{name} must be a non-negative integer, got {seed!r}")


def _repeats(pts: np.ndarray) -> np.ndarray:
    """Indices of the columns of a (3, n) array equal to an earlier one (as
    tuples: 0.0 equals -0.0). The stable lexsort keeps equal columns in
    source order, so the first of each run is the first occurrence."""
    order = np.lexsort(pts[::-1])
    ordered = pts.take(order, axis=1)
    eq = ordered[:, 1:] == ordered[:, :-1]
    return order[1:][eq[0] & eq[1] & eq[2]]


def _checked_points(minutiae, width: int, height: int) -> np.ndarray:
    """The read-only (3, n) float64 array of a set's minutiae, validated.

    ``minutiae`` is a (3, n) array or a sequence of :class:`Minutia` or
    (x, y, theta) triples. Each column is coerced and checked as
    ``Minutia(x, y, theta)`` would be, then the set as a whole: image size,
    at least two minutiae, every minutia inside the image, no duplicates.
    An input that breaks several rules raises for the first in that order,
    and within a rule for the first offending minutia in source order.
    """
    if isinstance(minutiae, np.ndarray):
        pts = np.array(minutiae, dtype=np.float64, order="C")
        if pts.ndim != 2 or pts.shape[0] != 3:
            raise MinutiaeError(f"minutiae array of shape {pts.shape}, expected (3, n)")
        rows = minutiae.T
    else:
        rows = tuple(minutiae)
        try:
            pts = np.array(list(zip(*rows, strict=True)), dtype=np.float64).reshape(3, len(rows))
        except (TypeError, ValueError, OverflowError):
            # rows that are not triples of numbers: Minutia coerces or rejects each
            rows = [Minutia(*r) for r in rows]
            pts = np.array(list(zip(*rows)), dtype=np.float64).reshape(3, len(rows))
    xy = pts[:2]
    # int() truncates; adding 0.0 turns the -0.0 of truncating (-1, 0) into 0.0
    np.trunc(xy, out=xy)
    xy += 0.0
    (x_lo, y_lo, t_lo), (x_hi, y_hi, t_hi) = (
        pts.min(axis=1, initial=0.0).tolist(), pts.max(axis=1, initial=0.0).tolist()
    )
    # NaN fails every comparison, as in Minutia
    if not (x_lo >= 0.0 and y_lo >= 0.0 and t_lo >= 0.0
            and x_hi <= MAX_COORDINATE and y_hi <= MAX_COORDINATE and t_hi < 360.0):
        for r in rows:
            Minutia(*r)  # raises for the first minutia it rejects

    _check_image_size(width, height)
    n = pts.shape[1]
    if n < 2:
        raise InsufficientMinutiaeError(f"insufficient minutiae: found {n}, need at least 2")
    repeats = _repeats(pts)
    if x_hi > width or y_hi > height or len(repeats):
        outside = (xy[0] > width) | (xy[1] > height)
        k = min(np.flatnonzero(outside).tolist() + repeats.tolist())
        x, y, t = int(pts[0, k]), int(pts[1, k]), float(pts[2, k])
        if outside[k]:
            raise MinutiaeError(f"minutia ({x}, {y}) outside {width}x{height} image")
        raise MinutiaeError(f"duplicate minutia {(x, y, t)}")
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True, eq=False)
class MinutiaeSet:
    """One impression's minutiae with capture metadata.

    The minutiae are stored as ``points``, one read-only (3, n) float64 array
    whose rows are the x, y and theta of every minutia, in source order; no
    per-minutia object is kept. The constructor takes that array or a
    sequence of :class:`Minutia` or (x, y, theta) triples, and validates it
    once: a valid image size, at least two minutiae (otherwise no pair vector
    exists), each inside the image, and no exact duplicates (as tuples, so
    0.0 equals -0.0). ``minutiae`` builds the tuple of :class:`Minutia` on
    demand. Two sets are equal when their metadata and minutiae are.
    """

    subject_id: str
    impression_id: int
    width: int
    height: int
    minutiae: InitVar[Sequence[tuple[int, int, float]] | np.ndarray] = ()
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, minutiae):
        object.__setattr__(self, "points", _checked_points(minutiae, self.width, self.height))

    def _minutiae(self) -> tuple[Minutia, ...]:
        return tuple(map(Minutia, *self.points.tolist()))

    def __len__(self) -> int:
        return self.points.shape[1]

    def _key(self) -> tuple:
        return (self.subject_id, self.impression_id, self.width, self.height)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key() and bool(np.array_equal(self.points, other.points))

    def __hash__(self) -> int:
        # Python floats hash 0.0 and -0.0 alike, as equality needs
        return hash((self._key(), tuple(self.points.ravel().tolist())))

    def __reduce__(self):
        # copies and unpickled sets go through validation and stay read-only
        return self.__class__, (*self._key(), self.points)


# set after the dataclass is built, so that the ``minutiae`` InitVar keeps its
# default; ``replace(mset, ...)`` reads the minutiae here
MinutiaeSet.minutiae = property(MinutiaeSet._minutiae, doc="Tuple of Minutia, built on access.")


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
        _check_seed(self.rng_seed, "rng_seed")


def _format_theta(theta: float) -> str:
    return str(int(theta)) if float(theta).is_integer() else repr(theta)


def serialize_minutiae(mset: MinutiaeSet) -> bytes:
    """Render the canonical text form (inverse of :func:`parse_minutiae_file`)."""
    lines = [f"{mset.width} {mset.height}"]
    xs, ys, thetas = mset.points.tolist()
    lines.extend(f"{int(x)} {int(y)} {_format_theta(t)}" for x, y, t in zip(xs, ys, thetas))
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
    try:
        _check_image_size(width, height)
    except MinutiaeError as exc:
        raise MinutiaeParseError(1, f"malformed header: {exc}") from None

    minutiae: list[tuple[int, int, float]] = []
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
        minutiae.append(key)

    if len(minutiae) < 2:
        raise MinutiaeParseError(
            last_line, f"insufficient minutiae: found {len(minutiae)}, need at least 2"
        )
    return MinutiaeSet(subject_id, impression_id, width, height, minutiae)


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
    uniform over [0, 360). Arguments are checked before the first draw.
    """
    if n_minutiae < 2:
        raise InsufficientMinutiaeError(
            f"insufficient minutiae: requested {n_minutiae}, need at least 2"
        )
    _check_image_size(width, height)
    _check_seed(seed, "seed")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    minutiae = _draw_unique(rng, n_minutiae, width, height, set())
    sid = subject_id if subject_id is not None else f"synth-{seed}"
    return MinutiaeSet(sid, 0, width, height, minutiae)


def _draw_unique(
    rng: np.random.Generator, count: int, width: int, height: int, seen: set
) -> list[tuple[int, int, float]]:
    """``count`` minutiae, each drawn as x, y, then angle, and drawn again
    while it repeats one in ``seen``; ``seen`` gains every one returned."""
    drawn: list[tuple[int, int, float]] = []
    while len(drawn) < count:
        m = (
            int(rng.integers(0, width, endpoint=True)),
            int(rng.integers(0, height, endpoint=True)),
            normalize_degrees(rng.uniform(0.0, 360.0)),
        )
        if m not in seen:
            seen.add(m)
            drawn.append(m)
    return drawn


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
    return replace(mset, minutiae=_perturbed_points(mset, profile))


def _perturbed_points(mset: MinutiaeSet, profile: PerturbationProfile) -> np.ndarray:
    """The (3, n) minutiae array of ``perturb(mset, profile)``, not yet a set."""
    rng = np.random.default_rng(np.random.SeedSequence(profile.rng_seed))
    n = len(mset)
    xs, ys, thetas = mset.points

    dx = rng.normal(0.0, profile.translation_sigma, size=n)
    dy = rng.normal(0.0, profile.translation_sigma, size=n)
    dtheta = rng.normal(0.0, profile.rotation_sigma, size=n)

    pts = np.empty((3, n))
    np.clip(np.rint(xs + dx), 0, mset.width, out=pts[0])
    np.clip(np.rint(ys + dy), 0, mset.height, out=pts[1])
    thetas = np.fmod(thetas + dtheta, 360.0, out=pts[2])
    thetas[thetas < 0.0] += 360.0
    # fmod of a tiny negative can round up to exactly 360.0
    thetas[thetas >= 360.0] = 0.0

    n_drop = int(round(profile.drop_rate * n))
    if n_drop:
        keep = np.ones(n, dtype=bool)
        keep[rng.choice(n, size=n_drop, replace=False)] = False
        pts = pts[:, keep]

    n_spurious = int(round(profile.spurious_rate * n))
    if n_spurious:
        spurious = _draw_unique(rng, n_spurious, mset.width, mset.height, set(zip(*pts.tolist())))
        pts = np.concatenate((pts, np.array(spurious, dtype=np.float64).T), axis=1)

    # positional rounding can collide two survivors: keep the first
    repeats = _repeats(pts)
    if len(repeats):
        pts = np.delete(pts, repeats, axis=1)
    if pts.shape[1] < 2:
        raise InsufficientMinutiaeError(
            f"insufficient minutiae: {pts.shape[1]} left after perturbation"
        )
    return pts


def synthesize_dataset(
    n_subjects: int,
    n_impressions: int,
    profile: PerturbationProfile,
    *,
    n_minutiae: int = 30,
    width: int = SENSOR_WIDTH,
    height: int = SENSOR_HEIGHT,
    seed: int = 0,
) -> list[list[MinutiaeSet]]:
    """Build a synthetic gallery: ``dataset[s][i]`` is impression i of subject s.

    Genuine impressions re-perturb one underlying subject with per-impression
    sub-seeds; different subjects are synthesized independently, so
    cross-subject comparisons behave as impostor pairs.
    """
    if n_subjects < 1 or n_impressions < 1:
        raise MinutiaeError("need at least one subject and one impression")
    _check_seed(seed, "seed")
    dataset: list[list[MinutiaeSet]] = []
    for s in range(n_subjects):
        base_seed = int(np.random.SeedSequence([seed, s]).generate_state(1, np.uint64)[0])
        base = synthesize_subject(n_minutiae, width, height, base_seed, subject_id=f"s{s:04d}")
        impressions = []
        for i in range(n_impressions):
            sub_seed = int(
                np.random.SeedSequence([seed, s, i]).generate_state(1, np.uint64)[0]
            )
            moved = _perturbed_points(base, replace(profile, rng_seed=sub_seed))
            impressions.append(MinutiaeSet(base.subject_id, i, base.width, base.height, moved))
        dataset.append(impressions)
    return dataset
