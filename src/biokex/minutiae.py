"""Minutiae data model, text-format parsing, and synthetic capture simulation.

Minutiae arrive as pre-extracted point lists (x, y, theta); raw fingerprint
image processing is out of scope. The text format is the ingestion boundary:

    line 1:            "<width> <height>"
    following lines:   "<x> <y> <theta>"   (integer x, y; decimal theta)
    lines starting "#" are ignored; encoding is UTF-8 with LF line endings.

Angles are degrees, normalized into [0, 360) at parse time. Widths, heights
and coordinates are at most ``MAX_COORDINATE`` (2**31 - 1), and a set holds
at most ``MAX_MINUTIAE`` (1024) minutiae. A :class:`MinutiaeSet` is one
validated, read-only (3, n) float64 array of x, y and theta rows; parsing,
synthesis and perturbation each build that array, and no per-minutia object
exists. All types are immutable after construction and every operation here
is a pure function, so concurrent use needs no locking.

A synthetic capture is a subject from :func:`synthesize_subject`, moved by
:func:`perturb` under a :class:`PerturbationProfile`: a translation sigma, a
rotation sigma and a drop rate. Seeds are arguments, never profile fields.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_COORDINATE",
    "MAX_MINUTIAE",
    "SENSOR_WIDTH",
    "SENSOR_HEIGHT",
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

# Largest accepted number of minutiae in one set. ISO/IEC 19794-2 stores the
# count in one byte (at most 255); the cap keeps the n(n-1)/2 pairs of
# feature extraction small.
MAX_MINUTIAE = 1024


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
    tuples: 0.0 equals -0.0).

    Two equal columns have equal angles, so when one sort of the theta row
    finds no tie there is no repeat. Otherwise a stable lexsort keeps equal
    columns in source order, so the first of each run is the first occurrence.
    """
    t = np.sort(pts[2])
    if not (t[1:] == t[:-1]).any():
        return np.empty(0, dtype=np.intp)
    order = np.lexsort(pts[::-1])
    ordered = pts.take(order, axis=1)
    eq = ordered[:, 1:] == ordered[:, :-1]
    return order[1:][eq[0] & eq[1] & eq[2]]


def _checked_points(points, width: int, height: int) -> np.ndarray:
    """A read-only float64 copy of ``points``, a (3, n) array of x, y and
    theta rows, validated.

    x and y truncate toward zero. Each minutia must have both coordinates in
    [0, MAX_COORDINATE] and theta in [0, 360); then the set as a whole needs
    a valid image size, at least two and at most ``MAX_MINUTIAE`` minutiae,
    every minutia inside the image and no duplicates. An input that breaks
    several rules raises for the first in that order, and within a rule for
    the first offending minutia in source order.
    """
    try:
        pts = np.array(points, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise MinutiaeError(f"minutiae are not an array of numbers: {exc}") from None
    if pts.ndim != 2 or pts.shape[0] != 3:
        raise MinutiaeError(f"minutiae array of shape {pts.shape}, expected (3, n)")
    xy = pts[:2]
    # truncate as int() does; adding 0.0 turns the -0.0 of truncating -0.5 into 0.0
    np.trunc(xy, out=xy)
    xy += 0.0
    (x_lo, y_lo, t_lo), (x_hi, y_hi, t_hi) = (
        pts.min(axis=1, initial=0.0).tolist(), pts.max(axis=1, initial=0.0).tolist()
    )
    # NaN fails every comparison
    if not (x_lo >= 0.0 and y_lo >= 0.0 and t_lo >= 0.0
            and x_hi <= MAX_COORDINATE and y_hi <= MAX_COORDINATE and t_hi < 360.0):
        xy_ok = ((xy >= 0.0) & (xy <= MAX_COORDINATE)).all(axis=0)
        k = int(np.argmin(xy_ok & (pts[2] >= 0.0) & (pts[2] < 360.0)))
        x, y, t = pts[:, k].tolist()
        if not xy_ok[k]:
            raise MinutiaeError(f"coordinate ({x:.0f}, {y:.0f}) outside [0, {MAX_COORDINATE}]")
        raise MinutiaeError(f"theta {t!r} not in [0, 360)")

    _check_image_size(width, height)
    n = pts.shape[1]
    if n < 2:
        raise InsufficientMinutiaeError(f"insufficient minutiae: found {n}, need at least 2")
    if n > MAX_MINUTIAE:
        raise MinutiaeError(f"too many minutiae: found {n}, at most {MAX_MINUTIAE}")
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

    ``points`` is one validated, read-only (3, n) float64 array whose rows
    are the x, y and theta of every minutia, in source order. The
    constructor takes any (3, n) array-like and stores a checked copy: a
    valid image size, at least two minutiae (otherwise no pair vector
    exists) and at most ``MAX_MINUTIAE``, each inside the image, and no
    exact duplicates (as tuples, so 0.0 equals -0.0). Two sets are equal
    when their metadata and points are.
    """

    subject_id: str
    impression_id: int
    width: int
    height: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _checked_points(self.points, self.width, self.height))

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


@dataclass(frozen=True)
class PerturbationProfile:
    """Intra-subject capture variation used to synthesize genuine impressions.

    A translation sigma (pixels) and a rotation sigma (degrees) of Gaussian
    jitter, each finite and in [0, 1e300], and the fraction of minutiae
    dropped, in [0, 1]. The seed is an argument of :func:`perturb`.
    """

    translation_sigma: float = 0.0
    rotation_sigma: float = 0.0
    drop_rate: float = 0.0

    def __post_init__(self):
        for name in ("translation_sigma", "rotation_sigma"):
            sigma = getattr(self, name)
            # standard normal draws stay below 14 in magnitude, so a draw at
            # this scale plus a coordinate or angle is finite; NaN fails too
            if not 0.0 <= sigma <= 1e300:
                raise MinutiaeError(f"{name} must be finite and in [0, 1e300], got {sigma!r}")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise MinutiaeError(f"drop_rate must lie in [0, 1], got {self.drop_rate!r}")


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
        if len(minutiae) == MAX_MINUTIAE:
            raise MinutiaeParseError(lineno, f"too many minutiae: at most {MAX_MINUTIAE}")
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
    return MinutiaeSet(subject_id, impression_id, width, height, np.array(minutiae).T)


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

    The set is the one :func:`_draw_unique` draws from a fresh generator on
    ``seed``. It is read from one block of the generator's raw 64-bit words
    when that reproduces the draw, as it nearly always does; otherwise
    :func:`_draw_unique` runs from a fresh generator on the same seed.
    """
    if n_minutiae < 2:
        raise InsufficientMinutiaeError(
            f"insufficient minutiae: requested {n_minutiae}, need at least 2"
        )
    if n_minutiae > MAX_MINUTIAE:
        raise MinutiaeError(f"too many minutiae: requested {n_minutiae}, at most {MAX_MINUTIAE}")
    _check_image_size(width, height)
    _check_seed(seed, "seed")
    minutiae = _drawn_at_once(
        np.random.default_rng(np.random.SeedSequence(seed)), n_minutiae, width, height
    )
    if minutiae is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        minutiae = np.array(_draw_unique(rng, n_minutiae, width, height)).T
    sid = subject_id if subject_id is not None else f"synth-{seed}"
    return MinutiaeSet(sid, 0, width, height, minutiae)


def _drawn_at_once(
    rng: np.random.Generator, count: int, width: int, height: int
) -> np.ndarray | None:
    """``_draw_unique(rng, count, width, height)`` as a (3, count)
    array, read from ``2 * count`` raw words of a fresh PCG64 ``rng``; None
    where that call would draw a word more.

    Per minutia, ``_draw_unique`` reads two words. ``integers(0, w,
    endpoint=True)`` with w < 2**32 - 1 takes PCG64's next 32 bits (the low
    half of a new word, then its high half) and returns the high 32 bits of
    ``bits * (w + 1)`` (Lemire's method), so x comes from the low and y from
    the high half of the even word. ``uniform(0, 360)`` returns
    ``360 * ((word >> 11) * 2**-53)`` of the odd word, at most
    359.99999999999994, which :func:`normalize_degrees` keeps. Lemire's
    method draws again when the low 32 bits of the product fall below
    ``2**32 % (w + 1)``, and ``_draw_unique`` when a minutia repeats; then
    this returns None.
    """
    words = rng.bit_generator.random_raw(2 * count)
    even = words[0::2]
    spans = np.array([[width + 1], [height + 1]], dtype=np.uint64)
    products = np.stack((even & 0xFFFFFFFF, even >> 32)) * spans
    if ((products & 0xFFFFFFFF) < 2**32 % spans).any():
        return None
    pts = np.empty((3, count))
    pts[:2] = products >> 32
    np.multiply(words[1::2] >> 11, 2**-53, out=pts[2])
    pts[2] *= 360.0
    return None if len(_repeats(pts)) else pts


def _draw_unique(
    rng: np.random.Generator, count: int, width: int, height: int
) -> list[tuple[int, int, float]]:
    """``count`` distinct minutiae, each drawn as x, y, then angle, and drawn
    again while it repeats an earlier one.

    This is the stream that :func:`synthesize_subject` keeps: per minutia,
    ``integers(0, width, endpoint=True)``, ``integers(0, height,
    endpoint=True)`` and ``uniform(0.0, 360.0)``, scalar calls in that order.
    :func:`_drawn_at_once` reproduces it for a fresh generator."""
    # a repeat re-assigns its key, which keeps the first one's place
    drawn: dict[tuple[int, int, float], None] = {}
    while len(drawn) < count:
        drawn[
            int(rng.integers(0, width, endpoint=True)),
            int(rng.integers(0, height, endpoint=True)),
            normalize_degrees(rng.uniform(0.0, 360.0)),
        ] = None
    return list(drawn)


def perturb(
    mset: MinutiaeSet,
    profile: PerturbationProfile,
    seed: int,
    impression_id: int | None = None,
) -> MinutiaeSet:
    """Simulate a fresh capture of the same finger as impression
    ``impression_id`` (by default ``mset``'s), drawn from a fresh generator
    on ``seed``. The all-zero profile is the identity map.

    Every minutia is displaced by Gaussian noise in position and
    orientation, on whole arrays but in the per-minutia draw order (x, y and
    angle noise for every minutia), then a ``drop_rate`` fraction is
    removed. Positions round half to even (as ``round``) and clip to the
    image; angles reduce as :func:`normalize_degrees` does. Positional
    rounding can collide two survivors; the first occurrence is kept.
    """
    _check_seed(seed, "seed")
    n = len(mset)
    n_drop = int(round(profile.drop_rate * n))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
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

    if n_drop:
        keep = np.ones(n, dtype=bool)
        keep[rng.choice(n, size=n_drop, replace=False)] = False
        pts = pts[:, keep]

    # positional rounding can collide two survivors: keep the first
    repeats = _repeats(pts)
    if len(repeats):
        pts = np.delete(pts, repeats, axis=1)
    if pts.shape[1] < 2:
        raise InsufficientMinutiaeError(
            f"insufficient minutiae: {pts.shape[1]} left after perturbation"
        )
    iid = mset.impression_id if impression_id is None else impression_id
    return MinutiaeSet(mset.subject_id, iid, mset.width, mset.height, pts)


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

    Genuine impressions are :func:`perturb` of one underlying subject with
    per-impression sub-seeds; different subjects are synthesized
    independently, so cross-subject comparisons behave as impostor pairs.
    """
    if n_subjects < 1 or n_impressions < 1:
        raise MinutiaeError("need at least one subject and one impression")
    _check_seed(seed, "seed")
    dataset: list[list[MinutiaeSet]] = []
    for s in range(n_subjects):
        base = synthesize_subject(n_minutiae, width, height, _sub_seed(seed, s), f"s{s:04d}")
        dataset.append([
            perturb(base, profile, _sub_seed(seed, s, i), i) for i in range(n_impressions)
        ])
    return dataset


def _sub_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
