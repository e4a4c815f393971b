import hashlib
import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from biokex import minutiae
from biokex.minutiae import (
    MAX_COORDINATE,
    MAX_MINUTIAE,
    InsufficientMinutiaeError,
    MinutiaeError,
    MinutiaeParseError,
    MinutiaeSet,
    PerturbationProfile,
    normalize_degrees,
    parse_minutiae_file,
    perturb,
    serialize_minutiae,
    synthesize_dataset,
    synthesize_subject,
    _draw_unique,
    _drawn_at_once,
    _repeats,
)

SIMPLE_FILE = b"388 374\n100 100 0\n103 104 90\n"


def test_parse_simple_file():
    mset = parse_minutiae_file(SIMPLE_FILE)
    assert mset.width == 388 and mset.height == 374
    assert len(mset) == 2
    assert mset.points.T.tolist() == [[100, 100, 0.0], [103, 104, 90.0]]


def test_parse_serialize_byte_roundtrip():
    mset = parse_minutiae_file(SIMPLE_FILE)
    assert serialize_minutiae(mset) == SIMPLE_FILE


def test_parse_single_minutia_rejected():
    with pytest.raises(MinutiaeParseError, match="insufficient minutiae"):
        parse_minutiae_file(b"388 374\n100 100 0\n")


def test_parse_normalizes_angle_mod_360():
    mset = parse_minutiae_file(b"388 374\n100 100 450\n200 200 10\n")
    assert mset.points[2, 0] == 90.0


def test_parse_comments_and_blank_lines_ignored():
    data = b"388 374\n# comment\n\n100 100 0\n103 104 90\n"
    assert len(parse_minutiae_file(data)) == 2


@pytest.mark.parametrize(
    "data, lineno, fragment",
    [
        (b"388\n1 1 0\n2 2 0\n", 1, "malformed header"),
        (b"x y\n1 1 0\n2 2 0\n", 1, "malformed header"),
        (b"# lead\n388 374\n1 1 0\n", 1, "malformed header"),
        (b"388 374\n1 1\n2 2 0\n", 2, "expected"),
        (b"388 374\n1 one 0\n2 2 0\n", 2, "non-numeric coordinate"),
        (b"388 374\n1 1 abc\n2 2 0\n", 2, "non-numeric angle"),
        (b"388 374\n1 1 inf\n2 2 0\n", 2, "out of range"),
        (b"388 374\n1 1 0\n400 2 0\n", 3, "outside"),
        (b"388 374\n1 1 0\n1 1 0\n", 3, "duplicate"),
        (b"388 374\n-1 1 0\n2 2 0\n", 2, "outside"),
        (b"%d 374\n1 1 0\n2 2 0\n" % 10**400, 1, "above"),
        (b"388 %d\n1 1 0\n2 2 0\n" % (MAX_COORDINATE + 1), 1, "above"),
        (b"%d %d\n1 1 0\n%d 2 0\n" % (MAX_COORDINATE, MAX_COORDINATE, MAX_COORDINATE + 1),
         3, "outside"),
    ],
)
def test_parse_errors_name_line(data, lineno, fragment):
    with pytest.raises(MinutiaeParseError, match=fragment) as exc:
        parse_minutiae_file(data)
    assert exc.value.line == lineno


def test_parse_rejects_bad_utf8():
    with pytest.raises(MinutiaeParseError, match="UTF-8"):
        parse_minutiae_file(b"\xff\xfe388 374\n")


@given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6))
def test_normalize_degrees_range(theta):
    t = normalize_degrees(theta)
    assert 0.0 <= t < 360.0


@st.composite
def canonical_sets(draw):
    width = draw(st.integers(50, 500))
    height = draw(st.integers(50, 500))
    n = draw(st.integers(2, 12))
    pts = draw(
        st.lists(
            st.tuples(
                st.integers(0, width),
                st.integers(0, height),
                st.floats(0, 359.99, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return MinutiaeSet("h", 0, width, height, np.array(pts).T)


@given(canonical_sets())
@settings(max_examples=40, deadline=None)
def test_serialize_parse_roundtrip(mset):
    blob = serialize_minutiae(mset)
    back = parse_minutiae_file(blob, subject_id="h")
    assert back == mset
    assert serialize_minutiae(back) == blob


def test_parse_accepts_coordinates_at_the_bound():
    mset = parse_minutiae_file(b"%d %d\n0 0 0\n%d %d 90\n" % ((MAX_COORDINATE,) * 4))
    assert mset.points[:, 1].tolist() == [MAX_COORDINATE, MAX_COORDINATE, 90.0]


def test_minutia_fields_and_immutability():
    assert [f.name for f in fields(MinutiaeSet)] == [
        "subject_id", "impression_id", "width", "height", "points"
    ]
    assert not hasattr(MinutiaeSet, "minutiae")
    mset = MinutiaeSet("s", 0, 10, 10, [[3, 1], [4, 2], [5.5, 0.0]])
    with pytest.raises(AttributeError):
        mset.points = np.zeros((3, 2))
    with pytest.raises(ValueError):
        mset.points[0, 0] = 7.0
    assert repr(mset) == "MinutiaeSet(subject_id='s', impression_id=0, width=10, height=10)"


def test_minutia_equality_and_hash():
    a = MinutiaeSet("s", 0, 10, 10, [[3, 1], [4, 2], [5.5, 0.0]])
    b = MinutiaeSet("s", 0, 10, 10, np.array([[3.0, 1], [4, 2], [5.5, -0.0]]))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, MinutiaeSet("s", 0, 10, 10, [[3, 1], [4, 2], [6.0, 0.0]])}) == 2
    assert a != MinutiaeSet("s", 0, 10, 10, [[4, 1], [3, 2], [5.5, 0.0]])
    assert a != replace(a, impression_id=1)


def test_minutia_pickle_roundtrip():
    mset = MinutiaeSet("s", 2, 388, 374, [[388, 0], [0, 374], [359.5, 0.0]])
    back = pickle.loads(pickle.dumps(mset))
    assert type(back) is MinutiaeSet and back == mset and hash(back) == hash(mset)
    assert not back.points.flags.writeable


def test_minutia_coerces_numpy_scalars():
    points = np.array([[np.int64(7), np.uint16(8)], [np.uint16(8), np.int64(7)],
                       [np.float32(90.5), np.float32(0.25)]], dtype=object)
    mset = MinutiaeSet("s", 0, 10, 10, points)
    assert mset.points.dtype == np.float64
    assert mset.points.tolist() == [[7, 8], [8, 7], [90.5, 0.25]]
    assert MinutiaeSet("s", 0, 10, 10, points.astype(np.float32)) == mset


@pytest.mark.parametrize(
    "x, y, theta",
    [
        (-1, 0, 0.0),
        (0, -1, 0.0),
        (MAX_COORDINATE + 1, 0, 0.0),
        (0, 10**400, 0.0),
        (0, 0, math.nan),
        (0, 0, math.inf),
        (0, 0, -math.inf),
        (0, 0, 360.0),
        (0, 0, -1e-300),
    ],
)
def test_minutia_rejects_out_of_range(x, y, theta):
    # the offending minutia comes first; 10**400 is no float64 at all
    points = np.array([[x, 1], [y, 1], [theta, 0.0]])
    with pytest.raises(MinutiaeError, match="^(coordinate|theta|minutiae are not)"):
        MinutiaeSet("s", 0, MAX_COORDINATE, MAX_COORDINATE, points)


def test_minutia_replace_validates():
    mset = MinutiaeSet("s", 0, 10, 10, np.array([[1, 2], [2, 1], [3.0, 0.0]]))
    moved = replace(mset, points=np.array([[1, 2], [2, 1], [4.0, 0.0]]))
    assert moved.points[:, 0].tolist() == [1, 2, 4.0] and not moved.points.flags.writeable
    with pytest.raises(MinutiaeError, match="theta 360.0 not in"):
        replace(mset, points=np.array([[1, 2], [2, 1], [360.0, 0.0]]))
    with pytest.raises(MinutiaeError, match="duplicate"):
        replace(mset, points=np.array([[1, 1], [2, 2], [3.0, 3.0]]))


def test_minutia_accepts_the_bound():
    mset = MinutiaeSet("s", 0, MAX_COORDINATE, MAX_COORDINATE,
                       np.array([[MAX_COORDINATE, 0], [MAX_COORDINATE, 0], [0.0, 0.0]]))
    assert mset.points[:2, 0].tolist() == [MAX_COORDINATE] * 2 == [2**31 - 1] * 2


@pytest.mark.parametrize("points", [
    np.array([[1, math.inf], [2, 2], [0, 0]]),
    np.array([[1, 1], [2, -math.inf], [0, 0]]),
    np.array([[1, math.nan], [2, 2], [0, 0]]),
    [[1, 2], [3, 4], [0]],
    [[1, 2], [3, "a"], [0, 0]],
    [[0, 1], [10**400, 2], [0, 0]],
    [(1, 2), (3, 4)],
    "abc",
], ids=["inf", "-inf", "nan", "ragged", "string", "10**400", "two-rows", "text"])
def test_malformed_points_raise_minutiae_error(points):
    with pytest.raises(MinutiaeError, match="^(coordinate|minutiae)"):
        MinutiaeSet("s", 0, 10, 10, points)


@pytest.mark.parametrize("width, height", [(MAX_COORDINATE + 1, 10), (10, 10**400)])
def test_minutiae_set_rejects_oversized_image(width, height):
    with pytest.raises(MinutiaeError, match="above"):
        MinutiaeSet("s", 0, width, height, [[1, 2], [1, 2], [0.0, 0.0]])


def test_minutiae_set_rejects_duplicates():
    with pytest.raises(MinutiaeError, match="duplicate"):
        MinutiaeSet("s", 0, 10, 10, [[1, 1], [1, 1], [0.0, 0.0]])


def test_minutiae_set_needs_two():
    with pytest.raises(InsufficientMinutiaeError):
        MinutiaeSet("s", 0, 10, 10, [[1], [1], [0.0]])


def checked_per_minutia(width, height, rows):
    """Reference validation, one (x, y, theta) row at a time: x and y
    truncate as int() does, then each minutia's range, then the set."""
    minutiae = []
    for x, y, theta in rows:
        x, y = (math.trunc(v) if math.isfinite(v) else v for v in (x, y))
        if not (0 <= x <= MAX_COORDINATE and 0 <= y <= MAX_COORDINATE):
            raise MinutiaeError(f"coordinate ({x}, {y}) outside [0, {MAX_COORDINATE}]")
        if not 0.0 <= theta < 360.0:
            raise MinutiaeError(f"theta {float(theta)!r} not in [0, 360)")
        minutiae.append((x, y, float(theta)))
    if width <= 0 or height <= 0:
        raise MinutiaeError(f"non-positive image size {width}x{height}")
    if width > MAX_COORDINATE or height > MAX_COORDINATE:
        raise MinutiaeError(f"image size {width}x{height} above {MAX_COORDINATE}")
    if len(minutiae) < 2:
        raise InsufficientMinutiaeError(
            f"insufficient minutiae: found {len(minutiae)}, need at least 2"
        )
    if len(minutiae) > MAX_MINUTIAE:
        raise MinutiaeError(f"too many minutiae: found {len(minutiae)}, at most {MAX_MINUTIAE}")
    seen = set()
    for x, y, theta in minutiae:
        if x > width or y > height:
            raise MinutiaeError(f"minutia ({x}, {y}) outside {width}x{height} image")
        if (x, y, theta) in seen:
            raise MinutiaeError(f"duplicate minutia {(x, y, theta)}")
        seen.add((x, y, theta))
    return [(float(x), float(y), theta) for x, y, theta in minutiae]


def outcome(build):
    """``build()``'s minutiae as reprs (so -0.0 and int/float show), or the
    type and message of what it raised."""
    try:
        return [tuple(map(repr, m)) for m in build()]
    except MinutiaeError as exc:
        return type(exc), str(exc)


@st.composite
def set_inputs(draw):
    def side():
        if draw(st.integers(0, 7)) == 5:
            return draw(st.sampled_from([0, -2, MAX_COORDINATE, MAX_COORDINATE + 1]))
        return draw(st.integers(1, 30))

    width, height = side(), side()
    # a few shared angles, so that exact duplicates are common
    angles = st.one_of(
        st.sampled_from([0.0, -0.0, 90.0, 359.5, 1e-300]),
        st.floats(0.0, 360.0, exclude_max=True),
    )
    rows = draw(st.lists(
        st.tuples(st.integers(0, max(width, 0)), st.integers(0, max(height, 0)), angles),
        min_size=1, max_size=10,
    ))
    # now and then a row outside the image, or one with a coordinate or
    # angle out of range
    if draw(st.integers(0, 3)) == 2:
        bad = draw(st.sampled_from([
            (width + 1, 0, 0.0), (0, height + 1, 90.0), (-1, 0, 0.0),
            (0, MAX_COORDINATE + 1, 0.0), (0, 0, 360.0), (0, 0, math.nan),
            (math.nan, 0, 0.0), (0, -math.inf, 0.0), (math.inf, 0, math.nan),
        ]))
        rows.insert(draw(st.integers(0, len(rows))), bad)
    # twins of earlier rows: exact, float or fractional coordinates (which
    # int() truncates), or the other signed zero
    for _ in range(draw(st.integers(0, 2))):
        x, y, t = draw(st.sampled_from(rows))
        twin = draw(st.sampled_from([
            (x, y, t), (float(x), y, t), (x, y + 0.5, t), (x, y, -t if t == 0.0 else t),
        ]))
        rows.insert(draw(st.integers(0, len(rows))), twin)
    return width, height, rows


@given(set_inputs())
@settings(max_examples=400, deadline=None)
def test_set_validation_matches_per_minutia_loop(args):
    width, height, rows = args
    expected = outcome(lambda: checked_per_minutia(width, height, rows))
    array = np.array(rows, dtype=np.float64).T
    assert outcome(lambda: MinutiaeSet("v", 0, width, height, array).points.T.tolist()) == expected
    columns = [list(c) for c in zip(*rows)]
    assert outcome(lambda: MinutiaeSet("v", 0, width, height, columns).points.T.tolist()) == expected


def test_set_stores_one_read_only_array():
    mset = MinutiaeSet("s", 0, 10, 10, [[1, 4.0], [2, 5], [3.5, 0]])
    assert mset.points.shape == (3, 2) and mset.points.flags.c_contiguous
    assert mset.points.tolist() == [[1.0, 4.0], [2.0, 5.0], [3.5, 0.0]]
    with pytest.raises(ValueError):
        mset.points[0, 0] = 2.0
    # coordinates truncate as int() does, to +0.0 from -0.5 and -0.0
    cut = MinutiaeSet("s", 0, 10, 10, [[-0.5, -0.0], [2.9, 1], [1.0, 2.0]])
    assert cut.points[:2].tolist() == [[0.0, 0.0], [2.0, 1.0]]
    assert not np.signbit(cut.points[:2]).any()
    # built from the array, the set is the same and leaves its input writable
    array = np.array([[1, 4], [2, 5], [3.5, 0.0]])
    assert MinutiaeSet("s", 0, 10, 10, array) == mset
    assert array.flags.writeable
    assert replace(mset, impression_id=1).points.tolist() == mset.points.tolist()
    back = pickle.loads(pickle.dumps(mset))
    assert back == mset and hash(back) == hash(mset) and not back.points.flags.writeable


@pytest.mark.parametrize("shape", [(2, 3), (3,), (3, 2, 1)])
def test_set_rejects_misshapen_arrays(shape):
    with pytest.raises(MinutiaeError, match="shape"):
        MinutiaeSet("s", 0, 10, 10, np.ones(shape))


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
def test_synthesis_rejects_bad_seeds(seed):
    with pytest.raises(MinutiaeError, match="seed must be a non-negative integer"):
        synthesize_subject(30, 388, 374, seed=seed)
    with pytest.raises(MinutiaeError, match="seed must be a non-negative integer"):
        synthesize_dataset(2, 2, PerturbationProfile(), seed=seed)
    base = synthesize_subject(30, 388, 374, seed=1)
    with pytest.raises(MinutiaeError, match="seed must be a non-negative integer"):
        perturb(base, PerturbationProfile(), seed)


def test_synthesis_accepts_numpy_integer_seeds():
    assert synthesize_subject(5, 50, 50, seed=np.uint64(2**63)) == synthesize_subject(
        5, 50, 50, seed=2**63
    )
    base = synthesize_subject(30, 388, 374, seed=1)
    profile = PerturbationProfile(2.0, 4.0, 0.1)
    assert perturb(base, profile, np.int64(3)) == perturb(base, profile, 3)


@pytest.mark.parametrize(
    "width, height, fragment",
    [(2**40, 374, "above"), (388, MAX_COORDINATE + 1, "above"), (0, 374, "non-positive")],
)
def test_synthesize_subject_checks_image_before_drawing(monkeypatch, width, height, fragment):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the image size")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(MinutiaeError, match=fragment):
        synthesize_subject(30, width, height, seed=1)


def test_minutiae_cap_holds_for_sets_and_synthesis(monkeypatch):
    cols = np.zeros((3, MAX_MINUTIAE + 1))
    cols[0] = np.arange(MAX_MINUTIAE + 1)
    assert len(MinutiaeSet("s", 0, 2000, 10, cols[:, :MAX_MINUTIAE])) == MAX_MINUTIAE
    with pytest.raises(MinutiaeError, match=f"too many minutiae: found {MAX_MINUTIAE + 1}, at most"):
        MinutiaeSet("s", 0, 2000, 10, cols)
    with pytest.raises(MinutiaeError, match="too many minutiae"):
        MinutiaeSet("s", 0, 2000, 10, cols.tolist())
    assert len(synthesize_subject(MAX_MINUTIAE, 388, 374, seed=1)) == MAX_MINUTIAE

    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the minutiae count")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(MinutiaeError, match=f"requested {MAX_MINUTIAE + 1}, at most {MAX_MINUTIAE}"):
        synthesize_subject(MAX_MINUTIAE + 1, 388, 374, seed=1)


def test_parse_names_the_first_line_past_the_cap():
    rows = [b"%d %d 0" % (k % 1000, k // 1000) for k in range(MAX_MINUTIAE + 1)]
    data = b"1000 10\n# comment\n" + b"\n".join(rows) + b"\n"
    with pytest.raises(MinutiaeParseError, match="too many minutiae") as exc:
        parse_minutiae_file(data)
    assert exc.value.line == MAX_MINUTIAE + 3
    assert len(parse_minutiae_file(data.rsplit(b"\n", 2)[0] + b"\n")) == MAX_MINUTIAE


def fresh_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def drawn_one_by_one(seed, n, width, height):
    return np.array(_draw_unique(fresh_rng(seed), n, width, height), dtype=np.float64).T


@pytest.mark.parametrize("n", [2, 16, 30, 190])
@pytest.mark.parametrize("width, height", [(388, 374), (1, 1), (MAX_COORDINATE, 5000)])
def test_one_pass_draw_equals_scalar_draws(n, width, height):
    for seed in range(0, 2**64, 2**64 // 40 + 12345):
        at_once = _drawn_at_once(fresh_rng(seed), n, width, height)
        assert at_once is not None
        assert at_once.tolist() == drawn_one_by_one(seed, n, width, height).tolist()
        assert synthesize_subject(n, width, height, seed).points.tolist() == at_once.tolist()


def test_lemire_rejection_reruns_scalar_draws():
    # 2**32 % 1431655766 = 1431655764: about a third of x draws land in
    # Lemire's rejection zone and draw again
    width = 1431655765
    for seed in range(20):
        assert _drawn_at_once(fresh_rng(seed), 16, width, 374) is None
        expected = drawn_one_by_one(seed, 16, width, 374)
        assert synthesize_subject(16, width, 374, seed).points.tolist() == expected.tolist()


class RawWords:
    """Stands in for a generator whose raw stream is ``words``."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = words

    def random_raw(self, size):
        return self.words[:size].copy()


def test_repeated_minutia_reruns_scalar_draws(monkeypatch):
    words = np.random.PCG64(np.random.SeedSequence(4)).random_raw(60)
    words[4:6] = words[0:2]  # minutia 2 repeats minutia 0
    assert _drawn_at_once(RawWords(words), 30, 388, 374) is None
    expected = drawn_one_by_one(4, 30, 388, 374).tolist()
    handed = iter([RawWords(words), fresh_rng(4)])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: next(handed))
    assert synthesize_subject(30, 388, 374, seed=4).points.tolist() == expected


def repeats_per_column(pts):
    """Indices of the columns equal, as tuples, to an earlier one."""
    seen, found = set(), []
    for k, col in enumerate(zip(*pts.tolist())):
        if col in seen:
            found.append(k)
        seen.add(col)
    return found


@given(st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([0.0, -0.0, 90.0, 359.0])),
    min_size=1, max_size=30,
))
# integer-degree angles tie without a repeat, then repeat apart
@example([(1, 2, 90.0), (3, 4, 90.0), (2, 1, 90.0), (5, 5, 0.0), (1, 2, 90.0), (3, 4, 90.0)])
# 0.0 equals -0.0
@example([(1, 1, 0.0), (2, 2, -0.0), (1, 1, -0.0), (2, 2, 0.0)])
# equal columns far apart, distinct angles between them
@example([(7, 7, 10.0), (8, 8, 20.0), (9, 9, 30.0), (6, 6, 40.0), (7, 7, 10.0)])
@example([(1, 1, 45.5), (2, 1, 135.25)])
def test_repeats_matches_per_column_set(cols):
    pts = np.array(cols, dtype=np.float64).T
    assert sorted(_repeats(pts).tolist()) == repeats_per_column(pts)


def test_synthesize_deterministic():
    a = synthesize_subject(30, 388, 374, seed=7)
    b = synthesize_subject(30, 388, 374, seed=7)
    assert a == b


def test_synthesize_seed_sensitive():
    assert synthesize_subject(30, 388, 374, seed=7) != synthesize_subject(30, 388, 374, seed=8)


def test_synthesize_bounds_inclusive():
    mset = synthesize_subject(2, 10, 10, seed=1)
    assert len(mset) == 2
    for x, y, theta in mset.points.T.tolist():
        assert 0 <= x <= 10 and 0 <= y <= 10
        assert 0.0 <= theta < 360.0


def test_synthesize_rejects_one_minutia():
    with pytest.raises(InsufficientMinutiaeError):
        synthesize_subject(1, 388, 374, seed=1)


def test_perturb_zero_profile_is_identity():
    base = synthesize_subject(30, 388, 374, seed=5)
    assert perturb(base, PerturbationProfile(), 3) == base


def test_perturb_deterministic_per_seed():
    base = synthesize_subject(30, 388, 374, seed=5)
    profile = PerturbationProfile(2.0, 4.0, 0.1)
    assert perturb(base, profile, 9) == perturb(base, profile, 9)
    assert perturb(base, profile, 9) != perturb(base, profile, 10)


def test_perturb_full_drop_errors():
    base = synthesize_subject(2, 50, 50, seed=2)
    with pytest.raises(InsufficientMinutiaeError, match="insufficient"):
        perturb(base, PerturbationProfile(drop_rate=1.0), 1)


def test_perturb_drop_count():
    base = synthesize_subject(40, 388, 374, seed=6)
    dropped = perturb(base, PerturbationProfile(drop_rate=0.25), 1)
    assert len(dropped) == 30


def test_perturb_mean_displacement_translation_sigma_2():
    # Monte-Carlo oracle: 2-D Gaussian displacement with sigma=2 per axis has
    # mean length sigma*sqrt(pi/2) ~ 2.51 px; integer rounding keeps it in [1, 3]
    base = synthesize_subject(30, 388, 374, seed=8)
    xs, ys, _ = base.points
    total, count = 0.0, 0
    for trial in range(1000):
        moved = perturb(base, PerturbationProfile(translation_sigma=2.0), trial)
        mx, my, _ = moved.points
        total += float(np.hypot(mx - xs, my - ys).sum())
        count += len(moved)
    mean = total / count
    assert 1.0 <= mean <= 3.0


def test_profile_validation():
    with pytest.raises(MinutiaeError):
        PerturbationProfile(translation_sigma=-1.0)
    with pytest.raises(MinutiaeError):
        PerturbationProfile(drop_rate=1.5)


@pytest.mark.parametrize("field", ["translation_sigma", "rotation_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 1e308])
def test_profile_rejects_non_finite_sigma(field, value):
    # rng.normal(0, 1e308) can overflow to inf, and fmod(inf, 360) is NaN
    with pytest.raises(MinutiaeError, match=f"^{field} must be finite and in \\[0, 1e300\\]"):
        PerturbationProfile(**{field: value})


@pytest.mark.parametrize("field", ["translation_sigma", "rotation_sigma"])
def test_largest_sigma_draws_finite_minutiae(field):
    base = synthesize_subject(30, 388, 374, seed=1)
    moved = perturb(base, PerturbationProfile(**{field: 1e300}), 2)
    assert np.isfinite(moved.points).all()


def test_synthesize_dataset_shape_and_ids():
    profile = PerturbationProfile(translation_sigma=1.0)
    ds = synthesize_dataset(3, 4, profile, n_minutiae=10, seed=1)
    assert len(ds) == 3 and all(len(row) == 4 for row in ds)
    assert ds[1][2].subject_id == "s0001"
    assert ds[1][2].impression_id == 2
    # impressions differ (noise) but share the subject
    assert ds[0][0] != ds[0][1]


def test_synthesize_dataset_perturbs_through_perturb(monkeypatch):
    calls = []
    original = minutiae.perturb

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(minutiae, "perturb", counting)
    profile = PerturbationProfile(2.0, 4.0, 0.1)
    ds = synthesize_dataset(3, 4, profile, n_minutiae=20, seed=1)
    assert len(calls) == 12
    for row in ds:
        assert [mset.impression_id for mset in row] == [0, 1, 2, 3]


# SHA-256 of the concatenated ``serialize_minutiae`` output over every set of
# each ``pinned_galleries`` entry, computed with the per-minutia loop below
PERTURB_PINS = {
    "cli": "1aadb9913b41624e3423a3c0ba5108153292889b3350bdd4d27f71cd11e96ad2",
    "harsh": "7c629eaba01534601a8ec54e69348562ed26de88dff88efa72efaa2980fe7248",
    "collide": "8dbcd08ccabb11c0430c8038e25442b1143540ff376daacf70015729efa3ada8",
    "edge": "5524581a00bc6b9e000bec38a5abb75711c4f81f23913b3218c5db0f64db5c4d",
}


@pytest.mark.parametrize("name", sorted(PERTURB_PINS))
def test_perturbed_gallery_frozen_reference(pinned_galleries, name):
    blob = b"".join(serialize_minutiae(m) for m in pinned_galleries[name])
    assert hashlib.sha256(blob).hexdigest() == PERTURB_PINS[name]


def perturb_per_minutia(mset: MinutiaeSet, profile: PerturbationProfile, seed: int) -> MinutiaeSet:
    """Reference perturbation: one minutia at a time, with Python ``round``,
    scalar ``np.clip`` and ``normalize_degrees``; same RNG draw order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = len(mset)

    dx = rng.normal(0.0, profile.translation_sigma, size=n)
    dy = rng.normal(0.0, profile.translation_sigma, size=n)
    dtheta = rng.normal(0.0, profile.rotation_sigma, size=n)

    moved: list[tuple[int, int, float]] = []
    for (x, y, theta), ddx, ddy, ddt in zip(mset.points.T.tolist(), dx, dy, dtheta):
        x = int(np.clip(round(x + ddx), 0, mset.width))
        y = int(np.clip(round(y + ddy), 0, mset.height))
        moved.append((x, y, normalize_degrees(theta + ddt)))

    n_drop = int(round(profile.drop_rate * n))
    if n_drop:
        drop = set(rng.choice(n, size=n_drop, replace=False).tolist())
        moved = [m for i, m in enumerate(moved) if i not in drop]

    unique: list[tuple[int, int, float]] = []
    kept: set[tuple[int, int, float]] = set()
    for m in moved:
        if m not in kept:
            kept.add(m)
            unique.append(m)

    if len(unique) < 2:
        raise InsufficientMinutiaeError(
            f"insufficient minutiae: {len(unique)} left after perturbation"
        )
    return replace(mset, points=np.array(unique).T)


@st.composite
def perturb_inputs(draw):
    # small images and a handful of shared angles make rounding collisions,
    # border clipping and 0/360 wrapping common
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 40))
    angles = st.one_of(
        st.sampled_from([0.0, 90.0, 359.5, 1e-12, 360.0 - 1e-12]),
        st.floats(0.0, 360.0, exclude_max=True),
    )
    pts = draw(
        st.lists(
            st.tuples(st.integers(0, width), st.integers(0, height), angles),
            min_size=2,
            max_size=60,
            unique=True,
        )
    )
    profile = PerturbationProfile(
        translation_sigma=draw(st.sampled_from([0.0, 0.5, 2.0, 30.0])),
        rotation_sigma=draw(st.sampled_from([0.0, 1e-9, 4.0, 400.0])),
        drop_rate=draw(st.floats(0.0, 1.0)),
    )
    mset = MinutiaeSet("h", 0, width, height, np.array(pts).T)
    return mset, profile, draw(st.integers(0, 2**32))


@given(perturb_inputs())
@settings(max_examples=150, deadline=None)
def test_perturb_matches_per_minutia_path(args):
    mset, profile, seed = args
    try:
        expected = perturb_per_minutia(mset, profile, seed)
    except InsufficientMinutiaeError:
        with pytest.raises(InsufficientMinutiaeError):
            perturb(mset, profile, seed)
        return
    got = perturb(mset, profile, seed)
    assert got == expected
    assert serialize_minutiae(got) == serialize_minutiae(expected)
    # same values, same types: repr tells 0.0 from -0.0 and int from float
    assert [tuple(map(repr, m)) for m in got.points.T.tolist()] == [
        tuple(map(repr, m)) for m in expected.points.T.tolist()
    ]
