import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biokex.features import (
    DegeneratePairError,
    FeatureBitString,
    FeatureError,
    QuantizationConfig,
    extract_features,
    pair_triplet,
    _pair_indices,
    _wrap360,
)
from biokex.minutiae import MAX_COORDINATE, MinutiaeSet, synthesize_subject

# hand trigonometry oracle: dx=3, dy=4, theta_i=0 gives X=3, Y=-4,
# atan2(-4, 3) = -53.1301...deg -> alpha 306.8699, beta = alpha + 90
ALPHA_ORACLE = math.degrees(math.atan2(-4.0, 3.0)) % 360.0
BETA_ORACLE = (ALPHA_ORACLE + 90.0) % 360.0
CFG320 = QuantizationConfig(5, 5, 5, l_max=320.0)


def pair_triplets(mset):
    """:func:`pair_triplet` of every unordered pair in (i, j) order, i < j,
    skipping the pairs whose positions coincide."""
    for m_i, m_j in itertools.combinations(mset.points.T.tolist(), 2):
        try:
            yield pair_triplet(*m_i, *m_j)
        except DegeneratePairError:
            pass


def extract_features_per_pair(mset, cfg):
    """Scalar reference extraction: each triplet field v lands in bin
    min(int(v / width), bins - 1), and the code sets one bit."""
    widths = (cfg.l_max, 360.0, 360.0)
    bits = np.zeros(1 << cfg.n_p, dtype=np.uint8)
    for triplet in pair_triplets(mset):
        code = 0
        for v, width, n in zip(triplet, widths, (cfg.n_l, cfg.n_alpha, cfg.n_beta)):
            code = (code << n) | min(int(v / (width / (1 << n))), (1 << n) - 1)
        bits[code] = 1
    return FeatureBitString(bits, cfg.n_p)


def _pair_set(*minutiae):
    return MinutiaeSet("p", 0, 2000, 2000, np.array(minutiae).T)


def _codes(mset, cfg=CFG320):
    return np.flatnonzero(extract_features(mset, cfg).bits).tolist()


def test_pair_vector_oracle():
    length, alpha, beta = pair_triplet(100, 100, 0.0, 103, 104, 90.0)
    assert length == pytest.approx(5.0, abs=1e-9)
    assert alpha == pytest.approx(ALPHA_ORACLE, abs=1e-6)
    assert alpha == pytest.approx(306.8699, abs=1e-3)
    assert beta == pytest.approx(BETA_ORACLE, abs=1e-6)
    assert beta == pytest.approx(36.8699, abs=1e-3)


def test_pair_vector_collinear_aligned():
    assert pair_triplet(0, 0, 0.0, 10, 0, 0.0) == (10.0, 0.0, 0.0)


def test_pair_vector_coincident_position_degenerate():
    with pytest.raises(DegeneratePairError):
        pair_triplet(0, 0, 0.0, 0, 0, 180.0)


def test_pair_vector_direction_matters():
    a, b = (10, 20, 30.0), (200, 150, 260.0)
    assert pair_triplet(*a, *b) != pair_triplet(*b, *a)


@pytest.mark.parametrize("n, expected", [(2, 1), (8, 28), (100, 4950)])
def test_all_pair_vectors_count(n, expected):
    j_idx, runs = _pair_indices(n)
    assert len(j_idx) == expected
    assert runs.tolist() == list(range(n - 1, -1, -1))
    i_idx = np.repeat(np.arange(n), runs)
    assert list(zip(i_idx.tolist(), j_idx.tolist())) == list(itertools.combinations(range(n), 2))


def test_all_pair_vectors_counts_degenerate():
    # (a, b) share a position: that pair is skipped, the other two are binned
    a, b, c = (5, 5, 0.0), (5, 5, 90.0), (7, 5, 10.0)
    assert _codes(_pair_set(a, b, c)) == sorted({*_codes(_pair_set(a, c)), *_codes(_pair_set(b, c))})


def test_quantize_oracle_bits():
    # floor(5/10)=0, floor(306.87/11.25)=27, floor(36.87/11.25)=3:
    # 0b00000_11011_00011 = 867, at l_max 320 and the default 540 alike
    for cfg in (CFG320, QuantizationConfig()):
        assert _codes(_pair_set((100, 100, 0.0), (103, 104, 90.0)), cfg) == [867]


def test_quantize_zero_vector():
    # the lowest bin of every field is code 0
    assert _codes(_pair_set((0, 0, 0.0), (9, 0, 0.0))) == [0]


def test_quantize_clamps_top_bin():
    assert _codes(_pair_set((0, 0, 0.0), (999, 0, 0.0))) == [31 << 10]


def test_quantize_monotone_in_length():
    cfg = QuantizationConfig(5, 5, 5, l_max=540.0)
    lengths = np.sort(np.random.default_rng(3).integers(1, 540, size=200))
    bins = [_codes(_pair_set((0, 0, 0.0), (int(l), 0, 0.0)), cfg)[0] >> 10 for l in lengths]
    assert all(b1 <= b2 for b1, b2 in zip(bins, bins[1:]))


def test_bin_to_bitstring_single_code():
    # one valid pair sets exactly one bit, the oracle code 867
    fbs = extract_features(_pair_set((100, 100, 0.0), (103, 104, 90.0)), CFG320)
    assert fbs.popcount == 1
    assert fbs.bits[867] == 1


def test_bin_to_bitstring_idempotent_duplicates():
    # (a, b) and (c, d) are one pair moved 300 px, so both quantize to 867
    quad = (100, 100, 0.0), (103, 104, 90.0), (400, 100, 0.0), (403, 104, 90.0)
    pair_codes = [_codes(_pair_set(*p))[0] for p in itertools.combinations(quad, 2)]
    assert pair_codes.count(867) == 2
    assert _codes(_pair_set(*quad)) == sorted(set(pair_codes))


def test_bin_to_bitstring_distinct_codes():
    # eight minutiae whose 28 pairs, brute-force enumerated, fall in 28 bins
    mset = synthesize_subject(8, 388, 374, seed=8)
    assert extract_features(mset, CFG320).popcount == 28
    assert extract_features_per_pair(mset, CFG320).popcount == 28


def test_bin_to_bitstring_rejects_empty():
    with pytest.raises(FeatureError, match="no valid pair"):
        extract_features(_pair_set((5, 5, 0.0), (5, 5, 90.0)), QuantizationConfig())


@pytest.mark.parametrize("n_p", [12, 15])
def test_bitstring_length_is_power_of_two(n_p):
    cfg = QuantizationConfig.for_np(n_p)
    mset = synthesize_subject(12, 388, 374, seed=n_p)
    fbs = extract_features(mset, cfg)
    assert len(fbs) == 2 ** n_p
    assert fbs.n_p == n_p


def test_popcount_bounded_by_pair_count():
    mset = synthesize_subject(25, 388, 374, seed=4)
    fbs = extract_features(mset, QuantizationConfig())
    assert fbs.popcount <= 25 * 24 // 2


def test_extract_matches_per_pair_path():
    cfg = QuantizationConfig()
    for seed in range(5):
        mset = synthesize_subject(20, 388, 374, seed=seed)
        assert extract_features(mset, cfg) == extract_features_per_pair(mset, cfg)


def test_translation_invariance_exact():
    mset = synthesize_subject(15, 200, 200, seed=9)
    shifted = MinutiaeSet("t", 0, 400, 400, mset.points + [[113], [87], [0.0]])
    assert list(pair_triplets(shifted)) == list(pair_triplets(mset))


def _angle_close(a, b, tol):
    return min(abs(a - b), 360.0 - abs(a - b)) <= tol


@given(
    st.floats(0.0, 360.0, exclude_max=True),
    st.floats(-200.0, 200.0),
    st.floats(-200.0, 200.0),
)
@settings(max_examples=60, deadline=None)
def test_rotation_invariance_raw_triplets(angle, cx, cy):
    # rotate real-valued coordinates and orientations about (cx, cy)
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 300, size=(6, 2))
    thetas = rng.uniform(0, 360, size=6)
    rad = math.radians(angle)
    cos_a, sin_a = math.cos(rad), math.sin(rad)

    def rotated(x, y, th):
        rx = cx + (x - cx) * cos_a - (y - cy) * sin_a
        ry = cy + (x - cx) * sin_a + (y - cy) * cos_a
        return rx, ry, (th + angle) % 360.0

    for i in range(5):
        xi, yi, ti = pts[i][0], pts[i][1], thetas[i]
        xj, yj, tj = pts[i + 1][0], pts[i + 1][1], thetas[i + 1]
        base = pair_triplet(xi, yi, ti, xj, yj, tj)
        rot = pair_triplet(*rotated(xi, yi, ti), *rotated(xj, yj, tj))
        assert rot[0] == pytest.approx(base[0], abs=1e-6)
        assert _angle_close(rot[1], base[1], 1e-6)
        assert _angle_close(rot[2], base[2], 1e-6)


def test_rotation_invariance_quarter_turns_on_minutiae():
    # a counter-clockwise quarter turn about the image center keeps integer
    # coordinates exact: (x, y) -> (200 - y, x), theta + 90
    mset = synthesize_subject(12, 200, 200, seed=21)
    xs, ys, thetas = mset.points
    rotated = MinutiaeSet("r", 0, 200, 200, [200 - ys, xs, (thetas + 90.0) % 360.0])
    for p, q in zip(pair_triplets(mset), pair_triplets(rotated), strict=True):
        assert q[0] == pytest.approx(p[0], abs=1e-9)
        assert _angle_close(q[1], p[1], 1e-6)
        assert _angle_close(q[2], p[2], 1e-6)


def test_serialize_roundtrip():
    mset = synthesize_subject(18, 388, 374, seed=2)
    fbs = extract_features(mset, QuantizationConfig())
    blob = fbs.serialize()
    assert blob[:4] == (1 << 15).to_bytes(4, "big")
    assert len(blob) == 4 + (1 << 15) // 8
    assert np.unpackbits(np.frombuffer(blob[4:], dtype=np.uint8)).tolist() == fbs.bits.tolist()


def test_config_validation():
    with pytest.raises(FeatureError):
        QuantizationConfig(9, 9, 9)
    with pytest.raises(FeatureError):
        QuantizationConfig(l_max=0.0)
    with pytest.raises(FeatureError):
        QuantizationConfig(n_l=0)
    assert QuantizationConfig.for_np(15) == QuantizationConfig(5, 5, 5)
    assert QuantizationConfig.for_np(12).n_p == 12


@pytest.mark.parametrize("l_max", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_l_max(l_max):
    # a NaN bin width casts to an arbitrary integer and an infinite one puts
    # every pair in bin 0, so neither may reach extraction
    with pytest.raises(FeatureError, match="l_max"):
        QuantizationConfig(l_max=l_max)
    with pytest.raises(FeatureError, match="l_max"):
        QuantizationConfig.for_np(12, l_max=l_max)


# SHA-256 of the concatenated ``extract_features(...).serialize()`` over every
# set of each ``pinned_galleries`` entry, computed with per-pair trigonometry
FEATURE_PINS = {
    (12, "cli"): "5a4b77607cfe262c3d1500e3b54b7536936e0d8f4e6dfff631bbf7e7620d8b31",
    (12, "harsh"): "39b8d3606cf11448ca33cfab336ffd44964f99b15850d3d268b152fd8eeea326",
    (12, "collide"): "ff6ae4458bded5f6e65e9845e27d4289becf129c4944c32647be028c4092d4ab",
    (12, "edge"): "171edb4e2db96867b490564a8abd9cb1fdff4c77511776e382fe324108fc9ae1",
    (15, "cli"): "0dc40e02d033c26ce5fa2dbee7de36dc1331565834976f75a46d18aed06921c5",
    (15, "harsh"): "64a7bb7e1277696234dd5de712daca33720ac2bbb87f70d99de5ec5a8d25da7f",
    (15, "collide"): "0afee0b51295ce6a69871825004115ee07c000a7b11ec160c44c7824c7be9683",
    (15, "edge"): "f7fa84fbd848f973e7f943a07fe78bb417bfa2f5d3f866bf6f0f7389d91a1a86",
}


@pytest.mark.parametrize("n_p, name", sorted(FEATURE_PINS))
def test_extract_features_frozen_reference(pinned_galleries, n_p, name):
    cfg = QuantizationConfig.for_np(n_p)
    blob = b"".join(extract_features(m, cfg).serialize() for m in pinned_galleries[name])
    assert hashlib.sha256(blob).hexdigest() == FEATURE_PINS[n_p, name]


# the reduction's domain is (-360, 720): alpha from atan2 in degrees, and
# alpha + theta_j - theta_i with every angle in [0, 360)
WRAP_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 180.0, -180.0, 360.0,
              359.99999999999994, -359.99999999999994, 719.9999999999999]
wrap_values = st.one_of(
    st.sampled_from(WRAP_EDGES),
    st.integers(-359, 719).map(float),
    st.integers(-359, 719).map(lambda k: math.nextafter(float(k), math.inf)),
    st.integers(-359, 719).map(lambda k: math.nextafter(float(k), -math.inf)),
    st.floats(-360.0, 720.0, exclude_min=True, exclude_max=True),
)


@given(st.lists(wrap_values, min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_wrap360_equals_float_remainder(values):
    v = np.array(values, dtype=np.float64)
    out = np.empty_like(v)
    assert _wrap360(v, out) is out
    # bit for bit, so the sign of a zero counts too
    assert out.tobytes() == (v % 360.0).tobytes()


@st.composite
def crowded_sets(draw):
    # a small image makes coincident positions (degenerate pairs) common
    side = draw(st.integers(1, 30))
    pts = draw(
        st.lists(
            st.tuples(
                st.integers(0, side),
                st.integers(0, side),
                st.floats(0.0, 360.0, exclude_max=True),
            ),
            min_size=2,
            max_size=40,
            unique=True,
        )
    )
    return MinutiaeSet("c", 0, side, side, np.array(pts).T)


def extract_features_per_pair_trig(mset, cfg):
    """Reference extraction: radians, cosine and sine evaluated per pair, L
    from ``np.hypot``, angles reduced with ``%``, all in fresh arrays."""
    xs, ys, th = mset.points
    i_idx, j_idx = np.triu_indices(len(mset), k=1)
    dx = xs[j_idx] - xs[i_idx]
    dy = ys[j_idx] - ys[i_idx]
    ti = np.radians(th[i_idx])
    x = dx * np.cos(ti) + dy * np.sin(ti)
    y = dx * np.sin(ti) - dy * np.cos(ti)
    valid = ~((x == 0.0) & (y == 0.0))
    if not valid.any():
        raise FeatureError("no valid pair vectors: all pairs coincident")
    x, y = x[valid], y[valid]
    length = np.hypot(x, y)
    alpha = np.degrees(np.arctan2(y, x)) % 360.0
    alpha[alpha >= 360.0] = 0.0
    beta = (alpha + th[j_idx][valid] - th[i_idx][valid]) % 360.0
    beta[beta >= 360.0] = 0.0
    l_bins, a_bins, b_bins = 1 << cfg.n_l, 1 << cfg.n_alpha, 1 << cfg.n_beta
    l_bin = np.minimum((length / (cfg.l_max / l_bins)).astype(np.int64), l_bins - 1)
    a_bin = np.minimum((alpha / (360.0 / a_bins)).astype(np.int64), a_bins - 1)
    b_bin = np.minimum((beta / (360.0 / b_bins)).astype(np.int64), b_bins - 1)
    bits = np.zeros(1 << cfg.n_p, dtype=np.uint8)
    bits[(l_bin << (cfg.n_alpha + cfg.n_beta)) | (a_bin << cfg.n_beta) | b_bin] = 1
    return FeatureBitString(bits, cfg.n_p)


def _assert_matches_per_pair_trig(mset, cfg):
    try:
        expected = extract_features_per_pair_trig(mset, cfg)
    except FeatureError:
        with pytest.raises(FeatureError):
            extract_features(mset, cfg)
        return
    assert extract_features(mset, cfg) == expected


@given(crowded_sets(), st.sampled_from([3, 12, 15]))
@settings(max_examples=100, deadline=None)
def test_extract_matches_per_pair_trig(mset, n_p):
    # NumPy trigonometry on both sides: on some CPUs NumPy's vectorized
    # arctan2 differs from math.atan2 in the last bit, which moves a triplet
    # that sits on a bin edge, so the scalar per-pair path is no exact
    # reference on crowded sets (two minutiae at (0, 1, 151) and (0, 0, 0)
    # give beta 90.0 there and 89.99999999999997 here at n_p=12)
    _assert_matches_per_pair_trig(mset, QuantizationConfig.for_np(n_p))


@st.composite
def crowded_integer_degree_sets(draw):
    # integer angles, as real minutiae files often carry, put many triplets
    # exactly on bin edges, and a small image crowds lengths onto the L edges
    side = draw(st.integers(1, 200))
    pts = draw(
        st.lists(
            st.tuples(
                st.integers(0, side),
                st.integers(0, side),
                st.integers(0, 359).map(float),
            ),
            min_size=2,
            max_size=60,
            unique=True,
        )
    )
    return MinutiaeSet("c", 0, side, side, np.array(pts).T)


@given(crowded_integer_degree_sets(), st.sampled_from([12, 15]))
@settings(max_examples=200, deadline=None)
def test_extract_matches_hypot_reference_on_integer_degrees(mset, n_p):
    _assert_matches_per_pair_trig(mset, QuantizationConfig.for_np(n_p))


# offsets of length exactly 135: 8 bin widths of 16.875 at n_p=15 and 4 of
# 33.75 at n_p=12. At theta_i 3, 6 and 31 (among others) sqrt(x*x + y*y) and
# hypot(x, y) round to opposite sides of that edge for some of them: (81, -108)
# at 31 gives 135.0 against 134.99999999999997
LENGTH_EDGE_OFFSETS = [(sx * dx, sy * dy) for dx, dy in [(81, 108), (108, 81)]
                       for sx in (1, -1) for sy in (1, -1)] + [(135, 0), (-135, 0), (0, 135), (0, -135)]


@pytest.mark.parametrize("theta", [0.0, 90.0, 180.0, 270.0, 3.0, 6.0, 31.0])
@pytest.mark.parametrize("n_p", [12, 15])
def test_extract_matches_hypot_reference_on_length_edges(theta, n_p):
    cfg = QuantizationConfig.for_np(n_p)
    mset = MinutiaeSet(
        "e", 0, 600, 600,
        np.array([(300, 300, theta)]
                 + [(300 + dx, 300 + dy, 0.0) for dx, dy in LENGTH_EDGE_OFFSETS]).T,
    )
    assert extract_features(mset, cfg) == extract_features_per_pair_trig(mset, cfg)


@pytest.mark.parametrize("l_max", [540.0, 6.0e9, 2.0 ** 31 * 1.5])
def test_extract_matches_hypot_reference_at_the_coordinate_bound(l_max):
    b = MAX_COORDINATE
    corners = [(0, 0), (b, b), (b, 0), (0, b), (b // 2, b // 3), (b - 1, b)]
    mset = MinutiaeSet(
        "b", 0, b, b, np.array([(x, y, 45.0 * k) for k, (x, y) in enumerate(corners)]).T
    )
    for n_p in (12, 15, 24):
        cfg = QuantizationConfig.for_np(n_p, l_max=l_max)
        assert extract_features(mset, cfg) == extract_features_per_pair_trig(mset, cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("l_max", [1e-12, 1e-300, 1e-305, 5e-324])
def test_extract_clamps_huge_length_quotients_into_top_bin(l_max):
    # a quotient beyond the int64 range, or an infinite one, must clamp like
    # any other distance at or beyond l_max, not wrap through an overflowing
    # integer cast, and without a warning
    cfg = QuantizationConfig(l_max=l_max)
    codes = np.flatnonzero(extract_features(synthesize_subject(30, 388, 374, 1), cfg).bits)
    assert set((codes >> (cfg.n_alpha + cfg.n_beta)).tolist()) == {(1 << cfg.n_l) - 1}
