import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from diskinspect.artifacts import write_csv
from diskinspect.geometry import (
    ARC_ANGLE_SLACK,
    ARC_COS_SLACK,
    EPS,
    NEVER,
    VISIBILITY_SLACK,
    Polyline,
    _arc_labels,
    _reduce_angles,
    first_inspection_arclength,
    first_inspection_arclengths,
    inspects,
    perimeter_point,
    tangent_point,
)

TAU0 = 1.6469768608776936


def test_perimeter_axis_cases():
    assert np.allclose(perimeter_point(0.0), [1.0, 0.0])
    assert np.allclose(perimeter_point(math.pi), [-1.0, 0.0])
    assert np.allclose(perimeter_point(math.pi / 2), [0.0, 1.0])


@given(st.floats(-50.0, 50.0))
def test_perimeter_point_unit_norm(phi):
    assert abs(np.linalg.norm(perimeter_point(phi)) - 1.0) <= 1e-14


def test_tangent_point_examples():
    assert np.allclose(tangent_point(0.0, 0.0), [1.0, 0.0])
    assert np.allclose(tangent_point(0.0, TAU0), [1.0, -TAU0])
    assert np.allclose(tangent_point(math.pi / 2, 1.0), [1.0, 1.0])


@given(st.floats(-20.0, 20.0), st.floats(-100.0, 100.0))
def test_tangent_point_on_tangent_line(phi, t):
    pt = tangent_point(phi, t)
    assert abs(float(pt @ perimeter_point(phi)) - 1.0) <= 1e-12


def test_inspects_examples():
    assert inspects((1.0, 5.0), 0.0)
    assert not inspects((0.0, 10.0), 0.0)
    assert inspects((2.0, 0.0), 0.0)


def test_inspects_agrees_with_segment_sampling():
    # dot(A, P) >= 1 iff the segment A-P stays outside the open unit disk.
    # The sampled side also evaluates the segment's analytic closest point
    # (a 1000-point grid cannot resolve near-tangent dips of width ~1e-4),
    # and pairs inside the |dot-1| <= 1e-4 boundary band are skipped: there
    # the two formulations differ only through their tolerance conventions.
    rng = np.random.default_rng(42)
    lam_grid = np.linspace(0.0, 1.0, 1000)
    for _ in range(10_000):
        r = rng.uniform(0.5, 5.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        a = np.array([r * math.cos(ang), r * math.sin(ang)])
        phi = rng.uniform(0.0, 2.0 * math.pi)
        p = perimeter_point(phi)
        if abs(float(a @ p) - 1.0) <= 1e-4:
            continue
        gap = a - p
        lam_star = np.clip(-float(p @ gap) / float(gap @ gap), 0.0, 1.0)
        lam = np.append(lam_grid, lam_star)[:, None]
        seg = lam * a[None, :] + (1.0 - lam) * p[None, :]
        outside = bool(np.all(np.linalg.norm(seg, axis=1) >= 1.0 - 1e-9))
        assert inspects(a, phi) == outside


def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0], [math.inf, 0.0]]))
    poly = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]]))
    assert poly.length == pytest.approx(3.0)
    assert np.all(np.diff(poly.cum_lengths) > 0)


def test_first_inspection_examples():
    ray = Polyline(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert first_inspection_arclength(ray, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert first_inspection_arclength(ray, math.pi) == NEVER
    diag = Polyline(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert first_inspection_arclength(diag, math.pi / 4) == pytest.approx(1.0, abs=1e-12)


def test_first_inspection_matches_dense_sampling():
    rng = np.random.default_rng(7)
    for _ in range(50):
        verts = np.cumsum(rng.uniform(-1.0, 1.0, size=(6, 2)), axis=0) * 1.5
        verts[0] = (0.0, 0.0)
        try:
            poly = Polyline(verts)
        except ValueError:
            continue
        phi = rng.uniform(0.0, 2.0 * math.pi)
        got = first_inspection_arclength(poly, phi)
        # dense arclength sampling of the predicate
        s_grid = np.linspace(0.0, poly.length, 20_000)
        j = np.searchsorted(poly.cum_lengths, s_grid, side="right") - 1
        j = np.minimum(j, len(poly.seg_lengths) - 1)
        lam = ((s_grid - poly.cum_lengths[j]) / poly.seg_lengths[j])[:, None]
        pts = poly.vertices[j] * (1 - lam) + poly.vertices[j + 1] * lam
        p = perimeter_point(phi)
        seen = pts @ p >= 1.0 - 1e-12
        if got == NEVER:
            assert not seen.any()
        else:
            first = s_grid[np.argmax(seen)] if seen.any() else math.inf
            assert abs(got - first) <= poly.length / 10_000


def test_first_inspection_monotone_under_extension():
    rng = np.random.default_rng(11)
    phis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for _ in range(30):
        verts = np.cumsum(rng.uniform(-1.0, 1.0, size=(8, 2)), axis=0)
        verts[0] = (0.0, 0.0)
        try:
            short = Polyline(verts[:5])
            long = Polyline(verts)
        except ValueError:
            continue
        a = first_inspection_arclengths(short, phis)
        b = first_inspection_arclengths(long, phis)
        assert np.all(b <= a + 1e-12)


def assert_matches_scalar(poly, phis):
    """The vectorized arclengths equal the scalar ones: same NEVER set, 1e-12."""
    vec = first_inspection_arclengths(poly, phis)
    assert vec.shape == (len(phis),)
    for phi, v in zip(phis, vec):
        scalar = first_inspection_arclength(poly, phi)
        assert math.isinf(v) == (scalar == NEVER), (phi, v, scalar)
        assert scalar == pytest.approx(v, abs=1e-12), (phi, v, scalar)
    return vec


def test_vectorized_matches_scalar():
    poly = Polyline(np.array([[0.0, 0.0], [1.5, 0.3], [0.4, 2.0], [-2.0, 0.1]]))
    assert_matches_scalar(poly, np.linspace(0.0, 2.0 * math.pi, 257))


@given(
    st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=7),
    st.lists(st.floats(-7.0, 14.0), min_size=1, max_size=40),
)
def test_vectorized_matches_scalar_on_random_polylines(steps, phis):
    # the polylines of test_first_inspection_matches_dense_sampling
    verts = np.cumsum([(0.0, 0.0), *steps], axis=0) * 1.5
    try:
        poly = Polyline(verts)
    except ValueError:
        assume(False)
    assert_matches_scalar(poly, phis)


FAN = Polyline(np.array([[0.0, 0.0], [1.5, 0.0], [0.4, 2.0], [-2.0, -0.1], [0.3, -1.7]]))


def test_vectorized_seam():
    seam = [0.0, math.tau, -math.tau, 2.0 * math.tau]
    near = [-1e-9, 1e-9, math.tau - 1e-9, math.tau + 1e-9, -0.2, 0.2]
    vec = assert_matches_scalar(FAN, seam + near)
    # (1.5, 0) sees the seam angle; the first segment reaches x = 1 at s = 1
    assert np.allclose(vec[: len(seam)], 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "phis",
    [[-7.0, -3.0, -0.5, 6.5, 9.0, 13.9, 40.0, -40.0], [3.0, 1.0, 3.0, 0.5, 1.0, 5.5, 0.5, 3.0]],
    ids=["outside_0_2pi", "unsorted_duplicates"],
)
def test_vectorized_angle_cases(phis):
    vec = assert_matches_scalar(FAN, phis)
    for k, phi in enumerate(phis):
        assert vec[phis.index(phi)] == vec[k]


def test_vectorized_empty_angles():
    vec = first_inspection_arclengths(FAN, np.array([]))
    assert vec.shape == (0,)


def test_vectorized_vertices_inside_disk():
    inside = Polyline(np.array([[0.0, 0.0], [0.5, 0.2], [-0.3, 0.6], [0.1, -0.9]]))
    phis = np.linspace(0.0, math.tau, 101)
    assert np.all(assert_matches_scalar(inside, phis) == NEVER)
    leaving = Polyline(np.array([[0.0, 0.0], [0.5, 0.2], [0.9, -0.3], [2.0, 0.5]]))
    assert_matches_scalar(leaving, phis)


@pytest.mark.parametrize("angle", [0.0, 0.7, math.pi / 2, 2.5, -1.2])
def test_vectorized_vertex_on_circle_sees_own_angle(angle):
    on = Polyline(np.array([[0.0, 0.0], [math.cos(angle), math.sin(angle)], [0.0, -3.0]]))
    vec = assert_matches_scalar(on, [angle, angle + 1e-3, angle - 0.5])
    assert vec[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("angle", [0.0, 2.2])
def test_vectorized_over_claimed_arc_steps_forward(angle):
    # |v1| just below thresh: its widened arc is not empty, but v1 sees
    # nothing, so the candidate fails the dot test and j steps forward
    thresh = 1.0 - VISIBILITY_SLACK
    r = thresh * (1.0 - 8.0 * EPS)
    assert thresh / r - ARC_COS_SLACK <= 1.0 < thresh / r
    u = np.array([math.cos(angle), math.sin(angle)])
    on_to = Polyline(np.array([[0.0, 0.0], r * u, 2.0 * u]))
    vec = assert_matches_scalar(on_to, [angle, angle + 1e-9])
    assert np.allclose(vec, 1.0, rtol=0.0, atol=1e-12)
    stop = Polyline(np.array([[0.0, 0.0], r * u]))
    assert np.all(assert_matches_scalar(stop, [angle, angle + 1e-9]) == NEVER)


def test_vectorized_first_vertex_sees():
    poly = Polyline(np.array([[2.0, 0.0], [3.0, 1.0], [0.0, 4.0]]))
    phis = np.linspace(-1.0, 3.0, 41)
    vec = assert_matches_scalar(poly, phis)
    assert np.all(vec[np.abs(phis) <= 1.0] == 0.0)


def test_vectorized_two_vertex_polyline():
    ray = Polyline(np.array([[0.0, 0.0], [2.0, 0.0]]))
    phis = np.linspace(-math.pi, math.pi, 121)
    vec = assert_matches_scalar(ray, phis)
    # A(s) = (s, 0) sees P(phi) once s cos(phi) >= 1, which happens by s = 2
    # iff 2 cos(phi) >= 1, up to the visibility slack
    seen = 2.0 * np.cos(phis) >= 1.0 - 1e-12
    assert np.array_equal(np.isfinite(vec), seen)
    assert np.allclose(vec[seen], 1.0 / np.cos(phis[seen]), atol=1e-9)


def painted_labels(v, red, thresh, slack):
    """Reference for _arc_labels: paint every covered slice, j descending."""
    with np.errstate(divide="ignore", over="ignore"):
        x = thresh / np.hypot(v[:, 0], v[:, 1]) - ARC_COS_SLACK
    j = np.flatnonzero(x <= 1.0)
    half = np.arccos(x[j]) + slack
    mid = np.arctan2(v[j, 1], v[j, 0])
    shifts = np.array([[-math.tau], [0.0], [math.tau]])
    a = np.searchsorted(red, mid - half + shifts, side="left").T
    b = np.searchsorted(red, mid + half + shifts, side="right").T
    arc, _ = painted = np.nonzero(a < b)
    labels = np.full(len(red), len(v), dtype=np.int32)
    for jj, s, e in zip(j[arc][::-1], a[painted][::-1], b[painted][::-1]):
        labels[s:e] = jj
    return labels


# 1, 2, 3 and 2^k - 1, 2^k, 2^k + 1: the tree's shape changes at each 2^k
ANGLE_COUNTS = sorted({1, 2, 3} | {2**k + d for k in range(2, 11) for d in (-1, 0, 1)})
SEAM = [0.0, 1e-13, math.tau - 1e-13, math.tau]


@given(
    st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)), min_size=1, max_size=12),
    st.sampled_from(ANGLE_COUNTS),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.one_of(st.none(), st.floats(-math.pi, math.pi)),
)
def test_arc_labels_match_descending_painting(verts, n, seed, seam, wide):
    # the vertices fall inside and outside the disk; near-seam angles make
    # arcs cross phi = 0; a far vertex with a widening just under pi/2 has
    # an arc of half-width just under pi, almost the whole circle
    v = np.array(verts)
    slack = ARC_ANGLE_SLACK
    if wide is not None:
        v = np.vstack([v, 1e9 * np.array([math.cos(wide), math.sin(wide)])])
        slack = math.pi / 2 - 1e-6
    red = np.random.default_rng(seed).uniform(0.0, math.tau, n)
    if seam:
        red[: len(SEAM)] = SEAM[:n]
    red.sort()
    thresh = 1.0 - VISIBILITY_SLACK
    got = _arc_labels(v, red, thresh, slack)
    assert got.dtype == np.int32
    assert np.array_equal(got, painted_labels(v, red, thresh, slack))


def test_arc_labels_match_painting_on_a_long_spiral():
    # thousands of overlapping arcs over 2^14 + 1 angles
    s = np.linspace(0.0, 40.0, 3001)
    v = (0.2 + 0.05 * s)[:, None] * np.column_stack([np.cos(s), np.sin(s)])
    red = np.sort(np.random.default_rng(5).uniform(0.0, math.tau, 2**14 + 1))
    thresh = 1.0 - VISIBILITY_SLACK
    assert np.array_equal(_arc_labels(v, red, thresh, ARC_ANGLE_SLACK),
                          painted_labels(v, red, thresh, ARC_ANGLE_SLACK))


#: Angles next to the reduction's edges: signed zeros, negative multiples
#: of 2*pi and a few ulps below 0 and below 2*pi.
REDUCTION_EDGES = [-0.0, 0.0, -math.tau, -2 * math.tau, -7 * math.tau, math.tau]
REDUCTION_EDGES += [
    x for edge in (0.0, math.tau, -math.tau)
    for x in (edge, np.nextafter(edge, -math.inf), np.nextafter(np.nextafter(edge, -math.inf),
                                                                 -math.inf))
]


@given(st.lists(st.floats(-1e6, 1e6) | st.sampled_from(REDUCTION_EDGES),
                min_size=1, max_size=40))
@example(REDUCTION_EDGES)
@example([-0.0, 0.0, math.tau, -1e-300, 7.0])
def test_reduction_is_np_mod_bit_for_bit(phis):
    phis = np.array(phis)
    got = _reduce_angles(phis)
    assert got.view(np.int64).tolist() == np.mod(phis, math.tau).view(np.int64).tolist()


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 97, 2 * 8192 + 3]))
def test_ascending_and_permuted_angles_agree(seed, n):
    # an ascending array skips the sort, a permutation of it takes it; each
    # angle's arclength is the same either way
    rng = np.random.default_rng(seed)
    s = np.linspace(0.0, 12.0, 400)
    poly = Polyline((0.3 + 0.1 * s)[:, None] * np.column_stack([np.cos(s), np.sin(s)]))
    phis = np.sort(rng.uniform(0.0, math.tau, n))
    perm = rng.permutation(n)
    ascending = first_inspection_arclengths(poly, phis)
    assert first_inspection_arclengths(poly, phis[perm]).tolist() == ascending[perm].tolist()
    some = phis[:: max(1, n // 50)].tolist()
    assert ascending[:: max(1, n // 50)] == pytest.approx(
        [first_inspection_arclength(poly, phi) for phi in some], abs=1e-12)


def test_csv_round_trip(tmp_path):
    poly = Polyline(np.array([[0.0, 0.0], [1.0 / 3.0, 2.0 / 7.0], [1.1, -0.9]]))
    path = tmp_path / "poly.csv"
    write_csv(path, ("x", "y"), poly.vertices.tolist())
    header = path.read_text().splitlines()[0]
    assert header == "x,y"
    back = Polyline(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    assert np.array_equal(back.vertices, poly.vertices)
