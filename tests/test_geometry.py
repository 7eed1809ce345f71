import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diskinspect.artifacts import write_csv
from diskinspect.geometry import (
    NEVER,
    Polyline,
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
        pts = np.empty((len(s_grid), 2))
        for i, s in enumerate(s_grid):
            j = np.searchsorted(poly.cum_lengths, s, side="right") - 1
            j = min(j, len(poly.seg_lengths) - 1)
            lam = (s - poly.cum_lengths[j]) / poly.seg_lengths[j]
            pts[i] = poly.vertices[j] * (1 - lam) + poly.vertices[j + 1] * lam
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


def test_vectorized_matches_scalar():
    poly = Polyline(np.array([[0.0, 0.0], [1.5, 0.3], [0.4, 2.0], [-2.0, 0.1]]))
    phis = np.linspace(0.0, 2.0 * math.pi, 257)
    vec = first_inspection_arclengths(poly, phis)
    for phi, v in zip(phis, vec):
        assert first_inspection_arclength(poly, phi) == pytest.approx(v, abs=1e-12) or (
            math.isinf(v) and first_inspection_arclength(poly, phi) == NEVER
        )


def test_csv_round_trip(tmp_path):
    poly = Polyline(np.array([[0.0, 0.0], [1.0 / 3.0, 2.0 / 7.0], [1.1, -0.9]]))
    path = tmp_path / "poly.csv"
    write_csv(path, ("x", "y"), poly.vertices.tolist())
    header = path.read_text().splitlines()[0]
    assert header == "x,y"
    back = Polyline(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    assert np.array_equal(back.vertices, poly.vertices)
