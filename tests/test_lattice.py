import io

import numpy as np
import pytest

from aprng.errors import ParameterError
from aprng.lattice import (candidate_normals, consecutive_tuples, dump_points,
                           full_lattice_class_count, plane_count,
                           search_normals)
from aprng.prng import named_lcg


def test_consecutive_tuples_shapes_and_content():
    arr = np.array([1, 2, 3, 4, 5], dtype=np.uint32)
    win = consecutive_tuples(arr, 5, 2)
    assert win.tolist() == [[1, 2], [2, 3], [3, 4], [4, 5]]
    ref = named_lcg("randu").outputs(10).astype(np.int64)
    win3 = consecutive_tuples(named_lcg("randu"), 10, 3)
    assert win3.shape == (8, 3)
    for i in range(8):
        assert win3[i].tolist() == ref[i:i + 3].tolist()
    with pytest.raises(ParameterError):
        consecutive_tuples(arr, 5, 0)
    with pytest.raises(ParameterError):
        consecutive_tuples(arr, 1, 2)
    with pytest.raises(ParameterError):
        consecutive_tuples(arr, 9, 2)


def test_randu_three_term_recurrence():
    # consecutive outputs satisfy 9*x[n] - 6*x[n+1] + x[n+2] = 0 mod 2^31
    x = named_lcg("randu").outputs(10 ** 4).astype(np.int64)
    combo = (9 * x[:-2] - 6 * x[1:-1] + x[2:]) % (2 ** 31)
    assert not combo.any()


def brute_class_count(normal, scale):
    x = np.arange(scale, dtype=np.int64)
    dots = np.zeros(1, dtype=np.int64)
    for v in normal:
        dots = (dots[:, None] + v * x[None, :]).ravel()
    return int(np.unique(dots // scale).size)


@pytest.mark.parametrize("normal,scale", [
    ((3, -1), 1024), ((1, 1), 256), ((5, 2, -3), 200),
    ((-0 + 7,), 1 << 20), ((2, -2), 128),
])
def test_full_count_analytic_region_matches_brute(normal, scale):
    big = max(abs(v) for v in normal)
    assert scale >= 4 * (big * big + big * len(normal) + 1)   # analytic path
    assert full_lattice_class_count(normal, scale) == brute_class_count(normal, scale)


@pytest.mark.parametrize("normal,scale", [
    ((3, -1), 8), ((9, -6, 1), 12), ((1, 1, 1), 5), ((4, -4), 17),
])
def test_full_count_small_scale_matches_brute(normal, scale):
    assert full_lattice_class_count(normal, scale) == brute_class_count(normal, scale)


def test_full_count_validation():
    with pytest.raises(ParameterError):
        full_lattice_class_count((0, 0), 100)
    with pytest.raises(ParameterError):
        full_lattice_class_count((1, 2), 1)
    # below the closed-form threshold and too big to enumerate
    with pytest.raises(ParameterError):
        full_lattice_class_count((9, -6, 1), 300)


def test_plane_count_on_crafted_lattice():
    # y = 3x mod 1024 pins every point onto dot = 3x - y = 1024k
    x = np.arange(1024, dtype=np.int64)
    pts = np.stack([x, (3 * x) % 1024], axis=1)
    rep = plane_count(pts, (3, -1), 1024)
    assert rep.plane_count == 3
    assert rep.comparison == 4
    assert rep.ratio == pytest.approx(0.75)
    assert rep.sample_size == 1024 and rep.t == 2 and rep.scale == 1024
    d = rep.as_dict()
    assert d["normal"] == [3, -1] and d["ratio"] == pytest.approx(0.75)


def test_plane_count_randu_known_family():
    tuples = consecutive_tuples(named_lcg("randu"), 10 ** 6, 3)
    rep = plane_count(tuples, (9, -6, 1), 2 ** 31)
    assert rep.plane_count == 15
    assert rep.comparison == 16
    assert rep.plane_count < rep.comparison


def test_plane_count_validation():
    pts = np.zeros((4, 2), dtype=np.int64)
    with pytest.raises(ParameterError):
        plane_count(pts, (1, 2, 3), 100)
    with pytest.raises(ParameterError):
        plane_count(np.zeros((0, 2), dtype=np.int64), (1, 2), 100)
    with pytest.raises(ParameterError):
        plane_count(pts + 1, (0, 0), 100)


def test_plane_count_big_integer_fallback():
    # coefficients push dot products past int64 vectorized range
    scale = 1 << 61
    xs = np.array([0, 1, 1 << 59, 1 << 60, (1 << 60) + 3], dtype=np.int64)
    pts = np.stack([xs, (2 * xs) % scale], axis=1)
    rep = plane_count(pts, (2, -1), scale)
    assert rep.plane_count == 2
    assert rep.comparison == 3


def test_candidate_normals_canonical():
    t2 = list(candidate_normals(2, 1))
    assert t2 == [(0, 1), (1, -1), (1, 0), (1, 1)]
    t3 = list(candidate_normals(3, 10))
    assert len(t3) == (21 ** 3 - 1) // 2
    assert len(set(t3)) == len(t3)
    for vec in t3:
        nz = [v for v in vec if v]
        assert nz and nz[0] > 0
    assert list(candidate_normals(1, 5)) == [(k,) for k in range(1, 6)]


def test_search_normals_finds_randu_family():
    tuples = consecutive_tuples(named_lcg("randu"), 10 ** 5, 3)
    reports = search_normals(tuples, 2 ** 31, bound=10)
    assert len(reports) == 4630
    best = reports[0]
    assert best.normal == (9, -7, 1)
    assert (best.plane_count, best.comparison) == (15, 17)
    byn = {r.normal: r for r in reports}
    assert (byn[(9, -6, 1)].plane_count, byn[(9, -6, 1)].comparison) == (15, 16)
    ratios = [r.ratio for r in reports]
    assert ratios == sorted(ratios)
    assert sum(1 for r in reports if r.ratio < 1.0) > 50


def test_search_normals_threads_match_serial():
    x = np.arange(64, dtype=np.int64)
    pts = np.stack([x, (3 * x + 5) % 64], axis=1)
    serial = search_normals(pts, 64, bound=4, threads=1)
    pooled = search_normals(pts, 64, bound=4, threads=4)
    assert serial == pooled
    assert serial == sorted((plane_count(pts, r.normal, 64) for r in serial),
                            key=lambda r: (r.ratio, r.normal))
    ratios = [r.ratio for r in serial]
    assert ratios == sorted(ratios)
    assert serial[0].ratio < 1.0


def test_search_normals_validation():
    pts = np.zeros((4, 2), dtype=np.int64)
    with pytest.raises(ParameterError):
        search_normals(np.zeros(4, dtype=np.int64), 100)
    with pytest.raises(ParameterError):
        search_normals(pts, 100, bound=0)
    with pytest.raises(ParameterError):
        search_normals(pts, 1 << 62, bound=2)


def test_dump_points_csv(tmp_path):
    pts = np.array([[0, 512], [1024, 256]], dtype=np.int64)
    sink = io.StringIO()
    assert dump_points(pts, 1024, sink) == 2
    rows = [line.split(",") for line in sink.getvalue().strip().splitlines()]
    vals = [[float(v) for v in row] for row in rows]
    assert vals[0] == pytest.approx([0.0, 0.5])
    assert vals[1] == pytest.approx([1.0, 0.25])
    p = tmp_path / "pts.csv"
    assert dump_points(pts, 1024, p) == 2
    assert p.read_text() == sink.getvalue()
