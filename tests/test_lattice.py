import numpy as np
import pytest

from aprng import lattice
from aprng.errors import ParameterError
from aprng.lattice import (candidate_normals, consecutive_tuples,
                           full_lattice_class_count, plane_count,
                           search_normals)
from aprng.morphic import fibonacci_stream
from aprng.prng import Lcg, ShuffledPrng, named_lcg


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


def test_search_normals_matches_plane_count():
    x = np.arange(64, dtype=np.int64)
    pts = np.stack([x, (3 * x + 5) % 64], axis=1)
    reports = search_normals(pts, 64, bound=4)
    assert reports == sorted((plane_count(pts, r.normal, 64) for r in reports),
                             key=lambda r: (r.ratio, r.normal))
    ratios = [r.ratio for r in reports]
    assert ratios == sorted(ratios)
    assert reports[0].ratio < 1.0


def test_search_normals_validation():
    pts = np.zeros((4, 2), dtype=np.int64)
    with pytest.raises(ParameterError):
        search_normals(np.zeros(4, dtype=np.int64), 100)
    with pytest.raises(ParameterError):
        search_normals(pts, 100, bound=0)
    with pytest.raises(ParameterError):
        search_normals(pts, 1 << 62, bound=2)
    # (19^5 - 1) / 2 candidates exceed the cap; refused before enumerating
    with pytest.raises(ParameterError, match="candidate normals"):
        search_normals(np.zeros((4, 5), dtype=np.int64), 100, bound=9)


@pytest.mark.parametrize("bad", [-1, 100])
def test_sample_outside_the_scale_is_rejected(bad):
    # the full-cube comparison bounds only samples inside [0, scale)^t
    pts = np.array([[0, 5], [99, bad], [7, 8]], dtype=np.int64)
    with pytest.raises(ParameterError, match="outside"):
        plane_count(pts, (1, 1), 100)
    with pytest.raises(ParameterError, match="outside"):
        search_normals(pts, 100, bound=2)
    pts[1, 1] = 99
    assert plane_count(pts, (1, 1), 100).plane_count == 2
    assert len(search_normals(pts, 100, bound=2)) == 12


SOURCES = {
    "randu": (lambda: named_lcg("randu"), 2 ** 31),
    "shuffle": (lambda: ShuffledPrng(fibonacci_stream(), [
        named_lcg("l64_28"), named_lcg("l64_32")]), 2 ** 32),
    # a scale that is not a power of two takes floor division, not a shift;
    # a small one puts many tuples near the class boundaries
    "minstd": (lambda: Lcg(2 ** 31 - 1, 16807, 0), 2 ** 31 - 1),
    "scale1000": (lambda: np.random.default_rng(5).integers(0, 1000, 2000),
                  1000),
}


def oracle_search(tuples, scale, bound):
    reports = [plane_count(tuples, nv, scale)
               for nv in candidate_normals(tuples.shape[1], bound)]
    return sorted(reports, key=lambda r: (r.ratio, r.normal))


@pytest.mark.parametrize("source", ["randu", "shuffle"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_pruned_search_matches_oracle_around_the_screen(source, offset):
    make, scale = SOURCES[source]
    tuples = consecutive_tuples(make(), lattice._SCREEN + offset + 2, 3)
    want = oracle_search(tuples, scale, 8)
    assert any(r.plane_count < r.comparison for r in want)
    assert search_normals(tuples, scale, bound=8) == want


@pytest.mark.parametrize("source", ["randu", "minstd", "scale1000"])
def test_pruned_search_matches_oracle_across_stages(source, monkeypatch):
    # a short screen and slow growth give the stages 256, 512, 1024, 1500
    monkeypatch.setattr(lattice, "_SCREEN", 256)
    monkeypatch.setattr(lattice, "_GROWTH", 2)
    make, scale = SOURCES[source]
    tuples = consecutive_tuples(make(), 1502, 3)
    want = oracle_search(tuples, scale, 10)
    # some normal falls short on the screen but reaches the cap later
    late = [r for r in want if r.plane_count == r.comparison
            and plane_count(tuples[:256], r.normal, scale).plane_count
            < r.comparison]
    assert late
    assert any(r.plane_count < r.comparison for r in want)
    assert search_normals(tuples, scale, bound=10) == want
