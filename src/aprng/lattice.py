"""Hyperplane-family detection for generator output tuples.

Consecutive t-tuples of a linear generator fall on few parallel equidistant
hyperplanes; a word-steered shuffle of several such generators should not.
A family is described by an integer normal vector n: the tuple (x_1..x_t)
lies on the class floor(n.x / s) where s is the lattice scale (the size of
the output set).  We count distinct classes hit by a sample and compare with
the count attainable by the full cube {0..s-1}^t, which has a closed form
once the scale dwarfs the coefficients.  All dot products are exact integers.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ParameterError
from .welldoc import _thread_count


@dataclass(frozen=True)
class LatticeReport:
    t: int
    normal: tuple[int, ...]
    plane_count: int
    sample_size: int
    comparison: int             # classes attainable by the full cube
    scale: int

    @property
    def ratio(self) -> float:
        return self.plane_count / self.comparison

    def as_dict(self) -> dict:
        return {
            "t": self.t, "normal": list(self.normal),
            "plane_count": self.plane_count,
            "sample_size": self.sample_size,
            "comparison": self.comparison, "scale": self.scale,
            "ratio": self.ratio,
        }


def consecutive_tuples(source, n: int, t: int) -> np.ndarray:
    """(n - t + 1, t) int64 array of overlapping output t-tuples."""
    if t < 1:
        raise ParameterError("t must be >= 1")
    if n < t:
        raise ParameterError("need at least t outputs")
    if isinstance(source, np.ndarray):
        arr = source[:n]
        if arr.size < n:
            raise ParameterError(f"array holds {source.size} values, need {n}")
    else:
        arr = source.outputs(n)
    win = np.lib.stride_tricks.sliding_window_view(arr.astype(np.int64), t)
    return win


def full_lattice_class_count(normal, scale: int) -> int:
    """Distinct values of floor(n.x / scale) over the full cube x in
    {0..scale-1}^t, computed exactly."""
    normal = tuple(int(v) for v in normal)
    if not any(normal):
        raise ParameterError("normal must be nonzero")
    if scale < 2:
        raise ParameterError("scale must be >= 2")
    t = len(normal)
    big = max(abs(v) for v in normal)
    lo = sum(v for v in normal if v < 0) * (scale - 1)
    hi = sum(v for v in normal if v > 0) * (scale - 1)
    if scale >= 4 * (big * big + big * t + 1):
        # the attainable dot products are syndetic with gaps far below the
        # class width, and lo and hi themselves are attained, so every class
        # between theirs appears
        return hi // scale - lo // scale + 1
    if scale ** t <= 1 << 21:
        nv = np.array(normal, dtype=np.int64)
        grids = np.meshgrid(*([np.arange(scale, dtype=np.int64)] * t),
                            indexing="ij")
        dots = sum(nv[i] * grids[i] for i in range(t)).ravel()
        return np.unique(dots // scale).size
    raise ParameterError(
        "scale too small for the closed form and cube too large to enumerate")


def plane_count(tuples: np.ndarray, normal, scale: int) -> LatticeReport:
    """Distinct hyperplane classes hit by the sample, with the full-cube
    comparison for the same normal."""
    normal = tuple(int(v) for v in normal)
    pts = np.asarray(tuples)
    if pts.ndim != 2 or pts.shape[1] != len(normal):
        raise ParameterError(
            f"sample is {pts.shape}, normal has {len(normal)} coefficients")
    if pts.shape[0] == 0:
        raise ParameterError("empty sample")
    t = len(normal)
    big = max(abs(v) for v in normal) if any(normal) else 0
    if big == 0:
        raise ParameterError("normal must be nonzero")
    if big * t * scale >= 1 << 62:
        # exact fallback for scales beyond int64 dot range
        classes = set()
        for row in pts:
            dot = sum(int(v) * int(x) for v, x in zip(normal, row))
            classes.add(dot // scale)
        count = len(classes)
    else:
        pts = pts.astype(np.int64, copy=False)
        dots = pts[:, 0] * normal[0]
        for j in range(1, t):
            dots = dots + pts[:, j] * normal[j]
        lo = sum(v for v in normal if v < 0) * (scale - 1)
        offset = lo // scale
        classes = dots // scale - offset
        count = int(np.unique(classes).size)
    comparison = full_lattice_class_count(normal, scale)
    return LatticeReport(t=t, normal=normal, plane_count=count,
                         sample_size=int(pts.shape[0]),
                         comparison=comparison, scale=scale)


def candidate_normals(t: int, bound: int):
    """All nonzero integer vectors in [-bound, bound]^t with the first
    nonzero coefficient positive (one per sign class)."""
    for vec in product(range(-bound, bound + 1), repeat=t):
        for v in vec:
            if v > 0:
                yield vec
                break
            if v < 0:
                break


def search_normals(tuples: np.ndarray, scale: int, bound: int = 10,
                   threads: int | None = None) -> list[LatticeReport]:
    """plane_count for every candidate normal, most lattice-like first
    (ascending ratio of sample classes to full-cube classes)."""
    pts = np.asarray(tuples)
    if pts.ndim != 2:
        raise ParameterError("tuples must be a 2-d array")
    t = pts.shape[1]
    if bound < 1:
        raise ParameterError("bound must be >= 1")
    if bound * t * scale >= 1 << 62:
        raise ParameterError("scale too large for the vectorized search")
    pts = np.ascontiguousarray(pts.astype(np.int64, copy=False))
    cols = [pts[:, j].copy() for j in range(t)]
    normals = list(candidate_normals(t, bound))
    per_thread = threading.local()

    def run(normal):
        # Two sample-sized buffers per thread, reused for every normal: fresh
        # temporaries per normal make the allocator map and unmap them each
        # time, and the page faults cost as much as the arithmetic.
        if not hasattr(per_thread, "bufs"):
            per_thread.bufs = (np.empty_like(cols[0]), np.empty_like(cols[0]))
        dots, term = per_thread.bufs
        np.multiply(cols[0], normal[0], out=dots)
        for j in range(1, t):
            if normal[j]:
                np.multiply(cols[j], normal[j], out=term)
                dots += term
        lo = sum(v for v in normal if v < 0) * (scale - 1)
        hi = sum(v for v in normal if v > 0) * (scale - 1)
        span_lo = lo // scale
        span = hi // scale - span_lo + 1
        dots //= scale
        dots -= span_lo
        hits = np.bincount(dots, minlength=span)
        count = int(np.count_nonzero(hits))
        return LatticeReport(
            t=t, normal=normal, plane_count=count,
            sample_size=int(pts.shape[0]),
            comparison=full_lattice_class_count(normal, scale), scale=scale)

    nthreads = _thread_count(threads)
    if nthreads > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            reports = list(pool.map(run, normals))
    else:
        reports = [run(n) for n in normals]
    reports.sort(key=lambda r: (r.ratio, r.normal))
    return reports


def dump_points(tuples: np.ndarray, scale: int, sink) -> int:
    """Write the sample as CSV rows normalized to [0,1); returns row count."""
    pts = np.asarray(tuples, dtype=np.float64) / float(scale)
    own = False
    if not hasattr(sink, "write"):
        sink = open(sink, "w")
        own = True
    try:
        np.savetxt(sink, pts, fmt="%.10f", delimiter=",")
        return int(pts.shape[0])
    finally:
        if own:
            sink.close()
