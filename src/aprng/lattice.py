"""Hyperplane-family detection for generator output tuples.

Consecutive t-tuples of a linear generator fall on few parallel equidistant
hyperplanes; a word-steered shuffle of several such generators should not.
A family is described by an integer normal vector n: the tuple (x_1..x_t)
lies on the class floor(n.x / s) where s is the lattice scale (the size of
the output set).  We count distinct classes hit by a sample and compare with
the count attainable by the full cube {0..s-1}^t, which has a closed form
once the scale dwarfs the coefficients.  All dot products are exact integers.

The search over all normals is pruned without changing a single count: a
sample inside the cube hits at most the full cube's classes, and a longer
sample hits at least the classes of its prefix.  So a normal whose count on
a prefix already equals the full-cube count keeps it on the whole sample,
and only the normals still short of it are recounted on longer prefixes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ParameterError
from .prng import _value_chunks

# The pruned search counts every normal on the first _SCREEN tuples, then
# recounts the normals still short of the full-cube count on prefixes
# _GROWTH times longer, ending with the whole sample.
_SCREEN = 1 << 12
_GROWTH = 16

# largest number of candidate normals a search will enumerate
_MAX_NORMALS = 1 << 20


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
    arr = np.concatenate(list(_value_chunks(source, n, n)), dtype=np.int64,
                         casting="unsafe")
    return np.lib.stride_tricks.sliding_window_view(arr, t)


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
    _check_inside(pts, scale)
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


def _check_inside(pts: np.ndarray, scale: int) -> None:
    """The full-cube comparison only bounds samples inside [0, scale)^t."""
    if pts.size and (int(pts.min()) < 0 or int(pts.max()) >= scale):
        raise ParameterError(
            f"sample values span [{int(pts.min())}, {int(pts.max())}], "
            f"outside the scale's range [0, {scale})")


def search_normals(tuples: np.ndarray, scale: int, bound: int = 10,
                   threads: int | None = None) -> list[LatticeReport]:
    """plane_count for every candidate normal, most lattice-like first
    (ascending ratio of sample classes to full-cube classes).
    ``threads`` has no effect; it is kept for callers that pass it."""
    pts = np.asarray(tuples)
    if pts.ndim != 2:
        raise ParameterError("tuples must be a 2-d array")
    t = pts.shape[1]
    if bound < 1:
        raise ParameterError("bound must be >= 1")
    if ((2 * bound + 1) ** t - 1) // 2 > _MAX_NORMALS:
        raise ParameterError(
            f"bound {bound} in dimension {t} gives more than {_MAX_NORMALS} "
            "candidate normals")
    if bound * t * scale >= 1 << 62:
        raise ParameterError("scale too large for the vectorized search")
    pts = pts.astype(np.int64, copy=False)
    _check_inside(pts, scale)
    cols = [pts[:, j].copy() for j in range(t)]
    size = pts.shape[0]
    normals = list(candidate_normals(t, bound))
    caps = [full_lattice_class_count(nv, scale) for nv in normals]
    lows = [sum(v for v in nv if v < 0) * (scale - 1) // scale
            for nv in normals]
    # floor division by a power-of-two scale is an arithmetic shift
    shift = scale.bit_length() - 1 if scale & (scale - 1) == 0 else None
    # Two sample-sized buffers, reused for every normal: fresh temporaries
    # per normal make the allocator map and unmap them each time, and the
    # page faults cost as much as the arithmetic.
    bufs = (np.empty_like(cols[0]), np.empty_like(cols[0]))
    plane = [0] * len(normals)
    short = list(range(len(normals)))
    n = min(_SCREEN, size)
    while short:
        dots, work = (b[:n] for b in bufs)
        part = [c[:n] for c in cols]
        prev = None
        for i in short:
            nv = normals[i]
            if prev is not None and nv[:-1] == prev[:-1] and nv[-1] == prev[-1] + 1:
                dots += part[-1]
            else:
                np.multiply(part[0], nv[0], out=dots)
                for j in range(1, t):
                    if nv[j]:
                        np.multiply(part[j], nv[j], out=work)
                        dots += work
            prev = nv
            if shift is None:
                np.floor_divide(dots, scale, out=work)
            else:
                np.right_shift(dots, shift, out=work)
            work -= lows[i]
            plane[i] = int(np.count_nonzero(np.bincount(work)))
        if n == size:
            break
        short = [i for i in short if plane[i] < caps[i]]
        n = min(n * _GROWTH, size)
    reports = [LatticeReport(t=t, normal=nv, plane_count=plane[i],
                             sample_size=size, comparison=caps[i], scale=scale)
               for i, nv in enumerate(normals)]
    reports.sort(key=lambda r: (r.ratio, r.normal))
    return reports
