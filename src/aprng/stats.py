"""Desk-scale frequency tests over 32-bit output streams.

Three classical checks: equidistribution chi-square over equal cells of
[0, 2^32), a serial test over non-overlapping pairs, and a gap test with
geometrically expected gap-length cells.  Cell membership is computed in
integer arithmetic ((v * bins) >> 32), expected counts from the exact integer
cell widths, and the p-value from the regularized upper incomplete gamma
function, evaluated in-package by its series or continued fraction, so that
no test needs scipy.  These are sanity instruments, not a substitute for the
big external batteries; their job is to catch gross defects and to calibrate
cleanly on a reference source.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .prng import _value_chunks

_CHUNK = 1 << 18
_GAP_CAP = 1 << 12
_MAX_PAIR_CELLS = 1 << 22   # serial_pairs keeps three int64/float64 arrays of bins^2
_MAX_LOG = math.log(sys.float_info.max)


@dataclass(frozen=True)
class StatsReport:
    name: str
    statistic: float
    df: int
    p_value: float
    n: int
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "statistic": self.statistic, "df": self.df,
                "p_value": self.p_value, "n": self.n, "details": self.details}


def _cells(values: np.ndarray, bins: int) -> np.ndarray:
    return (values.astype(np.uint64) * np.uint64(bins)) >> np.uint64(32)


def _cell_widths(bins: int) -> np.ndarray:
    """Exact number of 32-bit values landing in each cell."""
    edges = [(k * (1 << 32) + bins - 1) // bins for k in range(bins + 1)]
    return np.diff(np.array(edges, dtype=np.int64))


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0.

    Below x = a + 1 the series for P(a, x) converges fast and Q = 1 - P is
    free of cancellation; above it, the continued fraction for Q converges
    fast (modified Lentz).  Both carry the factor x^a e^-x / Gamma(a), taken
    in logs; where its log falls below -log(DBL_MAX) the factor is 0.0, as
    in Cephes' igamc, so a Q that small comes out as 0.0.
    """
    if x == 0.0:
        return 1.0
    log_scale = a * math.log(x) - x - math.lgamma(a)
    scale = math.exp(log_scale) if log_scale >= -_MAX_LOG else 0.0
    eps, tiny = 1e-16, 1e-300
    if x < a + 1.0:
        ap, term = a, 1.0 / a
        total = term
        while abs(term) > abs(total) * eps:
            ap += 1.0
            term *= x / ap
            total += term
        return 1.0 - total * scale
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= eps:
            return scale * h


def _chi2_p(stat: float, df: int) -> float:
    """Upper tail of the chi-square distribution with df degrees."""
    return _gamma_q(df / 2.0, stat / 2.0)


def _check_pre(bins: int, n: int) -> None:
    if bins < 2:
        raise ParameterError("bins must be >= 2")
    if n < 100 * bins:
        raise InsufficientDataError(
            f"need n >= 100*bins = {100 * bins}, got {n}")


def chi_square_equidist(source, bins: int, n: int) -> StatsReport:
    """Counts per cell against the exact uniform expectation."""
    _check_pre(bins, n)
    counts = np.zeros(bins, dtype=np.int64)
    for chunk in _value_chunks(source, n, _CHUNK):
        counts += np.bincount(_cells(chunk, bins), minlength=bins)
    expected = _cell_widths(bins) * (n / 2.0 ** 32)
    stat = float(((counts - expected) ** 2 / expected).sum())
    df = bins - 1
    return StatsReport("chi_square_equidist", stat, df, _chi2_p(stat, df), n,
                       {"bins": bins, "min_count": int(counts.min()),
                        "max_count": int(counts.max())})


def serial_pairs(source, bins: int, n: int) -> StatsReport:
    """Chi-square over the bins^2 cells of non-overlapping output pairs."""
    _check_pre(bins, n)
    if bins * bins > _MAX_PAIR_CELLS:
        raise ParameterError(
            f"bins^2 = {bins * bins} cells exceed the limit of {_MAX_PAIR_CELLS}")
    npairs = n // 2
    counts = np.zeros(bins * bins, dtype=np.int64)
    # pieces of an even size, so that no pair straddles two of them
    for chunk in _value_chunks(source, 2 * npairs, _CHUNK & ~1):
        c = _cells(chunk, bins).astype(np.int64)
        pair = c[0::2] * bins + c[1::2]
        counts += np.bincount(pair, minlength=bins * bins)
    widths = _cell_widths(bins).astype(np.float64) / 2.0 ** 32
    expected = npairs * np.outer(widths, widths).ravel()
    stat = float(((counts - expected) ** 2 / expected).sum())
    df = bins * bins - 1
    return StatsReport("serial_pairs", stat, df, _chi2_p(stat, df), 2 * npairs,
                       {"bins": bins, "pairs": npairs})


def gap_test(source, interval: tuple[float, float], n: int) -> StatsReport:
    """Lengths of the miss runs between hits of [lo, hi) in [0,1) scale,
    binned as 0..t-1 and >=t with geometric expected counts."""
    lo, hi = interval
    if not 0.0 <= lo < hi <= 1.0:
        raise ParameterError("interval must satisfy 0 <= lo < hi <= 1")
    if n < 1:
        raise ParameterError("n must be >= 1")
    lo_i = round(lo * 2 ** 32)
    hi_i = round(hi * 2 ** 32)
    if lo_i >= hi_i:
        raise ParameterError("interval is empty at 32-bit resolution")
    if hi_i - lo_i == 1 << 32:
        raise ParameterError(
            "interval covers every 32-bit value, so every gap has length 0")
    p = (hi_i - lo_i) / 2.0 ** 32

    hist = np.zeros(_GAP_CAP + 1, dtype=np.int64)
    carry = -1          # misses since the last hit; -1 before the first hit
    for chunk in _value_chunks(source, n, _CHUNK):
        hit = (chunk >= lo_i) & (chunk < hi_i)
        idx = np.nonzero(hit)[0]
        if idx.size == 0:
            if carry >= 0:
                carry += chunk.size
            continue
        if carry >= 0:
            gap = carry + int(idx[0])
            hist[min(gap, _GAP_CAP)] += 1
        if idx.size > 1:
            gaps = np.diff(idx) - 1
            hist += np.bincount(np.minimum(gaps, _GAP_CAP),
                                minlength=_GAP_CAP + 1)
        carry = chunk.size - int(idx[-1]) - 1
    total = int(hist.sum())
    if total < 100:
        raise InsufficientDataError(
            f"only {total} gaps observed; need >= 100")

    # cell count: keep every expected count at 5 or above
    t = 1
    while t < 64 and total * p * (1 - p) ** t >= 5:
        t += 1
    counts = np.empty(t + 1, dtype=np.int64)
    counts[:t] = hist[:t]
    counts[t] = hist[t:].sum()
    expected = np.empty(t + 1, dtype=np.float64)
    expected[:t] = total * p * (1 - p) ** np.arange(t)
    expected[t] = total * (1 - p) ** t
    stat = float(((counts - expected) ** 2 / expected).sum())
    df = t
    return StatsReport("gap_test", stat, df, _chi2_p(stat, df), n,
                       {"interval": [lo, hi], "gaps": total, "cells": t + 1})


class ScaledSource:
    """Left-shifts a narrower generator's outputs to span 32 bits.

    Cell arithmetic assumes outputs fill [0, 2^32); a generator whose
    modulus gives a smaller power-of-two range would fail every test for
    the empty top of the range alone, which says nothing about it.
    """

    def __init__(self, inner):
        rng = getattr(inner, "out_range", 1 << 32)
        if rng > 1 << 32 or rng & (rng - 1):
            raise ParameterError(
                f"output range must be a power of two up to 2^32, got {rng}")
        self.inner = inner
        self.shift = 32 - (rng.bit_length() - 1)

    def outputs(self, n: int) -> np.ndarray:
        return self.inner.outputs(n) << np.uint32(self.shift)


class LowBitsSource:
    """Low `bits` of the inner source, rescaled to the top of the 32-bit
    range so cell arithmetic sees them.

    For a generator exposing raw_states this reads the low bits of the full
    state, the ones the 32-bit output window discards; for a congruential
    generator with power-of-two modulus those bits have tiny period (state
    bit j cycles within 2^(j+1) steps), which is the defect this filter is
    for.  Other sources fall back to the low bits of their outputs.
    """

    def __init__(self, inner, bits: int = 1):
        if not 1 <= bits <= 32:
            raise ParameterError("bits must be in 1..32")
        self.inner = inner
        self.bits = bits

    def outputs(self, n: int) -> np.ndarray:
        if hasattr(self.inner, "raw_states"):
            v = self.inner.raw_states(n)
            mask = np.uint64((1 << self.bits) - 1)
            return ((v & mask) << np.uint64(32 - self.bits)).astype(np.uint32)
        v = self.inner.outputs(n)
        mask = np.uint32((1 << self.bits) - 1)
        return (v & mask) << np.uint32(32 - self.bits)
