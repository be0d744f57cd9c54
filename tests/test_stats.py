import numpy as np
import pytest
from scipy.special import gammaincc
from scipy.stats import distributions

from aprng import stats
from aprng.errors import InsufficientDataError, ParameterError
from aprng.lattice import consecutive_tuples
from aprng.prng import Lcg, named_lcg
from aprng.stats import (LowBitsSource, ScaledSource, chi_square_equidist,
                         gap_test, serial_pairs, _cell_widths, _chi2_p)
from sources import ConstantSource, RandomSource


class Trickle:
    """Array-backed source that hands out at most `step` values per call,
    forcing chunk boundaries through the accumulation logic."""

    def __init__(self, arr, step):
        self.arr = arr
        self.pos = 0
        self.step = step

    def outputs(self, k):
        k = min(k, self.step)
        out = self.arr[self.pos:self.pos + k]
        self.pos += len(out)
        return out


def test_cell_widths_partition_the_range():
    for bins in (2, 3, 5, 7, 100, 4096):
        w = _cell_widths(bins)
        assert w.sum() == 1 << 32
        assert w.max() - w.min() <= 1
        assert w.size == bins


@pytest.mark.parametrize("df", [1, 2, 18, 63, 4095, 16383])
def test_chi2_tail_matches_scipy(df):
    a = df / 2.0
    for x in a * np.linspace(0.5, 2.0, 61):
        want = float(gammaincc(a, x))
        got = _chi2_p(2.0 * x, df)
        if want == 0.0:                 # underflow, e.g. x = 2a at df 16383
            assert got == 0.0
        else:
            assert got == pytest.approx(want, rel=1e-10, abs=0)
    assert _chi2_p(0.0, df) == 1.0 == gammaincc(a, 0.0)


def test_chi2_tail_underflows_to_zero():
    # the serial statistic of a stream's lowest state bit (stats_lowbits)
    assert float(gammaincc(4095 / 2, 8.19e9 / 2)) == 0.0
    assert _chi2_p(8.19e9, 4095) == 0.0
    # x^a e^-x / Gamma(a) here is about 1e-316: a subnormal, flushed to zero
    assert float(gammaincc(4095 / 2, 8558.55 / 2)) == 0.0
    assert _chi2_p(8558.55, 4095) == 0.0


def test_chi_square_calibrates_on_reference_source():
    rep = chi_square_equidist(RandomSource(0), 256, 10 ** 5)
    assert rep.name == "chi_square_equidist"
    assert rep.df == 255
    assert 0.001 < rep.p_value < 0.999
    assert rep.details["bins"] == 256
    assert rep.n == 10 ** 5


def test_chi_square_rejects_constant_source():
    rep = chi_square_equidist(ConstantSource(12345), 16, 10 ** 4)
    assert rep.p_value < 1e-6
    assert rep.details["min_count"] == 0
    assert rep.details["max_count"] == 10 ** 4


def test_chi_square_matches_direct_computation():
    arr = RandomSource(1).outputs(5000)
    rep = chi_square_equidist(arr, 8, 5000)
    cells = (arr.astype(np.uint64) * np.uint64(8)) >> np.uint64(32)
    counts = np.bincount(cells.astype(np.int64), minlength=8)
    expected = _cell_widths(8) * (5000 / 2.0 ** 32)
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert rep.statistic == pytest.approx(stat, rel=1e-12)
    assert rep.p_value == pytest.approx(
        float(distributions.chi2.sf(stat, 7)), rel=1e-10)
    assert rep.details["min_count"] == int(counts.min())


class Untouchable:
    """Source that fails the test if any value is drawn from it."""

    def outputs(self, k):
        raise AssertionError("no value may be drawn")


def test_serial_rejects_too_many_cells_before_drawing():
    # 4096^2 = 2^24 cells would take 128 MiB per array; the bound applies
    # before any array is allocated or any value drawn
    with pytest.raises(ParameterError, match="cells"):
        serial_pairs(Untouchable(), 4096, 100 * 4096)


def test_serial_matches_direct_computation_and_chunking():
    arr = RandomSource(2).outputs(10001)          # odd n drops the last value
    rep = serial_pairs(arr, 4, 10001)
    assert rep.n == 10000 and rep.details["pairs"] == 5000
    c = ((arr[:10000].astype(np.uint64) * np.uint64(4)) >> np.uint64(32)).astype(np.int64)
    pairs = c[0::2] * 4 + c[1::2]
    counts = np.bincount(pairs, minlength=16)
    widths = _cell_widths(4).astype(np.float64) / 2.0 ** 32
    expected = 5000 * np.outer(widths, widths).ravel()
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert rep.statistic == pytest.approx(stat, rel=1e-12)
    # odd-sized chunks must pair values across chunk boundaries
    trick = serial_pairs(Trickle(arr, 997), 4, 10001)
    assert trick.statistic == pytest.approx(rep.statistic, rel=1e-12)
    assert trick.details == rep.details
    assert np.array_equal(consecutive_tuples(Trickle(arr, 997), 10001, 3),
                          consecutive_tuples(arr, 10001, 3))


def test_gap_test_matches_definitional_oracle():
    arr = RandomSource(3).outputs(20000)
    lo, hi = 0.2, 0.5
    rep = gap_test(arr, (lo, hi), 20000)
    lo_i, hi_i = round(lo * 2 ** 32), round(hi * 2 ** 32)
    idx = np.nonzero((arr >= lo_i) & (arr < hi_i))[0]
    gaps = np.diff(idx) - 1
    total = gaps.size
    assert rep.details["gaps"] == total
    p = (hi_i - lo_i) / 2.0 ** 32
    t = 1
    while t < 64 and total * p * (1 - p) ** t >= 5:
        t += 1
    counts = np.array([np.count_nonzero(gaps == k) for k in range(t)]
                      + [np.count_nonzero(gaps >= t)], dtype=np.float64)
    expected = np.array([total * p * (1 - p) ** k for k in range(t)]
                        + [total * (1 - p) ** t])
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert rep.statistic == pytest.approx(stat, rel=1e-12)
    assert rep.df == t
    assert 0.0 <= rep.p_value <= 1.0
    # chunk boundaries must not split or duplicate gaps
    trick = gap_test(Trickle(arr, 997), (lo, hi), 20000)
    assert trick.statistic == pytest.approx(rep.statistic, rel=1e-12)
    assert trick.details == rep.details


def test_gap_test_calibrates_and_rejects():
    ok = gap_test(RandomSource(5), (0.0, 0.5), 10 ** 5)
    assert 0.001 < ok.p_value < 0.999
    bad = gap_test(ConstantSource(0), (0.0, 0.5), 10 ** 4)
    assert bad.p_value < 1e-6               # every gap has length zero


def test_insufficient_data_paths():
    with pytest.raises(InsufficientDataError):
        chi_square_equidist(RandomSource(0), 256, 1000)
    with pytest.raises(InsufficientDataError):
        serial_pairs(RandomSource(0), 64, 5000)
    with pytest.raises(InsufficientDataError):
        gap_test(RandomSource(0), (0.0, 0.001), 1000)
    with pytest.raises(InsufficientDataError):
        gap_test(ConstantSource(0), (0.5, 1.0), 10 ** 4)   # never hits


def test_parameter_validation():
    with pytest.raises(ParameterError):
        chi_square_equidist(RandomSource(0), 1, 10 ** 4)
    with pytest.raises(ParameterError):
        gap_test(RandomSource(0), (0.5, 0.5), 100)
    with pytest.raises(ParameterError):
        gap_test(RandomSource(0), (-0.1, 0.5), 100)
    with pytest.raises(ParameterError):
        gap_test(RandomSource(0), (0.0, 1.1), 100)
    with pytest.raises(ParameterError):
        gap_test(RandomSource(0), (0.0, 0.5), 0)
    with pytest.raises(ParameterError):
        gap_test(RandomSource(0), (0.0, 1e-12), 100)       # empty at 32 bits
    arr = np.zeros(10, dtype=np.uint32)
    with pytest.raises(ParameterError):
        chi_square_equidist(arr, 2, 1000)                  # array too small


def test_scaled_source_shifts_to_full_range():
    scaled = ScaledSource(named_lcg("randu"))
    raw = named_lcg("randu").outputs(100)
    assert np.array_equal(scaled.outputs(100), raw << np.uint32(1))
    assert ScaledSource(named_lcg("l64_39")).shift == 0
    assert ScaledSource(Lcg(1000, 333, 7)).shift == 22
    assert ScaledSource(RandomSource(0)).shift == 0        # no out_range attr

    class Odd:
        out_range = 3

    class TooWide:
        out_range = 1 << 33

    with pytest.raises(ParameterError):
        ScaledSource(Odd())
    with pytest.raises(ParameterError):
        ScaledSource(TooWide())


def test_scaled_randu_passes_equidistribution():
    rep = chi_square_equidist(ScaledSource(named_lcg("randu")), 256, 10 ** 5)
    assert 0.001 < rep.p_value < 0.999
    # unscaled, the empty top half of the range dominates the statistic
    raw = chi_square_equidist(named_lcg("randu"), 256, 10 ** 5)
    assert raw.p_value < 1e-6


def test_low_bits_source_reads_state_bits():
    src = LowBitsSource(named_lcg("l64_39"), bits=1)
    v = src.outputs(8)
    # increment 1 with odd multiplier: the state's low bit alternates
    assert v.tolist() == [0, 1 << 31] * 4 or v.tolist() == [1 << 31, 0] * 4
    # marginally uniform, so the one-dimensional test is blind to it
    chi = chi_square_equidist(LowBitsSource(named_lcg("l64_39"), 1), 2, 10 ** 4)
    assert chi.p_value > 0.99
    # the pair test sees the alternation immediately
    ser = serial_pairs(LowBitsSource(named_lcg("l64_39"), 1), 2, 10 ** 4)
    assert ser.p_value < 1e-10


def test_low_bits_source_fallback_and_validation():
    arr = RandomSource(4).outputs(1000)
    src = LowBitsSource(Trickle(arr, 1000), bits=4)
    assert np.array_equal(src.outputs(1000), (arr & np.uint32(15)) << np.uint32(28))
    with pytest.raises(ParameterError):
        LowBitsSource(RandomSource(0), bits=0)
    with pytest.raises(ParameterError):
        LowBitsSource(RandomSource(0), bits=33)


def test_reference_source_determinism_and_report_shape():
    a = RandomSource(7).outputs(1000)
    b = RandomSource(7).outputs(1000)
    assert np.array_equal(a, b)
    rep = chi_square_equidist(RandomSource(7), 16, 10 ** 4)
    d = rep.as_dict()
    assert set(d) == {"name", "statistic", "df", "p_value", "n", "details"}
    rep2 = chi_square_equidist(RandomSource(7), 16, 10 ** 4)
    assert rep == rep2


def test_reference_fixture_calibration_sample():
    inside = 0
    for seed in range(20):
        rep = chi_square_equidist(RandomSource(seed), 64, 20000)
        inside += 0.001 <= rep.p_value <= 0.999
    assert inside >= 18


@pytest.mark.parametrize("test,source,n", [
    (lambda s, n: chi_square_equidist(s, 16, n), lambda: named_lcg("l64_39", 3), 60001),
    (lambda s, n: serial_pairs(s, 8, n), lambda: named_lcg("l64_39", 3), 60001),
    (lambda s, n: gap_test(s, (0.5, 0.55), n), lambda: named_lcg("l64_39", 3), 60001),
    (lambda s, n: gap_test(s, (0.5, 0.503), n), lambda: named_lcg("l64_39", 3), 60001),
    (lambda s, n: serial_pairs(s, 4, n), lambda: LowBitsSource(named_lcg("l63", 3), 3), 60001),
], ids=["chi2", "serial", "gap", "gap_sparse", "lowbits"])
def test_reports_do_not_depend_on_chunk_size(monkeypatch, test, source, n):
    # an odd chunk leaves a pair half over; gaps span chunk boundaries,
    # and at p = 0.003 some chunks hold no hit at all
    want = test(source(), n)
    for chunk in (1000, 1001):
        monkeypatch.setattr(stats, "_CHUNK", chunk)
        assert test(source(), n) == want
