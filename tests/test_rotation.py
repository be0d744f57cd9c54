import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aprng.errors import FieldMismatchError
from aprng.morphic import fibonacci_stream
import aprng.rotation as rotation
from aprng.rotation import (QuadraticIrrational, RotationCoding,
                            RotationStream, fibonacci_rotation,
                            rotation_letter)

GOLDEN_CONJ = QuadraticIrrational(3, -1, 2, 5)      # (3-sqrt(5))/2

quadratics = st.builds(
    QuadraticIrrational,
    st.integers(-50, 50), st.integers(-20, 20),
    st.integers(1, 30), st.sampled_from([2, 3, 5, 7, 10, 13]))


def test_canonical_form():
    x = QuadraticIrrational(2, 4, 6, 5)
    assert (x.p, x.q, x.r, x.D) == (1, 2, 3, 5)
    # square factors of D fold into q
    y = QuadraticIrrational(0, 1, 1, 8)
    assert (y.q, y.D) == (2, 2)
    # rationals normalize to D = 1
    z = QuadraticIrrational(4, 0, 6, 7)
    assert (z.p, z.q, z.r, z.D) == (2, 0, 3, 1)
    # perfect square radicand collapses to a rational
    w = QuadraticIrrational(0, 1, 1, 9)
    assert (w.p, w.q, w.D) == (3, 0, 1)
    with pytest.raises(ZeroDivisionError):
        QuadraticIrrational(1, 1, 0, 5)
    with pytest.raises(ValueError):
        QuadraticIrrational(1, 1, 2, -5)
    # the radicand folds away entirely when D = 0
    assert QuadraticIrrational(4, 7, 2, 0) == QuadraticIrrational.from_rational(2)


def test_negative_denominator_normalizes():
    x = QuadraticIrrational(1, 1, -2, 5)
    assert x.r == 2 and x.p == -1 and x.q == -1


def test_from_rational_and_is_rational():
    x = QuadraticIrrational.from_rational(Fraction(10, 4))
    assert (x.p, x.q, x.r, x.D) == (5, 0, 2, 1)
    assert x.is_rational()
    assert not GOLDEN_CONJ.is_rational()


def test_equality_and_hash():
    assert QuadraticIrrational(6, -2, 4, 5) == GOLDEN_CONJ
    assert hash(QuadraticIrrational(6, -2, 4, 5)) == hash(GOLDEN_CONJ)
    assert QuadraticIrrational(1, 0, 1, 1) == QuadraticIrrational.from_rational(1)


@given(quadratics)
def test_float_value_consistent(x):
    approx = (x.p + x.q * math.sqrt(x.D)) / x.r
    assert math.isclose(float(x), approx, rel_tol=1e-12, abs_tol=1e-12)


@given(quadratics, quadratics)
def test_compare_matches_float_when_clear(x, y):
    if x.D != y.D and x.q != 0 and y.q != 0:
        return
    fx, fy = float(x), float(y)
    if abs(fx - fy) < 1e-6:
        return
    diff = x - y
    got = diff.compare(0)
    assert got == (1 if fx > fy else -1)


def test_field_mismatch_only_when_both_irrational():
    a = QuadraticIrrational(0, 1, 1, 2)
    b = QuadraticIrrational(0, 1, 1, 3)
    with pytest.raises(FieldMismatchError):
        a + b
    # a rational partner never mismatches
    r = QuadraticIrrational.from_rational(Fraction(1, 2))
    assert float(a + r) == pytest.approx(math.sqrt(2) + 0.5)


@given(quadratics, quadratics)
def test_arithmetic_matches_float(x, y):
    if x.D != y.D and x.q != 0 and y.q != 0:
        return
    assert math.isclose(float(x + y), float(x) + float(y),
                        rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(float(x - y), float(x) - float(y),
                        rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(float(-x), -float(x), rel_tol=1e-12, abs_tol=1e-12)


@given(quadratics)
def test_floor_is_exact(x):
    k = math.floor(x)
    assert x.compare(k) >= 0
    assert x.compare(k + 1) < 0


@given(quadratics)
def test_frac_in_unit_interval(x):
    f = x.frac()
    assert f.compare(0) >= 0
    assert f.compare(1) < 0
    diff = x - f
    assert diff.is_rational()
    assert Fraction(diff.p, diff.r).denominator == 1


def test_floor_near_integer_boundary():
    # sqrt(2) + (1 - sqrt(2)) floors need exactness, not float luck
    x = QuadraticIrrational(10 ** 15, 1, 1, 2)
    f = math.floor(x)
    assert x.compare(f) >= 0 and x.compare(f + 1) < 0
    assert math.floor(QuadraticIrrational.from_rational(7)) == 7
    assert math.floor(QuadraticIrrational.from_rational(Fraction(-1, 2))) == -1


def test_frac_compare_known_values():
    # exact sign of x - y, settled by integer cross-multiplication
    golden = QuadraticIrrational(1, 1, 2, 5)            # (1+sqrt(5))/2
    assert golden.compare(QuadraticIrrational.from_rational(Fraction(3, 2))) == 1
    assert golden.compare(golden) == 0
    # (sqrt(5)-1)/2 = 0.6180339887... sits just below the rounding 618034/10^6:
    # cross-multiplied, 5 * 10^12 = 5000000000000 < 2236068^2 = 5000000100624
    near = QuadraticIrrational.from_rational(Fraction(618034, 10 ** 6))
    golden_frac = QuadraticIrrational(-1, 1, 2, 5)      # (sqrt(5)-1)/2
    assert golden_frac.compare(near) == -1
    assert near.compare(golden_frac) == 1
    # incompatible radicals cannot be compared exactly
    with pytest.raises(FieldMismatchError):
        QuadraticIrrational(0, 1, 1, 2).compare(QuadraticIrrational(0, 1, 1, 3))


def test_rotation_letter_conventions_at_boundary():
    alpha = GOLDEN_CONJ
    # orbit point exactly at 1 - alpha: left convention emits 1, right emits 0
    boundary = QuadraticIrrational.from_rational(1) - alpha
    assert rotation_letter(RotationCoding(alpha, boundary, "left"), 0) == 1
    assert rotation_letter(RotationCoding(alpha, boundary, "right"), 0) == 0
    # orbit point exactly at 0: left emits 0, right emits 1
    zero = QuadraticIrrational.from_rational(0)
    assert rotation_letter(RotationCoding(alpha, zero, "left"), 0) == 0
    assert rotation_letter(RotationCoding(alpha, zero, "right"), 0) == 1


def reference_letter(coding, n):
    """Interval membership of the orbit point, decided by exact comparison."""
    f = (coding.rho + coding.alpha * n).frac()
    cmp = f.compare(1 - coding.alpha)
    if coding.convention == "left":
        return int(cmp >= 0)                # [1-alpha, 1)
    return int(cmp > 0 or f == 0)           # (1-alpha, 1], 0 read as 1


SLOPES = [GOLDEN_CONJ, QuadraticIrrational(-1, 1, 1, 2),    # sqrt(2)-1
          QuadraticIrrational(0, 1, 3, 2)]                  # sqrt(2)/3


@pytest.mark.parametrize("convention", ["left", "right"])
@given(alpha=st.sampled_from(SLOPES), n=st.integers(0, 10 ** 18),
       k=st.integers(1, 10 ** 6))
def test_rotation_letter_matches_interval_reference(convention, alpha, n, k):
    # rho = -k*alpha puts the orbit on 0 at k, rho = 1 - (k+1)*alpha puts it
    # on the split point 1 - alpha at k
    for rho in (alpha, -alpha * k, 1 - alpha * (k + 1)):
        coding = RotationCoding(alpha, rho, convention)
        for m in (n, k - 1, k, k + 1):
            assert rotation_letter(coding, m) == reference_letter(coding, m)


@pytest.mark.parametrize("convention", ["left", "right"])
@pytest.mark.parametrize("rho", [GOLDEN_CONJ, -GOLDEN_CONJ * 17,
                                 1 - GOLDEN_CONJ * 18])
def test_prefix_parikh_sums_reference_letters(convention, rho):
    coding = RotationCoding(GOLDEN_CONJ, rho, convention)
    s = RotationStream(coding)
    ones = 0
    for n in range(2001):
        assert s.prefix_parikh(n) == (n - ones, ones)
        ones += reference_letter(coding, n)


def test_large_radicand_arithmetic_is_fast():
    D = 4294967291                          # largest prime below 2^32
    x, y = QuadraticIrrational(1, 1, 3, D), QuadraticIrrational(2, -1, 5, D)
    start = time.perf_counter()
    for _ in range(200):
        x + y
        x * y
    assert time.perf_counter() - start < 1


def test_coding_validation():
    alpha = GOLDEN_CONJ
    zero = QuadraticIrrational.from_rational(0)
    with pytest.raises(ValueError):
        RotationCoding(QuadraticIrrational.from_rational(Fraction(1, 3)), zero)
    with pytest.raises(ValueError):
        RotationCoding(QuadraticIrrational(3, 1, 2, 5), zero)    # slope > 1
    with pytest.raises(ValueError):
        RotationCoding(alpha, zero, "middle")
    # the intercept is wrapped into [0, 1) rather than rejected
    c = RotationCoding(alpha, QuadraticIrrational.from_rational(Fraction(5, 3)))
    assert c.rho == QuadraticIrrational.from_rational(Fraction(2, 3))


def test_fibonacci_rotation_matches_morphic():
    s = fibonacci_rotation()
    assert bytes(s.take(20000)) == bytes(fibonacci_stream().take(20000))


def test_rotation_seek_letter_at_parikh():
    s = fibonacci_rotation()
    ref = bytes(s.take(30001))
    s.seek(12345)
    assert bytes(s.take(100)) == ref[12345:12445]
    for pos in [0, 1, 17, 9999, 29999]:
        assert s.letter_at(pos) == ref[pos]
        assert s.position == pos + 1
        assert s.take(1)[0] == ref[pos + 1]
    far = 10 ** 15
    assert s.letter_at(far) == rotation_letter(s.coding, far)
    assert s.position == far + 1
    assert bytes(s.take(3)) == bytes(
        rotation_letter(s.coding, far + k) for k in (1, 2, 3))
    fresh = fibonacci_rotation()
    for n in [0, 1, 2, 17, 12345, 30000]:
        ones = ref[:n].count(1)
        assert fresh.prefix_parikh(n) == (n - ones, ones)


def test_rotation_parikh_far_position():
    s = fibonacci_rotation()
    n = 10 ** 15
    zeros, ones = s.prefix_parikh(n)
    assert zeros + ones == n
    # letter frequency of a Sturmian word is the rotation angle
    alpha = float(GOLDEN_CONJ)
    assert abs(ones / n - alpha) < 1e-14


def test_right_convention_differs_only_on_orbit_hits():
    alpha = GOLDEN_CONJ
    rho = QuadraticIrrational.from_rational(0)
    left = RotationStream(RotationCoding(alpha, rho, "left"))
    right = RotationStream(RotationCoding(alpha, rho, "right"))
    a = bytes(left.take(5000))
    b = bytes(right.take(5000))
    # rho = 0 hits the interval endpoint only at position 0
    assert a[0] != b[0]
    assert a[1:] == b[1:]


def test_generic_rho_conventions_agree():
    alpha = GOLDEN_CONJ
    rho = QuadraticIrrational(1, 1, 7, 5)     # (1+sqrt(5))/7, off the orbit
    left = RotationStream(RotationCoding(alpha, rho, "left"))
    right = RotationStream(RotationCoding(alpha, rho, "right"))
    assert bytes(left.take(5000)) == bytes(right.take(5000))


def test_mixed_field_coding_is_rejected():
    sqrt2_third = QuadraticIrrational(0, 1, 3, 2)
    with pytest.raises(FieldMismatchError):
        RotationCoding(GOLDEN_CONJ, sqrt2_third)
    with pytest.raises(FieldMismatchError):
        RotationStream(RotationCoding(GOLDEN_CONJ, sqrt2_third, "right"))
    # a rational intercept shares every field
    RotationCoding(GOLDEN_CONJ, QuadraticIrrational.from_rational(Fraction(1, 3)))


# at 3416454622906706 the phase is 2414 ulps above 0, but a block started
# 65000 letters earlier reads it as 2^64 - 731, just below 1: only the error
# band around 0 sends that letter to the exact path
NEAR_WRAP = 3416454622906706 - 65000
BLOCK = rotation._BLOCK


@pytest.mark.parametrize("convention", ["left", "right"])
@pytest.mark.parametrize("start", [0, 10 ** 9, 10 ** 15, NEAR_WRAP])
def test_fixed_point_take_matches_exact(convention, start):
    n = 2 * BLOCK + 7
    s = fibonacci_rotation(convention)
    s.seek(start)
    got = s.take(n)
    # rho = alpha never lands on 0 or on 1 - alpha, so both conventions
    # give the Fibonacci word
    fib = fibonacci_stream()
    fib.seek(start)
    assert bytes(got) == bytes(fib.take(n))
    coding = s.coding
    checks = set(range(0, n, 613)) | {BLOCK - 1, BLOCK, BLOCK + 1, n - 1}
    if start == NEAR_WRAP:
        checks |= set(range(64990, 65010))
    for i in sorted(checks):
        assert got[i] == rotation_letter(coding, start + i), i
    # the same letters in pieces that straddle the block boundaries
    s.seek(start)
    parts = [s.take(k) for k in (1, BLOCK - 2, 3, BLOCK, 5)]
    assert bytes(np.concatenate(parts)) == bytes(got)


@pytest.mark.parametrize("convention", ["left", "right"])
@pytest.mark.parametrize("rho", [QuadraticIrrational(-1, 1, 2, 5),     # 1 - alpha
                                 QuadraticIrrational.from_rational(0)])
def test_orbit_hits_take_the_exact_path(monkeypatch, convention, rho):
    coding = RotationCoding(GOLDEN_CONJ, rho, convention)
    exact = []

    def counted(c, n):
        exact.append(n)
        return rotation_letter(c, n)

    monkeypatch.setattr(rotation, "rotation_letter", counted)
    got = RotationStream(coding).take(BLOCK + 300)
    assert 0 in exact
    monkeypatch.undo()
    for i in list(range(300)) + list(range(BLOCK - 3, BLOCK + 300)):
        assert got[i] == rotation_letter(coding, i), i
