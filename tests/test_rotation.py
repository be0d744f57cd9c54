import math
import time
from decimal import ROUND_FLOOR, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aprng.errors import FieldMismatchError
from aprng.morphic import fibonacci_stream
import aprng.rotation as rotation
from aprng.rotation import (QuadraticIrrational, RotationCoding,
                            RotationStream, fibonacci_rotation,
                            rotation_letter)

GOLDEN_CONJ = QuadraticIrrational(3, -1, 2, 5)      # (3-sqrt(5))/2
ZERO = QuadraticIrrational(0, 0, 1, 1)

quadratics = st.builds(
    QuadraticIrrational,
    st.integers(-50, 50), st.integers(-20, 20),
    st.integers(1, 30), st.sampled_from([2, 3, 5, 7, 10, 13]))


# -- test-side exact reference: signs by squaring, floors by correcting a
# -- decimal estimate with those signs

def sign_surd(a, b, D):
    """Sign of a + b*sqrt(D), D >= 0, by squaring with tracked signs."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or D == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    d = a * a - b * b * D
    return sa if d > 0 else (sb if d < 0 else 0)


def floor_by_sign(a, b, D, r):
    """floor((a + b*sqrt(D)) / r), r > 0: the k with k*r <= a + b*sqrt(D)
    < (k+1)*r, found from a 60-digit estimate and settled by signs."""
    with localcontext() as ctx:
        ctx.prec = 60
        est = (Decimal(a) + Decimal(b) * Decimal(D).sqrt()) / r
        k = int(est.to_integral_value(ROUND_FLOOR))
    while sign_surd(a - k * r, b, D) < 0:
        k -= 1
    while sign_surd(a - (k + 1) * r, b, D) >= 0:
        k += 1
    return k


def test_sign_and_floor_reference_known_values():
    assert sign_surd(-3, 2, 2) == -1 and sign_surd(3, -2, 2) == 1
    assert sign_surd(-2, 1, 4) == 0 and sign_surd(0, -1, 7) == -1
    assert sign_surd(5, 9, 0) == 1
    assert floor_by_sign(-1, 1, 5, 2) == 0          # 0.618...
    assert floor_by_sign(-1, -1, 5, 2) == -2        # -1.618...
    assert floor_by_sign(-7, 0, 1, 2) == -4


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
    assert QuadraticIrrational(4, 7, 2, 0) == QuadraticIrrational(2, 0, 1, 1)


def test_negative_denominator_normalizes():
    x = QuadraticIrrational(1, 1, -2, 5)
    assert x.r == 2 and x.p == -1 and x.q == -1


def test_is_rational():
    x = QuadraticIrrational(10, 0, 4, 3)
    assert (x.p, x.q, x.r, x.D) == (5, 0, 2, 1)
    assert x.is_rational()
    assert not GOLDEN_CONJ.is_rational()


def test_equality_and_hash():
    assert QuadraticIrrational(6, -2, 4, 5) == GOLDEN_CONJ
    assert hash(QuadraticIrrational(6, -2, 4, 5)) == hash(GOLDEN_CONJ)
    assert QuadraticIrrational(3, 0, 3, 7) == QuadraticIrrational(1, 0, 1, 1)
    assert GOLDEN_CONJ != QuadraticIrrational(3, 1, 2, 5)


@given(quadratics)
def test_float_value_consistent(x):
    approx = (x.p + x.q * math.sqrt(x.D)) / x.r
    assert math.isclose(float(x), approx, rel_tol=1e-12, abs_tol=1e-12)


@given(quadratics)
def test_floor_is_exact(x):
    k = math.floor(x)
    assert sign_surd(x.p - k * x.r, x.q, x.D) >= 0
    assert sign_surd(x.p - (k + 1) * x.r, x.q, x.D) < 0


@given(quadratics)
def test_frac_in_unit_interval(x):
    f = x.frac()
    # same root part and denominator, p shifted by a multiple of r
    assert (f.q, f.r, f.D) == (x.q, x.r, x.D)
    assert (x.p - f.p) % x.r == 0
    assert sign_surd(f.p, f.q, f.D) >= 0
    assert sign_surd(f.p - f.r, f.q, f.D) < 0


# any values; radicands near 2^32 with small r; b = 0; D = 1
surds = st.one_of(
    st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 20, 10 ** 20),
              st.integers(0, 1 << 32), st.integers(1, 10 ** 20)),
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
              st.integers((1 << 32) - 1000, 1 << 32), st.integers(1, 50)),
    st.tuples(st.integers(-10 ** 9, 10 ** 9), st.just(0), st.integers(0, 99),
              st.integers(1, 10 ** 9)),
    st.tuples(st.integers(-10 ** 9, 10 ** 9), st.integers(-10 ** 9, 10 ** 9),
              st.just(1), st.integers(1, 10 ** 9)))


@settings(max_examples=500)
@given(surds, st.none() | st.integers(-3, 3))
def test_floor_surd_matches_sign_reference(surd, nudge):
    a, b, D, r = surd
    if nudge is not None:
        # a next to -b*sqrt(D), where the sum is within a few units of 0
        a = -floor_by_sign(0, b, D, 1) + nudge
    assert rotation._floor_surd(a, b, D, r) == floor_by_sign(a, b, D, r)


def test_floor_near_integer_boundary():
    # sqrt(2) + (1 - sqrt(2)) floors need exactness, not float luck
    x = QuadraticIrrational(10 ** 15, 1, 1, 2)
    f = math.floor(x)
    assert sign_surd(x.p - f, x.q, x.D) >= 0
    assert sign_surd(x.p - f - 1, x.q, x.D) < 0
    assert math.floor(QuadraticIrrational(7, 0, 1, 1)) == 7
    assert math.floor(QuadraticIrrational(-1, 0, 2, 1)) == -1


def test_frac_compare_known_values():
    golden = QuadraticIrrational(1, 1, 2, 5)            # (1+sqrt(5))/2
    assert math.floor(golden) == 1
    assert golden.frac() == QuadraticIrrational(-1, 1, 2, 5)
    assert QuadraticIrrational(-1, -1, 2, 5).frac() == GOLDEN_CONJ
    # 10^6 * (sqrt(5)-1)/2 = 618033.9887... sits just below 618034:
    # 5 * 10^12 = 5000000000000 < 2236068^2 = 5000000100624
    assert math.floor(QuadraticIrrational(-10 ** 6, 10 ** 6, 2, 5)) == 618033


def test_rotation_letter_conventions_at_boundary():
    alpha = GOLDEN_CONJ
    # orbit point exactly at 1 - alpha: left convention emits 1, right emits 0
    boundary = QuadraticIrrational(-1, 1, 2, 5)
    assert rotation_letter(RotationCoding(alpha, boundary, "left"), 0) == 1
    assert rotation_letter(RotationCoding(alpha, boundary, "right"), 0) == 0
    # orbit point exactly at 0: left emits 0, right emits 1
    assert rotation_letter(RotationCoding(alpha, ZERO, "left"), 0) == 0
    assert rotation_letter(RotationCoding(alpha, ZERO, "right"), 0) == 1


def reference_letter(coding, n):
    """Interval membership of the orbit point {rho + n*alpha}, decided by
    exact signs against the split point 1 - alpha."""
    al, rh = coding.alpha, coding.rho
    D, R = al.D, al.r * rh.r
    # rho + n*alpha = (a + b*sqrt(D)) / R; subtracting its floor leaves the
    # orbit point f in [0, 1)
    a = rh.p * al.r + n * al.p * rh.r
    b = rh.q * al.r + n * al.q * rh.r
    a -= floor_by_sign(a, b, D, R) * R
    # R*al.r * (f - (1 - alpha)), with alpha = (al.p + al.q*sqrt(D)) / al.r
    cmp = sign_surd(a * al.r - (al.r - al.p) * R, b * al.r + al.q * R, D)
    if coding.convention == "left":
        return int(cmp >= 0)                            # [1-alpha, 1)
    return int(cmp > 0 or sign_surd(a, b, D) == 0)      # (1-alpha, 1], 0 as 1


@st.composite
def slopes(draw):
    """An irrational slope in (0, 1): the fractional part of (p + q*sqrt(D))/r
    for a radicand anywhere up to 2^31 - 1."""
    D = draw(st.one_of(st.sampled_from([2, 3, 5, 7, 10, 13]),
                       st.integers(2, 2 ** 31 - 1)))
    p, q = draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(-50, 50))
    r = draw(st.integers(1, 10 ** 6))
    x = QuadraticIrrational(p, q, r, D)
    assume(not x.is_rational())
    return QuadraticIrrational(x.p - floor_by_sign(x.p, x.q, x.D, x.r) * x.r,
                               x.q, x.r, x.D)


def intercepts(alpha, k, u, v):
    """alpha itself; -k*alpha, whose orbit is on 0 at k; 1 - (k+1)*alpha,
    whose orbit is on the split point 1 - alpha at k; and the rational u/v."""
    p, q, r, D = alpha.p, alpha.q, alpha.r, alpha.D
    return (alpha, QuadraticIrrational(-k * p, -k * q, r, D),
            QuadraticIrrational(r - (k + 1) * p, -(k + 1) * q, r, D),
            QuadraticIrrational(u, 0, v, 1))


@pytest.mark.parametrize("convention", ["left", "right"])
@settings(deadline=None)
@given(alpha=slopes(), n=st.integers(0, 10 ** 18), k=st.integers(1, 10 ** 18),
       u=st.integers(-100, 100), v=st.integers(1, 100))
def test_rotation_letter_matches_interval_reference(convention, alpha, n, k,
                                                    u, v):
    for rho in intercepts(alpha, k, u, v):
        coding = RotationCoding(alpha, rho, convention)
        for m in (0, n, k - 1, k, k + 1):
            assert rotation_letter(coding, m) == reference_letter(coding, m)


@pytest.mark.parametrize("convention", ["left", "right"])
@settings(max_examples=40, deadline=None)
@given(alpha=slopes(), k=st.integers(1, 10 ** 15), which=st.integers(0, 3),
       back=st.integers(0, 300), n=st.integers(1, 400))
def test_take_matches_interval_reference(convention, alpha, k, which, back, n):
    # a window that may hold the orbit hit at k, read by the fixed-point path
    coding = RotationCoding(alpha, intercepts(alpha, k, 1, 3)[which],
                            convention)
    s = RotationStream(coding)
    start = max(0, k - back)
    s.seek(start)
    assert bytes(s.take(n)) == bytes(
        reference_letter(coding, start + i) for i in range(n))


@pytest.mark.parametrize("convention", ["left", "right"])
@pytest.mark.parametrize("rho", [
    GOLDEN_CONJ,
    QuadraticIrrational(-51, 17, 2, 5),         # -17*alpha
    QuadraticIrrational(-52, 18, 2, 5)])        # 1 - 18*alpha
def test_prefix_parikh_sums_reference_letters(convention, rho):
    coding = RotationCoding(GOLDEN_CONJ, rho, convention)
    s = RotationStream(coding)
    ones = 0
    for n in range(2001):
        assert s.prefix_parikh(n) == (n - ones, ones)
        ones += reference_letter(coding, n)


def test_large_radicand_coding_is_fast():
    D = 4294967291                          # largest prime below 2^32
    start = time.perf_counter()
    for k in range(1, 201):
        # (1 + sqrt(D)) / 2^17 is about 0.5; the intercept wraps into [0, 1)
        coding = RotationCoding(QuadraticIrrational(1, 1, 1 << 17, D),
                                QuadraticIrrational(2, -k, 5, D))
        rotation_letter(coding, 10 ** 18 + k)
        math.floor(QuadraticIrrational(k, -3, 7, D))
    assert time.perf_counter() - start < 1


def test_coding_validation():
    alpha = GOLDEN_CONJ
    with pytest.raises(ValueError):
        RotationCoding(QuadraticIrrational(1, 0, 3, 1), ZERO)
    with pytest.raises(ValueError):
        RotationCoding(QuadraticIrrational(3, 1, 2, 5), ZERO)    # slope > 1
    with pytest.raises(ValueError):
        RotationCoding(QuadraticIrrational(-3, 1, 2, 5), ZERO)   # slope < 0
    with pytest.raises(ValueError):
        RotationCoding(alpha, ZERO, "middle")
    # the intercept is wrapped into [0, 1) rather than rejected
    c = RotationCoding(alpha, QuadraticIrrational(5, 0, 3, 1))
    assert c.rho == QuadraticIrrational(2, 0, 3, 1)
    c = RotationCoding(alpha, QuadraticIrrational(-51, 17, 2, 5))
    assert c.rho == QuadraticIrrational(-37, 17, 2, 5)


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
    left = RotationStream(RotationCoding(alpha, ZERO, "left"))
    right = RotationStream(RotationCoding(alpha, ZERO, "right"))
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
    RotationCoding(GOLDEN_CONJ, QuadraticIrrational(1, 0, 3, 1))


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
                                 ZERO])
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
