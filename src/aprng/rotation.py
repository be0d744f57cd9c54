"""Sturmian words as exact rotation codings.

The coding of the rotation by alpha with intercept rho writes letter 0 when
the orbit point {rho + n*alpha} falls in the long interval of length
1-alpha and letter 1 otherwise; the two half-open conventions differ only
when an orbit point hits the split exactly.  Letter n is the step
floor(rho + (n+1)*alpha) - floor(rho + n*alpha), with ceilings for the
right convention.  Slope and intercept are quadratic irrationals
(p + q*sqrt(D))/r, held as exact values in canonical integer form; every
floor of rho + n*alpha, scaled or not, is taken over integers with an
integer square root, so letter decisions never touch floating point.
Streams produce letters from a 64-bit fixed-point phase whose error is
bounded per block; the few positions inside that bound of a decision point
are settled by that exact floor rule.
"""
from __future__ import annotations

from functools import lru_cache
from math import floor, gcd, isqrt

from .errors import FieldMismatchError
from .streams import WordStream

import numpy as np

_ONE = 1 << 64          # fixed-point scale of the phase
_BLOCK = 1 << 16        # letters per exactly computed block base


def _floor_surd(a: int, b: int, D: int, r: int) -> int:
    """floor((a + b*sqrt(D)) / r), exactly, for D >= 0 and r > 0."""
    t = b * b * D
    root = isqrt(t)
    if b < 0:
        root = -root - (root * root != t)
    # root = floor(b*sqrt(D)), and floor(z / r) = floor(floor(z) / r)
    # for every real z and integer r > 0
    return (a + root) // r


@lru_cache
def _squarefree_split(D: int) -> tuple[int, int]:
    """D = s^2 * D0 with D0 squarefree; returns (s, D0).

    Trial division runs up to sqrt(D), so D is bounded by 2^32.
    """
    if not 0 <= D < 1 << 32:
        raise ValueError(f"radicand {D} outside 0..2^32-1")
    s = 1
    f = 2
    while f * f <= D:
        while D % (f * f) == 0:
            D //= f * f
            s *= f
        f += 1
    return s, D


class QuadraticIrrational:
    """Exact (p + q*sqrt(D)) / r with integer p, q, r.

    Canonical form: r > 0, gcd(p, q, r) = 1, D squarefree; a rational value
    is stored with q = 0 and D = 1.
    """

    __slots__ = ("p", "q", "r", "D")

    def __init__(self, p: int, q: int, r: int, D: int):
        if r == 0:
            raise ZeroDivisionError("zero denominator")
        s, D0 = _squarefree_split(D)
        q *= s
        if D0 <= 1:
            p, q = p + q * (1 if D0 == 1 else 0), 0
            D0 = 1
        if q == 0:
            D0 = 1
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(abs(p), abs(q)), r)
        self.p = p // g
        self.q = q // g
        self.r = r // g
        self.D = D0

    def is_rational(self) -> bool:
        return self.q == 0

    def __eq__(self, other):
        if not isinstance(other, QuadraticIrrational):
            return NotImplemented
        return ((self.p, self.q, self.r, self.D)
                == (other.p, other.q, other.r, other.D))

    def __hash__(self):
        return hash((self.p, self.q, self.r, self.D))

    def __floor__(self) -> int:
        return _floor_surd(self.p, self.q, self.D, self.r)

    def frac(self) -> "QuadraticIrrational":
        """x - floor(x), in [0, 1)."""
        return QuadraticIrrational(self.p - floor(self) * self.r, self.q,
                                   self.r, self.D)

    def __float__(self) -> float:
        return (self.p + self.q * self.D ** 0.5) / self.r

    def __repr__(self):
        return f"QuadraticIrrational({self.p}, {self.q}, {self.r}, D={self.D})"


class RotationCoding:
    """Parameters of a Sturmian coding: irrational slope, intercept, convention.

    ``convention`` is "left" for intervals closed on the left (the letter-1
    interval is [1-alpha, 1)) and "right" for the primed variant closed on the
    right ((1-alpha, 1], with an orbit value of 0 read as 1).
    """

    def __init__(self, alpha: QuadraticIrrational, rho: QuadraticIrrational,
                 convention: str = "left"):
        if convention not in ("left", "right"):
            raise ValueError(f"convention must be 'left' or 'right', got {convention!r}")
        if alpha.is_rational():
            raise ValueError("slope must be irrational: rational slopes give periodic words")
        # an irrational alpha is never 0, so floor 0 means 0 < alpha < 1
        if floor(alpha) != 0:
            raise ValueError("slope must lie strictly between 0 and 1")
        if not rho.is_rational() and rho.D != alpha.D:
            raise FieldMismatchError(
                f"intercept over sqrt({rho.D}) and slope over sqrt({alpha.D}) "
                "cannot be combined exactly")
        self.alpha = alpha
        self.rho = rho = rho.frac()
        self.convention = convention
        # rho + n*alpha = (a + n*da + (b + n*db) * sqrt(D)) / r
        self._terms = (rho.p * alpha.r, alpha.p * rho.r, rho.q * alpha.r,
                       alpha.q * rho.r, alpha.r * rho.r, alpha.D)

    def _floor(self, n: int, scale: int = 1) -> int:
        """floor(scale * (rho + n*alpha)), exactly."""
        a, da, b, db, r, D = self._terms
        return _floor_surd(scale * (a + n * da), scale * (b + n * db), D, r)

    def __repr__(self):
        return (f"RotationCoding(alpha={self.alpha!r}, rho={self.rho!r}, "
                f"convention={self.convention!r})")


def _edge(coding: RotationCoding, n: int) -> int:
    """floor(rho + n*alpha) for the left convention, its ceiling for the right.

    Left: letter 1 means {x} >= 1-alpha, exactly when floor(x + alpha) =
    floor(x) + 1.  Right: letter 1 means {x} > 1-alpha or {x} = 0, exactly
    when ceil(x + alpha) = ceil(x) + 1.
    """
    if coding.convention == "left":
        return coding._floor(n)
    return -coding._floor(n, -1)


def rotation_letter(coding: RotationCoding, n: int) -> int:
    """Letter s(n) of the coding: 0 on the long interval, 1 on the short one."""
    return _edge(coding, n + 1) - _edge(coding, n)


class RotationStream(WordStream):
    """Letters of a rotation coding, produced in fixed-point blocks.

    A block of up to _BLOCK letters from position pos starts at
    x_0 = floor({rho + pos*alpha} * 2^64), computed exactly, and steps by
    A = floor(alpha * 2^64) with uint64 wraparound, so after i steps the true
    phase lies in [x_i, x_i + i + 1) ulps, read cyclically.  Letter 1 is
    x_i >= 2^64 - A.  The positions whose interval reaches across the split
    point 1 - alpha, or across 0 (where a phase just below 1 reads 1 and one
    that wrapped reads 0, and the right convention reads exactly 0 as 1),
    are decided by the exact floor rule of rotation_letter.
    """

    def __init__(self, coding: RotationCoding):
        super().__init__(2)
        self.coding = coding
        alpha = coding.alpha
        A = _floor_surd(alpha.p * _ONE, alpha.q * _ONE, alpha.D, alpha.r)
        self._A = np.uint64(A)
        self._T = np.uint64(_ONE - 1 - A)      # letter 1 iff x > T

    def _produce(self, n: int) -> np.ndarray:
        if n == 1:
            # one letter: the exact floor rule costs less than a numpy block
            return np.array([rotation_letter(self.coding, self._pos)],
                            dtype=np.uint8)
        out = np.empty(n, dtype=np.uint8)
        T = self._T
        for off in range(0, n, _BLOCK):
            pos = self._pos + off
            i = np.arange(min(_BLOCK, n - off), dtype=np.uint64)
            x = i * self._A
            x += np.uint64(self.coding._floor(pos, _ONE) % _ONE)
            np.greater(x, T, out=out[off:off + i.size])
            i += np.uint64(1)                   # error band width at i
            unsure = ((T - x) < i) | ((np.uint64(0) - x) < i)
            for j in np.flatnonzero(unsure).tolist():
                out[off + j] = rotation_letter(self.coding, pos + j)
        return out

    def _prefix_parikh(self, n: int) -> tuple[int, ...]:
        """Exact letter counts of the first n letters: the letter steps of
        _edge telescope."""
        ones = _edge(self.coding, n) - _edge(self.coding, 0)
        return (n - ones, ones)

    def fork(self) -> "RotationStream":
        return RotationStream(self.coding)

    def __repr__(self):
        return f"RotationStream({self.coding!r})"


def fibonacci_rotation(convention: str = "left") -> RotationStream:
    """The rotation parameterization that reproduces the Fibonacci word:
    slope (3 - sqrt(5))/2 with intercept equal to the slope."""
    alpha = QuadraticIrrational(3, -1, 2, 5)
    return RotationStream(RotationCoding(alpha, alpha, convention))
