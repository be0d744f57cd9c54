"""Text descriptors for words and generators.

One small grammar covers both command-line arguments and config
strings.  Text flows one way: a descriptor parses into a frozen
dataclass tree, which builds the live stream or generator on demand.
Spellings of one descriptor (``fib`` and ``morphism:0->01,1->0``, say)
parse to equal trees.

Word forms::

    fib | trib | fib2
    morphism:0->01,1->0[:<seed-letter>]
    ar:cycle:<digits>
    ar:morphic:<rules>:<seed-letter>
    rot:(3-1*sqrt(5))/2:(0)/1[:left|right]
    merge:<digit-map>:<inner-word>
    interleave:<letter>:<inner-word>

Generator forms::

    randu | l59 | l63 | l64_28 | ... (see NAMED_LCGS)
    lcg:m=2^31,a=65539,c=0[,seed=1]
    shuffle:<word>:<gen>,<gen>[,<gen>...]

A generator may stand in parentheses.  A nested shuffle needs them unless
it is the last of its list, since a bare one takes the rest of the list.

Numbers accept ``2^31``, ``2^47-115``, ``13^13``, plain decimal, and
integral scientific notation like ``1e6`` or ``2.5e1``, with no sign, no
underscores and no digit run longer than 4300.  Descriptors and numbers are
ASCII text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import SpecParseError
from .morphic import (FIBONACCI, TRIBONACCI, FixedPointStream,
                      InterleavedStream, MergedStream, Morphism)
from .streams import CycleStream, WordStream

# The rotation, arnoux_rauzy and prng modules load only when a descriptor of
# their kind is parsed or built, so a command pays for no other kind.
if TYPE_CHECKING:
    from .prng import Lcg, ShuffledPrng
    from .rotation import QuadraticIrrational

__all__ = [
    "WordSpec", "MorphicSpec", "ArCycleSpec", "ArMorphicSpec",
    "RotationSpec", "MergeSpec", "InterleaveSpec",
    "GenSpec", "LcgSpec", "ShuffleSpec",
    "parse_word_spec", "parse_gen_spec",
    "build_word", "build_gen",
    "parse_morphism_rules", "parse_number", "parse_quadratic",
]


def _ascii(text: str) -> str:
    """``text``, if it is ASCII like the grammar.  ``int``, ``\\d`` and
    ``isdecimal`` also accept other scripts' digits, so any other character
    is an error, placed at the first one.  Descriptor and rule readers call
    this after parsing, so that a rule a text breaks (a superscript two for
    a digit, say) keeps its own message."""
    if not text.isascii():
        pos = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise SpecParseError(f"non-ASCII character {text[pos]!r}", text, pos)
    return text


# --------------------------------------------------------------------------
# numbers

# decimal, <base>^<exp>[+-<k>], or <d>[.<d>]e[+-]<d> with an integral value
_NUMBER = re.compile(r"(\d+)(?:\^(\d+)([+-]\d+)?|(?:\.(\d+))?[eE]([+-]?\d+))?\Z")
_MAX_DIGITS = 4300      # longest digit run int() reads by default
_MAX_BITS = 1 << 16     # far above any count, modulus or seed a command takes


def parse_number(text: str, *, where: str = "") -> int:
    """Nonnegative integer from ``2^31``, ``2^47-115``, ``1e6``, ``2.5e1``,
    or decimal."""
    s = _ascii(text).strip()
    suffix = f" for {where}" if where else ""
    if long := re.search(r"\d{%d}" % (_MAX_DIGITS + 1), s):
        raise SpecParseError(
            f"more than {_MAX_DIGITS} digits in a row{suffix}", s, long.start())
    m = _NUMBER.match(s)
    value = -1
    if m:
        head, exp, off, frac, exp10 = m.groups()
        # base ** exp and 10 ** exp are exact, so a short text can ask for a
        # power no machine computes: bound exp * log2(base) first
        if exp or exp10:
            bits = (float(exp) * math.log2(max(int(head), 1)) if exp
                    else abs(float(exp10)) * math.log2(10))
            if bits > _MAX_BITS:
                raise SpecParseError(
                    f"exponent out of range (numbers stop at 2^{_MAX_BITS})"
                    f"{suffix}", s, m.start(2 if exp else 5))
        if exp:
            value = int(head) ** int(exp) + int(off or 0)
        else:
            frac = frac or ""
            shift = int(exp10 or 0) - len(frac)
            mant = int(head) * 10 ** len(frac) + int(frac or 0)
            value = mant * 10 ** shift if shift >= 0 else (
                mant // 10 ** -shift if mant % 10 ** -shift == 0 else -1)
    if value < 0:
        raise SpecParseError(
            f"expected a number (like 1000000, 2^31, 2^47-115, or 1e6)"
            f"{suffix}, got {text!r}", text)
    return value


# --------------------------------------------------------------------------
# quadratic irrationals: (p+q*sqrt(D))/r

_QI_FULL = re.compile(r"\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(\d+)\Z")
_QI_RATIONAL = re.compile(r"\((-?\d+)\)/(\d+)\Z")


def parse_quadratic(text: str) -> QuadraticIrrational:
    from .rotation import QuadraticIrrational
    s = _ascii(text).strip()
    if m := _QI_FULL.match(s):
        p, q, D, r = map(int, m.groups())
    elif m := _QI_RATIONAL.match(s):
        p, r = map(int, m.groups())
        q, D = 0, 1
    else:
        raise SpecParseError(
            f"expected (a+b*sqrt(D))/c or (a)/c, got {text!r}", text)
    if r == 0:
        raise SpecParseError(f"zero denominator in {text!r}", text)
    return QuadraticIrrational(p, q, r, D)


# --------------------------------------------------------------------------
# morphism rules

def parse_morphism_rules(text: str) -> list[str]:
    """Images list from the rule format ``0->01,1->0``.

    Rules may come in any order but must cover 0..d-1 exactly once,
    d being the rule count.
    """
    rules = text.split(",")
    images: dict[int, str] = {}
    offset = 0
    for chunk in rules:
        lhs, sep, rhs = chunk.partition("->")
        if not sep:
            raise SpecParseError(
                f"rule {chunk!r} lacks '->'", text, offset)
        if not (lhs.isdecimal() and len(lhs) == 1):
            raise SpecParseError(
                f"rule left side must be a single digit letter, got {lhs!r}",
                text, offset)
        if not rhs.isdecimal():
            raise SpecParseError(
                f"image for letter {lhs} must be digits, got {rhs!r}",
                text, offset + len(lhs) + 2)
        a = int(lhs)
        if a in images:
            raise SpecParseError(f"duplicate rule for letter {a}", text, offset)
        images[a] = rhs
        offset += len(chunk) + 1
    _ascii(text)
    d = len(images)
    missing = [a for a in range(d) if a not in images]
    if missing:
        raise SpecParseError(
            f"rules cover letters {sorted(images)} but must be exactly 0..{d - 1}",
            text)
    return [images[a] for a in range(d)]


def _morphism(text: str) -> Morphism:
    """Segment reader for the rules of a morphic word."""
    return Morphism(parse_morphism_rules(text))


# --------------------------------------------------------------------------
# descriptor trees

class WordSpec:
    """Base for word descriptors."""

    def build(self) -> WordStream:
        raise NotImplementedError


@dataclass(frozen=True)
class MorphicSpec(WordSpec):
    morphism: Morphism
    seed: int = 0

    def build(self) -> WordStream:
        return FixedPointStream(self.morphism, self.seed)


@dataclass(frozen=True)
class ArCycleSpec(WordSpec):
    pattern: bytes

    def build(self) -> WordStream:
        from .arnoux_rauzy import ArnouxRauzyStream
        return ArnouxRauzyStream(CycleStream(self.pattern))


@dataclass(frozen=True)
class ArMorphicSpec(WordSpec):
    morphism: Morphism
    seed: int

    def build(self) -> WordStream:
        from .arnoux_rauzy import ArnouxRauzyStream
        return ArnouxRauzyStream(FixedPointStream(self.morphism, self.seed))


@dataclass(frozen=True)
class RotationSpec(WordSpec):
    alpha: QuadraticIrrational
    rho: QuadraticIrrational
    convention: str = "left"

    def build(self) -> WordStream:
        from .rotation import RotationCoding, RotationStream
        return RotationStream(RotationCoding(self.alpha, self.rho,
                                             self.convention))


@dataclass(frozen=True)
class MergeSpec(WordSpec):
    mapping: tuple[int, ...]
    inner: WordSpec

    def build(self) -> WordStream:
        return MergedStream(self.inner.build(), self.mapping)


@dataclass(frozen=True)
class InterleaveSpec(WordSpec):
    letter: int
    inner: WordSpec

    def build(self) -> WordStream:
        return InterleavedStream(self.inner.build(), self.letter)


class GenSpec:
    """Base for generator descriptors."""

    def build(self, seed: int | None = None):
        raise NotImplementedError


@dataclass(frozen=True)
class LcgSpec(GenSpec):
    m: int
    a: int
    c: int
    seed: int = 1

    def build(self, seed=None) -> Lcg:
        from .prng import Lcg
        return Lcg(self.m, self.a, self.c,
                   self.seed if seed is None else seed)


@dataclass(frozen=True)
class ShuffleSpec(GenSpec):
    word: WordSpec
    gens: tuple[GenSpec, ...] = field(default_factory=tuple)

    def build(self, seed=None) -> ShuffledPrng:
        from .prng import ShuffledPrng
        return ShuffledPrng(self.word.build(),
                            [g.build(seed) for g in self.gens])


FIB_SPEC = MorphicSpec(FIBONACCI, 0)
TRIB_SPEC = MorphicSpec(TRIBONACCI, 0)
FIB2_SPEC = InterleaveSpec(2, FIB_SPEC)

_NAMED_WORDS = {"fib2": FIB2_SPEC, "fib": FIB_SPEC, "trib": TRIB_SPEC}
_WORD_HEADS = (*_NAMED_WORDS, "morphism", "ar", "rot", "merge", "interleave")
_LCG_KEYS = ("m", "a", "c", "seed")
_LCG_NEXT = re.compile(",(%s)=" % "|".join(_LCG_KEYS))   # another key=value
_MAX_NESTING = 64       # words and generators one inside another


# --------------------------------------------------------------------------
# cursor-based recursive descent

class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str, hint: str) -> None:
        if self.peek() != ch:
            self.error(f"expected {ch!r} {hint}")
        self.pos += 1

    def segment(self, stops: str) -> str:
        """Consume up to (not including) any stop character or the end."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in stops:
            self.pos += 1
        return self.text[start:self.pos]

    def error(self, msg: str):
        raise SpecParseError(msg, self.text, self.pos)


def _field(cur: _Cursor, hint: str, parse, stops: str = ":", sep: str = ":"):
    """``sep`` then the segment up to a stop character, passed to ``parse``;
    its errors are placed at the segment's offset in the whole descriptor."""
    cur.eat(sep, hint)
    start = cur.pos
    segment = cur.segment(stops)
    try:
        return parse(segment)
    except SpecParseError as e:
        raise SpecParseError(e.message, cur.text,
                             start + (e.pos or 0)) from None
    except ValueError as e:
        raise SpecParseError(str(e), cur.text, start) from None


def _optional_field(cur: _Cursor, accept) -> str | None:
    """``:<segment>`` if present and ``accept(segment)``; otherwise None,
    with the cursor left alone."""
    save = cur.pos
    if cur.peek() == ":" and accept(seg := _field(cur, "", str, ":,")):
        return seg
    cur.pos = save
    return None


def _digits(message: str):
    """Segment reader that keeps only a string of digits."""
    def read(segment: str) -> str:
        if not segment.isdecimal():
            raise ValueError(f"{message}, got {segment!r}")
        return segment
    return read


def _parse_word(cur: _Cursor, depth: int = 1) -> WordSpec:
    if depth > _MAX_NESTING:
        cur.error(f"words and generators nest deeper than {_MAX_NESTING}")
    start = cur.pos
    head = cur.segment(":,")
    if head in _NAMED_WORDS:
        return _NAMED_WORDS[head]
    if head == "morphism":
        phi = _field(cur, "then rules like 0->01,1->0", _morphism)
        seed = _optional_field(cur, str.isdecimal)
        return MorphicSpec(phi, 0 if seed is None else int(seed))
    if head == "ar":
        kind = _field(cur, "then 'cycle' or 'morphic'", str)
        if kind == "cycle":
            digits = _field(cur, "then directive digits like 012",
                            _digits("directive pattern must be digits"), ":,")
            return ArCycleSpec(bytes(int(ch) for ch in digits))
        if kind == "morphic":
            phi = _field(cur, "then rules like 0->01,1->0", _morphism)
            seed = _field(cur, "then the directive seed letter",
                          _digits("seed letter must be a digit"), ":,")
            return ArMorphicSpec(phi, int(seed))
        cur.pos = start
        cur.error(f"after 'ar:' expected 'cycle' or 'morphic', got {kind!r}")
    if head == "rot":
        alpha = _field(cur, "then the angle (a+b*sqrt(D))/c", parse_quadratic)
        rho = _field(cur, "then the starting point (a+b*sqrt(D))/c",
                     parse_quadratic)
        convention = _optional_field(cur, ("left", "right").__contains__)
        return RotationSpec(alpha, rho, convention or "left")
    if head == "merge":
        digits = _field(cur, "then the digit map like 010",
                        _digits("letter map must be digits"))
        cur.eat(":", "then the inner word")
        return MergeSpec(tuple(int(ch) for ch in digits),
                         _parse_word(cur, depth + 1))
    if head == "interleave":
        letter = _field(cur, "then the fresh letter",
                        _digits("interleave letter must be a digit"))
        cur.eat(":", "then the inner word")
        return InterleaveSpec(int(letter), _parse_word(cur, depth + 1))
    cur.pos = start
    cur.error(f"unknown word form {head!r}; expected one of {_WORD_HEADS}")


def _parse_gen(cur: _Cursor, depth: int = 1) -> GenSpec:
    from .prng import NAMED_LCGS
    if depth > _MAX_NESTING:
        cur.error(f"words and generators nest deeper than {_MAX_NESTING}")
    groups = 0
    while cur.peek() == "(":        # a grouped generator is not a new level
        cur.pos += 1
        groups += 1
    start = cur.pos
    head = cur.segment(":,)")
    if head in NAMED_LCGS:
        gen = LcgSpec(*NAMED_LCGS[head])
    elif head == "lcg":
        cur.eat(":", "then parameters m=...,a=...,c=...")
        params: dict[str, int] = {}
        while True:
            key_pos = cur.pos
            key = cur.segment("=,:)")
            if cur.peek() != "=":
                cur.pos = key_pos
                cur.error(f"expected <key>=<number>, got {key!r}")
            if key not in _LCG_KEYS:
                cur.pos = key_pos
                cur.error(f"unknown lcg parameter {key!r}; have {_LCG_KEYS}")
            if key in params:
                cur.pos = key_pos
                cur.error(f"duplicate lcg parameter {key!r}")
            params[key] = _field(cur, "", lambda v: parse_number(v, where=key),
                                 ",:)", "=")
            if not _LCG_NEXT.match(cur.text, cur.pos):
                break
            cur.pos += 1
        missing = [k for k in ("m", "a", "c") if k not in params]
        if missing:
            cur.pos = start
            cur.error(f"lcg spec missing parameters {missing}")
        gen = LcgSpec(params["m"], params["a"], params["c"],
                      params.get("seed", 1))
    elif head == "shuffle":
        cur.eat(":", "then the steering word")
        word = _parse_word(cur, depth + 1)
        cur.eat(":", "then a comma separated generator list")
        gens = [_parse_gen(cur, depth + 1)]
        while cur.peek() == ",":
            cur.pos += 1
            gens.append(_parse_gen(cur, depth + 1))
        gen = ShuffleSpec(word, tuple(gens))
    else:
        cur.pos = start
        cur.error(f"unknown generator {head!r}; expected 'lcg:...', "
                  f"'shuffle:...', or one of {sorted(NAMED_LCGS)}")
    for _ in range(groups):
        cur.eat(")", "closing the grouped generator")
    return gen


def _parse_whole(text: str, parse, kind: str):
    """The tree ``parse`` reads from all of ``text``, an ASCII descriptor."""
    cur = _Cursor(text)
    spec = parse(cur)
    if cur.pos < len(text):
        cur.error(f"unexpected trailing text after {kind} descriptor")
    _ascii(text)
    return spec


def parse_word_spec(text: str) -> WordSpec:
    return _parse_whole(text, _parse_word, "word")


def parse_gen_spec(text: str) -> GenSpec:
    return _parse_whole(text, _parse_gen, "generator")


def build_word(spec: WordSpec | str) -> WordStream:
    if isinstance(spec, str):
        spec = parse_word_spec(spec)
    return spec.build()


def build_gen(spec: GenSpec | str, seed: int | None = None):
    if isinstance(spec, str):
        spec = parse_gen_spec(spec)
    return spec.build(seed)
