"""Text descriptors for words and generators.

One small grammar covers both command-line arguments and config
strings.  A descriptor parses into a frozen dataclass tree, formats
back to a canonical string (``parse(format(spec)) == spec``), and
builds the live stream or generator on demand.

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

Numbers accept ``2^31``, ``2^47-115``, ``13^13``, plain decimal, and
integral scientific notation like ``1e6``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SpecParseError
from .morphic import (FIBONACCI, TRIBONACCI, FixedPointStream,
                      InterleavedStream, MergedStream, Morphism)
from .arnoux_rauzy import ArnouxRauzyStream
from .prng import NAMED_LCGS, Lcg, ShuffledPrng
from .rotation import QuadraticIrrational, RotationCoding, RotationStream
from .streams import CycleStream, WordStream
from .words import word_to_text

__all__ = [
    "WordSpec", "MorphicSpec", "ArCycleSpec", "ArMorphicSpec",
    "RotationSpec", "MergeSpec", "InterleaveSpec",
    "GenSpec", "LcgSpec", "ShuffleSpec",
    "parse_word_spec", "parse_gen_spec",
    "build_word", "build_gen",
    "parse_morphism_rules", "parse_number", "format_number",
    "parse_quadratic", "format_quadratic",
]


# --------------------------------------------------------------------------
# numbers

_POWER = re.compile(r"(\d+)\^(\d+)([+-]\d+)?\Z")


def parse_number(text: str, *, where: str = "", pos: int | None = None) -> int:
    """Nonnegative integer from ``2^31``, ``2^47-115``, ``1e6``, or decimal."""
    s = text.strip()
    m = _POWER.match(s)
    if m:
        base, exp, off = int(m.group(1)), int(m.group(2)), m.group(3)
        return base ** exp + (int(off) if off else 0)
    if s.isdigit():
        return int(s)
    try:
        v = Fraction(s)
    except (ValueError, ZeroDivisionError):
        v = None
    if v is not None and v.denominator == 1 and v >= 0:
        return int(v)
    raise SpecParseError(
        f"expected a number (like 1000000, 2^31, 2^47-115, or 1e6)"
        f"{' for ' + where if where else ''}, got {text!r}",
        text, pos)


def format_number(n: int) -> str:
    """Decimal, except exact powers of two from 2^8 up print as ``2^k``."""
    if n >= 256 and n & (n - 1) == 0:
        return f"2^{n.bit_length() - 1}"
    return str(n)


# --------------------------------------------------------------------------
# quadratic irrationals: (p+q*sqrt(D))/r

_QI_FULL = re.compile(r"\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(\d+)\Z")
_QI_RATIONAL = re.compile(r"\((-?\d+)\)/(\d+)\Z")


def parse_quadratic(text: str, *, pos: int | None = None) -> QuadraticIrrational:
    s = text.strip()
    m = _QI_FULL.match(s)
    if m:
        return QuadraticIrrational(int(m.group(1)), int(m.group(2)),
                                   int(m.group(4)), int(m.group(3)))
    m = _QI_RATIONAL.match(s)
    if m:
        return QuadraticIrrational.from_rational(Fraction(int(m.group(1)),
                                                          int(m.group(2))))
    raise SpecParseError(
        f"expected (a+b*sqrt(D))/c or (a)/c, got {text!r}", text, pos)


def format_quadratic(x: QuadraticIrrational) -> str:
    if x.q == 0:
        return f"({x.p})/{x.r}"
    return f"({x.p}{x.q:+d}*sqrt({x.D}))/{x.r}"


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
        if not (lhs.isdigit() and len(lhs) == 1):
            raise SpecParseError(
                f"rule left side must be a single digit letter, got {lhs!r}",
                text, offset)
        if not rhs.isdigit():
            raise SpecParseError(
                f"image for letter {lhs} must be digits, got {rhs!r}",
                text, offset + len(lhs) + 2)
        a = int(lhs)
        if a in images:
            raise SpecParseError(f"duplicate rule for letter {a}", text, offset)
        images[a] = rhs
        offset += len(chunk) + 1
    d = len(images)
    missing = [a for a in range(d) if a not in images]
    if missing:
        raise SpecParseError(
            f"rules cover letters {sorted(images)} but must be exactly 0..{d - 1}",
            text)
    return [images[a] for a in range(d)]


# --------------------------------------------------------------------------
# descriptor trees

class WordSpec:
    """Base for word descriptors."""

    def format(self) -> str:
        raise NotImplementedError

    def build(self) -> WordStream:
        raise NotImplementedError


@dataclass(frozen=True)
class MorphicSpec(WordSpec):
    morphism: Morphism
    seed: int = 0

    def format(self) -> str:
        base = f"morphism:{self.morphism.to_text()}"
        return base if self.seed == 0 else f"{base}:{self.seed}"

    def build(self) -> WordStream:
        return FixedPointStream(self.morphism, self.seed)


@dataclass(frozen=True)
class ArCycleSpec(WordSpec):
    pattern: bytes

    def format(self) -> str:
        return f"ar:cycle:{word_to_text(self.pattern)}"

    def build(self) -> WordStream:
        return ArnouxRauzyStream(CycleStream(self.pattern))


@dataclass(frozen=True)
class ArMorphicSpec(WordSpec):
    morphism: Morphism
    seed: int

    def format(self) -> str:
        return f"ar:morphic:{self.morphism.to_text()}:{self.seed}"

    def build(self) -> WordStream:
        return ArnouxRauzyStream(FixedPointStream(self.morphism, self.seed))


@dataclass(frozen=True)
class RotationSpec(WordSpec):
    alpha: QuadraticIrrational
    rho: QuadraticIrrational
    convention: str = "left"

    def format(self) -> str:
        base = f"rot:{format_quadratic(self.alpha)}:{format_quadratic(self.rho)}"
        return base if self.convention == "left" else f"{base}:{self.convention}"

    def build(self) -> WordStream:
        return RotationStream(RotationCoding(self.alpha, self.rho,
                                             self.convention))


@dataclass(frozen=True)
class MergeSpec(WordSpec):
    mapping: tuple[int, ...]
    inner: WordSpec

    def format(self) -> str:
        digits = "".join(str(v) for v in self.mapping)
        return f"merge:{digits}:{self.inner.format()}"

    def build(self) -> WordStream:
        return MergedStream(self.inner.build(), self.mapping)


@dataclass(frozen=True)
class InterleaveSpec(WordSpec):
    letter: int
    inner: WordSpec

    def format(self) -> str:
        return f"interleave:{self.letter}:{self.inner.format()}"

    def build(self) -> WordStream:
        return InterleavedStream(self.inner.build(), self.letter)


class GenSpec:
    """Base for generator descriptors."""

    def format(self) -> str:
        raise NotImplementedError

    def build(self, seed: int | None = None):
        raise NotImplementedError


@dataclass(frozen=True)
class LcgSpec(GenSpec):
    m: int
    a: int
    c: int
    seed: int = 1

    def format(self) -> str:
        base = (f"lcg:m={format_number(self.m)},a={format_number(self.a)},"
                f"c={format_number(self.c)}")
        return base if self.seed == 1 else f"{base},seed={format_number(self.seed)}"

    def build(self, seed=None) -> Lcg:
        return Lcg(self.m, self.a, self.c,
                   self.seed if seed is None else seed)


@dataclass(frozen=True)
class ShuffleSpec(GenSpec):
    word: WordSpec
    gens: tuple[GenSpec, ...] = field(default_factory=tuple)

    def format(self) -> str:
        # A bare nested shuffle would swallow the rest of the list, so
        # inner shuffles are parenthesized.
        parts = (f"({g.format()})" if isinstance(g, ShuffleSpec) else g.format()
                 for g in self.gens)
        return f"shuffle:{self.word.format()}:" + ",".join(parts)

    def build(self, seed=None) -> ShuffledPrng:
        return ShuffledPrng(self.word.build(),
                            [g.build(seed) for g in self.gens])


FIB_SPEC = MorphicSpec(FIBONACCI, 0)
TRIB_SPEC = MorphicSpec(TRIBONACCI, 0)
FIB2_SPEC = InterleaveSpec(2, FIB_SPEC)

_WORD_HEADS = ("fib2", "fib", "trib", "morphism", "ar", "rot",
               "merge", "interleave")
_LCG_KEYS = ("m", "a", "c", "seed")


# --------------------------------------------------------------------------
# cursor-based recursive descent

class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

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


def _parse_word(cur: _Cursor) -> WordSpec:
    start = cur.pos
    head = cur.segment(":,")
    if head == "fib":
        return FIB_SPEC
    if head == "trib":
        return TRIB_SPEC
    if head == "fib2":
        return FIB2_SPEC
    if head == "morphism":
        phi = _parse_rules(cur)
        seed = _optional_segment(cur, str.isdigit)
        return MorphicSpec(phi, 0 if seed is None else int(seed))
    if head == "ar":
        cur.eat(":", "then 'cycle' or 'morphic'")
        kind = cur.segment(":")
        if kind == "cycle":
            cur.eat(":", "then directive digits like 012")
            pat_pos = cur.pos
            digits = cur.segment(":,")
            if not digits.isdigit():
                cur.pos = pat_pos
                cur.error(f"directive pattern must be digits, got {digits!r}")
            return ArCycleSpec(bytes(int(ch) for ch in digits))
        if kind == "morphic":
            phi = _parse_rules(cur)
            cur.eat(":", "then the directive seed letter")
            seed_pos = cur.pos
            seed = cur.segment(":,")
            if not seed.isdigit():
                cur.pos = seed_pos
                cur.error(f"seed letter must be a digit, got {seed!r}")
            return ArMorphicSpec(phi, int(seed))
        cur.pos = start
        cur.error(f"after 'ar:' expected 'cycle' or 'morphic', got {kind!r}")
    if head == "rot":
        cur.eat(":", "then the angle (a+b*sqrt(D))/c")
        a_pos = cur.pos
        alpha = parse_quadratic(cur.segment(":"), pos=a_pos)
        cur.eat(":", "then the starting point (a+b*sqrt(D))/c")
        r_pos = cur.pos
        rho = parse_quadratic(cur.segment(":"), pos=r_pos)
        convention = _optional_segment(cur, ("left", "right").__contains__)
        return RotationSpec(alpha, rho, convention or "left")
    if head == "merge":
        cur.eat(":", "then the digit map like 010")
        map_pos = cur.pos
        digits = cur.segment(":")
        if not digits.isdigit():
            cur.pos = map_pos
            cur.error(f"letter map must be digits, got {digits!r}")
        cur.eat(":", "then the inner word")
        return MergeSpec(tuple(int(ch) for ch in digits), _parse_word(cur))
    if head == "interleave":
        cur.eat(":", "then the fresh letter")
        n_pos = cur.pos
        letter = cur.segment(":")
        if not letter.isdigit():
            cur.pos = n_pos
            cur.error(f"interleave letter must be a digit, got {letter!r}")
        cur.eat(":", "then the inner word")
        return InterleaveSpec(int(letter), _parse_word(cur))
    cur.pos = start
    cur.error(f"unknown word form {head!r}; expected one of {_WORD_HEADS}")


def _parse_rules(cur: _Cursor) -> Morphism:
    """':' then morphism rules up to the next ':', with errors placed in
    the whole descriptor."""
    cur.eat(":", "then rules like 0->01,1->0")
    rule_pos = cur.pos
    rules = cur.segment(":")
    try:
        return Morphism(parse_morphism_rules(rules))
    except SpecParseError as e:
        raise SpecParseError(e.message, cur.text,
                             rule_pos + (e.pos or 0)) from None
    except ValueError as e:
        raise SpecParseError(str(e), cur.text, rule_pos) from None


def _optional_segment(cur: _Cursor, accept) -> str | None:
    """Consume ``:<segment>`` if present and ``accept(segment)``; otherwise
    leave the cursor alone."""
    if cur.peek() != ":":
        return None
    save = cur.pos
    cur.pos += 1
    seg = cur.segment(":,")
    if accept(seg):
        return seg
    cur.pos = save
    return None


def _parse_gen(cur: _Cursor) -> GenSpec:
    if cur.peek() == "(":
        cur.pos += 1
        inner = _parse_gen(cur)
        cur.eat(")", "closing the grouped generator")
        return inner
    start = cur.pos
    head = cur.segment(":,)")
    if head in NAMED_LCGS:
        m, a, c = NAMED_LCGS[head]
        return LcgSpec(m, a, c)
    if head == "lcg":
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
            cur.pos += 1
            val_pos = cur.pos
            params[key] = parse_number(cur.segment(",:)"),
                                       where=key, pos=val_pos)
            if cur.peek() != ",":
                break
            save = cur.pos
            cur.pos += 1
            probe_pos = cur.pos
            probe = cur.segment("=,:)")
            is_kv = cur.peek() == "=" and probe in _LCG_KEYS
            cur.pos = probe_pos
            if not is_kv:
                cur.pos = save
                break
        missing = [k for k in ("m", "a", "c") if k not in params]
        if missing:
            cur.pos = start
            cur.error(f"lcg spec missing parameters {missing}")
        return LcgSpec(params["m"], params["a"], params["c"],
                       params.get("seed", 1))
    if head == "shuffle":
        cur.eat(":", "then the steering word")
        word = _parse_word(cur)
        cur.eat(":", "then a comma separated generator list")
        gens = [_parse_gen(cur)]
        while cur.peek() == ",":
            cur.pos += 1
            gens.append(_parse_gen(cur))
        return ShuffleSpec(word, tuple(gens))
    cur.pos = start
    cur.error(f"unknown generator {head!r}; expected 'lcg:...', "
              f"'shuffle:...', or one of {sorted(NAMED_LCGS)}")


def parse_word_spec(text: str) -> WordSpec:
    cur = _Cursor(text)
    spec = _parse_word(cur)
    if not cur.at_end():
        cur.error("unexpected trailing text after word descriptor")
    return spec


def parse_gen_spec(text: str) -> GenSpec:
    cur = _Cursor(text)
    spec = _parse_gen(cur)
    if not cur.at_end():
        cur.error("unexpected trailing text after generator descriptor")
    return spec


def build_word(spec: WordSpec | str) -> WordStream:
    if isinstance(spec, str):
        spec = parse_word_spec(spec)
    return spec.build()


def build_gen(spec: GenSpec | str, seed: int | None = None):
    if isinstance(spec, str):
        spec = parse_gen_spec(spec)
    return spec.build(seed)
