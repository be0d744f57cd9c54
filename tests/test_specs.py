import random

import pytest

from aprng import specs
from aprng.errors import AlphabetError, ParameterError, SpecParseError
from aprng.morphic import FIBONACCI, InterleavedStream, Morphism, fibonacci_stream
from aprng.prng import NAMED_LCGS, ShuffledPrng, named_lcg
from aprng.rotation import QuadraticIrrational
from aprng.streams import CycleStream
from aprng.specs import (FIB2_SPEC, FIB_SPEC, TRIB_SPEC, ArCycleSpec,
                         ArMorphicSpec, InterleaveSpec, LcgSpec, MergeSpec,
                         MorphicSpec, RotationSpec, ShuffleSpec, build_gen,
                         build_word, format_number, format_quadratic,
                         parse_gen_spec, parse_morphism_rules, parse_number,
                         parse_quadratic, parse_word_spec)


def test_aliases():
    assert parse_word_spec("fib") == FIB_SPEC == MorphicSpec(FIBONACCI, 0)
    assert parse_word_spec("trib") == TRIB_SPEC
    assert parse_word_spec("fib2") == FIB2_SPEC == InterleaveSpec(2, FIB_SPEC)
    assert FIB_SPEC.format() == "morphism:0->01,1->0"
    for name, (m, a, c) in NAMED_LCGS.items():
        assert parse_gen_spec(name) == LcgSpec(m, a, c)


@pytest.mark.parametrize("text,value", [
    ("2^31", 2 ** 31), ("2^47-115", 2 ** 47 - 115), ("13^13", 13 ** 13),
    ("2^10+3", 1027), ("1000000", 10 ** 6), ("1e6", 10 ** 6),
    ("0", 0), ("5e3", 5000), ("1^99999999", 1), ("2.5e1", 25),
])
def test_parse_number(text, value):
    assert parse_number(text) == value


@pytest.mark.parametrize("text", ["-5", "1.5", "abc", "1e-3", "", "2^", "^3",
                                  "\u00b2", "\u0665", "2^\u0663", "1e\u0666",
                                  "9^99999999", "2^65537", "1e99999999",
                                  "1e-99999999", "1E9_999_999", "6/2",
                                  "1_000", "+5", "1.0", "2^1-5"])
def test_parse_number_rejects(text):
    with pytest.raises(SpecParseError):
        parse_number(text)


def test_long_digit_runs_are_placed_spec_errors():
    # int() reads at most 4300 digits unless a Python setting is raised
    nines = "9" * 5000
    for parse, text, pos in ((parse_number, nines, 0),
                             (parse_number, "2^" + nines, 2),
                             (parse_gen_spec, f"lcg:m=1,a=0,c={nines}", 14)):
        with pytest.raises(SpecParseError, match="more than 4300 digits") as exc:
            parse(text)
        assert (exc.value.text, exc.value.pos) == (text, pos)


def test_format_number_round_trips():
    cases = [0, 7, 100, 255, 256, 1024, 2 ** 31, 2 ** 64, 65539, 10 ** 6,
             2 ** 65536]
    for n in cases:
        assert parse_number(format_number(n)) == n
    assert format_number(256) == "2^8"
    assert format_number(2 ** 31) == "2^31"
    assert format_number(255) == "255"
    assert format_number(128) == "128"      # short powers stay decimal


def test_quadratic_parse_format():
    golden = QuadraticIrrational(3, -1, 2, 5)
    assert parse_quadratic("(3-1*sqrt(5))/2") == golden
    assert parse_quadratic("(0)/1") == QuadraticIrrational.from_rational(0)
    # non-canonical input lands on the canonical form
    assert parse_quadratic("(6-2*sqrt(5))/4") == golden
    assert format_quadratic(golden) == "(3-1*sqrt(5))/2"
    assert format_quadratic(QuadraticIrrational.from_rational(0)) == "(0)/1"
    for text in ["sqrt(5)", "(1+sqrt(5))/2", "(1+1*sqrt(5))", "1/2", ""]:
        with pytest.raises(SpecParseError):
            parse_quadratic(text)


def test_parse_morphism_rules():
    assert parse_morphism_rules("0->01,1->0") == ["01", "0"]
    assert parse_morphism_rules("1->0,0->01") == ["01", "0"]
    # structure and coverage only; alphabet closure is the morphism's job
    assert parse_morphism_rules("0->01") == ["01"]
    for bad in ["0->01,1=0", "01->0,1->0", "0->ab,1->0",
                "0->0,0->1", "0->0,2->2"]:
        with pytest.raises(SpecParseError):
            parse_morphism_rules(bad)


CANONICAL = [
    "morphism:0->01,1->0",
    "morphism:0->01,1->0:1",
    "morphism:0->001,1->0",
    "ar:cycle:012",
    "ar:morphic:0->01,1->02,2->0:0",
    "rot:(3-1*sqrt(5))/2:(0)/1",
    "rot:(-1+1*sqrt(5))/2:(1)/3:right",
    "merge:010:morphism:0->01,1->02,2->0",
    "interleave:2:morphism:0->01,1->0",
    "lcg:m=2^31,a=65539,c=0",
    "lcg:m=1000,a=333,c=7,seed=9",
    "shuffle:morphism:0->01,1->0:lcg:m=2^31,a=65539,c=0,lcg:m=2^31,a=65539,c=0,seed=7",
    "shuffle:morphism:0->01,1->0:(shuffle:morphism:0->01,1->0:lcg:m=2^31,a=65539,c=0,lcg:m=2^31,a=65539,c=0),lcg:m=2^31,a=65539,c=0",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_canonical_strings_round_trip(text):
    if text.startswith(("lcg", "shuffle")):
        spec = parse_gen_spec(text)
        assert spec.format() == text
        assert parse_gen_spec(spec.format()) == spec
    else:
        spec = parse_word_spec(text)
        assert spec.format() == text
        assert parse_word_spec(spec.format()) == spec


@pytest.mark.parametrize("text,canonical", [
    ("fib", "morphism:0->01,1->0"),
    ("randu", "lcg:m=2^31,a=65539,c=0"),
    ("merge:010:trib", "merge:010:morphism:0->01,1->02,2->0"),
    ("lcg:a=65539,c=0,m=2^31", "lcg:m=2^31,a=65539,c=0"),
    ("lcg:m=2^31,a=65539,c=0,seed=1", "lcg:m=2^31,a=65539,c=0"),
    ("morphism:0->01,1->0:0", "morphism:0->01,1->0"),
    ("lcg:m=2147483648,a=65539,c=0", "lcg:m=2^31,a=65539,c=0"),
])
def test_shorthand_normalizes(text, canonical):
    try:
        spec = parse_gen_spec(text)
    except SpecParseError:
        spec = parse_word_spec(text)
    assert spec.format() == canonical


def rand_quadratic(rng):
    return QuadraticIrrational(rng.randint(-9, 9), rng.randint(-4, 4),
                               rng.randint(1, 9), rng.choice([2, 3, 5, 7, 10]))


def rand_morphism(rng):
    d = rng.randint(1, 3)
    images = ["".join(str(rng.randrange(d)) for _ in range(rng.randint(1, 3)))
              for _ in range(d)]
    return Morphism(images)


def rand_word(rng, depth):
    kinds = ["morphic", "cycle", "armorphic", "rot"]
    if depth > 0:
        kinds += ["merge", "interleave"]
    kind = rng.choice(kinds)
    if kind == "morphic":
        return MorphicSpec(rand_morphism(rng), rng.choice([0, 0, 1, 2, 17]))
    if kind == "cycle":
        k = rng.randint(1, 4)
        return ArCycleSpec(bytes(rng.randrange(10) for _ in range(k)))
    if kind == "armorphic":
        return ArMorphicSpec(rand_morphism(rng), rng.randint(0, 9))
    if kind == "rot":
        return RotationSpec(rand_quadratic(rng), rand_quadratic(rng),
                            rng.choice(["left", "right"]))
    inner = rand_word(rng, depth - 1)
    if kind == "merge":
        k = rng.randint(1, 3)
        return MergeSpec(tuple(rng.randrange(10) for _ in range(k)), inner)
    return InterleaveSpec(rng.randrange(10), inner)


def rand_gen(rng, depth):
    if depth > 0 and rng.random() < 0.4:
        k = rng.randint(1, 3)
        return ShuffleSpec(rand_word(rng, depth - 1),
                           tuple(rand_gen(rng, depth - 1) for _ in range(k)))
    m = rng.choice([2 ** 31, 2 ** 64, 1000, 2 ** 47 - 115, 7])
    return LcgSpec(m, rng.randrange(max(m, 2)), rng.randrange(max(m, 2)),
                   rng.choice([1, 1, 0, 9, 2 ** 20]))


def test_random_word_trees_round_trip():
    rng = random.Random(12345)
    for _ in range(1000):
        spec = rand_word(rng, 2)
        assert parse_word_spec(spec.format()) == spec


def test_random_gen_trees_round_trip():
    rng = random.Random(54321)
    for _ in range(1000):
        spec = rand_gen(rng, 2)
        assert parse_gen_spec(spec.format()) == spec


def test_nested_shuffle_shapes():
    grouped = parse_gen_spec("shuffle:fib:(shuffle:fib:randu,randu),randu")
    assert isinstance(grouped, ShuffleSpec)
    assert isinstance(grouped.gens[0], ShuffleSpec)
    assert isinstance(grouped.gens[1], LcgSpec)
    # a bare nested shuffle greedily takes the rest of the list
    bare = parse_gen_spec("shuffle:fib:randu,shuffle:fib:randu,randu")
    assert isinstance(bare.gens[0], LcgSpec)
    assert isinstance(bare.gens[1], ShuffleSpec)
    assert len(bare.gens[1].gens) == 2
    assert parse_gen_spec("(randu)") == parse_gen_spec("randu")


def test_parse_gen_list():
    # the generator list of a shuffle, as the shuffle subcommand joins it
    gens = parse_gen_spec("shuffle:fib:randu,randu").gens
    assert len(gens) == 2 and gens[0] == gens[1]
    mixed = parse_gen_spec("shuffle:fib:randu,shuffle:fib:randu,randu").gens
    assert len(mixed) == 2 and isinstance(mixed[1], ShuffleSpec)
    flat = parse_gen_spec("shuffle:fib:(shuffle:fib:randu,randu),randu").gens
    assert len(flat) == 2 and isinstance(flat[0], ShuffleSpec)
    with pytest.raises(SpecParseError):
        parse_gen_spec("shuffle:fib:randu,")
    with pytest.raises(SpecParseError):
        parse_gen_spec("shuffle:fib:")


@pytest.mark.parametrize("text,fragment", [
    ("nope", "unknown word form"),
    ("fib:extra", "trailing"),
    ("morphism:0->01", "outside alphabet"),
    ("ar:wat:0", "'cycle' or 'morphic'"),
    ("ar:cycle:abc", "must be digits"),
    ("rot:(1/2:(0)/1", "expected (a+b*sqrt(D))/c"),
    ("merge:xy:fib", "must be digits"),
    # other scripts' digits, which int() reads, are placed at the first one
    ("ar:cycle:\u0660\u0661", "non-ASCII character '\u0660' (at char 9 "),
    ("rot:(\u0663-1*sqrt(5))/2:(0)/1", "non-ASCII character '\u0663' (at char 5 "),
    ("morphism:\u0660->\u0660\u0661,\u0661->\u0660",
     "non-ASCII character '\u0660' (at char 9 "),
    ("merge:010:interleave:\u0662:fib",
     "non-ASCII character '\u0662' (at char 21 "),
])
def test_word_parse_diagnostics(text, fragment):
    with pytest.raises(SpecParseError) as exc:
        parse_word_spec(text)
    assert fragment in str(exc.value)
    assert "(at char" in str(exc.value)


@pytest.mark.parametrize("rules", ["0->01,1-0", "0->01", "0->01,1->", "x"])
def test_rule_errors_point_into_both_morphic_forms(rules):
    # an error in the rules alone, placed at the rules' offset in the
    # descriptor
    with pytest.raises(ValueError) as alone:
        Morphism(parse_morphism_rules(rules))
    message = getattr(alone.value, "message", str(alone.value))
    offset = getattr(alone.value, "pos", None) or 0
    for head, tail in (("morphism:", ""), ("ar:morphic:", ":0")):
        with pytest.raises(SpecParseError) as exc:
            parse_word_spec(head + rules + tail)
        assert (exc.value.message, exc.value.pos) == (message,
                                                      len(head) + offset)


@pytest.mark.parametrize("text,pos", [("rot:(1/2:(0)/1", 4),
                                      ("rot:(3-1*sqrt(5))/2:(0)/x", 20),
                                      ("lcg:m=ten,a=3,c=0", 6),
                                      ("lcg:m=2^31,a=\u0663,c=0", 13),
                                      ("lcg:m=9^99999999,a=3,c=0", 8),
                                      ("shuffle:interleave:\u0662:fib:randu",
                                       19)])
def test_segment_errors_quote_the_whole_descriptor(text, pos):
    parse = (parse_gen_spec if text.startswith(("lcg", "shuffle"))
             else parse_word_spec)
    with pytest.raises(SpecParseError) as exc:
        parse(text)
    assert (exc.value.text, exc.value.pos) == (text, pos)


def test_nesting_is_bounded():
    limit = specs._MAX_NESTING
    merge = "merge:01:" * (limit - 1) + "fib"
    assert parse_word_spec(merge).format().count("merge") == limit - 1
    with pytest.raises(SpecParseError) as exc:
        parse_word_spec("merge:01:" + merge)
    assert exc.value.pos == len("merge:01:" * limit)
    shuffle = "randu"
    for _ in range(limit - 1):
        shuffle = f"shuffle:fib:({shuffle}),randu"
    assert parse_gen_spec(shuffle).format().count("shuffle") == limit - 1
    with pytest.raises(SpecParseError):
        parse_gen_spec(f"shuffle:fib:({shuffle}),randu")
    # grouping parentheses add no level, and no recursion
    deep = "(" * 2000 + "randu" + ")" * 2000
    assert parse_gen_spec(deep) == parse_gen_spec("randu")


def test_same_rules_share_one_expansion():
    # Morphism compares and hashes by its images, so the expansion memo
    # serves every parse of the same rules
    a = build_word("morphism:0->01,1->10")
    b = build_word("morphism:0->01,1->10")
    c = build_word("morphism:0->01,1->20,2->1")
    assert a._x is b._x
    assert c._x is not a._x


@pytest.mark.parametrize("text,fragment", [
    ("mystery", "unknown generator"),
    ("randu:junk", "trailing"),
    ("lcg:m=10,a=3", "missing parameters"),
    ("lcg:m=10,a=3,x=1", "missing parameters"),
    ("lcg:x=1", "unknown lcg parameter"),
    ("lcg:m=4,m=8,a=1,c=0", "duplicate"),
    ("lcg:m=ten,a=3,c=0", "expected a number"),
    ("shuffle:fib:(randu", "closing"),
])
def test_gen_parse_diagnostics(text, fragment):
    with pytest.raises(SpecParseError) as exc:
        parse_gen_spec(text)
    assert fragment in str(exc.value)


def test_build_time_rejections():
    with pytest.raises(ValueError):
        build_word("morphism:0->10,1->0")          # not prolongable
    with pytest.raises(AlphabetError):
        build_word("ar:morphic:0->1,1->0:5")       # seed outside alphabet
    with pytest.raises(AlphabetError):
        build_word("merge:0:fib")                  # map shorter than alphabet
    with pytest.raises(AlphabetError):
        build_word("merge:02:fib")                 # map not surjective
    with pytest.raises(ValueError):
        build_word("rot:(1)/2:(0)/1")              # rational slope
    with pytest.raises(ParameterError):
        build_gen("lcg:m=10,a=11,c=0")             # multiplier out of range
    with pytest.raises(AlphabetError):
        build_gen("shuffle:fib:randu")             # arity mismatch
    with pytest.raises(ParameterError):
        build_gen("shuffle:fib:randu,l64_39")      # output ranges differ


def test_build_word_streams():
    assert bytes(build_word("fib").take(32)) == bytes(fibonacci_stream().take(32))
    rot = build_word("rot:(3-1*sqrt(5))/2:(3-1*sqrt(5))/2")
    assert bytes(rot.take(10 ** 4)) == bytes(fibonacci_stream().take(10 ** 4))
    arc = build_word("ar:cycle:01")
    assert bytes(arc.take(10 ** 4)) == bytes(fibonacci_stream().take(10 ** 4))
    fib2 = build_word("fib2")
    direct = InterleavedStream(fibonacci_stream(), 2)
    assert bytes(fib2.take(4000)) == bytes(direct.take(4000))


def test_build_gen_and_seed_override():
    assert build_gen("randu").outputs(4).tolist() == [65539, 393225, 1769499, 7077969]
    g = build_gen("lcg:m=2^31,a=65539,c=0,seed=9")
    assert g.state == 9
    g2 = build_gen("lcg:m=2^31,a=65539,c=0,seed=9", seed=5)
    assert g2.state == 5
    z = build_gen("shuffle:fib:randu,lcg:m=2^31,a=65539,c=0,seed=7")
    assert isinstance(z, ShuffledPrng)
    manual = ShuffledPrng(fibonacci_stream(),
                          [named_lcg("randu", 1), named_lcg("randu", 7)])
    assert z.outputs(1000).tolist() == manual.outputs(1000).tolist()
    z3 = build_gen("shuffle:fib:randu,lcg:m=2^31,a=65539,c=0,seed=7", seed=3)
    assert all(src.state == 3 for src in z3.sources)



SKIP_WORDS = ["fib", "trib", "rot:(3-1*sqrt(5))/2:(0)/1", "ar:cycle:012",
              "merge:010:trib", "fib2", "cycle"]


def make_skip_word(text):
    if text == "cycle":
        return CycleStream(b"\x00\x01\x01\x02\x00")
    return build_word(text)


@pytest.fixture(scope="module")
def skip_prefixes():
    return {}


@pytest.mark.parametrize("text", SKIP_WORDS)
@pytest.mark.parametrize("n", [0, 1, 4097, 10 ** 6])
def test_skip_equals_seek(text, n, skip_prefixes):
    # skipping n letters after a take is a forward seek from the cursor
    if text not in skip_prefixes:
        skip_prefixes[text] = bytes(make_skip_word(text).take(10 ** 6 + 67))
    ref = skip_prefixes[text]
    for start in (0, 3):
        skipped, sought = make_skip_word(text), make_skip_word(text)
        skipped.take(start)
        skipped.seek(start + n)
        sought.seek(start + n)
        assert skipped.position == start + n
        assert bytes(skipped.take(64)) == bytes(sought.take(64)) \
            == ref[start + n:start + n + 64]
    # a seek only moves the position: forward past a take, back, and twice
    # to one place
    lazy = make_skip_word(text)
    lazy.take(3)
    lazy.seek(n + 67)
    lazy.seek(n)
    lazy.seek(n)
    assert bytes(lazy.take(64)) == ref[n:n + 64]
    with pytest.raises(ValueError):
        skipped.seek(-1)
