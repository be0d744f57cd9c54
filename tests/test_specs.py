import random
import subprocess
import sys

import pytest

from aprng import specs
from aprng.errors import AlphabetError, ParameterError, SpecParseError
from aprng.morphic import (FIBONACCI, TRIBONACCI, InterleavedStream, Morphism,
                           fibonacci_stream)
from aprng.prng import NAMED_LCGS, ShuffledPrng, named_lcg
from aprng.rotation import QuadraticIrrational
from aprng.streams import CycleStream
from aprng.specs import (FIB2_SPEC, FIB_SPEC, TRIB_SPEC, ArCycleSpec,
                         ArMorphicSpec, InterleaveSpec, LcgSpec, MergeSpec,
                         MorphicSpec, RotationSpec, ShuffleSpec, build_gen,
                         build_word, parse_gen_spec, parse_morphism_rules,
                         parse_number, parse_quadratic, parse_word_spec)


def test_aliases():
    assert parse_word_spec("fib") == FIB_SPEC == MorphicSpec(FIBONACCI, 0)
    assert parse_word_spec("trib") == TRIB_SPEC
    assert parse_word_spec("fib2") == FIB2_SPEC == InterleaveSpec(2, FIB_SPEC)
    for name, (m, a, c) in NAMED_LCGS.items():
        assert parse_gen_spec(name) == LcgSpec(m, a, c)


@pytest.mark.parametrize("text,value", [
    ("2^31", 2 ** 31), ("2^47-115", 2 ** 47 - 115), ("13^13", 13 ** 13),
    ("2^10+3", 1027), ("1000000", 10 ** 6), ("1e6", 10 ** 6),
    ("0", 0), ("5e3", 5000), ("1^99999999", 1), ("2.5e1", 25),
    ("2^8", 256), ("255", 255), ("2^64", 2 ** 64), ("65539", 65539),
    # the largest power the bit cap lets through
    pytest.param("2^65536", 2 ** 65536, id="2^65536"),
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


def test_quadratic_parse_format():
    golden = QuadraticIrrational(3, -1, 2, 5)
    assert parse_quadratic("(3-1*sqrt(5))/2") == golden
    assert parse_quadratic("(0)/1") == QuadraticIrrational(0, 0, 1, 1)
    # non-canonical input lands on the canonical form
    assert parse_quadratic("(6-2*sqrt(5))/4") == golden
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


RANDU = LcgSpec(2 ** 31, 65539, 0)
GOLDEN = QuadraticIrrational(3, -1, 2, 5)

# each canonical spelling, with the tree it parses to
CANONICAL = {
    "morphism:0->01,1->0": MorphicSpec(FIBONACCI, 0),
    "morphism:0->01,1->0:1": MorphicSpec(FIBONACCI, 1),
    "morphism:0->001,1->0": MorphicSpec(Morphism(["001", "0"]), 0),
    "ar:cycle:012": ArCycleSpec(b"\x00\x01\x02"),
    "ar:morphic:0->01,1->02,2->0:0": ArMorphicSpec(TRIBONACCI, 0),
    "rot:(3-1*sqrt(5))/2:(0)/1": RotationSpec(
        GOLDEN, QuadraticIrrational(0, 0, 1, 1), "left"),
    "rot:(-1+1*sqrt(5))/2:(1)/3:right": RotationSpec(
        QuadraticIrrational(-1, 1, 2, 5), QuadraticIrrational(1, 0, 3, 1),
        "right"),
    "merge:010:morphism:0->01,1->02,2->0": MergeSpec(
        (0, 1, 0), MorphicSpec(TRIBONACCI, 0)),
    "interleave:2:morphism:0->01,1->0": InterleaveSpec(
        2, MorphicSpec(FIBONACCI, 0)),
    "lcg:m=2^31,a=65539,c=0": RANDU,
    "lcg:m=1000,a=333,c=7,seed=9": LcgSpec(1000, 333, 7, 9),
    "shuffle:morphism:0->01,1->0:lcg:m=2^31,a=65539,c=0,lcg:m=2^31,a=65539,c=0,seed=7":
        ShuffleSpec(MorphicSpec(FIBONACCI, 0),
                    (RANDU, LcgSpec(2 ** 31, 65539, 0, 7))),
    "shuffle:morphism:0->01,1->0:(shuffle:morphism:0->01,1->0:lcg:m=2^31,a=65539,c=0,lcg:m=2^31,a=65539,c=0),lcg:m=2^31,a=65539,c=0":
        ShuffleSpec(MorphicSpec(FIBONACCI, 0),
                    (ShuffleSpec(MorphicSpec(FIBONACCI, 0), (RANDU, RANDU)),
                     RANDU)),
}


def parse_either(text):
    if text.startswith(("lcg", "shuffle", "randu")):
        return parse_gen_spec(text)
    return parse_word_spec(text)


@pytest.mark.parametrize("text", CANONICAL)
def test_canonical_strings_round_trip(text):
    assert parse_either(text) == CANONICAL[text]


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
    assert parse_either(text) == parse_either(canonical)


# Random trees, each with a spelling of its own: rules in any order, and
# optional parts (a seed letter 0, a left convention, an lcg seed 1, the
# parentheses of a nested shuffle that ends its list) written or left out.

def rand_quadratic(rng):
    p, q, r = rng.randint(-9, 9), rng.randint(-4, 4), rng.randint(1, 9)
    D = rng.choice([2, 3, 5, 7, 10])
    text = (f"({p})/{r}" if q == 0 and rng.random() < 0.5
            else f"({p}{q:+d}*sqrt({D}))/{r}")
    return QuadraticIrrational(p, q, r, D), text


def rand_morphism(rng):
    d = rng.randint(1, 3)
    images = ["".join(str(rng.randrange(d)) for _ in range(rng.randint(1, 3)))
              for _ in range(d)]
    rules = [f"{a}->{im}" for a, im in enumerate(images)]
    rng.shuffle(rules)
    return Morphism(images), ",".join(rules)


def optional(rng, text, default):
    """``text`` after a colon, or nothing when it is the default and a coin
    says so."""
    return "" if text == default and rng.random() < 0.5 else f":{text}"


def rand_word(rng, depth):
    kinds = ["morphic", "cycle", "armorphic", "rot", "named"]
    if depth > 0:
        kinds += ["merge", "interleave"]
    kind = rng.choice(kinds)
    if kind == "morphic":
        (phi, rules), seed = rand_morphism(rng), rng.choice([0, 0, 1, 2, 17])
        return (MorphicSpec(phi, seed),
                f"morphism:{rules}" + optional(rng, str(seed), "0"))
    if kind == "cycle":
        k = rng.randint(1, 4)
        pattern = bytes(rng.randrange(10) for _ in range(k))
        return ArCycleSpec(pattern), "ar:cycle:" + "".join(map(str, pattern))
    if kind == "armorphic":
        (phi, rules), seed = rand_morphism(rng), rng.randint(0, 9)
        return ArMorphicSpec(phi, seed), f"ar:morphic:{rules}:{seed}"
    if kind == "rot":
        (alpha, a), (rho, r) = rand_quadratic(rng), rand_quadratic(rng)
        convention = rng.choice(["left", "right"])
        return (RotationSpec(alpha, rho, convention),
                f"rot:{a}:{r}" + optional(rng, convention, "left"))
    if kind == "named":
        return rng.choice([(FIB_SPEC, "fib"), (TRIB_SPEC, "trib"),
                           (FIB2_SPEC, "fib2")])
    inner, text = rand_word(rng, depth - 1)
    if kind == "merge":
        mapping = tuple(rng.randrange(10) for _ in range(rng.randint(1, 3)))
        return (MergeSpec(mapping, inner),
                f"merge:{''.join(map(str, mapping))}:{text}")
    letter = rng.randrange(10)
    return InterleaveSpec(letter, inner), f"interleave:{letter}:{text}"


def rand_gen(rng, depth):
    if depth > 0 and rng.random() < 0.4:
        word, text = rand_word(rng, depth - 1)
        gens = [rand_gen(rng, depth - 1) for _ in range(rng.randint(1, 3))]
        parts = [f"({t})" if isinstance(g, ShuffleSpec)
                 and (i < len(gens) - 1 or rng.random() < 0.5) else t
                 for i, (g, t) in enumerate(gens)]
        return (ShuffleSpec(word, tuple(g for g, _ in gens)),
                f"shuffle:{text}:" + ",".join(parts))
    m, m_text = rng.choice([(2 ** 31, "2^31"), (2 ** 64, "2^64"), (1000, "1e3"),
                            (2 ** 47 - 115, "2^47-115"), (7, "7")])
    a, c = rng.randrange(m), rng.randrange(m)
    seed = rng.choice([1, 1, 0, 9, 2 ** 20])
    params = [f"m={m_text}", f"a={a}", f"c={c}"]
    if seed != 1 or rng.random() < 0.5:
        params.append(f"seed={seed}")
    rng.shuffle(params)
    return LcgSpec(m, a, c, seed), "lcg:" + ",".join(params)


def test_random_word_trees_round_trip():
    rng = random.Random(12345)
    for _ in range(1000):
        spec, text = rand_word(rng, 2)
        assert parse_word_spec(text) == spec, text


def test_random_gen_trees_round_trip():
    rng = random.Random(54321)
    for _ in range(1000):
        spec, text = rand_gen(rng, 2)
        assert parse_gen_spec(text) == spec, text


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


def nesting(spec, inner):
    """How many merges or shuffles lie one inside another from ``spec``."""
    depth = 0
    while isinstance(spec, (MergeSpec, ShuffleSpec)):
        spec, depth = inner(spec), depth + 1
    return depth


def test_nesting_is_bounded():
    limit = specs._MAX_NESTING
    merge = "merge:01:" * (limit - 1) + "fib"
    assert nesting(parse_word_spec(merge), lambda w: w.inner) == limit - 1
    with pytest.raises(SpecParseError) as exc:
        parse_word_spec("merge:01:" + merge)
    assert exc.value.pos == len("merge:01:" * limit)
    shuffle = "randu"
    for _ in range(limit - 1):
        shuffle = f"shuffle:fib:({shuffle}),randu"
    assert nesting(parse_gen_spec(shuffle), lambda g: g.gens[0]) == limit - 1
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


def test_annotations_resolve_under_type_checking():
    # specs loads prng and rotation lazily; the names its annotations use come
    # from a TYPE_CHECKING block, which type checkers and doc tools enter
    code = ("import importlib, typing\n"
            "from aprng import prng, rotation, specs\n"
            "typing.TYPE_CHECKING = True\n"
            "specs = importlib.reload(specs)\n"
            "for name in specs.__all__:\n"
            "    obj = getattr(specs, name)\n"
            "    typing.get_type_hints(obj)\n"
            "    if isinstance(obj, type):\n"
            "        typing.get_type_hints(obj.build)\n"
            "hints = typing.get_type_hints(specs.RotationSpec)\n"
            "assert hints['alpha'] is rotation.QuadraticIrrational\n"
            "assert typing.get_type_hints(specs.LcgSpec.build)['return'] is prng.Lcg\n"
            "assert typing.get_type_hints(specs.ShuffleSpec.build)['return'] \\\n"
            "    is prng.ShuffledPrng\n")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


SKIP_WORDS = ["fib", "trib", "rot:(3-1*sqrt(5))/2:(0)/1", "ar:cycle:012",
              "merge:010:trib", "fib2", "cycle"]


def make_skip_word(text):
    if text == "cycle":
        return CycleStream(b"\x00\x01\x01\x02\x00")
    return build_word(text)


@pytest.mark.parametrize("text", SKIP_WORDS + ["ar:cycle:01",
                                  "ar:morphic:0->01,1->02,2->0:0"])
def test_prefix_parikh_rejects_negative_lengths(text):
    with pytest.raises(ValueError, match="n must be >= 0"):
        make_skip_word(text).prefix_parikh(-1)


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
