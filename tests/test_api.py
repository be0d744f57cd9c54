import importlib
import pathlib
import re
import types

import aprng

# Every top-level name, so that adding or removing one is a deliberate diff.
PUBLIC_NAMES = [
    "AlphabetError", "ArnouxRauzyStream", "CycleStream", "DirectiveError",
    "FIBONACCI", "FieldMismatchError", "FixedPointStream", "GenSpec",
    "InsufficientDataError", "InterleavedStream", "LatticeReport", "Lcg",
    "LowBitsSource", "MAX_ALPHABET", "MergedStream", "Morphism", "NAMED_LCGS",
    "ParameterError", "PrefixBuffer", "QuadraticIrrational", "RotationCoding",
    "RotationStream", "ShuffledPrng", "SpecParseError", "StatsReport",
    "THUE_MORSE", "TRIBONACCI", "WelldocQuery", "WelldocReport", "WordSpec",
    "WordStream", "as_word", "build_gen", "build_word", "candidate_normals",
    "chi_square_equidist", "consecutive_tuples", "fibonacci_rotation",
    "fibonacci_stream", "full_lattice_class_count", "gap_test",
    "iterate_fixed_point", "iterated_palindromic_closure", "naive_stream",
    "named_lcg", "palindromic_closure", "parikh", "parse_gen_spec",
    "parse_word_spec", "plane_count", "rotation_letter", "search_normals",
    "serial_pairs", "stream_export", "welldoc_check", "welldoc_scan",
    "word_to_text",
]


# The library submodules; a name's home is the one that defines it.
SUBMODULES = ["errors", "words", "streams", "morphic", "arnoux_rauzy",
              "rotation", "welldoc", "prng", "lattice", "stats", "specs"]


def test_public_api_is_pinned():
    # names load on first use, so they are listed by dir(), not vars(); the
    # only public modules are aprng's own submodules, bound once imported
    public = [name for name in dir(aprng) if not name.startswith("_")]
    bound = [n for n in public
             if isinstance(getattr(aprng, n), types.ModuleType)]
    assert all(getattr(aprng, n).__name__ == f"aprng.{n}" for n in bound)
    assert sorted(set(public) - set(bound)) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 57
    # each name is the very object of every submodule that holds it
    modules = [importlib.import_module(f"aprng.{m}") for m in SUBMODULES]
    for name in PUBLIC_NAMES:
        held = [vars(m)[name] for m in modules if name in vars(m)]
        assert held and all(v is getattr(aprng, name) for v in held), name
    star: dict = {}
    exec("from aprng import *", star)
    assert sorted(set(star) - {"__builtins__"}) == PUBLIC_NAMES


def test_only_the_cli_opens_files():
    # library writers take an open file; the command line owns the paths
    package = pathlib.Path(aprng.__file__).parent
    openers = sorted(p.name for p in package.glob("*.py")
                     if "open(" in p.read_text())
    assert openers == ["cli.py"]


def test_only_the_cli_imports_specs():
    # descriptor text flows one way: the spec layer parses and builds from
    # the modules below it, and none of them reaches back up to it
    package = pathlib.Path(aprng.__file__).parent
    importers = sorted(
        p.name for p in package.glob("*.py")
        if re.search(r"from \.specs import|from \. import .*\bspecs\b"
                     r"|import aprng\.specs", p.read_text()))
    assert importers == ["cli.py"]


def test_word_stream_protocol_is_pinned():
    # a stream is a position: seek moves it, and no repositioning hook exists
    assert aprng.WordStream.__abstractmethods__ == {
        "_produce", "fork", "_prefix_parikh"}


def test_quadratic_irrational_is_a_value_without_arithmetic():
    # rotation codings floor integer terms themselves; the number type only
    # holds, compares and floors a value, so arithmetic shows up here
    assert sorted(vars(aprng.QuadraticIrrational)) == [
        "D", "__doc__", "__eq__", "__float__", "__floor__", "__hash__",
        "__init__", "__module__", "__repr__", "__slots__", "frac",
        "is_rational", "p", "q", "r"]


def test_no_module_imports_fractions():
    package = pathlib.Path(aprng.__file__).parent
    importers = sorted(
        p.name for p in package.glob("*.py")
        if re.search(r"^\s*(from fractions import|import fractions)",
                     p.read_text(), re.M))
    assert importers == []
