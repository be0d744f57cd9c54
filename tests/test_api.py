import pathlib
import types

import aprng

# Every top-level name, so that adding or removing one is a deliberate diff.
PUBLIC_NAMES = [
    "AlphabetError", "ArnouxRauzyStream", "ConstantSource", "CycleStream",
    "DirectiveError", "FIBONACCI", "FieldMismatchError", "FixedPointStream",
    "GenSpec", "InsufficientDataError", "InsufficientPrefixError",
    "InterleavedStream", "LatticeReport", "Lcg", "LowBitsSource",
    "MAX_ALPHABET", "MergedStream", "Morphism", "NAMED_LCGS", "ParameterError",
    "PrefixBuffer", "PreservationCertificate", "QuadraticIrrational",
    "RandomSource", "RotationCoding", "RotationStream", "ShuffledPrng",
    "SpecParseError", "StatsReport", "THUE_MORSE", "TRIBONACCI",
    "WelldocQuery", "WelldocReport", "WordSpec", "WordStream", "as_word",
    "build_gen", "build_word", "candidate_normals", "chi_square_equidist",
    "consecutive_tuples", "fibonacci_rotation", "fibonacci_stream",
    "full_lattice_class_count", "gap_test", "iterate_fixed_point",
    "iterated_palindromic_closure", "naive_stream", "named_lcg",
    "palindromic_closure", "parikh", "parse_gen_spec", "parse_word_spec",
    "plane_count", "preserves_welldoc", "rotation_letter", "search_normals",
    "serial_pairs", "stream_export", "tribonacci_stream", "welldoc_check",
    "welldoc_scan", "word_to_text",
]


def test_public_api_is_pinned():
    names = sorted(name for name, value in vars(aprng).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 63


def test_only_the_cli_opens_files():
    # library writers take an open file; the command line owns the paths
    package = pathlib.Path(aprng.__file__).parent
    openers = sorted(p.name for p in package.glob("*.py")
                     if "open(" in p.read_text())
    assert openers == ["cli.py"]


def test_word_stream_protocol_is_pinned():
    # a stream is a position: seek moves it, and no repositioning hook exists
    assert aprng.WordStream.__abstractmethods__ == {
        "_produce", "fork", "_prefix_parikh"}
