"""Aperiodic words and word-steered pseudorandom number generation.

``import aprng`` loads no submodule: the first use of a name below imports
the one submodule that defines it (PEP 562), so a command that streams a
word never compiles the analysis modules.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_HOMES = {
    "errors": (
        "AlphabetError", "DirectiveError", "FieldMismatchError",
        "InsufficientDataError", "ParameterError", "SpecParseError",
    ),
    "words": ("MAX_ALPHABET", "PrefixBuffer", "as_word", "parikh",
              "word_to_text"),
    "streams": ("CycleStream", "WordStream"),
    "morphic": (
        "FIBONACCI", "THUE_MORSE", "TRIBONACCI", "FixedPointStream",
        "InterleavedStream", "MergedStream", "Morphism", "fibonacci_stream",
        "iterate_fixed_point", "naive_stream",
    ),
    "arnoux_rauzy": ("ArnouxRauzyStream", "iterated_palindromic_closure",
                     "palindromic_closure"),
    "rotation": ("QuadraticIrrational", "RotationCoding", "RotationStream",
                 "fibonacci_rotation", "rotation_letter"),
    "welldoc": ("WelldocQuery", "WelldocReport", "welldoc_check",
                "welldoc_scan"),
    "prng": ("NAMED_LCGS", "Lcg", "ShuffledPrng", "named_lcg",
             "stream_export"),
    "lattice": ("LatticeReport", "candidate_normals", "consecutive_tuples",
                "full_lattice_class_count", "plane_count", "search_normals"),
    "stats": ("LowBitsSource", "StatsReport", "chi_square_equidist", "gap_test",
              "serial_pairs"),
    "specs": ("GenSpec", "WordSpec", "build_gen", "build_word",
              "parse_gen_spec", "parse_word_spec"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value         # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
