"""Aperiodic words and word-steered pseudorandom number generation."""

__version__ = "0.1.0"

from .errors import (
    AlphabetError,
    DirectiveError,
    FieldMismatchError,
    InsufficientDataError,
    InsufficientPrefixError,
    ParameterError,
    SpecParseError,
)
from .words import (
    MAX_ALPHABET,
    PrefixBuffer,
    as_word,
    parikh,
    word_to_text,
)
from .streams import CycleStream, WordStream
from .morphic import (
    FIBONACCI,
    THUE_MORSE,
    TRIBONACCI,
    FixedPointStream,
    InterleavedStream,
    MergedStream,
    Morphism,
    fibonacci_stream,
    iterate_fixed_point,
    naive_stream,
    tribonacci_stream,
)
from .arnoux_rauzy import (
    ArnouxRauzyStream,
    iterated_palindromic_closure,
    palindromic_closure,
)
from .rotation import (
    QuadraticIrrational,
    RotationCoding,
    RotationStream,
    fibonacci_rotation,
    rotation_letter,
)
from .welldoc import (
    PreservationCertificate,
    WelldocQuery,
    WelldocReport,
    preserves_welldoc,
    welldoc_check,
    welldoc_scan,
)
from .prng import (
    NAMED_LCGS,
    Lcg,
    ShuffledPrng,
    named_lcg,
    stream_export,
)
from .lattice import (
    LatticeReport,
    candidate_normals,
    consecutive_tuples,
    full_lattice_class_count,
    plane_count,
    search_normals,
)
from .stats import (
    ConstantSource,
    LowBitsSource,
    RandomSource,
    StatsReport,
    chi_square_equidist,
    gap_test,
    serial_pairs,
)
from .specs import (
    GenSpec,
    WordSpec,
    build_gen,
    build_word,
    parse_gen_spec,
    parse_word_spec,
)
