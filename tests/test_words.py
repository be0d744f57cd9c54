import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aprng.errors import AlphabetError
from aprng.morphic import Morphism
from aprng.streams import CycleStream
from aprng.welldoc import WelldocQuery
from aprng.words import MAX_ALPHABET, PrefixBuffer, as_word, parikh, word_to_text

FIB_PREFIX = "01001010010010100101001001010010"

words = st.lists(st.integers(0, 3), min_size=0, max_size=60).map(bytes)


def test_as_word_accepts_text_bytes_and_iterables():
    assert as_word("0102") == bytes([0, 1, 0, 2])
    assert as_word(b"\x00\x01") == b"\x00\x01"
    assert as_word([1, 0, 1]) == bytes([1, 0, 1])
    assert as_word(np.array([2, 0], dtype=np.uint8)) == bytes([2, 0])
    assert as_word("") == b""


def test_as_word_validates_range():
    with pytest.raises(AlphabetError):
        as_word([0, 5], alphabet_size=2)
    with pytest.raises(AlphabetError):
        as_word([MAX_ALPHABET])
    with pytest.raises(AlphabetError):
        as_word("3x")
    with pytest.raises(AlphabetError):      # int() reads an Arabic-Indic one
        as_word("0\u0661")
    with pytest.raises(AlphabetError):      # not bytes()'s untyped ValueError
        as_word([256])
    with pytest.raises(AlphabetError):
        parikh([0, -1], 2)


def test_word_to_text_round_trip():
    assert word_to_text(bytes([0, 1, 0, 0, 1])) == "01001"
    assert as_word(word_to_text(bytes([9, 0]))) == bytes([9, 0])
    with pytest.raises(AlphabetError):
        word_to_text(bytes([10]))


def test_parikh_known_values():
    assert parikh("01001", 2) == (3, 2)
    assert parikh("", 3) == (0, 0, 0)
    assert parikh(FIB_PREFIX, 2) == (20, 12)


@given(words)
def test_parikh_matches_count(w):
    vec = parikh(w, 4)
    assert vec == tuple(w.count(bytes([a])) for a in range(4))
    assert sum(vec) == len(w)


def test_prefix_buffer_copies_the_letters():
    a = np.zeros(8, dtype=np.uint8)
    buf = PrefixBuffer(a, 2)
    a[0] = 1                                # the caller's array stays writable
    assert not buf.letters.any() and len(buf) == 8
    b = np.zeros(8192, dtype=np.uint8)
    buf = PrefixBuffer(b[:], 2)
    b[:] = 1
    assert not buf.letters.any() and not buf.letters.flags.writeable


def test_prefix_buffer_validates_letters():
    with pytest.raises(AlphabetError):
        PrefixBuffer(bytes([0, 3]), 3)
    with pytest.raises(AlphabetError):
        PrefixBuffer(b"", 0)


INT_DTYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"]


@st.composite
def letter_arrays(draw):
    """(d, array): 1-D arrays of every integer dtype holding letters of 0..d-1
    and -1, d, 255, 256 or 257 where the dtype can hold them, plus float
    arrays and 2-D arrays."""
    d = draw(st.integers(1, MAX_ALPHABET))
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES + ["float64"])))
    bad = [-1, d, 255, 256, 257, 0.5]
    if dtype.kind != "f":
        info = np.iinfo(dtype)
        bad = [v for v in bad[:5] if info.min <= v <= info.max]
    values = draw(st.lists(st.integers(0, d - 1) | st.sampled_from(bad), max_size=8))
    arr = np.array(values, dtype=dtype)
    return d, np.stack([arr, arr]) if draw(st.booleans()) else arr


@given(letter_arrays())
@settings(max_examples=300, deadline=None)
def test_every_intake_rejects_or_keeps_the_exact_letters(case):
    d, arr = case
    exact = arr.ndim == 1 and arr.dtype.kind in "iu"
    empty = arr.ndim == 1 and arr.size == 0

    def check(cap, call, expect=lambda w: w):
        if empty or exact and ((arr >= 0) & (arr < cap)).all():
            assert call() == expect(bytes(int(v) for v in arr))
        else:
            with pytest.raises(AlphabetError):
                call()

    check(d, lambda: as_word(arr, d))
    check(MAX_ALPHABET, lambda: as_word(arr))
    check(10, lambda: word_to_text(arr), lambda w: "".join(str(a) for a in w))
    check(d, lambda: parikh(arr, d), lambda w: tuple(w.count(a) for a in range(d)))
    check(d, lambda: PrefixBuffer(arr, d).letters.tobytes())
    if not empty:           # an empty pattern, image or factor fails for its length
        check(d, lambda: CycleStream(arr, d).pattern)
        check(d, lambda: Morphism([arr] + [[0]] * (d - 1)).images[0])
        check(d, lambda: WelldocQuery(CycleStream(bytes(range(d))), arr, 2).factor)
