import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aprng.errors import AlphabetError, InsufficientPrefixError
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


def test_prefix_buffer_parikh_checkpoints():
    rng = np.random.default_rng(5)
    letters = rng.integers(0, 3, size=10000, dtype=np.uint8)
    buf = PrefixBuffer(letters, 3)
    for n in [0, 1, 1023, 1024, 1025, 5000, 9999, 10000]:
        expect = tuple(int(c) for c in np.bincount(letters[:n], minlength=3))
        assert buf.parikh_of_prefix(n) == expect
    with pytest.raises(InsufficientPrefixError):
        buf.parikh_of_prefix(10001)


def test_prefix_buffer_copies_the_letters():
    a = np.zeros(8, dtype=np.uint8)
    buf = PrefixBuffer(a, 2)
    a[0] = 1                                # the caller's array stays writable
    assert buf.parikh_of_prefix(8) == (8, 0)
    b = np.zeros(8192, dtype=np.uint8)
    buf = PrefixBuffer(b[:], 2)
    b[:] = 1
    for n in (4096, 4100, 8192):
        assert buf.parikh_of_prefix(n) == (n, 0)
    assert not buf.letters.any() and not buf.letters.flags.writeable


def test_prefix_buffer_validates_letters():
    with pytest.raises(AlphabetError):
        PrefixBuffer(bytes([0, 3]), 3)
    with pytest.raises(AlphabetError):
        PrefixBuffer(b"", 0)
