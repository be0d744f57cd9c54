"""Finite-word primitives: letter normalization, text rendering, Parikh vectors.

Letters are integers 0..d-1 with 1 <= d <= 16.  Every letter enters the
package through one check, ``_letters``, which tests the range before any
cast; alphabet sizes go through ``_alphabet_size``.  Finite words travel as
``bytes`` (one letter per byte); a materialized prefix lives in a
PrefixBuffer, a read-only copy of the letters as a numpy uint8 array, and
``parikh(buf.letters[:n], d)`` counts the letters of its first n.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import AlphabetError

MAX_ALPHABET = 16

_BYTES = bytes(range(256))
_FROM_DIGITS = bytes.maketrans(b"0123456789", _BYTES[:10])


def _alphabet_size(d: int) -> int:
    if not 1 <= d <= MAX_ALPHABET:
        raise AlphabetError(f"alphabet size {d} not in 1..{MAX_ALPHABET}")
    return d


def _letters(w, alphabet_size: int | None = None) -> np.ndarray:
    """``w`` as a 1-D uint8 array of letters below ``alphabet_size``
    (MAX_ALPHABET when None).  The range is checked before the cast, so no
    value wraps into another letter; a uint8 array comes back as a view."""
    cap = MAX_ALPHABET if alphabet_size is None else _alphabet_size(alphabet_size)
    if isinstance(w, np.ndarray):
        if w.ndim != 1 or (w.size and w.dtype.kind not in "iu"):
            raise AlphabetError(f"letters must be a 1-D integer array, got {w.ndim}-D {w.dtype}")
        lo, hi = (w.min(), w.max()) if w.size else (0, 0)
        if lo < 0 or hi >= cap:
            raise AlphabetError(f"letter {lo if lo < 0 else hi} outside alphabet of size {cap}")
        return w.astype(np.uint8, copy=False)
    if isinstance(w, str):
        if w and not (w.isascii() and w.isdigit()):     # isdigit() takes other scripts
            raise AlphabetError(f"non-digit letter in word string {w!r}")
        w = w.encode().translate(_FROM_DIGITS)
    elif not isinstance(w, (bytes, bytearray)):
        if not isinstance(w, Iterable):
            raise TypeError(f"cannot interpret {type(w).__name__} as a word")
        try:
            w = bytes(w)
        except (TypeError, ValueError) as e:
            raise AlphabetError(f"letters must be ints in 0..{cap - 1}: {e}") from None
    if w.translate(None, _BYTES[:cap]):                 # a byte >= cap is left
        raise AlphabetError(f"letter {max(w)} outside alphabet of size {cap}")
    return np.frombuffer(w, np.uint8)


def as_word(w, alphabet_size: int | None = None) -> bytes:
    """Normalize ``w`` to bytes of letters.

    Accepts bytes/bytearray, a string of ASCII digits, a 1-D numpy integer
    array, or any iterable of ints.  Letters are validated against
    ``alphabet_size`` when given, and against MAX_ALPHABET otherwise.
    """
    return _letters(w, alphabet_size).tobytes()


def word_to_text(w) -> str:
    """Render a word as ASCII digits (alphabet size <= 10 only)."""
    return (_letters(w, 10) + ord("0")).tobytes().decode("ascii")


def parikh(w, alphabet_size: int) -> tuple[int, ...]:
    """Occurrence count of every letter 0..d-1 in ``w``."""
    counts = np.bincount(_letters(w, alphabet_size), minlength=alphabet_size)
    return tuple(counts.tolist())


class PrefixBuffer:
    """Immutable materialized prefix of an infinite word: a read-only copy
    of the letters, so later writes to the caller's array cannot reach it."""

    def __init__(self, letters, alphabet_size: int, source: str = ""):
        arr = np.array(_letters(letters, alphabet_size))
        arr.setflags(write=False)
        self.letters = arr
        self.alphabet_size = alphabet_size
        self.source = source

    def __len__(self) -> int:
        return int(self.letters.size)

    def __repr__(self) -> str:
        src = f" source={self.source!r}" if self.source else ""
        return f"<PrefixBuffer {len(self)} letters d={self.alphabet_size}{src}>"
