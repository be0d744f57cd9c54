"""Finite-word primitives: letter normalization, text rendering, Parikh vectors.

Letters are integers 0..d-1 with d <= 16.  Finite words travel as ``bytes``
(one letter per byte); large materialized prefixes live in a PrefixBuffer,
which wraps a numpy uint8 array and answers Parikh-of-prefix queries.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import AlphabetError, InsufficientPrefixError

MAX_ALPHABET = 16
_STRIDE = 1024          # letters between a PrefixBuffer's Parikh checkpoints

_BYTES = bytes(range(256))
_DIGITS = bytes.maketrans(_BYTES[:10], b"0123456789")


def as_word(w, alphabet_size: int | None = None) -> bytes:
    """Normalize ``w`` to bytes of letters.

    Accepts bytes/bytearray, a string of ASCII digits, a numpy uint8 array,
    or any iterable of ints.  Letters are validated against ``alphabet_size``
    when given, and against MAX_ALPHABET always.
    """
    if isinstance(w, bytes):
        out = w
    elif isinstance(w, (bytearray, memoryview)):
        out = bytes(w)
    elif isinstance(w, str):
        try:
            if not w.isascii():     # int() also reads other scripts' digits
                raise ValueError(w)
            out = bytes(int(ch) for ch in w)
        except ValueError:
            raise AlphabetError(f"non-digit letter in word string {w!r}") from None
    elif isinstance(w, np.ndarray):
        out = w.astype(np.uint8, copy=False).tobytes()
    elif isinstance(w, Iterable):
        out = bytes(w)
    else:
        raise TypeError(f"cannot interpret {type(w).__name__} as a word")
    cap = MAX_ALPHABET if alphabet_size is None else alphabet_size
    if out.translate(None, _BYTES[:max(cap, 0)]):      # a byte >= cap is left
        raise AlphabetError(f"letter {max(out)} outside alphabet of size {cap}")
    return out


def word_to_text(w) -> str:
    """Render a word as ASCII digits (alphabet size <= 10 only)."""
    return as_word(w, 10).translate(_DIGITS).decode("ascii")


def _letters_of(p) -> np.ndarray:
    if isinstance(p, PrefixBuffer):
        return p.letters
    if isinstance(p, np.ndarray):
        return p.astype(np.uint8, copy=False)
    return np.frombuffer(as_word(p), dtype=np.uint8)


def parikh(w, alphabet_size: int) -> tuple[int, ...]:
    """Occurrence count of every letter 0..d-1 in ``w``."""
    if not 1 <= alphabet_size <= MAX_ALPHABET:
        raise AlphabetError(f"alphabet size {alphabet_size} not in 1..{MAX_ALPHABET}")
    arr = _letters_of(w)
    if arr.size == 0:
        return (0,) * alphabet_size
    counts = np.bincount(arr, minlength=alphabet_size)
    if len(counts) > alphabet_size:
        bad = int(np.max(arr))
        raise AlphabetError(f"letter {bad} outside alphabet of size {alphabet_size}")
    return tuple(int(c) for c in counts)


class PrefixBuffer:
    """Immutable materialized prefix of an infinite word.

    Keeps a cumulative Parikh checkpoint every _STRIDE letters so a
    Parikh-of-prefix query costs one rescan of at most _STRIDE letters.
    """

    def __init__(self, letters, alphabet_size: int, source: str = ""):
        arr = _letters_of(letters)
        if arr.size and int(arr.max()) >= alphabet_size:
            raise AlphabetError(
                f"letter {int(arr.max())} outside alphabet of size {alphabet_size}")
        if not 1 <= alphabet_size <= MAX_ALPHABET:
            raise AlphabetError(f"alphabet size {alphabet_size} not in 1..{MAX_ALPHABET}")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.setflags(write=False)
        self.letters = arr
        self.alphabet_size = alphabet_size
        self.source = source
        self._checkpoints = self._build_checkpoints()

    def _build_checkpoints(self) -> np.ndarray:
        n, s, d = self.letters.size, _STRIDE, self.alphabet_size
        nblocks = n // s
        table = np.zeros((d, nblocks + 1), dtype=np.int64)
        if nblocks:
            trunc = self.letters[:nblocks * s].reshape(nblocks, s)
            for a in range(d):
                np.cumsum((trunc == a).sum(axis=1), out=table[a, 1:])
        return table

    def __len__(self) -> int:
        return int(self.letters.size)

    def parikh_of_prefix(self, n: int) -> tuple[int, ...]:
        """Parikh vector of the first n letters."""
        if not 0 <= n <= len(self):
            raise InsufficientPrefixError(f"prefix length {n} outside 0..{len(self)}")
        block = n // _STRIDE
        base = self._checkpoints[:, block].copy()
        tail = self.letters[block * _STRIDE:n]
        if tail.size:
            base += np.bincount(tail, minlength=self.alphabet_size)
        return tuple(int(c) for c in base)

    def __repr__(self) -> str:
        src = f" source={self.source!r}" if self.source else ""
        return f"<PrefixBuffer {len(self)} letters d={self.alphabet_size}{src}>"
