"""Finite-word primitives: Parikh vectors, occurrences, special factors.

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

Word = bytes

_BYTES = bytes(range(256))
_DIGITS = bytes.maketrans(_BYTES[:10], b"0123456789")


def as_word(w, alphabet_size: int | None = None) -> bytes:
    """Normalize ``w`` to bytes of letters.

    Accepts bytes/bytearray, a string of decimal digits, a numpy uint8 array,
    or any iterable of ints.  Letters are validated against ``alphabet_size``
    when given, and against MAX_ALPHABET always.
    """
    if isinstance(w, bytes):
        out = w
    elif isinstance(w, (bytearray, memoryview)):
        out = bytes(w)
    elif isinstance(w, str):
        try:
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


def _bytes_of(p) -> bytes:
    if isinstance(p, PrefixBuffer):
        return p.tobytes()
    if isinstance(p, np.ndarray):
        return p.astype(np.uint8, copy=False).tobytes()
    return as_word(p)


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


def occurrences(w, p) -> np.ndarray:
    """Ascending start indices of every (possibly overlapping) occurrence of w in p."""
    wb = as_word(w)
    if not wb:
        raise ValueError("factor must be nonempty")
    data = _bytes_of(p)
    hits = []
    i = data.find(wb)
    while i != -1:
        hits.append(i)
        i = data.find(wb, i + 1)
    return np.array(hits, dtype=np.int64)


def _window_codes(arr: np.ndarray, length: int, d: int) -> np.ndarray | None:
    """Base-d integer codes of all length-``length`` windows, or None if codes
    would not fit in 64 bits."""
    if length * max(d - 1, 1).bit_length() > 63:
        return None
    n = arr.size - length + 1
    codes = arr[:n].astype(np.uint64)
    du = np.uint64(d)
    for j in range(1, length):
        codes = codes * du + arr[j:n + j]
    return codes


def _decode(code: int, length: int, d: int) -> bytes:
    out = bytearray(length)
    for j in range(length - 1, -1, -1):
        out[j] = code % d
        code //= d
    return bytes(out)


def right_special_factors(p, length: int) -> list[tuple[bytes, set[int]]]:
    """Length-``length`` factors of p with at least two distinct right extensions.

    Returns (factor, set-of-extending-letters) pairs sorted by factor.  Only
    extensions witnessed inside p count, so the result is a certificate, not
    a statement about the infinite word p was cut from.
    """
    arr = _letters_of(p)
    if length < 0:
        raise ValueError("length must be >= 0")
    if length >= arr.size:
        raise InsufficientPrefixError(
            f"need a prefix longer than {length}, have {arr.size} letters")
    d = int(arr.max()) + 1 if arr.size else 1
    ext: dict[bytes, set[int]] = {}
    codes = _window_codes(arr, length + 1, d)
    if codes is not None:
        du = np.uint64(d)
        for code in np.unique(codes):
            w = _decode(int(code) // d, length, d)
            ext.setdefault(w, set()).add(int(code % du))
    else:
        data = arr.tobytes()
        for i in range(arr.size - length):
            ext.setdefault(data[i:i + length], set()).add(data[i + length])
    return sorted((w, s) for w, s in ext.items() if len(s) >= 2)


def factor_complexity(p, n: int) -> int:
    """Number of distinct length-n factors of p."""
    arr = _letters_of(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    if n > arr.size:
        raise InsufficientPrefixError(
            f"need a prefix of at least {n} letters, have {arr.size}")
    d = int(arr.max()) + 1
    codes = _window_codes(arr, n, d)
    if codes is not None:
        return int(np.unique(codes).size)
    data = arr.tobytes()
    return len({data[i:i + n] for i in range(arr.size - n + 1)})


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
        self._bytes: bytes | None = None

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

    def tobytes(self) -> bytes:
        if self._bytes is None:
            self._bytes = self.letters.tobytes()
        return self._bytes

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
