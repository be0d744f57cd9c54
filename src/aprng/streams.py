"""Uniform interface over infinite words.

A WordStream yields letters of a fixed infinite word over 0..d-1.  A stream
is a position: seek() only moves it, and concrete streams produce the block
of letters that starts there and give exact Parikh vectors of prefixes; the
base class provides seeking, single-letter reads and prefix materialization.
Streams are single-cursor objects: fork() hands out an independent stream of
the same word positioned at 0.
"""
from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import AlphabetError
from .words import MAX_ALPHABET, PrefixBuffer, as_word


class WordStream(ABC):
    def __init__(self, alphabet_size: int):
        if not 1 <= alphabet_size <= MAX_ALPHABET:
            raise AlphabetError(f"alphabet size {alphabet_size} not in 1..{MAX_ALPHABET}")
        self._d = alphabet_size
        self._pos = 0

    @property
    def alphabet_size(self) -> int:
        return self._d

    @property
    def position(self) -> int:
        """Index of the next letter this stream will emit."""
        return self._pos

    @abstractmethod
    def _produce(self, n: int) -> np.ndarray:
        """Letters position .. position+n-1 as a uint8 array."""

    @abstractmethod
    def fork(self) -> "WordStream":
        """Independent stream of the same word, positioned at 0."""

    def take(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return np.empty(0, dtype=np.uint8)
        out = self._produce(n)
        self._pos += n
        return out

    def seek(self, pos: int) -> None:
        if pos < 0:
            raise ValueError("position must be >= 0")
        self._pos = pos

    def letter_at(self, pos: int) -> int:
        """Letter u_pos; leaves the stream positioned to emit u_{pos+1}."""
        self.seek(pos)
        return int(self.take(1)[0])

    def prefix(self, n: int) -> PrefixBuffer:
        """Materialize the first n letters without disturbing this cursor."""
        return PrefixBuffer(self.fork().take(n), self._d, source=repr(self))

    @abstractmethod
    def prefix_parikh(self, n: int) -> tuple[int, ...]:
        """Exact Parikh vector of the first n letters."""


class CycleStream(WordStream):
    """Periodic repetition of a finite pattern (directives, test words)."""

    def __init__(self, pattern, alphabet_size: int | None = None):
        pat = as_word(pattern, alphabet_size)
        if not pat:
            raise ValueError("pattern must be nonempty")
        d = alphabet_size if alphabet_size is not None else max(pat) + 1
        super().__init__(d)
        self._pat = np.frombuffer(pat, dtype=np.uint8)
        self.pattern = pat

    def _produce(self, n: int) -> np.ndarray:
        L = self._pat.size
        start = self._pos % L
        reps = (start + n + L - 1) // L
        return np.tile(self._pat, reps)[start:start + n]

    def fork(self) -> "CycleStream":
        return CycleStream(self.pattern, self._d)

    def prefix_parikh(self, n: int) -> tuple[int, ...]:
        L = self._pat.size
        full, rem = divmod(n, L)
        counts = np.bincount(self._pat, minlength=self._d).astype(object) * full
        if rem:
            counts += np.bincount(self._pat[:rem], minlength=self._d)
        return tuple(int(c) for c in counts)

    def __repr__(self) -> str:
        return f"CycleStream({self.pattern!r})"
