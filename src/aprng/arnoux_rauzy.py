"""Palindromic closure and Arnoux-Rauzy words.

The right palindromic closure of v is the shortest palindrome having v as a
prefix: writing v = w.p with p the longest palindromic suffix, the closure is
w.p.reverse(w).  Iterating closure over a directive sequence delta (every
letter occurring infinitely often) builds the characteristic Arnoux-Rauzy
word; its bispecial prefixes b_i obey a cheap recurrence that extends the
word by resuffixing itself, which is what the stream implementation uses:

    b_{i+1} = b_i . delta_i . b_i                 if delta_i not in b_i
    b_{i+1} = b_i . b_i[len(b_j):]                otherwise,
                                                  j = last earlier step with
                                                  delta_j = delta_i

Each step at least roughly doubles the known prefix, so reaching position N
takes O(log N) steps; only a bounded head of the word is materialized and
deeper letters are resolved by mapping intervals back through the recurrence.
A prefix Parikh vector costs d adds per step plus one lookup in the head's
Parikh checkpoints, which rescans at most one checkpoint stride of letters.
"""
from __future__ import annotations

import numpy as np

from .errors import DirectiveError
from .streams import WordStream
from .words import PrefixBuffer, as_word

DIRECTIVE_CHECK_HORIZON = 1000


def _longest_palindromic_suffix_start(v: bytes) -> int:
    """Smallest s such that v[s:] is a palindrome."""
    n = len(v)
    if n < 64:
        for s in range(n):
            seg = v[s:]
            if seg == seg[::-1]:
                return s
        return n
    # Rolling uint64 hashes make each candidate an O(1) check; a hash hit is
    # confirmed by direct comparison, so collisions cannot leak through.
    with np.errstate(over="ignore"):
        arr = np.frombuffer(v, dtype=np.uint8).astype(np.uint64)
        base = np.uint64(0x100000001B3)
        pw = np.ones(n + 1, dtype=np.uint64)
        pw[1:] = base
        np.cumprod(pw, out=pw)
        fwd = np.zeros(n + 1, dtype=np.uint64)      # sum v[j] * pw[n-1-j], j < i
        np.cumsum(arr * pw[n - 1::-1], out=fwd[1:])
        rev = np.zeros(n + 1, dtype=np.uint64)      # sum v[j] * pw[j], j < i
        np.cumsum(arr * pw[:n], out=rev[1:])
        full_f, full_r = fwd[n], rev[n]
        for s in range(n):
            if (full_f - fwd[s]) * pw[s] == full_r - rev[s]:
                seg = v[s:]
                if seg == seg[::-1]:
                    return s
    return n


def palindromic_closure(v) -> bytes:
    """Shortest palindrome with prefix v."""
    vb = as_word(v)
    s = _longest_palindromic_suffix_start(vb)
    return vb + vb[:s][::-1]


def iterated_palindromic_closure(delta) -> bytes:
    """psi(delta): closure of epsilon extended letter by letter (definitional)."""
    db = as_word(delta)
    w = b""
    for a in db:
        w = palindromic_closure(w + bytes([a]))
    return w


class BispecialChain:
    """Materialized b_0 = epsilon, b_1, ... with Parikh vectors.

    Meant for moderate scales where the actual words are wanted; the stream
    below keeps only lengths and Parikh vectors once the words outgrow its
    buffer.
    """

    def __init__(self, alphabet_size: int):
        self.alphabet_size = alphabet_size
        self.words: list[bytes] = [b""]
        self.parikh_vectors: list[tuple[int, ...]] = [(0,) * alphabet_size]
        self.last_occurrence: dict[int, int] = {}

    @property
    def steps(self) -> int:
        return len(self.words) - 1


def next_bispecial(chain: BispecialChain, letter: int) -> bytes:
    """Apply one directive letter; returns and records b_{i+1}."""
    if not 0 <= letter < chain.alphabet_size:
        raise DirectiveError(
            f"directive letter {letter} outside alphabet of size {chain.alphabet_size}")
    i = chain.steps
    b = chain.words[-1]
    vec = list(chain.parikh_vectors[-1])
    if letter not in b:
        new = b + bytes([letter]) + b
        vec = [2 * c for c in vec]
        vec[letter] += 1
    else:
        j = chain.last_occurrence[letter]
        bj = chain.words[j]
        new = b + b[len(bj):]
        vec = [2 * c - cj for c, cj in zip(vec, chain.parikh_vectors[j])]
    chain.words.append(new)
    chain.parikh_vectors.append(tuple(vec))
    chain.last_occurrence[letter] = i
    return new


class ArnouxRauzyStream(WordStream):
    """Characteristic Arnoux-Rauzy word driven by a directive stream.

    Validation is heuristic by necessity: only the first
    ``check_horizon`` directive letters are inspected for the
    every-letter-appears promise.
    """

    def __init__(self, directive: WordStream, check_horizon: int = DIRECTIVE_CHECK_HORIZON,
                 materialize_cap: int = 1 << 22):
        d = directive.alphabet_size
        super().__init__(d)
        if d < 2:
            raise DirectiveError("Arnoux-Rauzy words need an alphabet of size >= 2")
        seen = np.bincount(directive.fork().take(check_horizon), minlength=d)
        if (seen == 0).any():
            missing = [a for a in range(d) if seen[a] == 0]
            raise DirectiveError(
                f"letters {missing} do not appear in the first {check_horizon} "
                f"directive letters")
        self._dir_source = directive
        self._dir = directive.fork()
        self._check_horizon = check_horizon
        self._cap = materialize_cap
        self._buf = bytearray()
        self._head = PrefixBuffer(b"", d)
        self._L: list[int] = [0]
        self._steps: list[tuple[bool, int, int]] = []   # (is_new, letter, j)
        self._P: list[tuple[int, ...]] = [(0,) * d]
        self._last: dict[int, int] = {}
        self._present: set[int] = set()

    # -- chain growth ---------------------------------------------------

    def _extend_chain(self) -> None:
        letter = int(self._dir.take(1)[0])
        i = len(self._steps)
        L_i = self._L[-1]
        vec = list(self._P[-1])
        if letter not in self._present:
            self._steps.append((True, letter, -1))
            self._L.append(2 * L_i + 1)
            vec = [2 * c for c in vec]
            vec[letter] += 1
            appended = (bytes([letter]) + bytes(self._buf[:L_i])) if self._materialized(i) else None
        else:
            j = self._last[letter]
            Lj = self._L[j]
            self._steps.append((False, letter, j))
            self._L.append(2 * L_i - Lj)
            vec = [2 * c - cj for c, cj in zip(vec, self._P[j])]
            appended = bytes(self._buf[Lj:L_i]) if self._materialized(i) else None
        self._P.append(tuple(vec))
        self._last[letter] = i
        self._present.add(letter)
        if appended is not None and self._L[-1] <= self._cap:
            self._buf.extend(appended)

    def _materialized(self, upto_step: int) -> bool:
        return len(self._buf) == self._L[upto_step]

    def _grow_to(self, target: int) -> None:
        # lengths grow strictly (2L+1, or 2L-L_j with L_j < L), so this ends
        while self._L[-1] < target:
            self._extend_chain()

    # -- interval resolution --------------------------------------------

    def _materialized_head(self) -> PrefixBuffer:
        """The materialized prefix with its Parikh checkpoints, rebuilt once
        per growth of the buffer (growth is geometric and stops at the cap)."""
        if len(self._head) != len(self._buf):
            self._head = PrefixBuffer(
                np.frombuffer(bytes(self._buf), dtype=np.uint8), self._d)
        return self._head

    def _emit(self, i: int, lo: int, hi: int, sink: list) -> None:
        """Append the letters b_i[lo:hi] to sink as arrays."""
        while True:
            if hi <= lo:
                return
            if self._L[i] <= len(self._buf):
                sink.append(self._materialized_head().letters[lo:hi])
                return
            is_new, letter, j = self._steps[i - 1]
            Lp = self._L[i - 1]
            if hi <= Lp:
                i -= 1
                continue
            if lo < Lp:
                self._emit(i - 1, lo, Lp, sink)
                lo = Lp
            if is_new:
                if lo == Lp:
                    sink.append(np.full(1, letter, dtype=np.uint8))
                    lo += 1
                    if lo == hi:
                        return
                lo, hi = lo - Lp - 1, hi - Lp - 1
            else:
                shift = Lp - self._L[j]
                lo, hi = lo - shift, hi - shift
            i -= 1

    def _produce(self, n: int) -> np.ndarray:
        start, end = self._pos, self._pos + n
        self._grow_to(end)
        sink: list = []
        self._emit(len(self._L) - 1, start, end, sink)
        if len(sink) == 1:
            return np.array(sink[0], dtype=np.uint8)
        return np.concatenate(sink).astype(np.uint8, copy=False)

    def _rewind(self, pos: int) -> None:
        pass  # emission is driven by position alone

    def prefix_parikh(self, n: int) -> tuple[int, ...]:
        self._grow_to(n)
        i = len(self._L) - 1
        counts = [0] * self._d
        p = n
        while self._L[i] > len(self._buf):
            if p <= self._L[i - 1]:
                i -= 1
                continue
            is_new, letter, j = self._steps[i - 1]
            Lp = self._L[i - 1]
            vec = self._P[i - 1]
            for a in range(self._d):
                counts[a] += vec[a]
            if is_new:
                counts[letter] += 1
                p = p - Lp - 1
            else:
                vj = self._P[j]
                for a in range(self._d):
                    counts[a] -= vj[a]
                p = p - Lp + self._L[j]
            i -= 1
        tail = self._materialized_head().parikh_of_prefix(p)
        return tuple(c + t for c, t in zip(counts, tail))

    def fork(self) -> "ArnouxRauzyStream":
        return ArnouxRauzyStream(self._dir_source, self._check_horizon, self._cap)

    def __repr__(self) -> str:
        return f"ArnouxRauzyStream({self._dir_source!r})"


def ar_stream(directive: WordStream, **kwargs) -> ArnouxRauzyStream:
    return ArnouxRauzyStream(directive, **kwargs)
