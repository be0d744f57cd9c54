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
takes O(log N) steps; only a bounded head of the word is materialized, in
one array of 1 Mi letters (small enough to stay in a 2 MiB L2 cache) that
the recurrence fills in place, and deeper letters are resolved by
mapping intervals back through the recurrence.  A prefix Parikh vector never
reads letters: the same walk, down to b_0 = epsilon, costs d adds per step.
"""
from __future__ import annotations

import numpy as np

from .errors import DirectiveError
from .morphic import FixedPointStream
from .streams import CycleStream, WordStream
from .words import as_word

DIRECTIVE_CHECK_HORIZON = 1000
_HEAD_CAP = 1 << 20         # letters a stream keeps materialized at most


def _longest_palindromic_suffix_start(v: bytes) -> int:
    """Smallest s such that v[s:] is a palindrome."""
    n = len(v)
    # Rolling uint64 hashes test every candidate suffix in one expression; a
    # hash hit is confirmed by direct comparison, so collisions cannot leak.
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
        hits = np.flatnonzero((fwd[n] - fwd[:n]) * pw[:n] == rev[n] - rev[:n])
    for s in hits.tolist():
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


class ArnouxRauzyStream(WordStream):
    """Characteristic Arnoux-Rauzy word driven by a directive stream.

    The directive must use every letter infinitely often.  For a periodic
    directive or a morphic fixed point this is decided exactly, from the
    pattern or the morphism; for other directives the check is heuristic by
    necessity: only the first ``DIRECTIVE_CHECK_HORIZON`` directive letters
    are inspected.
    """

    def __init__(self, directive: WordStream):
        d = directive.alphabet_size
        super().__init__(d)
        if d < 2:
            raise DirectiveError("Arnoux-Rauzy words need an alphabet of size >= 2")
        if isinstance(directive, CycleStream):
            recurrent = set(directive.pattern)
            why = "do not appear in the periodic directive's pattern"
        elif isinstance(directive, FixedPointStream):
            recurrent = directive.morphism.recurrent_letters(directive.seed)
            why = "occur only finitely often in the directive fixed point"
        else:
            recurrent = set(directive.fork().take(DIRECTIVE_CHECK_HORIZON).tolist())
            why = (f"do not appear in the first {DIRECTIVE_CHECK_HORIZON} "
                   f"directive letters")
        missing = [a for a in range(d) if a not in recurrent]
        if missing:
            raise DirectiveError(f"letters {missing} {why}")
        self._dir_source = directive
        self._dir = directive.fork()
        self._head = np.empty(_HEAD_CAP, np.uint8)
        self._n = 0                                 # letters of _head filled
        self._L: list[int] = [0]
        self._steps: list[tuple[int, int]] = []     # (letter, j); j < 0: new
        self._P: list[tuple[int, ...]] = [(0,) * d]
        self._last: dict[int, int] = {}

    # -- chain growth ---------------------------------------------------

    def _extend_chain(self) -> None:
        letter = int(self._dir.take(1)[0])
        L_i = self._L[-1]
        j = self._last.get(letter, -1)
        if j < 0:
            L_next = 2 * L_i + 1
            vec = [2 * c for c in self._P[-1]]
            vec[letter] += 1
        else:
            L_next = 2 * L_i - self._L[j]
            vec = [2 * c - cj for c, cj in zip(self._P[-1], self._P[j])]
        # lengths grow strictly, so while b_{i+1} fits, b_i fills the head;
        # neither copy overlaps its source
        h = self._head
        if L_next <= h.size:
            if j < 0:
                h[L_i] = letter
                h[L_i + 1:L_next] = h[:L_i]
            else:
                h[L_i:L_next] = h[self._L[j]:L_i]
            self._n = L_next
        self._last[letter] = len(self._steps)
        self._steps.append((letter, j))
        self._L.append(L_next)
        self._P.append(tuple(vec))

    def _grow_to(self, target: int) -> None:
        # lengths grow strictly (2L+1, or 2L-L_j with L_j < L), so this ends
        while self._L[-1] < target:
            self._extend_chain()

    # -- interval resolution --------------------------------------------

    def _emit(self, i: int, lo: int, hi: int, sink: list) -> None:
        """Append the letters b_i[lo:hi] to sink as arrays."""
        while True:
            if hi <= lo:
                return
            if self._L[i] <= self._n:
                sink.append(self._head[lo:hi])
                return
            letter, j = self._steps[i - 1]
            Lp = self._L[i - 1]
            if hi <= Lp:
                i -= 1
                continue
            if lo < Lp:
                self._emit(i - 1, lo, Lp, sink)
                lo = Lp
            if j < 0:
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
        return np.concatenate(sink)     # a fresh array: the head is writable

    def _prefix_parikh(self, n: int) -> tuple[int, ...]:
        self._grow_to(n)
        i = len(self._L) - 1
        counts = [0] * self._d
        p = n
        while p:
            if p <= self._L[i - 1]:
                i -= 1
                continue
            letter, j = self._steps[i - 1]
            Lp = self._L[i - 1]
            vec = self._P[i - 1]
            for a in range(self._d):
                counts[a] += vec[a]
            if j < 0:
                counts[letter] += 1
                p = p - Lp - 1
            else:
                vj = self._P[j]
                for a in range(self._d):
                    counts[a] -= vj[a]
                p = p - Lp + self._L[j]
            i -= 1
        return tuple(counts)

    def fork(self) -> "ArnouxRauzyStream":
        return ArnouxRauzyStream(self._dir_source)

    def __repr__(self) -> str:
        return f"ArnouxRauzyStream({self._dir_source!r})"
