"""Morphisms and their fixed points.

A morphism phi on 0..d-1 is given by its images phi(0), ..., phi(d-1).  When
phi is prolongable on a letter a (phi(a) starts with a and is longer than one
letter), iterating phi on a converges to an infinite fixed point u.

Generation strategy: pick the largest power k with max_b |phi^k(b)| <= a byte
cap, precompute the images psi(b), psi = phi^k, once, and read u as the limit

    u = lim psi^K(a)        psi^(K+1)(a) = psi^K(a) . psi^K(psi(a)[1:])

of one expansion tree.  Its root psi^(L+1)(a) = psi^L(psi(a)) is the word
psi(a) whose letters each expand through L applications of psi; by the
identity above, once the walk has emitted all of it, u goes on with the same
root one level up, from index 1.  The walk keeps one stack frame per
expansion level, so memory is O(log position) while letters leave in whole
precomputed blocks.  Random access and prefix Parikh vectors descend the same
tree.  Per level they cost one bisect over a cumulative table of exact image
lengths, which has at most block_cap entries, plus d^2 adds that turn the
block's prefix letter counts into the Parikh vector of the skipped subtrees.
The tables are built lazily and shared by every stream of the same fixed
point.
"""
from __future__ import annotations

import threading
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import AlphabetError, ParameterError
from .streams import WordStream
from .words import _alphabet_size, as_word, word_to_text

DEFAULT_BLOCK_CAP = 4096

# Largest number of expansion levels random access builds.  A fixed point
# whose images grow exponentially needs O(log position) of them, but one
# that grows polynomially needs many more: psi = phi^4095 of 0->01,1->1
# adds 4095 letters per level, so position 1e9 lies 244,200 levels down.
_MAX_LEVELS = 1 << 18


class Morphism:
    """Letter-to-word substitution over 0..d-1, d inferred from the rule count."""

    def __init__(self, images):
        images = tuple(images)
        d = _alphabet_size(len(images))
        imgs = tuple(as_word(im, d) for im in images)
        for a, im in enumerate(imgs):
            if not im:
                raise ValueError(f"empty image for letter {a}: morphism must be nonerasing")
        self.images = imgs
        self.alphabet_size = d

    @classmethod
    def from_text(cls, text: str) -> "Morphism":
        """Parse the rule format ``0->01,1->0``."""
        from .specs import parse_morphism_rules
        return cls(parse_morphism_rules(text))

    def to_text(self) -> str:
        return ",".join(f"{a}->{word_to_text(im)}" for a, im in enumerate(self.images))

    def apply(self, w) -> bytes:
        out = bytearray()       # bytes.join would hold 80 bytes per letter of w
        for a in as_word(w, self.alphabet_size):
            out += self.images[a]
        return bytes(out)

    def is_prolongable(self, a: int) -> bool:
        im = self.images[a]
        return len(im) >= 2 and im[0] == a

    def recurrent_letters(self, seed: int) -> frozenset[int]:
        """Letters occurring infinitely often in the fixed point from seed.

        With phi(seed) = seed.w the fixed point is seed.w.phi(w).phi^2(w)...,
        so a letter recurs iff it lies in alph(phi^k(w)) for infinitely many
        k.  Those alphabets follow S_{k+1} = union of alph(phi(c)), c in S_k,
        which is eventually periodic; the recurrent letters are the union of
        its cycle.
        """
        if not self.is_prolongable(seed):
            raise ValueError(f"morphism is not prolongable on letter {seed}")
        alph = [frozenset(im) for im in self.images]
        s = frozenset(self.images[seed][1:])
        first_seen: dict[frozenset, int] = {}
        orbit = []
        while s not in first_seen:
            first_seen[s] = len(orbit)
            orbit.append(s)
            s = frozenset().union(*(alph[c] for c in s))
        return frozenset().union(*orbit[first_seen[s]:])

    def adjacency_matrix(self) -> np.ndarray:
        """Matrix M with M[i][j] = occurrences of letter i in the image of j,
        so parikh(phi(w)) = M @ parikh(w)."""
        d = self.alphabet_size
        m = np.zeros((d, d), dtype=np.int64)
        for j, im in enumerate(self.images):
            m[:, j] = np.bincount(np.frombuffer(im, dtype=np.uint8), minlength=d)
        return m

    def determinant(self) -> int:
        """Exact integer determinant of the adjacency matrix (Bareiss)."""
        m = [[int(x) for x in row] for row in self.adjacency_matrix()]
        d = len(m)
        sign = 1
        prev = 1
        for k in range(d - 1):
            if m[k][k] == 0:
                for r in range(k + 1, d):
                    if m[r][k] != 0:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, d):
                for j in range(k + 1, d):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[d - 1][d - 1]

    def __eq__(self, other):
        return isinstance(other, Morphism) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Morphism({self.to_text()!r})"


def iterate_fixed_point(phi: Morphism, seed: int, min_len: int) -> bytes:
    """Prefix of the fixed point by plain repeated application (test oracle)."""
    if not phi.is_prolongable(seed):
        raise ValueError(f"morphism is not prolongable on letter {seed}")
    w = bytes([seed])
    while len(w) < min_len:
        w = phi.apply(w)
    return w


def _choose_power(phi: Morphism, cap: int) -> tuple[int, list[bytes]]:
    """Largest k with max_b |phi^k(b)| <= cap, and the images phi^k(b)."""
    blocks = list(phi.images)
    power = 1
    while True:
        nxt = [b"".join(blocks[c] for c in phi.images[a])
               for a in range(phi.alphabet_size)]
        if max(len(b) for b in nxt) > cap:
            return power, blocks
        blocks = nxt
        power += 1


def _add(counts: list[int], vec) -> None:
    for i, x in enumerate(vec):
        counts[i] += x


def _add_image(counts: list[int], mult, pvecs) -> None:
    """counts += sum_c mult[c] * pvecs[c]."""
    for m, pv in zip(mult, pvecs):
        if m:
            for i, x in enumerate(pv):
                counts[i] += m * x


class _Expansion:
    """Expansion tables of psi = phi^k for one (morphism, seed, block_cap).

    Every stream of the same fixed point shares one instance (see
    ``_expansion``).  Per block psi(c), ``counts`` holds the Parikh vector of
    every prefix (level-independent); per (level, c), ``cum`` holds the
    cumulative lengths |psi^level(psi(c)[:i])| as exact Python ints.
    Tables only grow: a level or table is built in full and then published
    under the lock, so a reader on another thread sees it whole or not at all.
    """

    def __init__(self, phi: Morphism, seed: int, block_cap: int):
        d = phi.alphabet_size
        self.power, self.blocks = _choose_power(phi, block_cap)
        self.views = [np.frombuffer(b, dtype=np.uint8) for b in self.blocks]
        self.seed = seed
        self.counts = []
        for w in self.blocks:
            tab = np.zeros((len(w) + 1, d), dtype=np.int32)
            np.cumsum(np.frombuffer(w, np.uint8)[:, None] == np.arange(d),
                      axis=0, out=tab[1:])
            tab.setflags(write=False)
            self.counts.append(tab)
        # levels[L] = (|psi^L(c)| per c, Parikh vector of psi^L(c) per c)
        unit = tuple(tuple(int(i == c) for i in range(d)) for c in range(d))
        block_pv = tuple(tuple(self.counts[c][-1].tolist()) for c in range(d))
        self.levels = [((1,) * d, unit),
                       (tuple(len(b) for b in self.blocks), block_pv)]
        self._cum: dict[tuple[int, int], list[int]] = {}
        self._lock = threading.Lock()

    def level(self, level: int):
        if level >= len(self.levels):
            with self._lock:
                while len(self.levels) <= level:
                    lens, pvecs = self.levels[-1]
                    d = len(lens)
                    nl, npv = [], []
                    for pv in self.levels[1][1]:        # letters of psi(b)
                        vec = [0] * d
                        _add_image(vec, pv, pvecs)
                        nl.append(sum(m * n for m, n in zip(pv, lens)))
                        npv.append(tuple(vec))
                    self.levels.append((tuple(nl), tuple(npv)))
        return self.levels[level]

    def cum(self, level: int, c: int) -> list[int]:
        key = (level, c)
        tab = self._cum.get(key)
        if tab is None:
            lens = self.level(level)[0]
            tab = [0, *accumulate(lens[b] for b in self.blocks[c])]
            with self._lock:
                tab = self._cum.setdefault(key, tab)
        return tab

    def descend(self, pos: int, counts: list[int] | None = None):
        """Locate position pos of u = lim psi^K(seed).

        Takes the least L >= 1 with |psi^(L+1)(seed)| > pos and bisects down
        from the root frame [psi(seed), ., L].  Returns (frames, leaf):
        frames are the stack frames [word, next idx, level] from the root
        down to level 1, and leaf is the [block view, offset] cursor at pos.
        When ``counts`` is given, the Parikh vector of the first pos letters
        is added to it.  Each level costs one bisect over at most block_cap
        table entries plus d^2 adds; past _MAX_LEVELS levels it raises
        ParameterError.
        """
        level = 1
        while self.level(level + 1)[0][self.seed] <= pos:
            level += 1
            if level >= _MAX_LEVELS:
                raise ParameterError(f"position {pos} lies more than {_MAX_LEVELS} "
                                     "levels deep in a slowly growing fixed point")
        frames = []
        c = self.seed
        while True:
            cum = self.cum(level, c)
            idx = bisect_right(cum, pos) - 1
            pos -= cum[idx]
            if counts is not None:
                _add_image(counts, self.counts[c][idx].tolist(),
                           self.level(level)[1])
            word = self.blocks[c]
            frames.append([word, idx + 1, level])
            c = word[idx]
            if level == 1:
                if counts is not None:
                    _add(counts, self.counts[c][pos].tolist())
                return frames, [self.views[c], pos]
            level -= 1


@lru_cache(maxsize=16)
def _expansion(phi: Morphism, seed: int, block_cap: int) -> _Expansion:
    return _Expansion(phi, seed, block_cap)


class FixedPointStream(WordStream):
    """Streaming fixed point of a prolongable morphism.

    ``block_cap`` bounds the byte size of the precomputed psi = phi^k images;
    the constructor picks the largest such k.  Forcing ``block_cap`` to
    max |phi(b)| degrades psi to phi itself, which is the one-letter-per-step
    baseline the benchmark compares against.
    """

    def __init__(self, morphism: Morphism, seed: int = 0,
                 block_cap: int = DEFAULT_BLOCK_CAP):
        super().__init__(morphism.alphabet_size)
        if not 0 <= seed < morphism.alphabet_size:
            raise AlphabetError(
                f"seed letter {seed} outside alphabet of "
                f"{morphism.alphabet_size} letters")
        if not morphism.is_prolongable(seed):
            raise ValueError(f"morphism is not prolongable on letter {seed}")
        if block_cap < max(len(im) for im in morphism.images):
            raise ValueError(
                f"block_cap {block_cap} below the largest single image; no power fits")
        self.morphism = morphism
        self.seed = seed
        self.block_cap = block_cap
        self._x = _expansion(morphism, seed, block_cap)
        self.power = self._x.power
        self._blocks, self._views = self._x.blocks, self._x.views
        self.max_stack_depth = 0
        self._stack, self._leaf = self._x.descend(0)
        self._at = 0        # the position the leaf cursor stands for

    # -- expansion-tree bookkeeping -------------------------------------
    #
    # A frame [word, idx, level] stands for the unemitted remainder of
    # psi^level(word): each letter word[idx:] still expands through `level`
    # applications of psi.  Frames with level 1 hand their letters' blocks
    # straight to the leaf cursor.  The bottom frame is the root psi(seed).

    def _advance_leaf(self) -> None:
        """Refill the leaf cursor from the stack.  The root is never popped:
        when it is spent, psi^(L+2)(a) = psi^(L+1)(a) . psi^(L+1)(psi(a)[1:])
        restarts it at index 1 one level up."""
        stack = self._stack
        while True:
            frame = stack[-1]
            word, idx, level = frame
            if idx >= len(word):
                if len(stack) == 1:
                    frame[1:] = [1, level + 1]
                else:
                    stack.pop()
                continue
            frame[1] = idx + 1
            c = word[idx]
            if level == 1:
                self._leaf = [self._views[c], 0]
                return
            stack.append([self._blocks[c], 0, level - 1])
            if len(stack) > self.max_stack_depth:
                self.max_stack_depth = len(stack)

    def _produce(self, n: int) -> np.ndarray:
        if self._at != self._pos:
            self._stack, self._leaf = self._x.descend(self._pos)
        self._at = self._pos + n
        out = np.empty(n, dtype=np.uint8)
        filled = 0
        leaf = self._leaf
        while filled < n:
            view, off = leaf
            avail = view.size - off
            if avail == 0:
                self._advance_leaf()
                leaf = self._leaf
                continue
            step = avail if avail < n - filled else n - filled
            out[filled:filled + step] = view[off:off + step]
            leaf[1] = off + step
            filled += step
        return out

    def _prefix_parikh(self, n: int) -> tuple[int, ...]:
        """Exact letter counts of the first n letters, from the descent tables."""
        counts = [0] * self._d
        self._x.descend(n, counts)
        return tuple(counts)

    def fork(self) -> "FixedPointStream":
        return FixedPointStream(self.morphism, self.seed, self.block_cap)

    def __repr__(self):
        return (f"FixedPointStream({self.morphism.to_text()!r}, seed={self.seed}, "
                f"power={self.power})")


def naive_stream(phi: Morphism, seed: int = 0) -> FixedPointStream:
    """One-letter-per-step expansion of phi itself (benchmark baseline)."""
    return FixedPointStream(phi, seed, block_cap=max(len(im) for im in phi.images))


class MergedStream(WordStream):
    """Letter-to-letter projection of another stream.

    ``mapping[a]`` is the output letter for input letter a; the map must be
    surjective onto 0..d'-1 so every output letter actually occurs.
    """

    def __init__(self, inner: WordStream, mapping):
        table = tuple(as_word(mapping))
        if len(table) != inner.alphabet_size:
            raise AlphabetError(
                f"mapping covers {len(table)} letters, stream has {inner.alphabet_size}")
        d_out = max(table) + 1
        if set(table) != set(range(d_out)):
            raise AlphabetError(f"mapping is not surjective onto 0..{d_out - 1}")
        super().__init__(d_out)
        self._inner = inner.fork()
        self._table = np.array(table, dtype=np.uint8)
        self.mapping = table

    def _produce(self, n: int) -> np.ndarray:
        self._inner.seek(self._pos)
        return self._table[self._inner.take(n)]

    def fork(self) -> "MergedStream":
        return MergedStream(self._inner, self.mapping)

    def _prefix_parikh(self, n: int) -> tuple[int, ...]:
        counts = [0] * self._d
        for a, c in enumerate(self._inner.prefix_parikh(n)):
            counts[self.mapping[a]] += c
        return tuple(counts)

    def __repr__(self):
        return f"MergedStream({self._inner!r}, {self.mapping})"


class InterleavedStream(WordStream):
    """u_0 c u_1 c u_2 c ... for a fresh letter c extending the alphabet."""

    def __init__(self, inner: WordStream, c: int):
        if c != inner.alphabet_size:
            raise AlphabetError(
                f"interleaved letter must be {inner.alphabet_size} "
                f"(one past the current alphabet), got {c}")
        super().__init__(inner.alphabet_size + 1)
        self._inner = inner.fork()
        self._c = c

    def _produce(self, n: int) -> np.ndarray:
        start = self._pos
        self._inner.seek((start + 1) // 2)
        out = np.full(n, self._c, dtype=np.uint8)
        # even absolute positions carry inner letters
        first_even = start + (start & 1)
        n_inner = (start + n + 1) // 2 - (start + 1) // 2
        if n_inner:
            out[first_even - start::2] = self._inner.take(n_inner)
        return out

    def fork(self) -> "InterleavedStream":
        return InterleavedStream(self._inner, self._c)

    def _prefix_parikh(self, n: int) -> tuple[int, ...]:
        inner = self._inner.prefix_parikh((n + 1) // 2)
        return tuple(inner) + (n // 2,)

    def __repr__(self):
        return f"InterleavedStream({self._inner!r}, {self._c})"


FIBONACCI = Morphism(["01", "0"])
TRIBONACCI = Morphism(["01", "02", "0"])
THUE_MORSE = Morphism(["01", "10"])


def fibonacci_stream() -> FixedPointStream:
    return FixedPointStream(FIBONACCI, 0)


def tribonacci_stream() -> FixedPointStream:
    return FixedPointStream(TRIBONACCI, 0)
