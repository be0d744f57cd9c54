"""Morphisms and their fixed points.

A morphism phi on 0..d-1 is given by its images phi(0), ..., phi(d-1).  When
phi is prolongable on a letter a (phi(a) starts with a and is longer than one
letter), iterating phi on a converges to an infinite fixed point u.

Generation strategy: pick the largest power k with max_b |phi^k(b)| <= a byte
cap, precompute the phi^k images once, and emit u as

    u = psi(a) . psi(v) . psi^2(v) . psi^3(v) ...        psi = phi^k,
                                                         psi(a) = a.v

by depth-first expansion.  The walk keeps one stack frame per expansion level,
so memory is O(log position) while letters leave in whole precomputed blocks.
Random access and prefix Parikh vectors descend the same tree.  Per level they
cost one bisect over a cumulative table of exact image lengths, which has at
most block_cap entries, plus d^2 adds that turn the block's prefix letter
counts into the Parikh vector of the skipped subtrees.  The tables are built
lazily and shared by every stream of the same fixed point.
"""
from __future__ import annotations

import threading
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import AlphabetError
from .streams import WordStream
from .words import MAX_ALPHABET, as_word, word_to_text

DEFAULT_BLOCK_CAP = 4096


class Morphism:
    """Letter-to-word substitution over 0..d-1, d inferred from the rule count."""

    def __init__(self, images):
        imgs = tuple(as_word(im) for im in images)
        d = len(imgs)
        if not 1 <= d <= MAX_ALPHABET:
            raise AlphabetError(f"alphabet size {d} not in 1..{MAX_ALPHABET}")
        for a, im in enumerate(imgs):
            if not im:
                raise ValueError(f"empty image for letter {a}: morphism must be nonerasing")
            if max(im) >= d:
                raise AlphabetError(
                    f"image of {a} uses letter {max(im)} outside alphabet of size {d}")
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
        wb = as_word(w, self.alphabet_size)
        return b"".join(self.images[a] for a in wb)

    def is_prolongable(self, a: int) -> bool:
        im = self.images[a]
        return len(im) >= 2 and im[0] == a

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
    ``_expansion``).  Word ids 0..d-1 name the blocks psi(c) and id d names
    the tail v of psi(seed) = seed.v.  Per word, ``counts`` holds the Parikh
    vector of every prefix (level-independent); per (level, word), ``cum``
    holds the cumulative lengths |psi^level(w[:i])| as exact Python ints.
    Tables only grow: a level or table is built in full and then published
    under the lock, so a reader on another thread sees it whole or not at all.
    """

    def __init__(self, phi: Morphism, seed: int, block_cap: int):
        d = phi.alphabet_size
        self.power, self.blocks = _choose_power(phi, block_cap)
        self.views = [np.frombuffer(b, dtype=np.uint8) for b in self.blocks]
        self.seed = seed
        self.head = self.blocks[seed]          # psi(a) = a . v
        self.words = self.blocks + [self.head[1:]]
        self.counts = []
        for w in self.words:
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

    def cum(self, level: int, wid: int) -> list[int]:
        key = (level, wid)
        tab = self._cum.get(key)
        if tab is None:
            lens = self.level(level)[0]
            tab = [0, *accumulate(lens[c] for c in self.words[wid])]
            with self._lock:
                tab = self._cum.setdefault(key, tab)
        return tab

    def descend(self, pos: int, counts: list[int] | None = None):
        """Locate position pos of u = psi(a) . psi(v) . psi^2(v) ...

        Returns (frames, leaf, k): pos lies in the outer term psi^k(v)
        (k = 0 for the head psi(a)), frames are the stack frames
        [word, next idx, level] from that term down to level 1, and leaf is
        the [block view, offset] cursor at pos.  When ``counts`` is given,
        the Parikh vector of the first pos letters is added to it.  Each
        level costs one bisect over at most block_cap table entries plus
        d^2 adds.
        """
        if pos < len(self.head):
            if counts is not None:
                _add(counts, self.counts[self.seed][pos].tolist())
            return [], [self.views[self.seed], pos], 0
        rest = pos - len(self.head)
        tail = len(self.blocks)
        tail_counts = self.counts[tail][-1].tolist()
        if counts is not None:
            _add(counts, self.counts[self.seed][-1].tolist())
        k = 1
        while True:
            tl = self.cum(k, tail)[-1]
            if rest < tl:
                break
            rest -= tl
            if counts is not None:
                _add_image(counts, tail_counts, self.level(k)[1])
            k += 1
        frames = []
        wid, level = tail, k
        while True:
            cum = self.cum(level, wid)
            idx = bisect_right(cum, rest) - 1
            rest -= cum[idx]
            word = self.words[wid]
            if counts is not None:
                _add_image(counts, self.counts[wid][idx].tolist(),
                           self.level(level)[1])
            frames.append([word, idx + 1, level])
            c = word[idx]
            if level == 1:
                if counts is not None:
                    _add(counts, self.counts[c][rest].tolist())
                return frames, [self.views[c], rest], k
            wid, level = c, level - 1


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
        self._rewind(0)

    # -- expansion-tree bookkeeping -------------------------------------
    #
    # A frame [word, idx, level] stands for the unemitted remainder of
    # psi^level(word): each letter word[idx:] still expands through `level`
    # applications of psi.  Frames with level 1 hand their letters' blocks
    # straight to the leaf cursor.

    def _rewind(self, pos: int) -> None:
        self._stack, self._leaf, k = self._x.descend(pos)
        self._next_k = k + 1

    def _advance_leaf(self) -> None:
        """Refill the leaf cursor from the stack (extending the outer sum)."""
        stack = self._stack
        while True:
            if not stack:
                stack.append([self._x.words[-1], 0, self._next_k])
                self._next_k += 1
                if len(stack) > self.max_stack_depth:
                    self.max_stack_depth = len(stack)
            frame = stack[-1]
            word, idx, level = frame
            if idx >= len(word):
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

    def skip(self, n: int) -> None:
        """Advance without copying letters out (still walks every block)."""
        left = n
        leaf = self._leaf
        while left > 0:
            view, off = leaf
            avail = view.size - off
            if avail == 0:
                self._advance_leaf()
                leaf = self._leaf
                continue
            step = avail if avail < left else left
            leaf[1] = off + step
            left -= step
        self._pos += n

    def prefix_parikh(self, n: int) -> tuple[int, ...]:
        """Exact letter counts of the first n letters, from the descent tables."""
        if n < 0:
            raise ValueError("n must be >= 0")
        counts = [0] * self._d
        self._x.descend(n, counts)
        return tuple(counts)

    def fork(self) -> "FixedPointStream":
        return FixedPointStream(self.morphism, self.seed, self.block_cap)

    def __repr__(self):
        return (f"FixedPointStream({self.morphism.to_text()!r}, seed={self.seed}, "
                f"power={self.power})")


def fixed_point_stream(phi: Morphism, seed: int = 0,
                       block_cap: int = DEFAULT_BLOCK_CAP) -> FixedPointStream:
    return FixedPointStream(phi, seed, block_cap)


def naive_stream(phi: Morphism, seed: int = 0) -> FixedPointStream:
    """One-letter-per-step expansion of phi itself (benchmark baseline)."""
    return FixedPointStream(phi, seed, block_cap=max(len(im) for im in phi.images))


class MergedStream(WordStream):
    """Letter-to-letter projection of another stream.

    ``mapping[a]`` is the output letter for input letter a; the map must be
    surjective onto 0..d'-1 so every output letter actually occurs.
    """

    def __init__(self, inner: WordStream, mapping):
        table = tuple(int(x) for x in mapping)
        if len(table) != inner.alphabet_size:
            raise AlphabetError(
                f"mapping covers {len(table)} letters, stream has {inner.alphabet_size}")
        if min(table) < 0:
            raise AlphabetError("mapped letters must be >= 0")
        d_out = max(table) + 1
        if set(table) != set(range(d_out)):
            raise AlphabetError(f"mapping is not surjective onto 0..{d_out - 1}")
        super().__init__(d_out)
        self._inner = inner.fork()
        self._table = np.array(table, dtype=np.uint8)
        self.mapping = table

    def _produce(self, n: int) -> np.ndarray:
        return self._table[self._inner.take(n)]

    def _rewind(self, pos: int) -> None:
        self._inner.seek(pos)

    def fork(self) -> "MergedStream":
        return MergedStream(self._inner, self.mapping)

    def prefix_parikh(self, n: int) -> tuple[int, ...]:
        counts = [0] * self._d
        for a, c in enumerate(self._inner.prefix_parikh(n)):
            counts[self.mapping[a]] += c
        return tuple(counts)

    def __repr__(self):
        return f"MergedStream({self._inner!r}, {self.mapping})"


def merge_letters(u: WordStream, mapping) -> MergedStream:
    return MergedStream(u, mapping)


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
        out = np.full(n, self._c, dtype=np.uint8)
        # even absolute positions carry inner letters
        first_even = start + (start & 1)
        n_inner = (start + n + 1) // 2 - (start + 1) // 2
        if n_inner:
            out[first_even - start::2] = self._inner.take(n_inner)
        return out

    def _rewind(self, pos: int) -> None:
        self._inner.seek((pos + 1) // 2)

    def fork(self) -> "InterleavedStream":
        return InterleavedStream(self._inner, self._c)

    def prefix_parikh(self, n: int) -> tuple[int, ...]:
        inner = self._inner.prefix_parikh((n + 1) // 2)
        return tuple(inner) + (n // 2,)

    def __repr__(self):
        return f"InterleavedStream({self._inner!r}, {self._c})"


def interleave_letter(u: WordStream, c: int) -> InterleavedStream:
    return InterleavedStream(u, c)


FIBONACCI = Morphism(["01", "0"])
TRIBONACCI = Morphism(["01", "02", "0"])
THUE_MORSE = Morphism(["01", "10"])


def fibonacci_stream(block_cap: int = DEFAULT_BLOCK_CAP) -> FixedPointStream:
    return FixedPointStream(FIBONACCI, 0, block_cap)


def tribonacci_stream(block_cap: int = DEFAULT_BLOCK_CAP) -> FixedPointStream:
    return FixedPointStream(TRIBONACCI, 0, block_cap)
