"""Well-distributed-occurrence checks for infinite words.

A word u over d letters has well distributed occurrences when, for every
modulus m and every factor w, the letter-count vectors of the prefixes ending
just before an occurrence of w cover all of Z_m^d once reduced mod m.  The
checker here is one-sided by nature: seeing every residue vector certifies
coverage, while a miss within a finite prefix proves nothing, so the verdict
is COVERED or UNDETERMINED, never a refutation.  UNDETERMINED reports carry
the missing vectors so structural gaps (parity locking and the like) are
visible at a glance.

``welldoc_check`` and ``welldoc_scan`` share one pass over the prefix,
``_CHUNK`` letters at a time.  A window of length j + 1 gets its factor id
from the id of its first j letters and its last letter, through a per-length
table, so factors are told apart without sorting, at any length.  Each
(factor, residue vector) cell counts its hits and keeps the first two.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ParameterError
from .streams import WordStream
from .words import as_word, word_to_text

COVERED = "COVERED"
UNDETERMINED = "UNDETERMINED"

# hard cap on m^d: reports enumerate the complement explicitly, and each
# factor keeps a dense row of m^d cells
_MAX_RESIDUE_SPACE = 1 << 16

_CHUNK = 1 << 20


def _check_scan(m: int, d: int, max_len: int, budget: int) -> None:
    """Parameters of a scan for factors of up to max_len letters, with counts
    mod m over d letters, in a prefix of budget letters."""
    if m < 2:
        raise ParameterError("modulus must be >= 2")
    if max_len < 1:
        raise ParameterError("max_factor_len must be >= 1")
    if budget <= max_len:
        raise ParameterError("prefix budget must exceed the factor length")
    if m ** d > _MAX_RESIDUE_SPACE:
        raise ParameterError(
            f"residue space m^d = {m}^{d} exceeds {_MAX_RESIDUE_SPACE}")


@dataclass(frozen=True)
class WelldocQuery:
    """One coverage question: which residue vectors do occurrences of
    ``factor`` realize within the first ``max_prefix`` letters?"""

    stream: WordStream
    factor: bytes
    modulus: int
    max_prefix: int = 10 ** 7

    def __post_init__(self):
        object.__setattr__(
            self, "factor", as_word(self.factor, self.stream.alphabet_size))
        if len(self.factor) < 1:
            raise ParameterError("factor must be nonempty")
        _check_scan(self.modulus, self.stream.alphabet_size, len(self.factor),
                    self.max_prefix)


@dataclass(frozen=True)
class WelldocReport:
    factor: bytes
    modulus: int
    alphabet_size: int
    verdict: str
    covered: tuple[tuple[int, ...], ...]
    missing: tuple[tuple[int, ...], ...]
    occurrences_seen: int
    prefix_scanned: int
    # residue vector -> up to two witnessing occurrence indices, ascending
    witnesses: dict[tuple[int, ...], tuple[int, ...]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "factor": word_to_text(self.factor),
            "modulus": self.modulus,
            "alphabet_size": self.alphabet_size,
            "verdict": self.verdict,
            "covered": [list(v) for v in self.covered],
            "missing": [list(v) for v in self.missing],
            "occurrences_seen": self.occurrences_seen,
            "prefix_scanned": self.prefix_scanned,
            "witnesses": {" ".join(map(str, k)): list(v)
                          for k, v in self.witnesses.items()},
        }


class _Level:
    """Factors of one length, with ids in order of discovery.  ``child`` maps
    key = (id of the factor less its last letter) * d + last letter to an
    id, -1 for a pair not seen yet; ``keys`` lists the key of each id.  Each
    (id, residue code) cell keeps its hit count and first two hits."""

    def __init__(self, size: int):
        self.child = np.empty(0, dtype=np.int64)
        self.keys: list[int] = []
        self.hits = np.empty((0, size), dtype=np.int64)
        self.wit = np.empty((0, size, 2), dtype=np.int64)

    def ids(self, key: np.ndarray, nkeys: int) -> np.ndarray:
        if self.child.size < nkeys:
            self.child = np.concatenate(
                (self.child, np.full(nkeys - self.child.size, -1)))
        ids = self.child[key]
        if ids.min() < 0:
            fresh = np.nonzero((np.bincount(key, minlength=nkeys) > 0)
                               & (self.child < 0))[0]
            self.child[fresh] = len(self.keys) + np.arange(fresh.size)
            self.keys.extend(fresh.tolist())
            self.hits = np.pad(self.hits, ((0, fresh.size), (0, 0)))
            self.wit = np.pad(self.wit, ((0, fresh.size), (0, 0), (0, 0)))
            ids = self.child[key]
        return ids

    def count(self, cells: np.ndarray, g0: int) -> None:
        """Hits of the windows from g0 on, at cell id * m^d + residue."""
        hits, wit = self.hits.reshape(-1), self.wit.reshape(-1, 2)
        h = np.bincount(cells, minlength=hits.size)
        lack = np.nonzero((h > 0) & (hits < 2))[0]
        old = hits[lack]
        hits += h
        if lack.size:
            # the chunk's first two hits in the cells short of two witnesses,
            # sought in the shortest prefix of 4096 * 16^k windows with them
            need = np.minimum(h[lack], 2 - old)
            n = 1 << 12
            while n < cells.size and (np.bincount(
                    cells[:n], minlength=h.size)[lack] < need).any():
                n <<= 4
            cells = cells[:n]
            at = np.full((2, h.size), n)
            pos = np.arange(cells.size)
            np.minimum.at(at[0], cells, pos)
            pos = pos[at[0, cells] != pos]
            np.minimum.at(at[1], cells[pos], pos)
            for k in (0, 1):
                ok = (old + k < 2) & (at[k, lack] < n)
                wit[lack[ok], old[ok] + k] = g0 + at[k, lack[ok]]


def _scan(stream: WordStream, m: int, min_len: int, max_len: int,
          budget: int, done=None) -> tuple[list[_Level], int]:
    """The pass: the levels of lengths 1..max_len, and the letters read.
    A window is counted at its start, in the chunk where the max_len window
    from there ends, or in the final chunk.  Lengths below min_len only pass
    ids on.  The pass stops after a chunk where ``done(levels)`` holds."""
    d = stream.alphabet_size
    size = m ** d
    levels = [_Level(size) for _ in range(max_len)]
    s = stream.fork()
    carry = np.zeros(d, dtype=np.int64)       # letter counts before work[0]
    tail = np.empty(0, dtype=np.uint8)
    g0 = taken = 0                            # g0: global index of work[0]
    while taken < budget:
        fresh = s.take(min(_CHUNK, budget - taken))
        taken += fresh.size
        work = np.concatenate((tail, fresh))
        starts = max(0, work.size - (max_len - 1 if taken < budget else 0))
        if starts:
            # residue code before each start; < m^d <= 2^16 fits int32
            res = np.full(starts, 0, dtype=np.int32)
            cum = np.empty(starts, dtype=np.int32)
            for a, c in enumerate(carry.tolist()):
                cum[0] = 0
                np.cumsum(work[:starts - 1] == a, out=cum[1:])
                cum += c
                cum %= m
                res += cum * m ** a
            ids = np.full(starts, 0)              # the empty word
            nkeys = d
            for j, lv in enumerate(levels, 1):
                key = ids[:min(starts, work.size - j + 1)] * d
                key += work[j - 1:j - 1 + key.size]
                ids = lv.ids(key, nkeys)
                nkeys = len(lv.keys) * d
                if j >= min_len:
                    np.multiply(ids, size, out=key)
                    key += res[:key.size]
                    lv.count(key, g0)
        carry = (carry + np.bincount(work[:starts], minlength=d)) % m
        g0 += starts
        tail = work[starts:]
        if done is not None and done(levels):
            break
    return levels, taken


def _reporter(m: int, d: int, prefix_scanned: int):
    """Report builder for the factors of one scan; the m^d residue vectors
    are listed once, by code, for all of them."""
    vecs = [v[::-1] for v in product(range(m), repeat=d)]

    def report(factor: bytes, hits: np.ndarray, wit) -> WelldocReport:
        seen = hits > 0
        at = np.nonzero(seen)[0]
        codes = at.tolist()
        # one numpy call per factor, not one per residue vector
        rows = wit[at].tolist() if codes else []
        keep = np.minimum(hits[at], 2).tolist()
        return WelldocReport(
            factor=factor, modulus=m, alphabet_size=d,
            verdict=COVERED if seen.all() else UNDETERMINED,
            covered=tuple(vecs[c] for c in codes),
            missing=tuple(vecs[c] for c in np.nonzero(~seen)[0].tolist()),
            occurrences_seen=int(hits.sum()), prefix_scanned=prefix_scanned,
            witnesses={vecs[c]: tuple(r[:k])
                       for c, r, k in zip(codes, rows, keep)})
    return report


def welldoc_check(q: WelldocQuery) -> WelldocReport:
    """Scan the stream prefix, recording the residue vector before each
    occurrence of the factor; stops after the chunk in which every vector
    has two witnesses."""
    d, m, L = q.stream.alphabet_size, q.modulus, len(q.factor)

    def row(levels):
        i = 0
        for lv, a in zip(levels, q.factor):
            if i * d + a >= lv.child.size or lv.child[i * d + a] < 0:
                return np.zeros(m ** d, np.int64), None
            i = int(lv.child[i * d + a])
        return levels[-1].hits[i], levels[-1].wit[i]

    levels, taken = _scan(q.stream, m, L, L, q.max_prefix,
                          lambda levels: row(levels)[0].min() >= 2)
    return _reporter(m, d, taken)(q.factor, *row(levels))


def welldoc_scan(stream: WordStream, m: int, max_factor_len: int,
                 max_prefix: int = 10 ** 7,
                 threads: int | None = None) -> dict[bytes, WelldocReport]:
    """Coverage reports for every factor of length <= max_factor_len in the
    prefix, which is read whole since a factor may first occur late.
    ``threads`` has no effect; it is kept for callers that pass it."""
    d = stream.alphabet_size
    _check_scan(m, d, max_factor_len, max_prefix)
    levels, taken = _scan(stream, m, 1, max_factor_len, max_prefix)
    report = _reporter(m, d, taken)
    out = {}
    names = [b""]
    for lv in levels:
        names = [names[k // d] + bytes((k % d,)) for k in lv.keys]
        for name, i in sorted(zip(names, range(len(names)))):
            out[name] = report(name, lv.hits[i], lv.wit[i])
    return out
