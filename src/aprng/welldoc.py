"""Well-distributed-occurrence checks for infinite words.

A word u over d letters has well distributed occurrences when, for every
modulus m and every factor w, the letter-count vectors of the prefixes ending
just before an occurrence of w cover all of Z_m^d once reduced mod m.  The
checker here is one-sided by nature: seeing every residue vector certifies
coverage, while a miss within a finite prefix proves nothing, so the verdict
is COVERED or UNDETERMINED, never a refutation.  UNDETERMINED reports carry
the missing vectors so structural gaps (parity locking and the like) are
visible at a glance.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .parallel import thread_map
from .streams import WordStream
from .words import _decode, _window_codes, as_word, word_to_text

COVERED = "COVERED"
UNDETERMINED = "UNDETERMINED"

# hard cap on m^d: reports enumerate the complement explicitly, and the
# coverage bitset is dense
_MAX_RESIDUE_SPACE = 1 << 16

_CHUNK = 1 << 20


def _residue_space(m: int, d: int) -> int:
    size = m ** d
    if size > _MAX_RESIDUE_SPACE:
        raise ParameterError(
            f"residue space m^d = {m}^{d} exceeds {_MAX_RESIDUE_SPACE}")
    return size


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
        if self.modulus < 2:
            raise ParameterError("modulus must be >= 2")
        if self.max_prefix <= len(self.factor):
            raise ParameterError("prefix budget must exceed the factor length")
        _residue_space(self.modulus, self.stream.alphabet_size)


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


class _Coverage:
    """Dense bitset over Z_m^d codes plus two witness indices per vector."""

    def __init__(self, m: int, d: int):
        self.m = m
        self.d = d
        self.size = _residue_space(m, d)
        self.seen = np.zeros(self.size, dtype=bool)
        self.witnesses: dict[int, list[int]] = {}
        self.full = False

    def update(self, codes: np.ndarray, indices: np.ndarray) -> bool:
        """Returns True once the scan may stop: full coverage with two
        witnesses per vector, so doubled-budget runs still see everything."""
        uniq, first = np.unique(codes, return_index=True)
        rest = np.ones(codes.size, dtype=bool)
        rest[first] = False
        rest_pos = np.nonzero(rest)[0]
        uniq2, second = np.unique(codes[rest_pos], return_index=True)
        second_at = dict(zip(uniq2.tolist(), rest_pos[second].tolist()))
        for code, fi in zip(uniq.tolist(), first.tolist()):
            lst = self.witnesses.setdefault(code, [])
            if len(lst) < 2:
                lst.append(int(indices[fi]))
            if len(lst) < 2 and code in second_at:
                lst.append(int(indices[second_at[code]]))
        self.seen[uniq] = True
        self.full = bool(self.seen.sum() == self.size)
        return self.full and all(len(w) == 2 for w in self.witnesses.values())

    def report(self, factor: bytes, occurrences_seen: int,
               prefix_scanned: int) -> WelldocReport:
        m, d = self.m, self.d
        covered = tuple(_vec(c, m, d) for c in np.nonzero(self.seen)[0].tolist())
        missing = tuple(_vec(c, m, d) for c in np.nonzero(~self.seen)[0].tolist())
        return WelldocReport(
            factor=factor, modulus=m, alphabet_size=d,
            verdict=COVERED if self.full else UNDETERMINED,
            covered=covered, missing=missing,
            occurrences_seen=occurrences_seen, prefix_scanned=prefix_scanned,
            witnesses={_vec(c, m, d): tuple(w)
                       for c, w in sorted(self.witnesses.items())})


def _vec(code: int, m: int, d: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        out.append(code % m)
        code //= m
    return tuple(out)


def welldoc_check(q: WelldocQuery) -> WelldocReport:
    """Scan the stream prefix, recording the residue vector before each
    occurrence of the factor; stops as soon as every vector is seen."""
    d = q.stream.alphabet_size
    m = q.modulus
    w = np.frombuffer(q.factor, dtype=np.uint8)
    L = w.size
    weights = (m ** np.arange(d)).astype(np.int64)

    s = q.stream.fork()
    s.seek(0)
    cov = _Coverage(m, d)
    carry = np.zeros(d, dtype=np.int64)      # letter counts before the window
    tail = np.empty(0, dtype=np.uint8)
    g0 = 0                                   # global index of work[0]
    taken = 0
    occurrences_seen = 0

    while taken < q.max_prefix:
        fresh = s.take(min(_CHUNK, q.max_prefix - taken))
        taken += fresh.size
        work = np.concatenate((tail, fresh)) if tail.size else fresh
        nwin = work.size - L + 1
        if nwin > 0:
            mask = work[:nwin] == w[0]
            for j in range(1, L):
                mask &= work[j:j + nwin] == w[j]
            occ = np.nonzero(mask)[0]
            if occ.size:
                occurrences_seen += occ.size
                code = np.zeros(occ.size, dtype=np.int64)
                for a in range(d):
                    cum = np.concatenate(
                        ([0], np.cumsum(work == a, dtype=np.int64)))
                    code += ((carry[a] + cum[occ]) % m) * weights[a]
                if cov.update(code, occ + g0):
                    break
        keep = min(L - 1, work.size)
        leaving = work[:work.size - keep]
        carry += np.bincount(leaving, minlength=d)
        g0 += leaving.size
        tail = work[work.size - keep:]
        if fresh.size == 0:
            break
    return cov.report(q.factor, occurrences_seen, taken)


def _factor_groups(u: np.ndarray, length: int, d: int):
    """(factor bytes, ascending occurrence indices) for every factor of the
    given length present in u."""
    if u.size < length:
        return
    wc = _window_codes(u, length, d)
    if wc is None:
        # windows too long for integer codes; group via raw byte rows
        win = np.lib.stride_tricks.sliding_window_view(u, length)
        rows = np.ascontiguousarray(win).view(
            np.dtype((np.void, length))).ravel()
        uniq, inverse = np.unique(rows, return_inverse=True)
        for k in range(uniq.size):
            occ = np.nonzero(inverse == k)[0]
            yield uniq[k].tobytes(), occ
        return
    order = np.argsort(wc, kind="stable")
    sc = wc[order]
    bounds = np.nonzero(np.diff(sc))[0] + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [sc.size]))
    for s, e in zip(starts.tolist(), ends.tolist()):
        yield _decode(int(sc[s]), length, d), order[s:e]


def welldoc_scan(stream: WordStream, m: int, max_factor_len: int,
                 max_prefix: int = 10 ** 7,
                 threads: int | None = None) -> dict[bytes, WelldocReport]:
    """Coverage reports for every factor of length <= max_factor_len found in
    the stream's prefix, sharing one materialized pass."""
    if m < 2:
        raise ParameterError("modulus must be >= 2")
    if max_factor_len < 1:
        raise ParameterError("max_factor_len must be >= 1")
    if max_prefix <= max_factor_len:
        raise ParameterError("prefix budget must exceed the factor length")
    d = stream.alphabet_size
    _residue_space(m, d)
    buf = stream.prefix(max_prefix)
    u = buf.letters
    n = u.size

    # residue code of the length-i prefix, for every i at once
    pcodes = np.zeros(n + 1, dtype=np.int64)
    weight = 1
    for a in range(d):
        cum = np.cumsum(u == a, dtype=np.int64)
        cum %= m
        pcodes[1:] += cum * weight
        weight *= m

    jobs = []
    for length in range(1, max_factor_len + 1):
        jobs.extend(_factor_groups(u, length, d))

    def run(job):
        factor, occ = job
        cov = _Coverage(m, d)
        cov.update(pcodes[occ], occ)
        return factor, cov.report(factor, int(occ.size), n)

    results = thread_map(run, jobs, threads)
    results.sort(key=lambda fr: (len(fr[0]), fr[0]))
    return dict(results)


@dataclass(frozen=True)
class PreservationCertificate:
    preserved: bool
    criterion: str          # "unimodular" | "letter-merging" | "none"
    determinant: int
    detail: str

    def __bool__(self) -> bool:
        return self.preserved


def preserves_welldoc(phi, m: int = 2) -> PreservationCertificate:
    """Does applying the morphism keep well-distributed occurrences?

    Two sufficient criteria: the incidence matrix has determinant +-1, or the
    morphism only renames letters onto a strictly smaller alphabet.  Both are
    uniform in the modulus, so ``m`` does not change the answer; it names the
    question being asked.  A False result means no guarantee from these
    criteria, not a refutation.
    """
    det = phi.determinant()
    if det in (1, -1):
        return PreservationCertificate(
            True, "unimodular", det,
            f"incidence matrix determinant {det}")
    if all(len(im) == 1 for im in phi.images):
        used = sorted({im[0] for im in phi.images})
        k = len(used)
        if k < phi.alphabet_size and used == list(range(k)):
            return PreservationCertificate(
                True, "letter-merging", det,
                f"renames {phi.alphabet_size} letters onto {k}")
    return PreservationCertificate(
        False, "none", det, "neither sufficient criterion applies")
