import json

import pytest

from aprng import welldoc
from aprng.errors import ParameterError
from aprng.morphic import (FIBONACCI, THUE_MORSE, TRIBONACCI, FixedPointStream,
                           Morphism, fibonacci_stream, tribonacci_stream)
from aprng.streams import CycleStream
from aprng.welldoc import (COVERED, UNDETERMINED, WelldocQuery, preserves_welldoc,
                           welldoc_check, welldoc_scan)


def thue_morse_stream():
    return FixedPointStream(THUE_MORSE, 0)


def naive_vectors(u: bytes, factor: bytes, m: int, d: int):
    """Definitional scan: residue vector of the prefix before each occurrence."""
    occs = [i for i in range(len(u) - len(factor) + 1)
            if u[i:i + len(factor)] == factor]
    out = {}
    for i in occs:
        vec = tuple(u[:i].count(a) % m for a in range(d))
        out.setdefault(vec, []).append(i)
    return occs, out


def test_thue_morse_00_parity_lock():
    rep = welldoc_check(WelldocQuery(thue_morse_stream(), b"\x00\x00", 2, 10 ** 5))
    assert rep.verdict == UNDETERMINED
    assert set(rep.covered) == {(0, 1), (1, 0)}
    assert set(rep.missing) == {(0, 0), (1, 1)}
    assert all(sum(v) % 2 == 1 for v in rep.covered)
    assert rep.witnesses[(0, 1)] == (5, 9)
    assert rep.witnesses[(1, 0)] == (23, 39)
    assert rep.prefix_scanned == 10 ** 5


@pytest.mark.parametrize("make,factor,m", [
    (thue_morse_stream, b"\x00\x00", 2),
    (fibonacci_stream, b"\x00\x01", 3),
    (tribonacci_stream, b"\x01\x00\x02", 2),
    (fibonacci_stream, b"\x00", 4),
])
def test_check_matches_definitional_oracle(make, factor, m):
    n = 10 ** 4
    s = make()
    u = bytes(s.fork().take(n))
    occs, vecs = naive_vectors(u, factor, m, s.alphabet_size)
    rep = welldoc_check(WelldocQuery(make(), factor, m, n))
    assert set(rep.covered) == set(vecs)
    assert set(rep.missing) == {v for v in _all_vectors(m, s.alphabet_size)
                                if v not in vecs}
    assert rep.occurrences_seen == len(occs)
    assert rep.prefix_scanned == n
    assert rep.witnesses == {v: tuple(idx[:2]) for v, idx in vecs.items()}


def _all_vectors(m, d):
    vecs = [()]
    for _ in range(d):
        vecs = [v + (r,) for r in range(m) for v in vecs]
    return {tuple(reversed(v)) for v in vecs}


def test_budget_growth_flips_undetermined_to_covered():
    tight = welldoc_check(WelldocQuery(fibonacci_stream(), b"\x00", 2, 2))
    assert tight.verdict == UNDETERMINED
    assert set(tight.covered) == {(0, 0)}
    roomy = welldoc_check(WelldocQuery(fibonacci_stream(), b"\x00", 2, 100))
    assert roomy.verdict == COVERED
    assert not roomy.missing
    assert roomy.witnesses[(0, 0)] == (0, 10)
    assert roomy.witnesses[(1, 1)] == (2, 8)
    assert roomy.witnesses[(0, 1)] == (3, 7)
    assert roomy.witnesses[(1, 0)] == (5, 11)


def test_witnesses_stable_when_budget_doubles():
    a = welldoc_check(WelldocQuery(fibonacci_stream(), b"\x00\x01", 3, 5000))
    b = welldoc_check(WelldocQuery(fibonacci_stream(), b"\x00\x01", 3, 10000))
    assert a.verdict == COVERED and b.verdict == COVERED
    assert a.witnesses == b.witnesses
    assert all(len(w) == 2 for w in a.witnesses.values())


def test_scan_agrees_with_per_factor_checks():
    n = 10 ** 4
    reports = welldoc_scan(fibonacci_stream(), 2, 3, max_prefix=n)
    # the golden word has exactly k+1 distinct factors of each length k
    for k in (1, 2, 3):
        assert sum(1 for f in reports if len(f) == k) == k + 1
    for factor, rep in reports.items():
        solo = welldoc_check(WelldocQuery(fibonacci_stream(), factor, 2, n))
        assert rep.verdict == solo.verdict
        assert rep.covered == solo.covered
        assert rep.missing == solo.missing
        assert rep.occurrences_seen == solo.occurrences_seen
        assert rep.witnesses == solo.witnesses


def test_early_exit_stops_before_large_budget():
    rep = welldoc_check(WelldocQuery(fibonacci_stream(), b"\x00", 2, 10 ** 7))
    assert rep.verdict == COVERED
    assert rep.prefix_scanned < 10 ** 7
    assert all(len(w) == 2 for w in rep.witnesses.values())
    assert rep.occurrences_seen <= rep.prefix_scanned


def test_residue_space_cap():
    with pytest.raises(ParameterError):
        WelldocQuery(fibonacci_stream(), b"\x00", 300, 10 ** 4)   # 300^2 > 2^16
    with pytest.raises(ParameterError):
        welldoc_scan(fibonacci_stream(), 300, 1)
    with pytest.raises(ParameterError):
        WelldocQuery(tribonacci_stream(), b"\x00", 41, 10 ** 4)   # 41^3 > 2^16
    # 256^2 sits exactly on the cap and is allowed
    WelldocQuery(fibonacci_stream(), b"\x00", 256, 10 ** 4)


def test_query_validation():
    with pytest.raises(ParameterError):
        WelldocQuery(fibonacci_stream(), b"", 2, 100)
    with pytest.raises(ParameterError):
        WelldocQuery(fibonacci_stream(), b"\x00", 1, 100)
    with pytest.raises(ParameterError):
        WelldocQuery(fibonacci_stream(), b"\x00\x01", 2, 2)
    with pytest.raises(ParameterError):
        welldoc_scan(fibonacci_stream(), 1, 2)
    with pytest.raises(ParameterError):
        welldoc_scan(fibonacci_stream(), 2, 0)
    with pytest.raises(ParameterError):
        welldoc_scan(fibonacci_stream(), 2, 5, max_prefix=5)


def test_report_as_dict_is_json_ready():
    rep = welldoc_check(WelldocQuery(thue_morse_stream(), b"\x00\x00", 2, 1000))
    d = rep.as_dict()
    assert d["factor"] == "00"
    assert d["verdict"] == UNDETERMINED
    assert [0, 0] in d["missing"]
    assert d["witnesses"]["0 1"] == [5, 9]
    json.dumps(d)


def test_preservation_certificates():
    fib = preserves_welldoc(FIBONACCI)
    assert (fib.preserved, fib.criterion, fib.determinant) == (True, "unimodular", -1)
    trib = preserves_welldoc(TRIBONACCI)
    assert (trib.preserved, trib.criterion, trib.determinant) == (True, "unimodular", 1)
    tm = preserves_welldoc(THUE_MORSE)
    assert (tm.preserved, tm.criterion, tm.determinant) == (False, "none", 0)
    assert bool(fib) and not bool(tm)
    merge = preserves_welldoc(Morphism.from_text("0->0,1->1,2->0"))
    assert (merge.preserved, merge.criterion) == (True, "letter-merging")
    # a length-1 rename that skips letter 0 compacts nothing it can certify
    skew = preserves_welldoc(Morphism.from_text("0->1,1->1"))
    assert (skew.preserved, skew.criterion) == (False, "none")
    # the modulus names the question but never changes the answer
    assert preserves_welldoc(FIBONACCI, m=7).criterion == "unimodular"


def three_letter_stream():
    return FixedPointStream(Morphism.from_text("0->01,1->20,2->1"), 0)


def cycle_stream():
    return CycleStream(b"\x00\x01\x00\x02\x01", 3)


def by_code(vecs):
    """Residue vectors in the order of their code sum(v[a] * m^a)."""
    return sorted(vecs, key=lambda v: v[::-1])


def naive_report(u: bytes, factor: bytes, m: int, d: int) -> dict:
    """The fields of a report over u, from the definitional scan."""
    occs, vecs = naive_vectors(u, factor, m, d)
    return {"covered": by_code(vecs),
            "missing": by_code(_all_vectors(m, d) - set(vecs)),
            "occurrences_seen": len(occs),
            "witnesses": [(v, tuple(vecs[v][:2])) for v in by_code(vecs)]}


def report_fields(rep) -> dict:
    return {"covered": list(rep.covered), "missing": list(rep.missing),
            "occurrences_seen": rep.occurrences_seen,
            "witnesses": list(rep.witnesses.items())}


ENGINE_WORDS = [
    (fibonacci_stream, 3, 6),
    (tribonacci_stream, 2, 5),
    (thue_morse_stream, 2, 5),
    (three_letter_stream, 2, 5),
    (cycle_stream, 3, 4),
]


@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("n", [280, 301])
@pytest.mark.parametrize("make,m,max_len", ENGINE_WORDS)
def test_scan_matches_definitional_oracle_across_chunks(
        monkeypatch, make, m, max_len, n, chunk):
    # n = 280 ends on a 7-letter chunk boundary, n = 301 does not; the
    # windows that end exactly at n are counted in the final chunk
    monkeypatch.setattr(welldoc, "_CHUNK", chunk)
    s = make()
    d = s.alphabet_size
    u = bytes(s.fork().take(n))
    factors = {u[i:i + k] for k in range(1, max_len + 1)
               for i in range(n - k + 1)}
    reports = welldoc_scan(make(), m, max_len, max_prefix=n)
    assert list(reports) == sorted(factors, key=lambda f: (len(f), f))
    for f, rep in reports.items():
        assert report_fields(rep) == naive_report(u, f, m, d), f
        assert rep.verdict == (COVERED if not rep.missing else UNDETERMINED)
        assert rep.prefix_scanned == n


@pytest.mark.parametrize("chunk", [7, 64, 1 << 20])
def test_scan_of_factors_past_63_bit_codes(monkeypatch, chunk):
    # 3^40 > 2^63: tribonacci factors of length 40 have no int64 code
    monkeypatch.setattr(welldoc, "_CHUNK", chunk)
    n, max_len = 150, 40
    u = bytes(tribonacci_stream().take(n))
    reports = welldoc_scan(tribonacci_stream(), 2, max_len, max_prefix=n)
    longest = [f for f in reports if len(f) == max_len]
    assert sorted(longest) == sorted({u[i:i + max_len]
                                      for i in range(n - max_len + 1)})
    for f in longest + [f for f in reports if len(f) == 33]:
        assert report_fields(reports[f]) == naive_report(u, f, 2, 3), f


def expected_check(u: bytes, factor: bytes, m: int, d: int, chunk: int,
                   budget: int) -> dict:
    """The report of a check that reads ``chunk`` letters at a time and
    stops after the first chunk in which every vector has two witnesses."""
    taken = 0
    while True:
        taken = min(taken + chunk, budget)
        occs, vecs = naive_vectors(u[:taken], factor, m, d)
        if taken == budget or (len(vecs) == m ** d and
                               all(len(v) >= 2 for v in vecs.values())):
            return dict(naive_report(u[:taken], factor, m, d),
                        prefix_scanned=taken)


def check_fields(rep) -> dict:
    return dict(report_fields(rep), prefix_scanned=rep.prefix_scanned)


@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("make,factor,m", [
    (fibonacci_stream, b"\x00", 2),
    (fibonacci_stream, b"\x01\x00\x01", 2),
    (tribonacci_stream, b"\x00\x01", 2),
    (thue_morse_stream, b"\x00\x00", 2),
    (three_letter_stream, b"\x02\x01", 2),
    (cycle_stream, b"\x01\x00\x02", 3),
])
def test_check_matches_chunked_oracle(monkeypatch, make, factor, m, chunk):
    monkeypatch.setattr(welldoc, "_CHUNK", chunk)
    n = 700
    s = make()
    u = bytes(s.fork().take(n))
    rep = welldoc_check(WelldocQuery(make(), factor, m, n))
    assert check_fields(rep) == expected_check(
        u, factor, m, s.alphabet_size, chunk, n)


def test_check_early_stop_on_a_chunk_boundary(monkeypatch):
    factor, m, n = b"\x00\x01", 2, 2000
    u = bytes(fibonacci_stream().take(n))
    _, vecs = naive_vectors(u, factor, m, 2)
    last = max(idx[1] for idx in vecs.values())   # completes the coverage
    end = last + len(factor)
    # the completing window is the last one a chunk of `end` letters holds,
    # and the first one a chunk of `end - 1` letters leaves out
    for chunk, scanned in ((end, end), (end - 1, 2 * (end - 1))):
        monkeypatch.setattr(welldoc, "_CHUNK", chunk)
        rep = welldoc_check(WelldocQuery(fibonacci_stream(), factor, m, n))
        assert rep.verdict == COVERED
        assert rep.prefix_scanned == scanned < n
        assert check_fields(rep) == expected_check(u, factor, m, 2, chunk, n)


@pytest.mark.parametrize("chunk", [7, 64, 1 << 20])
def test_check_of_absent_factor(monkeypatch, chunk):
    monkeypatch.setattr(welldoc, "_CHUNK", chunk)
    rep = welldoc_check(WelldocQuery(fibonacci_stream(), b"\x01\x01", 2, 500))
    assert rep.verdict == UNDETERMINED
    assert rep.covered == () and len(rep.missing) == 4
    assert rep.occurrences_seen == 0 and rep.witnesses == {}
    assert rep.prefix_scanned == 500


@pytest.mark.parametrize("make,m", [(thue_morse_stream, 2),
                                    (fibonacci_stream, 3),
                                    (three_letter_stream, 2)])
def test_scan_and_check_agree_across_chunks(monkeypatch, make, m):
    monkeypatch.setattr(welldoc, "_CHUNK", 64)
    n = 1000
    for f, rep in welldoc_scan(make(), m, 3, max_prefix=n).items():
        solo = welldoc_check(WelldocQuery(make(), f, m, n))
        if solo.prefix_scanned == n:
            assert solo == rep
        else:
            # stopped early, after a whole chunk: it reports what a scan of
            # the letters it read reports
            assert solo.prefix_scanned % 64 == 0
            assert solo.verdict == COVERED
            part = welldoc_scan(make(), m, len(f), solo.prefix_scanned)
            assert solo == part[f]


def sparse_cycle_stream():
    # one period holds letter 1 at 0 and 100 only, so both cells of factor 1
    # get their first hit early and their second after 6000 letters
    return CycleStream(bytes(1 if i in (0, 100) else 0 for i in range(6000)), 2)


@pytest.mark.parametrize("make,m,n", [(fibonacci_stream, 32, 60000),
                                      (sparse_cycle_stream, 2, 20000)])
def test_witnesses_past_the_first_search_prefix(make, m, n):
    # the second hit of some cells lies beyond the first 4096 windows of
    # the chunk, so the witness search has to widen
    u = bytes(make().take(n))
    ones = [0]
    for a in u:
        ones.append(ones[-1] + a)
    reports = welldoc_scan(make(), m, 2, max_prefix=n)
    late = 0
    for f, rep in reports.items():
        vecs = {}
        for i in range(n - len(f) + 1):
            if u[i:i + len(f)] == f:
                vecs.setdefault(((i - ones[i]) % m, ones[i] % m), []).append(i)
        assert list(rep.witnesses.items()) == [(v, tuple(vecs[v][:2]))
                                               for v in by_code(vecs)]
        assert rep.occurrences_seen == sum(map(len, vecs.values()))
        late += sum(1 for w in rep.witnesses.values() if w[-1] >= 1 << 12)
    assert late > 0
