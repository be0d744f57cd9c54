"""Acceptance gate: twelve end-to-end criteria with runtime budgets.

Each test prints one ``AC<k> PASS`` line (visible under ``pytest -s`` or in
the ``-v`` listing via the test name) and asserts both the stated property
and its wall-clock budget.
"""
import random
import time

import numpy as np

from aprng.arnoux_rauzy import ArnouxRauzyStream, palindromic_closure
from aprng.cli import main
from aprng.lattice import consecutive_tuples, plane_count, search_normals
from aprng.morphic import (FIBONACCI, Morphism, THUE_MORSE, TRIBONACCI,
                           FixedPointStream, fibonacci_stream,
                           iterate_fixed_point, naive_stream)
from aprng.prng import ShuffledPrng, named_lcg
from aprng.rotation import fibonacci_rotation
from aprng.specs import parse_morphism_rules
from aprng.stats import chi_square_equidist
from aprng.streams import CycleStream
from aprng.welldoc import COVERED, WelldocQuery, welldoc_check, welldoc_scan
from sources import ConstantSource, RandomSource

FIB32 = "01001010010010100101001001010010"


def _finish(k: int, t0: float, budget: float, detail: str = "") -> None:
    dt = time.perf_counter() - t0
    assert dt < budget, f"AC{k} exceeded budget: {dt:.1f}s >= {budget}s"
    print(f"AC{k} PASS ({dt:.1f}s{', ' + detail if detail else ''})")


def _drain(stream, n: int, chunk: int = 1 << 22) -> None:
    left = n
    while left:
        step = min(left, chunk)
        stream.take(step)
        left -= step


def test_criterion_01_fibonacci_prefix(capsys):
    t0 = time.perf_counter()
    assert main(["word", "fib", "--count", "32"]) == 0
    out, _ = capsys.readouterr()
    assert out == FIB32 + "\n"
    with capsys.disabled():
        _finish(1, t0, 1.0)


def _random_expanding_morphism(rng: random.Random) -> tuple[Morphism, int]:
    """Prolongable morphism over d <= 4 letters, every image of length 2..3."""
    d = rng.choice([2, 3, 4])
    seed = rng.randrange(d)
    images = []
    for a in range(d):
        L = rng.choice([2, 3])
        img = [rng.randrange(d) for _ in range(L)]
        if a == seed:
            img[0] = seed
        images.append("".join(str(c) for c in img))
    text = ",".join(f"{a}->{img}" for a, img in enumerate(images))
    return Morphism(parse_morphism_rules(text)), seed


def test_criterion_02_block_equals_naive_iteration(capsys):
    t0 = time.perf_counter()
    n = 10 ** 6
    rng = random.Random(20260822)
    cases = [(FIBONACCI, 0),
             (Morphism(parse_morphism_rules("0->01,1->02,2->0")), 0)]
    cases += [_random_expanding_morphism(rng) for _ in range(5)]
    for phi, seed in cases:
        oracle = np.frombuffer(iterate_fixed_point(phi, seed, n)[:n], dtype=np.uint8)
        got = FixedPointStream(phi, seed).take(n)
        assert np.array_equal(got, oracle), phi.to_text()
    with capsys.disabled():
        _finish(2, t0, 10.0, f"{len(cases)} morphisms x 1e6 letters")


def test_criterion_03_random_access_coherence(capsys):
    t0 = time.perf_counter()
    rng = random.Random(987654321)
    positions = sorted(rng.randrange(10 ** 9) for _ in range(100))
    sequential = {}
    walker = fibonacci_stream()
    base, i = 0, 0
    while i < len(positions):
        block = walker.take(1 << 22)
        top = base + block.size
        while i < len(positions) and positions[i] < top:
            sequential[positions[i]] = int(block[positions[i] - base])
            i += 1
        base = top
    jumper = fibonacci_stream()
    for pos in positions:
        assert jumper.letter_at(pos) == sequential[pos], pos
    with capsys.disabled():
        _finish(3, t0, 60.0, "100 positions < 1e9")


def test_criterion_04_block_speedup(capsys):
    t0 = time.perf_counter()
    n = 10 ** 8
    s = FixedPointStream(FIBONACCI, 0)
    tb = time.perf_counter()
    _drain(s, n)
    block_time = time.perf_counter() - tb
    s2 = naive_stream(FIBONACCI, 0)
    tn = time.perf_counter()
    _drain(s2, n)
    naive_time = time.perf_counter() - tn
    ratio = naive_time / block_time
    assert ratio >= 20.0, f"speedup only {ratio:.1f}x"
    with capsys.disabled():
        _finish(4, t0, 300.0, f"speedup {ratio:.0f}x over 1e8 letters")


def test_criterion_05_randu_lattice_defect(capsys):
    t0 = time.perf_counter()
    g = named_lcg("randu")
    tuples = consecutive_tuples(g, 10 ** 6, 3)
    rep = plane_count(tuples, (9, -6, 1), g.out_range)
    assert rep.plane_count <= 15
    assert rep.comparison > 15
    with capsys.disabled():
        _finish(5, t0, 30.0,
                f"{rep.plane_count} planes vs {rep.comparison} full classes")


def test_criterion_06_thue_morse_welldoc_failure(capsys):
    t0 = time.perf_counter()
    stream = FixedPointStream(THUE_MORSE, 0)
    rep = welldoc_check(WelldocQuery(stream, b"\x00\x00", 2, 10 ** 6))
    assert rep.verdict != COVERED
    assert (0, 0) in rep.missing
    assert rep.covered
    assert all(sum(vec) % 2 == 1 for vec in rep.covered)
    with capsys.disabled():
        _finish(6, t0, 10.0, "vector (0,0) unreachable; all hits odd-sum")


def test_criterion_07_sturmian_ar_welldoc_coverage(capsys):
    t0 = time.perf_counter()
    checked = 0
    for m in (2, 3, 5):
        reports = welldoc_scan(fibonacci_stream(), m, 6, 10 ** 7)
        assert len(reports) == 27          # Sturmian complexity: n+1 factors
        for factor, rep in reports.items():
            assert rep.verdict == COVERED, (m, factor)
        checked += len(reports)
    for m in (2, 3):
        reports = welldoc_scan(FixedPointStream(TRIBONACCI, 0), m, 4, 10 ** 7)
        assert len(reports) == 24          # AR complexity: 2n+1 factors
        for factor, rep in reports.items():
            assert rep.verdict == COVERED, (m, factor)
        checked += len(reports)
    with capsys.disabled():
        _finish(7, t0, 600.0, f"{checked} factor/modulus checks all covered")


def test_criterion_08_rotation_matches_morphic(capsys):
    t0 = time.perf_counter()
    n = 10 ** 6
    assert np.array_equal(fibonacci_rotation().take(n), fibonacci_stream().take(n))
    with capsys.disabled():
        _finish(8, t0, 60.0, "1e6 letters identical")


def _check_bispecial_chain(directive: list[int], d: int) -> None:
    # the appended letters make the directive valid and leave the first
    # len(directive) bispecial prefixes b_i unchanged
    s = ArnouxRauzyStream(CycleStream(bytes(directive) + bytes(range(d))))
    words = [b""]
    vectors = [(0,) * d]
    for i, letter in enumerate(directive):
        expect = palindromic_closure(words[-1] + bytes([letter]))
        s.seek(0)
        assert bytes(s.take(len(expect))) == expect, (directive[:i + 1], d)
        vec = s.prefix_parikh(len(expect))
        assert vec == tuple(expect.count(bytes([a])) for a in range(d))
        if letter in words[i]:
            j = max(k for k in range(i) if directive[k] == letter)
            assert vec == tuple(2 * b - bj for b, bj in zip(vectors[i], vectors[j]))
        words.append(expect)
        vectors.append(vec)


def test_criterion_09_closure_equivalence_and_parikh_recurrence(capsys):
    t0 = time.perf_counter()
    steps = 21                              # covers chain indices i <= 20
    _check_bispecial_chain([i % 2 for i in range(steps)], 2)
    _check_bispecial_chain([i % 3 for i in range(steps)], 3)
    rng = random.Random(4951)
    for _ in range(100):
        d = rng.choice([2, 3, 4])
        _check_bispecial_chain([rng.randrange(d) for _ in range(steps)], d)
    with capsys.disabled():
        _finish(9, t0, 10.0, "102 directive chains, 21 steps each")


def test_criterion_10_shuffle_conservation(capsys):
    t0 = time.perf_counter()
    n = 10 ** 6
    z = ShuffledPrng(fibonacci_stream(),
                     [named_lcg("l64_28"), named_lcg("l64_32")])
    left = n
    while left:
        step = min(left, 1 << 20)
        z.outputs(step)
        left -= step
    expect = fibonacci_stream().prefix_parikh(n)
    assert tuple(z.counters) == expect
    assert sum(z.counters) == n
    with capsys.disabled():
        _finish(10, t0, 10.0, f"counters {tuple(z.counters)}")


def test_criterion_11_shuffle_removes_lattice_structure(capsys):
    t0 = time.perf_counter()
    z = ShuffledPrng(fibonacci_stream(),
                     [named_lcg("l64_28"), named_lcg("l64_32")])
    shuffled = search_normals(consecutive_tuples(z, 10 ** 6, 3),
                              z.out_range, bound=10)
    assert len(shuffled) == 4630            # every t=3 normal up to bound 10
    assert all(r.plane_count >= 0.5 * r.comparison for r in shuffled)
    g = named_lcg("randu")
    bare = search_normals(consecutive_tuples(g, 10 ** 6, 3),
                          g.out_range, bound=10)
    defective = [r for r in bare
                 if r.plane_count <= 15 and r.plane_count < r.comparison]
    assert defective, "search failed to reproduce the known defect"
    with capsys.disabled():
        _finish(11, t0, 300.0,
                f"shuffled min ratio {shuffled[0].ratio:.3f}; "
                f"bare best {defective[0].normal} -> {defective[0].plane_count}")


def test_criterion_12_statistical_calibration(capsys):
    t0 = time.perf_counter()
    rep = chi_square_equidist(ConstantSource(12345), 64, 10 ** 5)
    assert rep.p_value < 1e-6
    passed = 0
    for seed in range(100):
        p = chi_square_equidist(RandomSource(seed), 64, 10 ** 5).p_value
        if 0.001 <= p <= 0.999:
            passed += 1
    assert passed >= 95, f"only {passed}/100 calibrated runs passed"
    with capsys.disabled():
        _finish(12, t0, 120.0, f"constant rejected; {passed}/100 calibrated")
