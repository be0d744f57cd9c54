import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aprng import morphic
from aprng.errors import AlphabetError, ParameterError
from aprng.morphic import (FIBONACCI, THUE_MORSE, TRIBONACCI, FixedPointStream,
                           InterleavedStream, MergedStream, Morphism,
                           fibonacci_stream, iterate_fixed_point, naive_stream,
                           tribonacci_stream)

FIB_PREFIX = "01001010010010100101001001010010"


def random_prolongable(rng, d_max=4):
    while True:
        d = rng.randint(1, d_max)
        images = []
        for a in range(d):
            length = rng.randint(1, 4)
            images.append([rng.randrange(d) for _ in range(length)])
        images[0] = [0] + images[0][:3] if images[0][:1] != [0] else images[0]
        if len(images[0]) < 2:
            images[0] = [0, rng.randrange(d)]
        try:
            phi = Morphism(images)
        except (AlphabetError, ValueError):
            continue
        if phi.is_prolongable(0):
            return phi


def test_morphism_validation():
    with pytest.raises(ValueError):
        Morphism(["01", ""])
    with pytest.raises(AlphabetError):
        Morphism(["02"])
    with pytest.raises(AlphabetError):
        Morphism([])


def test_morphism_apply_and_text():
    assert FIBONACCI.apply("0") == b"\x00\x01"
    assert FIBONACCI.apply("01") == bytes([0, 1, 0])
    assert FIBONACCI.to_text() == "0->01,1->0"
    assert Morphism.from_text("0->01,1->0") == FIBONACCI
    assert Morphism.from_text(TRIBONACCI.to_text()) == TRIBONACCI


def test_adjacency_matrix_maps_parikh():
    from aprng.words import parikh
    m = TRIBONACCI.adjacency_matrix()
    w = bytes([0, 1, 2, 0, 1])
    before = np.array(parikh(w, 3), dtype=np.int64)
    after = np.array(parikh(TRIBONACCI.apply(w), 3), dtype=np.int64)
    assert np.array_equal(m @ before, after)


def test_determinant_known_values():
    assert FIBONACCI.determinant() == -1
    assert TRIBONACCI.determinant() == 1
    assert THUE_MORSE.determinant() == 0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_determinant_matches_float(seed):
    rng = random.Random(seed)
    phi = random_prolongable(rng)
    exact = phi.determinant()
    approx = np.linalg.det(phi.adjacency_matrix().astype(np.float64))
    assert exact == round(approx)


def test_fibonacci_prefix_exact():
    s = fibonacci_stream()
    assert bytes(s.take(32)) == bytes(int(c) for c in FIB_PREFIX)


def test_fibonacci_has_n_plus_1_factors_of_each_length():
    # n+1 distinct factors of each length n is the Sturmian signature; a
    # 4000-letter prefix witnesses it for small n
    p = bytes(fibonacci_stream().take(4000))
    for n in range(1, 13):
        assert len({p[i:i + n] for i in range(len(p) - n + 1)}) == n + 1


def test_fibonacci_special_factors_are_reversed_prefixes():
    # a Sturmian word has one right special factor per length, and those of
    # the Fibonacci word are its reversed prefixes
    p = bytes(fibonacci_stream().take(4000))
    for n in range(6):
        extended = {p[i:i + n + 1] for i in range(len(p) - n)}
        special = {w[:n] for w in extended
                   if {w[:n] + b"\x00", w[:n] + b"\x01"} <= extended}
        assert special == {p[:n][::-1]}


def test_iterate_fixed_point_agrees_with_stream():
    w = iterate_fixed_point(FIBONACCI, 0, 100)
    assert len(w) >= 100
    assert bytes(fibonacci_stream().take(100)) == w[:100]


def test_block_stream_equals_naive_small():
    for phi, seed in [(FIBONACCI, 0), (TRIBONACCI, 0), (THUE_MORSE, 0),
                      (THUE_MORSE, 1)]:
        fast = FixedPointStream(phi, seed)
        slow = naive_stream(phi, seed)
        assert bytes(fast.take(5000)) == bytes(slow.take(5000))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_block_stream_equals_naive_random(seed):
    rng = random.Random(seed)
    phi = random_prolongable(rng)
    fast = FixedPointStream(phi, 0)
    slow = naive_stream(phi, 0)
    assert bytes(fast.take(2000)) == bytes(slow.take(2000))


def test_non_prolongable_seed_rejected():
    with pytest.raises((ParameterError, ValueError)):
        FixedPointStream(FIBONACCI, 1)
    with pytest.raises((ParameterError, ValueError)):
        FixedPointStream(Morphism(["10", "0"]), 0)


def test_letter_at_matches_sequential():
    s = fibonacci_stream()
    ref = bytes(s.take(20000))
    fresh = fibonacci_stream()
    for pos in [0, 1, 17, 100, 4181, 6765, 19999]:
        assert fresh.letter_at(pos) == ref[pos]
    # interleaved random access and sequential reads stay coherent
    fresh.seek(10)
    assert bytes(fresh.take(10)) == ref[10:20]


def test_random_access_refuses_positions_past_the_level_bound(monkeypatch):
    monkeypatch.setattr(morphic, "_MAX_LEVELS", 8)
    s = FixedPointStream(Morphism(["01", "1"]), 0)      # 0 1 1 1 ...
    refused = 1 + s.power * 8   # |psi^8(0)|: the first position 8 levels down
    assert s.letter_at(refused - 1) == 1
    assert s.prefix_parikh(refused - 1) == (1, refused - 2)
    for far in (refused, 10 ** 9):
        with pytest.raises(ParameterError, match=f"position {far} "):
            s.fork().letter_at(far)
        with pytest.raises(ParameterError, match=f"position {far} "):
            s.prefix_parikh(far)
    # sequential reading builds no level tables, so it is not refused
    fresh = FixedPointStream(Morphism(["01", "1"]), 0)
    assert bytes(fresh.take(refused + 5000)) == b"\0" + b"\1" * (refused + 4999)


def test_prefix_parikh_exact():
    s = tribonacci_stream()
    ref = np.frombuffer(bytes(s.take(30000)), dtype=np.uint8)
    fresh = tribonacci_stream()
    for n in [0, 1, 2, 13, 927, 29999, 30000]:
        expect = tuple(int(c) for c in np.bincount(ref[:n], minlength=3))
        assert fresh.prefix_parikh(n) == expect


def test_fork_is_independent():
    s = fibonacci_stream()
    s.take(100)
    f = s.fork()
    assert f.position == 0
    a = bytes(f.take(50))
    assert bytes(fibonacci_stream().take(50)) == a
    assert s.position == 100


def test_block_cap_changes_nothing():
    for cap in [2, 3, 64, 4096]:
        s = FixedPointStream(FIBONACCI, 0, block_cap=cap)
        assert bytes(s.take(2000)) == bytes(fibonacci_stream().take(2000))


def test_merge_projects_letters():
    s = MergedStream(tribonacci_stream(), (0, 1, 0))
    t = tribonacci_stream()
    ref = bytes(t.take(1000))
    assert bytes(s.take(1000)) == bytes((0, 1, 0)[a] for a in ref)
    assert s.alphabet_size == 2
    with pytest.raises(AlphabetError):
        MergedStream(tribonacci_stream(), (0, 2, 0))
    with pytest.raises(AlphabetError):
        MergedStream(tribonacci_stream(), (0, 1))


def test_merge_prefix_parikh():
    s = MergedStream(tribonacci_stream(), (0, 1, 0))
    ref = bytes(s.take(5000))
    fresh = MergedStream(tribonacci_stream(), (0, 1, 0))
    assert fresh.prefix_parikh(3777) == (ref[:3777].count(0), ref[:3777].count(1))


def test_interleave_inserts_fresh_letter():
    s = InterleavedStream(fibonacci_stream(), 2)
    got = bytes(s.take(12))
    fib = bytes(fibonacci_stream().take(6))
    expect = bytes([fib[0], 2, fib[1], 2, fib[2], 2, fib[3], 2, fib[4], 2, fib[5], 2])
    assert got == expect
    assert s.alphabet_size == 3
    with pytest.raises(AlphabetError):
        InterleavedStream(fibonacci_stream(), 1)


def test_interleave_seek_and_parikh():
    s = InterleavedStream(fibonacci_stream(), 2)
    ref = bytes(s.take(9999))
    s.seek(1234)
    assert bytes(s.take(100)) == ref[1234:1334]
    counts = np.bincount(np.frombuffer(ref[:7001], np.uint8), minlength=3)
    fresh = InterleavedStream(fibonacci_stream(), 2)
    assert fresh.prefix_parikh(7001) == tuple(int(c) for c in counts)


def test_stack_depth_tracked():
    s = FixedPointStream(FIBONACCI, 0, block_cap=8)
    s.take(100000)
    assert s.max_stack_depth >= 1


# -- random access far out: the descent tables against independent oracles --

NONUNIFORM = Morphism(["01", "20", "1"])
FAR_MORPHISMS = {"fib": FIBONACCI, "trib": TRIBONACCI, "tm": THUE_MORSE,
                 "nonuniform": NONUNIFORM}
NAIVE_LEN = 1 << 20
FOLLOW = 600            # letters read on after each seek, across leaf refills
FAR_LIMIT = 10 ** 15


@pytest.fixture(scope="module")
def naive_prefixes():
    return {name: iterate_fixed_point(phi, 0, NAIVE_LEN)[:NAIVE_LEN]
            for name, phi in FAR_MORPHISMS.items()}


def image_length_edges(phi, limit):
    """|phi^j(0)| - 1, |phi^j(0)| and |phi^j(0)| + 1 for every j with
    |phi^j(0)| <= limit, from exact integer matrix powers.  Every table
    edge |psi^k(0)| of psi = phi^power is among them."""
    m = [[int(x) for x in row] for row in phi.adjacency_matrix()]
    vec = [int(a == 0) for a in range(phi.alphabet_size)]
    edges = set()
    while sum(vec) <= limit:
        n = sum(vec)
        edges.update((n - 1, n, n + 1))
        vec = [sum(m[i][j] * vec[j] for j in range(len(vec)))
               for i in range(len(vec))]
    return sorted(edges)


def far_positions(phi, seed):
    rng = random.Random(seed)
    spread = [int(10 ** rng.uniform(0, 15)) for _ in range(40)]
    return sorted(set(image_length_edges(phi, FAR_LIMIT) + spread + [FAR_LIMIT]))


def access_record(s, pos):
    letter = s.letter_at(pos)
    follow = bytes(s.take(FOLLOW))
    return letter, follow, s.prefix_parikh(pos), s.prefix_parikh(pos + 1)


@pytest.mark.parametrize("name", sorted(FAR_MORPHISMS))
@pytest.mark.parametrize("cap", [2, 3, 7, 4096])
def test_far_access_matches_oracles(name, cap, naive_prefixes):
    from aprng.rotation import fibonacci_rotation, rotation_letter
    phi = FAR_MORPHISMS[name]
    s = FixedPointStream(phi, 0, block_cap=cap)
    ref = FixedPointStream(phi, 0, block_cap=4096 if cap != 4096 else 3)
    naive = naive_prefixes[name]
    coding = fibonacci_rotation().coding
    d = phi.alphabet_size
    for pos in far_positions(phi, cap):
        letter, follow, before, after = rec = access_record(s, pos)
        assert [y - x for x, y in zip(before, after)] == \
            [int(a == letter) for a in range(d)], pos
        assert sum(before) == pos
        if pos + 1 + FOLLOW <= NAIVE_LEN:
            assert naive[pos] == letter
            assert naive[pos + 1:pos + 1 + FOLLOW] == follow
        if phi is FIBONACCI:
            assert letter == rotation_letter(coding, pos)
            assert follow[-1] == rotation_letter(coding, pos + FOLLOW)
        # a different block cap decomposes the word into other trees
        assert access_record(ref, pos) == rec, pos
    # one straight walk through every root restart below NAIVE_LEN
    assert bytes(FixedPointStream(phi, 0, block_cap=cap).take(NAIVE_LEN)) == naive


@pytest.mark.parametrize("cap", [5, 6, 8, 9, 10, 11])
def test_concurrent_seeks_on_fresh_tables(cap):
    # these block caps are used nowhere else, so the threads find empty tables
    positions = far_positions(TRIBONACCI, 1)
    ref = FixedPointStream(TRIBONACCI, 0)
    expect = [access_record(ref, p) for p in positions]
    base = FixedPointStream(TRIBONACCI, 0, block_cap=cap)
    streams = [base.fork() for _ in range(4)]
    orders = [positions if i % 2 else positions[::-1] for i in range(4)]
    results = [None] * 4
    barrier = threading.Barrier(4)

    def work(i):
        barrier.wait()
        results[i] = [access_record(streams[i], p) for p in orders[i]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for i in range(4):
        assert results[i] == (expect if i % 2 else expect[::-1])
