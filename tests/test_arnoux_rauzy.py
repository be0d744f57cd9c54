import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aprng.arnoux_rauzy import (ArnouxRauzyStream, BispecialChain, ar_stream,
                                iterated_palindromic_closure, next_bispecial,
                                palindromic_closure)
from aprng.errors import DirectiveError
from aprng.morphic import fibonacci_stream, tribonacci_stream
from aprng.streams import CycleStream
from aprng.words import as_word, parikh


def test_palindromic_closure_known():
    assert palindromic_closure("") == b""
    assert palindromic_closure("0") == b"\x00"
    assert palindromic_closure("01") == bytes([0, 1, 0])
    assert palindromic_closure("001") == bytes([0, 0, 1, 0, 0])
    assert palindromic_closure("0100") == bytes([0, 1, 0, 0, 1, 0])
    assert palindromic_closure(bytes([0, 1, 0])) == bytes([0, 1, 0])


@given(st.lists(st.integers(0, 2), min_size=0, max_size=14).map(bytes))
def test_palindromic_closure_is_shortest_palindrome(v):
    c = palindromic_closure(v)
    assert c[:len(v)] == v
    assert c == c[::-1]
    assert len(c) <= 2 * len(v) or not v
    # a length-k palindrome with prefix v exists iff the mirror constraint
    # is consistent on v itself; minimality says it never is below len(c)
    for k in range(len(v), len(c)):
        exists = all(v[i] == v[k - 1 - i]
                     for i in range(len(v)) if 0 <= k - 1 - i < len(v))
        assert not exists


def test_iterated_closure_builds_fibonacci_prefixes():
    # alternating directive letters build the Fibonacci word
    w = iterated_palindromic_closure([0, 1] * 8)
    assert bytes(fibonacci_stream().take(len(w))) == w


def test_iterated_closure_builds_tribonacci_prefixes():
    w = iterated_palindromic_closure([0, 1, 2] * 5)
    assert bytes(tribonacci_stream().take(len(w))) == w


def test_next_bispecial_matches_closure_oracle():
    rng = random.Random(11)
    cases = [bytes([0, 1] * 10), bytes([0, 1, 2] * 7)]
    for _ in range(60):
        d = rng.randint(2, 4)
        cases.append(bytes(rng.randrange(d) for _ in range(rng.randint(1, 20))))
    for directive in cases:
        d = max(directive) + 1
        chain = BispecialChain(d)
        oracle = b""
        for a in directive:
            got = next_bispecial(chain, a)
            oracle = palindromic_closure(oracle + bytes([a]))
            assert got == oracle
            assert chain.parikh_vectors[-1] == parikh(oracle, d)


def test_next_bispecial_rejects_out_of_range_letter():
    chain = BispecialChain(2)
    with pytest.raises(DirectiveError):
        next_bispecial(chain, 2)


def test_ar_stream_fibonacci_and_tribonacci():
    s = ar_stream(CycleStream(bytes([0, 1])))
    assert bytes(s.take(10000)) == bytes(fibonacci_stream().take(10000))
    t = ar_stream(CycleStream(bytes([0, 1, 2])))
    assert bytes(t.take(10000)) == bytes(tribonacci_stream().take(10000))


def test_ar_stream_seek_and_fork():
    s = ar_stream(CycleStream(bytes([0, 1, 2])))
    ref = bytes(s.take(5000))
    s.seek(1234)
    assert bytes(s.take(100)) == ref[1234:1334]
    f = s.fork()
    assert f.position == 0
    assert bytes(f.take(500)) == ref[:500]


def test_ar_stream_prefix_parikh():
    s = ar_stream(CycleStream(bytes([0, 1, 2])))
    ref = bytes(s.take(5000))
    fresh = ar_stream(CycleStream(bytes([0, 1, 2])))
    for n in [0, 1, 17, 4999, 5000]:
        assert fresh.prefix_parikh(n) == parikh(ref[:n], 3)


def test_ar_stream_rejects_starved_directive():
    # a directive that never mentions letter 2 cannot drive a 3-letter word
    with pytest.raises(DirectiveError):
        ar_stream(CycleStream(bytes([0, 1]), alphabet_size=3))


def test_unbalanced_directive_still_works():
    s = ar_stream(CycleStream(bytes([0, 0, 0, 1])))
    w = bytes(s.take(2000))
    assert set(w) == {0, 1}
    # cross-check against the definitional construction
    oracle = iterated_palindromic_closure(bytes([0, 0, 0, 1] * 5))
    assert w[:min(2000, len(oracle))] == oracle[:2000]


def test_fork_keeps_check_horizon():
    # letter 2 first appears at index 1200, past the default horizon
    directive = CycleStream(bytes([0, 1] * 600 + [2]))
    with pytest.raises(DirectiveError):
        ArnouxRauzyStream(directive)
    s = ArnouxRauzyStream(directive, check_horizon=2000)
    f = s.fork()
    assert bytes(f.take(3000)) == bytes(s.take(3000))


def bispecial_chain(pattern: bytes, min_len: int) -> BispecialChain:
    chain = BispecialChain(max(pattern) + 1)
    i = 0
    while len(chain.words[-1]) < min_len:
        next_bispecial(chain, pattern[i % len(pattern)])
        i += 1
    return chain


@pytest.mark.parametrize("pattern", ["01", "012"])
@pytest.mark.parametrize("cap", [5000, 1 << 22])
def test_far_access_around_the_materialized_head(pattern, cap):
    from aprng.rotation import fibonacci_rotation, rotation_letter
    pattern = as_word(pattern)
    chain = bispecial_chain(pattern, max(cap + 1, 1 << 20))
    oracle = chain.words[-1]
    d = len(pattern)
    buf_len = max(len(w) for w in chain.words if len(w) <= cap)
    positions = {buf_len + e for e in (-1, 0, 1)}
    positions.update(k * 1024 + e for k in (1, 2, 3, 4, 1024) for e in (-1, 0, 1))
    rng = random.Random(cap)
    positions.update(int(10 ** rng.uniform(0, 15)) for _ in range(40))
    positions.add(10 ** 15)
    s = ArnouxRauzyStream(CycleStream(pattern), materialize_cap=cap)
    ref = ArnouxRauzyStream(CycleStream(pattern), materialize_cap=1 << 12)
    coding = fibonacci_rotation().coding
    for pos in sorted(positions):
        letter = s.letter_at(pos)
        follow = bytes(s.take(8))
        before, after = s.prefix_parikh(pos), s.prefix_parikh(pos + 1)
        assert [y - x for x, y in zip(before, after)] == \
            [int(a == letter) for a in range(d)], pos
        assert sum(before) == pos
        if pos + 9 <= len(oracle):
            assert oracle[pos] == letter and oracle[pos + 1:pos + 9] == follow
        if d == 2:
            assert letter == rotation_letter(coding, pos)
        assert (ref.letter_at(pos), bytes(ref.take(8)), ref.prefix_parikh(pos)) \
            == (letter, follow, before), pos
    for w, vec in zip(chain.words, chain.parikh_vectors):
        assert s.prefix_parikh(len(w)) == vec
