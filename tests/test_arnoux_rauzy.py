import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aprng import arnoux_rauzy
from aprng.arnoux_rauzy import (ArnouxRauzyStream, iterated_palindromic_closure,
                                palindromic_closure)
from aprng.errors import DirectiveError
from aprng.morphic import (FixedPointStream, Morphism, fibonacci_stream,
                           iterate_fixed_point, tribonacci_stream)
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


def test_palindromic_suffix_survives_hash_collisions():
    # Thue-Morse then its complement: the rolling hashes of the suffixes at
    # 0, 1024, 2048, 3072 and 5120 equal those of their mirrors, but none of
    # them is a palindrome; only the direct comparison finds 4096
    tm = bytes(bin(i).count("1") % 2 for i in range(4096))
    v = tm + bytes(1 - a for a in tm)
    brute = next(s for s in range(len(v) + 1) if v[s:] == v[s:][::-1])
    assert brute == 4096
    assert arnoux_rauzy._longest_palindromic_suffix_start(v) == brute
    closure = next(c for k in range(len(v) + 1)
                   if (c := v + v[:k][::-1]) == c[::-1])
    assert palindromic_closure(v) == closure


def test_iterated_closure_builds_fibonacci_prefixes():
    # alternating directive letters build the Fibonacci word
    w = iterated_palindromic_closure([0, 1] * 8)
    assert bytes(fibonacci_stream().take(len(w))) == w


def test_iterated_closure_builds_tribonacci_prefixes():
    w = iterated_palindromic_closure([0, 1, 2] * 5)
    assert bytes(tribonacci_stream().take(len(w))) == w


def test_bispecial_prefixes_match_closure_oracle():
    rng = random.Random(11)
    cases = [bytes([0, 1] * 10), bytes([0, 1, 2] * 7)]
    for _ in range(60):
        d = rng.randint(2, 4)
        cases.append(bytes(rng.randrange(d) for _ in range(rng.randint(1, 20))))
    for directive in cases:
        d = max(2, max(directive) + 1)
        # the appended letters make the directive valid and leave the first
        # len(directive) bispecial prefixes b_i unchanged
        s = ArnouxRauzyStream(CycleStream(directive + bytes(range(d))))
        oracle = b""
        for a in directive:
            oracle = palindromic_closure(oracle + bytes([a]))
            s.seek(0)
            assert bytes(s.take(len(oracle))) == oracle
            assert s.prefix_parikh(len(oracle)) == parikh(oracle, d)


def test_ar_stream_fibonacci_and_tribonacci():
    s = ArnouxRauzyStream(CycleStream(bytes([0, 1])))
    assert bytes(s.take(10000)) == bytes(fibonacci_stream().take(10000))
    t = ArnouxRauzyStream(CycleStream(bytes([0, 1, 2])))
    assert bytes(t.take(10000)) == bytes(tribonacci_stream().take(10000))


def test_ar_stream_seek_and_fork():
    s = ArnouxRauzyStream(CycleStream(bytes([0, 1, 2])))
    ref = bytes(s.take(5000))
    s.seek(1234)
    assert bytes(s.take(100)) == ref[1234:1334]
    f = s.fork()
    assert f.position == 0
    assert bytes(f.take(500)) == ref[:500]


def test_ar_stream_prefix_parikh():
    s = ArnouxRauzyStream(CycleStream(bytes([0, 1, 2])))
    ref = bytes(s.take(5000))
    fresh = ArnouxRauzyStream(CycleStream(bytes([0, 1, 2])))
    for n in [0, 1, 17, 4999, 5000]:
        assert fresh.prefix_parikh(n) == parikh(ref[:n], 3)


def test_ar_stream_rejects_starved_directive():
    # a directive that never mentions letter 2 cannot drive a 3-letter word
    with pytest.raises(DirectiveError):
        ArnouxRauzyStream(CycleStream(bytes([0, 1]), alphabet_size=3))


def test_unbalanced_directive_still_works():
    s = ArnouxRauzyStream(CycleStream(bytes([0, 0, 0, 1])))
    w = bytes(s.take(2000))
    assert set(w) == {0, 1}
    # cross-check against the definitional construction
    oracle = iterated_palindromic_closure(bytes([0, 0, 0, 1] * 5))
    assert w[:min(2000, len(oracle))] == oracle[:2000]


def test_periodic_directive_is_checked_exactly():
    # letter 2 first appears at index 1200, past the horizon a heuristic
    # check inspects, yet recurs with the period: the directive is valid
    directive = CycleStream(bytes([0, 1] * 600 + [2]))
    s = ArnouxRauzyStream(directive)
    f = s.fork()
    assert bytes(f.take(3000)) == bytes(s.take(3000))
    oracle = iterated_palindromic_closure(bytes([0, 1] * 6))
    assert bytes(ArnouxRauzyStream(directive).take(len(oracle))) == oracle


@pytest.mark.parametrize("rules,recurrent", [
    ("0->01,1->0", {0, 1}),
    ("0->01,1->1", {1}),                  # the word is 0111...
    ("0->01,1->2,2->1", {1, 2}),          # alphabets cycle {1}, {2}
    ("0->012,1->1,2->0", {0, 1, 2}),      # {1,2}, {0,1}, then {0,1,2}
    ("0->02,1->0,2->1", {0, 1, 2}),
    ("0->01,1->1,2->2", {1}),             # letter 2 never occurs
    ("0->02,1->1,2->1", {1}),             # letter 2 occurs once: 02111...
])
def test_recurrent_letters_of_fixed_points(rules, recurrent):
    phi = Morphism.from_text(rules)
    assert phi.recurrent_letters(0) == recurrent
    # the letters that recur are those still seen far into the prefix
    u = iterate_fixed_point(phi, 0, 1000)
    assert set(u[len(u) // 2:]) == recurrent


@pytest.mark.parametrize("rules", ["0->01,1->1", "0->01,1->2,2->1"])
def test_fixed_point_directive_missing_a_letter_is_rejected(rules):
    directive = FixedPointStream(Morphism.from_text(rules), 0)
    with pytest.raises(DirectiveError, match="finitely often"):
        ArnouxRauzyStream(directive)


def test_fixed_point_directive_is_checked_exactly():
    # letter 1 first appears at index 1002, past the horizon a heuristic
    # check inspects, yet recurs: the directive is valid
    directive = FixedPointStream(Morphism(["0" * 1002 + "1", "0"]), 0)
    s = ArnouxRauzyStream(directive)
    assert bytes(s.take(2005)) == bytes([0] * 1002 + [1] + [0] * 1002)
    assert set(bytes(ArnouxRauzyStream(fibonacci_stream()).take(100))) == {0, 1}


def closure_chain(pattern: bytes, min_len: int) -> list[bytes]:
    """b_0 = epsilon, b_1, ... by palindromic closure, until |b_i| >= min_len."""
    words = [b""]
    while len(words[-1]) < min_len:
        a = pattern[(len(words) - 1) % len(pattern)]
        words.append(palindromic_closure(words[-1] + bytes([a])))
    return words


@pytest.mark.parametrize("pattern", ["01", "012", "0112"])
@pytest.mark.parametrize("cap", [5000, 1 << 22])
def test_far_access_around_the_materialized_head(pattern, cap, monkeypatch):
    from aprng.rotation import fibonacci_rotation, rotation_letter
    pattern = as_word(pattern)
    words = closure_chain(pattern, max(cap + 1, 1 << 20))
    oracle = words[-1]
    d = len(set(pattern))
    buf_len = max(len(w) for w in words if len(w) <= cap)
    positions = {buf_len + e for e in (-1, 0, 1)}
    positions.update(k * 1024 + e for k in (1, 2, 3, 4, 1024) for e in (-1, 0, 1))
    rng = random.Random(cap)
    positions.update(int(10 ** rng.uniform(0, 15)) for _ in range(40))
    positions.add(10 ** 15)
    monkeypatch.setattr(arnoux_rauzy, "_HEAD_CAP", 1 << 12)
    ref = ArnouxRauzyStream(CycleStream(pattern))
    monkeypatch.setattr(arnoux_rauzy, "_HEAD_CAP", cap)
    s = ArnouxRauzyStream(CycleStream(pattern))
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
    for w in words:
        assert s.prefix_parikh(len(w)) == parikh(w, d)
