import io
import random
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aprng import prng
from aprng.errors import AlphabetError, ParameterError
from aprng.lattice import consecutive_tuples
from aprng.morphic import fibonacci_stream
from aprng.prng import NAMED_LCGS, Lcg, ShuffledPrng, named_lcg, stream_export
from aprng.specs import parse_gen_spec
from aprng.stats import chi_square_equidist, gap_test, serial_pairs

RANDU_FIRST = [65539, 393225, 1769499, 7077969]


def py_states(m, a, c, seed, n):
    x = seed
    out = []
    for _ in range(n):
        x = (a * x + c) % m
        out.append(x)
    return out


def py_outputs(m, a, c, seed, n):
    shift = max(0, (m - 1).bit_length() - 32)
    return [s >> shift for s in py_states(m, a, c, seed, n)]


def test_randu_known_outputs():
    g = Lcg(2 ** 31, 65539, 0, 1)
    assert [g.next() for _ in range(4)] == RANDU_FIRST
    assert list(named_lcg("randu").outputs(4)) == RANDU_FIRST
    assert named_lcg("randu").next() == RANDU_FIRST[0]


@pytest.mark.parametrize("name", sorted(NAMED_LCGS))
def test_outputs_match_scalar_loop(name):
    m, a, c = NAMED_LCGS[name]
    got = named_lcg(name, seed=1).outputs(5000)
    assert got.dtype == np.uint32
    assert got.tolist() == py_outputs(m, a, c, 1, 5000)


@pytest.mark.parametrize("n", [1, 5, 4095, 4096, 4097, 10000])
def test_lane_chunk_splits(n):
    # power-of-two moduli take the lane-parallel path; every split of n
    # across the 4096 lanes must agree with the scalar recurrence
    for m, a, c, seed in [(2 ** 5, 21, 13, 7), (2 ** 31, 65539, 0, 1),
                          (2 ** 33, 1664525, 1013904223, 9), (2 ** 64, 3935559000370003845, 1, 1)]:
        g = Lcg(m, a, c, seed)
        assert g.outputs(n).tolist() == py_outputs(m, a, c, seed, n)
        assert g.state == py_states(m, a, c, seed, n)[-1]


def test_nonpow2_loop_and_next_consistency():
    m, a, c = NAMED_LCGS["l47-115"]
    g1 = Lcg(m, a, c, 1)
    g2 = Lcg(m, a, c, 1)
    assert [g1.next() for _ in range(50)] == g2.outputs(50).tolist()
    g3 = Lcg(1000, 333, 7, 1)
    assert g3._fold is None             # not pseudo-Mersenne: the loop runs
    assert g3.outputs(5000).tolist() == py_outputs(1000, 333, 7, 1, 5000)
    assert g3.state == py_states(1000, 333, 7, 1, 5000)[-1]


PSEUDO_MERSENNE = {
    "l63-25": lambda seed: named_lcg("l63-25", seed),
    "l47-115": lambda seed: named_lcg("l47-115", seed),
    "lcg c=5": lambda seed: parse_gen_spec(
        "lcg:m=2^47-115,a=71971110957370,c=5").build(seed),
    # c0 = 2^61 + 1 leaves a quarter of the folded values in [m, 2^63),
    # where the final conditional subtract is needed
    "wide c0": lambda seed: Lcg(2 ** 63 - 2 ** 61 - 1, 5, 3, seed),
}


@pytest.mark.parametrize("name", sorted(PSEUDO_MERSENNE))
# 65 and 66 values are the last call with a lane per value and the first
# with fewer; from 262017 values on, a call runs the full 4096 lanes
@pytest.mark.parametrize("n", [1, 65, 66, 4095, 4096, 4097, 262016, 262017,
                               (1 << 20) + 3])
def test_pseudo_mersenne_lanes_match_loop(name, n):
    g = PSEUDO_MERSENNE[name](12345)
    g.warm_up(10 ** 9)
    assert g._fold is not None
    m, a, c, start = g.m, g.a, g.c, g.state
    want = py_states(m, a, c, start, n)
    shift = g.shift
    assert g.outputs(n).tolist() == [x >> shift for x in want]
    assert g.state == want[-1]


@pytest.mark.parametrize("name", sorted(PSEUDO_MERSENNE))
def test_pseudo_mersenne_lanes_resume_mid_stream(name):
    g = PSEUDO_MERSENNE[name](7)
    m, a, c = g.m, g.a, g.c
    parts = np.concatenate([g.outputs(k) for k in (1, 4095, 2000, 5000, 4097)])
    assert parts.tolist() == py_outputs(m, a, c, 7, 15193)
    assert g.state == py_states(m, a, c, 7, 15193)[-1]


def test_outputs_resume_mid_stream():
    g = named_lcg("l64_39")
    whole = named_lcg("l64_39").outputs(7000)
    parts = np.concatenate([g.outputs(k) for k in (1, 4095, 2000, 904)])
    assert np.array_equal(parts, whole)


# randu (2^31, no shift), l59 (a mask short of 64 bits), l64_28 (no mask),
# the two pseudo-Mersenne lane paths, and a modulus of the Python-int loop
BUFFERED = {**{name: NAMED_LCGS[name]
               for name in ["randu", "l59", "l64_28", "l63-25", "l47-115"]},
            "loop": (10 ** 6 + 3, 1234, 5)}


@pytest.mark.parametrize("name", BUFFERED)
def test_buffered_paths_match_loop_over_successive_calls(name):
    K, B = prng._LANES, prng._CHUNK
    lengths = [0, 1, K - 1, K, K + 1, B - 1, B + 1, 3 * B + 5]
    m, a, c = BUFFERED[name]
    g = Lcg(m, a, c, 12345)
    want = np.array(py_states(m, a, c, 12345, sum(lengths)), dtype=np.uint64)
    assert g.outputs(0).size == 0 and g.state == 12345
    off = 0
    for i, n in enumerate(lengths):
        # alternate the two dtypes of the one value loop
        if i % 2 == 0:
            got = g.raw_states(n)
            assert got.dtype == np.uint64
            assert np.array_equal(got, want[off:off + n])
        else:
            got = g.outputs(n)
            assert got.dtype == np.uint32
            assert np.array_equal(got, want[off:off + n] >> np.uint64(g.shift))
        off += n
        if n:
            assert g.state == int(want[off - 1])


LANE_TABLED = ["l64_28", "l59", "randu"]


@pytest.mark.parametrize("name", LANE_TABLED)
def test_lane_tables_match_next_loop(name):
    K, B = prng._LANES, prng._CHUNK
    for n in (1, K - 1, K, K + 1, 3 * B + 5):
        g, ref = named_lcg(name, 12345), named_lcg(name, 12345)
        assert g.outputs(n).tolist() == [ref.next() for _ in range(n)]
        assert g.state == ref.state


@pytest.mark.parametrize("name", LANE_TABLED)
def test_lane_tables_are_shared_read_only(name):
    # generators of one (m, a, c) share the tables, whatever their seeds
    lengths = (5, prng._LANES + 1, prng._CHUNK + 3, 1)
    alone = [named_lcg(name, seed).outputs(sum(lengths)) for seed in (3, 4)]
    turns = [named_lcg(name, 3), named_lcg(name, 4)]
    parts = [[], []]
    for n in lengths:
        for g, part in zip(turns, parts):
            part.append(g.outputs(n))
    for whole, part in zip(alone, parts):
        assert np.array_equal(np.concatenate(part), whole)
    tables = prng._lane_tables(*NAMED_LCGS[name])
    assert tables is prng._lane_tables(*NAMED_LCGS[name])
    for table in tables:
        assert table.size == prng._LANES and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.parametrize("m", [2, 7, 2 ** 31, 2 ** 47 - 115, 2 ** 63 - 25, 2 ** 64])
def test_geometric_sum_matches_brute_sum(m):
    rng = random.Random(m)
    for a in (0, 1, rng.randrange(m)):
        for k in (0, 1, rng.randrange(200)):
            brute = sum(a ** i for i in range(k)) % m
            assert prng._geometric_sum(a, k, m) == brute, (a, k)


@pytest.mark.parametrize("name", BUFFERED)
def test_returned_arrays_do_not_alias_scratch(name):
    g = Lcg(*BUFFERED[name], 3)
    first = g.outputs(5000)
    kept = first.copy()
    states = g.raw_states(5000)
    kept_states = states.copy()
    g.outputs(5000)
    g.raw_states(5000)
    assert np.array_equal(first, kept)
    assert np.array_equal(states, kept_states)
    assert not np.shares_memory(first, g._buffer)
    assert not np.shares_memory(states, g._buffer)


@pytest.mark.parametrize("name", BUFFERED)
def test_fork_shares_no_buffer(name):
    g = Lcg(*BUFFERED[name], 5)
    g.outputs(5000)
    h = g.fork()
    want = h.fork().outputs(3000)
    assert np.array_equal(h.outputs(3000), want)
    assert not np.shares_memory(g._buffer, h._buffer)
    assert np.array_equal(g.outputs(3000), want)


@pytest.mark.parametrize("name", ["randu", "l47-115", "l64_39"])
@pytest.mark.parametrize("k", [0, 1, 2, 977, 4096, 10 ** 5])
def test_jump_equals_stepping(name, k):
    g1 = named_lcg(name)
    g1.jump(k)
    g2 = named_lcg(name)
    if k:
        g2.outputs(k)
    assert g1.state == g2.state


@given(st.integers(2, 1 << 16), st.data())
@settings(max_examples=60, deadline=None)
def test_jump_composes_and_matches_steps(m, data):
    a = data.draw(st.integers(0, m - 1))
    c = data.draw(st.integers(0, m - 1))
    seed = data.draw(st.integers(0, m - 1))
    k = data.draw(st.integers(0, 300))
    j = data.draw(st.integers(0, 5000))
    g1 = Lcg(m, a, c, seed)
    g1.jump(k)
    stepped = py_states(m, a, c, seed, k)
    assert g1.state == (stepped[-1] if k else seed)
    g1.jump(j)
    g2 = Lcg(m, a, c, seed)
    g2.jump(k + j)
    assert g1.state == g2.state


def test_warm_up_equals_brute_force():
    g1 = named_lcg("l64_39")
    g1.warm_up(10 ** 5)
    g2 = named_lcg("l64_39")
    g2.outputs(10 ** 5)
    assert g1.state == g2.state
    assert np.array_equal(g1.outputs(10), g2.outputs(10))


def test_fork_is_independent():
    g = named_lcg("l63")
    g.outputs(17)
    f = g.fork()
    assert f.state == g.state
    f.outputs(100)
    assert f.state != g.state
    clone = Lcg(g.m, g.a, g.c, g.state)
    assert g.next() == clone.next()


def test_validation_errors():
    with pytest.raises(ParameterError):
        Lcg(1, 0, 0)
    with pytest.raises(ParameterError):
        Lcg(10, 10, 0)
    with pytest.raises(ParameterError):
        Lcg(10, 3, -1)
    with pytest.raises(ParameterError):
        Lcg(10, 3, 0, seed=10)
    with pytest.raises(ParameterError):
        named_lcg("nope")
    g = named_lcg("randu")
    with pytest.raises(ParameterError):
        g.outputs(-1)
    with pytest.raises(ParameterError):
        g.jump(-1)


def test_out_range_values():
    assert named_lcg("randu").out_range == 2 ** 31
    assert named_lcg("l47-115").out_range == 2 ** 32
    assert named_lcg("l63-25").out_range == 2 ** 32
    assert named_lcg("l59").out_range == 2 ** 32
    assert named_lcg("l64_39").out_range == 2 ** 32
    assert Lcg(1000, 333, 7).out_range == 1024


def test_shuffle_matches_interleaving_oracle():
    # a power-of-two pair, and a prime pair drawing enough for the lanes
    for (m, a, c), n in [((2 ** 31, 65539, 0), 1000),
                         (NAMED_LCGS["l63-25"], 20000)]:
        letters = bytes(fibonacci_stream().take(n))
        srcs = [Lcg(m, a, c, 1), Lcg(m, a, c, 7)]
        expected = [srcs[b].next() for b in letters]
        z = ShuffledPrng(fibonacci_stream(), [Lcg(m, a, c, 1), Lcg(m, a, c, 7)])
        assert z.outputs(n).tolist() == expected
        assert z.outputs(1)[0] == srcs[fibonacci_stream().letter_at(n)].next()


def test_shuffle_counters_track_steering_parikh():
    n = (1 << 20) + 12345          # crosses the internal chunk boundary
    z = ShuffledPrng(fibonacci_stream(),
                     [named_lcg("l64_39", 1), named_lcg("l64_39", 2)])
    z.outputs(300)
    z.outputs(n - 300)
    assert tuple(z.counters) == fibonacci_stream().prefix_parikh(n)
    assert sum(z.counters) == n


def _shuffle_pair(gen=None):
    return ShuffledPrng(fibonacci_stream(), [gen or named_lcg("l64_28", 1),
                                             gen or named_lcg("l64_32", 2)])


@pytest.mark.parametrize("chunk", [1000, 4099])
def test_shuffle_split_calls_cross_chunk_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(prng, "_CHUNK", chunk)
    n = 3 * chunk + 17
    whole = _shuffle_pair().outputs(n)
    for a in (chunk - 1, chunk, chunk + 1, 2 * chunk + 500):
        z = _shuffle_pair()
        parts = np.concatenate([z.outputs(a), z.outputs(n - a)])
        assert np.array_equal(parts, whole)
        assert tuple(z.counters) == fibonacci_stream().prefix_parikh(n)


def _one_source_oracle(m, a, c, seed, calls, chunk):
    """A single generator as both sources: each chunk of each call hands
    the next values first to the positions of letter 0, then to those of
    letter 1."""
    letters = fibonacci_stream().take(sum(calls))
    states = iter(py_states(m, a, c, seed, sum(calls)))
    shift = max(0, (m - 1).bit_length() - 32)
    out = [0] * len(letters)
    blocks, off = [], 0
    for n in calls:
        blocks += [(lo, min(lo + chunk, off + n)) for lo in range(off, off + n, chunk)]
        off += n
    for lo, hi in blocks:
        for letter in (0, 1):
            for i in range(lo, hi):
                if letters[i] == letter:
                    out[i] = next(states) >> shift
    return out


@pytest.mark.parametrize("name", ["randu", "l64_28", "l63-25"])
@pytest.mark.parametrize("chunk", [1000, None])
def test_one_generator_as_both_sources(monkeypatch, name, chunk):
    if chunk:
        monkeypatch.setattr(prng, "_CHUNK", chunk)
    calls = (700, prng._CHUNK + 1645)
    m, a, c = NAMED_LCGS[name]
    z = _shuffle_pair(named_lcg(name, 9))
    got = np.concatenate([z.outputs(n) for n in calls])
    assert got.tolist() == _one_source_oracle(m, a, c, 9, calls, prng._CHUNK)


def test_shuffle_warm_up_equals_brute_force():
    def make():
        return ShuffledPrng(fibonacci_stream(),
                            [named_lcg("l64_39", 1), named_lcg("l64_39", 2)])
    z1, z2 = make(), make()
    z1.warm_up(10 ** 4)
    z2.outputs(10 ** 4)
    assert tuple(z1.counters) == tuple(z2.counters)
    assert np.array_equal(z1.outputs(200), z2.outputs(200))
    assert tuple(z1.counters) == fibonacci_stream().prefix_parikh(10 ** 4 + 200)


def test_nested_shuffle_warm_up_equals_brute_force():
    spec = parse_gen_spec("shuffle:fib:(shuffle:fib:l64_28,l64_32),l64_39")
    z1, z2 = spec.build(), spec.build()
    z1.warm_up(5000)
    assert np.array_equal(z1.outputs(100), z2.outputs(5100)[5000:])


def test_shuffle_validation():
    with pytest.raises(AlphabetError):
        ShuffledPrng(fibonacci_stream(), [named_lcg("l64_39")])
    with pytest.raises(ParameterError):
        ShuffledPrng(fibonacci_stream(),
                     [named_lcg("randu"), named_lcg("l64_39")])
    z = ShuffledPrng(fibonacci_stream(),
                     [named_lcg("l64_28"), named_lcg("l64_32")])
    assert z.out_range == 2 ** 32
    with pytest.raises(ParameterError):
        z.outputs(-1)


def test_shuffle_warm_up_rejects_negative_counts():
    fresh, used = _shuffle_pair(), _shuffle_pair()
    used.outputs(100)
    for z in (fresh, used):
        with pytest.raises(ParameterError, match="n must be >= 0"):
            z.warm_up(-5)
    assert used.steering.position == 100 and used.counters == [62, 38]


def test_stream_export_le32_bytes():
    buf = io.BytesIO()
    written = stream_export(named_lcg("randu"), 4, buf)
    assert written == 16
    assert buf.getvalue() == struct.pack("<4I", *RANDU_FIRST)


def test_stream_export_to_path_and_determinism():
    one, two = io.BytesIO(), io.BytesIO()
    stream_export(named_lcg("l64_39"), 1000, one)
    stream_export(named_lcg("l64_39"), 1000, two)
    assert one.getvalue() == two.getvalue()
    assert len(one.getvalue()) == 4000


def test_stream_export_array_source():
    arr = np.arange(10, dtype=np.uint32)
    buf = io.BytesIO()
    assert stream_export(arr, 6, buf) == 24
    assert buf.getvalue() == arr[:6].tobytes()
    assert stream_export(arr, 0, io.BytesIO()) == 0
    with pytest.raises(ParameterError):
        stream_export(arr, 11, io.BytesIO())
    with pytest.raises(ParameterError):
        stream_export(arr, -1, io.BytesIO())


def test_stream_export_across_chunks():
    n = 3 * prng._CHUNK + 5
    sink = io.BytesIO()
    assert stream_export(named_lcg("l64_28"), n, sink) == 4 * n
    assert sink.getvalue() == named_lcg("l64_28").outputs(n).astype("<u4").tobytes()


class NullSink:
    def write(self, data):
        pass

    def flush(self):
        pass


@pytest.mark.parametrize("spec", ["l64_28", "l63-25", "shuffle:fib:l64_28,l64_32"])
def test_stream_export_holds_bounded_memory(spec):
    # about 16 bytes per value of one chunk, not of the whole count
    n = 1 << 22
    source = parse_gen_spec(spec).build()
    tracemalloc.start()
    try:
        assert stream_export(source, n, NullSink()) == 4 * n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


class ClosingSink:
    """Fails as a pipe whose reader has left, on write number fail_at."""
    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise BrokenPipeError("reader left")

    def flush(self):
        pass


@pytest.mark.parametrize("fail_at", [2, 4], ids=["middle", "last"])
def test_stream_export_raises_a_write_error_and_leaves_no_thread(fail_at):
    before = threading.active_count()
    sink = ClosingSink(fail_at)
    with pytest.raises(BrokenPipeError, match="reader left"):
        stream_export(named_lcg("l64_28"), 4 * prng._CHUNK, sink)
    assert sink.writes == fail_at
    assert threading.active_count() == before


def _exported(source, n):
    sink = io.BytesIO()
    stream_export(source, n, sink)
    return sink.getvalue()


@pytest.mark.parametrize("entry", [
    _exported,
    lambda source, n: consecutive_tuples(source, n, 3).tolist(),
    lambda source, n: chi_square_equidist(source, 4, n).as_dict(),
    lambda source, n: serial_pairs(source, 4, n).as_dict(),
    lambda source, n: gap_test(source, (0.25, 0.75), n).as_dict(),
], ids=["stream_export", "consecutive_tuples", "chi_square_equidist",
        "serial_pairs", "gap_test"])
def test_array_and_generator_sources_agree(entry):
    n = 5000
    values = named_lcg("randu").outputs(n)
    assert entry(values, n) == entry(named_lcg("randu"), n)
    with pytest.raises(ParameterError,
                       match=f"array source holds {n - 1} values, need {n}"):
        entry(values[:n - 1], n)


def brute_cycle(m, a, c, seed):
    seen = {}
    x = seed
    i = 0
    while x not in seen:
        seen[x] = i
        x = (a * x + c) % m
        i += 1
    return i - seen[x]


def smallest_window_period(arr):
    # KMP failure function: the window's smallest period is n - border(n)
    n = len(arr)
    fail = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k and arr[i] != arr[k]:
            k = fail[k]
        if arr[i] == arr[k]:
            k += 1
        fail[i + 1] = k
    return n - fail[n]


def test_shuffled_toy_pair_has_no_short_period():
    # each 2^5-state toy on its own cycles through all 32 states ...
    assert brute_cycle(32, 5, 1, 0) == 32
    assert brute_cycle(32, 5, 7, 0) == 32
    # ... but the steered interleaving shows no period up to 1e5: a stream
    # period p would cap the window's smallest period at p
    z = ShuffledPrng(fibonacci_stream(), [Lcg(32, 5, 1), Lcg(32, 5, 7)])
    window = z.outputs(220_000).tolist()
    assert smallest_window_period(window) > 10 ** 5


class DrySource:
    """Gives a few values, then an empty array; asked again after that, it
    fails instead of letting a caller loop forever."""
    def __init__(self, first):
        self.first = first
        self.dry = False

    def outputs(self, k):
        assert not self.dry, "asked again after an empty piece"
        piece = np.arange(min(k, self.first), dtype=np.uint64)
        self.first = 0
        self.dry = piece.size == 0
        return piece


@pytest.mark.parametrize("first", [0, 3])
def test_source_running_dry_is_an_error(first):
    with pytest.raises(ParameterError, match="no values"):
        chi_square_equidist(DrySource(first), 4, 1000)
    with pytest.raises(ParameterError, match="no values"):
        stream_export(DrySource(first), 10, io.BytesIO())
