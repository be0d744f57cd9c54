"""Linear congruential generators and word-steered shuffles of them.

An Lcg steps Z <- (a*Z + c) mod m and emits the top 32 bits of the state,
where "top" means bits bitlen(m-1)-1 .. bitlen(m-1)-32; moduli below 2^32
emit the whole state.  A ShuffledPrng holds d sources and an infinite
steering word over d letters: output n is the next unread value of source
u_n, so each source is consumed exactly as often as its letter has appeared.
Power-of-two moduli run on a lane-parallel numpy path (wraparound arithmetic
mod 2^64 restricted by a mask is exact there); other moduli fall back to a
plain loop, as the explicit remainder cannot be vectorized exactly.
"""
from __future__ import annotations

import numpy as np

from .errors import AlphabetError, ParameterError
from .streams import WordStream

_CHUNK = 1 << 20
_LANES = 1 << 12

UNDETERMINED = "UNDETERMINED"
FOUND = "FOUND"


def _geometric_sum(a: int, k: int, m: int) -> int:
    """1 + a + ... + a^(k-1) mod m, by binary splitting (no division)."""
    g, apow = 0, 1
    for bit in reversed(range(k.bit_length())):
        g = (g * (apow + 1)) % m
        apow = (apow * apow) % m
        if (k >> bit) & 1:
            g = (g * a + 1) % m
            apow = (apow * a) % m
    return g


class Lcg:
    """Z_{n+1} = (a*Z_n + c) mod m with 32-bit output Z >> shift."""

    def __init__(self, m: int, a: int, c: int, seed: int = 1):
        if not 2 <= m <= 1 << 64:
            raise ParameterError("modulus must lie in [2, 2^64]")
        if not 0 <= a < m or not 0 <= c < m:
            raise ParameterError("multiplier and increment must lie in [0, m)")
        if not 0 <= seed < m:
            raise ParameterError("seed must lie in [0, m)")
        self.m = m
        self.a = a
        self.c = c
        self.state = seed
        self.shift = max(0, (m - 1).bit_length() - 32)
        self._pow2 = m & (m - 1) == 0
        self._mask = m - 1 if self._pow2 else 0

    @property
    def out_range(self) -> int:
        """Smallest power of two bounding every output (at most 2^32)."""
        return 1 << ((self.m - 1).bit_length() - self.shift)

    def next(self) -> int:
        self.state = (self.a * self.state + self.c) % self.m
        return self.state >> self.shift

    def outputs(self, n: int) -> np.ndarray:
        """Next n outputs as uint32."""
        states = self.raw_states(n)
        return (states >> np.uint64(self.shift)).astype(np.uint32)

    def raw_states(self, n: int) -> np.ndarray:
        """Next n full states as uint64, before the output shift."""
        if n < 0:
            raise ParameterError("n must be >= 0")
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        if self._pow2:
            return self._states_pow2(n)
        out = np.empty(n, dtype=np.uint64)
        x, a, c, m = self.state, self.a, self.c, self.m
        for i in range(n):
            x = (a * x + c) % m
            out[i] = x
        self.state = x
        return out

    def _states_pow2(self, n: int) -> np.ndarray:
        # lane j holds Z_{t*K + j + 1}; one vector op advances all lanes K steps
        m, a, c = self.m, self.a, self.c
        mask = np.uint64(self._mask)
        K = min(n, _LANES)
        apow = np.ones(K, dtype=np.uint64)
        apow[1:] = a & self._mask
        np.cumprod(apow, out=apow)
        apow &= mask                                    # a^j mod m
        gsum = np.zeros(K, dtype=np.uint64)
        np.cumsum(apow[:K - 1], out=gsum[1:])
        gsum &= mask                                    # 1 + ... + a^(j-1)
        lanes = (apow * np.uint64(a % m) * np.uint64(self.state)
                 + (gsum * np.uint64(a % m) + np.uint64(1)) * np.uint64(c % m))
        lanes &= mask                                   # Z_{j+1}
        A = np.uint64(pow(a, K, m))
        C = np.uint64((c * _geometric_sum(a, K, m)) % m)
        steps = -(-n // K)
        states = np.empty((steps, K), dtype=np.uint64)
        states[0] = lanes
        for t in range(1, steps):
            lanes = (lanes * A + C) & mask
            states[t] = lanes
        flat = states.reshape(-1)[:n]
        self.state = int(flat[-1])
        return flat

    def jump(self, k: int) -> None:
        """Advance the state by k steps in O(log k)."""
        if k < 0:
            raise ParameterError("k must be >= 0")
        A = pow(self.a, k, self.m)
        C = (self.c * _geometric_sum(self.a, k, self.m)) % self.m
        self.state = (A * self.state + C) % self.m

    def warm_up(self, n: int = 10 ** 9) -> None:
        self.jump(n)

    def fork(self) -> "Lcg":
        g = Lcg(self.m, self.a, self.c, self.state)
        return g

    def __repr__(self):
        return f"Lcg(m={self.m}, a={self.a}, c={self.c}, state={self.state})"


def lcg_next(g: Lcg) -> int:
    """Advance one step and return the 32-bit output."""
    return g.next()


# moduli, multipliers and increments of the stock generators; seeds default 1
NAMED_LCGS: dict[str, tuple[int, int, int]] = {
    "randu": (2 ** 31, 65539, 0),
    "l47-115": (2 ** 47 - 115, 71971110957370, 0),
    "l63-25": (2 ** 63 - 25, 2307085864, 0),
    "l59": (2 ** 59, 13 ** 13, 0),
    "l63": (2 ** 63, 5 ** 19, 1),
    "l64_28": (2 ** 64, 2862933555777941757, 1),
    "l64_32": (2 ** 64, 3202034522624059733, 1),
    "l64_39": (2 ** 64, 3935559000370003845, 1),
}


def named_lcg(name: str, seed: int = 1) -> Lcg:
    try:
        m, a, c = NAMED_LCGS[name]
    except KeyError:
        raise ParameterError(
            f"unknown generator {name!r}; have {sorted(NAMED_LCGS)}") from None
    return Lcg(m, a, c, seed)


class ShuffledPrng:
    """Outputs of d generators interleaved by an infinite steering word."""

    def __init__(self, steering: WordStream, sources):
        self.steering = steering
        self.sources = list(sources)
        if steering.alphabet_size != len(self.sources):
            raise AlphabetError(
                f"steering alphabet {steering.alphabet_size} != "
                f"{len(self.sources)} sources")
        ranges = {getattr(s, "out_range", None) for s in self.sources}
        ranges.discard(None)
        if len(ranges) > 1:
            raise ParameterError(
                f"sources must share one output range, got {sorted(ranges)}")
        self.counters = [0] * len(self.sources)

    @property
    def out_range(self) -> int | None:
        return getattr(self.sources[0], "out_range", None) if self.sources else None

    def outputs(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError("n must be >= 0")
        out = np.empty(n, dtype=np.uint32)
        done = 0
        while done < n:
            take = min(_CHUNK, n - done)
            letters = self.steering.take(take)
            for a, src in enumerate(self.sources):
                idx = np.nonzero(letters == a)[0]
                if idx.size:
                    out[done + idx] = src.outputs(idx.size)
                    self.counters[a] += idx.size
            done += take
        return out

    def next(self) -> int:
        return int(self.outputs(1)[0])

    def warm_up(self, n: int = 10 ** 9) -> None:
        """Skip n outputs in O(log n): each source jumps by the number of
        times its steering letter occurs in the skipped stretch."""
        pos = self.steering.position
        before = self.steering.prefix_parikh(pos)
        after = self.steering.prefix_parikh(pos + n)
        for a, src in enumerate(self.sources):
            delta = after[a] - before[a]
            src.jump(delta)
            self.counters[a] += delta
        self.steering.seek(pos + n)

    def __repr__(self):
        return f"ShuffledPrng({self.steering!r}, {self.sources!r})"


def shuffled_next(z: ShuffledPrng) -> int:
    return z.next()


class RightSpecialWitness:
    """Result of searching the output stream for an l-tuple that is followed
    by two different values at different positions."""

    __slots__ = ("verdict", "tuple_prefix", "position_a", "position_b",
                 "scanned")

    def __init__(self, verdict, tuple_prefix, position_a, position_b, scanned):
        self.verdict = verdict
        self.tuple_prefix = tuple_prefix
        self.position_a = position_a
        self.position_b = position_b
        self.scanned = scanned

    def __bool__(self):
        return self.verdict == FOUND

    def __repr__(self):
        if self:
            return (f"RightSpecialWitness({self.tuple_prefix} at "
                    f"{self.position_a} -> a, {self.position_b} -> b)")
        return f"RightSpecialWitness(UNDETERMINED, scanned={self.scanned})"


def right_special_witness(source, length: int, a_value: int, b_value: int,
                          budget: int = 10 ** 6) -> RightSpecialWitness:
    """Search for an occurrence of some l-tuple followed by a_value and, at
    another position, the same l-tuple followed by b_value.

    Positions index the start of the (l+1)-tuple in the scanned stream.
    """
    if length < 1:
        raise ParameterError("tuple length must be >= 1")
    if a_value == b_value:
        raise ParameterError("the two follower values must differ")
    arr = _collect(source, budget)
    if arr.size < length + 1:
        return RightSpecialWitness(UNDETERMINED, None, None, None, arr.size)
    win = np.lib.stride_tricks.sliding_window_view(arr, length)
    followers = arr[length:]
    idx_a = np.nonzero(followers == a_value)[0]
    idx_b = np.nonzero(followers == b_value)[0]
    if idx_a.size and idx_b.size:
        rows_a = np.ascontiguousarray(win[idx_a]).view(
            np.dtype((np.void, win.dtype.itemsize * length))).ravel()
        rows_b = np.ascontiguousarray(win[idx_b]).view(
            np.dtype((np.void, win.dtype.itemsize * length))).ravel()
        common, ia, ib = np.intersect1d(rows_a, rows_b, return_indices=True)
        if common.size:
            pa = int(idx_a[ia[0]])
            pb = int(idx_b[ib[0]])
            return RightSpecialWitness(
                FOUND, tuple(int(v) for v in win[pa]), pa, pb, arr.size)
    return RightSpecialWitness(UNDETERMINED, None, None, None, arr.size)


def lcg_state_period(m: int, a: int, c: int, seed: int,
                     limit: int = 1 << 20) -> int | None:
    """Period of the state orbit by Floyd cycle-finding, or None past limit."""
    f = lambda x: (a * x + c) % m
    tort = f(seed)
    hare = f(f(seed))
    steps = 1
    while tort != hare:
        if steps >= limit:
            return None
        tort = f(tort)
        hare = f(f(hare))
        steps += 1
    period = 1
    hare = f(tort)
    while tort != hare:
        if period >= limit:
            return None
        hare = f(hare)
        period += 1
    return period


def _collect(source, n: int) -> np.ndarray:
    """n uint32 values from an ndarray or anything with .outputs(n)."""
    if isinstance(source, np.ndarray):
        if source.size < n:
            raise ParameterError(
                f"array source holds {source.size} values, need {n}")
        return source[:n].astype(np.uint32, copy=False)
    return source.outputs(n)


def stream_export(source, n: int, sink) -> int:
    """Write n outputs as little-endian 32-bit words; returns bytes written.

    sink may be a binary file object or a path.  Byte-identical across runs
    for identical parameters and seeds.
    """
    if n < 0:
        raise ParameterError("n must be >= 0")
    own = False
    if not hasattr(sink, "write"):
        sink = open(sink, "wb")
        own = True
    try:
        written = 0
        if isinstance(source, np.ndarray):
            if source.size < n:
                raise ParameterError(
                    f"array source holds {source.size} values, need {n}")
            for off in range(0, n, _CHUNK):
                data = source[off:min(off + _CHUNK, n)].astype("<u4").tobytes()
                sink.write(data)
                written += len(data)
        else:
            left = n
            while left > 0:
                chunk = source.outputs(min(_CHUNK, left))
                data = chunk.astype("<u4").tobytes()
                sink.write(data)
                written += len(data)
                left -= chunk.size
        sink.flush()
        return written
    finally:
        if own:
            sink.close()
