"""Linear congruential generators and word-steered shuffles of them.

An Lcg steps Z <- (a*Z + c) mod m and emits the top 32 bits of the state,
where "top" means bits bitlen(m-1)-1 .. bitlen(m-1)-32; moduli below 2^32
emit the whole state.  A ShuffledPrng holds d sources and an infinite
steering word over d letters: output n is the next unread value of source
u_n, so each source is consumed exactly as often as its letter has appeared.
Power-of-two moduli run on a lane-parallel numpy path (wraparound arithmetic
mod 2^64 restricted by a mask is exact there).  Pseudo-Mersenne moduli
m = 2^k - c0 with c0 small enough for two folds 2^k = c0 (mod m) and one
conditional subtract to reduce every product, such as those of l47-115 and
l63-25, run on lanes of 32-bit-limb products, as many as balance the lane
starts against the vector steps of the call (4096 from about 2.6e5 values
on).  Other moduli, among them every one below 2^32, step a plain Python-int
loop, which also serves as the oracle of both lane paths.

Every array that outputs or raw_states returns is fresh and belongs to the
caller.  Each Lcg steps its states into a scratch buffer of its own (never
shared, not even with a fork) and each ShuffledPrng keeps a letter mask of
its own; both are reused from call to call, so a stream does not allocate a
new chunk-sized temporary for each step of the pipeline.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import AlphabetError, ParameterError
from .streams import WordStream

_CHUNK = 1 << 20
_LANES = 1 << 12
# Pseudo-Mersenne lanes: each lane start is a Python-int step (about 0.3 us)
# and each vector step a dozen numpy calls (about 28 us), so about
# sqrt(_LANE_BALANCE * n) lanes balance the two for a call of n values.
_LANE_BALANCE = 64


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


def _pseudo_mersenne(m: int, a: int, c: int) -> tuple[int, int] | None:
    """(k, c0) with m = 2^k - c0 when the lane path reduces a*x + c exactly.

    For every state x < m, folding the 128-bit product once, a*x + c =
    (a*x >> k)*c0 + (a*x mod 2^k) + c (mod m), must fit in 64 bits; folding
    any 64-bit word once more must land below 2m, so that one conditional
    subtract finishes the reduction.
    """
    k = m.bit_length()
    c0 = (1 << k) - m
    first = c0 * ((a * (m - 1)) >> k) + (1 << k) - 1 + c
    second = c0 * (((1 << 64) - 1) >> k) + (1 << k) - 1
    if k < 64 and first < 1 << 64 and second < 2 * m:
        return k, c0
    return None


def _fresh(size: int) -> np.ndarray:
    return np.empty(size, dtype=np.uint64)


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
        self._fold = None if self._pow2 else _pseudo_mersenne(m, a, c)
        self._buffer = _fresh(0)

    @property
    def out_range(self) -> int:
        """Smallest power of two bounding every output (at most 2^32)."""
        return 1 << ((self.m - 1).bit_length() - self.shift)

    def next(self) -> int:
        self.state = (self.a * self.state + self.c) % self.m
        return self.state >> self.shift

    def outputs(self, n: int) -> np.ndarray:
        """Next n outputs as uint32, in a fresh array."""
        if n < 0:
            raise ParameterError("n must be >= 0")
        out = np.empty(n, dtype=np.uint32)
        shift = np.uint64(self.shift)
        for lo in range(0, n, _CHUNK):
            states = self._states(min(_CHUNK, n - lo), self._scratch)
            np.right_shift(states, shift, out=out[lo:lo + states.size],
                           casting="unsafe")
        return out

    def raw_states(self, n: int) -> np.ndarray:
        """Next n full states as uint64, before the output shift, in a
        fresh array."""
        if n < 0:
            raise ParameterError("n must be >= 0")
        return self._states(n, _fresh)

    def _scratch(self, size: int) -> np.ndarray:
        """size uint64 cells of this instance's private buffer, which every
        call to outputs overwrites."""
        if self._buffer.size < size:
            self._buffer = np.empty(size, dtype=np.uint64)
        return self._buffer[:size]

    def _states(self, n: int, buffer) -> np.ndarray:
        """Next n states, stepped in place into buffer(size) uint64 cells."""
        if n == 0:
            return buffer(0)
        if self._pow2:
            return self._states_pow2(n, buffer)
        if self._fold:
            return self._states_fold(n, buffer)
        out = buffer(n)
        x, a, c, m = self.state, self.a, self.c, self.m
        for i in range(n):
            x = (a * x + c) % m
            out[i] = x
        self.state = x
        return out

    def _states_pow2(self, n: int, buffer) -> np.ndarray:
        # lane j holds Z_{t*K + j + 1}; one vector op advances all lanes K
        # steps.  Products wrap mod 2^64, so the mask is needed below 2^64 only.
        m, a, c = self.m, self.a, self.c
        mask = np.uint64(m - 1) if m < 1 << 64 else None
        K = min(n, _LANES)
        steps = -(-n // K)
        states = buffer(steps * K).reshape(steps, K)
        apow = np.ones(K, dtype=np.uint64)
        apow[1:] = a
        np.cumprod(apow, out=apow)                      # a^j mod 2^64
        gsum = np.zeros(K, dtype=np.uint64)
        np.cumsum(apow[:K - 1], out=gsum[1:])           # 1 + ... + a^(j-1)
        lanes = states[0]
        np.multiply(apow, np.uint64(a * self.state % m), out=lanes)
        gsum *= np.uint64(a)
        gsum += np.uint64(1)
        gsum *= np.uint64(c)
        lanes += gsum                                   # Z_{j+1}
        if mask is not None:
            lanes &= mask
        A = np.uint64(pow(a, K, m))
        C = np.uint64((c * _geometric_sum(a, K, m)) % m)
        for t in range(1, steps):
            row = states[t]
            np.multiply(lanes, A, out=row)
            np.add(row, C, out=row)
            if mask is not None:
                np.bitwise_and(row, mask, out=row)
            lanes = row
        flat = states.reshape(-1)[:n]
        self.state = int(flat[-1])
        return flat

    def _states_fold(self, n: int, buffer) -> np.ndarray:
        # lane j holds Z_{j*S + t + 1} at step t: each lane starts from a
        # Python-int jump and steps by a itself, whose size bounds the fold
        m, a, c = self.m, self.a, self.c
        k, c0 = self._fold
        K = min(n, _LANES, 1 + math.isqrt(_LANE_BALANCE * n))
        S = -(-n // K)
        A = pow(a, S, m)
        C = (c * _geometric_sum(a, S, m)) % m
        starts = [(a * self.state + c) % m]
        for _ in range(K - 1):
            starts.append((A * starts[-1] + C) % m)
        states = buffer(K * S).reshape(K, S)
        lanes = np.array(starts, dtype=np.uint64)
        states[:, 0] = lanes
        u = np.uint64
        half, low32 = u(32), u(0xFFFFFFFF)
        a_lo, a_hi = u(a & 0xFFFFFFFF), u(a >> 32)
        kk, back, low_k = u(k), u(64 - k), u((1 << k) - 1)
        c0, c, m = u(c0), u(c), u(m)
        for t in range(1, S):
            # 128-bit a*x as (hi, lo) from four 32x32-bit products
            x_lo, x_hi = lanes & low32, lanes >> half
            ll = x_lo * a_lo
            mid = x_hi * a_lo + (ll >> half)
            mid2 = x_lo * a_hi + (mid & low32)
            hi = x_hi * a_hi + (mid >> half) + (mid2 >> half)
            lo = (mid2 << half) | (ll & low32)
            # a*x + c = (a*x >> k)*c0 + (a*x mod 2^k) + c  (mod m), < 2^64
            lanes = ((hi << back) | (lo >> kk)) * c0 + (lo & low_k) + c
            lanes = (lanes >> kk) * c0 + (lanes & low_k)             # < 2m
            np.subtract(lanes, m, out=lanes, where=lanes >= m)
            states[:, t] = lanes
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
        self._hits = np.empty(0, dtype=bool)

    @property
    def out_range(self) -> int | None:
        return getattr(self.sources[0], "out_range", None) if self.sources else None

    def outputs(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError("n must be >= 0")
        out = np.empty(n, dtype=np.uint32)
        for lo in range(0, n, _CHUNK):
            letters = self.steering.take(min(_CHUNK, n - lo))
            part = out[lo:lo + letters.size]
            if self._hits.size < letters.size:
                self._hits = np.empty(letters.size, dtype=bool)
            hits = self._hits[:letters.size]
            for a, src in enumerate(self.sources):
                np.equal(letters, a, out=hits)
                count = int(np.count_nonzero(hits))
                if count:
                    np.place(part, hits, src.outputs(count))
                    self.counters[a] += count
        return out

    def next(self) -> int:
        return int(self.outputs(1)[0])

    def warm_up(self, n: int = 10 ** 9) -> None:
        """Skip n outputs in O(log n): each source warms up by the number of
        times its steering letter occurs in the skipped stretch."""
        if n < 0:
            raise ParameterError("n must be >= 0")
        pos = self.steering.position
        before = self.steering.prefix_parikh(pos)
        after = self.steering.prefix_parikh(pos + n)
        for a, src in enumerate(self.sources):
            delta = after[a] - before[a]
            src.warm_up(delta)
            self.counters[a] += delta
        self.steering.seek(pos + n)

    def __repr__(self):
        return f"ShuffledPrng({self.steering!r}, {self.sources!r})"


def _value_chunks(source, n: int, size: int):
    """The first n values of an ndarray, or of anything with .outputs(k),
    in pieces of at most size values (a source may return fewer)."""
    array = isinstance(source, np.ndarray)
    if array and source.size < n:
        raise ParameterError(
            f"array source holds {source.size} values, need {n}")
    off = 0
    while off < n:
        k = min(size, n - off)
        piece = source[off:off + k] if array else source.outputs(k)
        if piece.size == 0:
            raise ParameterError(f"source gave no values with {n - off} owed")
        yield piece
        off += piece.size


def stream_export(source, n: int, sink) -> int:
    """Write n outputs as little-endian 32-bit words to the writable binary
    file sink; returns bytes written.  Byte-identical across runs for
    identical parameters and seeds.
    """
    if n < 0:
        raise ParameterError("n must be >= 0")
    written = 0
    for chunk in _value_chunks(source, n, _CHUNK):
        # no copy of a contiguous uint32 chunk on a little-endian host
        data = np.ascontiguousarray(chunk, dtype="<u4")
        sink.write(data)
        written += data.nbytes
    sink.flush()
    return written
