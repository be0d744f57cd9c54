"""Exact reference computations the benchmark checks outputs against.

The generator oracles use plain Python integers only: LCG jumps by 2x2
matrix powers, the Python-int LCG loop, and the Fibonacci steering word
from the exact floor formula of its rotation coding.  The word oracles call
the package's naive ones (`iterate_fixed_point`, `rotation_letter`).
"""
from __future__ import annotations

from math import isqrt

# (m, a, c) of the generators the workloads use
LCGS = {
    "randu": (2 ** 31, 65539, 0),
    "l63-25": (2 ** 63 - 25, 2307085864, 0),
    "l64_28": (2 ** 64, 2862933555777941757, 1),
    "l64_32": (2 ** 64, 3202034522624059733, 1),
    "l64_39": (2 ** 64, 3935559000370003845, 1),
}


def lcg_jump(name: str, seed: int, k: int) -> int:
    """State after k steps, by squaring [[a, c], [0, 1]] mod m."""
    m, a, c = LCGS[name]
    A, C = 1, 0                   # accumulated map x -> A x + C
    pa, pc = a, c                 # the map applied 2^i times
    while k:
        if k & 1:
            A, C = (pa * A) % m, (pa * C + pc) % m
        pa, pc = (pa * pa) % m, (pa * pc + pc) % m
        k >>= 1
    return (A * seed + C) % m


def lcg_values(name: str, state: int, n: int) -> tuple[list[int], int]:
    """n outputs of the Python-int loop from ``state``, and the final state."""
    m, a, c = LCGS[name]
    shift = max(0, (m - 1).bit_length() - 32)
    out = []
    for _ in range(n):
        state = (a * state + c) % m
        out.append(state >> shift)
    return out, state


def fib_ones(n: int) -> int:
    """Ones among the first n letters of the Fibonacci word 0->01, 1->0.

    The word codes the rotation by alpha = (3 - sqrt 5)/2 from alpha, so the
    count is floor((n+1) alpha) = floor((3k - sqrt(5 k^2)) / 2), k = n+1;
    5k^2 is never a square, which makes the integer form below exact.
    """
    k = n + 1
    return (3 * k - isqrt(5 * k * k) - 1) // 2


def fib_letters(start: int, n: int) -> list[int]:
    ones = [fib_ones(p) for p in range(start, start + n + 1)]
    return [ones[i + 1] - ones[i] for i in range(n)]


def shuffle_values(seed: int, warmup: int, n: int) -> list[int]:
    """Outputs of shuffle:fib:l64_28,l64_32 after ``warmup`` skipped."""
    ones = fib_ones(warmup)
    states = [lcg_jump("l64_28", seed, warmup - ones),
              lcg_jump("l64_32", seed, ones)]
    names = ("l64_28", "l64_32")
    out = []
    for letter in fib_letters(warmup, n):
        (v,), states[letter] = lcg_values(names[letter], states[letter], 1)
        out.append(v)
    return out


def le32(values) -> bytes:
    return b"".join(int(v).to_bytes(4, "little") for v in values)


def lattice_classes(values: list[int], normal, scale: int) -> int:
    """Distinct floor(n.x / scale) over consecutive t-tuples, in Python ints."""
    t = len(normal)
    return len({sum(n * values[i + j] for j, n in enumerate(normal)) // scale
                for i in range(len(values) - t + 1)})


def morphism_prefix(rules: list[str], n: int) -> bytes:
    """First n letters of the fixed point from letter 0 (naive iteration)."""
    from aprng.morphic import Morphism, iterate_fixed_point
    return iterate_fixed_point(Morphism(rules), 0, n)[:n]


def welldoc_witness_errors(word: bytes, d: int, m: int, factors: dict) -> int:
    """Count witnesses that do not start an occurrence of their factor with
    the claimed residue vector of the preceding letter counts."""
    import numpy as np
    arr = np.frombuffer(word, dtype=np.uint8)
    cum = np.zeros((d, arr.size + 1), dtype=np.int64)
    for a in range(d):
        np.cumsum(arr == a, out=cum[a, 1:])
    errors = 0
    for text, rep in factors.items():
        fac = bytes(int(ch) for ch in text)
        for vec, idxs in rep["witnesses"].items():
            want = [int(x) for x in vec.split()]
            for i in idxs:
                if (word[i:i + len(fac)] != fac
                        or [int(cum[a, i]) % m for a in range(d)] != want):
                    errors += 1
    return errors
