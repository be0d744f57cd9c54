"""Workload definitions: the commands each workload runs and the inputs it
derives from the workload seed.

The seed selects one of VARIANTS input sets (seed mod VARIANTS).  A variant
fixes the generator seeds passed to every command and the positions of the
access requests, so the same seed always gives the same inputs, and the
expected outputs of every variant can be recorded once in digests.json.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 8

ROT = "rot:(3-1*sqrt(5))/2:(3-1*sqrt(5))/2"
SHUFFLE = "shuffle:fib:l64_28,l64_32"

# word kinds of the access workload, requested round-robin
ACCESS_KINDS = (
    ("fib", "fib"), ("trib", "trib"), ("tm", "morphism:0->01,1->10"),
    ("rot", ROT), ("ar_cycle", "ar:cycle:012"),
    ("ar_morphic", "ar:morphic:0->01,1->0:0"),
    ("merge", "merge:010:trib"), ("fib2", "fib2"),
)
ACCESS_REQUESTS = 1600
ACCESS_SHUFFLE_EVERY = 8        # every 8th request builds and warms a shuffle
ACCESS_TAKE = 256
ACCESS_OUTPUTS = 4096
ACCESS_POS_RANGE = (1e3, 1e15)


def variant(seed: int) -> int:
    return seed % VARIANTS


def gen_seed(seed: int) -> int:
    """Odd generator seed below 2^31, valid for every generator used."""
    return random.Random(f"gen-{variant(seed)}").randrange(1, 1 << 31, 2)


def access_positions(seed: int, n: int, stream: str = "") -> list[int]:
    """n positions log-uniform in ACCESS_POS_RANGE, stratified: position j
    falls in its own 1/n of the log range, in seeded order, so every seed
    asks for the same spread of magnitudes."""
    rng = random.Random(f"access-{variant(seed)}-{stream}")
    lo, hi = ACCESS_POS_RANGE
    order = list(range(n))
    rng.shuffle(order)
    return [int(lo * (hi / lo) ** ((k + rng.random()) / n)) for k in order]


def access_requests(seed: int, n: int) -> list[tuple[int | None, int]]:
    """(word kind index, or None for a shuffle request, position) of the n
    requests: every ACCESS_SHUFFLE_EVERY-th one builds and warms a shuffle,
    the others cycle through ACCESS_KINDS."""
    shuffles = n // ACCESS_SHUFFLE_EVERY
    kinds = [i % len(ACCESS_KINDS) for i in range(n - shuffles)]
    draws = {k: iter(access_positions(seed, kinds.count(k), name))
             for k, (name, _) in enumerate(ACCESS_KINDS)}
    draws[None] = iter(access_positions(seed, shuffles, "shuffle"))
    words = iter(kinds)
    out = []
    for i in range(n):
        k = None if i % ACCESS_SHUFFLE_EVERY == ACCESS_SHUFFLE_EVERY - 1 else next(words)
        out.append((k, next(draws[k])))
    return out


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``{work}`` and ``{seed}`` are filled per run."""

    label: str
    argv: tuple[str, ...]
    work: int           # work argument of a timed run
    min_work: int       # the smallest the command accepts, for set-up runs
    output: str         # "bytes", "lattice", "welldoc" or "stats"

    def args(self, seed: int, minimal: bool = False) -> list[str]:
        work = self.min_work if minimal else self.work
        return [a.format(work=work, seed=gen_seed(seed)) for a in self.argv]


def _gen(kind: str, spec: str, *extra: str) -> tuple[str, ...]:
    return (kind, spec, "--seed", "{seed}", *extra)


EXPORT = (
    Command("word_text", ("word", "fib", "--count", "{work}"),
            3_000_000, 1, "bytes"),
    Command("word_morphic", ("word", "fib", "--raw", "--count", "{work}"),
            300_000_000, 1, "bytes"),
    Command("word_rotation", ("word", ROT, "--raw", "--count", "{work}"),
            800_000, 1, "bytes"),
    Command("gen_pow2", _gen("gen", "l64_28", "--count", "{work}"),
            50_000_000, 1, "bytes"),
    Command("gen_prime", _gen("gen", "l63-25", "--count", "{work}"),
            1_500_000, 1, "bytes"),
    Command("shuffle", ("shuffle", "fib", "l64_28,l64_32", "--seed", "{seed}",
                        "--count", "{work}"),
            25_000_000, 1, "bytes"),
)

# the lattice sample counts outputs; t=3 tuples number sample - 2
LATTICE_SAMPLE = (1 << 15) + 2
WELLDOC_PREFIX = 200_000
STATS_N = 4_000_000

ANALYZE = (
    Command("lattice_randu",
            _gen("lattice", "randu", "--warmup", "0", "--sample", "{work}",
                 "--threads", "1", "--json"),
            LATTICE_SAMPLE, 3, "lattice"),
    Command("lattice_shuffle",
            _gen("lattice", SHUFFLE, "--sample", "{work}", "--threads", "1",
                 "--json"),
            LATTICE_SAMPLE, 3, "lattice"),
    Command("welldoc_fib",
            ("welldoc", "fib", "--m", "3", "--factor-len", "6",
             "--prefix", "{work}"),
            WELLDOC_PREFIX, 7, "welldoc"),
    Command("welldoc_trib",
            ("welldoc", "trib", "--m", "2", "--factor-len", "4",
             "--prefix", "{work}"),
            WELLDOC_PREFIX, 5, "welldoc"),
    Command("welldoc_tm",
            ("welldoc", "morphism:0->01,1->10", "--m", "2", "--factor-len",
             "4", "--prefix", "{work}"),
            WELLDOC_PREFIX, 5, "welldoc"),
    Command("stats_chi2", _gen("stats", SHUFFLE, "--test", "chi2", "--n",
                               "{work}", "--json"),
            STATS_N, 6400, "stats"),
    Command("stats_serial", _gen("stats", SHUFFLE, "--test", "serial", "--n",
                                 "{work}", "--json"),
            STATS_N, 6400, "stats"),
    Command("stats_gap", _gen("stats", SHUFFLE, "--test", "gap", "--n",
                              "{work}", "--json"),
            STATS_N, 6400, "stats"),
    Command("stats_lowbits", _gen("stats", "l64_39", "--test", "serial",
                                  "--lowbits", "1", "--n", "{work}", "--json"),
            STATS_N, 6400, "stats"),
)
