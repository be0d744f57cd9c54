"""Per-layer measurements, one per fresh process.

Usage: python perfbench/layers.py MEASUREMENT --seed N

Each measurement times calls into one module's public functions, records
every call as a span, and prints one JSON line: the metrics, the spans and
the process's peak RSS.  The benchmark runs the measurements of MEASUREMENTS
in order, each in its own process, because allocator state carried over
from one call changes the page-fault cost of the next.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import plan  # noqa: E402
from spans import Tracer  # noqa: E402

# the search measurements use a larger sample and fewer normals than the
# analyze workload: per-normal cost and page faults depend on the sample
SEARCH_SAMPLE = (1 << 18) + 2
SEARCH_BOUND = 4
POSITIONS = 120
CHUNK = 1 << 22


def _median_wall(tr: Tracer, name: str, fn, reps: int) -> float:
    walls = []
    for _ in range(reps):
        with tr.span(name) as rec:
            fn()
        walls.append(rec["wall_s"])
    return statistics.median(walls)


def _per_call_us(tr: Tracer, name: str, fn, args) -> float:
    walls = []
    for a in args:
        with tr.span(name) as rec:
            fn(a)
        walls.append(rec["wall_s"])
    return statistics.median(walls) * 1e6


def _take_rate(tr: Tracer, name: str, stream, chunks: int = 9,
               size: int = CHUNK) -> float:
    stream.take(size)               # first blocks are built lazily
    return size / _median_wall(tr, name, lambda: stream.take(size), chunks) / 1e6


def m_cli(tr, seed):
    with tr.span("cli.import") as rec:
        import aprng.cli  # noqa: F401
    return {"cli.import_s": (rec["wall_s"], "s")}


SPEC_LABELS = plan.ACCESS_KINDS + (
    ("randu", "randu"), ("l64_28", "l64_28"), ("l63-25", "l63-25"),
    ("l64_39", "l64_39"), ("shuffle", plan.SHUFFLE))


def m_specs(tr, seed):
    from aprng import specs
    words = {label for label, _ in plan.ACCESS_KINDS}
    out = {}
    for label, text in SPEC_LABELS:
        if label in words:
            fn = lambda: specs.build_word(specs.parse_word_spec(text))
        else:
            fn = lambda: specs.parse_gen_spec(text).build(plan.gen_seed(seed))
        us = _median_wall(tr, "specs.parse_build", fn, 9) * 1e6
        out[f"specs.parse_build_us.{label}"] = (us, "us")
    return out


def m_words(tr, seed):
    from aprng import morphic, words
    letters = morphic.fibonacci_stream().take(CHUNK)
    text_s = _median_wall(tr, "words.word_to_text",
                          lambda: words.word_to_text(letters), 5)
    prefix = letters[:plan.WELLDOC_PREFIX]
    buf_s = _median_wall(tr, "words.PrefixBuffer",
                         lambda: words.PrefixBuffer(prefix, 2), 7)
    return {"words.word_to_text.Mletters_per_s": (letters.size / text_s / 1e6,
                                                  "Mletters/s"),
            "words.prefix_buffer_s": (buf_s, "s")}


def m_streams(tr, seed):
    from aprng import morphic
    s = morphic.fibonacci_stream()
    wall = _median_wall(tr, "streams.WordStream.prefix",
                        lambda: s.prefix(plan.WELLDOC_PREFIX), 7)
    return {"streams.prefix_s": (wall, "s")}


def m_morphic(tr, seed):
    from aprng import specs
    out = {}
    for label, text in (("fib", "fib"), ("trib", "trib"),
                        ("tm", "morphism:0->01,1->10"),
                        ("merge", "merge:010:trib"), ("interleave", "fib2")):
        s = specs.build_word(text)
        out[f"morphic.take.{label}.Mletters_per_s"] = (
            _take_rate(tr, f"morphic.take.{label}", s), "Mletters/s")
    fib = specs.build_word("fib")
    fib.take(1 << 24)
    fib.letter_at(10 ** 15)
    out["morphic.max_stack_depth"] = (fib.max_stack_depth, "count")
    pos = plan.access_positions(seed, POSITIONS)
    out["morphic.letter_at_us"] = (
        _per_call_us(tr, "morphic.letter_at", fib.letter_at, pos), "us")
    out["morphic.prefix_parikh_us"] = (
        _per_call_us(tr, "morphic.prefix_parikh", fib.prefix_parikh, pos), "us")
    out["morphic.fork_us"] = (
        _per_call_us(tr, "morphic.fork", lambda _: fib.fork(), pos), "us")
    return out


def m_rotation(tr, seed):
    from aprng import specs
    s = specs.build_word(plan.ROT)
    pos = plan.access_positions(seed, POSITIONS)
    return {
        "rotation.take.Mletters_per_s": (
            _take_rate(tr, "rotation.take", s, 3, 1 << 16), "Mletters/s"),
        "rotation.letter_at_us": (
            _per_call_us(tr, "rotation.letter_at", s.letter_at, pos), "us"),
        "rotation.prefix_parikh_us": (
            _per_call_us(tr, "rotation.prefix_parikh", s.prefix_parikh, pos),
            "us"),
    }


def m_arnoux_rauzy(tr, seed):
    from aprng import specs
    spec = specs.parse_word_spec("ar:cycle:012")
    init = _per_call_us(tr, "arnoux_rauzy.init", lambda _: spec.build(),
                        range(15))
    s = spec.build()
    pos = plan.access_positions(seed, POSITIONS)
    return {
        "arnoux_rauzy.take.Mletters_per_s": (
            _take_rate(tr, "arnoux_rauzy.take", s), "Mletters/s"),
        "arnoux_rauzy.letter_at_us": (
            _per_call_us(tr, "arnoux_rauzy.letter_at", s.letter_at, pos), "us"),
        "arnoux_rauzy.prefix_parikh_us": (
            _per_call_us(tr, "arnoux_rauzy.prefix_parikh", s.prefix_parikh,
                         pos), "us"),
        "arnoux_rauzy.init_us": (init, "us"),
    }


class _NullSink:
    def write(self, data):
        return len(data)

    def flush(self):
        pass


def m_prng(tr, seed):
    from aprng import prng, specs
    gs = plan.gen_seed(seed)
    n = 1 << 20
    pow2 = prng.named_lcg("l64_28", gs)
    prime = prng.named_lcg("l63-25", gs)
    shuf = specs.build_gen(plan.SHUFFLE, gs)
    rates = {
        "prng.lcg_outputs.pow2.Mvals_per_s":
            n / _median_wall(tr, "prng.Lcg.outputs.pow2",
                             lambda: pow2.outputs(n), 9),
        "prng.lcg_outputs.prime.Mvals_per_s":
            (n >> 3) / _median_wall(tr, "prng.Lcg.outputs.prime",
                                    lambda: prime.outputs(n >> 3), 3),
        "prng.shuffled_outputs.Mvals_per_s":
            n / _median_wall(tr, "prng.ShuffledPrng.outputs",
                             lambda: shuf.outputs(n), 9),
    }
    out = {k: (v / 1e6, "Mvals/s") for k, v in rates.items()}
    export_n = 1 << 23
    wall = _median_wall(tr, "prng.stream_export",
                        lambda: prng.stream_export(pow2, export_n, _NullSink()), 3)
    out["prng.stream_export.MB_per_s"] = (4 * export_n / wall / 1e6, "MB/s")
    pos = plan.access_positions(seed, POSITIONS)
    out["prng.jump_us"] = (_per_call_us(tr, "prng.Lcg.jump", pow2.jump, pos), "us")
    walls = []
    for p in pos:
        z = specs.build_gen(plan.SHUFFLE, gs)
        with tr.span("prng.ShuffledPrng.warm_up") as rec:
            z.warm_up(p)
        walls.append(rec["wall_s"])
    out["prng.shuffled_warm_up_us"] = (statistics.median(walls) * 1e6, "us")
    return out


def _tuples(gen_text: str, seed: int, warmup: int):
    from aprng import lattice, specs
    g = specs.build_gen(gen_text, plan.gen_seed(seed))
    g.warm_up(warmup)
    return lattice.consecutive_tuples(g, SEARCH_SAMPLE, 3), g.out_range


def m_lattice(tr, seed):
    from aprng import lattice, specs
    g = specs.build_gen("randu", plan.gen_seed(seed))
    values = g.outputs(plan.LATTICE_SAMPLE)
    tup_s = _median_wall(tr, "lattice.consecutive_tuples",
                         lambda: lattice.consecutive_tuples(
                             g.fork(), plan.LATTICE_SAMPLE, 3), 7)
    tuples = lattice.consecutive_tuples(values, values.size, 3)
    pc = _median_wall(tr, "lattice.plane_count",
                      lambda: lattice.plane_count(tuples, (9, -6, 1), g.out_range), 7)
    return {"lattice.consecutive_tuples_s": (tup_s, "s"),
            "lattice.plane_count_ms": (pc * 1e3, "ms")}


def _search(tr, seed, gen_text, warmup, threads, label):
    from aprng import lattice
    tuples, scale = _tuples(gen_text, seed, warmup)
    with tr.span("lattice.search_normals") as rec:
        reports = lattice.search_normals(tuples, scale, SEARCH_BOUND,
                                         threads=threads)
    key = f"lattice.search_normals.{label}"
    out = {f"{key}.ms_per_normal": (rec["wall_s"] / len(reports) * 1e3, "ms"),
           f"{key}.minflt": (rec["minflt"], "count")}
    if threads > 1:
        out[f"{key}.parallelism"] = (rec["cpu_s"] / rec["wall_s"], "ratio")
    if label == "randu":
        out["lattice.normals"] = (len(reports), "count")
    return out


def m_lattice_randu(tr, seed):
    return _search(tr, seed, "randu", 0, 1, "randu")


def m_lattice_shuffle(tr, seed):
    return _search(tr, seed, plan.SHUFFLE, 10 ** 9, 1, "shuffle")


def m_lattice_threads2(tr, seed):
    return _search(tr, seed, "randu", 0, 2, "threads2")


def _welldoc(tr, label, text, m, length):
    from aprng import specs, welldoc
    s = specs.build_word(text)
    with tr.span("welldoc.welldoc_scan") as rec:
        reports = welldoc.welldoc_scan(s, m, length, plan.WELLDOC_PREFIX,
                                       threads=1)
    scanned = max(r.prefix_scanned for r in reports.values())
    needed = [max(min(w) for w in r.witnesses.values()) + len(r.factor)
              for r in reports.values() if r.verdict == welldoc.COVERED]
    return {
        f"welldoc.welldoc_scan_s.{label}": (rec["wall_s"], "s"),
        f"welldoc.factors.{label}": (len(reports), "count"),
        f"welldoc.occurrences.{label}": (
            sum(r.occurrences_seen for r in reports.values()), "count"),
        f"welldoc.prefix_scanned.{label}": (scanned, "count"),
        f"welldoc.useful_prefix_ratio.{label}": (max(needed) / scanned, "ratio"),
    }


def m_welldoc_fib(tr, seed):
    return _welldoc(tr, "fib", "fib", 3, 6)


def m_welldoc_trib(tr, seed):
    return _welldoc(tr, "trib", "trib", 2, 4)


def m_welldoc_tm(tr, seed):
    return _welldoc(tr, "tm", "morphism:0->01,1->10", 2, 4)


def m_welldoc_check(tr, seed):
    from aprng import morphic, welldoc
    q = welldoc.WelldocQuery(morphic.fibonacci_stream(), b"\x00\x01", 3,
                             plan.WELLDOC_PREFIX)
    wall = _median_wall(tr, "welldoc.welldoc_check",
                        lambda: welldoc.welldoc_check(q), 5)
    return {"welldoc.welldoc_check_s": (wall, "s")}


class _States:
    """Pre-generated raw states served in order, as LowBitsSource reads them."""

    def __init__(self, states):
        self.states = states
        self.at = 0

    def raw_states(self, n):
        out = self.states[self.at:self.at + n]
        self.at += n
        return out


def m_stats(tr, seed):
    from aprng import prng, specs, stats
    n = plan.STATS_N
    values = specs.build_gen(plan.SHUFFLE, plan.gen_seed(seed)).outputs(n)
    states = prng.named_lcg("l64_39", plan.gen_seed(seed)).raw_states(n)
    runs = {
        "chi_square_equidist": lambda: stats.chi_square_equidist(values, 64, n),
        "serial_pairs": lambda: stats.serial_pairs(values, 64, n),
        "gap_test": lambda: stats.gap_test(values, (0.25, 0.75), n),
        "low_bits_source": lambda: stats.serial_pairs(
            stats.LowBitsSource(_States(states), 1), 64, n),
    }
    return {f"stats.{name}.Mvals_per_s":
            (n / _median_wall(tr, f"stats.{name}", fn, 3) / 1e6, "Mvals/s")
            for name, fn in runs.items()}


# fixed order; each runs in a fresh process
MEASUREMENTS = {
    "cli": m_cli, "specs": m_specs, "words": m_words, "streams": m_streams,
    "morphic": m_morphic, "rotation": m_rotation,
    "arnoux_rauzy": m_arnoux_rauzy, "prng": m_prng, "lattice": m_lattice,
    "lattice_randu": m_lattice_randu, "lattice_shuffle": m_lattice_shuffle,
    "lattice_threads2": m_lattice_threads2, "welldoc_fib": m_welldoc_fib,
    "welldoc_trib": m_welldoc_trib, "welldoc_tm": m_welldoc_tm,
    "welldoc_check": m_welldoc_check, "stats": m_stats,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("measurement", choices=sorted(MEASUREMENTS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    tr = Tracer(f"layer:{args.measurement}")
    metrics = MEASUREMENTS[args.measurement](tr, args.seed)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()},
                      "spans": tr.spans, "maxrss_mb": rss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
