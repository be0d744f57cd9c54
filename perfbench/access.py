"""The access workload's client: one process issuing seek requests back to back.

Usage: python perfbench/access.py --seed N --requests K [--spans FILE]

Prints ``READY <monotonic time>`` once every stream is built and the first
request is ready, then one JSON line with the monotonic time the last
request ended, the per-request latencies, a digest of every response and a
sample of responses for the oracle checks of `verify`, which the benchmark
runs in its own process so that they add nothing to this one's time and
memory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import plan  # noqa: E402
from spans import Tracer, instrument  # noqa: E402

CHECKS_PER_KIND = 24            # sampled requests per word kind
SHUFFLE_CHECKS = 8
SHUFFLE_CHECK_OUTPUTS = 256


def verify(samples: list, seed: int) -> int:
    """Oracle checks on sampled responses; returns the mismatch count.

    Every word kind: prefix_parikh(p+1) - prefix_parikh(p) is the unit
    vector of letter_at(p).  fib and rot: letters equal rotation_letter.
    fib, trib and tm below 2^20: letters equal naive iteration.  Shuffles:
    outputs equal the Python-int LCG loop from the jumped states.
    """
    from aprng.rotation import fibonacci_rotation, rotation_letter
    from aprng.specs import build_word
    coding = fibonacci_rotation().coding
    rules = {"fib": ["01", "0"], "trib": ["01", "02", "0"], "tm": ["01", "10"]}
    naive = {k: oracles.morphism_prefix(r, 1 << 20) for k, r in rules.items()}
    streams = {name: build_word(spec) for name, spec in plan.ACCESS_KINDS}
    bad = 0
    for name, pos, *resp in samples:
        if name == "shuffle":
            want = oracles.shuffle_values(plan.gen_seed(seed), pos,
                                          SHUFFLE_CHECK_OUTPUTS)
            bad += resp[0] != oracles.le32(want).hex()
            continue
        letter, block, parikh = resp[0], bytes.fromhex(resp[1]), resp[2]
        after = streams[name].prefix_parikh(pos + 1)
        step = [x - y for x, y in zip(after, parikh)]
        ok = step == [int(a == letter) for a in range(len(step))]
        if name in ("fib", "rot"):
            ok &= letter == rotation_letter(coding, pos)
            ok &= block[0] == rotation_letter(coding, pos + 1)
            ok &= block[-1] == rotation_letter(coding, pos + len(block))
        if name in naive and pos + 1 + len(block) <= len(naive[name]):
            w = naive[name]
            ok &= letter == w[pos] and block == w[pos + 1:pos + 1 + len(block)]
        bad += not ok
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--requests", type=int, required=True)
    p.add_argument("--spans", default=None, help="record spans to this file")
    args = p.parse_args(argv)

    tracer = Tracer("access")
    with tracer.span("cli.import"):
        from aprng import specs
    if args.spans:
        instrument(tracer)
    gen_seed = plan.gen_seed(args.seed)
    streams = [specs.build_word(specs.parse_word_spec(spec))
               for _, spec in plan.ACCESS_KINDS]
    shuffle = specs.parse_gen_spec(plan.SHUFFLE)
    requests = plan.access_requests(args.seed, args.requests)
    print(f"READY {time.monotonic()!r}", flush=True)

    latencies, samples, taken = [], [], {}
    digest = hashlib.sha256()
    clock = time.perf_counter
    for rid, (kind, pos) in enumerate(requests):
        tracer.request = rid
        t0 = clock()
        if kind is None:
            z = specs.build_gen(shuffle, gen_seed)
            z.warm_up(pos)
            out = z.outputs(plan.ACCESS_OUTPUTS).astype("<u4").tobytes()
            t1 = clock()
            digest.update(out)
            name, sample = "shuffle", (out[:4 * SHUFFLE_CHECK_OUTPUTS].hex(),)
        else:
            s = streams[kind]
            letter = s.letter_at(pos)
            block = s.take(plan.ACCESS_TAKE).tobytes()
            parikh = s.prefix_parikh(pos)
            t1 = clock()
            digest.update(repr((letter, parikh)).encode() + block)
            name, sample = plan.ACCESS_KINDS[kind][0], (letter, block.hex(), parikh)
        latencies.append(t1 - t0)
        limit = SHUFFLE_CHECKS if kind is None else CHECKS_PER_KIND
        if taken.get(name, 0) < limit:
            taken[name] = taken.get(name, 0) + 1
            samples.append((name, pos, *sample))
    done = time.monotonic()

    if args.spans:
        with open(args.spans, "w") as f:
            json.dump(tracer.spans, f)
    kinds = [plan.ACCESS_KINDS[k][0] if k is not None else "shuffle"
             for k, _ in requests]
    print(json.dumps({"done": done, "latencies_s": latencies, "kinds": kinds,
                      "digest": digest.hexdigest(), "samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
