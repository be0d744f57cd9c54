"""Command line front end.

One process, one command.  Letters print as ASCII digits by default
(``--raw`` switches to one byte per letter), generator streams are raw
little-endian 32-bit words, analysis results are JSON.  Identical
invocations produce byte-identical output.  Only this module opens
files: the library writers take an open file.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .errors import SpecParseError
from .specs import build_word, parse_gen_spec, parse_number
from .words import word_to_text

# Each command imports the modules only it needs, so a process that streams
# a word compiles no analysis module.

_TEXT_CHUNK = 1 << 20
_PIPE_BYTES = 1 << 20     # stdout pipe size the bulk writers ask for
_REPORT_CAP = 10          # search results included in lattice JSON
DEFAULT_WARMUP = 10 ** 9


def _num(text: str) -> int:
    try:
        return parse_number(text)
    except SpecParseError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected lo,hi like 0.25,0.75, got {text!r}")
    try:
        if not text.isascii():      # float() also reads other scripts' digits
            raise ValueError(text)
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"interval bounds must be numbers, got {text!r}") from None


def _normal(text: str) -> tuple[int, ...]:
    try:
        if not text.isascii():      # int() also reads other scripts' digits
            raise ValueError(text)
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers like 9,-6,1, got {text!r}") from None


def _widen_stdout_pipe() -> None:
    """Set a stdout pipe to _PIPE_BYTES, so that a bulk writer and its
    reader trade larger pieces per wake-up.  Where that fails (stdout is no
    pipe, the platform has no such call, the per-user pipe quota is spent)
    the pipe stays as it is."""
    try:
        import fcntl
        fcntl.fcntl(sys.stdout.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (ImportError, AttributeError, OSError, ValueError):
        pass


def _output(path: str):
    """Binary output target: stdout for '-', which stays open, else a file."""
    if path == "-":
        _widen_stdout_pipe()
        return contextlib.nullcontext(sys.stdout.buffer)
    return open(path, "wb")


def _make_gen(args) -> object:
    """Build the generator named by the subcommand's arguments and warm it."""
    gen = parse_gen_spec(args.spec).build(args.seed)
    if args.warmup:
        gen.warm_up(args.warmup)
    return gen


def _cmd_word(args) -> int:
    stream = build_word(args.spec)
    remaining = args.count
    with _output(args.out) as f:
        while remaining > 0:
            take = min(_TEXT_CHUNK, remaining)
            chunk = stream.take(take)
            f.write(chunk if args.raw else word_to_text(chunk).encode())
            remaining -= take
        if not args.raw:
            f.write(b"\n")
    return 0


def _cmd_gen(args) -> int:
    from .prng import stream_export
    gen = _make_gen(args)
    with _output(args.out) as f:
        stream_export(gen, args.count, f)
    return 0


def _cmd_shuffle(args) -> int:
    args.spec = f"shuffle:{args.word}:{','.join(args.gens)}"
    return _cmd_gen(args)


def _cmd_welldoc(args) -> int:
    import json
    from .welldoc import welldoc_scan
    stream = build_word(args.spec)
    reports = welldoc_scan(stream, args.m, args.factor_len,
                           max_prefix=args.prefix)
    factors = {word_to_text(k): v.as_dict() for k, v in reports.items()}
    verdict = ("COVERED" if all(v.verdict == "COVERED"
                                for v in reports.values())
               else "UNDETERMINED")
    print(json.dumps({
        "word": args.spec,
        "modulus": args.m,
        "max_factor_len": args.factor_len,
        "prefix": args.prefix,
        "verdict": verdict,
        "factors": factors,
    }, indent=2))
    return 0


def _cmd_lattice(args) -> int:
    import json
    import numpy as np
    from .lattice import consecutive_tuples, plane_count, search_normals
    gen = _make_gen(args)
    scale = gen.out_range if args.scale is None else args.scale
    tuples = consecutive_tuples(gen, args.sample, args.t)
    result = {
        "generator": args.spec,
        "t": args.t,
        "scale": scale,
        "sample": args.sample,
    }
    if args.normal is not None:
        report = plane_count(tuples, args.normal, scale)
        result["best"] = report.as_dict()
        result["reports"] = [report.as_dict()]
    else:
        result["bound"] = args.bound
        reports = search_normals(tuples, scale, args.bound)
        result["best"] = reports[0].as_dict()
        result["reports"] = [r.as_dict() for r in reports[:_REPORT_CAP]]
    # after the analysis, which rejects a sample outside the scale's cube
    if args.dump:
        with open(args.dump, "w") as f:
            np.savetxt(f, tuples / float(scale), fmt="%.10f", delimiter=",")
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        best = result["best"]
        print(f"best normal {tuple(best['normal'])}: "
              f"{best['plane_count']} of {best['comparison']} classes "
              f"(ratio {best['ratio']:.4f}) over {best['sample_size']} tuples")
    return 0


def _cmd_stats(args) -> int:
    import json
    from .stats import (LowBitsSource, ScaledSource, chi_square_equidist,
                        gap_test, serial_pairs)
    gen = _make_gen(args)
    if args.lowbits:
        gen = LowBitsSource(gen, args.lowbits)
    elif gen.out_range != 1 << 32:
        gen = ScaledSource(gen)
    if args.test == "chi2":
        report = chi_square_equidist(gen, args.bins, args.n)
    elif args.test == "serial":
        report = serial_pairs(gen, args.bins, args.n)
    else:
        report = gap_test(gen, args.interval, args.n)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(f"{report.name}: statistic {report.statistic:.4f} "
              f"df {report.df} p {report.p_value:.6g} (n {report.n})")
    return 0


def _add_gen_arguments(sub, shuffle: bool) -> None:
    if shuffle:
        sub.add_argument("word", help="steering word descriptor")
        sub.add_argument("gens", nargs="+",
                         help="source generator descriptors (commas or spaces)")
    else:
        sub.add_argument("spec", help="generator descriptor")
    sub.add_argument("--seed", type=_num, default=None,
                     help="override every source seed")
    sub.add_argument("--warmup", type=_num, default=DEFAULT_WARMUP,
                     help="outputs to skip before use (default 1e9; 0 disables); "
                     "O(log n)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aprng",
        description="Aperiodic words, steered generators, and their analysis.")
    sp = p.add_subparsers(dest="command", required=True)

    w = sp.add_parser("word", help="emit letters of a word")
    w.add_argument("spec", help="word descriptor, e.g. fib or morphism:0->01,1->0")
    w.add_argument("--count", type=_num, default=64, help="letters to emit")
    w.add_argument("--raw", action="store_true",
                   help="one byte per letter instead of ASCII digits")
    w.add_argument("--out", default="-", help="output file, - for stdout")
    w.set_defaults(func=_cmd_word)

    g = sp.add_parser("gen", help="emit raw 32-bit outputs of a generator")
    _add_gen_arguments(g, shuffle=False)
    g.add_argument("--count", type=_num, required=True, help="outputs to emit")
    g.add_argument("--out", default="-", help="output file, - for stdout")
    g.set_defaults(func=_cmd_gen)

    s = sp.add_parser("shuffle",
                      help="emit outputs of a word-steered source mix")
    _add_gen_arguments(s, shuffle=True)
    s.add_argument("--count", type=_num, required=True, help="outputs to emit")
    s.add_argument("--out", default="-", help="output file, - for stdout")
    s.set_defaults(func=_cmd_shuffle)

    wd = sp.add_parser("welldoc", help="letter-count coverage report (JSON)")
    wd.add_argument("spec", help="word descriptor")
    wd.add_argument("--m", type=_num, default=2, help="count modulus")
    wd.add_argument("--factor-len", type=_num, default=4,
                    help="largest factor length to scan")
    wd.add_argument("--prefix", type=_num, default=10 ** 7,
                    help="prefix length budget")
    wd.set_defaults(func=_cmd_welldoc)

    la = sp.add_parser("lattice", help="hyperplane structure of output tuples")
    _add_gen_arguments(la, shuffle=False)
    la.add_argument("--t", type=_num, default=3, help="tuple dimension")
    la.add_argument("--bound", type=_num, default=10,
                    help="largest |coefficient| searched")
    la.add_argument("--sample", type=_num, default=10 ** 6,
                    help="outputs sampled")
    la.add_argument("--scale", type=_num, default=None,
                    help="output range (default: inferred)")
    la.add_argument("--normal", type=_normal, default=None,
                    help="check one normal like 9,-6,1 instead of searching")
    la.add_argument("--dump", default=None, metavar="FILE",
                    help="also write the sample as normalized CSV points")
    la.add_argument("--threads", type=_num, default=None,
                    help="accepted for old callers; has no effect")
    la.add_argument("--json", action="store_true", help="JSON output")
    la.set_defaults(func=_cmd_lattice)

    st = sp.add_parser("stats", help="desk-scale statistical tests")
    _add_gen_arguments(st, shuffle=False)
    st.add_argument("--test", choices=("chi2", "serial", "gap"),
                    required=True, help="which test to run")
    st.add_argument("--n", type=_num, default=10 ** 7, help="sample size")
    st.add_argument("--bins", type=_num, default=64,
                    help="cells for chi2/serial")
    st.add_argument("--interval", type=_interval, default=(0.25, 0.75),
                    help="gap test target interval lo,hi in [0,1)")
    st.add_argument("--lowbits", type=_num, default=0,
                    help="test only the lowest K state bits")
    st.add_argument("--json", action="store_true", help="JSON output")
    st.set_defaults(func=_cmd_stats)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()      # a closed pipe raises here, inside main
        return code
    except BrokenPipeError:
        # the reader left; stdout keeps the unwritten bytes, and the flush at
        # interpreter exit would fail again, so it goes to devnull instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
