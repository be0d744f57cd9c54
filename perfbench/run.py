"""Benchmark of aprng: three workloads, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload {export,analyze,access} --seed N \\
        --seconds S --trace {0,1}

Workloads (closed loop, one client, one process at a time):

- export: the CLI's raw and text streams read through a pipe, as an
  external test battery would read them;
- analyze: time to a verdict of the lattice, welldoc and stats commands;
- access: one process seeking into every word kind and warming shuffles.

``--trace 0`` measures the workload for about S seconds (at least three
passes) after timing its set-up three times, checks every output against
the digests recorded in digests.json and against exact oracles, and prints
the end-to-end metrics.  ``--trace 1`` is the separate traced run: the
per-layer measurements of layers.py, each in a fresh process, then one
untraced and one traced pass of the workload, whose wall-time ratio is the
tracing overhead.  Spans with self times go to .perfbench-out/.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the complete result, with the
workload-specific metrics, per-command details and machine facts, is
written to .perfbench-out/.  ``--record`` rewrites digests.json from the
current source tree, for every input variant.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import access  # noqa: E402
import oracles  # noqa: E402
import plan  # noqa: E402
from spans import merge, self_times, summarize  # noqa: E402

OUT_DIR = ".perfbench-out"
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPS = 3
MIN_PASSES = 3
TIMEOUT_S = 60
HEAD = 1 << 14                  # stdout bytes kept for the oracle checks
READ_CHUNK = 1 << 20
TAIL_MIN_BEYOND = 10
PERCENTILES = (50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
STATS_RTOL = 1e-9
WARMUP = 10 ** 9                # the CLI's default generator warm-up


# ---------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Outcome:
    """One child process as the benchmark saw it."""

    label: str
    wall_s: float
    exit_code: int
    timed_out: bool
    nbytes: int
    crc32: int
    head: bytes
    rss_mb: float
    child_cpu_s: float
    consumer_cpu_s: float
    stderr: str = ""
    problems: list = field(default_factory=list)


def run_process(label: str, argv: list[str], keep: int = HEAD,
                on_line=None) -> Outcome:
    """Run argv with stdout on a pipe; digest it in large chunks with crc32,
    keep its first ``keep`` bytes, and reap the child with wait4 for its
    peak RSS.  ``on_line`` sees each complete line as it arrives."""
    t0, c0 = time.perf_counter(), time.process_time()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(TIMEOUT_S, kill)
    timer.start()
    crc, nbytes, head, pending = 0, 0, bytearray(), b""
    fd = proc.stdout.fileno()
    try:
        while chunk := os.read(fd, READ_CHUNK):
            crc = zlib.crc32(chunk, crc)
            nbytes += len(chunk)
            if len(head) < keep:
                head += chunk[:keep - len(head)]
            if on_line is not None:
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    on_line(line)
        err = proc.stderr.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    return Outcome(label, wall, proc.returncode, killed.is_set(), nbytes, crc,
                   bytes(head), usage.ru_maxrss / 1024,
                   usage.ru_utime + usage.ru_stime,
                   time.process_time() - c0, err[-2000:])


def cli_argv(args: list[str], spans: str | None = None, workload: str = "",
             request: int = 0) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "aprng.cli", *args]
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), spans,
            workload, str(request), "--", *args]


# ------------------------------------------------------------ verification

def _result_fields(cmd: plan.Command, out: bytes):
    """What a command's output is checked on, as a JSON-able value."""
    if cmd.output == "bytes":
        return None
    doc = json.loads(out)
    if cmd.output == "lattice":
        strip = lambda r: {k: v for k, v in r.items() if k != "ratio"}
        return {"best": strip(doc["best"]),
                "reports": [strip(r) for r in doc["reports"]]}
    if cmd.output == "welldoc":
        keys = ("verdict", "covered", "missing", "witnesses")
        return {"verdict": doc["verdict"],
                "factors": {f: {k: r[k] for k in keys}
                            for f, r in doc["factors"].items()}}
    return {k: doc[k] for k in ("name", "statistic", "df", "p_value", "n",
                                "details")}


def digest_of(cmd: plan.Command, outcome: Outcome):
    """Recorded form of a command's output: crc32 and size of a byte stream,
    sha256 of the result fields of a JSON report, or the stats values."""
    if cmd.output == "bytes":
        return f"crc32:{outcome.crc32:08x}:{outcome.nbytes}"
    fields = _result_fields(cmd, outcome.head)
    if cmd.output == "stats":
        return fields
    canon = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canon.encode()).hexdigest()


def _close(a, b) -> bool:
    return abs(a - b) <= STATS_RTOL * max(abs(a), abs(b))


def same_digest(want, got) -> bool:
    """Exact match, except that stats floats agree to a relative 1e-9."""
    if isinstance(want, dict) and isinstance(got, dict):
        return want.keys() == got.keys() and all(
            same_digest(want[k], got[k]) for k in want)
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(want, (int, float)) and isinstance(got, (int, float))
                and _close(float(want), float(got)))
    return want == got


def load_digests() -> dict:
    with open(DIGESTS) as f:
        return json.load(f)


class Oracles:
    """Exact expected outputs, computed once per run outside timed passes."""

    def __init__(self, seed: int):
        self.seed = plan.gen_seed(seed)
        self._memo: dict = {}

    def _get(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def fib(self, n: int) -> bytes:
        return self._get(("fib", n), lambda: oracles.morphism_prefix(["01", "0"], n))

    def lcg_head(self, name: str, n: int) -> bytes:
        def make():
            state = oracles.lcg_jump(name, self.seed, WARMUP)
            return oracles.le32(oracles.lcg_values(name, state, n)[0])
        return self._get(("lcg", name, n), make)

    def shuffle_head(self, n: int) -> bytes:
        return self._get(("shuffle", n), lambda: oracles.le32(
            oracles.shuffle_values(self.seed, WARMUP, n)))

    def check(self, cmd: plan.Command, outcome: Outcome) -> list[str]:
        """Problems found by the oracles; identical outputs are checked once."""
        return list(self._get(("checked", cmd.label, outcome.crc32, outcome.nbytes),
                              lambda: self._check(cmd, outcome)))

    def _check(self, cmd: plan.Command, outcome: Outcome) -> list[str]:
        head, label = outcome.head, cmd.label
        if label == "word_text":
            if outcome.nbytes == len(head):         # the whole text, newline last
                head = head[:-1] if head.endswith(b"\n") else b"?"
            want = bytes(b + 48 for b in self.fib(len(head)))
            return [] if head == want else ["differs from iterate_fixed_point"]
        if label in ("word_morphic", "word_rotation"):
            return [] if head == self.fib(len(head)) else ["differs from iterate_fixed_point"]
        if label == "gen_pow2":
            want = self.lcg_head("l64_28", len(head) // 4)
        elif label == "gen_prime":
            want = self.lcg_head("l63-25", len(head) // 4)
        elif label == "shuffle":
            want = self.shuffle_head(len(head) // 4)
        elif cmd.output == "lattice":
            return self._lattice(cmd, json.loads(head))
        elif cmd.output == "welldoc":
            return self._welldoc(json.loads(head))
        else:
            return []
        return [] if head == want else ["differs from the Python-int LCG loop"]

    def _lattice(self, cmd: plan.Command, doc: dict) -> list[str]:
        """Every listed report's class count, recounted in Python ints; for
        RANDU the best ratio must show its 15-plane defect."""
        n = doc["sample"]
        if cmd.label == "lattice_randu":
            values = self._get(("randu", n), lambda: oracles.lcg_values(
                "randu", self.seed, n)[0])
        else:
            values = self._get(("shufvals", n), lambda: oracles.shuffle_values(
                self.seed, WARMUP, n))
        problems = []
        for r in doc["reports"]:
            count = oracles.lattice_classes(values, r["normal"], doc["scale"])
            if count != r["plane_count"]:
                problems.append(f"normal {r['normal']}: {r['plane_count']} "
                                f"classes, oracle {count}")
        best = doc["best"]
        if cmd.label == "lattice_randu" and best["plane_count"] * 16 > best["comparison"] * 15:
            problems.append(f"best ratio {best['ratio']} misses RANDU's 15/16")
        return problems

    def _welldoc(self, doc: dict) -> list[str]:
        rules = {"fib": ["01", "0"], "trib": ["01", "02", "0"],
                 "morphism:0->01,1->10": ["01", "10"]}[doc["word"]]
        word = self._get(("word", doc["word"], doc["prefix"]),
                         lambda: oracles.morphism_prefix(rules, doc["prefix"]))
        errors = oracles.welldoc_witness_errors(
            word, len(rules), doc["modulus"], doc["factors"])
        return [] if errors == 0 else [f"{errors} witnesses fail the definition"]


# ------------------------------------------------------------- statistics

def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(k) - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(p, value, samples beyond it) for the highest percentile of
    PERCENTILES with at least TAIL_MIN_BEYOND samples above it."""
    vals = sorted(values)
    best = None
    for p in PERCENTILES:
        v = percentile(vals, p)
        beyond = sum(1 for x in vals if x > v)
        if beyond >= TAIL_MIN_BEYOND:
            best = (p, v, beyond)
    if best is None:
        raise ValueError(f"{len(vals)} samples leave no percentile with "
                         f"{TAIL_MIN_BEYOND} beyond it")
    return best


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def machine_facts() -> dict:
    """Core count, CPU model, cache sizes and library versions."""
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "")
    caches = {}
    for k in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{k}/"
        level = _read(base + "level").strip()
        if level in ("2", "3"):
            caches[f"l{level}"] = _read(base + "size").strip()

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "l2": caches.get("l2"), "l3": caches.get("l3"),
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy")}


# -------------------------------------------------------------- workloads

class Run:
    """Counts and records of one benchmark invocation."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outcomes: list[Outcome] = []
        self.details: dict = {}         # per-command or per-kind figures
        self.trace: dict | None = None  # spans and overhead of a traced run

    def count(self, label: str, problems: list[str], ops: int = 1) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.failures.extend(f"{label}: {p}" for p in problems)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)


def passes_for(seconds: float, run_pass) -> list:
    """Run passes until another would end past the run length (+10%)."""
    results, t0 = [], time.monotonic()
    while True:
        results.append(run_pass(len(results)))
        elapsed = time.monotonic() - t0
        if (len(results) >= MIN_PASSES
                and elapsed * (len(results) + 1) / len(results) > 1.1 * seconds):
            return results


class CliWorkload:
    """A workload of CLI commands run one at a time as whole processes."""

    def __init__(self, name: str, commands: tuple[plan.Command, ...], rates):
        self.name = name
        self.commands = commands
        self.rates = rates          # metric name -> (unit, labels, scale)

    def run_command(self, run: Run, cmd: plan.Command, expected: dict,
                    checker: Oracles, minimal: bool = False,
                    spans: str | None = None, request: int = 0) -> Outcome:
        keep = HEAD if cmd.output == "bytes" else 1 << 24
        o = run_process(cmd.label, cli_argv(cmd.args(run.seed, minimal), spans,
                                            self.name, request), keep)
        run.outcomes.append(o)
        if o.exit_code != 0:
            o.problems.append(f"exit {o.exit_code}"
                              f"{' (timeout)' if o.timed_out else ''}: {o.stderr}")
        elif not minimal:
            if expected is not None and not same_digest(
                    expected.get(cmd.label), digest_of(cmd, o)):
                o.problems.append("digest mismatch")
            o.problems.extend(checker.check(cmd, o))
        run.count(cmd.label, o.problems)
        return o

    def one_pass(self, run, expected, checker, spans_dir=None) -> dict:
        out = {}
        for i, cmd in enumerate(self.commands):
            spans = (os.path.join(spans_dir, f"{i}-{cmd.label}.json")
                     if spans_dir else None)
            out[cmd.label] = self.run_command(run, cmd, expected, checker,
                                              spans=spans, request=i)
        return out

    def setup(self, run, checker) -> list[dict]:
        return [{c.label: self.run_command(run, c, None, checker, minimal=True)
                 for c in self.commands} for _ in range(SETUP_REPS)]

    def measure(self, run: Run, seconds: float, expected: dict) -> dict:
        checker = Oracles(run.seed)
        setups = self.setup(run, checker)
        if not any(o.exit_code == 0 for o in run.outcomes):
            raise SystemExit(f"no command could run: {run.outcomes[0].stderr}")
        passes = passes_for(seconds, lambda i: self.one_pass(run, expected, checker))
        return self.metrics(run, setups, passes)

    def median_pass(self, passes: list[dict]) -> dict[str, float]:
        """Per-command median wall time over passes."""
        return {c.label: statistics.median(p[c.label].wall_s for p in passes)
                for c in self.commands}

    def metrics(self, run, setups, passes) -> dict:
        med = self.median_pass(passes)
        work = {c.label: c.work for c in self.commands}
        m = {"wall_s": (sum(med.values()), "s"),
             "setup_s": (sum(self.median_pass(setups).values()), "s"),
             "peak_rss_mb": (run.peak_rss_mb, "MB"),
             "error_rate": (run.failed / run.attempted, "ratio")}
        for name, (unit, labels, scale) in self.rates.items():
            if unit == "s":
                m[name] = (sum(med[l] for l in labels), unit)
            else:
                m[name] = (sum(work[l] for l in labels) / scale
                           / sum(med[l] for l in labels), unit)
        m["passes"] = (len(passes), "count")
        run.details = {c.label: {
            "args": c.args(run.seed),
            "wall_s": [p[c.label].wall_s for p in passes],
            "child_cpu_s": statistics.median(p[c.label].child_cpu_s for p in passes),
            "consumer_cpu_s": statistics.median(p[c.label].consumer_cpu_s
                                                for p in passes),
            "bytes": passes[0][c.label].nbytes,
            "rss_mb": max(p[c.label].rss_mb for p in passes)}
            for c in self.commands}
        return m

    def record(self, seed: int) -> dict:
        run = Run(self.name, seed)
        checker = Oracles(seed)
        p = self.one_pass(run, None, checker)
        if run.failed:
            raise SystemExit(f"{self.name} seed {seed}: {run.failures}")
        return {c.label: digest_of(c, p[c.label]) for c in self.commands}

    def traced(self, run: Run, expected: dict, spans_dir: str):
        checker = Oracles(run.seed)
        plain = self.one_pass(run, expected, checker)
        traced = self.one_pass(run, expected, checker, spans_dir)
        spans = []
        for i, c in enumerate(self.commands):
            with open(os.path.join(spans_dir, f"{i}-{c.label}.json")) as f:
                spans.append(json.load(f))
        wall = lambda p: sum(o.wall_s for o in p.values())
        return wall(plain), wall(traced), spans


class AccessWorkload:
    """Closed loop of seek requests from one long-lived process per pass."""

    name = "access"

    def run_client(self, run: Run, requests: int, verify: bool,
                   expected: str | None = None, spans: str | None = None) -> dict:
        """One client process; its responses are checked against the
        recorded digest and, if ``verify``, its samples against the oracles."""
        argv = [sys.executable, os.path.join(HERE, "access.py"),
                "--seed", str(run.seed), "--requests", str(requests)]
        if spans:
            argv += ["--spans", spans]
        lines: list[bytes] = []
        spawn = time.monotonic()
        o = run_process("access", argv, keep=0, on_line=lines.append)
        run.outcomes.append(o)
        res = {"setup_s": None, "wall_s": None, "latencies_s": []}
        ready = [l for l in lines if l.startswith(b"READY ")]
        if o.exit_code != 0 or not ready or not lines[-1].startswith(b"{"):
            o.problems.append(f"exit {o.exit_code}: {o.stderr}")
            run.count("access", o.problems, max(requests, 1))
            return res
        doc = json.loads(lines[-1])
        res.update(setup_s=float(ready[0].split()[1]) - spawn,
                   wall_s=doc["done"] - spawn, latencies_s=doc["latencies_s"],
                   kinds=doc["kinds"], digest=doc["digest"])
        if not requests:                # a set-up run: its start is the operation
            run.count("access", [])
            return res
        if expected is not None and expected != doc["digest"]:
            run.count("access", ["response digest mismatch"], requests)
            return res
        bad = access.verify(doc["samples"], run.seed) if verify else 0
        run.count("access", [], requests - bad)
        if bad:
            run.count("access", [f"{bad} oracle mismatches"], bad)
        return res

    def measure(self, run: Run, seconds: float, expected) -> dict:
        passes = passes_for(seconds, lambda i: self.run_client(
            run, plan.ACCESS_REQUESTS, verify=(i == 0), expected=expected))
        setups = [p["setup_s"] for p in passes if p["setup_s"] is not None]
        while len(setups) < SETUP_REPS:
            s = self.run_client(run, 0, verify=False)["setup_s"]
            if s is None:
                raise SystemExit("the access client could not start")
            setups.append(s)
        return self.metrics(run, passes, setups)

    def metrics(self, run: Run, passes: list[dict], setups: list[float]) -> dict:
        lat = [x for p in passes for x in p["latencies_s"]]
        by_kind: dict = {}
        for p in passes:
            for x, k in zip(p["latencies_s"], p.get("kinds", ())):
                by_kind.setdefault(k, []).append(x)
        walls = [p["wall_s"] for p in passes if p["wall_s"] is not None]
        if not lat or not walls:
            raise SystemExit("no access request completed")
        p, v, beyond = tail(lat)
        run.details = {
            "requests": len(lat), "passes": len(passes),
            "tail_percentile": p, "tail_beyond": beyond,
            "p50_us_by_kind": {k: statistics.median(v) * 1e6
                               for k, v in sorted(by_kind.items())}}
        return {"wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (run.peak_rss_mb, "MB"),
                "error_rate": (run.failed / run.attempted, "ratio"),
                "access_p50_us": (statistics.median(lat) * 1e6, "us"),
                "access_tail_us": (v * 1e6, "us"),
                "access_tail_percentile": (p, "%"),
                "access_tail_beyond": (beyond, "count"),
                "passes": (len(passes), "count")}

    def record(self, seed: int) -> str:
        run = Run(self.name, seed)
        res = self.run_client(run, plan.ACCESS_REQUESTS, verify=True)
        if run.failed or res["wall_s"] is None:
            raise SystemExit(f"access seed {seed}: {run.failures}")
        return res["digest"]

    def traced(self, run: Run, expected, spans_dir: str):
        plain = self.run_client(run, plan.ACCESS_REQUESTS, verify=False,
                                expected=expected)
        path = os.path.join(spans_dir, "access.json")
        traced = self.run_client(run, plan.ACCESS_REQUESTS, verify=False,
                                 expected=expected, spans=path)
        with open(path) as f:
            return plain["wall_s"], traced["wall_s"], [json.load(f)]


WORKLOADS = {
    "export": CliWorkload("export", plan.EXPORT, {
        "word_text_Mletters_s": ("Mletters/s", ("word_text",), 1e6),
        "word_morphic_Mletters_s": ("Mletters/s", ("word_morphic",), 1e6),
        "word_rotation_Mletters_s": ("Mletters/s", ("word_rotation",), 1e6),
        "gen_pow2_Mvals_s": ("Mvals/s", ("gen_pow2",), 1e6),
        "gen_prime_Mvals_s": ("Mvals/s", ("gen_prime",), 1e6),
        "shuffle_Mvals_s": ("Mvals/s", ("shuffle",), 1e6),
    }),
    "analyze": CliWorkload("analyze", plan.ANALYZE, {
        "lattice_s": ("s", ("lattice_randu", "lattice_shuffle"), 1),
        "welldoc_s": ("s", ("welldoc_fib", "welldoc_trib", "welldoc_tm"), 1),
        "stats_Mvals_s": ("Mvals/s", ("stats_chi2", "stats_serial", "stats_gap",
                                      "stats_lowbits"), 1e6),
    }),
    "access": AccessWorkload(),
}


# ------------------------------------------------------------- traced run

def layer_metrics(run: Run) -> tuple[dict, list]:
    """Run every measurement of layers.py in its own process, in order;
    returns the metrics and the spans, one list per process."""
    from layers import MEASUREMENTS
    docs: dict[str, list] = {}
    for name in MEASUREMENTS:
        for _ in range(SETUP_REPS if name == "cli" else 1):
            o = run_process(name, [sys.executable, os.path.join(HERE, "layers.py"),
                                   name, "--seed", str(run.seed)], keep=1 << 26)
            if o.exit_code != 0:
                run.count(f"layer {name}", [f"exit {o.exit_code}: {o.stderr}"])
                continue
            run.count(f"layer {name}", [])
            docs.setdefault(name, []).append(json.loads(o.head.splitlines()[-1]))
    spans = [d["spans"] for group in docs.values() for d in group]
    return combine_layers(docs), spans


def combine_layers(docs: dict[str, list]) -> dict:
    """Metrics of the per-layer measurements, plus those derived across
    processes: the median import time, the welldoc peak RSS and the
    two-thread speed-up of the lattice search."""
    metrics = {}
    for name, group in docs.items():
        for doc in group:
            metrics.update((k, (v["value"], v["unit"]))
                           for k, v in doc["metrics"].items())
    if "cli" in docs:
        metrics["cli.import_s"] = (statistics.median(
            d["metrics"]["cli.import_s"]["value"] for d in docs["cli"]), "s")
    rss = [d["maxrss_mb"] for name, group in docs.items()
           if name.startswith("welldoc") for d in group]
    if rss:
        metrics["welldoc.peak_rss_mb"] = (max(rss), "MB")
    t1 = metrics.get("lattice.search_normals.randu.ms_per_normal")
    t2 = metrics.get("lattice.search_normals.threads2.ms_per_normal")
    if t1 and t2:
        metrics["lattice.search_normals.threads2_speedup"] = (t1[0] / t2[0], "ratio")
    return metrics


def traced_run(wl, run: Run, expected: dict) -> dict:
    metrics, spans = layer_metrics(run)
    spans_dir = os.path.join(OUT_DIR, f"spans-{wl.name}-{run.seed}")
    os.makedirs(spans_dir, exist_ok=True)
    plain, traced, wl_spans = wl.traced(run, expected, spans_dir)
    spans = merge(spans + wl_spans)
    if plain and traced:
        metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    selfs = self_times(spans)
    by_source: dict[str, list] = {}     # the workload pass, and each measurement
    for s in spans:
        s["self_s"] = selfs[s["id"]]
        by_source.setdefault(s["workload"], []).append(s)
    run.trace = {"untraced_wall_s": plain, "traced_wall_s": traced,
                 "overhead_s": (traced - plain) if plain and traced else None,
                 "summary": {k: summarize(v) for k, v in by_source.items()},
                 "spans": spans}
    return metrics


# ------------------------------------------------------------------- main

def record_digests(names) -> None:
    digests = load_digests() if os.path.exists(DIGESTS) else {}
    for name in names:
        wl = WORKLOADS[name]
        digests[name] = {str(v): wl.record(v) for v in range(plan.VARIANTS)}
        print(f"recorded {name}", file=sys.stderr)
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def reported(metrics: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise SystemExit(f"error: not measured: {missing}")
    return {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}


def print_report(workload: str, seed: int, facts: dict, metrics: dict,
                 run: Run) -> None:
    """Human-readable lines: machine, per-command costs or the busiest
    spans, every metric with its unit, and each failure."""
    print(f"seed {seed} variant {plan.variant(seed)}; "
          + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for label, d in run.details.items():
        if isinstance(d, dict) and "consumer_cpu_s" in d:
            per_gb = d["consumer_cpu_s"] / (d["bytes"] / 1e9) if d["bytes"] > 1e7 else None
            print(f"  {label:16s} wall {statistics.median(d['wall_s']):7.3f} s  "
                  f"producer cpu {d['child_cpu_s']:7.3f} s  reader cpu "
                  f"{d['consumer_cpu_s']:6.3f} s"
                  + (f" ({per_gb:.2f} s/GB)" if per_gb else "")
                  + f"  {d['bytes']} bytes  rss {d['rss_mb']:.1f} MB")
    if run.trace:
        print(f"  tracing overhead {run.trace['overhead_s']:+.3f} s over an "
              f"untraced pass of {run.trace['untraced_wall_s']:.3f} s; "
              f"busiest spans of the traced pass by self time:")
        for name, row in list(run.trace["summary"].get(workload, {}).items())[:12]:
            print(f"  {name:44s} {row['calls']:7d} calls  self "
                  f"{row['self_s']:8.3f} s  cpu/wall "
                  f"{row['cpu_s'] / row['wall_s'] if row['wall_s'] else 0:5.2f}"
                  f"  minflt {row['minflt']}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:8s} {name:48s} {value:14.6g} {unit}")
    for line in run.failures:
        print(f"FAILED {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite digests.json from the current source tree "
                        "(for --workload only, if given)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "aprng", "cli.py")):
        print("error: run from the repository root; src/aprng is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))     # for the oracles
    if args.record:
        record_digests([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = WORKLOADS[args.workload]
    run = Run(wl.name, args.seed)
    expected = load_digests()[wl.name].get(str(plan.variant(args.seed)))
    if expected is None:
        print(f"error: digests.json has no {wl.name} outputs for variant "
              f"{plan.variant(args.seed)}; rerun with --record", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    if args.trace:
        metrics = traced_run(wl, run, expected)
    else:
        metrics = wl.measure(run, args.seconds, expected)
    elapsed = time.monotonic() - t0

    facts = machine_facts()
    print_report(wl.name, args.seed, facts, metrics, run)
    stem = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "variant": plan.variant(args.seed),
                   "gen_seed": plan.gen_seed(args.seed),
                   "seconds": args.seconds, "elapsed_s": elapsed,
                   "machine": facts,
                   "attempted": run.attempted, "failed": run.failed,
                   "failures": run.failures,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()},
                   "details": run.details,
                   "trace": run.trace}, f, indent=1)
    print(f"result written to {stem}.json")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed, "metrics": reported(metrics, args.trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
