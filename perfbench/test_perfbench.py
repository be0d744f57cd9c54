"""Tests of the benchmark itself.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import access  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


# ---------------------------------------------------------- percentile rule

def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 1001)]
    assert run.percentile(values, 50) == 500
    # p99 is 990 with 10 samples above it; p99.5 leaves only 5
    assert run.tail(values) == (99, 990.0, 10)


def test_tail_counts_ties_as_not_beyond():
    values = [1.0] * 95 + [2.0] * 12
    p, v, beyond = run.tail(values)
    assert (v, beyond) == (1.0, 12)
    assert p == 50 or run.percentile(sorted(values), p) == 1.0


def test_tail_needs_ten_samples_beyond_some_percentile():
    with pytest.raises(ValueError):
        run.tail([1.0] * 5)


# ------------------------------------------------------------ metric names

def fake_outcome(label: str, wall: float = 1.0) -> run.Outcome:
    return run.Outcome(label, wall, 0, False, 4, 0, b"", 50.0, wall, 0.01)


def cli_metrics(wl: run.CliWorkload) -> dict:
    r = run.Run(wl.name, 0)
    r.count("x", [])
    r.outcomes.append(fake_outcome("x"))
    passes = [{c.label: fake_outcome(c.label, 1.0 + i) for c in wl.commands}
              for i in range(3)]
    return wl.metrics(r, passes, passes)


def access_metrics() -> dict:
    r = run.Run("access", 0)
    r.count("x", [])
    r.outcomes.append(fake_outcome("access"))
    lat = [i / 1e4 for i in range(1, 401)]
    passes = [{"wall_s": 2.0, "latencies_s": lat, "kinds": ["fib"] * 400}]
    return run.WORKLOADS["access"].metrics(r, passes, [0.5, 0.6, 0.7])


def workload_metrics(name: str) -> dict:
    wl = run.WORKLOADS[name]
    return access_metrics() if name == "access" else cli_metrics(wl)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_reports_every_declared_metric(name):
    got = {k: u for k, (v, u) in workload_metrics(name).items()}
    want = declared("end_to_end")
    assert {k: got[k] for k in want if k in got} == want
    assert set(run.reported(workload_metrics(name), 0)) == set(want)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_metric_names_and_units_are_well_formed(name):
    for k, (_, unit) in workload_metrics(name).items():
        assert NAME.fullmatch(k) and len(k) <= 64
        assert UNIT.fullmatch(unit) and len(unit) <= 16
    for kind in ("end_to_end", "per_layer"):
        for k, unit in declared(kind).items():
            assert NAME.fullmatch(k) and len(k) <= 64
            assert UNIT.fullmatch(unit) and len(unit) <= 16


def test_layer_measurements_give_the_declared_per_layer_metrics(monkeypatch):
    # small inputs; names and units do not depend on sizes
    monkeypatch.setattr(plan, "LATTICE_SAMPLE", 202)
    monkeypatch.setattr(layers, "SEARCH_SAMPLE", 202)
    monkeypatch.setattr(plan, "WELLDOC_PREFIX", 5000)
    monkeypatch.setattr(plan, "STATS_N", 20000)
    monkeypatch.setattr(layers, "CHUNK", 1 << 12)
    monkeypatch.setattr(layers, "POSITIONS", 4)
    docs = {}
    for name, fn in layers.MEASUREMENTS.items():
        tr = layers.Tracer(name)
        docs[name] = [{"metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in fn(tr, 3).items()},
                       "spans": tr.spans, "maxrss_mb": 1.0}]
        assert tr.spans, name
    got = run.combine_layers(docs)
    got["trace.overhead_ratio"] = (1.0, "ratio")
    assert {k: u for k, (v, u) in got.items()} == declared("per_layer")
    counts = [v for v, u in got.values() if u == "count"]
    assert counts and all(isinstance(v, int) for v in counts)


# ----------------------------------------------------------- verification

def test_corrupted_digest_counts_as_failure():
    cmd = plan.Command("word_text", ("word", "fib", "--count", "{work}"),
                       1000, 1, "bytes")
    wl = run.CliWorkload("export", (cmd,), {})
    checker = run.Oracles(0)
    good = run.Run("export", 0)
    o = wl.run_command(good, cmd, None, checker)
    digest = run.digest_of(cmd, o)
    assert (good.failed, good.attempted) == (0, 1)

    ok = run.Run("export", 0)
    wl.run_command(ok, cmd, {"word_text": digest}, checker)
    assert ok.failed == 0

    bad = run.Run("export", 0)
    corrupted = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    wl.run_command(bad, cmd, {"word_text": corrupted}, checker)
    assert bad.failed / bad.attempted > 0


def test_corrupted_access_digest_counts_as_failure():
    r = run.Run("access", 5)
    run.WORKLOADS["access"].run_client(r, 16, verify=False, expected="0" * 64)
    assert r.attempted == 16 and r.failed == 16


def test_access_oracles_catch_wrong_responses():
    o = run.run_process("access", [sys.executable, os.path.join(HERE, "access.py"),
                                   "--seed", "2", "--requests", "80"], keep=1 << 24)
    samples = json.loads(o.head.splitlines()[-1])["samples"]
    assert {s[0] for s in samples} == {k for k, _ in plan.ACCESS_KINDS} | {"shuffle"}
    assert access.verify(samples, 2) == 0
    wrong = []
    for name, pos, *resp in samples:
        if name == "shuffle":
            flipped = bytes([int(resp[0][:2], 16) ^ 0xFF]).hex()
            wrong.append([name, pos, flipped + resp[0][2:]])
        else:
            wrong.append([name, pos, 1 - resp[0], *resp[1:]])
    assert access.verify(wrong, 2) == len(wrong)


def test_stats_values_compare_within_relative_tolerance():
    want = {"statistic": 61.25, "p_value": 0.5, "details": {"bins": 64}}
    near = {"statistic": 61.25 * (1 + 1e-12), "p_value": 0.5,
            "details": {"bins": 64}}
    far = {"statistic": 61.25 * (1 + 1e-6), "p_value": 0.5,
           "details": {"bins": 64}}
    assert run.same_digest(want, near)
    assert not run.same_digest(want, far)
    assert not run.same_digest(want, {**near, "details": {"bins": 65}})
    assert not run.same_digest(want, None)


def test_recorded_digests_cover_every_variant():
    digests = run.load_digests()
    for name, wl in run.WORKLOADS.items():
        assert set(digests[name]) == {str(v) for v in range(plan.VARIANTS)}
        if name != "access":
            for entry in digests[name].values():
                assert set(entry) == {c.label for c in wl.commands}


# ------------------------------------------------------------------ tracing

def test_self_time_subtracts_the_union_of_child_spans():
    def span(i, parent, start, end):
        return {"id": i, "parent": parent, "start": start, "end": end,
                "wall_s": end - start}
    group = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 4.0),
             span(3, 1, 3.0, 5.0), span(4, 2, 1.0, 2.0)]
    merged = spans.merge([group, [span(1, None, 0.0, 1.0)]])
    selfs = spans.self_times(merged)
    assert selfs == {"0.1": 6.0, "0.2": 2.0, "0.3": 2.0, "0.4": 1.0, "1.1": 1.0}


def test_traced_cli_records_nested_spans_and_keeps_output(tmp_path):
    path = tmp_path / "spans.json"
    args = ["word", "fib", "--count", "40"]
    plain = run.run_process("plain", run.cli_argv(args))
    traced = run.run_process("traced", run.cli_argv(args, str(path), "export", 7))
    assert traced.exit_code == 0 and traced.head == plain.head
    recorded = json.loads(path.read_text())
    by_id = {s["id"]: s for s in recorded}
    names = {s["name"] for s in recorded}
    assert {"cli.import", "cli.main", "specs.build_word",
            "morphic.FixedPointStream.take", "words.word_to_text"} <= names
    assert all(s["workload"] == "export" and s["request"] == 7 for s in recorded)
    take = next(s for s in recorded if s["name"] == "morphic.FixedPointStream.take")
    top = take
    while top["parent"] is not None:
        top = by_id[top["parent"]]
    assert top["name"] == "cli.main"


# ----------------------------------------------------------------- oracles

def test_oracles_agree_with_the_package():
    import aprng
    fib = aprng.fibonacci_stream()
    for n in (0, 1, 2, 1000, 10 ** 9, 10 ** 15):
        assert oracles.fib_ones(n) == fib.prefix_parikh(n)[1]
    for name in ("l63-25", "l64_28", "randu"):
        g = aprng.named_lcg(name, 12345)
        g.jump(10 ** 9)
        state = g.state
        assert state == oracles.lcg_jump(name, 12345, 10 ** 9)
        assert list(g.outputs(100)) == oracles.lcg_values(name, state, 100)[0]
    z = aprng.build_gen(plan.SHUFFLE, 777)
    z.warm_up(10 ** 6)
    assert list(z.outputs(500)) == oracles.shuffle_values(777, 10 ** 6, 500)


def test_same_seed_same_inputs():
    assert plan.gen_seed(3) == plan.gen_seed(3 + plan.VARIANTS)
    assert plan.access_positions(3, 50) == plan.access_positions(3, 50)
    pos = plan.access_positions(4, 2000)
    assert min(pos) >= plan.ACCESS_POS_RANGE[0]
    assert max(pos) <= plan.ACCESS_POS_RANGE[1]
