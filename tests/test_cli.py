import io
import json
import os
import struct
import subprocess
import sys

import pytest

from aprng.cli import main
from aprng.lattice import consecutive_tuples
from aprng.morphic import fibonacci_stream, tribonacci_stream
from aprng.prng import ShuffledPrng, named_lcg, stream_export

FIB32 = "01001010010010100101001001010010"


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_word_fib_prefix(capsys):
    rc, out, err = run(capsys, "word", "fib", "--count", "32")
    assert rc == 0 and err == ""
    assert out == FIB32 + "\n"


def test_word_text_and_raw_files(tmp_path):
    txt = tmp_path / "w.txt"
    assert main(["word", "trib", "--count", "20", "--out", str(txt)]) == 0
    expect = bytes(tribonacci_stream().take(20))
    assert txt.read_text() == "".join(str(b) for b in expect) + "\n"
    raw = tmp_path / "w.bin"
    assert main(["word", "trib", "--count", "20", "--raw", "--out", str(raw)]) == 0
    assert raw.read_bytes() == expect


def test_word_rotation_convention_suffix(capsys):
    rot = "rot:(3-1*sqrt(5))/2:(0)/1"
    _, left, _ = run(capsys, "word", rot, "--count", "1")
    _, right, _ = run(capsys, "word", rot + ":right", "--count", "1")
    assert (left, right) == ("0\n", "1\n")


def test_gen_le32_export(tmp_path):
    f = tmp_path / "g.bin"
    rc = main(["gen", "randu", "--warmup", "0", "--count", "4", "--out", str(f)])
    assert rc == 0
    assert f.read_bytes() == struct.pack("<4I", 65539, 393225, 1769499, 7077969)


def test_gen_stdout_binary(capsysbinary):
    rc = main(["gen", "randu", "--warmup", "0", "--count", "4"])
    out = capsysbinary.readouterr().out
    assert rc == 0
    assert out == struct.pack("<4I", 65539, 393225, 1769499, 7077969)


def test_gen_default_warmup_is_a_billion(tmp_path):
    cold = tmp_path / "cold.bin"
    warm = tmp_path / "warm.bin"
    main(["gen", "randu", "--count", "4", "--warmup", "0", "--out", str(cold)])
    main(["gen", "randu", "--count", "4", "--out", str(warm)])
    assert cold.read_bytes() != warm.read_bytes()
    g = named_lcg("randu")
    g.jump(10 ** 9)
    buf = io.BytesIO()
    stream_export(g, 4, buf)
    assert warm.read_bytes() == buf.getvalue()


def test_gen_seed_override(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    main(["gen", "lcg:m=2^31,a=65539,c=0", "--seed", "7", "--warmup", "0",
          "--count", "8", "--out", str(a)])
    main(["gen", "lcg:m=2^31,a=65539,c=0,seed=7", "--warmup", "0",
          "--count", "8", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_shuffle_arg_styles_agree(tmp_path):
    one = tmp_path / "one.bin"
    two = tmp_path / "two.bin"
    main(["shuffle", "fib", "randu,randu", "--warmup", "0",
          "--count", "100", "--out", str(one)])
    main(["shuffle", "fib", "randu", "randu", "--warmup", "0",
          "--count", "100", "--out", str(two)])
    assert one.read_bytes() == two.read_bytes()
    z = ShuffledPrng(fibonacci_stream(), [named_lcg("randu"), named_lcg("randu")])
    buf = io.BytesIO()
    stream_export(z, 100, buf)
    assert one.read_bytes() == buf.getvalue()
    gen = tmp_path / "gen.bin"
    main(["gen", "shuffle:fib:randu,randu", "--warmup", "0",
          "--count", "100", "--out", str(gen)])
    assert gen.read_bytes() == one.read_bytes()
    # a word whose descriptor has colons of its own
    rot = "rot:(3-1*sqrt(5))/2:(0)/1:right"
    main(["shuffle", rot, "randu", "randu", "--warmup", "0",
          "--count", "100", "--out", str(one)])
    main(["gen", f"shuffle:{rot}:randu,randu", "--warmup", "0",
          "--count", "100", "--out", str(two)])
    assert one.read_bytes() == two.read_bytes()


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    argv = ["shuffle", "fib", "l64_28", "l64_32", "--count", "5000",
            "--warmup", "1e6"]
    main(argv + ["--out", str(a)])
    main(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert a.stat().st_size == 20000


def test_welldoc_json_covered(capsys):
    rc, out, _ = run(capsys, "welldoc", "fib", "--m", "2",
                     "--factor-len", "2", "--prefix", "10000")
    assert rc == 0
    d = json.loads(out)
    assert d["verdict"] == "COVERED"
    assert d["word"] == "fib" and d["modulus"] == 2
    assert sorted(d["factors"]) == ["0", "00", "01", "1", "10"]
    for rep in d["factors"].values():
        assert rep["verdict"] == "COVERED"
        assert rep["missing"] == []


def test_welldoc_json_undetermined(capsys):
    rc, out, _ = run(capsys, "welldoc", "morphism:0->01,1->10", "--m", "2",
                     "--factor-len", "2", "--prefix", "10000")
    assert rc == 0
    d = json.loads(out)
    assert d["verdict"] == "UNDETERMINED"
    rep = d["factors"]["00"]
    assert rep["verdict"] == "UNDETERMINED"
    assert [0, 0] in rep["missing"] and [1, 1] in rep["missing"]
    assert rep["witnesses"]["0 1"] == [5, 9]


def test_lattice_normal_json(capsys):
    rc, out, _ = run(capsys, "lattice", "randu", "--warmup", "0",
                     "--sample", "1e5", "--normal", "9,-6,1", "--json")
    assert rc == 0
    d = json.loads(out)
    assert d["scale"] == 2 ** 31          # inferred from the generator
    assert d["t"] == 3 and d["sample"] == 10 ** 5
    assert d["best"]["plane_count"] == 15
    assert d["best"]["comparison"] == 16
    assert d["reports"] == [d["best"]]


def test_lattice_normal_text_and_dump(capsys, tmp_path):
    csv = tmp_path / "pts.csv"
    rc, out, _ = run(capsys, "lattice", "randu", "--warmup", "0",
                     "--sample", "1000", "--normal", "9,-6,1",
                     "--dump", str(csv))
    assert rc == 0
    assert out.startswith("best normal (9, -6, 1): ")
    rows = csv.read_text().splitlines()
    want = consecutive_tuples(named_lcg("randu"), 1000, 3) / 2 ** 31
    assert len(rows) == len(want) == 998      # n - t + 1 tuples
    assert rows == [",".join(f"{v:.10f}" for v in row) for row in want]


def test_lattice_search_json(capsys):
    rc, out, _ = run(capsys, "lattice", "randu", "--warmup", "0",
                     "--sample", "3e4", "--bound", "10", "--json")
    assert rc == 0
    d = json.loads(out)
    assert d["bound"] == 10
    assert len(d["reports"]) == 10
    ratios = [r["ratio"] for r in d["reports"]]
    assert ratios == sorted(ratios)
    assert d["best"]["ratio"] < 1.0


def test_lattice_threads_flag_is_inert(capsys):
    # the benchmark harness still passes --threads; it must parse and change
    # nothing
    base = ("lattice", "randu", "--warmup", "0", "--sample", "4098", "--json")
    rc, want, _ = run(capsys, *base)
    assert rc == 0 and json.loads(want)["bound"] == 10
    for extra in (("--threads", "1"), ("--threads", "3")):
        assert run(capsys, *base, *extra)[:2] == (0, want)


def test_stats_chi2_autoscaled(capsys):
    rc, out, _ = run(capsys, "stats", "randu", "--warmup", "0",
                     "--test", "chi2", "--n", "20000", "--bins", "16", "--json")
    assert rc == 0
    d = json.loads(out)
    assert d["name"] == "chi_square_equidist"
    assert set(d) == {"name", "statistic", "df", "p_value", "n", "details"}
    # without rescaling the empty top half of [0, 2^32) would give p = 0
    assert d["p_value"] > 1e-6


def test_stats_lowbits_serial_catastrophic(capsys):
    rc, out, _ = run(capsys, "stats", "l64_39", "--warmup", "0",
                     "--test", "serial", "--n", "20000", "--bins", "2",
                     "--lowbits", "1", "--json")
    assert rc == 0
    assert json.loads(out)["p_value"] < 1e-10


def test_stats_gap_text_output(capsys):
    rc, out, _ = run(capsys, "stats", "l64_39", "--warmup", "0",
                     "--test", "gap", "--n", "20000",
                     "--interval", "0.25,0.75")
    assert rc == 0
    assert out.startswith("gap_test: statistic ")
    assert " p " in out


def test_error_exit_codes(capsys):
    rc, out, err = run(capsys, "word", "nope")
    assert rc == 2 and out == ""
    assert err.startswith("error: ")
    rc2, _, err2 = run(capsys, "gen", "lcg:m=10,a=11,c=0",
                       "--count", "1", "--warmup", "0")
    assert rc2 == 2 and "error:" in err2
    rc3, _, err3 = run(capsys, "welldoc", "trib", "--m", "300")
    assert rc3 == 2 and "residue space" in err3
    # an intercept over sqrt(2) cannot ride a slope over sqrt(5)
    rc4, out4, err4 = run(capsys, "word", "rot:(3-1*sqrt(5))/2:(0+1*sqrt(2))/3",
                          "--count", "8")
    assert rc4 == 2 and out4 == "" and err4.startswith("error: ")


@pytest.mark.parametrize("spec,message,pos", [
    ("ar:cycle:\u00b2", "directive pattern must be digits", 9),
    ("morphism:\u00b2->01,1->0", "rule left side must be a single digit", 9),
    ("morphism:0->0\u00b2,1->0", "image for letter 0 must be digits", 12),
    ("morphism:0->01,1->0:\u00b2", "unexpected trailing text", 19),
])
def test_superscript_digits_are_placed_spec_errors(capsys, spec, message, pos):
    # str.isdigit accepts a superscript two, which int() then refuses
    rc, out, err = run(capsys, "word", spec, "--count", "4")
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert f"(at char {pos} of " in err


def test_argparse_rejects_bad_values(capsys):
    with pytest.raises(SystemExit):
        main(["word"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["word", "fib", "--count", "abc"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["stats", "randu", "--test", "unknown"])
    capsys.readouterr()
    # int() and float() also read other scripts' digits
    with pytest.raises(SystemExit):
        main(["lattice", "randu", "--normal", "\u0669,-6,1"])
    assert "expected comma separated integers" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["stats", "randu", "--test", "gap",
              "--interval", "\u0660.25,0.75"])
    assert "interval bounds must be numbers" in capsys.readouterr().err
    # a short power is bounded before it is computed
    with pytest.raises(SystemExit):
        main(["word", "fib", "--count", "9^99999999"])
    assert "exponent out of range" in capsys.readouterr().err
    # int() reads no digit run beyond 4300 without a Python setting
    with pytest.raises(SystemExit):
        main(["word", "fib", "--count", "9" * 5000])
    assert "more than 4300 digits" in capsys.readouterr().err


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "aprng.cli", "word", "fib", "--count", "32"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert out.stdout == FIB32 + "\n"


@pytest.mark.parametrize("argv,read", [
    (["word", "fib", "--raw", "--count", "3e8"], 10),
    (["gen", "l64_28", "--count", "5e7"], 10),
    (["word", "fib", "--count", "5"], 0),
    (["gen", "l64_28", "--count", "3"], 0),
    (["stats", "randu", "--test", "chi2", "--n", "1e4"], 0),
], ids=["word", "gen", "word_short", "gen_short", "stats_short"])
def test_closed_pipe_ends_quietly(argv, read):
    # a reader that stops early (head -c 10) closes the pipe mid-stream; one
    # that leaves at once finds a short output still buffered, and the flush
    # must raise inside main, not at interpreter exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen([sys.executable, "-m", "aprng.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as p:
        assert len(p.stdout.read(read)) == read
        p.stdout.close()
        err = p.stderr.read()
        assert p.wait(timeout=60) == 0 and err == b""


@pytest.mark.parametrize("interval", ["0,1", "0,0.9999999999"])
def test_gap_interval_covering_every_value_exits_2(interval):
    # every value is a hit, so the tail cell expects no gaps: the statistic
    # would be NaN, on which the p-value's continued fraction never ends
    out = subprocess.run(
        [sys.executable, "-m", "aprng.cli", "stats", "randu", "--test", "gap",
         "--interval", interval, "--n", "1e5"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and "every 32-bit value" in out.stderr


def test_modulus_above_2_64_is_rejected(capsys, tmp_path):
    rc, out, err = run(capsys, "gen", "lcg:m=2^80,a=5,c=1",
                       "--count", "4", "--warmup", "0")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "2^64" in err
    raw = tmp_path / "g.bin"
    assert main(["gen", "lcg:m=2^64,a=5,c=1", "--count", "4", "--warmup", "0",
                 "--out", str(raw)]) == 0
    assert raw.stat().st_size == 16


def test_import_does_not_load_scipy():
    code = "import sys, aprng, aprng.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"
    # p-values come from the package's own incomplete gamma function
    code = ("import sys\n"
            "from aprng.cli import main\n"
            "for test in ('chi2', 'serial', 'gap'):\n"
            "    assert main(['stats', 'randu', '--warmup', '0', '--test',\n"
            "                 test, '--n', '6400', '--json']) == 0\n"
            "sys.stderr.write(str('scipy' in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count('"p_value"') == 3
    assert out.stderr == "False"


def test_lattice_rejects_bad_parameters(capsys, tmp_path):
    # sample values up to 2^31 do not live in the cube of scale 1000
    dump = tmp_path / "pts.csv"
    for extra in ([], ["--normal", "9,-6,1"]):
        rc, out, err = run(capsys, "lattice", "randu", "--warmup", "0",
                           "--sample", "100", "--scale", "1000",
                           "--dump", str(dump), *extra)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "outside" in err
        assert not dump.exists()
    # (19^5 - 1) / 2 candidate normals exceed the search's cap
    rc, out, err = run(capsys, "lattice", "randu", "--warmup", "0",
                       "--sample", "100", "--t", "5", "--bound", "9")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "candidate normals" in err


def test_long_periodic_ar_directive_is_accepted(capsys):
    # letter 1 first appears at index 1000 of the directive, yet recurs
    rc, out, err = run(capsys, "word", "ar:cycle:" + "0" * 1000 + "1",
                       "--count", "20")
    assert rc == 0 and err == ""
    assert out == "0" * 20 + "\n"


def test_periodic_ar_directive_is_rejected(capsys):
    # 0->01,1->1 stops producing letter 0: the word would be 0101...
    rc, out, err = run(capsys, "word", "ar:morphic:0->01,1->1:0",
                       "--count", "60")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "finitely often" in err
    rc, out, _ = run(capsys, "word", "ar:morphic:0->01,1->0:0", "--count", "8")
    assert rc == 0 and out == "01001001\n"


def test_nested_shuffle_runs_under_default_warmup(capsysbinary):
    rc = main(["gen", "shuffle:fib:(shuffle:fib:l64_28,l64_32),l64_39",
               "--count", "4"])
    out, err = capsysbinary.readouterr()
    assert rc == 0 and err == b"" and len(out) == 16


def test_deep_nesting_is_an_error_not_a_traceback(capsys):
    shuffle = "randu"
    for _ in range(500):
        shuffle = f"shuffle:fib:({shuffle}),randu"
    for cmd, spec in (("word", "merge:01:" * 400 + "fib"), ("gen", shuffle)):
        rc, out, err = run(capsys, cmd, spec, "--count", "4")
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "nest deeper" in err


def test_nesting_at_the_limit_still_emits(tmp_path):
    shuffle = "randu"
    for _ in range(63):
        shuffle = f"shuffle:fib:({shuffle}),randu"
    w, g = tmp_path / "w.txt", tmp_path / "g.bin"
    assert main(["word", "merge:01:" * 63 + "fib", "--count", "32",
                 "--out", str(w)]) == 0
    assert w.read_text() == FIB32 + "\n"
    assert main(["gen", shuffle, "--count", "4", "--out", str(g)]) == 0
    assert len(g.read_bytes()) == 16


def test_rotation_zero_denominator_is_rejected(capsys):
    for spec in ["rot:(3-1*sqrt(5))/0:(0)/1", "rot:(3-1*sqrt(5))/2:(0)/0"]:
        rc, out, err = run(capsys, "word", spec, "--count", "8")
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "zero denominator" in err


def test_rotation_huge_radicand_is_rejected_quickly():
    spec = "rot:(3-1*sqrt(100000000000000000000000000000003))/2:(0)/1"
    out = subprocess.run(
        [sys.executable, "-m", "aprng.cli", "word", spec, "--count", "8"],
        capture_output=True, text=True, timeout=30)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and "radicand" in out.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="relies on Linux enforcing RLIMIT_AS")
def test_memory_exhaustion_is_an_error_not_a_traceback():
    import resource

    def cap_address_space():        # runs in the child only
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (1500 * 2 ** 20, hard))

    out = subprocess.run(
        [sys.executable, "-m", "aprng.cli", "lattice", "randu",
         "--sample", "1e10", "--warmup", "0"],
        capture_output=True, text=True, timeout=60,
        preexec_fn=cap_address_space)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ")


def test_unwritable_word_output_is_an_error(capsys, tmp_path):
    rc, out, err = run(capsys, "word", "fib", "--out",
                       str(tmp_path / "missing" / "x"))
    assert rc == 2 and out == "" and err.startswith("error: ")


def test_unwritable_lattice_dump_is_an_error(capsys, tmp_path):
    rc, out, err = run(capsys, "lattice", "randu", "--warmup", "0",
                       "--sample", "1000", "--dump",
                       str(tmp_path / "missing" / "x.csv"))
    assert rc == 2 and out == "" and err.startswith("error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_is_an_error(capsys):
    rc, out, err = run(capsys, "word", "fib", "--raw", "--count", "1e6",
                       "--out", "/dev/full")
    assert rc == 2 and out == "" and err.startswith("error: ")


def test_lattice_scale_zero_is_rejected(capsys):
    rc, out, err = run(capsys, "lattice", "randu", "--warmup", "0",
                       "--sample", "1000", "--normal", "9,-6,1",
                       "--scale", "0")
    assert rc == 2 and out == "" and err.startswith("error: ")
