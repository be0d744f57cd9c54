import io
import json
import struct
import subprocess
import sys

import pytest

from aprng.cli import main
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


def test_word_block_cap_and_convention(capsys):
    rc, out, _ = run(capsys, "word", "fib", "--count", "32", "--block-cap", "64")
    assert rc == 0 and out == FIB32 + "\n"
    rot = "rot:(3-1*sqrt(5))/2:(0)/1"
    _, left, _ = run(capsys, "word", rot, "--count", "1")
    _, right, _ = run(capsys, "word", rot, "--count", "1", "--convention", "right")
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
    rows = csv.read_text().strip().splitlines()
    assert len(rows) == 998               # n - t + 1 tuples
    first = [float(v) for v in rows[0].split(",")]
    assert len(first) == 3 and all(0.0 <= v < 1.0 for v in first)


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


def test_bench_json(capsys):
    rc, out, _ = run(capsys, "bench", "fib", "--letters", "1e5", "--json")
    assert rc == 0
    d = json.loads(out)
    assert d["word"] == "fib" and d["letters"] == 10 ** 5
    assert d["seconds"] > 0
    assert d["letters_per_second"] > 0
    assert isinstance(d["max_stack_depth"], int) and d["max_stack_depth"] >= 1


def test_error_exit_codes(capsys):
    rc, out, err = run(capsys, "word", "nope")
    assert rc == 2 and out == ""
    assert err.startswith("error: ")
    rc2, _, err2 = run(capsys, "gen", "lcg:m=10,a=11,c=0",
                       "--count", "1", "--warmup", "0")
    assert rc2 == 2 and "error:" in err2
    rc3, _, err3 = run(capsys, "welldoc", "trib", "--m", "300")
    assert rc3 == 2 and "residue space" in err3


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


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "aprng.cli", "word", "fib", "--count", "32"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert out.stdout == FIB32 + "\n"


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
