"""README.md's examples run and print what the README says they print."""
import re
import shlex
from pathlib import Path

import aprng
from aprng.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def test_library_tour_claims_hold():
    (tour,) = _blocks("python")
    ns: dict = {}
    exec(tour, ns)
    assert ns["rep"].verdict == "COVERED"
    z = ns["z"]
    assert tuple(z.counters) == aprng.fibonacci_stream().prefix_parikh(4096)
    # the tour ends on the plane count of RANDU's triples
    last = tour.strip().splitlines()[-1]
    expr, claim = last.split("#")
    assert eval(expr, ns) == int(claim) == 15


def _cli_examples() -> list[tuple[str, str]]:
    """(command, printed lines) for every shown command that prints."""
    examples = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, printed = chunk.partition("\n")
            if printed:
                examples.append((command.split("#")[0], printed))
    return examples


def test_cli_examples_print_what_readme_shows(capsys):
    examples = _cli_examples()
    shown = [shlex.split(command)[1] for command, _ in examples]
    assert "lattice" in shown and "stats" in shown
    for command, printed in examples:
        argv = shlex.split(command)
        assert argv[0] == "aprng"
        assert main(argv[1:]) == 0, command
        out, err = capsys.readouterr()
        assert (out, err) == (printed, ""), command
