"""The README's examples run as written: the Python quick tour prints what
its comments say, each `$ dimspread ...` transcript prints its text, and
the complete file-format examples parse."""

import re
import shlex
from pathlib import Path

from dimspread.cli import main
from dimspread.formats import parse_decomposition, parse_matchings
from dimspread.gfp import GF2, Matrix
from dimspread.tensor import eval_decomposition

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def fenced_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def transcript(block: str) -> list[tuple[list[str], str]]:
    """(argv, expected stdout) for each `$ dimspread` line of a block."""
    steps = []
    for line in block.splitlines(keepends=True):
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "dimspread"
            steps.append((argv[1:], ""))
        else:
            argv, out = steps[-1]
            steps[-1] = (argv, out + line)
    return steps


def test_quick_tour_prints_its_comments(capsys):
    (code,) = fenced_blocks("python")
    want = [line.split("#", 1)[1].split()[0] for line in code.splitlines() if "print(" in line]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want == ["3", "3"]


def test_cli_transcripts_match(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = [s for b in fenced_blocks("sh") if b.startswith("$ ") for s in transcript(b)]
    assert [argv[0] for argv, _ in steps] == ["build-maps", "pipeline", "measure"]
    for argv, want in steps:
        assert main(argv) == 0
        assert capsys.readouterr().out == want


def format_example(header: str) -> str:
    """The one plain fenced block that starts with `header`."""
    (block,) = re.findall(rf"^```\n({header}\n.*?)^```$", README, flags=re.M | re.S)
    return block


def test_file_format_examples_parse():
    # the .maps and .t3 examples elide their rows; .dec and .matchings are whole
    dec = parse_decomposition(format_example("decomp 1"))
    assert (dec.field, dec.dims, len(dec)) == (GF2, (1, 2, 2), 2)
    assert eval_decomposition(dec).slice(0) == Matrix.identity(GF2, 2)
    matchings = parse_matchings(format_example("matchings 1"))
    assert [m.pairs for m in matchings] == [((1, 1), (2, 2), (3, 3)), ((1, 2), (2, 3)),
                                            ((2, 1), (3, 2))]
