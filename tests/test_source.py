"""Source rules: README promises no floats, so none may enter `src/dimspread`;
the exact subspace layer stays off the packed vectors the scans use, so the
invariants it checks do not share code with them; the sampler's draw
protocol rests on the public `random.Random` API alone; and the CLI writes
stdout from `main` alone."""

import ast
import random
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dimspread"


def _float_math(name: str) -> bool:
    return name.startswith("log") or name in ("sqrt", "exp")


def float_uses(source: str) -> list[str]:
    """Float literals, the name `float`, and math.log*, math.sqrt, math.exp
    (as attributes or imported names) in `source`, as 'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.lineno}: {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: float")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and _float_math(node.attr)):
            found.append(f"{node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno}: math.{a.name}" for a in node.names if _float_math(a.name)]
    return found


def test_float_uses_finds_each_kind():
    source = ("import math\nfrom math import log2, ceil\n"
              "x = 0.5\ny = float(3)\nz = math.sqrt(4) + math.log(2) + math.exp(1)\n"
              "w = math.ceil(7) + 10**6\n")
    assert sorted(float_uses(source)) == ["2: math.log2", "3: 0.5", "4: float", "5: math.exp",
                                          "5: math.log", "5: math.sqrt"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floats_in_source(path):
    assert float_uses(path.read_text()) == []


# The packed-vector layer of `gfp`: only the scans and the rank search use it.
PACKED = {"vectors", "make_row_span", "Gf2RowSpan", "ModRowSpan", "pack_bits"}


def packed_uses(source: str) -> list[str]:
    """Names of the packed-vector layer that `source` imports or reaches as
    attributes, as 'line: name'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name in PACKED]
        elif isinstance(node, ast.Attribute) and node.attr in PACKED:
            found.append(f"{node.lineno}: {node.attr}")
    return found


def test_packed_uses_finds_each_kind():
    source = ("from .gfp import Matrix, vectors, make_row_span as mk\n"
              "from dimspread.gfp import Gf2RowSpan\n"
              "import dimspread.gfp as gfp\n"
              "span = gfp.ModRowSpan(3)\nbits = gfp.pack_bits([1, 0])\n"
              "vectors = Matrix\nrows = vectors.rows\n")
    assert sorted(packed_uses(source)) == ["1: make_row_span", "1: vectors", "2: Gf2RowSpan",
                                           "4: ModRowSpan", "5: pack_bits"]


@pytest.mark.parametrize("name", ["subspace.py", "certify.py"])
def test_exact_layer_uses_no_packed_vectors(name):
    assert packed_uses((SRC / name).read_text()) == []


# Private members of `random.Random` (`_randbelow` and its two variants).  A
# seed must give the same subspaces from one version to the next, so the
# sampler may rest only on what `random` documents.
RANDOM_PRIVATE = {a for a in dir(random.Random) if a.startswith("_") and not a.startswith("__")}


def random_private_uses(source: str) -> list[str]:
    """Private `random.Random` members that `source` reads as attributes or
    through `getattr` with a literal name, as 'line: name'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in RANDOM_PRIVATE:
            found.append(f"{node.lineno}: {node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in RANDOM_PRIVATE):
            found.append(f"{node.lineno}: {node.args[1].value}")
    return found


def test_random_private_uses_finds_each_kind():
    assert "_randbelow" in RANDOM_PRIVATE
    source = ("x = rng._randbelow(5)\n"
              "f = random.Random._randbelow_with_getrandbits\n"
              "g = getattr(rng, '_randbelow_without_getrandbits')\n"
              "y = rng.getrandbits(3) + rng.randrange(5) + self._rows + getattr(rng, 'random')()\n")
    assert sorted(random_private_uses(source)) == ["1: _randbelow", "2: _randbelow_with_getrandbits",
                                                   "3: _randbelow_without_getrandbits"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_random_members_in_source(path):
    assert random_private_uses(path.read_text()) == []


def stdout_uses(source: str) -> list[str]:
    """`sys.stdout` and `print` calls without `file=` in `source` outside its
    top-level function `main`, as 'line: what'."""
    tree = ast.parse(source)
    in_main = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and fn.name == "main" for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in in_main:
            continue
        if (isinstance(node, ast.Attribute) and node.attr == "stdout"
                and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append(f"{node.lineno}: sys.stdout")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "print" and all(k.arg != "file" for k in node.keywords)):
            found.append(f"{node.lineno}: print")
    return found


def test_stdout_uses_finds_each_kind():
    source = ("import sys\n"
              "def _emit(text):\n    sys.stdout.write(text)\n"
              "def main():\n    sys.stdout.write('x')\n    print('y')\n"
              "    def inner():\n        print('z')\n"
              "def _cmd(out=sys.stdout):\n    print('a', file=sys.stderr)\n    print('b')\n"
              "w = sys.stdout\n")
    assert sorted(stdout_uses(source)) == ["11: print", "12: sys.stdout", "3: sys.stdout",
                                           "9: sys.stdout"]


def test_cli_writes_stdout_only_in_main():
    # one place writes stdout, after the subcommand has finished, so a run
    # that fails part way prints no partial report
    assert stdout_uses((SRC / "cli.py").read_text()) == []
