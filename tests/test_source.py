"""Source rules: README promises no floats, so none may enter `src/dimspread`;
and the exact subspace layer stays off the packed vectors the scans use, so
the invariants it checks do not share code with them."""

import ast
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
