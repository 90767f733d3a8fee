"""Source rules: README promises no floats, so none may enter `src/dimspread`;
the exact subspace layer stays off the packed vectors the scans use, so the
invariants it checks do not share code with them; only `gfp` turns vectors
into bytes, so the lane layout stays decided there; the sampler's draw
protocol rests on the public `random.Random` API alone; the CLI writes
stdout from `main` alone; the rank search counts its steps at one site; each
`__all__` lists what its module defines; and the package imports nothing
outside the standard library."""

import ast
import importlib
import inspect
import random
import sys
from pathlib import Path

import pytest

import dimspread

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
    assert float_uses(path.read_text(encoding="utf-8")) == []


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
    assert packed_uses((SRC / name).read_text(encoding="utf-8")) == []


# The byte conversions of the packed vectors.  Over odd p an image is read out
# of the bytes of one product, which rests on the lane layout `gfp` decides.
BYTE_METHODS = {"to_bytes", "from_bytes", "translate"}


def byte_uses(source: str) -> list[str]:
    """Attribute uses of `to_bytes`, `from_bytes` and `translate` in
    `source`, as 'line: name'."""
    return [f"{node.lineno}: {node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in BYTE_METHODS]


def test_byte_uses_finds_each_kind():
    source = ("raw = v.to_bytes(4, 'little')\n"
              "w = int.from_bytes(raw.translate(table), 'little')\n"
              "f = bytes.translate\nto_bytes = from_bytes = len\nt = to_bytes(raw)\n")
    assert sorted(byte_uses(source)) == ["1: to_bytes", "2: from_bytes", "2: translate",
                                         "3: translate"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "gfp.py"),
                         ids=lambda p: p.name)
def test_only_gfp_converts_vectors_to_bytes(path):
    assert byte_uses(path.read_text(encoding="utf-8")) == []


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
    assert random_private_uses(path.read_text(encoding="utf-8")) == []


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
    assert stdout_uses((SRC / "cli.py").read_text(encoding="utf-8")) == []


def step_sites(source: str) -> list[str]:
    """`steps +=`, `cur.add(...)` and `BudgetExceeded("rank search", ...)` in
    `source`, as 'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)
                and node.target.id == "steps"):
            found.append(f"{node.lineno}: steps")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "cur"):
            found.append(f"{node.lineno}: cur.add")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "BudgetExceeded" and node.args
              and isinstance(node.args[0], ast.Constant) and node.args[0].value == "rank search"):
            found.append(f"{node.lineno}: BudgetExceeded")
    return found


def test_step_sites_finds_each_kind():
    source = ("def walk():\n    steps += 1\n    tok = cur.add(v)\n"
              "    raise BudgetExceeded('rank search', steps, cap)\n"
              "def other():\n    steps += 2; joint.add(v); cur.remove(tok)\n"
              "    raise BudgetExceeded('rank-one candidate pool', n, cap)\n"
              "    count += 1\n")
    assert sorted(step_sites(source)) == ["2: steps", "3: cur.add", "4: BudgetExceeded",
                                          "6: steps"]


def test_rank_search_counts_steps_at_one_site():
    # Each pick of the walk is one add to cur and one step against the cap,
    # so one function makes the add, counts the step and raises at the cap;
    # a second copy of that rule could count a pick the other does not.
    sites = step_sites((SRC / "tensor.py").read_text(encoding="utf-8"))
    assert sorted(site.split(": ")[1] for site in sites) == ["BudgetExceeded", "cur.add", "steps"]


MODULES = sorted(p.stem for p in SRC.glob("*.py") if not p.stem.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_lists_its_public_definitions(name):
    module = importlib.import_module(f"dimspread.{name}")
    assert all(hasattr(module, n) for n in module.__all__)
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []


def test_package_all_reexports_module_names():
    listed = {n for name in MODULES for n in importlib.import_module(f"dimspread.{name}").__all__}
    assert all(hasattr(dimspread, n) for n in dimspread.__all__)
    assert sorted(set(dimspread.__all__) - listed - {"__version__"}) == []


def non_stdlib_imports(source: str) -> list[str]:
    """Absolute imports in `source` of modules outside the standard library,
    as 'line: module'; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {n}" for n in names
                  if n.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_non_stdlib_imports_finds_each_kind():
    source = ("import itertools, numpy as np\nfrom os.path import join\n"
              "from . import gfp\nfrom .gfp import Matrix\nimport dimspread.gfp\n"
              "from sympy.matrices import Matrix\n"
              "def f():\n    import scipy.linalg\n")
    assert sorted(non_stdlib_imports(source)) == ["1: numpy", "5: dimspread.gfp",
                                                  "6: sympy.matrices", "8: scipy.linalg"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_imports_only_the_standard_library(path):
    # the toolkit is stdlib-only; its own modules are imported relatively
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []
