"""Text formats: strict parsing, canonical serialization, exact round-trips."""

import random
import re

import pytest

from dimspread.cli import main
from dimspread.families import MapFamily, Matching
from dimspread.formats import (
    matrix_report_rows,
    parse_decomposition,
    parse_map_family,
    parse_matchings,
    parse_tensor,
    render_report,
    serialize_decomposition,
    serialize_map_family,
    serialize_matchings,
    serialize_tensor,
)
from dimspread.gfp import GF2, FieldSpec, Matrix
from dimspread.tensor import Decomposition, RankOneTerm, Tensor3

F3 = FieldSpec(3)


def test_parse_map_family_with_noise():
    text = """
    # a two-map family on GF(2)^2
    mapfamily 1
    field 2

    n 2
    count 2   # map blocks follow
    1 0
    0 1
    0 1  # the nilpotent shift
    0 0
    """
    fam = parse_map_family(text)
    assert fam.n == 2 and len(fam.maps) == 2
    assert fam.maps[0] == Matrix.identity(GF2, 2)
    assert fam.maps[1].row_lists() == [[0, 1], [0, 0]]


def test_parse_map_family_errors():
    with pytest.raises(ValueError, match="version"):
        parse_map_family("mapfamily 2\nfield 2\nn 1\ncount 1\n1\n")
    with pytest.raises(ValueError, match="header"):
        parse_map_family("tensor3 1\nfield 2\nn 1\ncount 1\n1\n")
    with pytest.raises(ValueError, match="line 5"):
        parse_map_family("mapfamily 1\nfield 2\nn 2\ncount 1\n1 0 0\n0 1\n")
    with pytest.raises(ValueError, match="out of range for GF\\(3\\)"):
        parse_map_family("mapfamily 1\nfield 3\nn 1\ncount 1\n5\n")
    with pytest.raises(ValueError, match="unexpected end of input"):
        parse_map_family("mapfamily 1\nfield 2\nn 2\ncount 1\n1 0\n")
    with pytest.raises(ValueError, match="trailing"):
        parse_map_family("mapfamily 1\nfield 2\nn 1\ncount 1\n1\n0\n")
    with pytest.raises(ValueError, match="integer"):
        parse_map_family("mapfamily 1\nfield 2\nn x\ncount 1\n1\n")
    with pytest.raises(ValueError, match="count"):
        parse_map_family("mapfamily 1\nfield 2\nn 1\ncount 0\n")


def test_parse_tensor():
    text = "tensor3 1\nfield 3\ndims 2 1 2\n1 2\n0 1\n"
    t = parse_tensor(text)
    assert t.dims == (2, 1, 2)
    assert t.entries == (1, 2, 0, 1)
    with pytest.raises(ValueError, match="dims"):
        parse_tensor("tensor3 1\nfield 2\ndims 0 1 1\n")
    with pytest.raises(ValueError, match="needs 2 entries"):
        parse_tensor("tensor3 1\nfield 2\ndims 1 1 2\n1\n")


def test_parse_decomposition():
    text = """
    decomp 1
    field 2
    dims 1 2 2
    terms 2
    1      # f
    1 0    # g
    1 0    # h
    1
    0 1
    0 1
    """
    dec = parse_decomposition(text)
    assert dec.dims == (1, 2, 2)
    assert len(dec.terms) == 2
    assert dec.terms[0] == RankOneTerm((1,), (1, 0), (1, 0))
    zero = parse_decomposition("decomp 1\nfield 2\ndims 1 1 1\nterms 0\n")
    assert zero.terms == ()
    with pytest.raises(ValueError, match="terms"):
        parse_decomposition("decomp 1\nfield 2\ndims 1 1 1\nterms -1\n")


def test_parse_matchings():
    text = "matchings 1\nn 3\nmatching 1:1 2:2 3:3\nmatching 1:2 2:3\nmatching\n"
    got = parse_matchings(text)
    assert got[0] == Matching.identity(3)
    assert got[1].pairs == ((1, 2), (2, 3))
    assert got[2].pairs == ()  # the empty matching (all-zero map) is legal
    with pytest.raises(ValueError, match="i:j"):
        parse_matchings("matchings 1\nn 2\nmatching 1-2\n")
    with pytest.raises(ValueError, match="no matchings"):
        parse_matchings("matchings 1\nn 2\n")
    with pytest.raises(ValueError, match="expected 'matching'"):
        parse_matchings("matchings 1\nn 2\npairs 1:1\n")


@pytest.mark.parametrize("text, want", [
    ("matchings 1\nn 2\nmatching 1:3\n", "line 3: pair (1, 3) is out of range for n=2"),
    ("matchings 1\nn 3\nmatching 1:1\n# twice\nmatching 1:2 2:2\n",
     "line 5: right index 2 is matched twice"),
    ("matchings 1\n\nn 3\nmatching 1:2 2:1\n",
     "line 4: pairs (1, 2) and (2, 1) violate monotonicity"),
], ids=["range", "twice", "monotone"])
def test_matching_errors_name_their_line(text, want):
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        parse_matchings(text)


@pytest.mark.parametrize("tok", ["1_0", "+1", "\u0663"], ids=["underscore", "plus", "arabic-3"])
def test_parsers_take_only_ascii_digits(tok):
    # int() alone would read these as 10, 1 and 3
    cases = [
        (parse_map_family, f"mapfamily 1\nfield 2\nn 1\ncount {tok}\n1\n", 4, "count"),
        (parse_map_family, f"mapfamily 1\nfield 2\nn 1\ncount 1\n{tok}\n", 5, "map row"),
        (parse_tensor, f"tensor3 1\nfield 3\ndims 1 1 {tok}\n", 3, "dims"),
        (parse_decomposition, f"decomp 1\nfield 2\ndims 1 1 1\nterms {tok}\n", 4, "terms"),
        (parse_matchings, f"matchings 1\nn 2\nmatching 1:{tok}\n", 3, "pair"),
    ]
    for parse, text, no, what in cases:
        want = f"line {no}: {what} must be an integer, got {tok!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            parse(text)


@pytest.mark.parametrize("parse, text, want", [
    (parse_map_family, "mapfamily 1\nfield 2\nn 0\ncount 1\n",
     "line 3: n must be at least 1, got 0"),
    (parse_matchings, "# none\nmatchings 1\n\nn -1\nmatching\n",
     "line 4: n must be at least 1, got -1"),
    (parse_map_family, "mapfamily 1\nfield 2\nn 1\n# empty\ncount 0\n",
     "line 5: count must be at least 1, got 0"),
    (parse_tensor, "tensor3 1\nfield 3\ndims 1 1 -2\n",
     "line 3: dims must be positive, got 1 1 -2"),
    (parse_decomposition, "decomp 1\nfield 2\n\ndims 0 1 1\nterms 0\n",
     "line 4: dims must be positive, got 0 1 1"),
    (parse_decomposition, "decomp 1\nfield 2\ndims 1 1 1\nterms -1\n",
     "line 4: terms must be non-negative, got -1"),
    (parse_map_family, "mapfamily 1\nfield 4\nn 1\ncount 1\n1\n",
     "line 2: modulus 4 is not prime"),
    (parse_tensor, "tensor3 1\n# big\nfield 65537\ndims 1 1 1\n0\n",
     "line 3: modulus 65537 exceeds the limit 65536"),
], ids=["maps-n", "matchings-n", "count", "tensor-dims", "decomp-dims", "terms", "not-prime",
        "too-large"])
def test_header_range_errors_name_their_line(parse, text, want):
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        parse(text)


def rand_matrix(field, n, rng):
    p = field.modulus
    return Matrix(field, n, n, tuple(rng.randrange(p) for _ in range(n * n)))


def test_map_family_roundtrip():
    rng = random.Random(89)
    for _ in range(60):
        field = FieldSpec(rng.choice((2, 3, 5)))
        n = rng.randrange(1, 5)
        fam = MapFamily(
            field, n, tuple(rand_matrix(field, n, rng) for _ in range(rng.randrange(1, 4)))
        )
        text = serialize_map_family(fam)
        assert parse_map_family(text) == fam
        assert serialize_map_family(parse_map_family(text)) == text


def test_tensor_roundtrip():
    rng = random.Random(97)
    for _ in range(60):
        field = FieldSpec(rng.choice((2, 3, 5)))
        d1, d2, d3 = (rng.randrange(1, 4) for _ in range(3))
        t = Tensor3(
            field, d1, d2, d3,
            tuple(rng.randrange(field.modulus) for _ in range(d1 * d2 * d3)),
        )
        text = serialize_tensor(t)
        assert parse_tensor(text) == t
        assert serialize_tensor(parse_tensor(text)) == text


def test_decomposition_roundtrip():
    rng = random.Random(101)
    for _ in range(60):
        field = FieldSpec(rng.choice((2, 3)))
        p = field.modulus
        d1, d2, d3 = (rng.randrange(1, 4) for _ in range(3))
        terms = tuple(
            RankOneTerm(
                tuple(rng.randrange(p) for _ in range(d1)),
                tuple(rng.randrange(p) for _ in range(d2)),
                tuple(rng.randrange(p) for _ in range(d3)),
            )
            for _ in range(rng.randrange(0, 4))
        )
        dec = Decomposition(field, (d1, d2, d3), terms)
        text = serialize_decomposition(dec)
        assert parse_decomposition(text) == dec
        assert serialize_decomposition(parse_decomposition(text)) == text


def test_matchings_roundtrip():
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randrange(1, 7)
        ms = []
        for _ in range(rng.randrange(1, 4)):
            k = rng.randrange(0, n + 1)
            left = sorted(rng.sample(range(1, n + 1), k))
            right = sorted(rng.sample(range(1, n + 1), k))
            ms.append(Matching(n, tuple(zip(left, right))))
        text = serialize_matchings(ms)
        assert parse_matchings(text) == ms
        assert serialize_matchings(parse_matchings(text)) == text


def test_serialize_matchings_rejects_mixed():
    with pytest.raises(ValueError):
        serialize_matchings([Matching.identity(2), Matching.identity(3)])
    with pytest.raises(ValueError):
        serialize_matchings([])


def test_render_report():
    text = render_report([("verdict", "holds"), ("n", 4)])
    assert text == "verdict: holds\nn: 4\n"
    assert render_report([]) == ""


def test_matrix_report_rows():
    m = Matrix.from_rows(GF2, [[1, 0], [1, 1]])
    assert matrix_report_rows("witness", m) == [
        ("witness", "1 0"),
        ("witness", "1 1"),
    ]


# ----------------------------------------------------------------------
# mutation fuzz: malformed input may only raise ValueError
# ----------------------------------------------------------------------

_TOKENS = ["0", "1", "2", "3", "-1", "7", "65537", "99999999999", "x", "1:1", "2:",
           "#", "1/2", "mapfamily", "field", "n", "count", "tensor3", "dims",
           "decomp", "terms", "matchings", "matching"]
_BYTES = b"0123456789 \n\t#:-+_xe\x00\xff"


def _valid_texts():
    fam = MapFamily(F3, 3, (Matrix.identity(F3, 3),
                            Matrix.from_rows(F3, [[0, 1, 2], [2, 0, 1], [1, 1, 0]])))
    tensor = Tensor3(F3, 2, 2, 2, (1, 0, 2, 1, 0, 1, 1, 2))
    dec = Decomposition(GF2, (2, 2, 2), (RankOneTerm((1, 0), (1, 1), (0, 1)),
                                         RankOneTerm((1, 1), (1, 0), (1, 0))))
    matchings = [Matching.identity(4), Matching(4, ((1, 2), (2, 3), (3, 4))), Matching(4, ())]
    return {
        "maps": (parse_map_family, serialize_map_family(fam)),
        "t3": (parse_tensor, serialize_tensor(tensor)),
        "dec": (parse_decomposition, serialize_decomposition(dec)),
        "matchings": (parse_matchings, serialize_matchings(matchings)),
    }


def _mutate(text: str, rng: random.Random) -> str:
    if rng.random() < 0.5:
        data = bytearray(text.encode("ascii"))
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(data) + 1)
            op = rng.randrange(3)
            if op == 0 and i < len(data):
                del data[i]
            elif op == 1 and i < len(data):
                data[i] = rng.choice(_BYTES)
            else:
                data.insert(i, rng.choice(_BYTES))
        return data.decode("latin-1")
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randrange(1, 3)):
        line = rng.choice(lines)
        i = rng.randrange(len(line) + 1)
        op = rng.randrange(4)
        if op == 0 and i < len(line):
            del line[i]
        elif op == 1 and i < len(line):
            line[i] = rng.choice(_TOKENS)
        elif op == 2:
            line.insert(i, rng.choice(_TOKENS))
        else:
            lines.insert(rng.randrange(len(lines) + 1), list(line))
    return "\n".join(" ".join(line) for line in lines) + "\n"


def _fuzz(kind, count):
    """Yields (mutant, raised ValueError?) for seeded mutants of one format."""
    parse, text = _valid_texts()[kind]
    rng = random.Random(kind)
    for _ in range(count):
        mutant = _mutate(text, rng)
        try:
            parse(mutant)
        except ValueError:
            yield mutant, True
        else:
            yield mutant, False


@pytest.mark.parametrize("kind", ["maps", "t3", "dec", "matchings"])
def test_parsers_survive_mutations(kind):
    outcomes = [bad for _, bad in _fuzz(kind, 300)]  # any other exception fails here
    assert any(outcomes)


def test_cli_rejects_mutants_with_exit_2(tmp_path, capsys):
    good = tmp_path / "good.maps"
    good.write_text(serialize_map_family(MapFamily(GF2, 2, (Matrix.identity(GF2, 2),) * 2)),
                    encoding="ascii")
    commands = {
        "maps": lambda f: ["measure", f],
        "t3": lambda f: ["tensor-rank", f, "--r-max", "2"],
        "dec": lambda f: ["refute", str(good), "--s", "1", "--t", "2", "--dec", f],
        "matchings": lambda f: ["build-maps", "--kind", "matchings-file", "--input", f],
    }
    for kind, argv in commands.items():
        rejected = [m for m, bad in _fuzz(kind, 60) if bad][:2]
        assert len(rejected) == 2
        for i, mutant in enumerate(rejected):
            path = tmp_path / f"mutant{i}.{kind}"
            path.write_bytes(mutant.encode("latin-1"))
            code = main(argv(str(path)))
            captured = capsys.readouterr()
            assert code == 2, (kind, mutant)
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "Traceback" not in captured.err
