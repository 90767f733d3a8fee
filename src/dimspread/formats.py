"""Line-oriented ASCII formats for map families, tensors, decompositions,
and matchings, plus the key: value report writer used by the CLI.

Shared conventions: `#` starts a comment that runs to end of line, blank
lines are ignored, tokens are whitespace-separated, and the first line of
every format names it and carries the version token `1`.  Parsers are
strict — wrong token counts, out-of-range residues, or trailing content
all raise ValueError with the offending line number.  Serializers emit the
canonical form (no comments, no blank lines), and parsing a serialized
object always reproduces it exactly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .families import MapFamily, Matching
from .gfp import FieldSpec, Matrix
from .tensor import Decomposition, RankOneTerm, Tensor3

__all__ = [
    "parse_map_family",
    "serialize_map_family",
    "parse_tensor",
    "serialize_tensor",
    "parse_decomposition",
    "serialize_decomposition",
    "parse_matchings",
    "serialize_matchings",
    "render_report",
    "matrix_report_rows",
]


class _Lines:
    """Comment-stripped, tokenized lines with positions for error messages."""

    def __init__(self, text: str):
        self.items: list[tuple[int, list[str]]] = []
        for no, raw in enumerate(text.splitlines(), 1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.items.append((no, body.split()))
        self.pos = 0

    def take(self, what: str) -> tuple[int, list[str]]:
        if self.pos >= len(self.items):
            raise ValueError(f"unexpected end of input: expected {what}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def finish(self) -> None:
        if self.pos < len(self.items):
            no, toks = self.items[self.pos]
            raise ValueError(f"line {no}: unexpected trailing content {' '.join(toks)!r}")


def _int_token(tok: str, what: str, no: int) -> int:
    """ASCII digits with an optional leading '-'; int() alone would also
    take '+', '_' separators and non-ASCII digits."""
    if tok.isascii() and (tok.isdigit() or tok[:1] == "-" and tok[1:].isdigit()):
        return int(tok)
    raise ValueError(f"line {no}: {what} must be an integer, got {tok!r}")


def _header(lines: _Lines, tag: str) -> None:
    no, toks = lines.take(f"header {tag!r}")
    if len(toks) != 2 or toks[0] != tag:
        raise ValueError(f"line {no}: expected {tag!r} header, got {' '.join(toks)!r}")
    if toks[1] != "1":
        raise ValueError(f"line {no}: unsupported {tag} version {toks[1]!r}")


def _keyword_int(lines: _Lines, key: str, *, count: int = 1) -> tuple[int, list[int]]:
    """(line number, values) of a `key v1 .. vcount` line."""
    no, toks = lines.take(f"{key} line")
    if len(toks) != 1 + count or toks[0] != key:
        raise ValueError(f"line {no}: expected {key!r} with {count} value(s), "
                         f"got {' '.join(toks)!r}")
    return no, [_int_token(t, key, no) for t in toks[1:]]


def _field_line(lines: _Lines) -> FieldSpec:
    no, (p,) = _keyword_int(lines, "field")
    try:
        return FieldSpec(p)
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None


def _residue_row(lines: _Lines, count: int, p: int, what: str) -> tuple[int, ...]:
    no, toks = lines.take(what)
    if len(toks) != count:
        raise ValueError(f"line {no}: {what} needs {count} entries, got {len(toks)}")
    out = []
    for t in toks:
        x = _int_token(t, what, no)
        if not 0 <= x < p:
            raise ValueError(f"line {no}: entry {x} is out of range for GF({p})")
        out.append(x)
    return tuple(out)


def _matrix_block(lines: _Lines, rows: int, cols: int, field: FieldSpec, what: str) -> Matrix:
    data = [_residue_row(lines, cols, field.modulus, what) for _ in range(rows)]
    return Matrix.from_rows(field, data, cols=cols)


# ----------------------------------------------------------------------
# map families (.maps)
# ----------------------------------------------------------------------


def parse_map_family(text: str) -> MapFamily:
    lines = _Lines(text)
    _header(lines, "mapfamily")
    field = _field_line(lines)
    n_no, (n,) = _keyword_int(lines, "n")
    count_no, (count,) = _keyword_int(lines, "count")
    if n < 1:
        raise ValueError(f"line {n_no}: n must be at least 1, got {n}")
    if count < 1:
        raise ValueError(f"line {count_no}: count must be at least 1, got {count}")
    maps = [_matrix_block(lines, n, n, field, "map row") for _ in range(count)]
    lines.finish()
    return MapFamily(field, n, tuple(maps))


def serialize_map_family(fam: MapFamily) -> str:
    out = [
        "mapfamily 1",
        f"field {fam.field.modulus}",
        f"n {fam.n}",
        f"count {len(fam.maps)}",
    ]
    for m in fam.maps:
        out.extend(" ".join(str(x) for x in m.row(i)) for i in range(fam.n))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# tensors (.t3)
# ----------------------------------------------------------------------


def parse_tensor(text: str) -> Tensor3:
    lines = _Lines(text)
    _header(lines, "tensor3")
    field = _field_line(lines)
    dims_no, (d1, d2, d3) = _keyword_int(lines, "dims", count=3)
    if min(d1, d2, d3) < 1:
        raise ValueError(f"line {dims_no}: dims must be positive, got {d1} {d2} {d3}")
    entries: list[int] = []
    for _ in range(d1):
        for _ in range(d2):
            entries.extend(_residue_row(lines, d3, field.modulus, "tensor row"))
    lines.finish()
    return Tensor3(field, d1, d2, d3, tuple(entries))


def serialize_tensor(t: Tensor3) -> str:
    out = [
        "tensor3 1",
        f"field {t.field.modulus}",
        f"dims {t.d1} {t.d2} {t.d3}",
    ]
    for i in range(t.d1):
        sl = t.slice(i)
        out.extend(" ".join(str(x) for x in sl.row(j)) for j in range(t.d2))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# decompositions (.dec)
# ----------------------------------------------------------------------


def parse_decomposition(text: str) -> Decomposition:
    lines = _Lines(text)
    _header(lines, "decomp")
    field = _field_line(lines)
    dims_no, (d1, d2, d3) = _keyword_int(lines, "dims", count=3)
    terms_no, (r,) = _keyword_int(lines, "terms")
    if min(d1, d2, d3) < 1:
        raise ValueError(f"line {dims_no}: dims must be positive, got {d1} {d2} {d3}")
    if r < 0:
        raise ValueError(f"line {terms_no}: terms must be non-negative, got {r}")
    p = field.modulus
    terms = []
    for _ in range(r):
        f = _residue_row(lines, d1, p, "f factor")
        g = _residue_row(lines, d2, p, "g factor")
        h = _residue_row(lines, d3, p, "h factor")
        terms.append(RankOneTerm(f, g, h))
    lines.finish()
    return Decomposition(field, (d1, d2, d3), tuple(terms))


def serialize_decomposition(dec: Decomposition) -> str:
    d1, d2, d3 = dec.dims
    out = [
        "decomp 1",
        f"field {dec.field.modulus}",
        f"dims {d1} {d2} {d3}",
        f"terms {len(dec.terms)}",
    ]
    for term in dec.terms:
        out.append(" ".join(str(x) for x in term.f))
        out.append(" ".join(str(x) for x in term.g))
        out.append(" ".join(str(x) for x in term.h))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# matchings (.matchings)
# ----------------------------------------------------------------------


def parse_matchings(text: str) -> list[Matching]:
    lines = _Lines(text)
    _header(lines, "matchings")
    n_no, (n,) = _keyword_int(lines, "n")
    if n < 1:
        raise ValueError(f"line {n_no}: n must be at least 1, got {n}")
    out = []
    while lines.pos < len(lines.items):
        no, toks = lines.take("matching line")
        if toks[0] != "matching":
            raise ValueError(f"line {no}: expected 'matching', got {toks[0]!r}")
        pairs = []
        for tok in toks[1:]:
            parts = tok.split(":")
            if len(parts) != 2:
                raise ValueError(f"line {no}: pair {tok!r} is not of the form i:j")
            pairs.append((_int_token(parts[0], "pair", no),
                          _int_token(parts[1], "pair", no)))
        try:
            out.append(Matching(n, tuple(pairs)))
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}") from None
    if not out:
        raise ValueError("no matchings found")
    return out


def serialize_matchings(matchings: Sequence[Matching]) -> str:
    if not matchings:
        raise ValueError("need at least one matching")
    n = matchings[0].n
    out = ["matchings 1", f"n {n}"]
    for m in matchings:
        if m.n != n:
            raise ValueError("matchings have inconsistent sizes")
        out.append(" ".join(["matching"] + [f"{i}:{j}" for i, j in m.pairs]))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


def render_report(items: Iterable[tuple[str, object]]) -> str:
    """`key: value` lines; repeat a key to emit multi-row values."""
    return "".join(f"{k}: {v}\n" for k, v in items)


def matrix_report_rows(key: str, m: Matrix) -> list[tuple[str, str]]:
    """One report item per matrix row, all under the same key."""
    return [(key, " ".join(str(x) for x in m.row(i))) for i in range(m.rows)]
