"""Command-line interface: construct map families, symmetrize, take word
powers, verify expansion/spreading, build tensors, compute ranks, certify
lower bounds, refute with decompositions, and run the whole chain.

Exit codes are uniform across subcommands:
  0  the property holds / the requested artifact was produced
  1  the property was refuted (a counterexample is printed)
  2  usage error or malformed input
  3  a configured budget was exceeded (stderr names the stage)

Reports are deterministic `key: value` lines; multi-row values (subspace
bases) repeat the key once per row.

Each run option reaches the library by one path: the parser declares it,
`RunConfig` validates it, and `RunConfig.scan` carries the scan options
(sampling and the enumeration budget).  Scans run in one thread; --threads
is validated and changes nothing.

`main` alone touches stdout: it builds the `RunConfig`, parses the `maps`
argument of the subcommands that take one, and writes the text the
subcommand returns once it has finished, so a failed run prints no report.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

# rank_bound is unused here, but bench/tracing.py patches cli.rank_bound.
from .certify import certify_lower_bound, family_tensor, rank_bound, refute_spreading
from .errors import BudgetExceeded, NotSpreading
from .families import (
    DEFAULT_WORD_CAP,
    MapFamily,
    SpreadingParams,
    dyadic_matchings,
    matching_maps,
    measure_expansion,
    shift_matchings,
    symmetrize,
    verify_expander,
    verify_spreading,
    word_length_for,
    words,
)
from .formats import (
    matrix_report_rows,
    parse_decomposition,
    parse_map_family,
    parse_matchings,
    parse_tensor,
    render_report,
    serialize_decomposition,
    serialize_map_family,
    serialize_tensor,
)
from .gfp import FieldSpec, Matrix
from .subspace import DEFAULT_ENUMERATION_CAP, Subspace
from .tensor import DEFAULT_POOL_CAP, DEFAULT_STEP_CAP, pool_size, tensor_rank

__all__ = ["RunConfig", "build_parser", "main", "entry"]

# Most matrix entries `build-maps` writes for a generated family: far above
# any family a scan can take, and checked before anything is built.
_FAMILY_ENTRY_CAP = 10**7


@dataclass(frozen=True)
class RunConfig:
    """Validated run-wide knobs shared by the verification subcommands."""

    threads: int = 1
    samples: int | None = None
    seed: int | None = None
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    word_cap: int = DEFAULT_WORD_CAP
    pool_cap: int = DEFAULT_POOL_CAP
    step_cap: int = DEFAULT_STEP_CAP

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("--threads must be at least 1")
        for name in ("enumeration_cap", "word_cap", "pool_cap", "step_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be positive")
        if self.samples is not None:
            if self.samples < 1:
                raise ValueError("--samples must be positive")
            if self.seed is None:
                raise ValueError("sampled mode requires an explicit --seed")

    @property
    def scan(self) -> dict:
        """Keyword arguments of every scan: sampling and its budget."""
        return {"samples": self.samples, "seed": self.seed,
                "enumeration_cap": self.enumeration_cap}


# A subcommand's outcome: its exit code and the text `main` writes to stdout.
Result = tuple[int, str]


def _config(args: argparse.Namespace) -> RunConfig:
    """The run options this subcommand declares; the rest keep their defaults."""
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in fields(RunConfig) if hasattr(args, f.name)})


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _read(path: str) -> str:
    return Path(path).read_text(encoding="ascii")


def _emit(text: str, out: str | None) -> str:
    """Write `text` to the file `out` and return "", or return `text` if no `out`."""
    if not out:
        return text
    Path(out).write_text(text, encoding="ascii")
    return ""


def _family_header(name: str, fam: MapFamily) -> list[tuple[str, object]]:
    return [
        ("report", name),
        ("field", fam.field.modulus),
        ("n", fam.n),
        ("maps", len(fam.maps)),
    ]


def _mode_items(cfg: RunConfig) -> list[tuple[str, object]]:
    if cfg.samples is None:
        return [("mode", "exhaustive")]
    return [
        ("mode", "sampled"),
        ("samples", cfg.samples),
        ("seed", cfg.seed),
        ("confidence", "refutation-only"),
    ]


def _subspace_items(key: str, sub: Subspace) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [(f"{key}_dim", sub.dim)]
    items.extend(matrix_report_rows(key, sub.basis))
    return items


def _counterexample_items(achieved: int, sub: Subspace) -> list[tuple[str, object]]:
    return [("achieved", achieved), *_subspace_items("counterexample", sub)]


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _check_family_size(n: int, count: int) -> None:
    """Refuse a family of `count` n x n maps before any of it is built."""
    if n * n * count > _FAMILY_ENTRY_CAP:
        raise ValueError(
            f"a family of {count} maps of size {n} x {n} has {n * n * count} entries, "
            f"more than build-maps builds ({_FAMILY_ENTRY_CAP})"
        )


def _check_file_value(flag: str, given: int | None, found: int) -> None:
    """Refuse a --field or --n that differs from the value the input file sets."""
    if given is not None and given != found:
        raise ValueError(f"--{flag} {given} differs from the input file's {flag} {found}")


def _cmd_build_maps(args: argparse.Namespace, cfg: RunConfig, _fam: None) -> Result:
    field = FieldSpec(2 if args.field is None else args.field)
    kind = args.kind
    if kind in ("shifts", "dyadic", "random"):
        n = args.n
        if n is None:
            raise ValueError(f"--n is required for kind {kind!r}")
        if n < 1:
            raise ValueError(f"--n must be at least 1, got {n}")
        # dyadic: the identity plus one shift per power of two below n
        count = {"shifts": 3, "dyadic": 1 + (n - 1).bit_length()}.get(kind, args.count)
        _check_family_size(n, count)
        if kind == "random":
            if args.seed is None:
                raise ValueError("--seed is required for kind 'random' (reproducibility)")
            rng = random.Random(args.seed)
            p = field.modulus
            maps = tuple(
                Matrix(field, n, n, tuple(rng.randrange(p) for _ in range(n * n)))
                for _ in range(count)
            )
            fam = MapFamily(field, n, maps)
        else:
            make = shift_matchings if kind == "shifts" else dyadic_matchings
            fam = matching_maps(make(n), field)
    else:
        if args.input is None:
            raise ValueError(f"--input is required for kind {kind!r}")
        text = _read(args.input)
        if kind == "matchings-file":
            matchings = parse_matchings(text)
            _check_file_value("n", args.n, matchings[0].n)
            _check_family_size(matchings[0].n, len(matchings))
            fam = matching_maps(matchings, field)
        else:
            fam = parse_map_family(text)
            _check_file_value("field", args.field, fam.field.modulus)
            _check_file_value("n", args.n, fam.n)
    return 0, _emit(serialize_map_family(fam), args.out)


def _cmd_symmetrize(args: argparse.Namespace, cfg: RunConfig, fam: MapFamily) -> Result:
    return 0, _emit(serialize_map_family(symmetrize(fam)), args.out)


def _cmd_words(args: argparse.Namespace, cfg: RunConfig, fam: MapFamily) -> Result:
    word_fam = words(fam, args.length, word_cap=cfg.word_cap)
    return 0, _emit(serialize_map_family(word_fam), args.out)


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig, fam: MapFamily) -> Result:
    """verify-spreading and verify-expander: one threshold check, one report."""
    items = _family_header(args.command, fam)
    if args.command == "verify-spreading":
        params = SpreadingParams(args.s, args.t)
        res = verify_spreading(fam, params, **cfg.scan)
        items += [("s", params.s), ("t", params.t)]
    else:
        res = verify_expander(fam, args.tau, **cfg.scan)
        items.append(("tau", args.tau))
    items += _mode_items(cfg)
    items.append(("verdict", "holds" if res.verified else "refuted"))
    items.append(("conclusive", "yes" if res.conclusive else "no"))
    if not res.verified:
        items += _counterexample_items(res.achieved, res.counterexample)
    return (0 if res.verified else 1), render_report(items)


def _cmd_measure(args: argparse.Namespace, cfg: RunConfig, fam: MapFamily) -> Result:
    rep = measure_expansion(fam, **cfg.scan)
    items = _family_header("measure", fam)
    items += _mode_items(cfg)
    items.append(("tau_star", rep.tau_star))
    for dim, low in rep.per_dimension:
        items.append((f"dim_{dim}_min_image_sum", low))
    items += _subspace_items("witness", rep.witness)
    items.append(("conclusive", "yes" if rep.exhaustive else "no"))
    return 0, render_report(items)


def _cmd_build_tensor(args: argparse.Namespace, cfg: RunConfig, fam: MapFamily) -> Result:
    return 0, _emit(serialize_tensor(family_tensor(fam)), args.out)


def _cmd_tensor_rank(args: argparse.Namespace, cfg: RunConfig, _fam: None) -> Result:
    t = parse_tensor(_read(args.tensor))
    items: list[tuple[str, object]] = [
        ("report", "tensor-rank"),
        ("field", t.field.modulus),
        ("dims", f"{t.d1} {t.d2} {t.d3}"),
        ("r_max", args.r_max),
    ]
    found = tensor_rank(t, args.r_max, pool_cap=cfg.pool_cap, step_cap=cfg.step_cap)
    if found is None:
        items += [("verdict", "above_max"), ("certified_above", args.r_max)]
        return 1, render_report(items)
    rank, dec = found
    items += [("verdict", "determined"), ("rank", rank), ("terms", len(dec.terms))]
    if args.dec_out:
        _emit(serialize_decomposition(dec), args.dec_out)
    return 0, render_report(items)


def _cmd_certify(args: argparse.Namespace, cfg: RunConfig, fam: MapFamily) -> Result:
    params = SpreadingParams(args.s, args.t)
    items = _family_header("certify", fam)
    items += [("s", params.s), ("t", params.t)]
    items += _mode_items(cfg)
    try:
        cert = certify_lower_bound(fam, params, **cfg.scan)
    except NotSpreading as e:
        items.append(("verdict", "not-spreading"))
        items += _counterexample_items(e.achieved, e.counterexample)
        return 1, render_report(items)
    items.append(("verdict", "certified"))
    items.append(("bound", cert.bound))
    items.append(("conclusive", "yes" if cert.conclusive else "no"))
    return 0, render_report(items)


def _cmd_refute(args: argparse.Namespace, cfg: RunConfig, fam: MapFamily) -> Result:
    dec = parse_decomposition(_read(args.dec))
    params = SpreadingParams(args.s, args.t)
    trace = refute_spreading(fam, params, dec)
    items = _family_header("refute", fam)
    items += [("s", params.s), ("t", params.t), ("terms", trace.terms)]
    items.append(("verdict", "refuted"))
    items.append(
        ("s_indices", " ".join(str(i) for i in trace.s_indices) if trace.s_indices else "none")
    )
    items += _subspace_items("kernel", trace.kernel)
    items += _subspace_items("image_span", trace.image_span)
    items += _subspace_items("violating", trace.violating)
    items.append(("achieved", trace.achieved))
    return 1, render_report(items)


def _rank_check_feasible(p: int, n: int, r_max: int, pool_cap: int) -> bool:
    classes = pool_size(p, n, n)
    if classes > pool_cap:
        return False
    return math.comb(classes, min(r_max, classes)) <= 2 * 10**6


def _cmd_pipeline(args: argparse.Namespace, cfg: RunConfig, fam: MapFamily) -> Result:
    eps = args.epsilon
    if not 0 < eps < 1:
        raise ValueError("--epsilon must satisfy 0 < epsilon < 1")
    sym = symmetrize(fam)
    items: list[tuple[str, object]] = [
        ("report", "pipeline"),
        ("field", fam.field.modulus),
        ("n", fam.n),
        ("maps_in", len(fam.maps)),
        ("maps_symmetrized", len(sym.maps)),
        ("epsilon", eps),
    ]
    items += _mode_items(cfg)

    rep = measure_expansion(sym, **cfg.scan)
    items.append(("tau_star", rep.tau_star))
    if rep.tau_star <= 0:
        items.append(("stage", "expansion"))
        items.append(("verdict", "refuted"))
        items += _subspace_items("witness", rep.witness)
        return 1, render_report(items)

    t = word_length_for(eps, rep.tau_star)
    items.append(("word_length", t))
    word_fam = words(sym, t, word_cap=cfg.word_cap)
    items.append(("word_count", len(word_fam.maps)))

    params = SpreadingParams(math.ceil(eps * fam.n), math.ceil((1 - eps) * fam.n))
    items += [("s", params.s), ("t", params.t)]
    try:
        cert = certify_lower_bound(word_fam, params, **cfg.scan)
    except NotSpreading as e:
        items += [("spreading", "refuted"), ("stage", "spreading"), ("verdict", "refuted")]
        items += _counterexample_items(e.achieved, e.counterexample)
        return 1, render_report(items)
    items.append(("spreading", "holds"))
    items.append(("certified_bound", cert.bound))

    r_max = cert.bound - 1
    rank_check = "skipped"
    if cfg.samples is None and _rank_check_feasible(
        fam.field.modulus, fam.n, r_max, cfg.pool_cap
    ):
        try:
            found = tensor_rank(
                family_tensor(word_fam), r_max,
                pool_cap=cfg.pool_cap, step_cap=cfg.step_cap,
            )
        except BudgetExceeded:
            pass
        else:
            if found is None:
                rank_check = "confirmed"
            else:
                items.append(("rank_check",
                              f"VIOLATION rank {found[0]} < bound {cert.bound}"))
                items.append(("verdict", "discrepancy"))
                return 1, render_report(items)
    items.append(("rank_check", rank_check))
    items.append(("verdict", "certified"))
    items.append(("conclusive", "yes" if cert.conclusive else "no"))
    return 0, render_report(items)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_run_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; scans run in one thread")
    sp.add_argument("--enumeration-cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                    help="max subspaces a scan may enumerate or draw")
    sp.add_argument("--samples", type=int, default=None,
                    help="sampled mode: number of random subspaces per dimension")
    sp.add_argument("--seed", type=int, default=None,
                    help="RNG seed (required with --samples)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimspread",
        description="Exact verification of dimension-spreading map families and "
                    "certified rank bounds for their slice tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build-maps", help="construct a .maps file")
    sp.add_argument("--kind", required=True,
                    choices=["shifts", "dyadic", "random", "matchings-file", "from-file"])
    sp.add_argument("--n", type=int, default=None,
                    help="ambient dimension (for *-file kinds, must match the file)")
    sp.add_argument("--field", type=int, default=None,
                    help="prime field modulus (default 2; for from-file, must match the file)")
    sp.add_argument("--count", type=int, default=3, help="number of random maps")
    sp.add_argument("--seed", type=int, default=None, help="seed for kind=random")
    sp.add_argument("--input", default=None, help="input file for *-file kinds")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(func=_cmd_build_maps)

    sp = sub.add_parser("symmetrize", help="close a family under transpose, add identity")
    sp.add_argument("maps")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_symmetrize)

    sp = sub.add_parser("words", help="all products of a fixed number of maps")
    sp.add_argument("maps")
    sp.add_argument("--length", type=int, required=True, help="word length")
    sp.add_argument("--word-cap", type=int, default=DEFAULT_WORD_CAP)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_words)

    sp = sub.add_parser("verify-spreading", help="check the image-sum threshold t at dim s")
    sp.add_argument("maps")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    _add_run_options(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("verify-expander", help="check (1+tau)-fold growth up to dim n/2")
    sp.add_argument("maps")
    sp.add_argument("--tau", type=_fraction, required=True)
    _add_run_options(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("measure", help="exact best expansion constant of a family")
    sp.add_argument("maps")
    _add_run_options(sp)
    sp.set_defaults(func=_cmd_measure)

    sp = sub.add_parser("build-tensor", help="stack a family into its slice tensor")
    sp.add_argument("maps")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_build_tensor)

    sp = sub.add_parser("tensor-rank", help="exact tensor rank by exhaustive span search")
    sp.add_argument("tensor")
    sp.add_argument("--r-max", type=int, required=True)
    sp.add_argument("--pool-cap", type=int, default=DEFAULT_POOL_CAP)
    sp.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP)
    sp.add_argument("--dec-out", default=None,
                    help="write the witness decomposition to this path")
    sp.set_defaults(func=_cmd_tensor_rank)

    sp = sub.add_parser("certify", help="verify spreading and certify the rank bound")
    sp.add_argument("maps")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    _add_run_options(sp)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("refute", help="replay a small decomposition into a counterexample")
    sp.add_argument("maps")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--dec", required=True, help=".dec file with fewer than n+t-s terms")
    sp.set_defaults(func=_cmd_refute)

    sp = sub.add_parser("pipeline",
                        help="symmetrize, measure, take words, verify, certify, cross-check")
    sp.add_argument("maps")
    sp.add_argument("--epsilon", type=_fraction, required=True)
    sp.add_argument("--word-cap", type=int, default=DEFAULT_WORD_CAP)
    sp.add_argument("--pool-cap", type=int, default=DEFAULT_POOL_CAP)
    sp.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP)
    _add_run_options(sp)
    sp.set_defaults(func=_cmd_pipeline)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import; parse_args leaves it unchanged,
    # so every later call in the process reuses it.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config(args)
        fam = parse_map_family(_read(args.maps)) if "maps" in args else None
        code, text = args.func(args, cfg, fam)
        sys.stdout.write(text)
        return code
    except BudgetExceeded as e:
        print(f"budget exceeded in {e.stage}: needs {e.needed}, cap {e.cap}",
              file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
