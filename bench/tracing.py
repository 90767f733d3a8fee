"""Spans and counters recorded from the benchmark's side of each layer boundary.

Nothing is inserted into the program.  While a `Tracer` is installed it
replaces public names that one module imports from the layer below (for
example `dimspread.cli.measure_expansion` or `dimspread.certify.verify_spreading`)
with wrappers that record a span (name, start, end, parent) and derive counts
from the call's arguments and result.  Spans stay in memory until the run
writes them out.  A layer's self time is its span's duration minus the time
its child spans cover.

Row-span `add` calls sit in the innermost loops; counting them costs about a
third of a scan's time, so they are counted only with `count_adds=True`, in a
separate pass whose timings are not used.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter

import gen

# name imported by the layer above -> span name
CLI_NAMES = {
    "certify_lower_bound": "certify.certify",
    "family_tensor": "certify.family_tensor",
    "rank_bound": "certify.rank_bound",
    "refute_spreading": "certify.refute",
    "measure_expansion": "families.measure",
    "symmetrize": "families.symmetrize",
    "verify_expander": "families.verify_expander",
    "verify_spreading": "families.verify",
    "word_length_for": "families.word_length_for",
    "words": "families.words",
    "parse_map_family": "formats.parse",
    "parse_tensor": "formats.parse",
    "parse_decomposition": "formats.parse",
    "render_report": "formats.render",
    "matrix_report_rows": "formats.render",
    "serialize_tensor": "formats.render",
    "serialize_decomposition": "formats.render",
    "serialize_map_family": "formats.render",
    "tensor_rank": "tensor.rank",
}
CERTIFY_NAMES = {
    "verify_spreading": "families.verify",
    "eval_decomposition": "tensor.eval",
    "check_trace": "certify.check_trace",
}
FAMILIES_NAMES = {
    "verify_expander": "families.verify_expander",
    "verify_large_expansion": "families.large",
}
TENSOR_NAMES = {
    "min_spanning_rank_ones": "tensor.search",
    "reconstruct_decomposition": "tensor.reconstruct",
    "eval_decomposition": "tensor.eval",
}
FORMATS_NAMES = {"parse_map_family": "formats.parse", "parse_tensor": "formats.parse",
                 "parse_decomposition": "formats.parse"}
EXHAUSTIVE_SCANS = ("families.measure", "families.verify", "families.verify_expander",
                    "families.large")


class Tracer:
    """Installs wrappers on the program's modules and records spans and counts."""

    def __init__(self, ds, *, count_adds: bool):
        self.ds = ds  # namespace holding the imported dimspread modules
        self.count_adds = count_adds
        self.main = threading.get_ident()
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        # Counters bumped from scan worker threads: next() on itertools.count
        # is atomic under the interpreter lock.
        self.hot = {k: itertools.count() for k in
                    ("cells.yielded", "adds.gf2", "adds.odd", "tensor.steps")}
        self._patches: list[tuple] = []
        self._search_started = False
        # the batch run under this tracer, its wall time and outputs
        self.batch, self.wall, self.outputs = None, 0.0, {}

    # -- spans ---------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs or {}])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    # -- installation --------------------------------------------------

    def _patch(self, module, attr, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _wrap(self, module, attr: str, name: str) -> None:
        orig = getattr(module, attr)
        note = _NOTES.get(name)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer.main:
                return orig(*args, **kwargs)
            if name == "tensor.search":
                tracer._search_started = True
            idx = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note is not None:
                note(tracer, tracer.spans[idx][4], args, kwargs, result)
            return result

        self._patch(module, attr, wrapper)

    def install(self) -> "Tracer":
        ds = self.ds
        for module, names in ((ds.cli, CLI_NAMES), (ds.certify, CERTIFY_NAMES),
                              (ds.families, FAMILIES_NAMES), (ds.tensor, TENSOR_NAMES),
                              (ds.formats, FORMATS_NAMES)):
            for attr, name in names.items():
                self._wrap(module, attr, name)
        self._install_counters()
        return self

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def _install_counters(self) -> None:
        fam = self.ds.families
        tracer = self
        cells = self.hot["cells.yielded"]
        orig_cells = fam.cell_subspaces

        def cell_subspaces(*args, **kwargs):
            for sub in orig_cells(*args, **kwargs):
                next(cells)
                yield sub

        orig_count = fam.grassmann_count

        def grassmann_count(n, s, p):
            value = orig_count(n, s, p)
            tracer.counts["families.scan.budgeted"] += value
            return value

        orig_sample = fam.sample_with_rng

        def sample_with_rng(*args, **kwargs):
            tracer.counts["families.sampled.samples"] += 1
            return orig_sample(*args, **kwargs)

        self._patch(fam, "cell_subspaces", cell_subspaces)
        self._patch(fam, "grassmann_count", grassmann_count)
        self._patch(fam, "sample_with_rng", sample_with_rng)
        if self.count_adds:
            self._install_add_counters()

    def _install_add_counters(self) -> None:
        gfp = self.ds.gfp
        gf2, odd, steps = self.hot["adds.gf2"], self.hot["adds.odd"], self.hot["tensor.steps"]

        def counting(base, counter, step_counter=None):
            class Counted(base):
                __slots__ = ()

                def add(self, v):
                    next(counter)
                    if step_counter is not None:
                        next(step_counter)
                    return base.add(self, v)

                def copy(self):
                    dup = base.copy(self)
                    dup.__class__ = copies[base]
                    return dup

            return Counted

        gf2_span = counting(gfp.Gf2RowSpan, gf2)
        odd_span = counting(gfp.ModRowSpan, odd)
        copies = {gfp.Gf2RowSpan: gf2_span, gfp.ModRowSpan: odd_span}
        # In the rank search the first span made is the slice span; every later
        # one is the `cur` span, whose adds are exactly the search's steps.
        gf2_step = counting(gfp.Gf2RowSpan, gf2, steps)
        odd_step = counting(gfp.ModRowSpan, odd, steps)
        tracer = self

        def families_make(p):
            return gf2_span() if p == 2 else odd_span(p)

        def tensor_make(p):
            if tracer._search_started:
                tracer._search_started = False
                return gf2_span() if p == 2 else odd_span(p)
            return gf2_step() if p == 2 else odd_step(p)

        self._patch(self.ds.families, "Gf2RowSpan", gf2_span)
        self._patch(self.ds.families, "make_row_span", families_make)
        self._patch(self.ds.tensor, "make_row_span", tensor_make)

    def hot_counts(self) -> dict[str, int]:
        # Reading advances each counter once; read it only once, at the end.
        return {k: next(c) for k, c in self.hot.items()}


# -- notes: counts derived at the boundary from a call's arguments and result --


def _scan_dims(tracer, attrs, fam, dims, samples):
    p = fam.field.modulus
    attrs["exhaustive"] = samples is None
    if samples is None:
        attrs["nominal"] = sum(gen.gaussian_binomial(fam.n, d, p) for d in dims)
        tracer.counts["families.scan.subspaces"] += attrs["nominal"]


def _note_measure(tracer, attrs, args, kwargs, result):
    fam = args[0]
    _scan_dims(tracer, attrs, fam, range(1, fam.n // 2 + 1), kwargs.get("samples"))


def _note_verify(tracer, attrs, args, kwargs, result):
    fam, params = args[0], args[1]
    _scan_dims(tracer, attrs, fam, [params.s], kwargs.get("samples"))


def _note_large(tracer, attrs, args, kwargs, result):
    fam = args[0]
    _scan_dims(tracer, attrs, fam, range(fam.n // 2 + 1, fam.n), None)
    tracer.counts["families.large.records"] += len(result.records)


def _note_words(tracer, attrs, args, kwargs, result):
    fam, t = args[0], args[1]
    tracer.counts["families.words.nominal"] += len(fam.maps) ** t
    tracer.counts["families.words.distinct"] += len(result.maps)


def _note_search(tracer, attrs, args, kwargs, result):
    slices = args[0]
    p = slices[0].field.modulus
    rows, cols = slices[0].rows, slices[0].cols
    tracer.counts["tensor.rank.pool"] += ((p**rows - 1) // (p - 1)) * ((p**cols - 1) // (p - 1))
    tracer.counts["tensor.rank.searches"] += 1


_NOTES = {
    "families.measure": _note_measure,
    "families.verify": _note_verify,
    "families.verify_expander": _note_measure,
    "families.large": _note_large,
    "families.words": _note_words,
    "tensor.search": _note_search,
}


def layer_times(tracer: Tracer) -> dict[str, float]:
    """Seconds per span name: inclusive `total.<name>` and `self.<name>`,
    and the self time of exhaustive and sampled scans."""
    out: Counter = Counter()
    for (name, start, end, _, attrs), own in zip(tracer.spans, tracer.self_times()):
        out[f"total.{name}"] += end - start
        out[f"self.{name}"] += own
        if name in EXHAUSTIVE_SCANS:
            out["scan.exhaustive" if attrs.get("exhaustive", True) else "scan.sampled"] += own
    return dict(out)
