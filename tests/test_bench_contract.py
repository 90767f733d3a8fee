"""The benchmark's tracer against the program: every name it patches must
exist, uninstalling must restore the modules, and the rank-search steps it
counts must sit on the public `step_cap` boundary.

`bench/tracing.py` replaces names in the program's modules by attribute, so
deleting a name it patches, or changing how the rank search makes its spans,
breaks only the traced benchmark runs.  This test reads `bench/` and writes
nothing there.
"""

import importlib
import random
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("gfp", "subspace", "families", "tensor", "certify", "formats", "cli")


@pytest.fixture
def ds(monkeypatch):
    """Fresh imports of the program's modules, as the benchmark makes them;
    the modules the other tests imported are put back afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no bench/__pycache__
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "dimspread"}
    for name in saved:
        del sys.modules[name]
    try:
        yield types.SimpleNamespace(
            **{m: importlib.import_module(f"dimspread.{m}") for m in MODULES},
            errors=importlib.import_module("dimspread.errors"),
        )
    finally:
        for name in [k for k in sys.modules if k.split(".")[0] == "dimspread"]:
            del sys.modules[name]
        sys.modules.update(saved)


def _tracer(ds):
    tracing = importlib.import_module("tracing")
    return tracing.Tracer(ds, count_adds=True)


def test_tracer_installs_and_uninstall_restores(ds):
    before = {m: dict(vars(getattr(ds, m))) for m in MODULES}
    tracer = _tracer(ds).install()
    try:
        patched = {m for m in MODULES
                   if any(vars(getattr(ds, m))[k] is not v for k, v in before[m].items())}
        assert patched == {"cli", "certify", "families", "tensor", "formats"}
    finally:
        tracer.uninstall()
    for m in MODULES:
        after = vars(getattr(ds, m))
        assert after.keys() == before[m].keys()
        assert all(after[k] is v for k, v in before[m].items()), m


def _rank_one_sum(ds, p, dims, k, seed):
    """The sum of k rank-one terms with seeded random factors."""
    rng = random.Random(seed)
    terms = tuple(ds.tensor.RankOneTerm(*(tuple(rng.randrange(p) for _ in range(d)) for d in dims))
                  for _ in range(k))
    return ds.tensor.eval_decomposition(
        ds.tensor.Decomposition(ds.gfp.FieldSpec(p), dims, terms))


def test_traced_rank_steps_sit_on_the_step_cap_boundary(ds):
    # The symmetrized GF(2) shift family at n = 3 stacks into a rank-6
    # tensor.  The two seeded sums, over GF(3) and GF(2), are searched at
    # nodes one short of a full joint span, where the search skips the picks
    # that end their residue line with no add.  The tracer counts every add
    # on the spans `make_row_span` returns after the slice span, so that
    # count must equal the search's own.
    fam = ds.families.symmetrize(
        ds.families.matching_maps(ds.families.shift_matchings(3), ds.gfp.GF2))
    cases = [(ds.certify.family_tensor(fam), 6, 6),
             (_rank_one_sum(ds, 3, (2, 3, 3), 4, 2), 4, 3),
             (_rank_one_sum(ds, 2, (3, 4, 4), 5, 1), 5, 5)]
    for tensor, r_max, rank in cases:
        tracer = _tracer(ds).install()
        try:
            found, _ = ds.tensor.tensor_rank(tensor, r_max)
        finally:
            tracer.uninstall()
        steps = tracer.hot_counts()["tensor.steps"]
        assert found == rank and steps > 0
        assert ds.tensor.tensor_rank(tensor, r_max, step_cap=steps) is not None
        with pytest.raises(ds.errors.BudgetExceeded):
            ds.tensor.tensor_rank(tensor, r_max, step_cap=steps - 1)


def test_traced_sampled_scans_count_every_draw(ds):
    # The tracer counts draws by wrapping `families.sample_with_rng`, so the
    # sampled loop has to call it through that module name, once per draw.
    fam = ds.families.symmetrize(
        ds.families.matching_maps(ds.families.shift_matchings(6), ds.gfp.FieldSpec(3)))
    samples = 30
    tracer = _tracer(ds).install()
    try:
        held = ds.families.verify_spreading(
            fam, ds.families.SpreadingParams(2, 2), samples=samples, seed=3)
        drawn = tracer.counts["families.sampled.samples"]
        ds.families.measure_expansion(fam, samples=samples, seed=3)
    finally:
        tracer.uninstall()
    assert held.verified  # the family holds the identity, so no draw stops the scan
    assert drawn == samples * 1
    assert tracer.counts["families.sampled.samples"] == samples * (1 + fam.n // 2)
