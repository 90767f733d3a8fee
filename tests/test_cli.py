"""End-to-end CLI behavior: reports, files, exit codes."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dimspread
import dimspread.cli as cli_module
from dimspread.cli import RunConfig, main
from dimspread.errors import BudgetExceeded, format_need
from dimspread.families import (
    MapFamily,
    dyadic_matchings,
    matching_maps,
    shift_matchings,
    symmetrize,
    words,
)
from dimspread.formats import (
    parse_decomposition,
    parse_map_family,
    parse_tensor,
    serialize_map_family,
    serialize_tensor,
)
from dimspread.gfp import GF2, FieldSpec, Matrix
from dimspread.tensor import Tensor3, eval_decomposition, slice_tensor

F3 = FieldSpec(3)
I2 = Matrix.identity(GF2, 2)
N2 = Matrix.from_rows(GF2, [[0, 1], [0, 0]])
NT2 = N2.transpose()
I3 = Matrix.identity(GF2, 3)
C3 = Matrix.from_rows(GF2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

SYM2 = MapFamily(GF2, 2, (I2, N2, NT2))


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


def family_file(tmp_path, fam, name="fam.maps"):
    path = tmp_path / name
    path.write_text(serialize_map_family(fam), encoding="ascii")
    return str(path)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(threads=0)
    with pytest.raises(ValueError):
        RunConfig(word_cap=0)
    with pytest.raises(ValueError):
        RunConfig(samples=5)  # no seed
    with pytest.raises(ValueError):
        RunConfig(samples=0, seed=1)
    assert RunConfig(samples=5, seed=1).seed == 1


def test_build_maps_shifts_frozen(run):
    code, out, err = run("build-maps", "--kind", "shifts", "--n", "4")
    assert code == 0 and err == ""
    assert out == (
        "mapfamily 1\n"
        "field 2\n"
        "n 4\n"
        "count 3\n"
        "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        "0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"
        "0 1 0 0\n0 0 1 0\n0 0 0 1\n0 0 0 0\n"
    )


def test_build_maps_dyadic(run):
    code, out, _ = run("build-maps", "--kind", "dyadic", "--n", "3")
    assert code == 0
    fam = parse_map_family(out)
    assert len(fam.maps) == 3
    assert fam.maps[0] == I3
    assert fam.maps[1].row_lists() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert fam.maps[2].row_lists() == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]


def test_build_maps_random_deterministic(run):
    first = run("build-maps", "--kind", "random", "--n", "3", "--seed", "9",
                "--count", "2", "--field", "3")
    second = run("build-maps", "--kind", "random", "--n", "3", "--seed", "9",
                 "--count", "2", "--field", "3")
    assert first == second
    assert first[0] == 0
    fam = parse_map_family(first[1])
    assert fam.field.modulus == 3 and fam.n == 3 and len(fam.maps) == 2


def test_build_maps_usage_errors(run):
    code, _, err = run("build-maps", "--kind", "shifts")
    assert code == 2 and "error:" in err and "--n" in err
    code, _, err = run("build-maps", "--kind", "random", "--n", "3")
    assert code == 2 and "--seed" in err
    code, _, err = run("build-maps", "--kind", "matchings-file")
    assert code == 2 and "--input" in err
    code, _, err = run("build-maps", "--kind", "random", "--n", "0", "--count", "100000000",
                       "--seed", "1")
    assert code == 2 and "--n must be at least 1" in err


@pytest.mark.parametrize("argv, size", [
    (("--kind", "shifts", "--n", "50000"), "7500000000 entries"),
    (("--kind", "dyadic", "--n", "2000"), "48000000 entries"),
    (("--kind", "random", "--n", "3", "--count", "100000000", "--seed", "1"),
     "900000000 entries"),
    (("--kind", "matchings-file", "--input", "big.matchings"), "7500000000 entries"),
])
def test_build_maps_rejects_oversized_families_before_building(run, tmp_path, argv, size):
    # Building these would run out of memory or take minutes; the size is
    # known from the arguments or the matchings header, so the command must
    # refuse at once.
    src = tmp_path / "big.matchings"
    src.write_text("matchings 1\nn 50000\nmatching 1:2\nmatching 2:1\nmatching 3:3\n",
                   encoding="ascii")
    argv = [str(src) if a == "big.matchings" else a for a in argv]

    def hung(signum, frame):
        raise TimeoutError("build-maps built an oversized family")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        t0 = time.perf_counter()
        code, out, err = run("build-maps", *argv)
        elapsed = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and size in err
    assert elapsed < 1.0


def test_build_maps_matchings_file(run, tmp_path):
    src = tmp_path / "m.matchings"
    src.write_text("matchings 1\nn 2\nmatching 1:1 2:2\nmatching 1:2\n",
                   encoding="ascii")
    code, out, _ = run("build-maps", "--kind", "matchings-file", "--input", str(src))
    assert code == 0
    fam = parse_map_family(out)
    assert fam.maps[0] == I2
    assert fam.maps[1] == NT2  # e1 -> e2


def test_build_maps_from_file_and_out(run, tmp_path):
    src = family_file(tmp_path, SYM2)
    dst = tmp_path / "copy.maps"
    code, out, _ = run("build-maps", "--kind", "from-file", "--input", src,
                       "--out", str(dst))
    assert code == 0 and out == ""
    assert parse_map_family(dst.read_text(encoding="ascii")) == SYM2


def test_build_maps_file_kinds_check_field_and_n(run, tmp_path):
    # A file kind takes n (and, for from-file, the field) from its input; a
    # --field or --n that differs is refused with both values, a matching one
    # is accepted.
    src = family_file(tmp_path, SYM2)
    plain = run("build-maps", "--kind", "from-file", "--input", src)
    assert plain[0] == 0
    assert run("build-maps", "--kind", "from-file", "--input", src,
               "--field", "2", "--n", "2") == plain
    code, out, err = run("build-maps", "--kind", "from-file", "--input", src, "--field", "5")
    assert (code, out) == (2, "")
    assert err == "error: --field 5 differs from the input file's field 2\n"
    code, out, err = run("build-maps", "--kind", "from-file", "--input", src, "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: --n 3 differs from the input file's n 2\n"

    matchings = tmp_path / "m.matchings"
    matchings.write_text("matchings 1\nn 2\nmatching 1:1 2:2\nmatching 1:2\n",
                         encoding="ascii")
    argv = ("build-maps", "--kind", "matchings-file", "--input", str(matchings))
    code, out, _ = run(*argv, "--n", "2", "--field", "3")
    assert code == 0
    assert parse_map_family(out) == MapFamily(
        FieldSpec(3), 2, (Matrix.identity(FieldSpec(3), 2), Matrix.from_rows(
            FieldSpec(3), [[0, 0], [1, 0]])))
    code, out, err = run(*argv, "--n", "4")
    assert (code, out) == (2, "")
    assert err == "error: --n 4 differs from the input file's n 2\n"


def test_missing_input_file(run, tmp_path):
    code, _, err = run("symmetrize", str(tmp_path / "absent.maps"))
    assert code == 2 and "error:" in err


def test_maps_file_with_a_non_decimal_token_exits_2(run, tmp_path):
    bad = tmp_path / "bad.maps"
    bad.write_text("mapfamily 1\nfield 2\nn 1_0\ncount 1\n1\n", encoding="ascii")
    code, out, err = run("measure", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: line 3: n must be an integer, got '1_0'\n"


def test_symmetrize_command(run, tmp_path):
    src = family_file(tmp_path, MapFamily(GF2, 2, (N2,)))
    code, out, _ = run("symmetrize", src)
    assert code == 0
    assert parse_map_family(out).maps == (N2, NT2, I2)


def test_words_command(run, tmp_path):
    src = family_file(tmp_path, SYM2)
    code, out, _ = run("words", src, "--length", "2")
    assert code == 0
    got = parse_map_family(out)
    assert got == words(SYM2, 2)
    assert len(got.maps) == 6


def test_words_budget_exit(run, tmp_path):
    # The cap bounds the words formed in all: SYM2 has 3 distinct words of
    # length 1 and 6 of every longer length, so length 2 forms 3 + 3 * 3 and
    # length 3 forms 12 + 6 * 3; length 30 forms 516 of 3**30 nominal words.
    src = family_file(tmp_path, SYM2)
    code, out, err = run("words", src, "--length", "2", "--word-cap", "11")
    assert code == 3 and out == ""
    assert "budget exceeded in word expansion: needs 12, cap 11" in err
    assert run("words", src, "--length", "2", "--word-cap", "12")[0] == 0
    code, out, err = run("words", src, "--length", "3", "--word-cap", "29")
    assert code == 3 and "needs 30, cap 29" in err
    code, out, err = run("words", src, "--length", "1", "--word-cap", "2")
    assert code == 3 and "needs 3, cap 2" in err
    code, out, _ = run("words", src, "--length", "30")
    assert code == 0 and len(parse_map_family(out).maps) == 6


def test_words_budget_exit_is_immediate_for_long_words(run, tmp_path):
    # Every level keeps at least one word, so length t forms at least t * D:
    # 10**9 levels of 18 products each must be refused before any is built.
    src = family_file(tmp_path, SYM2)

    def hung(signum, frame):
        raise TimeoutError("words did not stop at its budget")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        code, out, err = run("words", src, "--length", str(10**9))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3 and out == ""
    assert f"budget exceeded in word expansion: needs {3 * 10**9}, cap {10**6}" in err


def test_pipeline_shift8_fits_the_word_budget(run, tmp_path):
    # Word length 13 over 3 maps is 3**13 nominal words, above the default
    # cap, but deduplicated levels (at most 197 distinct words) form 2703.
    path = str(tmp_path / "s8.maps")
    assert run("build-maps", "--kind", "shifts", "--n", "8", "--out", path)[0] == 0
    code, out, err = run("pipeline", path, "--epsilon", "1/2")
    assert (code, err) == (0, "")
    for line in ("word_length: 13", "word_count: 197", "certified_bound: 8",
                 "verdict: certified"):
        assert line in out.splitlines()
    code, _, err = run("pipeline", path, "--epsilon", "1/2", "--word-cap", "2702")
    assert code == 3 and "needs 2703, cap 2702" in err


def test_budget_fires_before_a_settled_scan(run, tmp_path):
    # The family holds the identity, so s = t = 4 holds without a scan, but
    # the 11,811 dim-4 subspaces of GF(2)^7 are still budgeted first.
    src = family_file(tmp_path, symmetrize(matching_maps(dyadic_matchings(7), GF2)))
    argv = ("verify-spreading", src, "--s", "4", "--t", "4", "--enumeration-cap")
    assert run(*argv, "11810") == (
        3, "", "budget exceeded in spreading verification: needs 11811, cap 11810\n")
    code, out, err = run(*argv, "11811")
    assert (code, err) == (0, "") and "verdict: holds" in out.splitlines()


@pytest.mark.parametrize("argv, stage, need", [
    (["measure"], "expansion measurement", str(2**300 - 1)),
    (["verify-spreading", "--s", "150", "--t", "150"], "spreading verification",
     "at least 2^22501"),
])
def test_budget_refusal_of_a_large_family_is_one_line(run, tmp_path, argv, stage, need):
    # The 150-dim subspaces of GF(2)^300 number about 2^22501, a need of
    # over 4300 digits, which prints as a power of two; a smaller need
    # prints in decimal.
    src = str(tmp_path / "s300.maps")
    assert run("build-maps", "--kind", "shifts", "--n", "300", "--out", src)[0] == 0
    assert run(argv[0], src, *argv[1:]) == (
        3, "", f"budget exceeded in {stage}: needs {need}, cap 100000000\n")


def test_format_need_is_decimal_up_to_4300_digits():
    assert format_need(10**4300 - 1) == "9" * 4300
    assert format_need(10**4300) == "at least 2^14284"
    assert str(BudgetExceeded("x", 2**20000, 5)) == "x: needs at least 2^20000 > cap 5"


def test_verify_spreading_holds_frozen(run, tmp_path):
    src = family_file(tmp_path, SYM2)
    code, out, err = run("verify-spreading", src, "--s", "1", "--t", "2")
    assert code == 0 and err == ""
    assert out == (
        "report: verify-spreading\n"
        "field: 2\n"
        "n: 2\n"
        "maps: 3\n"
        "s: 1\n"
        "t: 2\n"
        "mode: exhaustive\n"
        "verdict: holds\n"
        "conclusive: yes\n"
    )


def test_verify_spreading_refuted(run, tmp_path):
    src = family_file(tmp_path, MapFamily(GF2, 2, (I2,)))
    code, out, _ = run("verify-spreading", src, "--s", "1", "--t", "2")
    assert code == 1
    assert "verdict: refuted\n" in out
    assert "achieved: 1\n" in out
    assert "counterexample_dim: 1\n" in out
    assert "counterexample: 1 0\n" in out


def test_verify_spreading_sampled(run, tmp_path):
    src = family_file(tmp_path, MapFamily(GF2, 3, (I3, C3)))
    code, out, _ = run("verify-spreading", src, "--s", "1", "--t", "2",
                       "--samples", "60", "--seed", "7")
    assert code == 1
    assert "mode: sampled\n" in out
    assert "samples: 60\n" in out
    assert "seed: 7\n" in out
    assert "confidence: refutation-only\n" in out
    assert "counterexample: 1 1 1\n" in out
    assert "conclusive: yes\n" in out  # refutations are conclusive even sampled

    code, _, err = run("verify-spreading", src, "--s", "1", "--t", "2",
                       "--samples", "60")
    assert code == 2 and "--seed" in err


def test_verify_spreading_sampled_refuted_frozen(run, tmp_path):
    src = family_file(tmp_path, MapFamily(GF2, 3, (I3, C3)))
    code, out, err = run("verify-spreading", src, "--s", "1", "--t", "2",
                         "--samples", "60", "--seed", "7")
    assert code == 1 and err == ""
    assert out == (
        "report: verify-spreading\n"
        "field: 2\n"
        "n: 3\n"
        "maps: 2\n"
        "s: 1\n"
        "t: 2\n"
        "mode: sampled\n"
        "samples: 60\n"
        "seed: 7\n"
        "confidence: refutation-only\n"
        "verdict: refuted\n"
        "conclusive: yes\n"
        "achieved: 1\n"
        "counterexample_dim: 1\n"
        "counterexample: 1 1 1\n"
    )


def test_verify_spreading_sampled_gf5_refuted_frozen(run, tmp_path):
    # Only 6 of the 806 planes of GF(5)^4 have an image sum of 3 under the
    # shifts, so the refutation and its rows pin the values the sampler drew.
    path = str(tmp_path / "sh5.maps")
    assert run("build-maps", "--kind", "shifts", "--field", "5", "--n", "4",
               "--out", path)[0] == 0
    code, out, err = run("verify-spreading", path, "--s", "2", "--t", "4",
                         "--samples", "40", "--seed", "1")
    assert code == 1 and err == ""
    assert out == (
        "report: verify-spreading\n"
        "field: 5\n"
        "n: 4\n"
        "maps: 3\n"
        "s: 2\n"
        "t: 4\n"
        "mode: sampled\n"
        "samples: 40\n"
        "seed: 1\n"
        "confidence: refutation-only\n"
        "verdict: refuted\n"
        "conclusive: yes\n"
        "achieved: 3\n"
        "counterexample_dim: 2\n"
        "counterexample: 1 0 2 3\n"
        "counterexample: 0 1 2 1\n"
    )


def test_verify_spreading_sampled_gf13_refuted_frozen(run, tmp_path):
    # Few 3-spaces of GF(13)^5 have an image sum of 4 under these two random
    # maps; the first one drawn is draw 76, so its three rows pin the values
    # of every attempt up to it.
    path = str(tmp_path / "r13.maps")
    assert run("build-maps", "--kind", "random", "--field", "13", "--n", "5",
               "--count", "2", "--seed", "1", "--out", path)[0] == 0
    code, out, err = run("verify-spreading", path, "--s", "3", "--t", "5",
                         "--samples", "100", "--seed", "1")
    assert code == 1 and err == ""
    assert out == (
        "report: verify-spreading\n"
        "field: 13\n"
        "n: 5\n"
        "maps: 2\n"
        "s: 3\n"
        "t: 5\n"
        "mode: sampled\n"
        "samples: 100\n"
        "seed: 1\n"
        "confidence: refutation-only\n"
        "verdict: refuted\n"
        "conclusive: yes\n"
        "achieved: 4\n"
        "counterexample_dim: 3\n"
        "counterexample: 1 0 0 12 3\n"
        "counterexample: 0 1 0 8 1\n"
        "counterexample: 0 0 1 6 0\n"
    )


def test_verify_spreading_sampled_above_the_floor_refuted_frozen(run, tmp_path):
    # Both maps kill e2, e3 and e4, so every 4-space reaches at least 4 - 3;
    # t = 3 is above that floor and at most s, so the nullities are taken and
    # every draw is still imaged.  A draw refutes when it contains the common
    # kernel (4 of the 121 4-spaces), which pins the values drawn before it.
    fam = MapFamily(F3, 5, (
        Matrix.from_rows(F3, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]] + [[0] * 5] * 3),
        Matrix.from_rows(F3, [[0] * 5, [0] * 5, [1, 2, 0, 0, 0], [0] * 5, [2, 1, 0, 0, 0]]),
    ))
    code, out, err = run("verify-spreading", family_file(tmp_path, fam), "--s", "4",
                         "--t", "3", "--samples", "40", "--seed", "2")
    assert code == 1 and err == ""
    assert out == (
        "report: verify-spreading\n"
        "field: 3\n"
        "n: 5\n"
        "maps: 2\n"
        "s: 4\n"
        "t: 3\n"
        "mode: sampled\n"
        "samples: 40\n"
        "seed: 2\n"
        "confidence: refutation-only\n"
        "verdict: refuted\n"
        "conclusive: yes\n"
        "achieved: 2\n"
        "counterexample_dim: 4\n"
        "counterexample: 1 0 0 0 0\n"
        "counterexample: 0 0 1 0 0\n"
        "counterexample: 0 0 0 1 0\n"
        "counterexample: 0 0 0 0 1\n"
    )


def test_verify_spreading_budget(run, tmp_path):
    src = family_file(tmp_path, MapFamily(GF2, 3, (I3,)))
    code, _, err = run("verify-spreading", src, "--s", "1", "--t", "1",
                       "--enumeration-cap", "5")
    assert code == 3
    assert "budget exceeded in spreading verification: needs 7, cap 5" in err


def test_verify_expander_command(run, tmp_path):
    src = family_file(tmp_path, SYM2)
    code, out, _ = run("verify-expander", src, "--tau", "1")
    assert code == 0 and "verdict: holds\n" in out and "tau: 1\n" in out
    code, out, _ = run("verify-expander", src, "--tau", "3/2")
    assert code == 1 and "verdict: refuted\n" in out
    code, _, err = run("verify-expander", src, "--tau", "0")
    assert code == 2 and "tau" in err
    with pytest.raises(SystemExit) as exc:
        main(["verify-expander", src, "--tau", "abc"])
    assert exc.value.code == 2


def test_verify_expander_holds_frozen(run, tmp_path):
    src = family_file(tmp_path, SYM2)
    code, out, err = run("verify-expander", src, "--tau", "1")
    assert code == 0 and err == ""
    assert out == (
        "report: verify-expander\n"
        "field: 2\n"
        "n: 2\n"
        "maps: 3\n"
        "tau: 1\n"
        "mode: exhaustive\n"
        "verdict: holds\n"
        "conclusive: yes\n"
    )


def test_verify_expander_refuted_frozen(run, tmp_path):
    src = family_file(tmp_path, SYM2)
    code, out, err = run("verify-expander", src, "--tau", "3/2")
    assert code == 1 and err == ""
    assert out == (
        "report: verify-expander\n"
        "field: 2\n"
        "n: 2\n"
        "maps: 3\n"
        "tau: 3/2\n"
        "mode: exhaustive\n"
        "verdict: refuted\n"
        "conclusive: yes\n"
        "achieved: 2\n"
        "counterexample_dim: 1\n"
        "counterexample: 1 0\n"
    )


def test_measure_frozen(run, tmp_path):
    build = run("build-maps", "--kind", "shifts", "--n", "4",
                "--out", str(tmp_path / "s4.maps"))
    assert build[0] == 0
    code, out, err = run("measure", str(tmp_path / "s4.maps"))
    assert code == 0 and err == ""
    assert out == (
        "report: measure\n"
        "field: 2\n"
        "n: 4\n"
        "maps: 3\n"
        "mode: exhaustive\n"
        "tau_star: 1/2\n"
        "dim_1_min_image_sum: 2\n"
        "dim_2_min_image_sum: 3\n"
        "witness_dim: 2\n"
        "witness: 1 0 0 0\n"
        "witness: 0 1 0 0\n"
        "conclusive: yes\n"
    )


def test_measure_sampled_gf3_frozen(run, tmp_path):
    # The witness is the first draw of least expansion, so its row pins the
    # values drawn up to it.
    path = str(tmp_path / "sh3.maps")
    assert run("build-maps", "--kind", "shifts", "--field", "3", "--n", "5",
               "--out", path)[0] == 0
    code, out, err = run("measure", path, "--samples", "30", "--seed", "1")
    assert code == 0 and err == ""
    assert out == (
        "report: measure\n"
        "field: 3\n"
        "n: 5\n"
        "maps: 3\n"
        "mode: sampled\n"
        "samples: 30\n"
        "seed: 1\n"
        "confidence: refutation-only\n"
        "tau_star: 1\n"
        "dim_1_min_image_sum: 2\n"
        "dim_2_min_image_sum: 4\n"
        "witness_dim: 1\n"
        "witness: 1 0 2 0 1\n"
        "conclusive: no\n"
    )


def test_measure_sampled_gf2_n10_frozen(run, tmp_path):
    # The sampled benchmark's GF(2) n=10 shape: 40 draws in each of the
    # dimensions 1 to 5.  The witness is a 5-space, the first draw of least
    # expansion, so its five rows pin the values drawn up to it.
    path = str(tmp_path / "r2.maps")
    assert run("build-maps", "--kind", "random", "--field", "2", "--n", "10",
               "--seed", "1", "--out", path)[0] == 0
    code, out, err = run("measure", path, "--samples", "40", "--seed", "1")
    assert code == 0 and err == ""
    assert out == (
        "report: measure\n"
        "field: 2\n"
        "n: 10\n"
        "maps: 3\n"
        "mode: sampled\n"
        "samples: 40\n"
        "seed: 1\n"
        "confidence: refutation-only\n"
        "tau_star: 4/5\n"
        "dim_1_min_image_sum: 2\n"
        "dim_2_min_image_sum: 5\n"
        "dim_3_min_image_sum: 7\n"
        "dim_4_min_image_sum: 9\n"
        "dim_5_min_image_sum: 9\n"
        "witness_dim: 5\n"
        "witness: 1 1 0 0 0 0 1 0 1 1\n"
        "witness: 0 0 1 0 0 0 1 0 0 1\n"
        "witness: 0 0 0 1 0 0 1 1 0 0\n"
        "witness: 0 0 0 0 1 0 0 1 0 1\n"
        "witness: 0 0 0 0 0 1 0 1 0 1\n"
        "conclusive: no\n"
    )


def test_parser_reuse_carries_no_options_between_calls(run, tmp_path):
    # main keeps one parser per process; one call's option values must not
    # reach the next call, not even from a call that failed to parse.
    src = family_file(tmp_path, SYM2)
    exhaustive = run("measure", src)
    assert exhaustive[0] == 0 and "mode: exhaustive\n" in exhaustive[1]
    with pytest.raises(SystemExit) as exc:
        main(["measure", src, "--samples", "5", "--seed", "3", "--bogus"])
    assert exc.value.code == 2
    sampled = run("measure", src, "--samples", "5", "--seed", "3")
    assert sampled[0] == 0 and "mode: sampled\n" in sampled[1]
    assert run("measure", src) == exhaustive


def test_build_tensor_command(run, tmp_path):
    src = family_file(tmp_path, SYM2)
    code, out, _ = run("build-tensor", src)
    assert code == 0
    t = parse_tensor(out)
    assert t.dims == (3, 2, 2)
    assert t.slices() == SYM2.maps


def test_tensor_rank_command(run, tmp_path):
    t = slice_tensor([I2, N2, NT2])
    src = tmp_path / "t.t3"
    src.write_text(serialize_tensor(t), encoding="ascii")
    dec_path = tmp_path / "t.dec"
    code, out, _ = run("tensor-rank", str(src), "--r-max", "4",
                       "--dec-out", str(dec_path))
    assert code == 0
    assert "verdict: determined\n" in out
    assert "rank: 3\n" in out and "terms: 3\n" in out
    dec = parse_decomposition(dec_path.read_text(encoding="ascii"))
    assert eval_decomposition(dec) == t

    code, out, _ = run("tensor-rank", str(src), "--r-max", "2")
    assert code == 1
    assert "verdict: above_max\n" in out and "certified_above: 2\n" in out


def test_tensor_rank_witness_frozen(run, tmp_path):
    src = tmp_path / "i.t3"
    src.write_text(serialize_tensor(slice_tensor([I2])), encoding="ascii")
    dec_path = tmp_path / "i.dec"
    code, _, _ = run("tensor-rank", str(src), "--r-max", "4",
                     "--dec-out", str(dec_path))
    assert code == 0
    assert dec_path.read_text(encoding="ascii") == (
        "decomp 1\n"
        "field 2\n"
        "dims 1 2 2\n"
        "terms 2\n"
        "1\n0 1\n0 1\n"
        "1\n1 0\n1 0\n"
    )


def test_failed_dec_out_prints_no_report(run, tmp_path):
    # stdout is written once the subcommand has finished, so a run that
    # fails while writing its decomposition prints no report
    src = tmp_path / "i.t3"
    src.write_text(serialize_tensor(slice_tensor([I2])), encoding="ascii")
    code, out, err = run("tensor-rank", str(src), "--r-max", "4",
                         "--dec-out", str(tmp_path / "absent" / "i.dec"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "i.dec" in err


def test_tensor_rank_pool_budget(run, tmp_path):
    src = tmp_path / "big.t3"
    src.write_text(
        serialize_tensor(slice_tensor([Matrix.identity(GF2, 5)])), encoding="ascii"
    )
    code, _, err = run("tensor-rank", str(src), "--r-max", "3", "--pool-cap", "100")
    assert code == 3
    assert "budget exceeded in rank-one candidate pool" in err


def test_tensor_rank_pool_budget_fires_before_the_pool_is_built(run, tmp_path):
    # Over GF(65521) a 1x2x2 tensor has 65522**2 candidate classes; building
    # their representatives first would walk 65521**2 vectors per mode.
    src = tmp_path / "wide.t3"
    src.write_text(
        serialize_tensor(slice_tensor([Matrix.identity(FieldSpec(65521), 2)])),
        encoding="ascii",
    )

    def hung(signum, frame):
        raise TimeoutError("tensor-rank did not stop at its pool budget")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        t0 = time.perf_counter()
        code, _, err = run("tensor-rank", str(src), "--r-max", "3")
        elapsed = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3
    assert "budget exceeded in rank-one candidate pool" in err
    assert elapsed < 1.0


def test_tensor_rank_step_budget_exit(run, tmp_path):
    src = tmp_path / "i2.t3"
    src.write_text(serialize_tensor(slice_tensor([I2])), encoding="ascii")

    def hung(signum, frame):
        raise TimeoutError("tensor-rank did not stop at its step budget")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        code, out, err = run("tensor-rank", str(src), "--r-max", "4", "--step-cap", "1")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3 and out == ""
    assert err == "budget exceeded in rank search: needs 2, cap 1\n"


def test_certify_command(run, tmp_path):
    src = family_file(tmp_path, SYM2)
    code, out, _ = run("certify", src, "--s", "1", "--t", "2")
    assert code == 0
    assert "verdict: certified\n" in out
    assert "bound: 3\n" in out
    assert "conclusive: yes\n" in out

    bad = family_file(tmp_path, MapFamily(GF2, 3, (I3, C3)), "cyc.maps")
    code, out, _ = run("certify", bad, "--s", "1", "--t", "2")
    assert code == 1
    assert "verdict: not-spreading\n" in out
    assert "achieved: 1\n" in out
    assert "counterexample: 1 1 1\n" in out

    code, _, err = run("certify", src, "--s", "1", "--t", "0")
    assert code == 2 and "t >= 1" in err


def test_certify_not_spreading_frozen(run, tmp_path):
    src = family_file(tmp_path, MapFamily(GF2, 3, (I3, C3)))
    code, out, err = run("certify", src, "--s", "1", "--t", "2")
    assert code == 1 and err == ""
    assert out == (
        "report: certify\n"
        "field: 2\n"
        "n: 3\n"
        "maps: 2\n"
        "s: 1\n"
        "t: 2\n"
        "mode: exhaustive\n"
        "verdict: not-spreading\n"
        "achieved: 1\n"
        "counterexample_dim: 1\n"
        "counterexample: 1 1 1\n"
    )


def test_refute_frozen(run, tmp_path):
    src = family_file(tmp_path, MapFamily(GF2, 2, (I2,)))
    dec_path = tmp_path / "diag.dec"
    dec_path.write_text(
        "decomp 1\nfield 2\ndims 1 2 2\nterms 2\n"
        "1\n1 0\n1 0\n"  # e1 e1^T
        "1\n0 1\n0 1\n",  # e2 e2^T
        encoding="ascii",
    )
    code, out, err = run("refute", src, "--s", "1", "--t", "2",
                         "--dec", str(dec_path))
    assert code == 1 and err == ""
    assert out == (
        "report: refute\n"
        "field: 2\n"
        "n: 2\n"
        "maps: 1\n"
        "s: 1\n"
        "t: 2\n"
        "terms: 2\n"
        "verdict: refuted\n"
        "s_indices: 1\n"
        "kernel_dim: 1\n"
        "kernel: 0 1\n"
        "image_span_dim: 1\n"
        "image_span: 0 1\n"
        "violating_dim: 1\n"
        "violating: 0 1\n"
        "achieved: 1\n"
    )


def test_refute_rejects_too_many_terms(run, tmp_path):
    src = family_file(tmp_path, MapFamily(GF2, 2, (I2,)))
    dec_path = tmp_path / "diag.dec"
    dec_path.write_text(
        "decomp 1\nfield 2\ndims 1 2 2\nterms 2\n"
        "1\n1 0\n1 0\n1\n0 1\n0 1\n",
        encoding="ascii",
    )
    code, _, err = run("refute", src, "--s", "2", "--t", "2", "--dec", str(dec_path))
    assert code == 2 and "cannot refute" in err


def test_pipeline_certified_frozen(run, tmp_path):
    path = str(tmp_path / "s4.maps")
    assert run("build-maps", "--kind", "shifts", "--n", "4", "--out", path)[0] == 0
    code, out, err = run("pipeline", path, "--epsilon", "1/2")
    assert code == 0 and err == ""
    assert out == (
        "report: pipeline\n"
        "field: 2\n"
        "n: 4\n"
        "maps_in: 3\n"
        "maps_symmetrized: 3\n"
        "epsilon: 1/2\n"
        "mode: exhaustive\n"
        "tau_star: 1/2\n"
        "word_length: 7\n"
        "word_count: 31\n"
        "s: 2\n"
        "t: 2\n"
        "spreading: holds\n"
        "certified_bound: 4\n"
        "rank_check: confirmed\n"
        "verdict: certified\n"
        "conclusive: yes\n"
    )


def shifts4_file(run, tmp_path):
    path = str(tmp_path / "s4.maps")
    assert run("build-maps", "--kind", "shifts", "--n", "4", "--out", path)[0] == 0
    return path


# the report lines of the shift n=4 pipeline up to its rank check
PIPELINE_S4_HEAD = (
    "report: pipeline\n"
    "field: 2\n"
    "n: 4\n"
    "maps_in: 3\n"
    "maps_symmetrized: 3\n"
    "epsilon: 1/2\n"
    "mode: exhaustive\n"
    "tau_star: 1/2\n"
    "word_length: 7\n"
    "word_count: 31\n"
    "s: 2\n"
    "t: 2\n"
    "spreading: holds\n"
    "certified_bound: 4\n"
)


def test_pipeline_rank_check_over_budget_is_skipped(run, tmp_path, monkeypatch):
    # At every n the rank check admits (n <= 4 over GF(2)), the word
    # family's slices span more than r_max, so the search answers before a
    # step budget can stop it; here it is replaced by one that runs out.
    def over_budget(tensor, r_max, **caps):
        raise BudgetExceeded("rank search", caps["step_cap"] + 1, caps["step_cap"])

    monkeypatch.setattr(cli_module, "tensor_rank", over_budget)
    path = shifts4_file(run, tmp_path)
    code, out, err = run("pipeline", path, "--epsilon", "1/2")
    assert (code, err) == (0, "")
    assert out == PIPELINE_S4_HEAD + (
        "rank_check: skipped\n"
        "verdict: certified\n"
        "conclusive: yes\n"
    )


def test_pipeline_rank_below_the_bound_is_a_discrepancy(run, tmp_path, monkeypatch):
    # A rank search that finds fewer terms than the certified bound means one
    # of the two is wrong; the pipeline says so and exits 1.
    calls = []

    def too_low(tensor, r_max, **caps):
        calls.append(r_max)
        return 3, ()

    monkeypatch.setattr(cli_module, "tensor_rank", too_low)
    path = shifts4_file(run, tmp_path)
    code, out, err = run("pipeline", path, "--epsilon", "1/2")
    assert (code, err, calls) == (1, "", [3])
    assert out == PIPELINE_S4_HEAD + (
        "rank_check: VIOLATION rank 3 < bound 4\n"
        "verdict: discrepancy\n"
    )


def test_pipeline_nilpotent_example(run, tmp_path):
    # {N} symmetrizes to {N, N^T, I} with best expansion 1, so the word
    # length for epsilon = 1/2 is 4 and the certified bound is n + t - s = 2.
    src = family_file(tmp_path, MapFamily(GF2, 2, (N2,)))
    code, out, _ = run("pipeline", src, "--epsilon", "1/2")
    assert code == 0
    assert "maps_symmetrized: 3\n" in out
    assert "tau_star: 1\n" in out
    assert "word_length: 4\n" in out
    assert "s: 1\n" in out and "t: 1\n" in out
    assert "certified_bound: 2\n" in out
    assert "rank_check: confirmed\n" in out
    assert "verdict: certified\n" in out


def test_pipeline_expansion_refuted(run, tmp_path):
    src = family_file(tmp_path, MapFamily(GF2, 2, (I2,)))
    code, out, _ = run("pipeline", src, "--epsilon", "1/2")
    assert code == 1
    assert "tau_star: 0\n" in out
    assert "stage: expansion\n" in out
    assert "verdict: refuted\n" in out
    assert "witness: 1 0\n" in out


def test_pipeline_spreading_refuted_frozen(run, tmp_path):
    # One map on GF(2)^5 whose only nonzero row is row 4 = (0 1 0 0 1).  Two
    # draws per dimension put tau_star at 1/2, above the exhaustive 0, so the
    # run takes words and the spreading stage refutes them.
    rows = [[0] * 5 for _ in range(5)]
    rows[3] = [0, 1, 0, 0, 1]
    src = family_file(tmp_path, MapFamily(GF2, 5, (Matrix.from_rows(GF2, rows),)))
    code, out, err = run("pipeline", src, "--epsilon", "1/3",
                         "--samples", "2", "--seed", "14")
    assert code == 1 and err == ""
    assert out == (
        "report: pipeline\n"
        "field: 2\n"
        "n: 5\n"
        "maps_in: 1\n"
        "maps_symmetrized: 3\n"
        "epsilon: 1/3\n"
        "mode: sampled\n"
        "samples: 2\n"
        "seed: 14\n"
        "confidence: refutation-only\n"
        "tau_star: 1/2\n"
        "word_length: 10\n"
        "word_count: 5\n"
        "s: 2\n"
        "t: 4\n"
        "spreading: refuted\n"
        "stage: spreading\n"
        "verdict: refuted\n"
        "achieved: 3\n"
        "counterexample_dim: 2\n"
        "counterexample: 1 0 1 0 1\n"
        "counterexample: 0 1 0 0 1\n"
    )


def test_pipeline_epsilon_validation(run, tmp_path):
    src = family_file(tmp_path, SYM2)
    code, _, err = run("pipeline", src, "--epsilon", "2")
    assert code == 2 and "epsilon" in err
    code, _, err = run("pipeline", src, "--epsilon", "0")
    assert code == 2 and "epsilon" in err


def test_pipeline_reports_a_bad_maps_file_before_a_bad_epsilon(run, tmp_path):
    # the maps argument is parsed before the subcommand runs, so with both
    # inputs bad the error names the maps file
    bad = tmp_path / "bad.maps"
    bad.write_text("hello\n", encoding="ascii")
    code, out, err = run("pipeline", str(bad), "--epsilon", "2")
    assert (code, out) == (2, "")
    assert err == "error: line 1: expected 'mapfamily' header, got 'hello'\n"
    code, out, err = run("pipeline", str(tmp_path / "absent.maps"), "--epsilon", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "absent.maps" in err and "epsilon" not in err


def test_thread_count_is_invisible(run, tmp_path):
    # identical bytes, including the refuted case (first-counterexample merge)
    ident4 = family_file(tmp_path, MapFamily(GF2, 4, (Matrix.identity(GF2, 4),)))
    shifts = str(tmp_path / "s4.maps")
    assert run("build-maps", "--kind", "shifts", "--n", "4", "--out", shifts)[0] == 0
    for argv in (
        ["verify-spreading", ident4, "--s", "1", "--t", "2"],
        ["verify-expander", shifts, "--tau", "1/2"],
        ["measure", shifts],
        ["pipeline", shifts, "--epsilon", "1/2"],
    ):
        single = run(*argv, "--threads", "1")
        multi = run(*argv, "--threads", "8")
        assert single == multi


@pytest.mark.parametrize("argv, stage", [
    (["measure"], "expansion measurement"),
    (["verify-expander", "--tau", "1/2"], "expander verification"),
    (["certify", "--s", "2", "--t", "3"], "spreading verification"),
    (["pipeline", "--epsilon", "1/2"], "expansion measurement"),
    (["verify-spreading", "--s", "3", "--t", "3", "--samples", "99999999999", "--seed", "1"],
     "spreading verification"),
])
def test_scan_budgets_fire_before_the_scan(run, tmp_path, argv, stage):
    # GF(65521)^6 has ~10**43 subspaces of dimension 3; every exhaustive scan
    # budget must refuse it from the Gaussian binomial alone, and a sampled
    # scan from its number of draws.
    src = str(tmp_path / "wide.maps")
    assert run("build-maps", "--kind", "random", "--n", "6", "--field", "65521",
               "--seed", "1", "--out", src)[0] == 0

    def hung(signum, frame):
        raise TimeoutError(f"{argv[0]} did not stop at its enumeration budget")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        t0 = time.perf_counter()
        code, out, err = run(argv[0], src, *argv[1:])
        elapsed = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3
    assert out == ""
    assert f"budget exceeded in {stage}" in err
    assert elapsed < 1.0


def test_reports_do_not_depend_on_the_hash_seed(run, tmp_path):
    # Reports are byte-for-byte deterministic: each run gives the same exit
    # code, stdout, stderr and written file in a fresh interpreter under
    # either hash seed.
    src = str(tmp_path / "s5.maps")
    assert run("build-maps", "--kind", "shifts", "--n", "5", "--out", src)[0] == 0
    tensor, dec = tmp_path / "w.t3", tmp_path / "w.dec"
    tensor.write_text(serialize_tensor(Tensor3(GF2, 2, 2, 2, (0, 1, 1, 0, 1, 0, 0, 0))),
                      encoding="ascii")
    corpus = [
        ["pipeline", src, "--epsilon", "1/2"],
        ["measure", src, "--samples", "20", "--seed", "3"],
        ["verify-spreading", src, "--s", "2", "--t", "4"],  # refuted
        ["tensor-rank", str(tensor), "--r-max", "3", "--dec-out", str(dec)],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(dimspread.__file__).parent.parent))

    def outputs(seed):
        runs = [subprocess.run([sys.executable, "-m", "dimspread", *argv],
                               env=dict(env, PYTHONHASHSEED=seed),
                               capture_output=True, text=True, encoding="utf-8",
                               timeout=120)
                for argv in corpus]
        return ([(done.returncode, done.stdout, done.stderr) for done in runs],
                dec.read_text(encoding="ascii"))

    first = outputs("0")
    assert [code for code, *_ in first[0]] == [0, 0, 1, 0]
    assert outputs("12345") == first


def test_module_entry_point_sets_the_exit_code(tmp_path):
    # `python -m dimspread` runs `cli.entry`, which exits with main's code:
    # 0 with the report on stdout, 2 with the error on stderr.
    env = dict(os.environ, PYTHONPATH=str(Path(dimspread.__file__).parent.parent))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "dimspread", *argv], env=env,
                              capture_output=True, text=True, encoding="utf-8",
                              timeout=120)

    done = module("build-maps", "--kind", "shifts", "--n", "3")
    assert (done.returncode, done.stderr) == (0, "")
    assert parse_map_family(done.stdout) == matching_maps(shift_matchings(3), GF2)
    done = module("verify-spreading", str(tmp_path / "missing.maps"), "--s", "1", "--t", "2")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error:")
