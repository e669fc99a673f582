"""CLI: subcommands, exit codes, config precedence, deterministic reports."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import thetamoments
from thetamoments import cli, lfunc, theta
from thetamoments.characters import build_group
from thetamoments.bounds import MAX_COS_A, ShiftTuple, cos_sum_check, shifted_moment_bound
from thetamoments.cli import WORKERS_ENV, load_config, run
from thetamoments.errors import DomainError
from thetamoments.reports import ReportEnvelope, csv_text, make_envelope


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "subcommand" in out or "usage" in out


def test_unknown_subcommand_and_flag(capsys, tmp_path):
    code, _, _ = invoke(capsys, "no-such-thing")
    assert code == 2
    code, _, _ = invoke(capsys, "theta-moment", "--q", "5", "--k", "1",
                        "--parity", "even", "--badflag", "--out", str(tmp_path))
    assert code == 2


def test_domain_error_exits_two(capsys, tmp_path):
    code, _, err = invoke(capsys, "theta-moment", "--q", "0", "--k", "1",
                          "--parity", "even", "--out", str(tmp_path))
    assert code == 2
    assert "q must be >= 3; got 0" in err


@pytest.mark.parametrize("argv", [("l-moment", "--q", "2", "--k", "1"),
                                  ("theta-moment", "--q", "2", "--k", "1", "--parity", "odd")])
def test_small_modulus_refusal_names_q(capsys, tmp_path, argv):
    """A modulus below 3 is refused in the name of q and the value given,
    not of the library function that checks it."""
    code, _, err = invoke(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert "q must be >= 3; got 2" in err
    assert "requires" not in err


def test_bound_eval_names_constraint(capsys, tmp_path):
    code, _, err = invoke(capsys, "bound-eval", "--q", "15", "--shifts", "0,0.3",
                          "--out", str(tmp_path))
    assert code == 2
    assert "q must be >= 17" in err


def test_bound_eval_k_must_match_the_shifts(capsys, tmp_path):
    """The --k check is bound-eval's own: its handler raises, the CLI exits 2."""
    argv = ["bound-eval", "--q", "101", "--shifts", "0,0.3", "--k", "2"]
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and not out
    assert "--k 2 expects 4 shifts; got 2" in err
    with pytest.raises(DomainError, match="expects 4 shifts"):
        cli._cmd_bound_eval(cli.build_parser().parse_args(argv), cli.RunConfig())


@pytest.mark.parametrize("vsteps", ["-3", "0"])
def test_large_values_vsteps_below_one_is_a_usage_error(capsys, tmp_path, vsteps):
    code, _, err = invoke(capsys, "large-values", "--q", "101", "--shifts", "0,0",
                          "--vmin", "-5", "--vmax", "1", "--vsteps", vsteps,
                          "--out", str(tmp_path))
    assert code == 2
    assert err == f"thetamoments: error: --vsteps must be >= 1; got {vsteps}\n"


def test_large_values_vsteps_above_the_cap_is_refused_before_the_grid(capsys, tmp_path,
                                                                    monkeypatch):
    """--vsteps sizes the V grid, the counts and the CSV, so a value above
    MAX_VSTEPS is refused by its flag before np.linspace allocates."""
    def refuse(*args, **kwargs):
        raise AssertionError("V grid built")

    monkeypatch.setattr(cli.np, "linspace", refuse)
    vsteps = cli.MAX_VSTEPS + 1
    code, out, err = invoke(capsys, "large-values", "--q", "101", "--shifts", "0,0",
                            "--vmin", "-5", "--vmax", "1", "--vsteps", str(vsteps),
                            "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == f"thetamoments: error: --vsteps must be <= {cli.MAX_VSTEPS}; got {vsteps}\n"


def test_large_values_nan_vmin_is_a_usage_error(capsys, tmp_path):
    code, out, err = invoke(capsys, "large-values", "--q", "101", "--shifts", "0,0",
                            "--vmin", "nan", "--vmax", "1", "--vsteps", "3",
                            "--out", str(tmp_path))
    assert code == 2 and not out
    assert "NaN" in err


@pytest.mark.parametrize("flag, value", [("--vmin", "-inf"), ("--vmax", "inf"), ("--vmax", "-inf")])
def test_large_values_infinite_bound_is_named(capsys, tmp_path, recwarn, flag, value):
    """An infinite --vmin/--vmax is refused by its flag before the grid is
    built: exit 2, no NaN grid blamed and no numpy warning."""
    bounds = {"--vmin": "-5", "--vmax": "1", flag: value}
    code, out, err = invoke(capsys, "large-values", "--q", "101", "--shifts", "0,0",
                            "--vmin=" + bounds["--vmin"], "--vmax=" + bounds["--vmax"],
                            "--vsteps", "3", "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == (f"thetamoments: error: {flag} must be finite (not NaN or infinite); "
                   f"got {float(value)}\n")
    assert not recwarn.list


def test_large_values_descending_bounds_are_named(capsys, tmp_path):
    """--vmin above --vmax is refused by both flag names; equal bounds give a
    constant grid."""
    argv = ("large-values", "--q", "101", "--shifts", "0,0", "--vsteps", "5",
            "--out", str(tmp_path))
    code, out, err = invoke(capsys, *argv, "--vmin", "10", "--vmax", "-60")
    assert code == 2 and not out
    assert err == "thetamoments: error: --vmin must be <= --vmax; got 10.0 > -60.0\n"
    code, out, _ = invoke(capsys, *argv, "--vmin", "-1", "--vmax", "-1")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
    assert [r[1] for r in rows] == ["-1.0"] * 5


@pytest.mark.parametrize("flag, value", [("--height", "inf"), ("--height", "nan"),
                                         ("--step", "inf"), ("--step", "-inf"), ("--step", "0")])
def test_mellin_check_window_is_named(capsys, tmp_path, recwarn, flag, value):
    """A non-finite or non-positive --height/--step is refused by its flag
    before any evaluation: exit 2 and no numpy warning."""
    code, out, err = invoke(capsys, "mellin-check", "--q", "13", f"{flag}={value}",
                            "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == f"thetamoments: error: {flag} must be positive and finite; got {float(value)}\n"
    assert not recwarn.list


def test_mellin_check_window_without_interval_is_named(capsys, tmp_path):
    """A --height below half a --step leaves no interval: exit 2, and the
    message names both flags and the values given."""
    code, out, err = invoke(capsys, "mellin-check", "--q", "13", "--height", "0.001",
                            "--step", "1", "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == "thetamoments: error: --height / --step must round to >= 1; got 0.001 / 1.0\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("window, message", [
    (("--height", "1e15", "--step", "1"), "--height must be <= 25; got 1000000000000000.0"),
    (("--height", "25.5"), "--height must be <= 25; got 25.5"),
    (("--height", "8", "--step", "1e-4"),
     "--height / --step must round to <= 65536; got 8.0 / 0.0001"),
    (("--height", "8", "--step", "1e-320"),
     "--height / --step must round to <= 65536; got 8.0 / 1e-320"),
])
def test_mellin_check_window_bounds_are_named(capsys, tmp_path, window, message):
    """A --height above MAX_SHIFT / 2 (L runs at 1/2 + 2it) or a grid of more
    than MAX_MELLIN_STEPS intervals is refused by its flags before anything is
    allocated: exit 2 and no report, where --height 1e15 once ran out of
    memory (exit 1)."""
    assert (theta.MAX_SHIFT / 2, theta.MAX_MELLIN_STEPS) == (25, 65536)
    code, out, err = invoke(capsys, "mellin-check", "--q", "13", *window, "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == f"thetamoments: error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("height, step", [
    (math.inf, 1 / 64), (math.nan, 1 / 64), (8.0, math.inf), (8.0, -math.inf), (8.0, 0.0),
    (0.0, 1 / 64), (8.0, -1.0), (0.001, 1.0), (0.5, 1.0), (1 / 256, 1 / 64),
    (1e15, 1.0), (25.5, 1 / 64), (25.5, 1.0), (1e300, 1e-300), (8.0, 1e-4), (8.0, 1e-320),
    (8.0, 8.0 / 65537), (24.9, 1.2), (20.0, 39.0),  # refused
    (25.0, 1.0), (0.6, 1.0),  # accepted
])
def test_mellin_check_and_mellin_checks_refuse_the_same_windows(capsys, tmp_path, height, step):
    """The CLI and the library state one window rule: a window is refused by
    both, with the same message up to the flags' -- prefix, or by neither.
    The grid end round(height / step) * step counts, not the height asked for:
    (24.9, 1.2) ends at 25.2 and (20, 39) at 39, past MAX_SHIFT / 2 = 25."""
    chars = [c for c in build_group(13) if c.is_even and c.is_primitive and not c.is_trivial]
    try:
        lib = len(theta.mellin_checks(13, chars, height, step))
    except DomainError as e:
        lib = re.sub(r"\b(height|step)\b", r"--\1", str(e))
    code, out, err = invoke(capsys, "mellin-check", "--q", "13", f"--height={height!r}",
                            f"--step={step!r}", "--out", str(tmp_path))
    if (height, step) in ((25.0, 1.0), (0.6, 1.0)):
        assert code == 0 and len(out.splitlines()) == 6 + lib
    else:
        assert (code, out, err) == (2, "", f"thetamoments: error: {lib}\n")


def test_rand_model_negative_seed_is_named(capsys, tmp_path):
    """A negative first seed is refused by its flag: exit 2, no report."""
    code, out, err = invoke(capsys, "rand-model", "--q", "101", "--k", "1",
                            "--samples", "100", "--seed", "-1", "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == "thetamoments: error: --seed must be >= 0; got -1\n"
    assert not list(tmp_path.iterdir())


def test_unreachable_tol_exits_one(capsys, tmp_path):
    code, _, err = invoke(capsys, "l-moment", "--q", "13", "--k", "1",
                          "--tol", "1e-30", "--out", str(tmp_path))
    assert code == 1
    assert "precision" in err


def test_precision_refusal_names_the_requested_tol(capsys, tmp_path):
    # 1e-14 is below what float64 certifies at q = 100003; the per-entry
    # Hurwitz target derived from it is smaller still
    code, _, err = invoke(capsys, "l-moment", "--q", "100003", "--k", "1",
                          "--tol", "1e-14", "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("thetamoments: precision:")
    assert "1e-14" in err and "100003" in err


@pytest.mark.parametrize("argv", [("l-moment", "--q", "30030", "--k", "1"),
                                  ("shifted-moment", "--q", "30030", "--shifts", "0,3")])
def test_empty_family_is_the_exact_empty_sum_at_any_tol(capsys, tmp_path, argv):
    """2 || 30030, so no character is primitive: the star moment is the
    exact empty sum 0, reported at a tol no L-value could meet."""
    code, out, err = invoke(capsys, *argv, "--tol", "1e-16", "--out", str(tmp_path))
    assert code == 0 and not err
    row = dict(zip(*[line.split(",") for line in out.splitlines() if not line.startswith("#")]))
    assert (row["raw"], row["family_size"], row["eps"]) == ("0.0", "0", "1e-16")


def test_nonempty_family_at_30030_still_refuses(capsys, tmp_path):
    """The nonquadratic family mod 30030 is not empty, so its L-values are
    evaluated and an unreachable tol is still refused."""
    code, out, err = invoke(capsys, "large-values", "--q", "30030", "--shifts", "0,0",
                            "--vmin", "-1", "--vmax", "1", "--vsteps", "2",
                            "--tol", "1e-16", "--out", str(tmp_path))
    assert code == 1 and not out
    assert err.startswith("thetamoments: precision:") and "1e-16" in err


@pytest.mark.parametrize("argv", [("l-moment", "--q", "101", "--k", "1", "--format", "json"),
                                  ("shifted-moment", "--q", "101", "--shifts", "0,1"),
                                  ("large-values", "--q", "101", "--shifts", "0,0",
                                   "--vmin", "-1", "--vmax", "1", "--vsteps", "2")])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_tol_is_named(capsys, tmp_path, argv, value):
    """A non-finite --tol is refused by its flag: exit 2 and no report (an
    infinite tol wrote Infinity, which is not JSON, into the envelope)."""
    code, out, err = invoke(capsys, *argv, f"--tol={value}", "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == f"thetamoments: error: --tol must be finite (not NaN or infinite); got {float(value)}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [("theta-moment", "--q", "101", "--k", "1", "--parity", "even"),
                                  ("theta-scan", "--prime-range", "3:11", "--k", "1"),
                                  ("rand-model", "--q", "101", "--k", "1", "--samples", "10"),
                                  ("bound-eval", "--q", "101", "--shifts", "0,1")])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_eps_is_named(capsys, tmp_path, argv, value):
    """A non-finite --eps is refused by its flag: exit 2 and no report (an
    infinite eps truncated the theta series to no terms and reported 0)."""
    code, out, err = invoke(capsys, *argv, f"--eps={value}", "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == f"thetamoments: error: --eps must be finite (not NaN or infinite); got {float(value)}\n"


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_v_is_named(capsys, tmp_path, value):
    """bound-eval's --V is refused by its flag when not finite (an infinite V
    wrote Infinity into the JSON report)."""
    code, out, err = invoke(capsys, "bound-eval", "--q", "101", "--shifts", "0,1",
                            f"--V={value}", "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == f"thetamoments: error: --V must be finite (not NaN or infinite); got {float(value)}\n"


@pytest.mark.parametrize("a, bad", [("inf", "inf"), ("1,nan", "nan"), ("0,-inf,2", "-inf")])
def test_non_finite_a_is_named(capsys, tmp_path, recwarn, a, bad):
    """lemma-cos refuses a non-finite --a by its flag: exit 2, no report and
    no numpy warning (it wrote the row inf,nan,inf,nan)."""
    code, out, err = invoke(capsys, "lemma-cos", "--z", "100", f"--a={a}", "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == f"thetamoments: error: --a must be finite (not NaN or infinite); got {float(bad)}\n"
    assert not recwarn.list and not list(tmp_path.iterdir())


def test_huge_a_is_named(capsys, tmp_path, recwarn):
    """A finite --a past MAX_COS_A is refused by its flag before the sieve:
    exit 2, no report and no numpy warning (--a 1e308 wrote the row
    1e+308,nan,6.56413222822153,nan).  cos_sum_check refuses it too."""
    a = MAX_COS_A + 1
    code, out, err = invoke(capsys, "lemma-cos", "--z", "100", f"--a=0,{a!r}", "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == f"thetamoments: error: --a must satisfy |a| <= 1e+15; got {a!r}\n"
    assert not recwarn.list and not list(tmp_path.iterdir())
    with pytest.raises(DomainError, match="a must satisfy"):
        cos_sum_check(100, -a)


NAN_SHIFTS = [(("shifted-moment", "--q", "101", "--shifts", "0,nan"), "nan"),
              (("large-values", "--q", "101", "--shifts", "nan,0", "--vmin", "-1", "--vmax", "1",
                "--vsteps", "3"), "nan"),
              (("bound-eval", "--q", "101", "--shifts", "0,inf"), "inf")]


@pytest.mark.parametrize("argv, bad", NAN_SHIFTS)
def test_non_finite_shift_is_named(capsys, tmp_path, recwarn, argv, bad):
    """A non-finite shift is refused by --shifts and its value, exit 2, no
    report and no warning (the library's "shifts must be finite" named neither)."""
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and not out and not list(tmp_path.iterdir()) and not recwarn.list
    assert err == f"thetamoments: error: --shifts must be finite (not NaN or infinite); got {bad}\n"


def test_v_span_past_the_float_range_is_named(capsys, tmp_path, recwarn):
    """A V span vmax - vmin that is no finite float is refused by both flags
    before the grid is built (two numpy RuntimeWarnings, then "V grid must be
    one-dimensional, ascending and free of NaN")."""
    code, out, err = invoke(capsys, "large-values", "--q", "101", "--shifts", "0,0.5",
                            "--vmin=-1e308", "--vmax", "1e308", "--vsteps", "3",
                            "--out", str(tmp_path))
    assert code == 2 and not out and not list(tmp_path.iterdir()) and not recwarn.list
    assert err == ("thetamoments: error: --vmin and --vmax must be at most 1.79769e+308 apart; "
                   "got -1e+308 and 1e+308\n")


# one size flag past its cap per request; each is refused by its flag before the
# subcommand's handler runs, so nothing is factorized, sieved, tabled or sampled
SIZE_CAPS = [(("char-table", "--q", str(cli.MAX_TABLE_Q + 1)), "q", cli.MAX_TABLE_Q),
             (("theta-moment", "--q", str(cli.MAX_PHI + 2), "--k", "1", "--parity", "even"),
              "q", cli.MAX_PHI + 1),
             (("l-moment", "--q", str(cli.MAX_PHI + 2), "--k", "1"), "q", cli.MAX_PHI + 1),
             (("bound-eval", "--q", str(cli.MAX_PHI + 2), "--shifts", "0,1"), "q", cli.MAX_PHI + 1),
             (("rand-model", "--q", "101", "--k", "1", "--samples", str(cli.MAX_SAMPLES + 1)),
              "samples", cli.MAX_SAMPLES),
             (("lemma-cos", "--z", str(cli.MAX_COS_Z + 1), "--a", "0"), "z", cli.MAX_COS_Z)]


@pytest.mark.parametrize("argv, flag, cap", SIZE_CAPS)
def test_size_past_its_cap_is_refused_by_flag(capsys, tmp_path, monkeypatch, argv, flag, cap):
    """--q (phi(q) < q, so q <= MAX_PHI + 1; char-table's own MAX_TABLE_Q),
    --samples and --z are refused one past their caps, exit 2 and no report,
    before the handler runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("handler ran")

    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, refuse))
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and not out and not list(tmp_path.iterdir())
    assert err == f"thetamoments: error: --{flag} must be <= {cap}; got {cap + 1}\n"


# one more shift than MAX_SHIFT_COLUMNS holds in columns of q entries, at the q
# where the cap allows 671 shifts and at the top modulus, where it allows 7
SHIFT_COLUMN_CAPS = [(100003, 671), (cli.MAX_PHI + 1, 7)]


@pytest.mark.parametrize("q, cap", SHIFT_COLUMN_CAPS)
@pytest.mark.parametrize("command, extra", [
    ("shifted-moment", ()), ("large-values", ("--vmin", "-1", "--vmax", "1", "--vsteps", "3"))])
def test_shift_count_past_its_column_cap_is_refused_by_flag(capsys, tmp_path, monkeypatch,
                                                            q, cap, command, extra):
    """Each shift is one |L| column of up to q entries; one shift past the cap
    is refused by --shifts, exit 2 and no report, before the handler runs
    (2, 200 and 800 shifts at q = 100003 peaked at 38, 187 and 645 MB)."""
    def refuse(*args, **kwargs):
        raise AssertionError("handler ran")

    assert cap * q <= cli.MAX_SHIFT_COLUMNS < (cap + 1) * q
    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, refuse))
    shifts = ",".join(["0", "0.5"] * (cap // 2 + 1))
    code, out, err = invoke(capsys, command, "--q", str(q), "--shifts", shifts, *extra,
                            "--out", str(tmp_path))
    assert code == 2 and not out and not list(tmp_path.iterdir())
    assert err == (f"thetamoments: error: --shifts must hold at most {cap} shifts at q = {q}; "
                   f"got {cap + 1}\n")


@pytest.mark.parametrize("z, cap", [(10 ** 7, 429), (cli.MAX_COS_Z, 16)])
def test_cos_value_count_past_its_cap_is_refused_by_flag(capsys, tmp_path, monkeypatch, z, cap):
    """Each --a value is one cosine sum over the primes up to z (about 7 ms
    per value at z = 10^7); one value past MAX_COS_TERMS // z is refused by
    --a, exit 2 and no report, before the handler builds the sieve."""
    def refuse(*args, **kwargs):
        raise AssertionError("handler ran")

    assert cap * z <= cli.MAX_COS_TERMS < (cap + 1) * z
    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, refuse))
    code, out, err = invoke(capsys, "lemma-cos", "--z", str(z), "--a", _zero_shifts(cap + 1),
                            "--out", str(tmp_path))
    assert code == 2 and not out and not list(tmp_path.iterdir())
    assert err == f"thetamoments: error: --a must hold at most {cap} values at z = {z}; got {cap + 1}\n"


@pytest.mark.parametrize("argv, n", [
    (("shifted-moment", "--q", "101", "--shifts", "0"), 1),
    (("bound-eval", "--q", "101", "--shifts", "0,1,2"), 3),
    (("large-values", "--q", "101", "--shifts", "0,1,2", "--vmin", "0", "--vmax", "1",
      "--vsteps", "2"), 3)])
def test_odd_shift_count_is_refused_by_flag(capsys, tmp_path, monkeypatch, argv, n):
    """An odd count is refused by --shifts and the count, exit 2, before the
    handler runs (each printed the library's "shift tuple must have even
    length >= 2")."""
    def refuse(*args, **kwargs):
        raise AssertionError("handler ran")

    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, refuse))
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and not out and not list(tmp_path.iterdir())
    assert err == (f"thetamoments: error: --shifts must hold an even number of values, "
                   f"at least 2; got {n}\n")


# one size flag below its floor per request, each refused by its flag, not in the
# library's words ("sieve limit", "z", "samples required", "modulus")
SIZE_FLOORS = [(("lemma-cos", "--z", "1", "--a", "0"), "z", 3, 1),
               (("lemma-cos", "--z", "2", "--a", "0"), "z", 3, 2),
               (("rand-model", "--q", "101", "--k", "1", "--samples", "50"), "samples", 100, 50),
               (("char-table", "--q", "0"), "q", 1, 0),
               (("theta-moment", "--q", "2", "--k", "1", "--parity", "even"), "q", 3, 2),
               (("bound-eval", "--q", "16", "--shifts", "0,1"), "q", 17, 16)]


@pytest.mark.parametrize("argv, flag, floor, got", SIZE_FLOORS)
def test_size_below_its_floor_is_refused_by_flag(capsys, tmp_path, monkeypatch, argv, flag,
                                                  floor, got):
    """Each exits 2 with no report, before the handler runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("handler ran")

    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, refuse))
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and not out and not list(tmp_path.iterdir())
    assert err == f"thetamoments: error: --{flag} must be >= {floor}; got {got}\n"


def test_theta_scan_range_past_its_caps_is_refused(capsys, tmp_path, monkeypatch):
    """A --prime-range ending past MAX_PHI + 1 is refused before the sieve, and
    one holding MAX_SCAN_PRIMES + 1 primes before any moment or normalization."""
    def refuse(*args, **kwargs):
        raise AssertionError("computed")

    primes = cli.sieve(20 * cli.MAX_SCAN_PRIMES).primes  # 2 first: 3..b holds cap + 1 primes
    b = int(primes[cli.MAX_SCAN_PRIMES + 1])
    monkeypatch.setattr(cli, "theta_moment", refuse)
    monkeypatch.setattr(cli, "theta_normalization", refuse)
    code, out, err = invoke(capsys, "theta-scan", "--prime-range", f"3:{b}", "--k", "1",
                            "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == (f"thetamoments: error: --prime-range must hold at most {cli.MAX_SCAN_PRIMES} "
                   f"primes; got {cli.MAX_SCAN_PRIMES + 1} in 3:{b}\n")
    monkeypatch.setattr(cli, "sieve", refuse)
    top = cli.MAX_PHI + 2
    code, out, err = invoke(capsys, "theta-scan", "--prime-range", f"3:{top}", "--k", "1",
                            "--out", str(tmp_path))
    assert code == 2 and not out and not list(tmp_path.iterdir())
    assert err == f"thetamoments: error: --prime-range must satisfy B <= {top - 1}; got 3:{top}\n"


def test_theta_scan_descending_range_is_named(capsys, tmp_path):
    code, out, err = invoke(capsys, "theta-scan", "--prime-range", "9:5", "--k", "1",
                            "--out", str(tmp_path))
    assert code == 2 and not out
    assert err == "thetamoments: error: --prime-range must satisfy 3 <= A <= B; got 9:5\n"


def _zero_shifts(n: int) -> str:
    return ",".join(["0"] * n)


@pytest.mark.parametrize("command", ["shifted-moment", "bound-eval"])
@pytest.mark.parametrize("n", [40, 60, 400])
def test_overflowing_moment_bound_is_refused_by_shifts(capsys, tmp_path, monkeypatch, recwarn,
                                                       command, n):
    """A shifted-moment bound that is no finite float is refused by the shift
    count, exit 2 (60 zero shifts at q = 1009 wrote normalization inf and
    ratio 0.0, bound-eval "moment_bound": Infinity; 400 wrote inf and nan),
    decided before any group is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("group built")

    monkeypatch.setattr(lfunc, "family_group", refuse)
    code, out, err = invoke(capsys, command, "--q", "1009", "--shifts", _zero_shifts(n),
                            "--out", str(tmp_path))
    assert code == 2 and not out
    assert err.startswith(f"thetamoments: error: {n} shifts are too many at q = 1009: "), err
    assert not recwarn.list and not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["shifted-moment", "bound-eval"])
def test_overflowing_shift_count_is_refused_before_any_pair(capsys, tmp_path, monkeypatch,
                                                             command):
    """Every pair scale is at least log log q, so 10^4 zero shifts at q = 1009
    are refused on their count alone, printing that lower bound's log, and no
    pair is listed (2000 shifts took 26.9 s and 1.44 GB in bound-eval)."""
    def refuse(*args, **kwargs):
        raise AssertionError("pairs listed")

    monkeypatch.setattr(lfunc, "family_group", refuse)
    monkeypatch.setattr(ShiftTuple, "pairs", refuse)
    code, out, err = invoke(capsys, command, "--q", "1009", "--shifts", _zero_shifts(10 ** 4),
                            "--out", str(tmp_path))
    assert code == 2 and not out and not list(tmp_path.iterdir())
    assert err == ("thetamoments: error: 10000 shifts are too many at q = 1009: the moment "
                   "bound overflows a float (log 1.649e+07 > 709.8)\n")


@pytest.mark.parametrize("eps, log", [("400", "781.8"), ("1e300", "1.934e+300")])
def test_overflowing_moment_bound_is_refused_by_eps(capsys, tmp_path, eps, log):
    """Two shifts at q = 1009 fit at eps = 0, so a bound that overflows only
    through --eps names eps, not the shift count (--eps 400 blamed "2 shifts"),
    and the log is printed to 4 digits (--eps 1e300 wrote a 409-character line)."""
    code, out, err = invoke(capsys, "bound-eval", "--q", "1009", "--shifts", "0,0.5",
                            "--eps", eps, "--out", str(tmp_path))
    assert code == 2 and not out and not list(tmp_path.iterdir())
    assert err == (f"thetamoments: error: eps = {float(eps):g} is too large at q = 1009 with "
                   f"2 shifts: the moment bound overflows a float (log {log} > 709.8)\n")


def test_overflow_refusal_prints_a_bounded_log(capsys, tmp_path):
    """k = 10^100 puts the log of the normalization at 1.934e200; it is printed
    as such, not as its 201 digits."""
    code, out, err = invoke(capsys, "theta-moment", "--q", "1009", "--k", str(10 ** 100),
                            "--parity", "even", "--out", str(tmp_path))
    assert code == 2 and not out
    assert err.endswith("the normalization overflows a float (log 1.934e+200 > 709.8)\n"), err


# a shift past the L-value window per request, refused by --shifts before the handler
SHIFT_CAPS = [(("shifted-moment", "--q", "1009", "--shifts", "0,60"), "0,60"),
              (("large-values", "--q", "1009", "--shifts", "0,-70", "--vmin", "-1", "--vmax", "1",
                "--vsteps", "3"), "0,-70"),
              (("shifted-moment", "--q", "1009", "--shifts", "0.5,-50.25,1"), "0.5,-50.25,1")]


@pytest.mark.parametrize("argv, got", SHIFT_CAPS)
def test_shift_past_the_window_is_refused_by_flag(capsys, tmp_path, monkeypatch, argv, got):
    """|t| > MAX_SHIFT is refused by flag name and value, exit 2 and no report,
    before the handler runs (the library's message named neither)."""
    def refuse(*args, **kwargs):
        raise AssertionError("handler ran")

    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, refuse))
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and not out and not list(tmp_path.iterdir())
    assert err == f"thetamoments: error: --shifts must satisfy |t| <= 50; got {got}\n"


def test_shift_window_leaves_the_library_and_bound_eval_alone(capsys, tmp_path):
    """The library keeps its own refusal, and bound-eval, which evaluates
    closed forms only, still takes any shift."""
    with pytest.raises(DomainError, match=r"^shifts must satisfy \|t\| <= 50$"):
        lfunc.shifted_moment(1009, (0.0, 60.0))
    code, out, _ = invoke(capsys, "bound-eval", "--q", "1009", "--shifts", "0,60",
                          "--out", str(tmp_path))
    assert code == 0 and json.loads(out)["payload"]["shifts"] == [0.0, 60.0]


def test_largest_accepted_shift_count_has_a_finite_normalization(capsys, tmp_path):
    """At q = 1009 the bound of 38 zero shifts is the largest a float holds:
    the request exits 0 with a finite normalization, and 40 are refused."""
    assert math.isfinite(shifted_moment_bound(1009, [0.0] * 38))
    with pytest.raises(DomainError, match="40 shifts"):
        shifted_moment_bound(1009, [0.0] * 40)
    code, out, _ = invoke(capsys, "shifted-moment", "--q", "1009", "--shifts", _zero_shifts(38),
                          "--out", str(tmp_path))
    assert code == 0
    (row,) = _csv_rows(out)
    assert math.isfinite(float(row["normalization"])) and float(row["ratio"]) > 0


# the largest k whose normalization is a finite float, and refused ks above it: at
# q = 1009, k = 20 even and k = 18..20 odd wrote normalization inf and ratio 0.0, and
# k = 21 (both), the L moment's k = 20 and the last three failed with OverflowError;
# HUGE_K's exponents are ints too large to convert to a float at all
HUGE_K = 10 ** 155
K_ENVELOPE = [(("theta-moment", "--q", "1009", "--parity", "even"), 19, (20, 21, 400, HUGE_K)),
              (("theta-moment", "--q", "1009", "--parity", "odd"), 17, (18, 21, HUGE_K)),
              (("theta-scan", "--prime-range", "1000:1013"), 19, (20, HUGE_K)),
              (("l-moment", "--q", "1009"), 19, (20, 200, HUGE_K)),
              (("rand-model", "--q", "101", "--samples", "100"), 21, (22, 300, HUGE_K))]


@pytest.mark.parametrize("argv, k_max, refused", K_ENVELOPE)
def test_overflowing_normalization_is_refused_by_k(capsys, tmp_path, recwarn, argv, k_max, refused):
    """A moment whose closed-form normalization is no finite float is refused
    by k (exit 2, no report, no numpy warning), decided in log space before
    any group or sample is built; a scan decides at its largest prime.  The
    largest k left exits 0 with a finite normalization and a positive ratio."""
    q = "1013" if argv[0] == "theta-scan" else argv[2]
    for k in refused:
        code, out, err = invoke(capsys, *argv, "--k", str(k), "--out", str(tmp_path))
        assert code == 2 and not out, k
        assert err.startswith(f"thetamoments: error: k = {k} is too large at q = {q}: "), err
    assert not recwarn.list and not list(tmp_path.iterdir())
    code, out, _ = invoke(capsys, *argv, "--k", str(k_max), "--out", str(tmp_path))
    assert code == 0
    rows = [json.loads(out)["payload"]] if argv[0] == "rand-model" else _csv_rows(out)
    for row in rows:
        norm, ratio = float(row["normalization"]), float(row["ratio"])
        assert math.isfinite(norm) and 0 < ratio < math.inf, row


def _csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]


def test_non_finite_config_tol_is_refused(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("tol=inf\n")
    with pytest.raises(DomainError, match="tol must be positive and finite; got inf"):
        load_config(str(path))


@pytest.mark.parametrize("argv, flag, form", [
    (("shifted-moment", "--q", "101", "--shifts", ""), "--shifts", "comma-separated numbers"),
    (("large-values", "--q", "101", "--shifts", "0,x", "--vmin", "0", "--vmax", "1",
      "--vsteps", "2"), "--shifts", "comma-separated numbers"),
    (("bound-eval", "--q", "101", "--shifts", "0;1"), "--shifts", "comma-separated numbers"),
    (("lemma-cos", "--z", "100", "--a", "x"), "--a", "comma-separated numbers"),
    (("theta-scan", "--prime-range", "abc", "--k", "1"), "--prime-range", "integers A:B"),
    (("theta-scan", "--prime-range", "3:", "--k", "1"), "--prime-range", "integers A:B"),
])
def test_unparsable_list_flag_names_the_expected_form(capsys, tmp_path, argv, flag, form):
    """A list or range flag that does not parse is a usage error (exit 2)
    whose message names the flag and the expected form, not a parser helper."""
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and not out
    last = err.strip().splitlines()[-1]
    assert f"error: argument {flag}: expected {form}; got " in last
    assert "_parse" not in err and "invalid" not in err


# a flag value with a leading minus, each beside its "=" form: "-1,1" and
# "-1e-3" were taken for options ("expected one argument")
NEGATIVE_VALUES = [
    (("shifted-moment", "--q", "1009"), ("--shifts", "-1,1")),
    (("bound-eval", "--q", "1009"), ("--shifts", "-2,2")),
    (("large-values", "--q", "101", "--vmin", "-6", "--vmax", "1", "--vsteps", "3"),
     ("--shifts", "-0.5,0.5")),
    (("lemma-cos", "--z", "100"), ("--a", "-1e-3")),
    (("large-values", "--q", "101", "--shifts", "0,0.5", "--vmax", "1e308", "--vsteps", "3"),
     ("--vmin", "-1e308")),
]


@pytest.mark.parametrize("argv, pair", NEGATIVE_VALUES)
def test_negative_leading_value_is_the_flags_value(capsys, tmp_path, argv, pair):
    """Each gives the same bytes as its "=" form; a JSON report the same
    payload and config, its envelope echoing the command line as given."""
    flag, value = pair
    results = [invoke(capsys, *argv, *form, "--out", str(tmp_path))
               for form in ((flag, value), (f"{flag}={value}",))]
    assert results[0][2] == results[1][2] and results[0][0] == results[1][0]
    if argv[0] == "bound-eval":
        docs = [json.loads(out) for _, out, _ in results]
        assert docs[0]["payload"] == docs[1]["payload"] and docs[0]["config"] == docs[1]["config"]
        assert results[0][0] == 0
    else:
        assert results[0][1] == results[1][1]
        assert results[0][0] == (2 if value == "-1e308" else 0)


def test_negative_leading_stray_token_keeps_the_usage_error(capsys, tmp_path):
    """A value-like token no flag takes is still the subcommand's own
    "unrecognized arguments" usage error, as a negative number was before."""
    for stray in ("-1,1", "-5"):
        code, out, err = invoke(capsys, "shifted-moment", "--q", "1009", "--shifts", "0,1", stray,
                                "--out", str(tmp_path))
        assert code == 2 and not out
        assert err.startswith("usage: thetamoments shifted-moment [-h]")
        assert err.endswith(f"thetamoments shifted-moment: error: unrecognized arguments: {stray}\n")


# ---------------------------------------------------------------------------
# flags: each subcommand takes only the settings it reads

_COMMON_OPTIONS = {"-h", "--help", "--workers", "--out", "--format", "--config"}
_OPTIONS = {
    "char-table": {"--q"},
    "theta-moment": {"--q", "--k", "--parity", "--eps"},
    "theta-scan": {"--prime-range", "--k", "--parity", "--eps"},
    "l-moment": {"--q", "--k", "--tol"},
    "shifted-moment": {"--q", "--shifts", "--family", "--tol"},
    "large-values": {"--q", "--shifts", "--vmin", "--vmax", "--vsteps", "--family", "--tol"},
    "mellin-check": {"--q", "--height", "--step"},
    "bound-eval": {"--q", "--shifts", "--k", "--V", "--eps"},
    "lemma-cos": {"--z", "--a"},
    "rand-model": {"--q", "--k", "--samples", "--eps", "--seed"},
}


def test_each_subcommand_accepts_exactly_its_options():
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(_OPTIONS) == set(cli._HANDLERS)
    for name, sp in subparsers.choices.items():
        assert set(sp._option_string_actions) == _COMMON_OPTIONS | _OPTIONS[name], name


def test_each_shared_flag_is_one_action():
    """A flag shared by several subcommands is declared once: every
    subcommand that takes it holds the same argparse Action, so its type,
    help and requiredness cannot drift apart.  --k is shared by the three
    subcommands where it follows --q and is required."""
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    flags = ("--q", "--shifts", "--tol", "--workers", "--out", "--format", "--config")
    shared = {flag: [name for name in _OPTIONS if flag in _OPTIONS[name] | _COMMON_OPTIONS]
              for flag in flags}
    shared["--k"] = ["theta-moment", "l-moment", "rand-model"]
    for flag, names in shared.items():
        actions = {id(subparsers.choices[n]._option_string_actions[flag]) for n in names}
        assert len(names) >= 3 and len(actions) == 1, (flag, names, len(actions))


@pytest.mark.parametrize("argv, flag", [
    (("theta-moment", "--q", "101", "--k", "1", "--parity", "even", "--tol", "1e-30"), "--tol"),
    (("rand-model", "--q", "101", "--k", "1", "--samples", "100", "--tol", "1e-30"), "--tol"),
    (("mellin-check", "--q", "13", "--tol", "1e-9"), "--tol"),
    (("char-table", "--q", "12", "--seed", "3"), "--seed"),
])
def test_unread_flag_is_a_usage_error(capsys, tmp_path, argv, flag):
    """A flag the subcommand would ignore exits 2 and argparse names it under
    the subcommand's own usage; the same setting from a config file is
    accepted, since one file serves every subcommand."""
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and not out
    assert f"unrecognized arguments: {flag} " in err
    assert err.startswith(f"usage: thetamoments {argv[0]} [-h]") and "{char-table," not in err
    assert f"thetamoments {argv[0]}: error: " in err
    config = tmp_path / "run.cfg"
    config.write_text("tol=1e-30\nseed=3\n")
    code, _, _ = invoke(capsys, *argv[:argv.index(flag)], "--config", str(config),
                        "--out", str(tmp_path))
    assert code == 0


# ---------------------------------------------------------------------------
# golden determinism


def test_theta_moment_csv_byte_identical(capsys, tmp_path):
    args = ("theta-moment", "--q", "5", "--k", "1", "--parity", "even")
    code, out1, _ = invoke(capsys, *args, "--out", str(tmp_path / "a"))
    assert code == 0
    code, out2, _ = invoke(capsys, *args, "--out", str(tmp_path / "b"))
    assert code == 0
    assert out1 == out2
    fa = (tmp_path / "a" / "theta-moment.csv").read_bytes()
    fb = (tmp_path / "b" / "theta-moment.csv").read_bytes()
    assert fa == fb and fa.decode() == out1


def test_csv_independent_of_worker_count(capsys, tmp_path):
    args = ("shifted-moment", "--q", "17", "--shifts", "0.5,-0.5")
    _, out1, _ = invoke(capsys, *args, "--workers", "1", "--out", str(tmp_path / "a"))
    _, out2, _ = invoke(capsys, *args, "--workers", "4", "--out", str(tmp_path / "b"))
    assert out1 == out2


def test_theta_moment_csv_content(capsys, tmp_path):
    code, out, _ = invoke(capsys, "theta-moment", "--q", "5", "--k", "1",
                          "--parity", "even", "--out", str(tmp_path))
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "q,k,parity,raw,normalization,ratio,eps,family_size"
    fields = lines[1].split(",")
    assert fields[0] == "5" and fields[2] == "even" and fields[7] == "1"
    assert float(fields[3]) == pytest.approx(0.2016262452927956, abs=1e-11)


def test_large_values_row_per_grid_point(capsys, tmp_path):
    code, out, _ = invoke(capsys, "large-values", "--q", "17", "--shifts", "0,0",
                          "--vmin", "-1", "--vmax", "1", "--vsteps", "5",
                          "--out", str(tmp_path))
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 5
    counts = [int(r.split(",")[2]) for r in rows]
    assert counts == sorted(counts, reverse=True)


def test_theta_scan_row_per_prime(capsys, tmp_path):
    code, out, _ = invoke(capsys, "theta-scan", "--prime-range", "5:30",
                          "--k", "1", "--out", str(tmp_path))
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert [r.split(",")[0] for r in rows] == ["5", "7", "11", "13", "17", "19", "23", "29"]


def test_mellin_check_csv(capsys, tmp_path):
    code, out, _ = invoke(capsys, "mellin-check", "--q", "5", "--height", "4",
                          "--step", "0.0625", "--out", str(tmp_path))
    assert code == 0
    header, row = [l for l in out.splitlines() if not l.startswith("#")][:2]
    assert header.startswith("q,char_index,series_re")
    assert float(row.split(",")[6]) < 1e-3  # residual at modest height


def test_char_table_rows(capsys, tmp_path):
    code, out, _ = invoke(capsys, "char-table", "--q", "5", "--out", str(tmp_path))
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 4
    assert rows[0].split(",") == ["0", "0", "even", "1", "0"]  # trivial char


def _char_table_reference(q):
    """(CSV text, payload) of char-table --q q as a row writer over Character
    objects produces them, one Character per row."""
    payload = [{"index": chi.index, "exponents": list(chi.exponents), "parity": chi.parity,
                "conductor": chi.conductor, "primitive": chi.is_primitive}
               for chi in build_group(q)]
    rows = [(r["index"], ";".join(map(str, r["exponents"])) or "-", r["parity"],
             r["conductor"], int(r["primitive"])) for r in payload]
    columns = ("index", "exponents", "parity", "conductor", "primitive")
    return csv_text(columns, rows, {"command": "char-table", "q": q}), payload


@pytest.mark.parametrize("q", [1, 2, 8, 12, 5040, 30030])
def test_char_table_matches_the_per_character_row_writer(capsys, tmp_path, q):
    """char-table reads its columns off the group's tables; the CSV and the
    JSON document are byte-identical to the per-character writer's."""
    csv_ref, payload = _char_table_reference(q)
    code, out, _ = invoke(capsys, "char-table", "--q", str(q), "--out", str(tmp_path))
    assert code == 0 and out == csv_ref
    code, out, _ = invoke(capsys, "char-table", "--q", str(q), "--format", "json",
                          "--out", str(tmp_path))
    doc = json.loads(out)
    ref = ReportEnvelope(tool=doc["tool"], version=doc["version"], command=doc["command"],
                         config=doc["config"], timestamp=doc["timestamp"], payload=payload)
    assert code == 0 and out == ref.to_json()


# ---------------------------------------------------------------------------
# json reports


def test_bound_eval_json_payload(capsys, tmp_path):
    code, out, _ = invoke(capsys, "bound-eval", "--q", "101", "--shifts", "0,0.3",
                          "--V", "6.0", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    payload = doc["payload"]
    assert payload["q"] == 101 and payload["k"] == 1
    assert len(payload["pairs"]) == 1
    assert payload["moment_bound"] > 0
    assert payload["large_value_bound"]["regime"] in ("I", "II", "III")
    assert (tmp_path / "bound-eval.json").exists()


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_json_envelope_is_strict_json_with_nulls(capsys, tmp_path):
    """Below q = 16 the moment bound is undefined: the CSV writes nan, and
    the JSON writes null, which a strict parser accepts (bare NaN is not JSON)."""
    argv = ("shifted-moment", "--q", "13", "--shifts", "0,0", "--out", str(tmp_path))
    code, out, _ = invoke(capsys, *argv, "--format", "json")
    assert code == 0
    payload = _strict_json(out)["payload"]
    assert payload["normalization"] is None and payload["ratio"] is None
    assert payload["raw"] > 0 and payload["family_size"] == 11
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and out.splitlines()[-1].split(",")[4:6] == ["nan", "nan"]


def test_envelope_writes_every_non_finite_float_as_null():
    """Non-finite floats in the envelope's own dicts and lists, in arrays
    and in complex values all come out as null."""
    payload = {"plain": [math.inf, 1.5], "array": np.array([-math.inf, 2.0]),
               "z": complex(math.nan, 1.0)}
    doc = _strict_json(make_envelope(["x"], {"tol": math.nan}, payload).to_json())
    assert doc["config"] == {"tol": None}
    assert doc["payload"]["plain"] == [None, 1.5] and doc["payload"]["array"] == [None, 2.0]
    assert doc["payload"]["z"] == {"re": None, "im": 1.0}


def test_rand_model_json_reproducible_payload(capsys, tmp_path):
    args = ("rand-model", "--q", "101", "--k", "1", "--samples", "150",
            "--seed", "5")
    code, out1, _ = invoke(capsys, *args, "--out", str(tmp_path / "a"))
    assert code == 0
    code, out2, _ = invoke(capsys, *args, "--out", str(tmp_path / "b"))
    p1, p2 = json.loads(out1)["payload"], json.loads(out2)["payload"]
    assert p1 == p2  # envelope timestamps may differ; the payload never does
    assert p1["estimate"] >= 0 and p1["seed"] == 5


def test_version_is_one_string(capsys, tmp_path):
    version = thetamoments.__version__
    code, out, _ = invoke(capsys, "--version")
    assert code == 0 and out == f"thetamoments {version}\n"
    code, out, _ = invoke(capsys, "char-table", "--q", "5", "--out", str(tmp_path))
    assert code == 0 and out.splitlines()[0] == f"# tool=thetamoments {version}"
    code, out, _ = invoke(capsys, "char-table", "--q", "5", "--format", "json",
                          "--out", str(tmp_path))
    assert code == 0 and json.loads(out)["version"] == version


def _without_timestamp(out):
    return {k: v for k, v in json.loads(out).items() if k != "timestamp"}


def test_one_process_many_requests_match_fresh_processes(capsys, tmp_path):
    """The parser is built once per process; every later request parses as if alone."""
    requests = [
        ("l-moment", "--q", "13", "--k", "1"),
        ("shifted-moment", "--q", "13", "--shifts", "0,0.5"),
        ("l-moment", "--q", "13", "--k"),
        ("--version",),
        ("rand-model", "--q", "11", "--k", "1", "--samples", "100"),
        ("l-moment", "--q", "13", "--k", "2"),
    ]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thetamoments.__file__))}
    codes = []
    for argv in requests:
        argv = [*argv, "--out", str(tmp_path)] if argv[0] != "--version" else list(argv)
        code, out, err = invoke(capsys, *argv)
        alone = subprocess.run([sys.executable, "-m", "thetamoments.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert code == alone.returncode and err == alone.stderr, argv
        if argv[0] == "rand-model":
            assert _without_timestamp(out) == _without_timestamp(alone.stdout)
        else:
            assert out == alone.stdout, argv
        codes.append(code)
    assert codes == [0, 0, 2, 0, 0, 0]


def test_json_format_flag_and_workers_visibility(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    code, out, _ = invoke(capsys, "theta-moment", "--q", "5", "--k", "1",
                          "--parity", "even", "--format", "json",
                          "--workers", "3", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["workers"] == 3  # flag beats environment
    assert doc["payload"]["raw"] > 0


def test_env_workers_applies_without_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    code, out, _ = invoke(capsys, "theta-moment", "--q", "5", "--k", "1",
                          "--parity", "even", "--format", "json",
                          "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["config"]["workers"] == 2


# ---------------------------------------------------------------------------
# config files


def test_load_config_empty_is_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(str(path))
    assert cfg.tol == 1e-10 and cfg.format == "csv" and cfg.workers is None


def test_load_config_values_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\ntol=1e-12\nworkers=2\nformat=json\nseed=9\n")
    cfg = load_config(str(path))
    assert cfg.tol == 1e-12 and cfg.workers == 2
    assert cfg.format == "json" and cfg.seed == 9


def test_load_config_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("tol=1e-9\nnot a pair\n")
    with pytest.raises(DomainError, match=r":2:"):
        load_config(str(path))
    path.write_text("mystery=1\n")
    with pytest.raises(DomainError, match=r":1:.*mystery"):
        load_config(str(path))
    path.write_text("workers=0\n")
    with pytest.raises(DomainError, match="workers"):
        load_config(str(path))
    path.write_text("tol=banana\n")
    with pytest.raises(DomainError, match=r":1:"):
        load_config(str(path))


def test_config_file_overridden_by_flag(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("tol=1e-9\n")
    code, out, _ = invoke(capsys, "l-moment", "--q", "13", "--k", "1",
                          "--config", str(path), "--out", str(tmp_path))
    assert code == 0 and "# tol=1e-09" in out
    code, out, _ = invoke(capsys, "l-moment", "--q", "13", "--k", "1",
                          "--config", str(path), "--tol", "1e-8",
                          "--out", str(tmp_path))
    assert code == 0 and "# tol=1e-08" in out


# ---------------------------------------------------------------------------
# memory grows at most linearly in phi(q)

_MEMORY_ARGS = {
    "char-table": (),
    "theta-moment": ("--k", "1", "--parity", "even"),
    "l-moment": ("--k", "1"),
    "shifted-moment": ("--shifts", "0,2"),
    "large-values": ("--shifts", "0,0", "--vmin", "-5", "--vmax", "5", "--vsteps", "11"),
}


def _traced_peak(capsys, tmp_path, command, q):
    """tracemalloc peak of one CLI request, whether it succeeds or is refused."""
    tracemalloc.start()
    try:
        code, _, err = invoke(capsys, command, "--q", str(q), *_MEMORY_ARGS[command],
                              "--out", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 or err.startswith("thetamoments: precision:"), err
    return peak


_NO_MPMATH_CHILD = """
import sys, tempfile
import thetamoments
from thetamoments.cli import run
assert run(["mellin-check", "--q", "5", "--out", tempfile.mkdtemp()]) == 0
print("mpmath" in sys.modules)
"""


def test_library_runs_without_importing_mpmath():
    """mpmath is a test oracle only: a fresh child imports the package and
    runs a Mellin check (theta series and L-values) without loading it."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thetamoments.__file__))}
    done = subprocess.run([sys.executable, "-c", _NO_MPMATH_CHILD], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split()[-1] == "False", done.stdout


_IMPORTS_CHILD = """
import json, sys, tempfile
from thetamoments import cli
requests = {
    "char-table": ["--q", "7"],
    "theta-moment": ["--q", "13", "--k", "1", "--parity", "even"],
    "theta-scan": ["--prime-range", "5:13", "--k", "1"],
    "l-moment": ["--q", "13", "--k", "1"],
    "shifted-moment": ["--q", "13", "--shifts", "0,0.5"],
    "large-values": ["--q", "13", "--shifts", "0,0", "--vmin", "-5", "--vmax", "5", "--vsteps", "3"],
    "mellin-check": ["--q", "13", "--height", "2", "--step", "0.5"],
    "bound-eval": ["--q", "101", "--shifts", "0,1"],
    "lemma-cos": ["--z", "100", "--a", "0,1"],
    "rand-model": ["--q", "101", "--k", "1", "--samples", "100"],
}
before = set(sys.modules)
out = tempfile.mkdtemp()
codes = {cmd: cli.run([cmd, *argv, "--out", out]) for cmd, argv in requests.items()}
added = sorted(m for m in set(sys.modules) - before if m == "numpy" or m.startswith("numpy."))
print(json.dumps({"codes": codes, "handlers": sorted(cli._HANDLERS), "added": added}))
"""


def test_requests_import_no_numpy_submodule_but_fft():
    """A fresh child imports the CLI and runs one tiny request of every
    subcommand: the only numpy submodule they load is numpy.fft (so no
    request pays for numpy.ma, which np.median would import)."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thetamoments.__file__))}
    done = subprocess.run([sys.executable, "-c", _IMPORTS_CHILD], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(done.stdout.splitlines()[-1])
    assert sorted(got["codes"]) == got["handlers"]
    assert set(got["codes"].values()) == {0}, got["codes"]
    assert got["added"] and all(m == "numpy.fft" or m.startswith("numpy.fft.")
                                for m in got["added"]), got["added"]


_RSS_CHILD = """
import sys, tempfile
import numpy as np
from thetamoments.characters import build_group
from thetamoments.cli import run
kind, q, rows, args = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
if kind == "request":
    assert run(args + ["--q", str(q), "--out", tempfile.mkdtemp()]) == 0
else:  # what the request holds however it evaluates L
    g = build_group(q)
    tables = g.family_mask("star"), g.conjugation
    values = np.ones((rows, g.phi), dtype=complex)
print(next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmHWM")))
"""


def _child_peak_mb(*argv):
    """Peak resident set of a fresh child in MB: VmHWM, not ru_maxrss, which
    after a vfork-style spawn also counts the spawning process's own peak."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thetamoments.__file__))}
    done = subprocess.run([sys.executable, "-c", _RSS_CHILD, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return int(done.stdout.split()[-1]) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("args,rows", [(("l-moment", "--k", "1"), 1),
                                       (("shifted-moment", "--shifts", "0,35"), 2)])
def test_certified_l_request_peak_rss(args, rows):
    """The peak RSS of a certified q = 100003 request, in a child process,
    stays within 6.5 MB of a child that builds the group, the family tables
    and the request's complex output rows (16 phi bytes each).  tracemalloc
    does not see pocketfft's buffers: a single length-100002 transform would
    add about 15 MB here."""
    q = 100003
    base = _child_peak_mb("base", q, rows)
    peak = _child_peak_mb("request", q, rows, *args)
    assert peak <= base + 6.5, (base, peak)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_theta_moment_peak_rss(parity):
    """A q = 100003 theta moment of either parity, in a child process, stays
    within 6.5 MB of the same base child (one complex output row).  Both
    parities run one length-50001 inverse FFT of folded weights, on the
    Good-Thomas grid (21, 2381); the odd one's former zero-padded
    length-100002 real FFT took pocketfft's Bluestein path and its native
    buffers, about 12 MB above the base."""
    q = 100003
    base = _child_peak_mb("base", q, 1)
    peak = _child_peak_mb("request", q, 1, "theta-moment", "--k", "2", "--parity", parity)
    assert peak <= base + 6.5, (base, peak)


@pytest.mark.parametrize("command", sorted(_MEMORY_ARGS))
def test_peak_memory_linear_in_phi(capsys, tmp_path, command):
    small = _traced_peak(capsys, tmp_path, command, 2003)
    large = _traced_peak(capsys, tmp_path, command, 8009)  # phi ratio 4.0
    assert large <= 5 * small, (small, large)
