"""CLI: subcommands, exit codes, config precedence, deterministic reports."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import thetamoments
from thetamoments import cli
from thetamoments.cli import WORKERS_ENV, load_config, run
from thetamoments.errors import DomainError


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
    assert "q >= 3" in err


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


@pytest.mark.parametrize("command", sorted(_MEMORY_ARGS))
def test_peak_memory_linear_in_phi(capsys, tmp_path, command):
    small = _traced_peak(capsys, tmp_path, command, 2003)
    large = _traced_peak(capsys, tmp_path, command, 8009)  # phi ratio 4.0
    assert large <= 5 * small, (small, large)
