"""The names and formats the benchmark harness in bench/ relies on.

bench/ drives the CLI and wraps package functions by name, so a rename or a
changed report layout breaks it without breaking any other test.  These tests
only read bench/; they never modify it.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

from thetamoments.cli import WORKERS_ENV, run
from thetamoments.numtheory import group_structure
from thetamoments.randmodel import sample

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def test_tracing_targets_resolve():
    tracing = _bench_module("tracing")
    for layer, (modname, attrs) in tracing.TARGETS.items():
        mod = importlib.import_module(f"thetamoments.{modname}")
        if attrs is None:
            assert all(hasattr(mod, a) for a in mod.__all__), layer
            continue
        for attr in attrs:
            if "." in attr:
                cls_name, member = attr.split(".")
                assert member in vars(getattr(mod, cls_name)), f"{layer}: {attr}"
            else:
                assert callable(getattr(mod, attr, None)), f"{layer}: {attr}"
    # the parallel_map wrapper calls fn(f, items, workers)
    pm = importlib.import_module("thetamoments.summation").parallel_map
    assert list(inspect.signature(pm).parameters) == ["fn", "items", "workers"]
    # the hurwitz_zeta_vector wrapper counts entries as len(args[1]) of (s, a, tol)
    hzv = importlib.import_module("thetamoments.specfun").hurwitz_zeta_vector
    assert list(inspect.signature(hzv).parameters)[:3] == ["s", "a", "tol"]


def test_sample_values_and_group_components():
    s = sample(30, 5)
    assert s.values.shape == (31,)
    g = group_structure(29).components[0][0]
    assert len({pow(g, m, 29) for m in range(28)}) == 28  # a generator mod 29


def test_rand_model_payload_keys(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert run(["rand-model", "--q", "101", "--k", "1", "--samples", "100",
                "--seed", "3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "rand-model.json").read_text())["payload"]
    assert {"q", "seed", "samples", "weights", "estimate", "std_error"} <= set(payload)


def test_mellin_check_csv_columns(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert run(["mellin-check", "--q", "5", "--height", "1", "--step", "0.125",
                "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    workloads = _bench_module("workloads")
    parsed = workloads.parse_csv((tmp_path / "mellin-check.csv").read_text())
    assert {"char_index", "series_re", "series_im", "height", "step"} <= set(parsed[1][0])
    # one even primitive character mod 5, 2 * 8 + 1 grid points
    assert workloads.count_values(("mellin-check", "--q", "5"), parsed) == 17
