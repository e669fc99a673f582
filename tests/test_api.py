"""The public surface: every exported name resolves, and no parameter is ignored."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import thetamoments
from thetamoments import lfunc, randmodel, theta

MODULES = ["thetamoments"] + [f"thetamoments.{m.name}"
                              for m in pkgutil.iter_modules(thetamoments.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_no_ignored_parameters():
    """The library takes no setting that changes nothing: no worker count and
    no prime table."""
    for fn in (lfunc.shifted_moment, lfunc.large_value_counts, theta.mellin_checks,
               theta.mellin_check, randmodel.model_moment):
        assert "workers" not in inspect.signature(fn).parameters, fn.__name__
    for fn in (randmodel.sample, lfunc.log_l_majorant):
        assert "table" not in inspect.signature(fn).parameters, fn.__name__


def test_no_module_imports_a_sibling_private_name():
    """Each module keeps its private names to itself: no `from .x import _name`
    (dunder names aside) anywhere in the package, so a rule another module
    needs is public where it is written."""
    hits = []
    for path in sorted(pathlib.Path(thetamoments.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                hits += [f"{path.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                         for a in node.names
                         if a.name.startswith("_") and not a.name.startswith("__")]
    assert hits == []


def test_no_module_evaluates_one_character_value_at_a_time():
    """Outside characters.py no module calls `.value(...)` or
    `.root_exponent(...)`: every library path sums characters against weights
    through CharacterGroup.character_sums, one transform for the whole group."""
    hits = []
    for path in sorted(pathlib.Path(thetamoments.__file__).parent.glob("*.py")):
        if path.name == "characters.py":
            continue
        hits += [f"{path.name}:{node.lineno}: .{node.func.attr}(...)"
                 for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("value", "root_exponent")]
    assert hits == []


# the library modules the package re-exports, in its order
LIBRARY = ["errors", "numtheory", "specfun", "characters", "reports", "bounds", "lfunc",
           "theta", "randmodel"]


def test_package_all_is_the_modules_all_in_order():
    """Each module's __all__ is the one list of its public names: the
    package's __all__ is __version__ and then theirs, with no name listed by
    two modules, and each package attribute is its home module's object."""
    mods = [importlib.import_module(f"thetamoments.{m}") for m in LIBRARY]
    assert thetamoments.__all__ == ["__version__", *(n for m in mods for n in m.__all__)]
    assert len(set(thetamoments.__all__)) == len(thetamoments.__all__)
    for m in mods:
        for n in m.__all__:
            assert getattr(thetamoments, n) is getattr(m, n), (m.__name__, n)


def test_size_envelope_lists_every_cap():
    """README's Size envelope has a row `module.MAX_*` for every public cap
    assigned in cli, theta, lfunc and bounds."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Size envelope", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(\w+\.MAX_\w+)` \|", table, re.M))
    caps = set()
    for name in ("cli", "theta", "lfunc", "bounds"):
        path = pathlib.Path(thetamoments.__file__).parent / f"{name}.py"
        caps |= {f"{name}.{t.id}" for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.Assign) for t in node.targets
                 if isinstance(t, ast.Name) and t.id.startswith("MAX_")}
    assert caps and caps <= rows, caps - rows
