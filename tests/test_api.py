"""The public surface: every exported name resolves, and no parameter is ignored."""

import importlib
import inspect
import pkgutil

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
