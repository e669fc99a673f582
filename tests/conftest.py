"""Shared fixtures."""

import contextlib
import io

import pytest

from thetamoments import specfun
from thetamoments.cli import WORKERS_ENV, run


@pytest.fixture
def cli_at_workers(tmp_path, monkeypatch):
    """cli_at_workers(*argv) -> (stdout at --workers 1, stdout at --workers 5)
    of one successful CLI request; the worker count is ignored, so the CSV,
    or the JSON payload, must not depend on it."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)

    def outputs(*argv):
        outs = []
        for workers in ("1", "5"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert run([*argv, "--workers", workers, "--out", str(tmp_path / workers)]) == 0
            outs.append(out.getvalue())
        return tuple(outs)

    return outputs


@pytest.fixture
def em_rows(monkeypatch):
    """The Euler-Maclaurin rows (largest N) of each specfun._em_block call, in
    call order: what a Hurwitz evaluation pays, read without a clock."""
    rows, block = [], specfun._em_block

    def recorded(pts, nmb, a):
        rows.append(max(r[0] for rungs in nmb for r in rungs))
        return block(pts, nmb, a)

    monkeypatch.setattr(specfun, "_em_block", recorded)
    return rows
