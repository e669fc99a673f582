"""Report records and deterministic CSV/JSON serialization.

CSV files are byte-identical across runs and worker counts: floats are
formatted with repr (shortest round-trip form), rows are emitted in a fixed
order, and the header comments carry the config snapshot but no timestamp.
JSON output wraps the payload in an envelope (tool version, command line,
config snapshot, timestamp); the payload itself round-trips losslessly since
repr-formatted floats parse back to the same binary value.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Iterable

import numpy as np

from . import __version__
from .errors import DomainError
from .summation import chunked_sum

__all__ = ["MomentReport", "ReportEnvelope", "make_envelope"]

TOOL_NAME = "thetamoments"

# the documented stable column set for all moment-style reports
MOMENT_COLUMNS = ("q", "k", "parity", "raw", "normalization", "ratio", "eps", "family_size")


@dataclass(frozen=True)
class MomentReport:
    """One moment value with its normalization.

    `family` is the character family summed over: "even" / "odd" for theta
    moments (even-primitive-nontrivial / odd-primitive), "star" /
    "nonquadratic" for L-moments.  `family_size` = 0 is the empty-family flag.
    """

    q: int
    k: int
    family: str
    raw: float
    normalization: float
    ratio: float
    eps: float
    family_size: int

    def row(self) -> tuple:
        return (self.q, self.k, self.family, self.raw, self.normalization,
                self.ratio, self.eps, self.family_size)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def moment_normalization(q: int, k: int, scale: int, q_exp2: int, log_exp: int) -> float:
    """scale q^{q_exp2 / 2} (log q)^log_exp, the closed form a k-th moment mod
    q >= 3 divides by, or DomainError naming k unless it is a finite float.
    Every factor is >= 1, so that is decided on the sum of their logs before
    any power is taken, 1e-9 short of the float range for the logs' rounding.
    The exponents come in as ints: one too large for a float (a huge k) is
    refused the same way."""
    lq = math.log(q)
    try:
        log_norm = math.log(scale) + q_exp2 / 2 * lq + log_exp * math.log(lq)
    except OverflowError:
        log_norm = math.inf
    check_float_range(log_norm, f"k = {k} is too large at q = {q}: the normalization")
    return scale * q ** (q_exp2 / 2) * lq ** log_exp


def check_float_range(log_value: float, subject: str) -> None:
    """DomainError "<subject> overflows a float", its log to 4 digits, unless
    log_value, the log of a product whose factors are all >= 1, is 1e-9 short
    of the float range, which leaves room for the logs' rounding."""
    if log_value > _LOG_FLOAT_MAX - 1e-9:
        raise DomainError(f"{subject} overflows a float "
                          f"(log {log_value:.4g} > {_LOG_FLOAT_MAX:.4g})")


def moment_report(q: int, k: int, family: str, terms: np.ndarray, normalization: float,
                  eps: float) -> MomentReport:
    """The one moment reduction: raw = the chunked sum of the per-character
    terms, sorted in place first so the sum does not depend on character
    order; one term per family member."""
    terms.sort()
    raw = float(chunked_sum(terms))
    return MomentReport(q=q, k=k, family=family, raw=raw, normalization=normalization,
                        ratio=raw / normalization, eps=eps, family_size=terms.size)


def fmt(x) -> str:
    """Deterministic scalar formatting: repr for floats (round-trips exactly)."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def csv_text(columns: Iterable[str], rows: Iterable[tuple], meta: dict) -> str:
    """Render a CSV with `# key=value` comment headers (sorted), no timestamp."""
    lines = [f"# tool={TOOL_NAME} {__version__}"]
    for key in sorted(meta):
        lines.append(f"# {key}={fmt(meta[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def moment_csv(reports: Iterable[MomentReport], meta: dict) -> str:
    return csv_text(MOMENT_COLUMNS, (r.row() for r in reports), meta)


@dataclass(frozen=True)
class ReportEnvelope:
    """JSON wrapper: tool identity + command + config snapshot + payload."""

    tool: str
    version: str
    command: list[str]
    config: dict
    timestamp: str
    payload: object = field(default=None)

    def to_json(self) -> str:
        """Strict JSON: a non-finite float (the undefined bound below q = 16,
        say) is written as null, since JSON has no NaN or Infinity."""
        doc = {
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "timestamp": self.timestamp,
            "payload": self.payload,
        }
        return json.dumps(_plain(doc), allow_nan=False, indent=2) + "\n"


def _plain(o):
    """o in JSON's types: dataclasses as dicts, arrays as lists, complex as
    {"re", "im"} and a non-finite float as None."""
    if o is None or isinstance(o, (str, int)):
        return o
    if isinstance(o, float):
        return o if math.isfinite(o) else None
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    if isinstance(o, complex):
        return {"re": _plain(o.real), "im": _plain(o.imag)}
    if hasattr(o, "__dataclass_fields__"):
        return _plain(asdict(o))
    if hasattr(o, "tolist"):
        return _plain(o.tolist())
    raise TypeError(f"not JSON-serializable: {type(o)}")


def make_envelope(command: list[str], config: dict, payload) -> ReportEnvelope:
    return ReportEnvelope(
        tool=TOOL_NAME,
        version=__version__,
        command=list(command),
        config=dict(config),
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        payload=payload,
    )
