"""Command-line front end: one subcommand per report family.

Subcommands: char-table, theta-moment, theta-scan, l-moment, shifted-moment,
large-values, mellin-check, bound-eval, lemma-cos, rand-model.

Configuration precedence is defaults < config file (--config, key=value
lines) < THETAMOMENTS_WORKERS environment variable < flags.  Exit codes:
0 success, 2 usage/domain error (bad flags, out-of-range parameters),
1 computation error (unreachable precision, unexpected failure).

A subcommand takes only the flags it reads: --tol is l-moment's,
shifted-moment's and large-values', --seed rand-model's (the config-file keys
`tol` and `seed` stay valid everywhere, one file serving every subcommand).
The worker count (--workers, THETAMOMENTS_WORKERS, the `workers` config key)
is accepted and validated by every subcommand and then ignored: every
computation runs in order on the calling thread.  The JSON envelope still
echoes the resolved value so existing config files and scripts stay valid.

Reports are written into the output directory as <subcommand>.<ext> and
echoed to stdout.  CSV output is byte-identical across runs: no timestamps,
repr-formatted floats, sorted `# key=value` header comments, and no worker
count.  JSON output wraps the payload in a ReportEnvelope, which carries a
timestamp by design; its payload alone is reproducible.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__  # noqa: F401  (version surfaced via --version)
from .bounds import bound_profile, cos_sum_check, cutoff_exponent, large_value_bound
from .characters import L_FAMILIES, THETA_FAMILIES, build_group
from .errors import DomainError, PrecisionError
from .lfunc import central_moment, large_value_counts, shifted_moment
from .numtheory import sieve
from .randmodel import model_moment
from .reports import csv_text, fmt, make_envelope, moment_csv
from .theta import mellin_checks, theta_moment

WORKERS_ENV = "THETAMOMENTS_WORKERS"

_CONFIG_KEYS = ("tol", "workers", "output_dir", "format", "seed")


@dataclass(frozen=True)
class RunConfig:
    """Shared run settings; per-command parameters stay on the arg namespace."""

    tol: float = 1e-10
    workers: int | None = None  # ignored; None echoes os.cpu_count()
    output_dir: str = "."
    format: str = "csv"
    seed: int = 1

    def resolved_workers(self) -> int:
        return self.workers if self.workers is not None else (os.cpu_count() or 1)

    def validate(self) -> "RunConfig":
        if not self.tol > 0:
            raise DomainError("tol must be > 0")
        if self.workers is not None and self.workers < 1:
            raise DomainError("workers must be >= 1")
        if self.format not in ("csv", "json"):
            raise DomainError(f"format must be csv or json; got {self.format!r}")
        return self


def load_config(path: str) -> RunConfig:
    """Parse a key=value config file; unknown keys and bad lines are errors."""
    overrides: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                if key == "tol":
                    overrides[key] = float(value)
                elif key in ("workers", "seed"):
                    overrides[key] = int(value)
                else:
                    overrides[key] = value
            except ValueError:
                raise DomainError(f"{path}:{lineno}: bad value {value!r} for {key}")
    return RunConfig(**overrides).validate()


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            cfg = replace(cfg, workers=int(env))
        except ValueError:
            raise DomainError(f"{WORKERS_ENV} must be an integer; got {env!r}")
    for key in ("tol", "workers", "format", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            cfg = replace(cfg, **{key: val})
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, output_dir=args.out)
    return cfg.validate()


def _parse_shifts(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _parse_range(text: str) -> tuple[int, int]:
    a, _, b = text.partition(":")
    return int(a), int(b)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (csv text, json payload, meta), csv text
# None for a JSON-only report


def _cmd_char_table(args, cfg):
    group = build_group(args.q)
    rows = []
    for i in range(len(group)):
        chi = group.char(i)
        rows.append((i, ";".join(str(e) for e in chi.exponents) or "-",
                     chi.parity, chi.conductor, 1 if chi.is_primitive else 0))
    meta = {"command": "char-table", "q": args.q}
    columns = ("index", "exponents", "parity", "conductor", "primitive")
    payload = [{"index": r[0], "exponents": list(group.char(r[0]).exponents),
                "parity": r[2], "conductor": r[3], "primitive": bool(r[4])}
               for r in rows]
    return csv_text(columns, rows, meta), payload, meta


def _cmd_theta_moment(args, cfg):
    rep = theta_moment(args.q, args.k, args.parity, args.eps)
    meta = {"command": "theta-moment", "q": args.q, "k": args.k,
            "parity": args.parity, "eps": args.eps}
    return moment_csv([rep], meta), rep, meta


def _cmd_theta_scan(args, cfg):
    lo, hi = args.prime_range
    if not 3 <= lo <= hi:
        raise DomainError("prime range must satisfy 3 <= A <= B")
    table = sieve(hi)
    reps = [theta_moment(int(p), args.k, args.parity, args.eps)
            for p in table.primes_in(lo, hi)]
    meta = {"command": "theta-scan", "prime_range": f"{lo}:{hi}", "k": args.k,
            "parity": args.parity, "eps": args.eps}
    return moment_csv(reps, meta), reps, meta


def _cmd_l_moment(args, cfg):
    rep = central_moment(args.q, args.k, tol=cfg.tol)
    meta = {"command": "l-moment", "q": args.q, "k": args.k, "tol": cfg.tol}
    return moment_csv([rep], meta), rep, meta


def _cmd_shifted_moment(args, cfg):
    rep = shifted_moment(args.q, args.shifts, tol=cfg.tol, family=args.family)
    meta = {"command": "shifted-moment", "q": args.q,
            "shifts": ",".join(fmt(t) for t in args.shifts),
            "family": args.family, "tol": cfg.tol}
    return moment_csv([rep], meta), rep, meta


def _cmd_large_values(args, cfg):
    if args.vsteps < 1:
        raise DomainError(f"--vsteps must be >= 1; got {args.vsteps}")
    for flag, v in (("--vmin", args.vmin), ("--vmax", args.vmax)):
        if not np.isfinite(v):
            raise DomainError(f"{flag} must be finite (not NaN or infinite); got {v}")
    if args.vmin > args.vmax:
        raise DomainError(f"--vmin must be <= --vmax; got {args.vmin} > {args.vmax}")
    grid = np.linspace(args.vmin, args.vmax, args.vsteps)
    hist = large_value_counts(args.q, args.shifts, grid, tol=cfg.tol, family=args.family)
    meta = {"command": "large-values", "q": args.q,
            "shifts": ",".join(fmt(t) for t in hist.shifts),
            "family": args.family, "tol": cfg.tol}
    columns = ("q", "v", "count", "family", "family_size", "flagged", "eps")
    rows = [(hist.q, float(v), int(c), hist.family, hist.family_size,
             hist.flagged, hist.eps) for v, c in zip(hist.v_grid, hist.counts)]
    return csv_text(columns, rows, meta), hist, meta


def _cmd_mellin_check(args, cfg):
    for flag, v in (("--height", args.height), ("--step", args.step)):
        if not 0 < v < np.inf:
            raise DomainError(f"{flag} must be positive and finite; got {v}")
    group = build_group(args.q)
    idx = np.flatnonzero(group.family_mask("even"))
    if not idx.size:
        raise DomainError(f"q = {args.q} has no even primitive characters")
    results = mellin_checks(args.q, [group.char(int(i)) for i in idx], args.height, args.step)
    meta = {"command": "mellin-check", "q": args.q, "height": args.height,
            "step": args.step}
    columns = ("q", "char_index", "series_re", "series_im", "quadrature_re",
               "quadrature_im", "residual", "height", "step", "tail_bound")
    rows = [(r.q, r.char_index, r.series.real, r.series.imag,
             r.quadrature.real, r.quadrature.imag, r.residual, r.height,
             r.step, r.tail_bound) for r in results]
    return csv_text(columns, rows, meta), results, meta


def _cmd_bound_eval(args, cfg):
    if args.k is not None and len(args.shifts) != 2 * args.k:
        raise DomainError(f"--k {args.k} expects {2 * args.k} shifts; got {len(args.shifts)}")
    prof = bound_profile(args.q, args.shifts, eps=args.eps)
    payload = {
        "q": prof.q,
        "shifts": list(prof.shifts),
        "k": prof.k,
        "w": prof.w,
        "eps": prof.eps,
        "pairs": [asdict(p) for p in prof.pairs],
        "moment_bound": prof.moment_bound,
    }
    if args.V is not None:
        payload["cutoff_exponent"] = cutoff_exponent(args.V, prof.w, prof.k)
        payload["large_value_bound"] = asdict(
            large_value_bound(args.q, args.V, prof.w, prof.k))
    meta = {"command": "bound-eval", "q": args.q,
            "shifts": ",".join(fmt(t) for t in prof.shifts), "eps": args.eps}
    return None, payload, meta  # JSON-only report


def _cmd_lemma_cos(args, cfg):
    table = sieve(args.z)
    rows = []
    for a in args.a:
        lhs, rhs, margin = cos_sum_check(args.z, a, table=table)
        rows.append((a, lhs, rhs, margin))
    meta = {"command": "lemma-cos", "z": args.z}
    columns = ("a", "lhs", "rhs", "margin")
    payload = [{"a": a, "lhs": l, "rhs": r, "margin": m} for a, l, r, m in rows]
    return csv_text(columns, rows, meta), payload, meta


def _cmd_rand_model(args, cfg):
    est = model_moment(args.q, args.k, args.samples, seed=cfg.seed, eps=args.eps)
    meta = {"command": "rand-model", "q": args.q, "k": args.k,
            "samples": args.samples, "seed": cfg.seed, "eps": args.eps}
    return None, est, meta  # JSON-only report


_HANDLERS = {
    "char-table": _cmd_char_table,
    "theta-moment": _cmd_theta_moment,
    "theta-scan": _cmd_theta_scan,
    "l-moment": _cmd_l_moment,
    "shifted-moment": _cmd_shifted_moment,
    "large-values": _cmd_large_values,
    "mellin-check": _cmd_mellin_check,
    "bound-eval": _cmd_bound_eval,
    "lemma-cos": _cmd_lemma_cos,
    "rand-model": _cmd_rand_model,
}


@functools.cache  # built on the first run, reused by later runs in the process
def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--workers", type=int, help="accepted and ignored; echoed "
                        f"in JSON (flag beats the {WORKERS_ENV} environment variable)")
    shared.add_argument("--out", help="output directory for report files")
    shared.add_argument("--format", choices=("csv", "json"), help="report format")
    shared.add_argument("--config", help="key=value config file")
    tol_parent = argparse.ArgumentParser(add_help=False)
    tol_parent.add_argument("--tol", type=float, help="precision target for L-values")

    p = argparse.ArgumentParser(prog="thetamoments",
                                description="theta and L-function moment reports")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("char-table", parents=[shared],
                        help="character table mod q")
    sp.add_argument("--q", type=int, required=True)

    sp = sub.add_parser("theta-moment", parents=[shared],
                        help="S_2k(q) over one parity family")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--parity", choices=THETA_FAMILIES, required=True)
    sp.add_argument("--eps", type=float, default=1e-12)

    sp = sub.add_parser("theta-scan", parents=[shared],
                        help="theta moment row per prime in a range")
    sp.add_argument("--prime-range", type=_parse_range, required=True,
                    metavar="A:B")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--parity", choices=THETA_FAMILIES, default="even")
    sp.add_argument("--eps", type=float, default=1e-12)

    sp = sub.add_parser("l-moment", parents=[shared, tol_parent],
                        help="central moment over primitive characters")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser("shifted-moment", parents=[shared, tol_parent],
                        help="moment at a tuple of critical-line shifts")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--shifts", type=_parse_shifts, required=True,
                    metavar="t1,...,t2k")
    sp.add_argument("--family", choices=L_FAMILIES, default="star")

    sp = sub.add_parser("large-values", parents=[shared, tol_parent],
                        help="large-value counts over a V grid")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--shifts", type=_parse_shifts, required=True,
                    metavar="t1,...,t2k")
    sp.add_argument("--vmin", type=float, required=True)
    sp.add_argument("--vmax", type=float, required=True)
    sp.add_argument("--vsteps", type=int, required=True)
    sp.add_argument("--family", choices=L_FAMILIES, default="nonquadratic")

    sp = sub.add_parser("mellin-check", parents=[shared],
                        help="series vs Mellin quadrature, even primitive chi")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--height", type=float, default=8.0)
    sp.add_argument("--step", type=float, default=1 / 64)

    sp = sub.add_parser("bound-eval", parents=[shared],
                        help="kernel/bound profile for one shift tuple (JSON)")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--shifts", type=_parse_shifts, required=True,
                    metavar="t1,...,t2k")
    sp.add_argument("--k", type=int, help="expected k; checked against shifts")
    sp.add_argument("--V", type=float, help="evaluate the large-value bound at V")
    sp.add_argument("--eps", type=float, default=0.1,
                    help="epsilon knob in (log q)^{k/2+eps}")

    sp = sub.add_parser("lemma-cos", parents=[shared],
                        help="prime cosine sum vs Mertens main term")
    sp.add_argument("--z", type=int, required=True)
    sp.add_argument("--a", type=_parse_shifts, required=True,
                    metavar="a1,a2,...")

    sp = sub.add_parser("rand-model", parents=[shared],
                        help="Steinhaus Monte-Carlo moment estimate (JSON)")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--eps", type=float, default=1e-12)
    sp.add_argument("--seed", type=int, help="first per-sample seed")

    return p


def _emit(name: str, text: str, ext: str, cfg: RunConfig) -> None:
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, f"{name}.{ext}")
    with open(path, "w") as fh:
        fh.write(text)
    sys.stdout.write(text)


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = _resolve_config(args)
        csv_out, payload, meta = _HANDLERS[args.command](args, cfg)
        if cfg.format == "json" or csv_out is None:
            config_snapshot = {**asdict(cfg), "workers": cfg.resolved_workers(),
                               **{k: v for k, v in meta.items() if k != "command"}}
            env = make_envelope(["thetamoments", *argv], config_snapshot, payload)
            _emit(args.command, env.to_json(), "json", cfg)
        else:
            _emit(args.command, csv_out, "csv", cfg)
        return 0
    except DomainError as e:
        print(f"thetamoments: error: {e}", file=sys.stderr)
        return 2
    except PrecisionError as e:
        print(f"thetamoments: precision: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # computation failure, not usage
        print(f"thetamoments: failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
