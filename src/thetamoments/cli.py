"""Command-line front end: one subcommand per report family.

Subcommands: char-table, theta-moment, theta-scan, l-moment, shifted-moment,
large-values, mellin-check, bound-eval, lemma-cos, rand-model.

Configuration precedence is defaults < config file (--config, key=value
lines) < THETAMOMENTS_WORKERS environment variable < flags.  Exit codes:
0 success, 2 usage/domain error (unparsable, non-finite or out-of-range
flags), 1 computation error (unreachable precision, unexpected failure).

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
import re
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .bounds import (MAX_COS_A, bound_profile, cos_sum_check, cutoff_exponent,
                     large_value_bound)
from .characters import L_FAMILIES, THETA_FAMILIES, build_group
from .errors import DomainError, PrecisionError
from .lfunc import MAX_SHIFT, central_moment, large_value_counts, shifted_moment
from .numtheory import sieve
from .randmodel import MIN_SAMPLES, model_moment
from .reports import TOOL_NAME, csv_text, fmt, make_envelope, moment_csv
from .theta import mellin_checks, mellin_steps, theta_moment, theta_normalization

WORKERS_ENV = "THETAMOMENTS_WORKERS"
# the size envelope: each flag outside [floor, cap] is refused by name before anything is
# allocated; --q's floor is the library's: 17 for bound-eval, 1 where only a group is built
_Q_FLOORS = {"bound-eval": 17, "char-table": 1, "mellin-check": 1}  # else 3
MAX_VSTEPS = 2 ** 16  # large-values V grid points, each a CSV row
MAX_PHI = 2 ** 23  # phi(q), about 0.8 GB at 80-90 B per unit; phi(q) < q, so q <= MAX_PHI + 1
MAX_TABLE_Q = 2 ** 20  # char-table's q: about 600 B per character (CSV), 1.9 KB (JSON)
MAX_SAMPLES = 2 ** 23  # rand-model samples, about 100 B each
MAX_SCAN_PRIMES = 2 ** 16  # theta-scan rows, one moment per prime
MAX_COS_Z = 2 ** 28  # lemma-cos sieve bound, 2-3 B per unit at its peak
MAX_COS_TERMS = 2 ** 32  # len(a) * z: one cosine sum over the primes up to z per value
MAX_SHIFT_COLUMNS = 2 ** 26  # len(shifts) * q: one |L| column per shift, 8-16 B per unit of phi


@dataclass(frozen=True)
class RunConfig:
    """Shared run settings; per-command parameters stay on the arg namespace."""

    tol: float = 1e-10
    workers: int | None = None  # ignored; None echoes os.cpu_count()
    output_dir: str = "."
    format: str = "csv"
    seed: int = 1

    def validate(self) -> "RunConfig":
        if not 0 < self.tol < np.inf:
            raise DomainError(f"tol must be positive and finite; got {self.tol}")
        if self.workers is not None and self.workers < 1:
            raise DomainError("workers must be >= 1")
        if self.format not in ("csv", "json"):
            raise DomainError(f"format must be csv or json; got {self.format!r}")
        return self


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


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
                overrides[key] = {"tol": float, "workers": int, "seed": int}.get(key, str)(value)
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
    for key in ("tol", "eps", "vmin", "vmax", "V", "a", "shifts", "workers", "format", "seed"):
        val = getattr(args, key, None)
        for x in val if isinstance(val, tuple) else (val,):  # refused by its flag name
            if isinstance(x, float) and not np.isfinite(x):
                raise DomainError(f"--{key} must be finite (not NaN or infinite); got {x}")
            if key == "a" and val is not None and abs(x) > MAX_COS_A:  # before the sieve
                raise DomainError(f"--a must satisfy |a| <= {MAX_COS_A:g}; got {x}")
        if val is not None and key in _CONFIG_KEYS:
            cfg = replace(cfg, **{key: val})
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, output_dir=args.out)
    return cfg.validate()


def _check_sizes(args: argparse.Namespace) -> None:
    """Refuse a size flag below its floor or past its cap by name (the
    envelope above): --q's cap by q - 1 >= phi(q), so no q is factorized or
    sieved first; more --a values than MAX_COS_TERMS holds in sums over z,
    before the sieve; a shift past the L-value window, an odd shift count, or
    more shifts than MAX_SHIFT_COLUMNS holds in columns of q entries, by
    --shifts."""
    limits = {"q": (_Q_FLOORS.get(args.command, 3),
                    MAX_TABLE_Q if args.command == "char-table" else MAX_PHI + 1),
              "vsteps": (1, MAX_VSTEPS), "samples": (MIN_SAMPLES, MAX_SAMPLES), "z": (3, MAX_COS_Z)}
    for key, (floor, cap) in limits.items():
        val = getattr(args, key, None)
        if val is not None and not floor <= val <= cap:
            bound = f">= {floor}" if val < floor else f"<= {cap}"
            raise DomainError(f"--{key} must be {bound}; got {val}")
    if args.command == "lemma-cos" and len(args.a) * args.z > MAX_COS_TERMS:
        raise DomainError(f"--a must hold at most {MAX_COS_TERMS // args.z} values at "
                          f"z = {args.z}; got {len(args.a)}")
    shifts = getattr(args, "shifts", None)
    if shifts is None:
        return
    evaluates_l = args.command != "bound-eval"  # bound-eval evaluates no L: no window, no column cap
    if evaluates_l and max(map(abs, shifts)) > MAX_SHIFT:
        raise DomainError(f"--shifts must satisfy |t| <= {MAX_SHIFT:g}; "
                          f"got {','.join(f'{t:g}' for t in shifts)}")
    if len(shifts) % 2:
        raise DomainError(f"--shifts must hold an even number of values, at least 2; "
                          f"got {len(shifts)}")
    if evaluates_l and len(shifts) * args.q > MAX_SHIFT_COLUMNS:
        raise DomainError(f"--shifts must hold at most {MAX_SHIFT_COLUMNS // args.q} shifts at "
                          f"q = {args.q}; got {len(shifts)}")


def _parse_shifts(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers; got {text!r}") from None


def _parse_range(text: str) -> tuple[int, int]:
    a, _, b = text.partition(":")
    try:
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers A:B; got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (csv text, json payload, meta), csv text
# None for a JSON-only report


def _cmd_char_table(args, cfg):
    g = build_group(args.q)  # every column read off the group's tables
    cols = (range(g.phi), np.indices(g.structure.dims).reshape(-1, g.phi).T.tolist(),
            [("even", "odd")[b] for b in g.parity_bits.tolist()], g.conductors.tolist(),
            g.primitive_mask.tolist())
    columns = ("index", "exponents", "parity", "conductor", "primitive")
    payload = [dict(zip(columns, r)) for r in zip(*cols)]
    rows = ((i, ";".join(map(str, e)) or "-", p, c, int(m)) for i, e, p, c, m in zip(*cols))
    meta = {"command": args.command, "q": args.q}
    return csv_text(columns, rows, meta), payload, meta


def _cmd_theta_moment(args, cfg):
    rep = theta_moment(args.q, args.k, args.parity, args.eps)
    meta = {"command": args.command, "q": args.q, "k": args.k,
            "parity": args.parity, "eps": args.eps}
    return moment_csv([rep], meta), rep, meta


def _cmd_theta_scan(args, cfg):
    lo, hi = args.prime_range
    if not 3 <= lo <= hi:
        raise DomainError(f"--prime-range must satisfy 3 <= A <= B; got {lo}:{hi}")
    if hi > MAX_PHI + 1:  # the sieve and every prime's group within the envelope
        raise DomainError(f"--prime-range must satisfy B <= {MAX_PHI + 1}; got {lo}:{hi}")
    primes = sieve(hi).primes_in(lo, hi)
    if primes.size > MAX_SCAN_PRIMES:
        raise DomainError(f"--prime-range must hold at most {MAX_SCAN_PRIMES} primes; "
                          f"got {primes.size} in {lo}:{hi}")
    if primes.size:  # the normalization grows with q: refused at the largest prime first
        p = int(primes[-1])
        theta_normalization(p, args.k, args.parity, p - 1)
    reps = [theta_moment(int(p), args.k, args.parity, args.eps) for p in primes]
    meta = {"command": args.command, "prime_range": f"{lo}:{hi}", "k": args.k,
            "parity": args.parity, "eps": args.eps}
    return moment_csv(reps, meta), reps, meta


def _cmd_l_moment(args, cfg):
    rep = central_moment(args.q, args.k, tol=cfg.tol)
    meta = {"command": args.command, "q": args.q, "k": args.k, "tol": cfg.tol}
    return moment_csv([rep], meta), rep, meta


def _cmd_shifted_moment(args, cfg):
    rep = shifted_moment(args.q, args.shifts, tol=cfg.tol, family=args.family)
    meta = {"command": args.command, "q": args.q,
            "shifts": ",".join(fmt(t) for t in args.shifts),
            "family": args.family, "tol": cfg.tol}
    return moment_csv([rep], meta), rep, meta


def _cmd_large_values(args, cfg):
    if args.vmin > args.vmax:
        raise DomainError(f"--vmin must be <= --vmax; got {args.vmin} > {args.vmax}")
    if not np.isfinite(args.vmax - args.vmin):  # else linspace's step overflows
        raise DomainError(f"--vmin and --vmax must be at most {sys.float_info.max:g} apart; "
                          f"got {args.vmin} and {args.vmax}")
    grid = np.linspace(args.vmin, args.vmax, args.vsteps)
    hist = large_value_counts(args.q, args.shifts, grid, tol=cfg.tol, family=args.family)
    meta = {"command": args.command, "q": args.q,
            "shifts": ",".join(fmt(t) for t in hist.shifts),
            "family": args.family, "tol": cfg.tol}
    columns = ("q", "v", "count", "family", "family_size", "flagged", "eps")
    rows = [(hist.q, float(v), int(c), hist.family, hist.family_size,
             hist.flagged, hist.eps) for v, c in zip(hist.v_grid, hist.counts)]
    return csv_text(columns, rows, meta), hist, meta


def _cmd_mellin_check(args, cfg):
    mellin_steps(args.height, args.step, ("--height", "--step"))  # refused before any allocation
    group = build_group(args.q)
    idx = np.flatnonzero(group.family_mask("even"))
    if not idx.size:
        raise DomainError(f"q = {args.q} has no even primitive characters")
    results = mellin_checks(args.q, [group.char(int(i)) for i in idx], args.height, args.step)
    meta = {"command": args.command, "q": args.q, "height": args.height, "step": args.step}
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
    payload = {**asdict(prof), "shifts": list(prof.shifts)}
    if args.V is not None:
        payload["cutoff_exponent"] = cutoff_exponent(args.V, prof.w, prof.k)
        payload["large_value_bound"] = asdict(
            large_value_bound(args.q, args.V, prof.w, prof.k))
    meta = {"command": args.command, "q": args.q,
            "shifts": ",".join(fmt(t) for t in prof.shifts), "eps": args.eps}
    return None, payload, meta  # JSON-only report


def _cmd_lemma_cos(args, cfg):
    table = sieve(args.z)
    rows = [(a, *cos_sum_check(args.z, a, table=table)) for a in args.a]
    meta = {"command": args.command, "z": args.z}
    columns = ("a", "lhs", "rhs", "margin")
    payload = [{"a": a, "lhs": l, "rhs": r, "margin": m} for a, l, r, m in rows]
    return csv_text(columns, rows, meta), payload, meta


def _cmd_rand_model(args, cfg):
    if cfg.seed < 0:
        raise DomainError(f"--seed must be >= 0; got {cfg.seed}")
    est = model_moment(args.q, args.k, args.samples, seed=cfg.seed, eps=args.eps)
    meta = {"command": args.command, "q": args.q, "k": args.k,
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


class _SubcommandParser(argparse.ArgumentParser):
    """Reports an argument the subcommand does not take with its own usage,
    and takes a token such as -1,1 or -1e-3 as the preceding flag's value:
    no flag of ours starts with a digit or a dot."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


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
    # a parent's flags come before a subcommand's own: each is a parent only where it leads
    q_parent = argparse.ArgumentParser(add_help=False)
    q_parent.add_argument("--q", type=int, required=True)
    k_parent = argparse.ArgumentParser(add_help=False)
    k_parent.add_argument("--k", type=int, required=True)
    shifts_parent = argparse.ArgumentParser(add_help=False)
    shifts_parent.add_argument("--shifts", type=_parse_shifts, required=True, metavar="t1,...,t2k")

    p = argparse.ArgumentParser(prog=TOOL_NAME,
                                description="theta and L-function moment reports")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    sub.add_parser("char-table", parents=[shared, q_parent], help="character table mod q")

    sp = sub.add_parser("theta-moment", parents=[shared, q_parent, k_parent],
                        help="S_2k(q) over one parity family")
    sp.add_argument("--parity", choices=THETA_FAMILIES, required=True)
    sp.add_argument("--eps", type=float, default=1e-12)

    sp = sub.add_parser("theta-scan", parents=[shared],
                        help="theta moment row per prime in a range")
    sp.add_argument("--prime-range", type=_parse_range, required=True,
                    metavar="A:B")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--parity", choices=THETA_FAMILIES, default="even")
    sp.add_argument("--eps", type=float, default=1e-12)

    sub.add_parser("l-moment", parents=[shared, tol_parent, q_parent, k_parent],
                   help="central moment over primitive characters")

    sp = sub.add_parser("shifted-moment", parents=[shared, tol_parent, q_parent, shifts_parent],
                        help="moment at a tuple of critical-line shifts")
    sp.add_argument("--family", choices=L_FAMILIES, default="star")

    sp = sub.add_parser("large-values", parents=[shared, tol_parent, q_parent, shifts_parent],
                        help="large-value counts over a V grid")
    sp.add_argument("--vmin", type=float, required=True)
    sp.add_argument("--vmax", type=float, required=True)
    sp.add_argument("--vsteps", type=int, required=True)
    sp.add_argument("--family", choices=L_FAMILIES, default="nonquadratic")

    sp = sub.add_parser("mellin-check", parents=[shared, q_parent],
                        help="series vs Mellin quadrature, even primitive chi")
    sp.add_argument("--height", type=float, default=8.0)
    sp.add_argument("--step", type=float, default=1 / 64)

    sp = sub.add_parser("bound-eval", parents=[shared, q_parent, shifts_parent],
                        help="kernel/bound profile for one shift tuple (JSON)")
    sp.add_argument("--k", type=int, help="expected k; checked against shifts")
    sp.add_argument("--V", type=float, help="evaluate the large-value bound at V")
    sp.add_argument("--eps", type=float, default=0.1,
                    help="epsilon knob in (log q)^{k/2+eps}")

    sp = sub.add_parser("lemma-cos", parents=[shared],
                        help="prime cosine sum vs Mertens main term")
    sp.add_argument("--z", type=int, required=True)
    sp.add_argument("--a", type=_parse_shifts, required=True,
                    metavar="a1,a2,...")

    sp = sub.add_parser("rand-model", parents=[shared, q_parent, k_parent],
                        help="Steinhaus Monte-Carlo moment estimate (JSON)")
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
        _check_sizes(args)
        csv_out, payload, meta = _HANDLERS[args.command](args, cfg)
        if cfg.format == "json" or csv_out is None:
            config_snapshot = {**asdict(cfg), "workers": cfg.workers or os.cpu_count() or 1,
                               **{k: v for k, v in meta.items() if k != "command"}}
            env = make_envelope([TOOL_NAME, *argv], config_snapshot, payload)
            _emit(args.command, env.to_json(), "json", cfg)
        else:
            _emit(args.command, csv_out, "csv", cfg)
        return 0
    except DomainError as e:
        print(f"{TOOL_NAME}: error: {e}", file=sys.stderr)
        return 2
    except PrecisionError as e:
        print(f"{TOOL_NAME}: precision: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # computation failure, not usage
        print(f"{TOOL_NAME}: failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
