"""Output checks, run in the first pass child after its timed pass.

Each check inspects the outputs of one pass and returns the indices of the
requests whose output is wrong, with a reason.  A failed check turns its
request into a failed request, so it counts against ok_frac and the run
reports correct = false.  The shift-(0,0) identity makes its extra CLI
calls here, outside the timed region.

Tolerances come from the request's own eps / tol: every theta or L value is
certified to within e = eps (theta) or tol (L), so a moment
S = sum_{chi in F} |v_chi|^{2k} over n = |F| values moves by at most
2k e S^{(2k-1)/(2k)} n^{1/(2k)} (Hoelder); comparing two such results doubles
it, and 1e-12 S covers the float reductions of both sides.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import L_MODULI

REFS = json.loads((Path(__file__).with_name("refs.json")).read_text())
# |estimate - sum w^2| is allowed 5 standard errors, not 3: at 3 a correct
# program fails one run in about 370, which a few dozen runs would hit.
RAND_SE_LIMIT = 5.0


def moment_tol(raw: float, n: int, k: int, e: float) -> float:
    if n == 0:
        return 0.0
    return 2 * 2 * k * e * raw ** ((2 * k - 1) / (2 * k)) * n ** (1 / (2 * k)) + 1e-12 * raw


def _rows_match_refs(argv, rows) -> str | None:
    ref = REFS.get(" ".join(argv))
    if ref is None:
        return None
    if len(rows) != len(ref):
        return f"{len(rows)} rows, reference has {len(ref)}"
    for row, (q, k, size, raw) in zip(rows, ref):
        if (int(row["q"]), int(row["k"]), int(row["family_size"])) != (q, k, size):
            return f"row q={row['q']} k={row['k']} size={row['family_size']} != reference {q} {k} {size}"
        got = float(row["raw"])
        if abs(got - raw) > moment_tol(raw, size, k, float(row["eps"])):
            return f"q={q} raw {got!r} vs reference {raw!r}"
    return None


# ---------------------------------------------------------------------------
# theta_scan


def parseval_raw(q: int, parity: str) -> float:
    """sum over the parity family mod prime q of |theta(1, chi)|^2, by Parseval.

    With w(a) = sum_{n = a mod q} n^eta e^{-pi n^2 / q} and its even / odd part
    w_pm, the even characters give phi sum w_+^2 minus the trivial character's
    (sum w)^2, and the odd characters give phi sum w_-^2.
    """
    eta = 0 if parity == "even" else 1
    n = np.arange(1, math.ceil(math.sqrt(q * 60 / math.pi)) + 1)
    e = np.exp(-math.pi * n.astype(float) ** 2 / q) * (n if eta else 1)
    w = np.bincount(n % q, weights=e, minlength=q)
    part = (w + (-1) ** eta * w[(-np.arange(q)) % q]) / 2
    raw = (q - 1) * math.fsum(part[1:] ** 2)
    return raw - math.fsum(w) ** 2 if eta == 0 else raw


def check_theta(argv, parsed) -> str | None:
    _, rows = parsed
    for row in rows:
        q, k, parity = int(row["q"]), int(row["k"]), row["parity"]
        size = int(row["family_size"])
        want = (q - 1) // 2 - (1 if parity == "even" else 0)
        if size != want:
            return f"q={q} {parity} family_size {size}, expected {want}"
        if k == 1:
            raw, exact = float(row["raw"]), parseval_raw(q, parity)
            if abs(raw - exact) > moment_tol(exact, size, 1, float(row["eps"])):
                return f"q={q} {parity} k=1 raw {raw!r} vs Parseval {exact!r}"
    return _rows_match_refs(argv, rows)


# ---------------------------------------------------------------------------
# l_sweep


def _prime_family_size(cmd: str, q: int) -> int | None:
    if q not in L_MODULI:
        return None
    return q - 3 if cmd == "large-values" else q - 2  # nonquadratic / star


def check_l(argv, parsed) -> str | None:
    cmd, q = argv[0], int(argv[argv.index("--q") + 1])
    _, rows = parsed
    size = int(rows[0]["family_size"])
    want = _prime_family_size(cmd, q)
    if want is not None and size != want:
        return f"{cmd} q={q} family_size {size}, expected {want}"
    if cmd == "large-values":
        counts = [int(r["count"]) for r in rows]
        if counts[0] != size:
            return f"counts[0] = {counts[0]} != family_size {size}"
        if any(b > a for a, b in zip(counts, counts[1:])):
            return "large-value counts increase along the V grid"
        return None
    return _rows_match_refs(argv, rows)


def check_shift_zero(call, outcomes) -> dict[int, str]:
    """shifted-moment 0,0 on the star family must equal l-moment --k 1."""
    bad = {}
    for i, (argv, status, parsed) in enumerate(outcomes):
        if argv[0] != "l-moment" or argv[-1] != "1" or status == "failed":
            continue
        q = argv[argv.index("--q") + 1]
        if q == "30030":  # no primitive characters: both sides are the empty sum
            continue
        s_status, s_parsed = call(("shifted-moment", "--q", q, "--shifts", "0,0"))
        if s_status != status:
            bad[i] = f"q={q}: l-moment {status} but shifted-moment 0,0 {s_status}"
        elif status == "ok":
            lm, sm = parsed[1][0], s_parsed[1][0]
            raw, n = float(lm["raw"]), int(lm["family_size"])
            if (int(sm["family_size"]) != n
                    or abs(float(sm["raw"]) - raw) > moment_tol(raw, n, 1, float(lm["eps"]))):
                bad[i] = f"q={q}: shifted-moment 0,0 raw {sm['raw']} != l-moment k=1 raw {lm['raw']}"
    return bad


# ---------------------------------------------------------------------------
# mellin_rand


def check_mellin(argv, parsed) -> str | None:
    """Each series value against an mpmath evaluation with independently built
    character values (only the generator is taken from the package)."""
    import mpmath

    from thetamoments.numtheory import group_structure

    q = int(argv[argv.index("--q") + 1])
    _, rows = parsed
    g = group_structure(q).components[0][0]
    ind, x = {}, 1
    for m in range(q - 1):
        ind[x] = m
        x = x * g % q
    # even primitive nontrivial characters mod a prime: exponent j even, j != 0
    want = [j for j in range(2, q - 1, 2)]
    if [int(r["char_index"]) for r in rows] != want:
        return f"characters {[r['char_index'] for r in rows]}, expected {want}"
    mpmath.mp.dps = 30
    n_max = math.ceil(math.sqrt(q * 80 / math.pi))
    for row in rows:
        j = int(row["char_index"])
        exact = mpmath.fsum(
            mpmath.expjpi(mpmath.mpf(2 * j * ind[n % q]) / (q - 1)) * mpmath.exp(-mpmath.pi * n * n / q)
            for n in range(1, n_max + 1) if n % q)
        got = complex(float(row["series_re"]), float(row["series_im"]))
        if abs(got - complex(exact)) > 1e-12:  # the CLI's theta eps
            return f"chi_{j}: series {got!r} vs mpmath {complex(exact)!r}"
    return None


def _steinhaus_values(n: int, seed: int) -> np.ndarray:
    """f(1..n) of the Steinhaus sample drawn from default_rng(seed)."""
    primes = [p for p in range(2, n + 1) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    angles = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, size=len(primes))
    out = np.empty(n, dtype=complex)
    for m in range(1, n + 1):
        arg, r = 0.0, m
        for p, a in zip(primes, angles):
            while r % p == 0:
                arg += a
                r //= p
        out[m - 1] = complex(math.cos(arg), math.sin(arg))
    return out


def check_rand(argv, parsed, spot: int) -> str | None:
    from thetamoments.randmodel import sample

    p = parsed["payload"]
    q, seed = int(p["q"]), int(p["seed"])
    n = len(p["weights"])
    w = np.exp(-math.pi * np.arange(1, n + 1, dtype=float) ** 2 / q)
    if not np.allclose(p["weights"], w, rtol=1e-13, atol=0):
        return "weights differ from exp(-pi n^2 / q)"
    target = math.fsum(w ** 2)
    if abs(p["estimate"] - target) > RAND_SE_LIMIT * p["std_error"]:
        return (f"estimate {p['estimate']!r} is more than {RAND_SE_LIMIT:g} standard "
                f"errors ({p['std_error']!r}) from sum w^2 = {target!r}")
    s = sample(max(n, 2), seed + spot)
    if np.max(np.abs(s.values[1:n + 1] - _steinhaus_values(n, seed + spot))) > 1e-12:
        return f"sample {spot} differs from its independent recomputation"
    return None


# ---------------------------------------------------------------------------


def run_checks(workload, outcomes, call) -> dict[int, str]:
    """{request index: reason} for every request whose output is wrong.

    outcomes: (argv, status, parsed) per request of one pass, status in
    ok / refused / failed.  call(argv) -> (status, parsed) runs one more request.
    """
    bad = {}
    for i, (argv, status, parsed) in enumerate(outcomes):
        if status != "ok":
            continue
        cmd = argv[0]
        if cmd in ("theta-scan", "theta-moment"):
            why = check_theta(argv, parsed)
        elif cmd in ("l-moment", "shifted-moment", "large-values"):
            why = check_l(argv, parsed)
        elif cmd == "mellin-check":
            why = check_mellin(argv, parsed)
        elif cmd == "rand-model":
            why = check_rand(argv, parsed, workload.spot_sample)
        else:
            why = f"no check for {cmd}"
        if why:
            bad[i] = why
    if workload.name == "l_sweep":
        for i, why in check_shift_zero(call, outcomes).items():
            bad.setdefault(i, why)
    return bad
