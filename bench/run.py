"""thetamoments benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload theta_scan --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from anywhere; the checkout root is the parent of this directory.  The
package is imported from the checkout's src/ (it need not be installed).
Each run spawns set-up-only children, then one fresh child per pass of the
workload for --seconds (see child.py).  Set-up time is the median, over all
of these children, of spawn -> `thetamoments.cli` imported.  Everything written goes under
.bench_out/ in the checkout: result records, trace trees, scratch reports.

The last line of stdout is the JSON result; the lines before it are a
readable summary with the environment of the run.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_ONLY_SAMPLES = 8  # plus one set-up sample per pass
MIN_PASSES = 2  # the replay checks compare passes
RUN_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, build  # noqa: E402


def spawn(env, *args):
    """Start a child; return (process, seconds from spawn to its READY line)."""
    t0 = time.perf_counter()
    with open(OUT / "child-stderr.txt", "w") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE, stderr=err, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child did not start: {(OUT / 'child-stderr.txt').read_text()[-2000:]}")
    return proc, ready


def finish(proc, timeout):
    """Wait for a child; return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("child timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: "
                           f"{(OUT / 'child-stderr.txt').read_text()[-2000:]}")
    return out


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "commit": commit}


def run_workload(name, seed, seconds, trace, env):
    """Set-up samples, then one fresh child per pass, all within `seconds`.

    In traced mode plain and traced passes alternate.  The first pass also runs
    the output checks; its check time is left out of the pass-time estimate
    that decides whether another pass fits.
    """
    start = time.perf_counter()
    finish(spawn(env, "--setup-only")[0], 60)  # warm-up: byte-compiles src/ on a fresh checkout
    setups = []  # (seconds to READY, host slowdown)
    for _ in range(SETUP_ONLY_SAMPLES):
        proc, ready = spawn(env, "--setup-only")
        setups.append((ready, float(finish(proc, 60))))
    passes = []
    while True:
        traced = bool(trace) and sum(p["traced"] for p in passes) < sum(not p["traced"] for p in passes)
        if len(passes) >= MIN_PASSES:
            same = [p["pass_s"] for p in passes if p["traced"] == traced]
            if time.perf_counter() - start + statistics.mean(same) > seconds:
                break
        result_file = OUT / "pass-result.json"
        result_file.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc, ready = spawn(env, "--workload", name, "--seed", str(seed), "--trace", str(int(traced)),
                            *(() if passes else ("--check",)),
                            "--out", str(OUT), "--result", str(result_file))
        finish(proc, RUN_TIMEOUT_S - (time.perf_counter() - start))
        p = json.loads(result_file.read_text())
        setups.append((ready, p["slowdown_wall"]))
        p["traced"] = traced
        p["pass_s"] = time.perf_counter() - t0 - p.get("check_s", 0.0)
        passes.append(p)
    return {"workload": name, "seed": seed, "setup_s": setups, "passes": passes}


def score(res):
    """Mark failed checks and replay mismatches, then score every pass.

    A request fails when it exits non-zero without a precision refusal, fails
    a check on the first pass, or gives another output in a later pass than
    in the first.  A failed request counts as failed in every pass.
    """
    first, *later = res["passes"]
    bad = {int(i): why for i, why in first["check_failures"].items()}
    for n, p in enumerate(later, start=1):
        for i, (a, b) in enumerate(zip(first["fingerprints"], p["fingerprints"])):
            if a != b:
                bad.setdefault(i, f"output of pass {n} differs from the first pass")
    res["check_failures"] = {str(i): why for i, why in sorted(bad.items())}
    for p in res["passes"]:
        statuses = ["failed" if s == "ok" and i in bad else s for i, s in enumerate(p["statuses"])]
        values = sum(v for s, v in zip(statuses, p["values"]) if s == "ok")
        p.update(attempted=len(statuses), refused=statuses.count("refused"),
                 failed=statuses.count("failed"), delivered=values,
                 goodput_raw=values / p["wall_s"],
                 goodput=values * p["slowdown_wall"] / p["wall_s"],
                 cpu_us_per_value_raw=p["cpu_s"] * 1e6 / max(values, 1),
                 cpu_us_per_value=p["cpu_s"] / p["slowdown_cpu"] * 1e6 / max(values, 1))
        if "layers" in p:
            points = p["layers"].get("characters.transform.points", 0)
            p["layers"]["characters.transform.used_frac"] = values / points if points else 0.0


def summarise(res, spec, trace):
    passes = res["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    refused = sum(p["refused"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        layers = {n: statistics.median(p["layers"].get(n, 0) for p in traced)
                  for n in set().union(*(p["layers"] for p in traced))}
        layers["trace.overhead_frac"] = 1 - (statistics.median(p["goodput"] for p in traced)
                                             / statistics.median(p["goodput"] for p in plain))
        res["layers"] = layers
        metrics = {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]}
        counts = {m["name"]: len(traced) for m in spec["per_layer"]}
    else:
        metrics = {
            "goodput": statistics.median(p["goodput"] for p in plain),
            "cpu_us_per_value": statistics.median(p["cpu_us_per_value"] for p in plain),
            "setup_s": statistics.median(ready / slow for ready, slow in res["setup_s"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "ok_frac": (attempted - refused - failed) / attempted,
        }
        counts = {"goodput": len(plain), "cpu_us_per_value": len(plain),
                  "setup_s": len(res["setup_s"]), "peak_rss_mb": len(plain), "ok_frac": attempted}
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines = [f"{res['workload']} seed={res['seed']} passes={len(plain)} untraced"
             + (f" + {len(traced)} traced" if trace else "")
             + f" wall_s={sum(p['wall_s'] for p in plain):.3f}"
             + f" raw_goodput={statistics.median(p['goodput_raw'] for p in plain):.6g}/s"
             + f" raw_cpu_us_per_value={statistics.median(p['cpu_us_per_value_raw'] for p in plain):.6g}"
             + f" raw_setup_s={statistics.median(ready for ready, _ in res['setup_s']):.6g}"
             + f" fail_frac={(refused + failed) / attempted:.4f}"
             + f" (refused {refused}, failed {failed} of {attempted} requests)"]
    lines += [f"  {n:<44} {v:>16.6g} {units[n]:<10} n={counts[n]}" for n, v in metrics.items()]
    lines += [f"  check failed: request {i} {' '.join(res['requests'][int(i)])}: {why}"
              for i, why in res["check_failures"].items()]
    out = {"correct": not res["check_failures"], "attempted": attempted, "failed": failed,
           "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    return lines, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "thetamoments" / "cli.py").is_file():
        print(f"bench: no thetamoments sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    info = environment()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "THETAMOMENTS_WORKERS": str(info["nproc"]), "TMPDIR": str(OUT / "tmp")}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, env)
            res["requests"] = [list(r) for r in build(name, args.seed).requests]
            score(res)
            res.update(info, numpy=res["passes"][0]["numpy"])
            lines, results[name] = summarise(res, spec, args.trace)
            print("\n".join(lines))
            record = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.parent.mkdir(exist_ok=True)
            record.write_text(json.dumps({**res, "result": results[name]}, indent=1))
    except (RuntimeError, OSError, ValueError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "tmp", ignore_errors=True)
    print(f"env: nproc={info['nproc']} cpu_count={info['cpu_count']} python={info['python']} "
          f"numpy={res['numpy']} commit={info['commit']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
