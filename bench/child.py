"""Benchmark child: one fresh interpreter per pass.

It imports `thetamoments.cli` from the checkout's src/ (PYTHONPATH), prints
READY (the parent times spawn -> READY as set-up), then runs the workload's
CLI requests once, in order and in process (a *pass*), and writes a result
JSON file.  A fresh interpreter per pass means no pass can reuse what an
earlier pass left in memory.  With --setup-only it only prints the host
slowdown its probe measured right after READY, so that the parent can scale
the set-up time as it scales the pass times.

--trace 1 installs the layer wrappers before the pass and reports the layer
counters.  --check runs the output checks after the pass, outside its timed
region.
"""

import sys
import time

import thetamoments.cli as cli

sys.stdout.write("READY\n")
sys.stdout.flush()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def call(argv, out_dir):
    """Run one CLI request in process: (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run([*argv, "--out", out_dir])
    return rc, out.getvalue(), err.getvalue()


def classify(argv, rc, out, err):
    """(status, parsed output): ok, refused (PrecisionError, exit 1) or failed."""
    if rc == 0:
        try:
            parsed = json.loads(out) if argv[0] == "rand-model" else workloads.parse_csv(out)
            workloads.count_values(argv, parsed)
            return "ok", parsed
        except (ValueError, KeyError, IndexError):
            return "failed", None
    if rc == 1 and err.startswith("thetamoments: precision:"):
        return "refused", None
    return "failed", None


def fingerprint(argv, rc, out):
    """Hash of a request's output; JSON envelopes differ only in timestamp."""
    if rc == 0 and argv[0] == "rand-model":
        out = json.dumps(json.loads(out)["payload"], sort_keys=True)
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


# Host-speed probe.  On the shared 2-core host of the baseline, the speed of the
# cores drifts with other tenants' load, in CPU time as much as in wall time
# (see README.md).  A fixed probe runs just before each request; a pass's wall
# time is scaled by PROBE_REF_S / (median wall time of its probes) and its CPU
# time by PROBE_REF_S / (median CPU time of its probes).  PROBE_REF_S only sets
# the unit (seconds at the baseline host's typical speed); it cancels out of
# any comparison between runs.
PROBE_REF_S = 0.0036
_PROBE_VEC = np.random.default_rng(0).standard_normal(1 << 14) + 0j
_PROBE_MEM = np.ones(1 << 20)
_PROBE_OUT = (np.empty_like(_PROBE_VEC), np.empty_like(_PROBE_VEC))
# The probe's buffers stay resident for the whole pass, so they are taken out
# of the reported peak RSS.
PROBE_MB = sum(a.nbytes for a in (_PROBE_VEC, _PROBE_MEM, *_PROBE_OUT)) / 2 ** 20


def probe_host():
    """(wall s, CPU s): medians of 3 runs of a fixed mix of FFT, complex vector
    math, an in-place sweep over 8 MiB and an interpreted loop.  It writes only
    into preallocated buffers, so the allocator state a request leaves behind
    does not change its time."""
    fft_out, exp_out = _PROBE_OUT
    walls, cpus = [], []
    for _ in range(3):
        t, c = time.perf_counter(), time.process_time()
        np.fft.fft(_PROBE_VEC, out=fft_out)
        np.exp(_PROBE_VEC, out=exp_out)
        np.multiply(_PROBE_MEM, 1.0, out=_PROBE_MEM)
        acc = 0
        for i in range(12000):
            acc += i * i % 7
        walls.append(time.perf_counter() - t)
        cpus.append(time.process_time() - c)
    return statistics.median(walls), statistics.median(cpus)


def run_pass(requests, out_dir):
    """Run every request once: outputs, wall and CPU seconds (all threads), and
    the wall and CPU slowdown of the host against PROBE_REF_S."""
    raw, wall, cpu, probes = [], 0.0, 0.0, []
    for argv in requests:
        probes.append(probe_host())
        a, c = time.perf_counter(), time.process_time()
        raw.append(call(argv, out_dir))
        wall += time.perf_counter() - a
        cpu += time.process_time() - c
    return raw, {"wall_s": wall, "cpu_s": cpu,
                 "slowdown_wall": statistics.median(w for w, _ in probes) / PROBE_REF_S,
                 "slowdown_cpu": statistics.median(c for _, c in probes) / PROBE_REF_S}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--check", action="store_true", help="run the output checks after the pass")
    ap.add_argument("--out", help="directory for trace and report files")
    ap.add_argument("--result", help="file the result JSON is written to")
    args = ap.parse_args()
    if args.setup_only:
        probe_host()  # the first probe pays for FFT plans and page faults
        print(probe_host()[0] / PROBE_REF_S)
        return
    wl = workloads.build(args.workload, args.seed)
    report_dir = tempfile.mkdtemp(prefix="reports-", dir=args.out)
    try:
        result = run(wl, args, report_dir)
    finally:
        shutil.rmtree(report_dir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def run(wl, args, report_dir):
    probe_host()  # the first probe pays for FFT plans and page faults
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    raw, result = run_pass(wl.requests, report_dir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - PROBE_MB
    result["numpy"] = np.__version__

    outcomes = [(argv, *classify(argv, rc, out, err)) for argv, (rc, out, err) in zip(wl.requests, raw)]
    result["statuses"] = [status for _, status, _ in outcomes]
    result["values"] = [workloads.count_values(argv, parsed) if status == "ok" else 0
                        for argv, status, parsed in outcomes]
    result["fingerprints"] = [fingerprint(argv, rc, out) for argv, (rc, out, _) in zip(wl.requests, raw)]
    if tracer:
        result["layers"] = {f"{layer}.{stat}": v
                            for layer, s in tracing.layer_stats(tracer.roots).items()
                            for stat, v in s.items()}
        t0 = tracer.roots[0].start if tracer.roots else 0.0
        with open(os.path.join(args.out, f"trace-{wl.name}.json"), "w") as fh:
            json.dump([r.to_dict(t0) for r in tracer.roots], fh)
    if args.check:
        t = time.perf_counter()
        bad = checks.run_checks(wl, outcomes, lambda argv: classify(argv, *call(argv, report_dir)))
        result["check_failures"] = {str(i): why for i, why in sorted(bad.items())}
        result["check_s"] = time.perf_counter() - t
    return result


if __name__ == "__main__":
    main()
