"""The splitoct benchmark.  Run from the root of a checkout:

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Workloads (see each module's docstring for the mix and why it was chosen):
eval-separate, normalize-words, symbolic-invariance.  Each is a closed
loop with one client in one process: the next request starts when the
previous one has returned.

From the seed this script writes the workload's tuple files and request
stream under .bench_out/ and prints their sha256, then starts fresh
interpreters one at a time (worker.py), because the caches of words,
group and scalars live as long as the process:

--trace 0: four set-up-only interpreters and one that sets up and runs
    the loop for S seconds.  Prints the end-to-end metrics
    throughput_ops_s, latency_p50_ms, latency_tail_ms, setup_s (median
    of the five set-ups), peak_rss_mb and completed_ratio, which is
    1 - failed_ratio (a metric here may not be 0).  Times are given at a
    reference machine speed: each is scaled by a pure-Python speed probe
    run just before and just after it (common.probe_ns), because the
    speed of a shared machine drifts by a quarter from one minute to the
    next; S seconds are also counted at that speed, so a run does the
    same work at any machine speed.  The unscaled figures are printed
    beside them.
--trace 1: a fixed number of cycles of the same stream (the workload's
    CYCLES) untraced, then again with span tracing at every module
    boundary (tracing.py; spans go to .bench_out/spans-*.jsonl), then
    the calibration rows (calibrate.py).  Prints calls, self_s and
    failed of every boundary, orbits.separate.scan_fraction,
    trace.overhead_ratio and the calibration rows.

The last line of stdout is one JSON object with correct, attempted,
failed and metrics.  A failed output check makes correct false; a
worker that crashes or overruns makes the exit code 1 with no result.

--self-test runs every workload for its fewest cycles with its first
result deliberately corrupted, and exits 0 only if each run counts it
as failed.

Safety limits, checked on every generated request stream before it is
run: no enumerate_group_array(3) or `group --q 3` (no request runs the
group command; orbit queries are over GF(2)), no evaluation beyond
n = 12 or degree 8, and no thread or process pool (worker interpreters
run one after another, numpy's BLAS threads are pinned to 1).
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import common as cm

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
DEADLINE_S = 170
MAX_N, MAX_DEGREE = 12, 8
THREAD_PINS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class WorkerError(Exception):
    pass


def _check_limits(cycles):
    for req in (r for cycle in cycles for r in cycle):
        if req["kind"] not in ("eval", "separate", "limit", "orbit", "normalize",
                               "verify", "coord", "psi"):
            raise ValueError("request kind %r is not allowed" % req["kind"])
        if req.get("n", 0) > MAX_N or req.get("d", 0) > MAX_DEGREE \
                or req.get("degree", 0) > MAX_DEGREE:
            raise ValueError("request %r exceeds n <= 12, degree <= 8" % req)


def _digest(workdir):
    h = hashlib.sha256()
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        h.update(path.relative_to(workdir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _env(args):
    import numpy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit or "unknown", "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace)}


def _spawn(script, argv, deadline):
    """Run one fresh interpreter to completion; its last stdout line is JSON.
    A fixed hash seed makes dict and set layouts, and so timings, repeat."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               **THREAD_PINS)
    cmd = [sys.executable, str(BENCH / script)] + argv
    probe = cm.probe_ns()
    if script == "worker.py":
        cmd += ["--t0", str(time.perf_counter_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("%s overran the time limit" % script)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError("%s exited with code %d" % (script, proc.returncode))
    return dict(json.loads(lines[-1]), spawn_probe_ns=probe)


def _worker(args, workdir, mode, deadline, *extra):
    return _spawn("worker.py", ["--workload", args.workload, "--workdir", str(workdir),
                                "--mode", mode, "--seconds", str(args.seconds)]
                  + list(extra), deadline)


def _scaled_setup(res):
    """setup_s at the reference speed, from probes just before the
    interpreter started and just after its set-up."""
    speed = (res["spawn_probe_ns"] + res["setup_probe_ns"]) / 2
    return res["setup_s"] * cm.PROBE_REF_NS / speed


def _end_to_end(args, workdir, deadline):
    runs = [_worker(args, workdir, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    res = _worker(args, workdir, "run", deadline)
    runs.append(res)
    setups = [_scaled_setup(r) for r in runs]
    attempted, failed = res["attempted"], res["failed"]
    metrics = {
        "throughput_ops_s": (res["throughput_ops_s"], "1/s"),
        "latency_p50_ms": (res["p50_ms"], "ms"),
        "latency_tail_ms": (res["tail_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "completed_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {
        "throughput_ops_s": "unscaled %.4g; %d requests in %.2f s timed, %.2f s "
                            "unscaled, %d cycles of %d distinct" % (
                                res["raw_throughput_ops_s"], attempted, res["measured_s"],
                                res["raw_measured_s"], res["cycles"],
                                res["distinct_cycles"]),
        "latency_p50_ms": "unscaled %.4g" % res["raw_p50_ms"],
        "latency_tail_ms": "unscaled %.4g; p%.2f of %d samples, %d beyond" % (
            res["raw_tail_ms"], res["tail_percentile"], attempted, res["tail_beyond"]),
        "setup_s": "median of %s; unscaled %s" % (
            ", ".join("%.3f" % s for s in setups),
            ", ".join("%.3f" % r["setup_s"] for r in runs)),
        "peak_rss_mb": "after the first %d cycles" % importlib.import_module(
            cm.WORKLOADS[args.workload]).CYCLES,
        "completed_ratio": "failed_ratio %.4g = %d/%d" % (failed / attempted,
                                                          failed, attempted),
    }
    return metrics, notes, attempted, failed


def _per_layer(args, workdir, deadline):
    base = _worker(args, workdir, "run", deadline, "--fixed", "1")
    spans = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    traced = _worker(args, workdir, "trace", deadline, "--fixed", "1",
                     "--spans", str(spans))
    calib = _spawn("calibrate.py", ["--workdir", str(workdir)], deadline)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    evaluated, total = traced["scan"] or (0, 0)
    metrics["orbits.separate.scan_fraction"] = (evaluated / total if total else 0.0,
                                                "ratio")
    metrics["trace.overhead_ratio"] = (
        traced["throughput_ops_s"] / base["throughput_ops_s"], "ratio")
    for name, value in calib["rows"].items():
        metrics[name] = (value, "s")
    notes = {"trace.overhead_ratio": "traced %.4g / untraced %.4g ops/s; %d spans "
             "kept in %s, %d dropped" % (traced["throughput_ops_s"],
                                         base["throughput_ops_s"], traced["spans"],
                                         spans.relative_to(ROOT), traced["spans_dropped"])}
    attempted = base["attempted"] + traced["attempted"] + calib["attempted"]
    failed = base["failed"] + traced["failed"] + calib["failed"]
    return metrics, notes, attempted, failed


def _generate(workload, seed, workdir):
    mod = importlib.import_module(cm.WORKLOADS[workload])
    cycles = mod.generate(random.Random(seed), workdir)
    _check_limits(cycles)
    calibrate.generate(random.Random("calibrate-%d" % seed), workdir)
    (workdir / "job.json").write_text(json.dumps(cycles))
    return cycles


def _self_test(deadline):
    ok = True
    for workload in sorted(cm.WORKLOADS):
        args = argparse.Namespace(workload=workload, seconds=1)
        workdir = OUT / ("selftest-%s-%d" % (workload, os.getpid()))
        try:
            _generate(workload, 1, workdir)
            res = _worker(args, workdir, "run", deadline, "--corrupt", "1")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        counted = res["failed"] >= 1
        ok = ok and counted
        print("self-test %s: %d of %d requests failed, failed_ratio %.4g: %s"
              % (workload, res["failed"], res["attempted"],
                 res["failed"] / res["attempted"],
                 "corrupted result counted" if counted else "CORRUPTION MISSED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(cm.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "splitoct" / "__init__.py").is_file():
        print("error: %s holds no src/splitoct to benchmark" % ROOT, file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(ROOT / "src"))
    deadline = time.monotonic() + DEADLINE_S
    if args.self_test:
        return _self_test(deadline)

    workdir = OUT / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        cycles = _generate(args.workload, args.seed, workdir)
        digest = _digest(workdir)
        measure = _per_layer if args.trace else _end_to_end
        metrics, notes, attempted, failed = measure(args, workdir, deadline)
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env %s" % json.dumps(_env(args)))
    print("inputs sha256 %s (%d requests in %d distinct cycles)"
          % (digest, sum(map(len, cycles)), len(cycles)))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-44s %14.6g %-5s%s" % (name, value, unit,
                                        "  (%s)" % note if note else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
