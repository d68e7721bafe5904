"""One fresh interpreter of a benchmark run: set up, run the closed loop
of one client, check every output.  Started by run.py, one at a time:

    python3 bench/worker.py --workload W --workdir DIR --mode setup|run|trace
                            --t0 NS [--seconds S] [--fixed 1]
                            [--corrupt 1] [--spans FILE]

--t0 is the monotonic clock (time.perf_counter_ns, system-wide on Linux)
read by the parent just before it started this interpreter, so setup_s
covers interpreter start, `import splitoct` and the workload's warm-up.
Mode setup stops there.  The loop runs whole cycles of the generated
request stream: at least the workload's CYCLES and until the timed
requests add up to --seconds at the reference speed of the speed probe
(common.probe_ns), or with --fixed 1 exactly CYCLES (a fixed
amount of work, so the per-layer counts of two commits compare).  Only
the requests are timed: decoding inputs, checking outputs and the speed
probe fall between them.  Prints one JSON object as
its last line.
"""

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import common as cm


def _summary(raw, scaled, failed, min_requests):
    """Throughput, median and tail latency at the reference speed, with
    the unscaled figures beside them.  The tail is the highest percentile
    that has at least ten samples beyond it in every run, that is in the
    min_requests of the cycles every run makes; a fixed percentile keeps
    two commits comparable when one of them gets through more requests."""
    n = len(raw)
    pct = 100.0 * (1 - 10 / min_requests)
    k = max(0, math.ceil(pct / 100 * n) - 1)
    out = {"attempted": n, "failed": failed, "measured_s": sum(scaled) / 1e9,
           "raw_measured_s": sum(raw) / 1e9,
           "tail_percentile": pct, "tail_beyond": n - 1 - k}
    for tag, lat in (("", scaled), ("raw_", raw)):
        s = sorted(lat)
        out[tag + "throughput_ops_s"] = (n - failed) / (sum(s) / 1e9)
        out[tag + "p50_ms"] = statistics.median(s) / 1e6
        out[tag + "tail_ms"] = s[k] / 1e6
    return out


def _loop(mod, cycles, state, seconds, min_cycles, fixed, corrupt, tracer):
    """Run whole cycles: exactly min_cycles if fixed, else at least
    min_cycles and until the timed requests add up to seconds at the
    reference speed, so that a run does the same work whatever the
    machine's speed at the time; the caches of normalize-words warm up
    through the run, so the work done changes the figures.  Returns
    raw and speed-scaled latencies in ns, the failure count, the cycles
    run and the peak RSS in MB at the end of cycle min_cycles (a fixed
    amount of work)."""
    raw, before = [], []     # latency, index of the probe just before it
    probes = []
    failed = 0
    passes = 0
    measured = 0
    since_probe = cm.PROBE_EVERY_NS
    rss_mb = None
    while passes < min_cycles or (not fixed and measured < seconds * 1e9):
        for req in cycles[passes % len(cycles)]:
            if since_probe >= cm.PROBE_EVERY_NS:
                probes.append(cm.probe_ns())
                since_probe = 0
            prep = mod.prepare(req, state)
            if tracer is not None:
                tracer.request = len(raw)
                tracer.active = True
            error = None
            t0 = time.perf_counter_ns()
            try:
                result = mod.run(req, prep)
            except Exception:
                error = traceback.format_exc(limit=3)
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.active = False
            raw.append(t1 - t0)
            before.append(len(probes) - 1)
            measured += (t1 - t0) * cm.PROBE_REF_NS / probes[-1]
            since_probe += t1 - t0
            if t1 - t0 >= cm.PROBE_AFTER_NS:
                since_probe = cm.PROBE_EVERY_NS
            if error is None:
                if corrupt and len(raw) == 1:
                    result = mod.corrupt(req, result)
                try:
                    mod.check(req, result, state)
                except cm.CheckFailed as exc:
                    error = "check failed: %s" % exc
                except Exception:
                    error = "check raised: " + traceback.format_exc(limit=3)
            if error is not None:
                failed += 1
                if failed <= 5:
                    print("request %d (%s) failed: %s" % (len(raw), req["kind"], error),
                          file=sys.stderr)
        passes += 1
        if passes == min_cycles:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes.append(cm.probe_ns())
    scaled = [x * 2 * cm.PROBE_REF_NS / (probes[i] + probes[i + 1])
              for x, i in zip(raw, before)]
    return raw, scaled, failed, passes, rss_mb


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(cm.WORKLOADS))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--t0", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--fixed", type=int, default=0)
    ap.add_argument("--corrupt", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    mod = importlib.import_module(cm.WORKLOADS[args.workload])
    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    state = mod.warmup(args.workdir)
    setup_s = (time.perf_counter_ns() - args.t0) / 1e9
    if tracer is not None:
        tracer.active = False
    out = {"setup_s": setup_s, "setup_probe_ns": cm.probe_ns()}
    if args.mode != "setup":
        cycles = json.loads(Path(args.workdir, "job.json").read_text())
        try:
            raw, scaled, failed, passes, rss_mb = _loop(
                mod, cycles, state, args.seconds, mod.CYCLES, args.fixed, args.corrupt,
                tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out.update(_summary(raw, scaled, failed,
                            sum(len(c) for c in cycles[:mod.CYCLES])))
        out.update(cycles=passes, distinct_cycles=len(cycles), peak_rss_mb=rss_mb,
                   scan=state.get("scan"))
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            out["spans"] = len(tracer.spans)
            out["spans_dropped"] = tracer.spans_dropped
            if args.spans:
                tracer.write_spans(args.spans, {"workload": args.workload})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
