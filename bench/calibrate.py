"""Calibration rows of the traced run, in one fresh untraced interpreter:

    python3 bench/calibrate.py --workdir DIR

Each row is timed once, in this order, so each starts with the caches
that matter to it empty: GF(10**14+31) construction (primality test),
enumerate_group_array(2), `eval` of family S at degree 8 on n=12
tuples over QQ and GF(5), and normalize_trace of the right comb
(1,(2,(...,k))) for k = 7, 8, 9 (each after the smaller ones).  Outputs
are checked after the timer stops.  Prints one JSON object.
"""

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import common as cm

N, DEGREE = 12, 8
COMB_DEGREES = (7, 8, 9)
CHECK_P = 1000003


def generate(rng, workdir):
    for p in (0, 5):
        cm.write_tuple(Path(workdir, "calib", "eval_p%d.oct" % p), p,
                       cm.rand_rows(rng, p, N))
    cm.write_tuple(Path(workdir, "calib", "check.oct"), CHECK_P,
                   cm.rand_rows(rng, CHECK_P, max(COMB_DEGREES)))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _right_comb(k):
    w = k
    for i in range(k - 1, 0, -1):
        w = (i, w)
    return w


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", required=True)
    workdir = Path(ap.parse_args().workdir, "calib")

    from splitoct import cli, scalars
    from splitoct import group as gp
    from splitoct import words as wd

    rows, failures = {}, []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            print("calibration check failed: %s" % what, file=sys.stderr)

    rows["calib.GF_1e14_31.s"], field = _timed(lambda: scalars.GF(10 ** 14 + 31))
    expect(field.p == 10 ** 14 + 31, "GF(10**14+31)")
    rows["calib.enumerate_group_array_q2.s"], (mats, _w) = _timed(
        lambda: gp.enumerate_group_array(2))
    expect(mats.shape[0] == 12096, "enumerate_group_array(2) order")
    want_rows = len(cm.family_names("S", N, DEGREE))
    for p, tag in ((0, "qq"), (5, "gf5")):
        path = str(workdir / ("eval_p%d.oct" % p))
        out = io.StringIO()
        with redirect_stdout(out):
            rows["calib.eval_S_d8_n12_%s.s" % tag], code = _timed(
                lambda: cli.main(["eval", path, "--family", "S", "--degree", str(DEGREE)]))
        expect(code == 0 and len(out.getvalue().splitlines()) == want_rows,
               "eval n=12 d=8 over %s" % tag)
    _ring, tup = cli.parse_tuple_file((workdir / "check.oct").read_text())
    for k in COMB_DEGREES:
        w = _right_comb(k)
        rows["calib.normalize_right_comb_deg%d.s" % k], expr = _timed(
            lambda: wd.normalize_trace(w))
        expect(wd.evaluate(w, tup).trace() == expr.evaluate(tup),
               "right comb of degree %d" % k)
    print(json.dumps({"rows": rows, "attempted": len(rows), "failed": len(failures)}))


if __name__ == "__main__":
    main()
