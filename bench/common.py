"""Helpers shared by the workloads: scalars as plain Python numbers,
tuple-file writing and reading, and reference computations that the
output checks use instead of the program's own code.

A field is named by its characteristic p, with p = 0 for the rationals.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

# workload name -> module of this directory that implements it
WORKLOADS = {"eval-separate": "eval_separate",
             "normalize-words": "normalize_words",
             "symbolic-invariance": "symbolic_invariance"}


# Speed probe.  A shared machine runs at different speeds from one
# moment to the next.  Each timed interval is multiplied by
# PROBE_REF_NS / (mean duration of the probes just before and just
# after it), which gives it at the reference speed, at which the probe
# takes 1 ms; the probe is pure Python and touches no splitoct code.
PROBE_REF_NS = 1_000_000
PROBE_EVERY_NS = 20_000_000      # of timed requests between two probes
PROBE_AFTER_NS = 5_000_000       # a request this long is followed by a probe


def probe_ns():
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return time.perf_counter_ns() - t0


class CheckFailed(Exception):
    """An output of the program disagrees with what the check expects."""


def expect(cond, message, *args):
    if not cond:
        raise CheckFailed(message % args if args else message)


def header(p):
    return "field q" if p == 0 else "field p=%d" % p


def reduce(x, p):
    """The exact value of the scalar x in the field of characteristic p."""
    x = Fraction(x)
    if p == 0:
        return x
    return x.numerator * pow(x.denominator, -1, p) % p


def render(x, p):
    """A scalar as the command line prints it."""
    return str(reduce(x, p))


def rand_token(rng, p):
    """A seeded scalar literal: small integers and fractions over the
    rationals, any residue over GF(p), sometimes written negative."""
    if p == 0:
        if rng.random() < 0.125:
            return "%d/%d" % (rng.randint(-9, 9), rng.randint(2, 5))
        return str(rng.randint(-9, 9))
    r = rng.randrange(p)
    return str(r - p) if rng.random() < 0.1 else str(r)


def rand_rows(rng, p, n):
    return [[rand_token(rng, p) for _ in range(8)] for _ in range(n)]


def write_tuple(path, p, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header(p)] + [" ".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def read_tuple(path):
    """(p, rows of exact values) of a tuple file written by write_tuple."""
    lines = Path(path).read_text().splitlines()
    spec = lines[0].split()[1]
    p = 0 if spec == "q" else int(spec[2:])
    rows = [[reduce(Fraction(t), p) for t in line.split()] for line in lines[1:]]
    return p, rows


def norm(c, p):
    """n(a) = alpha beta - u.v from z-order coordinates."""
    v = c[0] * c[7] - (c[1] * c[4] + c[2] * c[5] + c[3] * c[6])
    return v if p == 0 else v % p


def trace(c, p):
    v = c[0] + c[7]
    return v if p == 0 else v % p


def family_names(family, n, d):
    """Descriptor names of the degree-d filtration, in command-line order."""
    out = []
    min_len = 1 if family == "S" else 2
    for deg in range(1, d + 1):
        if deg == 2:
            out += ["n(%d)" % i for i in range(1, n + 1)]
        if deg >= min_len:
            out += ["tr(%s)" % ",".join(map(str, c))
                    for c in combinations(range(1, n + 1), deg)]
    return out


def rank(rows, p):
    """Rank of a list of rows of exact values over the field."""
    m = [list(r) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c] if p == 0 else pow(m[r][c], -1, p)
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                if p:
                    m[i] = [a % p for a in m[i]]
        r += 1
    return r


def run_cli(argv):
    """(exit code, stdout) of the command line called in this process."""
    from splitoct import cli
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:     # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def cli_render(ring_is_qq, value):
    """A value returned by the program, rendered as the command line does."""
    return str(Fraction(value)) if ring_is_qq else str(value)


# ---------------------------------------------------------------------------
# Seeded automorphisms, as JSON-able generator lists built with the program

_LAMBDAS = ((1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1), (-1, 2, -1),
            (1, 1, -2))


def rand_generator(rng, p, kind):
    """One generator of the automorphism group, with seeded parameters.
    Vectors and transvections have a single nonzero entry, which keeps
    the coordinates of images over the rationals small."""

    def unit():
        if p == 0:
            return rng.choice(("1", "-1", "2", "-2", "1/2"))
        return str(rng.randrange(1, p))

    if kind == "sl3":
        i, j = rng.sample(range(3), 2)
        return ["sl3", i, j, unit()]
    if kind in ("delta1", "delta2"):
        vec = ["0", "0", "0"]
        vec[rng.randrange(3)] = unit()
        return [kind, vec]
    if kind == "hbar":
        return ["hbar"]
    lam = rng.choice(_LAMBDAS)
    if rng.random() < 0.5:
        lam = tuple(-x for x in lam)
    return ["theta", list(lam), unit()]


def rand_automorphism(rng, p, length):
    kinds = ("sl3", "delta1", "delta2", "hbar") + (("theta",) if p != 2 else ())
    return [rand_generator(rng, p, rng.choice(kinds)) for _ in range(length)]


def build_automorphism(field, specs):
    """The product of the generators named in specs, over the given field."""
    from splitoct import group as gp

    def scalar(token):
        return field.from_fraction(Fraction(token))

    g = None
    for s in specs:
        if s[0] == "sl3":
            m = [[field.one if a == b else field.zero for b in range(3)]
                 for a in range(3)]
            m[s[1]][s[2]] = scalar(s[3])
            h = gp.from_sl3(field, m)
        elif s[0] == "delta1":
            h = gp.delta1(field, tuple(scalar(t) for t in s[1]))
        elif s[0] == "delta2":
            h = gp.delta2(field, tuple(scalar(t) for t in s[1]))
        elif s[0] == "hbar":
            h = gp.hbar(field)
        else:
            h = gp.theta(field, tuple(s[1]), scalar(s[2]))
        g = h if g is None else g.compose(h)
    return g
