"""Command-line front end.

Tuple files are plain text: a header line "field q" (rationals) or
"field p=<prime>", then one octonion per line as 8 whitespace-separated
scalars in the order alpha u1 u2 u3 v1 v2 v3 beta.  '#' starts a
comment.  A scalar is an integer, a decimal or num/den in ASCII digits
with an optional sign (_SCALAR), and an integer option or the modulus
is ASCII digits with an optional minus (_INT); anything else is
refused.  Negative literals are accepted in any field and reduced.
"""

import argparse
import re
import sys
import time
from fractions import Fraction
from functools import cache

from . import group as gp
from . import octonion as oc
from . import orbits as ob
from . import suite
from . import symbolic as sy
from .invariants import _levels, family_names
from .scalars import GF, QQ

__all__ = ["main", "parse_tuple_file", "ParseError"]


class ParseError(Exception):
    pass


# Fraction alone would also take an exponent (Fraction("1e999999999")
# builds an integer of a billion digits), "_" separators and any Unicode digit
_SCALAR = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")
# int() alone would also take "_" separators, any Unicode digit, "+", spaces
_INT = re.compile(r"-?[0-9]+")


def integer(token):
    """The modulus, a part of --lambda, --degree or --q, by _INT."""
    if not _INT.fullmatch(token):
        raise ValueError("not an integer: %r" % token)
    return int(token)


# the longest token a refusal echoes whole; a longer one is cut to this
# many characters and its length is added
_ECHO = 40


def _echo(token):
    if len(token) <= _ECHO:
        return "%r" % token
    return "%r... (%d characters)" % (token[:_ECHO], len(token))


def _parse_scalar(ring, token, lineno):
    try:
        if not _SCALAR.fullmatch(token):
            raise ValueError(token)
        # int() is a few times faster than Fraction() on the plain
        # integers most files hold; both refuse more than
        # sys.get_int_max_str_digits() digits with ValueError
        value = int(token) if _INT.fullmatch(token) else Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError("line %d: cannot parse scalar %s"
                         % (lineno, _echo(token)))
    try:
        return ring(value)
    except ZeroDivisionError:
        raise ParseError("line %d: scalar %s is undefined in this field"
                         % (lineno, _echo(token)))


def parse_tuple_file(text):
    """Parse a tuple file; returns (ring, tuple of octonions)."""
    ring = None
    octs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ring is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "field":
                raise ParseError("line %d: expected header 'field q' or "
                                 "'field p=<prime>'" % lineno)
            spec = parts[1]
            if spec == "q":
                ring = QQ
            elif spec.startswith("p="):
                try:
                    p = integer(spec[2:])
                except ValueError:
                    raise ParseError("line %d: bad field spec %r" % (lineno, spec))
                try:
                    ring = GF(p)
                except ValueError as exc:
                    raise ParseError("line %d: %s" % (lineno, exc))
            else:
                raise ParseError("line %d: bad field spec %r" % (lineno, spec))
            continue
        tokens = line.split()
        if len(tokens) != 8:
            raise ParseError("line %d: expected 8 scalars, got %d"
                             % (lineno, len(tokens)))
        coords = [_parse_scalar(ring, t, lineno) for t in tokens]
        octs.append(oc.Octonion(ring, tuple(coords)))
    if ring is None:
        raise ParseError("missing 'field' header line")
    if not octs:
        raise ParseError("no octonions in file")
    return ring, tuple(octs)


def _load(path):
    try:
        with open(path) as fh:
            return parse_tuple_file(fh.read())
    except OSError as exc:
        raise ParseError(str(exc))


def cmd_eval(args, out):
    _ring, tup = _load(args.file)
    _descs, levels = _levels(args.family, tup, args.degree)
    names = family_names(args.family, len(tup), args.degree)
    # the whole table is formatted before anything is written; a GF(p)
    # value is its residue, whose str is that of its FpElement
    out.writelines(["%s = %s\n" % line for pos, values in levels
                    for line in zip(names[pos:pos + len(values)], values)])
    return 0


def cmd_separate(args, out):
    ring_a, tup_a = _load(args.file_a)
    ring_b, tup_b = _load(args.file_b)
    if ring_a is not ring_b:
        raise ParseError("the two files declare different fields")
    if len(tup_a) != len(tup_b):
        raise ParseError("the two files have different tuple lengths")
    report = ob.separate(tup_a, tup_b, args.family, args.degree)
    if report.separated:
        print("separated by %s: %s != %s"
              % (report.witness.name(), report.values[0], report.values[1]),
              file=out)
        return 0
    print("not separated (family %s, degree <= %d)"
          % (args.family, args.degree), file=out)
    return 1


def cmd_limit(args, out):
    _ring, tup = _load(args.file)
    try:
        lam = tuple(integer(x) for x in args.lam.split(","))
    except ValueError:
        raise ParseError("bad --lambda value %r" % args.lam)
    lim = ob.limit(lam, tup)
    print("lambda = (%d,%d,%d)" % lam, file=out)
    print("rank before = %d" % ob.rank(tup), file=out)
    if lim is None:
        print("limit does not exist", file=out)
        return 0
    print("limit exists", file=out)
    for a in lim:
        print(" ".join(map(str, a.coords())), file=out)
    print("rank after = %d" % ob.rank(lim), file=out)
    return 0


def _print_rows(rows, out):
    """Print (name, ok) rows as an aligned pass/FAIL table; returns the
    number that passed."""
    width = max(len(name) for name, _ok in rows) + 2
    for name, ok in rows:
        print("%-*s %s" % (width, name, "pass" if ok else "FAIL"), file=out)
    return sum(ok for _name, ok in rows)


def cmd_verify(args, out):
    rows = sy.identity_table()
    rows.append(("skew-symmetrization", sy.verify_skew_symmetrization()))
    return 0 if _print_rows(rows, out) == len(rows) else 1


def cmd_group(args, out):
    t0 = time.time()
    mats, _words = gp.enumerate_group_array(args.q)
    elapsed = time.time() - t0
    print("order %d" % mats.shape[0], file=out)
    print("elapsed %.2fs" % elapsed, file=sys.stderr)
    return 0


def cmd_examples(args, out):
    results = suite.run_all()
    passed = _print_rows(results, out)
    print("%d checks, %d passed" % (len(results), passed), file=out)
    return 0 if passed == len(results) else 1


@cache
def _build_parser():
    """The argument parser, built on the first call and reused, so an
    in-process caller of main pays for it once."""
    parser = argparse.ArgumentParser(
        prog="splitoct",
        description="Exact split-octonion invariants toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the invariant family on a tuple file")
    p.add_argument("file")
    p.add_argument("--family", choices=["S", "S0"], default="S")
    p.add_argument("--degree", type=integer, default=8)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("separate", help="separation report for two tuple files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--family", choices=["S", "S0"], default="S")
    p.add_argument("--degree", type=integer, default=8)
    p.set_defaults(fn=cmd_separate)

    p = sub.add_parser("limit", help="diagonal one-parameter limit of a tuple file")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="three comma-separated integers summing to zero; "
                   "write --lambda=-1,1,0 when the first is negative")
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("verify", help="run the symbolic identity suite")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("group", help="enumerate the automorphism group over GF(q)")
    p.add_argument("--q", type=integer, default=2)
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("paper-examples",
                       help="run the bundled reference example checks")
    p.set_defaults(fn=cmd_examples)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except (ParseError, ValueError, IndexError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
