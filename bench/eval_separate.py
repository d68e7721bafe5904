"""Workload eval-separate: tuple-file requests through the command line.

Each cycle is a fixed list of request slots, in seeded order, with
seeded tuples in each slot, so every seed sees the same mix of sizes:

- eval pairs: a tuple and its image under a seeded automorphism, over
  QQ, GF(5), GF(1000003) and GF(10^14+31), n in 2..12, degree 2..8;
- separate: a tuple against its image (must exit 1 after a full family
  scan) and against a copy with one norm changed (separated early);
- limit, a small share;
- GF(2) orbit-equality queries through orbits.orbit_equal_oracle, n <= 3.
"""

from fractions import Fraction
from pathlib import Path

from splitoct import cli
from splitoct import group as gp
from splitoct import invariants as inv
from splitoct import orbits as ob
from splitoct.scalars import QQ

import common as cm
from common import expect

# cycles of fixed work: all of the traced run, the least of a timed run,
# and the point where a timed run reads its peak RSS.  After 11 cycles
# the interning tables of GF(1000003) and GF(10^14+31) hold about 0.45M
# and 0.95M elements, away from the sizes at which a dict doubles
# (0.35M, 0.70M, 1.40M), where the peak would jump from seed to seed.
CYCLES = 11
BIG = 10 ** 14 + 31
FIELDS = (0, 5, 1000003, BIG)

# (p, n, degree) of each eval pair
EVAL_SLOTS = ((0, 2, 8), (0, 5, 4), (0, 7, 6), (0, 10, 3), (0, 12, 2),
              (5, 3, 8), (5, 6, 6), (5, 9, 4), (5, 12, 6),
              (1000003, 4, 8), (1000003, 8, 5), (1000003, 11, 3),
              (BIG, 2, 5), (BIG, 6, 8), (BIG, 12, 4))
# (p, n, degree) of each separate request, once as an image pair and
# once as a perturbed pair
SEPARATE_SLOTS = ((0, 3, 8), (5, 6, 6), (1000003, 5, 8), (BIG, 4, 8))
LIMIT_SLOTS = ((0, 3), (5, 4))
# (n, whether b is an image of a) of each GF(2) orbit query
ORBIT_SLOTS = ((1, True), (2, True), (3, True), (2, False), (3, False))
LAMBDAS = ((1, -1, 0), (-1, 1, 0), (0, 1, -1), (2, -1, -1), (1, 1, -2),
           (-1, -1, 2))


def _image_rows(rng, p, rows):
    """Rows of the image of the tuple under a seeded automorphism."""
    text = "\n".join([cm.header(p)] + [" ".join(r) for r in rows])
    ring, tup = cli.parse_tuple_file(text)
    g = cm.build_automorphism(ring, cm.rand_automorphism(rng, p, rng.randint(2, 3)))
    return [[cm.cli_render(p == 0, c) for c in a.coords()]
            for a in gp.apply_tuple(g, tup)]


def _perturbed_rows(rng, p, rows):
    """A copy of the rows in which one member's norm is changed, so the
    family separates the pair by degree 2 at the latest."""
    vals = [[cm.reduce(Fraction(t), p) for t in r] for r in rows]
    c = vals[rng.randrange(len(vals))]
    delta = rng.choice((1, -1, 2, Fraction(1, 2))) if p == 0 else rng.randrange(1, p)
    if c[7]:
        c[0] += delta           # n changes by delta * beta
    elif c[0]:
        c[7] += delta           # n changes by alpha * delta
    elif any(c[1:4]):
        k = next(k for k in (1, 2, 3) if c[k])
        c[k + 3] += delta       # n changes by -u_k * delta
    elif any(c[4:7]):
        k = next(k for k in (4, 5, 6) if c[k])
        c[k - 3] += delta
    else:
        c[0] += delta           # n changes from 0 to delta^2
        c[7] += delta
    return [[cm.render(x, p) for x in r] for r in vals]


def generate(rng, workdir, cycles=32):
    job = []
    for ci in range(cycles):
        reqs = []
        d = "c%03d/" % ci

        def tuple_file(name, p, rows):
            cm.write_tuple(Path(workdir, d + name), p, rows)
            return d + name

        for k, (p, n, deg) in enumerate(EVAL_SLOTS):
            rows = cm.rand_rows(rng, p, n)
            family = rng.choice(("S", "S0"))
            for tag, rs in (("a", rows), ("b", _image_rows(rng, p, rows))):
                reqs.append({"kind": "eval", "pair": "%d.%d" % (ci, k), "p": p,
                             "n": n, "d": deg, "family": family,
                             "file": tuple_file("e%d%s.oct" % (k, tag), p, rs)})
        for k, (p, n, deg) in enumerate(SEPARATE_SLOTS):
            for image in (True, False):
                rows = cm.rand_rows(rng, p, n)
                other = (_image_rows if image else _perturbed_rows)(rng, p, rows)
                tag = "%d%s" % (k, "i" if image else "p")
                reqs.append({"kind": "separate", "p": p, "n": n, "d": deg,
                             "family": rng.choice(("S", "S0")), "image": image,
                             "a": tuple_file("s%sa.oct" % tag, p, rows),
                             "b": tuple_file("s%sb.oct" % tag, p, other)})
        for k, (p, n) in enumerate(LIMIT_SLOTS):
            lam = rng.choice(LAMBDAS)
            rows = cm.rand_rows(rng, p, n)
            if rng.random() < 0.5:
                # zero the coordinates that would blow up, so the limit exists
                exps = (0,) + lam + tuple(-x for x in lam) + (0,)
                rows = [[t if exps[j] >= 0 else "0" for j, t in enumerate(r)]
                        for r in rows]
            reqs.append({"kind": "limit", "p": p, "lam": list(lam),
                         "file": tuple_file("l%d.oct" % k, p, rows)})
        for k, (n, image) in enumerate(ORBIT_SLOTS):
            rows = cm.rand_rows(rng, 2, n)
            other = _image_rows(rng, 2, rows) if image else cm.rand_rows(rng, 2, n)
            reqs.append({"kind": "orbit", "image": image,
                         "a": tuple_file("o%da.oct" % k, 2, rows),
                         "b": tuple_file("o%db.oct" % k, 2, other)})
        rng.shuffle(reqs)
        job.append(reqs)
    for p in FIELDS + (2,):
        cm.write_tuple(Path(workdir, "warmup", "p%d.oct" % p), p, [["0"] * 8])
    return job


def warmup(workdir):
    """One parse per field, which builds each GF(p), and the GF(2) group
    table that orbit queries scan."""
    for path in sorted(Path(workdir, "warmup").glob("*.oct")):
        cli.parse_tuple_file(path.read_text())
    gp.enumerate_group_array(2)
    return {"workdir": Path(workdir), "twins": {}, "scan": [0, 0]}


def prepare(req, state):
    w = state["workdir"]
    kind = req["kind"]
    if kind == "eval":
        return ["eval", str(w / req["file"]), "--family", req["family"],
                "--degree", str(req["d"])]
    if kind == "separate":
        return ["separate", str(w / req["a"]), str(w / req["b"]),
                "--family", req["family"], "--degree", str(req["d"])]
    if kind == "limit":
        return ["limit", str(w / req["file"]),
                "--lambda=" + ",".join(map(str, req["lam"]))]
    return ((w / req["a"]).read_text(), (w / req["b"]).read_text())


def run(req, prep):
    if req["kind"] != "orbit":
        return cm.run_cli(prep)
    _ring, ta = cli.parse_tuple_file(prep[0])
    _ring, tb = cli.parse_tuple_file(prep[1])
    found, witness = ob.orbit_equal_oracle(ta, tb)
    return found, witness, ta, tb


def corrupt(req, result):
    if req["kind"] == "orbit":
        return (True, None) + tuple(result[2:])
    return (result[0] + 3, result[1])


def _check_eval(req, result, state):
    code, out = result
    expect(code == 0, "eval exited %s", code)
    p, rows = cm.read_tuple(state["workdir"] / req["file"])
    names = cm.family_names(req["family"], req["n"], req["d"])
    lines = out.splitlines()
    expect(len(lines) == len(names), "eval printed %d rows, expected %d",
           len(lines), len(names))
    for line, name in zip(lines, names):
        lhs, _sep, value = line.partition(" = ")
        expect(lhs == name, "row %r where %s was expected", line, name)
        i = int(name[name.index("(") + 1:-1].split(",")[0]) - 1
        if name.startswith("n("):
            expect(value == cm.render(cm.norm(rows[i], p), p), "wrong %s", line)
        elif "," not in name:
            expect(value == cm.render(cm.trace(rows[i], p), p), "wrong %s", line)
    twin = state["twins"].setdefault(req["pair"], out)
    expect(twin == out, "eval of a tuple and of its group image differ")


def _parse(path):
    return cli.parse_tuple_file(Path(path).read_text())


def _check_separate(req, result, state):
    code, out = result
    names = cm.family_names(req["family"], req["n"], req["d"])
    if req["image"]:
        expect(code == 1, "separate of a group-image pair exited %s", code)
        expect(out == "not separated (family %s, degree <= %d)\n"
               % (req["family"], req["d"]), "unexpected output %r", out)
        state["scan"][0] += len(names)
        state["scan"][1] += len(names)
        return
    expect(code == 0, "separate of a perturbed pair exited %s", code)
    head, _sep, values = out.rstrip("\n").partition(": ")
    expect(head.startswith("separated by "), "unexpected output %r", out)
    witness = head[len("separated by "):]
    expect(witness in names, "witness %s is not in the family", witness)
    ring, ta = _parse(state["workdir"] / req["a"])
    _ring, tb = _parse(state["workdir"] / req["b"])
    k = names.index(witness)
    for name in names[:k + 1]:
        kind, _par, idx = name[:-1].partition("(")
        desc = inv.Descriptor(kind, tuple(int(x) for x in idx.split(",")))
        va, vb = inv.eval_descriptor(desc, ta), inv.eval_descriptor(desc, tb)
        if name != witness:
            expect(va == vb, "%s separates before the witness %s", name, witness)
    expect(va != vb, "witness %s does not separate", witness)
    qq = ring is QQ
    expect(values == "%s != %s" % (cm.cli_render(qq, va), cm.cli_render(qq, vb)),
           "witness values %r disagree with eval_descriptor", values)
    state["scan"][0] += k + 1
    state["scan"][1] += len(names)


def _check_limit(req, result, state):
    code, out = result
    expect(code == 0, "limit exited %s", code)
    p, rows = cm.read_tuple(state["workdir"] / req["file"])
    lam = tuple(req["lam"])
    exps = (0,) + lam + tuple(-x for x in lam) + (0,)
    want = ["lambda = (%d,%d,%d)" % lam, "rank before = %d" % cm.rank(rows, p)]
    if any(x and exps[j] < 0 for r in rows for j, x in enumerate(r)):
        want.append("limit does not exist")
    else:
        lim = [[0 if exps[j] > 0 else x for j, x in enumerate(r)] for r in rows]
        want.append("limit exists")
        want += [" ".join(cm.render(x, p) for x in r) for r in lim]
        want.append("rank after = %d" % cm.rank(lim, p))
    expect(out == "\n".join(want) + "\n", "limit printed %r", out)


def _check_orbit(req, result, state):
    found, witness, ta, tb = result
    if req["image"]:
        expect(found, "oracle missed a group-image pair")
    if found:
        expect(witness is not None and gp.apply_tuple(witness, ta) == tb,
               "oracle witness does not map a to b")
        expect(not ob.separate(ta, tb, "S", 8).separated,
               "an orbit-equal pair is separated")


_CHECKS = {"eval": _check_eval, "separate": _check_separate,
           "limit": _check_limit, "orbit": _check_orbit}


def check(req, result, state):
    _CHECKS[req["kind"]](req, result, state)
