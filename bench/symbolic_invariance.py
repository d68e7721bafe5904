"""Workload symbolic-invariance: polynomial jobs over PolynomialRing(QQ)
and PolynomialRing(GF(5)).

Each cycle holds:
- one `splitoct verify`, which must pass every row;
- descriptor_polynomial of a seeded descriptor in at most four letters,
  then group.coordinate_action(g, f) for a seeded automorphism g, which
  must give f back; the polynomial is also evaluated at a QQ or GF(5)
  tuple against eval_descriptor;
- psi of traces of left-normed words and of norms in three generic
  octonions, which must equal the trace or det polynomial of generic
  2x2 matrices (the matrix bridge).

Automorphisms are products of two generators with one nonzero entry
each; which two is fixed by the slot and the cycle, the entries by the
seed, so the cost mix is the same for every seed.
"""

import re
from pathlib import Path

from splitoct import cli
from splitoct import group as gp
from splitoct import invariants as inv
from splitoct import words as wd
from splitoct.scalars import PolynomialRing

import common as cm
from common import expect

# cycles of fixed work: all of the traced run, the least of a timed run,
# and the point where a timed run reads its peak RSS
CYCLES = 32
BASES = (0, 5)
COORD_SLOTS = (("n", 1), ("tr", 2), ("tr", 3), ("tr", 4))
PATTERNS = (("delta1", "sl3"), ("delta2", "hbar"), ("theta", "delta1"),
            ("sl3", "delta2"), ("hbar", "theta"))
PSI_SLOTS = (("n", 1), ("tr", 2), ("tr", 3), ("tr", 4))
PSI_LETTERS = 3


def generate(rng, workdir, cycles=64):
    job = []
    for ci in range(cycles):
        reqs = [{"kind": "verify"}]
        for p in BASES:
            for k, (kind, size) in enumerate(COORD_SLOTS):
                if kind == "n":
                    indices = [rng.randint(1, 4)]
                else:
                    indices = sorted(rng.sample(range(1, 5), size))
                pattern = PATTERNS[(ci + k) % len(PATTERNS)]
                reqs.append({"kind": "coord", "p": p, "desc": [kind, indices],
                             "g": [cm.rand_generator(rng, p, g) for g in pattern]})
            for kind, size in PSI_SLOTS:
                # distinct letters where the length allows: the cost of a
                # word falls with each repeated letter
                seq = rng.sample(range(1, PSI_LETTERS + 1), min(size, PSI_LETTERS))
                seq += [rng.randint(1, PSI_LETTERS) for _ in range(size - len(seq))]
                rng.shuffle(seq)
                reqs.append({"kind": "psi", "p": p, "of": kind, "seq": seq})
        rng.shuffle(reqs)
        job.append(reqs)
    for p in BASES:
        cm.write_tuple(Path(workdir, "warmup", "p%d.oct" % p), p,
                       cm.rand_rows(rng, p, 4))
    return job


def warmup(workdir):
    """One parse per field; the parsed tuples check descriptor polynomials."""
    fields, tuples = {}, {}
    for path in sorted(Path(workdir, "warmup").glob("*.oct")):
        ring, tup = cli.parse_tuple_file(path.read_text())
        p = getattr(ring, "p", 0)
        fields[p], tuples[p] = ring, tup
    return {"fields": fields, "tuples": tuples}


def prepare(req, state):
    if req["kind"] == "verify":
        return None
    field = state["fields"][req["p"]]
    ring = PolynomialRing(field)
    if req["kind"] == "coord":
        kind, indices = req["desc"]
        return (ring, inv.Descriptor(kind, indices),
                cm.build_automorphism(field, req["g"]))
    return ring, req["of"], tuple(req["seq"])


def run(req, prep):
    if req["kind"] == "verify":
        return cm.run_cli(["verify"])
    if req["kind"] == "coord":
        ring, desc, g = prep
        f = inv.descriptor_polynomial(desc, ring)
        return f, gp.coordinate_action(g, f)
    ring, of, seq = prep
    zs = [inv.generic_octonion(ring, i) for i in range(1, PSI_LETTERS + 1)]
    f = zs[seq[0] - 1].norm() if of == "n" else wd.evaluate(wd.left_normed(seq), zs).trace()
    return inv.psi(f)


def corrupt(req, result):
    if req["kind"] == "verify":
        return result[0] + 3, result[1]
    if req["kind"] == "coord":
        return result[0], result[1] + 1
    return result + 1


def check(req, result, state):
    if req["kind"] == "verify":
        code, out = result
        lines = out.splitlines()
        expect(code == 0, "verify exited %s", code)
        expect(len(lines) == 12 and all(re.fullmatch(r"\S+ +pass", x) for x in lines)
               and len({x.split()[0] for x in lines}) == 12,
               "verify printed %r", out)
        return
    ring = PolynomialRing(state["fields"][req["p"]])
    if req["kind"] == "coord":
        f, h = result
        expect(h == f, "coordinate_action(g, f) != f for %s", req["desc"])
        kind, indices = req["desc"]
        desc = inv.Descriptor(kind, indices)
        tup = state["tuples"][req["p"]]
        point = {(i, j): c for i in range(1, 5)
                 for j, c in enumerate(tup[i - 1].coords(), start=1)}
        expect(f.substitute(point) == inv.eval_descriptor(desc, tup),
               "descriptor polynomial of %s disagrees with eval_descriptor", desc)
        return
    ms = [inv.generic_matrix(ring, i) for i in range(1, PSI_LETTERS + 1)]
    seq = req["seq"]
    if req["of"] == "n":
        want = inv.mat2_det(ms[seq[0] - 1])
    else:
        m = ms[seq[0] - 1]
        for i in seq[1:]:
            m = inv.mat2_mul(m, ms[i - 1])
        want = inv.mat2_trace(m)
    expect(result == want, "psi of %s%s differs from the matrix side",
           req["of"], tuple(seq))
