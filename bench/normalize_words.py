"""Workload normalize-words: words.normalize_trace on seeded random words.

Every shape from words.all_shapes, degree 3..8, taken in turn; leaves
drawn from at most four letters with repeats.  Each cycle holds the
same number of words of each degree; the first word of each degree is
normalized with char=p for p in 2, 3, 5 in turn.  Each result is
checked by evaluating the identity tr(w) = expansion on a QQ tuple and
on a GF(p) tuple.

The normalizer's caches live as long as the process, so the hit rate
rises through the run; every run starts them empty, as every CLI
invocation does.
"""

import itertools
from pathlib import Path

from splitoct import cli
from splitoct import words as wd

import common as cm
from common import expect

# cycles of fixed work: all of the traced run, the least of a timed run,
# and the point where a timed run reads its peak RSS
CYCLES = 120
# (degree, words of that degree per cycle)
SLOTS = ((3, 4), (4, 4), (5, 4), (6, 3), (7, 3), (8, 3))
CHARS = (2, 3, 5)
CHECK_P = 1000003     # field of the second check of a char=0 result
LETTERS = 4


def _fill(shape, rng):
    if shape is None:
        return rng.randint(1, LETTERS)
    return [_fill(shape[0], rng), _fill(shape[1], rng)]


def generate(rng, workdir, cycles=480):
    # every shape of a degree in turn, in a seeded order, so that each
    # seed draws each shape as often: the cost of a word depends mostly on
    # its shape
    shapes = {}
    for d, _count in SLOTS:
        shapes[d] = wd.all_shapes(d)
        rng.shuffle(shapes[d])
        shapes[d] = itertools.cycle(shapes[d])
    job = []
    for ci in range(cycles):
        reqs = []
        for d, count in SLOTS:
            for k in range(count):
                char = CHARS[(ci + d) % len(CHARS)] if k == 0 else 0
                reqs.append({"kind": "normalize", "degree": d, "char": char,
                             "word": _fill(next(shapes[d]), rng)})
        rng.shuffle(reqs)
        job.append(reqs)
    for p in (0, CHECK_P) + CHARS:
        cm.write_tuple(Path(workdir, "warmup", "p%d.oct" % p), p,
                       cm.rand_rows(rng, p, LETTERS))
    return job


def warmup(workdir):
    """One parse per field; the parsed tuples are the check tuples."""
    tuples = {}
    for path in sorted(Path(workdir, "warmup").glob("*.oct")):
        ring, tup = cli.parse_tuple_file(path.read_text())
        tuples[getattr(ring, "p", 0)] = tup
    return {"tuples": tuples, "caches": {p: {} for p in tuples}}


def _word(x):
    return x if isinstance(x, int) else (_word(x[0]), _word(x[1]))


def prepare(req, state):
    return _word(req["word"])


def run(req, word):
    return word, wd.normalize_trace(word, char=req["char"])


def corrupt(req, result):
    return result[0], result[1] + 1


def check(req, result, state):
    word, expr = result
    for p in ((req["char"],) if req["char"] else (0, CHECK_P)):
        tup = state["tuples"][p]
        lhs = wd.evaluate(word, tup).trace()
        rhs = expr.evaluate(tup, state["caches"][p])
        expect(lhs == rhs, "tr(%r) != its normalization over field %d", word, p)
