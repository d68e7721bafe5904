"""Orbit-level tooling: ranks, subalgebra closure, separation testing,
diagonal one-parameter limits, Gram matrices, and brute-force orbit
equality over GF(2) via the enumerated automorphism group.
"""

from functools import cache

import numpy as np

from . import group as gp
from . import linalg
from . import octonion as oc
from .invariants import evaluate_family
from .scalars import GF

__all__ = [
    "rank", "algebra_closure", "separate", "SeparationReport", "limit",
    "theta_curve", "low_dimensional_bases", "nonclosedness_witnesses",
    "gram_matrix", "orbit_equal_oracle",
]


def _field_of(tup):
    ring = oc.ring_of(tup)
    if not ring.is_field:
        raise ValueError("this operation needs a field")
    return ring


def rank(tup):
    """Dimension of the span of the tuple inside the 8-dimensional algebra."""
    field = _field_of(tup)
    return linalg.rank([list(a.coords()) for a in tup], field)


def _echelon_basis(vectors, field):
    rows, pivots = linalg.echelon(vectors, field)
    return [rows[i] for i in range(len(pivots))]


def algebra_closure(tup):
    """Echelonized basis of the (non-unital) subalgebra generated by the
    tuple: iterate span + pairwise products to a fixed point."""
    field = _field_of(tup)
    basis = _echelon_basis([list(a.coords()) for a in tup], field)
    while True:
        octs = [oc.from_coords(field, row) for row in basis]
        candidates = [list(row) for row in basis]
        for a in octs:
            for b in octs:
                candidates.append(list((a * b).coords()))
        new_basis = _echelon_basis(candidates, field)
        if len(new_basis) == len(basis):
            return [oc.from_coords(field, row) for row in new_basis]
        basis = new_basis


class SeparationReport:
    __slots__ = ("separated", "witness", "values")

    def __init__(self, separated, witness=None, values=None):
        self.separated = separated
        self.witness = witness
        self.values = values

    def __bool__(self):
        return self.separated

    def __repr__(self):
        if not self.separated:
            return "SeparationReport(not separated)"
        return "SeparationReport(%s: %r vs %r)" % (self.witness.name(),
                                                   self.values[0], self.values[1])


def separate(a_tup, b_tup, family="S", d=8):
    """Evaluate the degree-filtered family on both tuples in lockstep; the
    first descriptor with differing values becomes the witness, and no
    later degree level is computed."""
    oc.ring_of(a_tup, b_tup)
    for (desc, va), (_desc, vb) in zip(evaluate_family(family, a_tup, d),
                                       evaluate_family(family, b_tup, d)):
        if va != vb:
            return SeparationReport(True, desc, (va, vb))
    return SeparationReport(False)


# ---------------------------------------------------------------------------
# One-parameter limits


def limit(lam, tup):
    """The t -> 0 limit of the diagonal curve through the tuple, or None
    when it does not exist.

    Exists iff every nonzero coordinate carries a non-negative exponent;
    the limit keeps exponent-zero coordinates and zeroes the positive ones.
    """
    exps = gp.weights(lam)
    ring = oc.ring_of(tup)
    zero = ring.zero
    out = []
    for a in tup:
        coords = list(a.coords())
        for k, c in enumerate(coords):
            if c == zero:
                continue
            if exps[k] < 0:
                return None
            if exps[k] > 0:
                coords[k] = zero
        out.append(oc.from_coords(ring, coords))
    return tuple(out)


def theta_curve(lam, tup, t):
    """The curve point theta(t) . tuple with a symbolic or scalar t.

    Negative-exponent coordinates must vanish (checked), so the result is
    polynomial in t and its constant term is the limit.
    """
    exps = gp.weights(lam)
    base = oc.ring_of(tup)
    # a polynomial t carries its ring; a scalar t lies in the tuple's ring
    ring = getattr(t, "ring", base)
    out = []
    for a in tup:
        coords = []
        for k, c in enumerate(a.coords()):
            e = exps[k]
            if e < 0:
                if c != base.zero:
                    raise ValueError("curve is not polynomial in t for this tuple")
                coords.append(ring.zero)
            else:
                coords.append(ring(c) * t ** e if e else ring(c))
        out.append(oc.from_coords(ring, coords))
    return tuple(out)


def low_dimensional_bases(ring):
    """The twelve basis tuples of low-dimensional subalgebras, by name,
    in order of dimension."""
    e1, e2 = oc.unit_e(ring, 1), oc.unit_e(ring, 2)
    u1 = oc.unit_u(ring, 1)
    v1, v2, v3 = (oc.unit_v(ring, i) for i in (1, 2, 3))
    one = oc.identity(ring)
    return {"(1)": (one,), "(u1)": (u1,), "(e1)": (e1,),
            "(1,u1)": (one, u1), "(u1,v2)": (u1, v2), "(e1,u1)": (e1, u1),
            "(e1,v1)": (e1, v1), "(e1,e2)": (e1, e2),
            "(1,u1,v2)": (one, u1, v2), "(e1,e2,u1)": (e1, e2, u1),
            "(e1,u1,v2)": (e1, u1, v2), "(u1,v2,v3)": (u1, v2, v3)}


def nonclosedness_witnesses(ring):
    """The nine basis tuples of low_dimensional_bases whose diagonal
    limits strictly drop rank.

    Returns records (name, tuple, lam, limit tuple or None, rank before,
    rank after or None).
    """
    bases = low_dimensional_bases(ring)
    cases = [("(u1)", (1, -1, 0)), ("(1,u1)", (1, -1, 0)),
             ("(u1,v2)", (1, -1, 0)), ("(e1,u1)", (1, -1, 0)),
             ("(e1,v1)", (-1, 1, 0)), ("(1,u1,v2)", (1, -1, 0)),
             ("(e1,e2,u1)", (1, -1, 0)), ("(e1,u1,v2)", (1, -1, 0)),
             ("(u1,v2,v3)", (1, -1, 0))]
    out = []
    for name, lam in cases:
        tup = bases[name]
        lim = limit(lam, tup)
        before = rank(tup)
        after = None if lim is None else rank(lim)
        out.append((name, tup, lam, lim, before, after))
    return out


def gram_matrix(tup):
    """The symmetric matrix of pairwise traces tr(a_i a_j)."""
    return [[a.trace_mul(b) for b in tup] for a in tup]


# ---------------------------------------------------------------------------
# GF(2) brute force


@cache
def _column_codes():
    """The (N, 8) uint8 table of enumerate_group_array(2): entry [k, j] is
    column j of element k packed into a byte, coordinate i at bit i."""
    mats, _words = gp.enumerate_group_array(2)
    codes = np.zeros(mats.shape[:2], dtype=np.uint8)
    # one (N, 8) row slice at a time, never an (N, 8, 8) temporary
    for i in range(8):
        codes |= mats[:, i, :].astype(np.uint8) << i
    return codes


def _pack(a):
    """The coordinates of an octonion over GF(2) packed into an int,
    coordinate i at bit i."""
    return sum(x.r << i for i, x in enumerate(a.coords()))


def _image_codes(cols, code):
    """The packed images of the vector with packed code `code` under the
    elements whose column codes are the rows of cols: the XOR of the
    columns at its set bits."""
    img = np.zeros(len(cols), dtype=np.uint8)
    for j in range(8):
        if code >> j & 1:
            img ^= cols[:, j]
    return img


def orbit_equal_oracle(a_tup, b_tup):
    """Scan the enumerated automorphism group over GF(2) for an element
    mapping one tuple onto the other.  Returns (found, witness), the
    witness being the first such element in BFS order.

    The candidates, an index array into the group in BFS order, are
    narrowed one member at a time by comparing packed images: a group
    element is a cached table of 8 one-byte column codes (about 97 KB
    for the group), and a member's image is the XOR of the columns at
    its set bits.  The peak memory stays near that table at any length."""
    field = GF(2)
    if oc.ring_of(a_tup, b_tup) is not field:
        raise ValueError("oracle tuples must live over GF(2)")
    mats, _words = gp.enumerate_group_array(2)
    cols = _column_codes()
    idx = np.arange(len(cols))
    for a, b in zip(a_tup, b_tup):
        idx = idx[_image_codes(cols[idx], _pack(a)) == _pack(b)]
        if not len(idx):
            return (False, None)
    rows = [[field(int(x)) for x in row] for row in mats[idx[0]]]
    return (True, gp.GroupElement(field, rows))
