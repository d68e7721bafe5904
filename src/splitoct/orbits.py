"""Orbit-level tooling: ranks, subalgebra closure, the right GL_n
action, separation testing, diagonal one-parameter limits, Gram
matrices, subalgebra fingerprints, and brute-force orbit equality over
GF(2) via the enumerated automorphism group.
"""

import numpy as np

from . import group as gp
from . import linalg
from . import octonion as oc
from .invariants import evaluate_family
from .scalars import GF

__all__ = [
    "rank", "algebra_closure", "gl_right_action", "separate",
    "SeparationReport", "limit", "LimitResult", "theta_curve",
    "nonclosedness_witnesses", "gram_matrix", "orbit_equal_oracle",
    "encode_tuple_gf2", "subalgebra_fingerprint", "rebuild_automorphism",
]


def _field_of(tup):
    ring = tup[0].ring
    for a in tup:
        if a.ring is not ring:
            raise ValueError("tuple members live over different rings")
    if not ring.is_field:
        raise ValueError("this operation needs a field")
    return ring


def rank(tup):
    """Dimension of the span of the tuple inside the 8-dimensional algebra."""
    field = _field_of(tup)
    return linalg.rank([list(a.basis_coords()) for a in tup], field)


def _echelon_basis(vectors, field):
    rows, pivots = linalg.echelon(vectors, field)
    return [rows[i] for i in range(len(pivots))]


def algebra_closure(tup):
    """Echelonized basis of the (non-unital) subalgebra generated by the
    tuple: iterate span + pairwise products to a fixed point."""
    field = _field_of(tup)
    ring = tup[0].ring
    basis = _echelon_basis([list(a.basis_coords()) for a in tup], field)
    while True:
        octs = [oc.from_basis_coords(ring, row) for row in basis]
        candidates = [list(row) for row in basis]
        for a in octs:
            for b in octs:
                candidates.append(list((a * b).basis_coords()))
        new_basis = _echelon_basis(candidates, field)
        if len(new_basis) == len(basis):
            return [oc.from_basis_coords(ring, row) for row in new_basis]
        basis = new_basis


def gl_right_action(tup, a_matrix):
    """(tuple . A)_i = sum_k A[k][i] tuple_k; A must be invertible."""
    field = _field_of(tup)
    n = len(tup)
    if len(a_matrix) != n or any(len(r) != n for r in a_matrix):
        raise ValueError("matrix shape must match the tuple length")
    if linalg.rank(a_matrix, field) != n:
        raise ValueError("matrix is singular")
    out = []
    for i in range(n):
        acc = oc.zero(tup[0].ring)
        for k in range(n):
            acc = acc + tup[k].scale(a_matrix[k][i])
        out.append(acc)
    return tuple(out)


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
    later descriptor is evaluated."""
    if len(a_tup) != len(b_tup):
        raise ValueError("tuples must have equal length")
    if a_tup[0].ring is not b_tup[0].ring:
        raise ValueError("tuples must live over the same ring")
    for (desc, va), (_desc, vb) in zip(evaluate_family(family, a_tup, d),
                                       evaluate_family(family, b_tup, d)):
        if va != vb:
            return SeparationReport(True, desc, (va, vb))
    return SeparationReport(False)


# ---------------------------------------------------------------------------
# One-parameter limits

# z-order coordinate exponents under the diagonal subgroup: e-coordinates
# are fixed, u_j scales by t^lam_j, v_j by t^-lam_j
def _coordinate_exponents(lam):
    return (0, lam[0], lam[1], lam[2], -lam[0], -lam[1], -lam[2], 0)


class LimitResult:
    __slots__ = ("exists", "value")

    def __init__(self, exists, value=None):
        self.exists = exists
        self.value = value

    def __bool__(self):
        return self.exists

    def __repr__(self):
        return "LimitResult(%s)" % (self.value if self.exists else "does not exist",)


def limit(lam, tup):
    """The t -> 0 limit of the diagonal curve through the tuple.

    Exists iff every nonzero coordinate carries a non-negative exponent;
    the limit keeps exponent-zero coordinates and zeroes the positive ones.
    """
    lam = tuple(lam)
    if sum(lam) != 0:
        raise ValueError("exponents must sum to zero")
    ring = tup[0].ring
    exps = _coordinate_exponents(lam)
    zero = ring.zero
    out = []
    for a in tup:
        coords = list(a.coords())
        for k, c in enumerate(coords):
            if c == zero:
                continue
            if exps[k] < 0:
                return LimitResult(False)
            if exps[k] > 0:
                coords[k] = zero
        out.append(oc.from_coords(ring, coords))
    return LimitResult(True, tuple(out))


def theta_curve(lam, tup, t):
    """The curve point theta(t) . tuple with a symbolic or scalar t.

    Negative-exponent coordinates must vanish (checked), so the result is
    polynomial in t and its constant term is the limit.
    """
    lam = tuple(lam)
    if sum(lam) != 0:
        raise ValueError("exponents must sum to zero")
    ring = t.ring if hasattr(t, "ring") else tup[0].ring
    exps = _coordinate_exponents(lam)
    out = []
    for a in tup:
        coords = []
        for k, c in enumerate(a.coords()):
            e = exps[k]
            lifted = ring(c) if not hasattr(c, "ring") else c
            if e < 0:
                if c != tup[0].ring.zero:
                    raise ValueError("curve is not polynomial in t for this tuple")
                coords.append(ring.zero)
            else:
                coords.append(lifted * t ** e if e else lifted)
        out.append(oc.from_coords(ring, coords))
    return tuple(out)


def nonclosedness_witnesses(ring):
    """The nine basis tuples whose diagonal limits strictly drop rank.

    Returns records (name, tuple, lam, limit tuple, rank before, after).
    """
    u1, u2, u3 = (oc.unit_u(ring, i) for i in (1, 2, 3))
    v1, v2, v3 = (oc.unit_v(ring, i) for i in (1, 2, 3))
    e1, e2 = oc.unit_e(ring, 1), oc.unit_e(ring, 2)
    one = oc.identity(ring)
    cases = [
        ("(u1)", (u1,), (1, -1, 0)),
        ("(1,u1)", (one, u1), (1, -1, 0)),
        ("(u1,v2)", (u1, v2), (1, -1, 0)),
        ("(e1,u1)", (e1, u1), (1, -1, 0)),
        ("(e1,v1)", (e1, v1), (-1, 1, 0)),
        ("(1,u1,v2)", (one, u1, v2), (1, -1, 0)),
        ("(e1,e2,u1)", (e1, e2, u1), (1, -1, 0)),
        ("(e1,u1,v2)", (e1, u1, v2), (1, -1, 0)),
        ("(u1,v2,v3)", (u1, v2, v3), (1, -1, 0)),
    ]
    out = []
    for name, tup, lam in cases:
        res = limit(lam, tup)
        before = rank(tup)
        after = rank(res.value) if res.exists else None
        out.append((name, tup, lam, res, before, after))
    return out


def gram_matrix(tup):
    """The symmetric matrix of pairwise traces tr(a_i a_j)."""
    return [[(a * b).trace() for b in tup] for a in tup]


# ---------------------------------------------------------------------------
# GF(2) brute force


def encode_tuple_gf2(tup):
    """8 bits per octonion; bit j-1 is the z-coordinate z_j."""
    out = []
    for a in tup:
        byte = 0
        for k, c in enumerate(a.coords()):
            if c != a.ring.zero:
                byte |= 1 << k
        out.append(byte)
    return tuple(out)


def orbit_equal_oracle(a_tup, b_tup):
    """Scan the enumerated automorphism group over GF(2) for an element
    mapping one tuple onto the other.  Returns (found, witness)."""
    field = GF(2)
    for a in a_tup + b_tup:
        if a.ring is not field:
            raise ValueError("oracle tuples must live over GF(2)")
    if len(a_tup) != len(b_tup):
        raise ValueError("tuples must have equal length")
    mats, _words = gp.enumerate_group_array(2)
    acols = np.array([[int(x.r) for x in a.basis_coords()] for a in a_tup],
                     dtype=np.int64).T
    bcols = np.array([[int(x.r) for x in b.basis_coords()] for b in b_tup],
                     dtype=np.int64).T
    images = (mats @ acols) % 2
    hits = np.all(images == bcols, axis=(1, 2))
    if not hits.any():
        return (False, None)
    idx = int(np.argmax(hits))
    rows = [[field(int(x)) for x in row] for row in mats[idx]]
    return (True, gp.GroupElement(field, rows, (("enumerated", idx),)))


# ---------------------------------------------------------------------------
# Subalgebra fingerprints


class SubalgebraFingerprint:
    __slots__ = ("dimension", "has_identity", "traces", "norms", "zero_pattern")

    def __init__(self, dimension, has_identity, traces, norms, zero_pattern):
        self.dimension = dimension
        self.has_identity = has_identity
        self.traces = traces
        self.norms = norms
        self.zero_pattern = zero_pattern

    def as_tuple(self):
        return (self.dimension, self.has_identity, self.traces, self.norms,
                self.zero_pattern)

    def __eq__(self, other):
        if not isinstance(other, SubalgebraFingerprint):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __repr__(self):
        return "SubalgebraFingerprint%r" % (self.as_tuple(),)


def subalgebra_fingerprint(basis_tup):
    """Invariant data of a multiplicatively closed basis presentation.

    Equal for presentations related by an automorphism (a necessary
    condition for equivalence, not sufficient).  Raises when the span is
    not closed under multiplication.
    """
    field = _field_of(basis_tup)
    rows = [list(a.basis_coords()) for a in basis_tup]
    if linalg.rank(rows, field) != len(basis_tup):
        raise ValueError("basis members are linearly dependent")
    for a in basis_tup:
        for b in basis_tup:
            if linalg.in_span(rows, list((a * b).basis_coords()), field) is None:
                raise ValueError("span is not closed under multiplication")
    ident = linalg.in_span(rows, list(oc.identity(basis_tup[0].ring).basis_coords()),
                           field) is not None
    traces = tuple(a.trace() for a in basis_tup)
    norms = tuple(a.norm() for a in basis_tup)
    zero_pattern = tuple(tuple((a * b).is_zero() for b in basis_tup)
                         for a in basis_tup)
    return SubalgebraFingerprint(len(basis_tup), ident, traces, norms,
                                 zero_pattern)


def rebuild_automorphism(a_tup, b_tup):
    """The linear map sending a_i to b_i, for 8-member spanning tuples.

    This is the structure-constant matching reconstruction: when both
    tuples span the algebra and share all pairwise products' coordinates
    relative to themselves, the map is an automorphism.
    """
    field = _field_of(a_tup)
    if len(a_tup) != 8 or len(b_tup) != 8:
        raise ValueError("need tuples of length 8")
    acols = [[a.basis_coords()[r] for a in a_tup] for r in range(8)]
    bcols = [[b.basis_coords()[r] for b in b_tup] for r in range(8)]
    ainv = linalg.inverse(acols, field)
    if ainv is None:
        raise ValueError("first tuple does not span the algebra")
    return gp.GroupElement(a_tup[0].ring, linalg.matmul(bcols, ainv),
                           (("rebuilt",),))
