"""Automorphisms of the split octonions: generator constructors, the
action on octonions and tuples, the automorphism test, and exhaustive
enumeration of the full automorphism group over GF(2).

A group element is stored as a dense 8x8 matrix over its scalar ring,
acting on coords() columns, in z-order (alpha, u1, u2, u3, v1, v2, v3,
beta): column k holds the image of the k-th basis octonion.  The
generators are built from those images as z-order coordinate tuples,
and an element g acts on an octonion a as g(a), through its coordinate
tuple.  The GF(2) group exists once: enumerate_group_array(2).
"""

from functools import cache

import numpy as np

from . import linalg
from . import octonion as oc
from .scalars import GF, Polynomial, atom_code, var_id

__all__ = [
    "GroupElement", "identity_element", "from_sl3", "delta1", "delta2",
    "hbar", "weights", "theta", "apply_tuple", "is_automorphism",
    "coordinate_action", "enumerate_group_array", "group_order_formula",
    "sl3_transvections", "structure_constants", "automorphism_mask",
]


class GroupElement:
    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        if len(self.rows) != 8 or any(len(r) != 8 for r in self.rows):
            raise ValueError("a group element needs an 8x8 matrix")

    def __call__(self, a):
        if not isinstance(a, oc.Octonion):
            raise TypeError("expected an octonion")
        if a.ring is not self.ring:
            raise ValueError("octonion ring does not match group element ring")
        return oc.Octonion(self.ring,
                           tuple(linalg.matvec(self.rows, a.coords())))

    def compose(self, other):
        """self * other, acting as: apply other first, then self."""
        if other.ring is not self.ring:
            raise ValueError("group elements over different rings")
        return GroupElement(self.ring, linalg.matmul(self.rows, other.rows))

    def inverse(self):
        if not self.ring.is_field:
            raise ValueError("inverse needs a field-valued matrix")
        inv = linalg.inverse(self.rows, self.ring)
        if inv is None:
            raise ValueError("matrix is singular")
        return GroupElement(self.ring, inv)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.ring is other.ring and self.rows == other.rows

    def __repr__(self):
        return "GroupElement(%r)" % (self.rows,)


def identity_element(ring):
    z, o = ring.zero, ring.one
    rows = [[o if i == j else z for j in range(8)] for i in range(8)]
    return GroupElement(ring, rows)


def _from_images(ring, images):
    """The element whose column k is the z-order coordinate tuple images[k],
    the image of the k-th basis octonion."""
    return GroupElement(ring, zip(*images))


def from_sl3(ring, g):
    """The automorphism u -> u g, v -> v g^(-T) of a unimodular 3x3 g.

    Since det g = 1, the inverse is the adjugate, so this also works for
    matrices over a polynomial ring.  Row i of g^(-T) is column i of the
    adjugate, the cross product of rows i+1 and i+2 of g.
    """
    g = [tuple(r) for r in g]
    if len(g) != 3 or any(len(r) != 3 for r in g):
        raise ValueError("from_sl3 needs a 3x3 matrix")
    if oc.dot3(g[0], oc.cross3(g[1], g[2])) != ring.one:
        raise ValueError("matrix must have determinant 1")
    z = ring.zero
    images = [oc.unit_e(ring, 1).coords()]
    images += [(z,) + g[i] + (z, z, z, z) for i in range(3)]
    images += [(z, z, z, z) + oc.cross3(g[(i + 1) % 3], g[(i + 2) % 3]) + (z,)
               for i in range(3)]
    images.append(oc.unit_e(ring, 2).coords())
    return _from_images(ring, images)


def _delta1_image(uvec, c):
    u, v = c[1:4], c[4:7]
    t = oc.dot3(uvec, v)
    s = c[0] - c[7] - t
    return ((c[0] - t,) + tuple(x + s * w for x, w in zip(u, uvec))
            + tuple(x - y for x, y in zip(v, oc.cross3(u, uvec)))
            + (c[7] + t,))


def delta1(ring, uvec):
    """The u-shift by uvec, a vector of three scalars."""
    uvec = tuple(uvec)
    if len(uvec) != 3:
        raise ValueError("a shift vector needs three entries")
    return _from_images(ring, [_delta1_image(uvec, b.coords())
                               for b in oc.basis(ring)])


def delta2(ring, vvec):
    """The v-shift by vvec: hbar delta1(-vvec) hbar."""
    h = hbar(ring)
    return h.compose(delta1(ring, (-x for x in vvec))).compose(h)


def hbar(ring):
    """The involutive automorphism (alpha,u,v,beta) -> (beta,-v,-u,alpha)."""
    images = []
    for b in oc.basis(ring):
        c = b.coords()
        images.append((c[7],) + tuple(-x for x in c[4:7] + c[1:4]) + (c[0],))
    return _from_images(ring, images)


def weights(lam):
    """The z-order exponents (0, l1, l2, l3, -l1, -l2, -l3, 0) of the
    diagonal one-parameter subgroup of lam = (l1, l2, l3)."""
    lam = tuple(lam)
    if len(lam) != 3 or any(type(l) is not int for l in lam) or sum(lam) != 0:
        raise ValueError("lambda needs three integers summing to zero")
    return (0,) + lam + tuple(-l for l in lam) + (0,)


def theta(ring, lam, t):
    """Diagonal one-parameter element: coordinate k scales by
    t^weights(lam)[k], so u_j -> t^lam_j u_j and v_j -> t^-lam_j v_j."""
    w = weights(lam)
    t = ring(t)
    if t == ring.zero:
        raise ValueError("parameter must be invertible")
    z = ring.zero
    rows = [[t ** w[i] if i == j else z for j in range(8)] for i in range(8)]
    return GroupElement(ring, rows)


def apply_tuple(g, tup):
    return tuple(g(a) for a in tup)


def is_automorphism(g):
    """Invertibility plus multiplicativity on all 64 basis products."""
    b = oc.basis(g.ring)
    gb = [g(a) for a in b]
    for i in range(8):
        for j in range(8):
            if g(b[i] * b[j]) != gb[i] * gb[j]:
                return False
    if g.ring.is_field and linalg.rank(g.rows, g.ring) != 8:
        return False
    return True


def coordinate_action(g, f):
    """Action on coordinate polynomials: (g f)(a) = f(g^{-1} a).

    Substitutes each variable z[i,j] by the j-th z-coordinate of the
    octonion obtained by applying g^{-1} to a generic octonion in slot i.
    Returns a polynomial of f's ring, a constant f itself.
    """
    ring = f.ring
    if g.ring is not ring.base:
        raise ValueError("group element ring %r does not match the base "
                         "ring of %r" % (g.ring, ring))
    variables = f.variables()
    if not variables:
        # substitute would land a constant in the base field
        return f
    zero = g.ring.zero
    # each row of g^{-1} as the (k, coefficient) pairs of its nonzero entries
    rows = [[(k, ring.coefficient(c)) for k, c in enumerate(row, 1) if c != zero]
            for row in g.inverse().rows]
    assignment = {(i, j): Polynomial.from_coded(ring, {atom_code(var_id(i, k)): c
                                                       for k, c in rows[j - 1]})
                  for (i, j) in variables}
    return f.substitute(assignment)


# ---------------------------------------------------------------------------
# Enumeration over tiny prime fields


def group_order_formula(q):
    """Classical order q^6 (q^6 - 1) (q^2 - 1), computed independently."""
    return q ** 6 * (q ** 6 - 1) * (q ** 2 - 1)


def sl3_transvections(field):
    """All elementary transvections I + t E_ij over GF(q), t nonzero."""
    z, o = field.zero, field.one
    out = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for t in range(1, field.p):
                m = [[o if a == b else z for b in range(3)] for a in range(3)]
                m[i][j] = field(t)
                out.append(m)
    return out


def _generator_elements(field):
    gens = [from_sl3(field, m) for m in sl3_transvections(field)]
    for delta in (delta1, delta2):
        for i in (1, 2, 3):
            for t in range(1, field.p):
                c = tuple(field(t) if k == i - 1 else field.zero
                          for k in range(3))
                gens.append(delta(field, c))
    return gens


@cache
def enumerate_group_array(q):
    """BFS closure of the generators over GF(q), q = 2 only, as a numpy array.

    Returns (mats, words) with mats of shape (N, 8, 8) dtype int64, acting
    on coords() columns, in deterministic BFS insertion order; words[k] is
    the generator-index path that produced mats[k].  The result is
    computed once per process; a refused q raises and is never cached.
    """
    if q != 2:
        # GF(3) already has 4,245,696 elements: too many to materialize
        raise ValueError("enumeration is restricted to q = 2")
    field = GF(q)
    gens = _generator_elements(field)
    gen_mats = [np.array([[x.r for x in row] for row in g.rows], dtype=np.int64)
                for g in gens]
    ident = np.eye(8, dtype=np.int64)
    seen = {ident.tobytes(): 0}
    mats = [ident]
    words = [()]
    frontier = [0]
    while frontier:
        new_frontier = []
        for idx in frontier:
            m = mats[idx]
            for gi, gm in enumerate(gen_mats):
                nm = (m @ gm) % q
                key = nm.tobytes()
                if key not in seen:
                    seen[key] = len(mats)
                    mats.append(nm)
                    words.append(words[idx] + (gi,))
                    new_frontier.append(len(mats) - 1)
        frontier = new_frontier
    return np.stack(mats), words


def structure_constants():
    """C[i][j][k]: coordinate k of (basis_i * basis_j), the Zorn product
    of the integer unit rows."""
    units = np.eye(8, dtype=np.int64).tolist()
    return np.array([[oc._zorn(a, b) for b in units] for a in units],
                    dtype=np.int64)


def automorphism_mask(mats, q):
    """Vectorized 64-product automorphism check for a stack of matrices."""
    c = structure_constants() % q
    # lhs[n,i,j,:] = M_n applied to coordinates of (b_i b_j)
    lhs = np.einsum("ijA,nkA->nijk", c, mats) % q
    # rhs[n,i,j,:] = product of images (columns i and j of M_n)
    rhs = np.einsum("nai,nbj,abk->nijk", mats, mats, c) % q
    return np.all(lhs == rhs, axis=(1, 2, 3))

