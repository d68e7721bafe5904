"""The split octonion algebra O(A) over any commutative ring A, in the
Zorn vector-matrix presentation (alpha, u, v, beta) with u, v in A^3.

An octonion is its ring plus one tuple of eight coordinates in z-order
(alpha, u1, u2, u3, v1, v2, v3, beta), matching the variables z[i,1..8]
of the polynomial ring; coords() returns that tuple.  The basis is (e1,
u1, u2, u3, v1, v2, v3, e2), and the columns of automorphism matrices
run in the same order.

The product is one formula, _zorn, and the trace of a product another,
_zorn_trace: coordinates 0 and 7 of _zorn, 8 scalar products instead of
32.  Over GF(p) and QQ both run on the ring elements themselves, by the
ring's own arithmetic and with no lift: a * b is _zorn on the two
coordinate tuples, and trace_mul is _zorn_trace on them.  Over a
PolynomialRing the same formula is the table _ZORN_TABLE of signed
index pairs, and each output coordinate is one term dict that the
product owns and sums every signed product into with
scalars.mul_terms_into, with no temporary polynomial; over GF(p)[z]
those sums run on int residues in Z, and ring.reduce takes each
finished dict mod p once.  _zorn on the Polynomial elements is the
slow exact reference it is tested against.
invariants.evaluate_family runs _zorn and _zorn_trace on integer rows
that a lift private to it makes from a tuple.  The bilinear form
q(a, b) = tr(a conj(b)) is one call of trace_mul.  ring_of is the one
check that a tuple lives over one ring.
"""

from operator import add, neg, sub

from .scalars import Polynomial, PolynomialRing, mul_terms_into

__all__ = [
    "Octonion", "dot3", "cross3", "basis", "identity", "zero",
    "unit_e", "unit_u", "unit_v", "from_coords", "q_form", "ring_of",
]


def dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _zorn(a, b):
    """The Zorn product of two z-order 8-tuples of scalars:
    (alpha, u, v, beta)(alpha', u', v', beta') =
    (alpha alpha' + <u, v'>, alpha u' + beta' u - v x v',
     alpha' v + beta v' + u x u', beta beta' + <v, u'>)."""
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    return (a0 * b0 + (a1 * b4 + a2 * b5 + a3 * b6),
            a0 * b1 + b7 * a1 - (a5 * b6 - a6 * b5),
            a0 * b2 + b7 * a2 - (a6 * b4 - a4 * b6),
            a0 * b3 + b7 * a3 - (a4 * b5 - a5 * b4),
            b0 * a4 + a7 * b4 + (a2 * b3 - a3 * b2),
            b0 * a5 + a7 * b5 + (a3 * b1 - a1 * b3),
            b0 * a6 + a7 * b6 + (a1 * b2 - a2 * b1),
            a7 * b7 + (a4 * b1 + a5 * b2 + a6 * b3))


def _zorn_trace(a, b):
    """Coordinate 0 plus coordinate 7 of _zorn(a, b), the trace of the
    product without the product: a0 b0 + a7 b7 + <a_u, b_v> + <a_v, b_u>."""
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    return (a0 * b0 + a7 * b7 + (a1 * b4 + a2 * b5 + a3 * b6)
            + (a4 * b1 + a5 * b2 + a6 * b3))


# _zorn as signed index pairs: coordinate k of a * b is the sum of
# s * a[i] * b[j] over the rows (i, j, s) of _ZORN_TABLE[k]
_ZORN_TABLE = (
    ((0, 0, 1), (1, 4, 1), (2, 5, 1), (3, 6, 1)),
    ((0, 1, 1), (1, 7, 1), (5, 6, -1), (6, 5, 1)),
    ((0, 2, 1), (2, 7, 1), (6, 4, -1), (4, 6, 1)),
    ((0, 3, 1), (3, 7, 1), (4, 5, -1), (5, 4, 1)),
    ((4, 0, 1), (7, 4, 1), (2, 3, 1), (3, 2, -1)),
    ((5, 0, 1), (7, 5, 1), (3, 1, 1), (1, 3, -1)),
    ((6, 0, 1), (7, 6, 1), (1, 2, 1), (2, 1, -1)),
    ((7, 7, 1), (4, 1, 1), (5, 2, 1), (6, 3, 1)),
)
# coordinates 0 and 7, the trace of the product, as one sum
_TRACE_ROWS = (_ZORN_TABLE[0] + _ZORN_TABLE[7],)


def _zorn_terms(a, b, table):
    """One term dict per row of table, the sum of s * a[i] * b[j] over its
    (i, j, s), for z-order tuples a and b of polynomials: each sum is
    one dict that the caller owns, and every product is added into it by
    mul_terms_into.  A negative product reads a negated copy of a[i], a
    fresh dict, so no accumulator is ever an operand."""
    ta = [x.terms for x in a]
    tb = [x.terms for x in b]
    out = []
    for row in table:
        acc = {}
        for i, j, s in row:
            x = ta[i] if s > 0 else {m: -c for m, c in ta[i].items()}
            mul_terms_into(acc, x, tb[j])
        out.append(acc)
    return out


def ring_of(*tuples):
    """The one ring of every octonion in the tuples.

    Raises ValueError for an empty tuple, tuples of unequal lengths or
    octonions over different rings.
    """
    n = len(tuples[0])
    if n == 0:
        raise ValueError("need at least one octonion")
    if any(len(tup) != n for tup in tuples):
        raise ValueError("tuples must have equal length")
    ring = tuples[0][0].ring
    if any(a.ring is not ring for tup in tuples for a in tup):
        raise ValueError("tuple members live over different rings")
    return ring


class Octonion:
    """Immutable Zorn vector matrix over a scalar ring, built from a
    ready 8-tuple of z-order coordinates, each an element of the ring
    (from_coords checks and coerces one)."""

    __slots__ = ("ring", "_c")

    def __init__(self, ring, c):
        self.ring = ring
        self._c = c

    def _check(self, other):
        if not isinstance(other, Octonion):
            raise TypeError("expected an octonion, got %r" % (other,))
        if other.ring is not self.ring:
            raise ValueError("octonions over different rings")

    def __add__(self, other):
        self._check(other)
        return Octonion(self.ring, tuple(map(add, self._c, other._c)))

    def __sub__(self, other):
        self._check(other)
        return Octonion(self.ring, tuple(map(sub, self._c, other._c)))

    def __neg__(self):
        return Octonion(self.ring, tuple(map(neg, self._c)))

    def __mul__(self, other):
        """_zorn on the ring elements of the two factors; over a
        polynomial ring _ZORN_TABLE summed into term dicts, each reduced
        once."""
        self._check(other)
        ring = self.ring
        if type(ring) is PolynomialRing:
            return Octonion(ring, tuple(
                Polynomial(ring, ring.reduce(t))
                for t in _zorn_terms(self._c, other._c, _ZORN_TABLE)))
        return Octonion(ring, _zorn(self._c, other._c))

    def trace_mul(self, other):
        """tr(self * other) by _zorn_trace on the ring elements, 8 scalar
        products instead of the 32 of the full product; over a
        polynomial ring the same 8 summed into one term dict."""
        self._check(other)
        ring = self.ring
        if type(ring) is PolynomialRing:
            return Polynomial(ring, ring.reduce(
                _zorn_terms(self._c, other._c, _TRACE_ROWS)[0]))
        return _zorn_trace(self._c, other._c)

    def scale(self, s):
        s = self.ring(s)
        return Octonion(self.ring, tuple(s * x for x in self._c))

    def conj(self):
        c = self._c
        return Octonion(self.ring, (c[7], -c[1], -c[2], -c[3],
                                    -c[4], -c[5], -c[6], c[0]))

    def trace(self):
        return self._c[0] + self._c[7]

    def norm(self):
        c = self._c
        return c[0] * c[7] - dot3(c[1:4], c[4:7])

    def is_zero(self):
        z = self.ring.zero
        return all(x == z for x in self._c)

    def coords(self):
        """Coordinates in z-order: (alpha, u1, u2, u3, v1, v2, v3, beta)."""
        return self._c

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return self.ring is other.ring and self._c == other._c

    def __repr__(self):
        c = self._c
        return "Oct(%r, %r, %r, %r)" % (c[0], c[1:4], c[4:7], c[7])


def q_form(a, b):
    """The symmetric bilinear form q(a,b) = n(a+b) - n(a) - n(b),
    which is tr(a conj(b))."""
    return a.trace_mul(b.conj())


def _unit(ring, k):
    """The octonion whose z-order coordinate k is one and the rest zero."""
    z, o = ring.zero, ring.one
    return Octonion(ring, tuple(o if j == k else z for j in range(8)))


def zero(ring):
    return Octonion(ring, (ring.zero,) * 8)


def identity(ring):
    z, o = ring.zero, ring.one
    return Octonion(ring, (o, z, z, z, z, z, z, o))


def unit_e(ring, i):
    if i not in (1, 2):
        raise ValueError("e index must be 1 or 2")
    return _unit(ring, 0 if i == 1 else 7)


def unit_u(ring, i):
    if i not in (1, 2, 3):
        raise ValueError("vector index must be 1, 2 or 3")
    return _unit(ring, i)


def unit_v(ring, i):
    if i not in (1, 2, 3):
        raise ValueError("vector index must be 1, 2 or 3")
    return _unit(ring, i + 3)


def basis(ring):
    """The eight basis octonions in z-order: basis(ring)[k].coords() is the
    k-th unit vector."""
    return tuple(_unit(ring, k) for k in range(8))


def from_coords(ring, c):
    """Build an octonion from z-order coordinates (alpha, u, v, beta),
    each coerced by ring(x): an int or a Fraction becomes a ring element
    and an element of another ring is refused."""
    c = tuple(map(ring, c))
    if len(c) != 8:
        raise ValueError("need 8 coordinates")
    return Octonion(ring, c)
