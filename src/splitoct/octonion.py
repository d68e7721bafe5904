"""The split octonion algebra O(A) over any commutative ring A, in the
Zorn vector-matrix presentation (alpha, u, v, beta) with u, v in A^3.

Coordinates, the basis and the columns of automorphism matrices all run
in z-order (alpha, u1, u2, u3, v1, v2, v3, beta), matching the variables
z[i,1..8] of the polynomial ring; the basis is (e1, u1, u2, u3, v1, v2,
v3, e2).
"""

__all__ = [
    "Octonion", "dot3", "cross3", "basis", "identity", "zero",
    "unit_e", "unit_u", "unit_v", "from_coords", "q_form",
]


def dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _add3(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def _sub3(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _neg3(u):
    return (-u[0], -u[1], -u[2])


def _scale3(c, u):
    return (c * u[0], c * u[1], c * u[2])


class Octonion:
    """Immutable Zorn vector matrix over a scalar ring."""

    __slots__ = ("ring", "alpha", "u", "v", "beta")

    def __init__(self, ring, alpha, u, v, beta):
        self.ring = ring
        self.alpha = alpha
        self.u = tuple(u)
        self.v = tuple(v)
        self.beta = beta

    def _check(self, other):
        if not isinstance(other, Octonion):
            raise TypeError("expected an octonion, got %r" % (other,))
        if other.ring is not self.ring:
            raise ValueError("octonions over different rings")

    def __add__(self, other):
        self._check(other)
        return Octonion(self.ring, self.alpha + other.alpha,
                        _add3(self.u, other.u), _add3(self.v, other.v),
                        self.beta + other.beta)

    def __sub__(self, other):
        self._check(other)
        return Octonion(self.ring, self.alpha - other.alpha,
                        _sub3(self.u, other.u), _sub3(self.v, other.v),
                        self.beta - other.beta)

    def __neg__(self):
        return Octonion(self.ring, -self.alpha, _neg3(self.u), _neg3(self.v),
                        -self.beta)

    def __mul__(self, other):
        self._check(other)
        a, b = self, other
        return Octonion(
            self.ring,
            a.alpha * b.alpha + dot3(a.u, b.v),
            _sub3(_add3(_scale3(a.alpha, b.u), _scale3(b.beta, a.u)),
                  cross3(a.v, b.v)),
            _add3(_add3(_scale3(b.alpha, a.v), _scale3(a.beta, b.v)),
                  cross3(a.u, b.u)),
            a.beta * b.beta + dot3(a.v, b.u),
        )

    def scale(self, c):
        return Octonion(self.ring, c * self.alpha, _scale3(c, self.u),
                        _scale3(c, self.v), c * self.beta)

    def conj(self):
        return Octonion(self.ring, self.beta, _neg3(self.u), _neg3(self.v),
                        self.alpha)

    def trace(self):
        return self.alpha + self.beta

    def norm(self):
        return self.alpha * self.beta - dot3(self.u, self.v)

    def is_zero(self):
        z = self.ring.zero
        return (self.alpha == z and self.beta == z
                and all(c == z for c in self.u) and all(c == z for c in self.v))

    def coords(self):
        """Coordinates in z-order: (alpha, u1, u2, u3, v1, v2, v3, beta)."""
        return (self.alpha,) + self.u + self.v + (self.beta,)

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return (self.ring is other.ring and self.alpha == other.alpha
                and self.u == other.u and self.v == other.v
                and self.beta == other.beta)

    def __repr__(self):
        return "Oct(%r, %r, %r, %r)" % (self.alpha, self.u, self.v, self.beta)


def q_form(a, b):
    """The symmetric bilinear form q(a,b) = n(a+b) - n(a) - n(b)."""
    return (a.alpha * b.beta + b.alpha * a.beta
            - dot3(a.u, b.v) - dot3(b.u, a.v))


def zero(ring):
    z = ring.zero
    return Octonion(ring, z, (z, z, z), (z, z, z), z)


def identity(ring):
    z, o = ring.zero, ring.one
    return Octonion(ring, o, (z, z, z), (z, z, z), o)


def unit_e(ring, i):
    z, o = ring.zero, ring.one
    if i == 1:
        return Octonion(ring, o, (z, z, z), (z, z, z), z)
    if i == 2:
        return Octonion(ring, z, (z, z, z), (z, z, z), o)
    raise ValueError("e index must be 1 or 2")


def _unit_vec(ring, i):
    z, o = ring.zero, ring.one
    if i not in (1, 2, 3):
        raise ValueError("vector index must be 1, 2 or 3")
    return tuple(o if k == i - 1 else z for k in range(3))


def unit_u(ring, i):
    z = ring.zero
    return Octonion(ring, z, _unit_vec(ring, i), (z, z, z), z)


def unit_v(ring, i):
    z = ring.zero
    return Octonion(ring, z, (z, z, z), _unit_vec(ring, i), z)


def basis(ring):
    """The eight basis octonions in z-order: basis(ring)[k].coords() is the
    k-th unit vector."""
    return (unit_e(ring, 1),
            unit_u(ring, 1), unit_u(ring, 2), unit_u(ring, 3),
            unit_v(ring, 1), unit_v(ring, 2), unit_v(ring, 3),
            unit_e(ring, 2))


def from_coords(ring, c):
    """Build an octonion from z-order coordinates (alpha, u, v, beta)."""
    c = list(c)
    if len(c) != 8:
        raise ValueError("need 8 coordinates")
    return Octonion(ring, c[0], (c[1], c[2], c[3]), (c[4], c[5], c[6]), c[7])

