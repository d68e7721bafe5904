"""Exact coefficient rings: prime fields GF(p), rationals, and sparse
multivariate polynomials in variables z[i,j].

Rationals are plain `fractions.Fraction` (ints are accepted wherever a
rational is expected; they are exact rationals with denominator 1).
Fractions are immutable, so QQ(x) returns a Fraction x itself.  A
polynomial over GF(p) stores its coefficients as int residues, not as
FpElement: the term-dict kernels sum them in Z, and the ring reduces
each finished result mod p once.
All rings are interned, so two rings compare equal iff they are the
same object.

Every ring offers one protocol: `ring(x)` coerces an int, a Fraction
or an element of the ring; `zero`, `one`, `char` and `is_field`.  The
inverse of a unit x is `ring.one / x`.
"""

from fractions import Fraction
from itertools import groupby

__all__ = [
    "GF", "QQ", "PrimeField", "RationalField", "PolynomialRing",
    "Polynomial", "FpElement", "coefficients_in_z_half", "var_id",
]


# Miller-Rabin with the prime bases up to 41 is exact below this bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Deterministic primality test; raises ValueError when p is at or
    above the bound where the fixed Miller-Rabin bases are proven exact."""
    if p >= _MR_LIMIT:
        raise ValueError("modulus %d is too large: prime fields need "
                         "p < %d" % (p, _MR_LIMIT))
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FpElement:
    """Residue in GF(p).

    A field with p <= _TABLE_LIMIT hands out one shared instance per
    residue; a larger field allocates a new instance for every result, so
    elements must be compared with ==, never with `is`.
    """

    __slots__ = ("field", "r")

    def __init__(self, field, r):
        self.field = field
        self.r = r

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.field is not self.field:
                raise ValueError("elements of different prime fields")
            return other
        if isinstance(other, int):
            return self.field(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.elem((self.r + o.r) % self.field.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.elem((self.r - o.r) % self.field.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.elem((self.r * o.r) % self.field.p)

    __rmul__ = __mul__

    def __neg__(self):
        return self.field.elem((-self.r) % self.field.p)

    def inverse(self):
        if self.r == 0:
            raise ZeroDivisionError("zero has no inverse in GF(%d)" % self.field.p)
        return self.field.elem(pow(self.r, self.field.p - 2, self.field.p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return self.field.elem(pow(self.r, k, self.field.p))

    def __eq__(self, other):
        # an int is equal only to the element whose residue it is, so
        # equal objects hash equal
        if isinstance(other, FpElement):
            return self.field is other.field and self.r == other.r
        if isinstance(other, int):
            return self.r == other
        return NotImplemented

    def __hash__(self):
        return hash(self.r)

    def __repr__(self):
        return str(self.r)

    def __bool__(self):
        return self.r != 0


# fields up to this size preallocate one FpElement per residue, so their
# arithmetic allocates nothing; above it a table would grow with every
# residue ever produced
_TABLE_LIMIT = 1024


class PrimeField:
    """GF(p) for prime p. `GF(p)` returns the interned instance.  A
    modulus that is not an int (a bool, a float, a string) is refused
    with ValueError before the lookup, so the answer does not depend on
    which fields exist."""

    _interned = {}

    def __new__(cls, p):
        if type(p) is not int:
            raise ValueError("modulus must be an int: %r" % (p,))
        inst = cls._interned.get(p)
        if inst is None:
            if not _is_prime(p):
                raise ValueError("modulus %r is not prime" % (p,))
            inst = object.__new__(cls)
            inst.p = p
            inst.char = p
            inst.is_field = True
            inst._elems = ([FpElement(inst, r) for r in range(p)]
                           if p <= _TABLE_LIMIT else None)
            cls._interned[p] = inst
        return inst

    def elem(self, r):
        """The element with residue r, for 0 <= r < p."""
        if self._elems is not None:
            return self._elems[r]
        return FpElement(self, r)

    def __call__(self, x):
        if isinstance(x, FpElement):
            if x.field is not self:
                raise ValueError("element of a different prime field")
            return x
        if isinstance(x, int):
            return self.elem(x % self.p)
        if isinstance(x, Fraction):
            return self.from_fraction(x)
        raise TypeError("cannot coerce %r into GF(%d)" % (x, self.p))

    def from_fraction(self, c):
        """c, a Fraction or an int, reduced into the field."""
        den = c.denominator % self.p
        if den == 0:
            raise ZeroDivisionError("denominator %d not invertible in GF(%d)"
                                    % (c.denominator, self.p))
        if den == 1:
            return self(c.numerator)
        return self(c.numerator) * self(den).inverse()

    @property
    def zero(self):
        return self.elem(0)

    @property
    def one(self):
        return self.elem(1)

    def __repr__(self):
        return "GF(%d)" % self.p


def GF(p):
    return PrimeField(p)


class RationalField:
    """The rationals. Elements are Fraction (or int, treated exactly)."""

    char = 0
    is_field = True

    def __call__(self, x):
        if type(x) is Fraction:  # immutable, so returned as it is
            return x
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError("cannot coerce %r into the rationals" % (x,))

    def from_fraction(self, c):
        return self(c)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def add_terms_into(acc, b):
    """Add the term dict b (monomial -> nonzero coefficient) into acc in
    place; acc must be a dict its caller owns, never one shared with a
    memo or another value."""
    for m, c in b.items():
        s = acc.get(m)
        if s is None:
            acc[m] = c
        else:
            s = s + c
            if s == 0:
                del acc[m]
            else:
                acc[m] = s


def add_terms(a, b):
    """The sum of two term dicts, as a new dict."""
    terms = dict(a)
    add_terms_into(terms, b)
    return terms


def sub_terms(a, b):
    """The difference a - b of two term dicts, as a new dict: add_terms
    with each coefficient of b negated."""
    terms = dict(a)
    for m, c in b.items():
        s = terms.get(m)
        if s is None:
            terms[m] = -c
        else:
            s = s - c
            if s == 0:
                del terms[m]
            else:
                terms[m] = s
    return terms


def mul_terms_into(acc, a, b):
    """Add the product of the term dicts a and b, whose monomials are
    sorted tuples of factors, into acc in place, and return acc; acc is
    owned as in add_terms_into and is neither a nor b.  Coefficients lie
    in a field or in Z, so no product of two of them vanishes; a sum
    that cancels is deleted.  A unit operand, the constant 1 (an int,
    Fraction or FpElement equal to 1), is added, not multiplied.  The
    smaller operand is the outer loop, and its constant monomial ()
    needs no sort.  An FpElement constant is tested for 1 by its residue,
    so no Python-level FpElement.__eq__ runs."""
    if () in b and len(b) == 1:
        c = b[()]
        if (c.r if type(c) is FpElement else c) == 1:
            a, b = b, a
    if () in a and len(a) == 1:
        c = a[()]
        if (c.r if type(c) is FpElement else c) == 1:
            add_terms_into(acc, b)
            return acc
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    items = b.items()
    for m1, c1 in a.items():
        for m2, c2 in items:
            m = tuple(sorted(m1 + m2)) if m1 else m2
            s = get(m)
            if s is None:
                acc[m] = c1 * c2
            else:
                s = s + c1 * c2
                if s == 0:
                    del acc[m]
                else:
                    acc[m] = s
    return acc


def mul_terms(a, b):
    """The product of two term dicts, as a new dict."""
    return mul_terms_into({}, a, b)


def evaluate_terms(terms, ring, values):
    """The term dict evaluated in ring by the ring's own arithmetic: each
    coefficient is coerced by ring(c) and each monomial id f is read as
    values[f], an element of ring."""
    acc = ring.zero
    for m, c in terms.items():
        val = ring(c)
        for f in m:
            val = val * values[f]
        acc = acc + val
    return acc


def var_id(i, j):
    """The id 8*(i-1) + (j-1) of the variable z[i,j].  Ids sort like the
    pairs (i, j); ValueError unless i >= 1 and 1 <= j <= 8 are ints, so
    no two variables share an id."""
    if type(i) is not int or type(j) is not int or i < 1 or not 1 <= j <= 8:
        raise ValueError("z[i,j] needs ints i >= 1 and 1 <= j <= 8: %r"
                         % ((i, j),))
    return 8 * (i - 1) + j - 1


def _exponents(m):
    """A monomial as its (variable id, exponent) pairs."""
    return tuple((v, len(tuple(g))) for v, g in groupby(m))


class Polynomial:
    """Sparse polynomial in variables z[i,j], i >= 1 and j in 1..8.

    `terms` maps a monomial to a nonzero base-field coefficient.  A
    monomial is the sorted tuple of the variable ids var_id(i, j) =
    8*(i-1) + (j-1) of its variables, each repeated by its exponent:
    z[1,1]^2*z[1,2] is (0, 0, 1) and z[2,3] is (10,).  Ids sort like the
    pairs (i, j), so monomials sort as they would by pairs.  Over QQ a
    coefficient that the ring builds is an int when it is integral and a
    Fraction otherwise; arithmetic may leave a Fraction with denominator
    1, which equals and hashes as its int.  Over GF(p) a coefficient is
    its int residue in 1..p-1: + - * and negation sum in Z and pass the
    result through ring.reduce once, and a constant compares as its
    FpElement.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring is not self.ring:
                raise ValueError("polynomials over different rings")
            return other
        try:
            return self.ring(other)
        except (TypeError, ValueError, ZeroDivisionError):
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Polynomial(self.ring, self.ring.reduce(add_terms(self.terms, o.terms)))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring,
                          self.ring.reduce({m: -c for m, c in self.terms.items()}))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Polynomial(self.ring, self.ring.reduce(sub_terms(self.terms, o.terms)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Polynomial(self.ring, self.ring.reduce(mul_terms(self.terms, o.terms)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("exponent must be an integer")
        if k < 0:
            return self.inverse() ** -k
        # over GF(p) the product of (f^(p^i))^d over the base-p digits d of
        # k, where f^p is f with every monomial repeated p times and the
        # same coefficients (c^p = c), so no product squares a pth power;
        # each digit, and k itself over QQ, by binary powering
        p = self.ring.p
        result, frob = self.ring.one, self
        while k:
            k, d = divmod(k, p) if p else (0, k)
            base = frob
            while d:
                if d & 1:
                    result = result * base
                d >>= 1
                if d:
                    base = base * base
            if k:
                frob = Polynomial(self.ring, {tuple(sorted(m * p)): c
                                              for m, c in frob.terms.items()})
        return result

    def __eq__(self, other):
        # a scalar equals a constant polynomial whose constant equals it
        # uncoerced, so a constant hashes as its constant; a GF(p) residue
        # compares as its field element, which no other field's equals
        if isinstance(other, Polynomial):
            return self.ring is other.ring and self.terms == other.terms
        c = self.terms.get((), 0)
        return self.is_constant() and (self.ring.base.elem(c) if self.ring.p
                                       else c) == other

    def __hash__(self):
        if self.is_constant():
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(m == () for m in self.terms)

    def inverse(self):
        if not self.is_constant() or self.is_zero():
            raise ZeroDivisionError("only nonzero constants are units")
        return self.ring(self.ring.base.one / self.terms[()])

    def _ids(self):
        return {v for m in self.terms for v in m}

    def variables(self):
        """The sorted pairs (i, j) of the variables that occur."""
        return [(v // 8 + 1, v % 8 + 1) for v in sorted(self._ids())]

    def multidegree(self, n):
        """Per-slot degree vector (degree in the block z[i,.] for each i).

        Raises ValueError unless the polynomial is multihomogeneous.
        """
        mdeg = None
        for m in self.terms:
            d = [0] * n
            for v in m:
                d[v // 8] += 1
            d = tuple(d)
            if mdeg is None:
                mdeg = d
            elif mdeg != d:
                raise ValueError("polynomial is not multihomogeneous")
        return mdeg if mdeg is not None else (0,) * n

    def monomials_sorted(self):
        return sorted(self.terms, key=_exponents)

    def substitute(self, assignment):
        """Evaluate with variables (i,j) replaced per `assignment`.

        The target ring is the one polynomial ring among the values
        (ValueError for two), else this ring when a variable is left
        unassigned (it is then retained), else the base field.  Every
        value and every coefficient is coerced into the target once.  A
        key outside var_id's range is a ValueError.  In a polynomial
        ring it runs in Horner form, iteratively and reduced once at the
        end: a monomial shares the products of its prefix with every
        monomial that has the same prefix.
        """
        values = {var_id(*v): a for v, a in assignment.items()}
        rings = {a.ring for a in values.values() if isinstance(a, Polynomial)}
        if len(rings) > 1:
            raise ValueError("mixed-ring assignment")
        retained = self._ids() - values.keys()
        target = rings.pop() if rings else self.ring if retained else self.ring.base
        if retained and target is not self.ring:
            raise ValueError("retained variables need the original ring")
        if not isinstance(target, PolynomialRing):
            return evaluate_terms(self.terms, target,
                                  {v: target(a) for v, a in values.items()})
        if self.ring.p and target is not self.ring and self.terms:
            # a residue is a bare int, so coerce a field element instead:
            # GF(p) coefficients into QQ or GF(q) are refused, as before
            target.base(self.ring.base.one)
        values = {v: target(a).terms for v, a in values.items()}
        values.update((v, {(v,): 1}) for v in retained)
        # Horner form: the partial sum of a monomial m, its own coefficient
        # plus what the longer monomials add, times the value of its last
        # run v^e, is added into the partial sum of its prefix m[:-e];
        # partial[k] holds the prefixes of length k, longest first
        top = max(map(len, self.terms), default=0)
        partial = [{} for _ in range(top + 1)]
        for m, c in self.terms.items():
            c = target.coefficient(c)
            if c:  # else a coefficient reduced into a smaller field
                partial[len(m)][m] = {(): c}
        powers = {}
        for k in range(top, 0, -1):
            for m, s in partial[k].items():
                v = m[-1]
                e = k - m.index(v)
                x = powers.get((v, e))
                if x is None:
                    x = powers[v, e] = (values[v] if e == 1 else
                                        (Polynomial(target, values[v]) ** e).terms)
                up = partial[k - e]
                acc = up.get(m[:-e])
                if acc is None:
                    acc = up[m[:-e]] = {}
                mul_terms_into(acc, s, x)
        return Polynomial(target, target.reduce(partial[0].get((), {})))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in self.monomials_sorted():
            c = self.terms[m]
            factors = ["z[%d,%d]%s" % (v // 8 + 1, v % 8 + 1,
                                        "" if e == 1 else "^%d" % e)
                       for v, e in _exponents(m)]
            body = "*".join(factors)
            if not factors:
                parts.append(str(c))
            elif c == self.ring.base.one:
                parts.append(body)
            else:
                parts.append("%s*%s" % (c, body))
        return " + ".join(parts)


class PolynomialRing:
    """Polynomials over GF(p) or the rationals in the variables z[i,j].
    `p` is the modulus of GF(p), 0 over QQ."""

    _interned = {}

    def __new__(cls, base):
        key = id(base)
        inst = cls._interned.get(key)
        if inst is None:
            inst = object.__new__(cls)
            inst.base = base
            inst.char = inst.p = base.char
            inst.is_field = False
            cls._interned[key] = inst
        return inst

    def var(self, i, j):
        """z[i,j]; ValueError unless i >= 1 and 1 <= j <= 8."""
        return Polynomial(self, {(var_id(i, j),): 1})

    def coefficient(self, x):
        """x coerced into the base field as a term stores it: over GF(p)
        the int residue in 0..p-1, over QQ an int when integral and a
        Fraction otherwise."""
        if self.p:
            return x % self.p if type(x) is int else self.base(x).r
        if type(x) is int:
            return x
        c = QQ(x)
        return c.numerator if c.denominator == 1 else c

    def reduce(self, terms):
        """A finished term dict with its coefficients as stored: over GF(p)
        a new dict of the residues mod p with the zeros dropped, over QQ
        the dict itself."""
        p = self.p
        if not p:
            return terms
        return {m: r for m, c in terms.items() if (r := c % p)}

    def __call__(self, x):
        """x as a polynomial: an int, a Fraction or a base-field element
        becomes a constant; a polynomial must already lie in this ring."""
        if isinstance(x, Polynomial):
            if x.ring is not self:
                raise ValueError("polynomial from a different ring")
            return x
        c = self.coefficient(x)
        return Polynomial(self, {(): c} if c else {})

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return Polynomial(self, {(): 1})

    def __repr__(self):
        return "%r[z]" % (self.base,)


def coefficients_in_z_half(f):
    """True iff every coefficient of f has a power-of-two denominator."""
    for c in f.terms.values():
        den = Fraction(c).denominator
        if den & (den - 1):
            return False
    return True
