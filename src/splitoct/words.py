"""Non-associative words and the exact trace normalizer.

A word is a binary tree built from plain tuples: a leaf is an int letter
index (1-based), an inner node is a pair (left, right).  The normalizer
rewrites tr(w(Z_1,...,Z_n)) into an exact linear combination of products
of the canonical invariants tr(i_1,...,i_k) (left-normed, strictly
increasing indices) and n(i).  Unlike the coarse equivalence modulo
decomposables, every lower-order correction term is kept, so the output
is an identity that can be checked by evaluation over any ring.

The canonical invariants are the Descriptor pairs ("tr", (i1,...,ik))
and ("n", (i,)), the members of the invariant families and, read with
det for n, of the 2x2 matrix invariants; eval_descriptor evaluates one
on a tuple.  Inside a TraceExpr each such factor is an atom of the
coded monomials of scalars: the atom table gives every distinct
canonical pair a prime the first time it occurs, so a monomial is the
int product of its factors' primes and a product of two monomials is
one int product.  TraceExpr.terms decodes them back into sorted tuples
of plain pairs, each equal and hash-equal to its Descriptor.

The rewriting uses three exact consequences of the quadratic relation
and linearized alternativity:

  (swap)      AB   = -BA + tr(A)B + tr(B)A + (tr(AB) - tr(A)tr(B)) 1
  (exchange)  A(BC) = -B(AC) + tr(A)(BC) + tr(B)(AC) + (tr(AB) - tr(A)tr(B)) C
  (square)    (PA)A = P(A*A) = tr(A)(PA) - n(A)P

Products of left-normed words reduce by induction on the length of the
right factor, and the trace of such a product by the same induction on
traces alone; index sequences are then sorted by adjacent transpositions,
each with its full correction terms.
"""

from fractions import Fraction
from functools import cache
from operator import itemgetter

from .octonion import ring_of
from .scalars import (ATOM_CODES, GF, QQ, PolynomialRing, add_terms, atom_code, decode,
                      evaluate_terms, mul_terms, mul_terms_into, sub_terms)

__all__ = [
    "Descriptor", "eval_descriptor", "degree", "leaves", "left_normed", "evaluate",
    "TraceExpr", "te_const", "te_tr", "te_norm",
    "normalize_trace", "multilinear_sign", "all_shapes",
]

UNIT = ()  # the algebra unit 1_O, as a key in word linear combinations


def leaves(w):
    """The letters of w from left to right.  Raises ValueError, naming
    the node, unless w is an int letter >= 1 or a pair of such words."""
    out = []
    stack = [w]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            if len(node) != 2:
                raise ValueError("an inner node of a word needs exactly two "
                                 "children: %r in %r" % (node, w))
            stack.append(node[1])
            stack.append(node[0])
        elif type(node) is not int:
            raise ValueError("a leaf of a word must be an int letter (inner "
                             "nodes are tuples): %r in %r" % (node, w))
        elif node < 1:
            raise ValueError("letters are numbered from 1: %r" % (w,))
        else:
            out.append(node)
    return tuple(out)


def degree(w):
    """The number of letters of w; ValueError for a malformed word."""
    return len(leaves(w))


def left_normed(indices):
    """The left comb ((..(x_{i1} x_{i2}) x_{i3})..) x_{ik}."""
    indices = tuple(indices)
    if not indices:
        raise ValueError("a word needs at least one letter")
    w = indices[0]
    for i in indices[1:]:
        w = (w, i)
    return w


def all_shapes(d):
    """All binary tree shapes with d leaves; leaves are None placeholders."""
    if d == 1:
        return [None]
    out = []
    for k in range(1, d):
        for l in all_shapes(k):
            for r in all_shapes(d - k):
                out.append((l, r))
    return out


def evaluate(w, tup, memo=None):
    """Evaluate the word on a tuple of octonions by its tree shape.
    ValueError for a malformed word, as in leaves; IndexError for a
    letter above len(tup)."""
    top = max(leaves(w))
    if top > len(tup):
        raise IndexError("letter %d exceeds tuple length %d" % (top, len(tup)))
    return _evaluate(w, tup, memo)


def _evaluate(w, tup, memo):
    if type(w) is int:
        return tup[w - 1]
    if memo is not None:
        val = memo.get(w)
        if val is not None:
            return val
    val = _evaluate(w[0], tup, memo) * _evaluate(w[1], tup, memo)
    if memo is not None:
        memo[w] = val
    return val


# ---------------------------------------------------------------------------
# Trace expressions


class IndexBelowOne(ValueError, IndexError):
    """A descriptor index below 1: a refused value, and a letter that
    names no member of any tuple."""


class Descriptor(tuple):
    """n(i) or tr(i1,...,ik): the pair (kind, indices), kind "n" or "tr",
    with one norm index or k >= 1 strictly increasing trace indices, all
    ints (not bools) at least 1."""

    __slots__ = ()

    def __new__(cls, kind, indices):
        if kind not in ("n", "tr"):
            raise ValueError("kind must be 'n' or 'tr'")
        indices = tuple(indices)
        if not indices or (kind == "n" and len(indices) > 1):
            raise ValueError("n(i) takes one index, tr at least one")
        if not all(type(i) is int for i in indices):
            raise ValueError("descriptor indices must be ints: %r" % (indices,))
        if indices[0] < 1:
            raise IndexBelowOne("descriptor indices are numbered from 1: %r"
                                % (indices,))
        if kind == "tr" and any(a >= b for a, b in zip(indices, indices[1:])):
            raise ValueError("trace indices must strictly increase")
        return tuple.__new__(cls, (kind, indices))

    def __getnewargs__(self):  # pickle and copy call __new__ with these
        return tuple(self)

    kind = property(itemgetter(0))
    indices = property(itemgetter(1))

    @property
    def degree(self):
        return 2 if self.kind == "n" else len(self.indices)

    def name(self):
        if self.kind == "n":
            return "n(%d)" % self.indices[0]
        return "tr(%s)" % ",".join(map(str, self.indices))

    __repr__ = name


def eval_descriptor(desc, tup):
    """The descriptor's value on a tuple of octonions: the norm, or the
    trace of the left-normed product.  tr(i1,...,ik) with k >= 2 is the
    left-normed product of i1..i(k-1), then trace_mul by the last member,
    so the last product is never formed."""
    idx = desc.indices
    if max(idx) > len(tup):  # a Descriptor's indices are >= 1
        raise IndexError("descriptor index %d exceeds tuple length %d"
                         % (max(idx), len(tup)))
    if desc.kind == "n":
        return tup[idx[0] - 1].norm()
    if len(idx) == 1:
        return tup[idx[0] - 1].trace()
    return evaluate(left_normed(idx[:-1]), tup).trace_mul(tup[idx[-1] - 1])


def _factor_code(kind, indices):
    """The prime code of the factor (kind, indices) in the atom table,
    handed out on first use.  The indices must be ints; a new factor is
    validated as a Descriptor and stored as its plain pair."""
    key = (kind, tuple(indices))
    if not all(type(i) is int for i in key[1]):
        raise ValueError("descriptor indices must be ints: %r" % (key[1],))
    f = ATOM_CODES.get(key)
    if f is None:
        f = atom_code(tuple(Descriptor(*key)))
    return f


def _monomial_key(m):
    """Sort key of a decoded monomial: its degree, then its factors."""
    return (sum(Descriptor(*f).degree for f in m), m)


class TraceExpr:
    """Exact linear combination of products of tr(i1,...,ik) and n(i).

    `terms` maps each monomial, a sorted tuple of factors
    ("tr", (i1,...,ik)) or ("n", (i,)) (plain tuples equal to their
    Descriptor), to its coefficient, an exact integer or Fraction.  It is
    a decoded copy: the expression itself keys its terms by monomial
    codes, the product of the prime code of each factor, as
    scalars.decode reads them.  A scalar operand and a te_const constant
    take the coefficient rule of the polynomials over QQ,
    PolynomialRing(QQ).coefficient: an int when integral (a bool is the
    int it equals), otherwise a Fraction.
    """

    __slots__ = ("_terms",)

    def __init__(self, coded=None):
        """coded: a dict from monomial codes to nonzero coefficients,
        which the expression takes over."""
        self._terms = coded or {}

    @property
    def terms(self):
        return {decode(m): c for m, c in self._terms.items()}

    def _coerce(self, other):
        if type(other) is TraceExpr:
            return other
        if isinstance(other, (int, Fraction)):
            return te_const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TraceExpr(add_terms(self._terms, o._terms))

    __radd__ = __add__

    def __neg__(self):
        return TraceExpr({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TraceExpr(sub_terms(self._terms, o._terms))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TraceExpr(mul_terms(self._terms, o._terms))

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def is_zero(self):
        return not self._terms

    def reduce_mod(self, p):
        """Coefficients reduced into GF(p), p prime; drops vanishing
        monomials.  The residues are plain ints, so arithmetic on the
        result is over Z: with r = normalize_trace(((1, 2), (1, 2)),
        char=2), r + r is 2*tr(1,2)*tr(1,2), not 0.  Reduce again after
        arithmetic."""
        field = GF(p)
        terms = {}
        for m, c in self._terms.items():
            r = field(c).r
            if r:
                terms[m] = r
        return TraceExpr(terms)

    def evaluate(self, tup, cache=None):
        """Evaluate on a tuple of octonions, exact in its ring; cache maps
        factors, as pairs, to their values.  The missing factors are
        filled in first, then scalars.evaluate_terms sums the terms.
        ValueError for an empty tuple or members over different rings."""
        ring = ring_of(tup)
        if cache is None:
            cache = {}
        for pair in {f for m in self._terms for f in decode(m)}:
            if pair not in cache:
                cache[pair] = eval_descriptor(Descriptor(*pair), tup)
        return evaluate_terms(self._terms, ring, cache)

    def __repr__(self):
        if not self._terms:
            return "0"
        terms = self.terms
        parts = []
        for m in sorted(terms, key=_monomial_key):
            c = terms[m]
            body = "*".join(Descriptor(*f).name() for f in m)
            parts.append("%s*%s" % (c, body) if body and c != 1 else body or str(c))
        return " + ".join(parts)


def _factor(kind, indices, c=1):
    """The coded term dict of c times the factor (kind, indices)."""
    return {_factor_code(kind, indices): c}


def te_const(c):
    c = PolynomialRing(QQ).coefficient(c)
    return TraceExpr({1: c} if c else {})


def te_tr(indices):
    return TraceExpr(_factor("tr", indices))


def te_norm(i):
    return TraceExpr(_factor("n", (i,)))


# ---------------------------------------------------------------------------
# The rewriting engine
#
# Every value in here is a coded term dict (a TraceExpr's terms, keyed
# by monomial codes), and only normalize_trace wraps one in a TraceExpr.  A
# left-normed word is its index tuple, the unit is UNIT = (), and a
# combination of such words maps each word to its coded term dict.
# Each rule is one _sum_of_products: scalars.mul_terms_into builds it in
# a new dict and adds a unit operand _ONE without multiplying, and a
# difference is a product with _NEG.  The memos live as long as the
# process and share their values, so no term dict they hold is ever
# mutated: a changed entry is a new sum, and _product passes a unit
# factor through only for a result that is just read.

_ONE = {1: 1}
_NEG = {1: -1}


def _sum_of_products(*pairs, start=()):
    """start plus a*b summed over the pairs (a, b) of coded term dicts."""
    acc = dict(start)
    for a, b in pairs:
        mul_terms_into(acc, a, b)
    return acc


def _product(a, b):
    """a*b for coded term dicts.  A unit factor is passed through, so the
    result may be a or b itself and is only read."""
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    return mul_terms_into({}, a, b)


def _defect(ab, a, b):
    """tr(AB) - tr(A)tr(B) from the traces ab, a and b: the coefficient
    of the unit in the swap identity."""
    return _sum_of_products((_product(_NEG, a), b), start=ab)


@cache
def canonical_trace(J):
    """tr of the left-normed word with index tuple J (tr(1) = 2 for the
    empty tuple), over sorted strictly increasing canonical monomials."""
    if not J:
        return {1: 2}
    m = next((i for i in range(len(J) - 1) if J[i] >= J[i + 1]), None)
    if m is None:  # J is strictly increasing
        return _factor("tr", J)
    P, a, b, Q = J[:m], J[m], J[m + 1], J[m + 2:]
    ta, tb = _factor("tr", (a,)), _factor("tr", (b,))
    if a == b:
        # the square step tr(P a a Q) = tr(a) tr(P a Q) - n(a) tr(P Q); with
        # nothing else in J it is the quadratic relation
        return _sum_of_products((ta, canonical_trace(P + (a,) + Q)),
                                (_factor("n", (a,), -1), canonical_trace(P + Q)))
    # the swap of the adjacent a > b
    return _sum_of_products(
        (_NEG, canonical_trace(P + (b, a) + Q)),
        (ta, canonical_trace(P + (b,) + Q)),
        (tb, canonical_trace(P + (a,) + Q)),
        (_defect(_factor("tr", (b, a)), ta, tb), canonical_trace(P + Q)))


@cache
def _trace_mul(L, R):
    """tr(L R) for left-normed words L, R (either may be UNIT): the trace
    of the exchange step of _mul_left_normed, so no product is expanded."""
    if not L or len(R) <= 1:
        return canonical_trace(L + R)
    R1, x = R[:-1], R[-1:]
    tL, tR1 = canonical_trace(L), canonical_trace(R1)
    return _sum_of_products(
        (tL, canonical_trace(R)),
        (canonical_trace(L + x), tR1),
        (_NEG, _trace_mul(L + x, R1)),
        (canonical_trace(x), _defect(_trace_mul(L, R1), tL, tR1)))


@cache
def _mul_left_normed(L, R):
    """Product of two left-normed words as a combination of left-normed
    words and the unit, with coded term-dict coefficients.  Exact
    identity:
    L(R1 x) = (Lx)R1 + tr(L) R - tr(Lx) R1
              + (tr(L R1) - tr(L)tr(R1)) x + (tr(Lx)tr(R1) - tr((Lx)R1)) 1."""
    if len(R) == 1:
        return {L + R: _ONE}
    R1, x = R[:-1], R[-1:]
    tL, tR1, tLx = canonical_trace(L), canonical_trace(R1), canonical_trace(L + x)
    out = dict(_mul_left_normed(L + x, R1))  # shares its entries
    # a changed entry is a new sum; R1 == x when R = (a, a), summed twice
    for k, *pairs in ((R, (_ONE, tL)),
                      (R1, (_NEG, tLx)),
                      (x, (_ONE, _defect(_trace_mul(L, R1), tL, tR1))),
                      (UNIT, (tR1, tLx), (_NEG, _trace_mul(L + x, R1)))):
        out[k] = _sum_of_products(*pairs, start=out.get(k, ()))
    return {k: c for k, c in out.items() if c}


def _to_left_normed(w):
    """w as a combination of left-normed words and the unit, each with
    its coded term dict; every coefficient is owned by the result except
    the shared _ONE of a letter."""
    if type(w) is int:
        return {(w,): _ONE}
    ea, eb = map(_to_left_normed, w)
    out = {}
    for wa, sa in ea.items():
        for wb, sb in eb.items():
            s = _product(sa, sb)
            prod = {wa + wb: _ONE} if UNIT in (wa, wb) else _mul_left_normed(wa, wb)
            for wk, sc in prod.items():
                mul_terms_into(out.setdefault(wk, {}), s, sc)
    return {k: c for k, c in out.items() if c}


def normalize_trace(w, char=0):
    """Exact expansion of tr(w(Z_1,...,Z_n)) over canonical monomials.

    Letters are numbered from 1.  With char=p, p prime, the coefficients
    are reduced into GF(p); char=0 keeps them in Z (signs are always
    computed in Z first).  char must be an int >= 0, else ValueError.
    """
    if type(char) is not int or char < 0:
        raise ValueError("char must be an int >= 0: %r" % (char,))
    leaves(w)  # refuses a malformed word before any rewriting
    # a letter is its product with the unit
    ea, eb = ({(w,): _ONE}, {UNIT: _ONE}) if type(w) is int else map(_to_left_normed, w)
    acc = {}
    for wa, sa in ea.items():
        for wb, sb in eb.items():
            mul_terms_into(acc, _product(sa, sb), _trace_mul(wa, wb))
    out = TraceExpr(acc)
    return out.reduce_mod(char) if char else out


def multilinear_sign(w):
    """Sign and sorted indices of a word w.

    At degree >= 3, tr(w) = sign*tr(sorted) modulo decomposables.  At
    degree 2 the sign is the word-level one of the swap identity,
    Z_j Z_i = -Z_i Z_j plus terms with a trace or norm factor, so (2, 1)
    gives -1 although tr(Z_2 Z_1) is exactly +tr(1,2), as
    normalize_trace((2, 1)) shows.  A letter gives +1.  None for a
    non-multilinear word of degree > 2, whose trace is decomposable."""
    ls = leaves(w)
    k = len(ls)
    if len(set(ls)) != k:
        if k > 2:
            return None
        raise ValueError("sign is defined for multilinear words or degree > 2")
    srt = tuple(sorted(ls))
    if k == 1:
        return (1, srt)
    if k == 2:
        # convention of the degree-2 rearrangement of the swap identity;
        # the exact expansion still collects to +tr(i,j)
        return ((1 if ls[0] < ls[1] else -1), srt)
    coeff = normalize_trace(w)._terms.get(_factor_code("tr", srt), 0)
    return (int(coeff), srt)
