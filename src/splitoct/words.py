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
on a tuple.  Inside a TraceExpr each such factor is a small int: a
process-wide table interns every distinct canonical pair once, the first
time it occurs, so a monomial is a sorted tuple of ints and the term
kernels hash and sort ints.  TraceExpr.terms decodes them back into
sorted tuples of plain pairs, each equal and hash-equal to its
Descriptor.

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

from .scalars import GF, add_terms, add_terms_into, mul_terms

__all__ = [
    "Descriptor", "eval_descriptor", "degree", "leaves", "left_normed", "evaluate",
    "TraceExpr", "te_const", "te_tr", "te_norm",
    "normalize_trace", "multilinear_sign",
    "all_shapes", "canonical_trace",
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
    """Evaluate the word on a tuple of octonions by its tree shape."""
    if isinstance(w, int):
        if not 1 <= w <= len(tup):
            raise IndexError("letter %d exceeds tuple length %d" % (w, len(tup)))
        return tup[w - 1]
    if memo is not None:
        val = memo.get(w)
        if val is not None:
            return val
    val = evaluate(w[0], tup, memo) * evaluate(w[1], tup, memo)
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


# The factor table: _FACTORS[f] is the canonical pair, a plain tuple,
# with id f, and _FACTOR_IDS maps the pair back to f.  It lives as long
# as the process and holds one entry per distinct factor ever built; an
# id is never reused, so memoized expressions stay valid.
_FACTORS = []
_FACTOR_IDS = {}


def _factor_id(kind, indices):
    """The id of the factor (kind, indices), interned on first use.  The
    indices must be ints; a new factor is validated as a Descriptor."""
    key = (kind, tuple(indices))
    if not all(type(i) is int for i in key[1]):
        raise ValueError("descriptor indices must be ints: %r" % (key[1],))
    f = _FACTOR_IDS.get(key)
    if f is None:
        key = tuple(Descriptor(kind, key[1]))
        f = _FACTOR_IDS[key] = len(_FACTORS)
        _FACTORS.append(key)
    return f


def _decode(m):
    """A monomial of factor ids as the sorted tuple of its pairs."""
    return tuple(sorted([_FACTORS[f] for f in m]))


def _monomial_key(m):
    """Sort key of a decoded monomial: its degree, then its factors."""
    return (sum(Descriptor(*f).degree for f in m), m)


class TraceExpr:
    """Exact linear combination of products of tr(i1,...,ik) and n(i).

    `terms` maps each monomial, a sorted tuple of factors
    ("tr", (i1,...,ik)) or ("n", (i,)) (plain tuples equal to their
    Descriptor), to its coefficient, an exact integer or Fraction.  It is
    a decoded copy: the expression itself keys its terms by sorted
    tuples of factor ids.
    """

    __slots__ = ("_terms",)

    def __init__(self, coded=None):
        """coded: a dict from sorted tuples of factor ids to nonzero
        coefficients, which the expression takes over."""
        self._terms = coded or {}

    @property
    def terms(self):
        return {_decode(m): c for m, c in self._terms.items()}

    def __add__(self, other):
        if type(other) is not TraceExpr:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = te_const(other)
        return TraceExpr(add_terms(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self):
        return TraceExpr({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not TraceExpr:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = te_const(other)
        return self + (-other)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return te_const(other) - self
        return NotImplemented

    def __mul__(self, other):
        if type(other) is TraceExpr:
            return TraceExpr(mul_terms(self._terms, other._terms))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            return TraceExpr()
        return TraceExpr({m: c * other for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not TraceExpr:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = te_const(other)
        return self._terms == other._terms

    def is_zero(self):
        return not self._terms

    def reduce_mod(self, p):
        """Coefficients reduced into GF(p), p prime; drops vanishing
        monomials."""
        field = GF(p)
        terms = {}
        for m, c in self._terms.items():
            r = field(c).r
            if r:
                terms[m] = r
        return TraceExpr(terms)

    def monomials_sorted(self):
        return sorted(self.terms, key=_monomial_key)

    def evaluate(self, tup, cache=None):
        """Evaluate on a tuple of octonions, exact in its ring; cache maps
        factors, as pairs, to their values."""
        ring = tup[0].ring
        if cache is None:
            cache = {}
        acc = ring.zero
        for m, c in self._terms.items():
            val = ring(c)
            for f in m:
                pair = _FACTORS[f]
                fv = cache.get(pair)
                if fv is None:
                    fv = cache[pair] = eval_descriptor(Descriptor(*pair), tup)
                val = val * fv
            acc = acc + val
        return acc

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


def te_const(c):
    if c == 0:
        return TraceExpr()
    return TraceExpr({(): c})


def te_tr(indices):
    return TraceExpr({(_factor_id("tr", indices),): 1})


def te_norm(i):
    return TraceExpr({(_factor_id("n", (i,)),): 1})


_TE_ONE = te_const(1)


def _sum(exprs):
    """The sum of TraceExprs, added in place into one dict made here, so
    no partial sum is copied."""
    acc = {}
    for e in exprs:
        add_terms_into(acc, e._terms)
    return TraceExpr(acc)


# ---------------------------------------------------------------------------
# The rewriting engine
#
# A left-normed word is its index tuple, the unit is UNIT = ().  A
# combination of such words maps each word to its TraceExpr coefficient.
# The memos live as long as the process; cached results are shared, so
# callers copy before they mutate.


@cache
def canonical_trace(J):
    """tr of the left-normed word with index tuple J (tr(1) = 2 for the
    empty tuple), as a TraceExpr over sorted strictly increasing
    canonical monomials."""
    if not J:
        return te_const(2)
    for m in range(len(J) - 1):
        if J[m] >= J[m + 1]:
            break
    else:
        return te_tr(J)
    if J[m] == J[m + 1]:
        # the square step; with nothing else in J it is the quadratic
        # relation tr(Z^2) = tr(Z)^2 - 2 n(Z)
        j = J[m]
        return te_tr((j,)) * canonical_trace(J[:m + 1] + J[m + 2:]) \
            - te_norm(j) * canonical_trace(J[:m] + J[m + 2:])
    a, b = J[m], J[m + 1]
    tab = te_tr((min(a, b), max(a, b)))
    ta, tb = te_tr((a,)), te_tr((b,))
    return _sum((-canonical_trace(J[:m] + (b, a) + J[m + 2:]),
                 ta * canonical_trace(J[:m] + (b,) + J[m + 2:]),
                 tb * canonical_trace(J[:m] + (a,) + J[m + 2:]),
                 (tab - ta * tb) * canonical_trace(J[:m] + J[m + 2:])))


def _ae_add(acc, key, expr):
    cur = acc.get(key)
    cur = expr if cur is None else cur + expr
    if cur.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = cur


@cache
def _trace_mul(L, R):
    """tr(L R) for left-normed words L, R (either may be UNIT): the trace
    of the exchange step of _mul_left_normed, so no product is expanded."""
    if not L or len(R) <= 1:
        return canonical_trace(L + R)
    R1, x = R[:-1], R[-1:]
    tL, tLx, tR1 = canonical_trace(L), canonical_trace(L + x), canonical_trace(R1)
    return _sum((tL * canonical_trace(R), tLx * tR1, -_trace_mul(L + x, R1),
                 (_trace_mul(L, R1) - tL * tR1) * canonical_trace(x)))


@cache
def _mul_left_normed(L, R):
    """Product of two left-normed words as a combination of left-normed
    words and the unit, with TraceExpr coefficients.  Exact identity."""
    if len(R) == 1:
        return {L + R: _TE_ONE}
    R1, x = R[:-1], R[-1:]
    tL, tLx, tR1 = canonical_trace(L), canonical_trace(L + x), canonical_trace(R1)
    out = dict(_mul_left_normed(L + x, R1))
    _ae_add(out, R, tL)
    _ae_add(out, R1, -tLx)
    _ae_add(out, x, _trace_mul(L, R1) - tL * tR1)
    _ae_add(out, UNIT, -(_trace_mul(L + x, R1) - tR1 * tLx))
    return out


def _to_left_normed(w):
    if isinstance(w, int):
        return {(w,): _TE_ONE}
    ea = _to_left_normed(w[0])
    eb = _to_left_normed(w[1])
    out = {}
    for wa, sa in ea.items():
        for wb, sb in eb.items():
            s = sa * sb
            if wa == UNIT:
                _ae_add(out, wb, s)
            elif wb == UNIT:
                _ae_add(out, wa, s)
            else:
                for wk, sc in _mul_left_normed(wa, wb).items():
                    _ae_add(out, wk, s * sc)
    return out


def normalize_trace(w, char=0):
    """Exact expansion of tr(w(Z_1,...,Z_n)) over canonical monomials.

    Letters are numbered from 1.  With char=p the coefficients are
    reduced into GF(p); char=0 keeps them in Z (signs are always
    computed in Z first).
    """
    leaves(w)  # refuses a malformed word before any rewriting
    if isinstance(w, int):
        out = canonical_trace((w,))
    else:
        eb = _to_left_normed(w[1])
        out = _sum(sa * sb * _trace_mul(wa, wb)
                   for wa, sa in _to_left_normed(w[0]).items()
                   for wb, sb in eb.items())
    if char:
        out = out.reduce_mod(char)
    return out


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
    coeff = normalize_trace(w)._terms.get((_factor_id("tr", srt),), 0)
    return (int(coeff), srt)
