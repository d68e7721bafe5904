"""Invariant descriptor sets, their evaluation, the skew symmetrization
of the degree-4 trace, and the bridge to 2x2 matrix invariants.

A descriptor (words.Descriptor) is either n(i) or tr(i1,...,ik) with
strictly increasing indices; the trace is always taken of the
left-normed product.  words.eval_descriptor, re-exported here, evaluates
one descriptor on ring elements; evaluate_family evaluates a whole
family, one degree level at a time, on the rows that the private _lift
makes once per tuple, over every ring by one walker: each degree level
is one gathered product of all its descriptors, octonion._ZORN_TABLE as
index arrays.  Over GF(p) with p < 2^50 the rows are one (n, 8) int64
array, reduced mod p once per sum for p - 1 < 2^30 and by a
float-quotient mulmod of each product above; over any other ring they
are an object array of Python ints (residues over a larger GF(p),
numerators over a per-member denominator over QQ) or of ring elements.
The walker is checked against eval_descriptor, which shares none of the
lift, its scales or its reduction, only the Zorn formulas.  The CLI
prints a level's GF(p) values from their int residues.
descriptor_polynomial runs eval_descriptor on generic octonions over a
polynomial ring, where Octonion products and traces sum the same
formula, as the table octonion._ZORN_TABLE, straight into term dicts.
The matrix side uses the same descriptors, with n(i) read as det and
traces of associative products of generic 2x2 matrices.
"""

from collections import OrderedDict
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, lcm

import numpy as np

from . import octonion as oc
from . import words as wd
from .scalars import QQ, Polynomial, PrimeField, decode
from .words import Descriptor, eval_descriptor

__all__ = [
    "Descriptor", "enumerate_set", "family_names", "evaluate_family",
    "eval_descriptor", "descriptor_polynomial", "MAX_FAMILY_SIZE",
    "q_prime", "q_prime_combination", "psi", "psi_hat", "embed_matrix",
    "eval_matrix_descriptor",
    "generic_matrix", "mat2_mul", "mat2_trace", "mat2_det",
    "generic_octonion",
]


# largest family enumerate_set builds; n <= 17 fits at d = 8
MAX_FAMILY_SIZE = 100_000


def enumerate_set(family, n, d):
    """The degree filtration of the invariant family, in a fixed order.

    family "S": norms n(i) plus traces of strictly increasing sequences
    of length 1..d; family "S0": the same with sequences of length >= 2
    (the single traces vanish identically on traceless tuples).
    Ordered by (degree, norms first, indices).  Raises ValueError for a
    family of more than MAX_FAMILY_SIZE descriptors, before building it.
    Returns a new list; the family itself is built once (_family).
    """
    return list(_family(family, n, d)[0])


def family_names(family, n, d):
    """The names of enumerate_set(family, n, d), in its order, as a tuple
    built once with the family."""
    return _family(family, n, d)[1]


# the families built so far, least recently used first: (family, n,
# min(d, max(n, 2))) -> (descriptors, names, steps), descriptors and
# names tuples and steps those of _steps.  Together they hold at most
# MAX_FAMILY_SIZE descriptors; a new family evicts the oldest ones until
# it fits.
_FAMILIES = OrderedDict()


def _family(family, n, d):
    """The cached (descriptors, names, steps) of the family; see
    enumerate_set and _steps."""
    if family not in ("S", "S0"):
        raise ValueError("family must be 'S' or 'S0'")
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    # no descriptor has degree above max(n, 2)
    key = (family, n, min(d, max(n, 2)))
    entry = _FAMILIES.get(key)
    if entry is not None:
        _FAMILIES.move_to_end(key)
        return entry
    descs = _build_family(family, n, d)
    entry = descs, tuple(map(Descriptor.name, descs)), _steps(n, min(d, n))
    _FAMILIES[key] = entry
    held = sum(len(e[0]) for e in _FAMILIES.values())
    while held > MAX_FAMILY_SIZE:
        held -= len(_FAMILIES.popitem(last=False)[1][0])
    return entry


def _build_family(family, n, d):
    min_len = 1 if family == "S" else 2
    # counted level by level and only up to the first level past the
    # limit, so a huge n and d cost no more than a small one
    size = n if d >= 2 else 0
    for k in range(min_len, min(d, n) + 1):
        size += comb(n, k)
        if size > MAX_FAMILY_SIZE:
            raise ValueError(
                "family %s with n=%d, d=%d has at least %d descriptors, more "
                "than the limit of %d" % (family, n, d, size, MAX_FAMILY_SIZE))
    # the indices are valid by construction, so the Descriptors skip the
    # checks of Descriptor(...)
    make = tuple.__new__
    out = []
    for deg in range(1, min(d, max(n, 2)) + 1):
        if deg == 2:
            out += [make(Descriptor, ("n", (i,))) for i in range(1, n + 1)]
        if deg >= min_len:
            out += [make(Descriptor, ("tr", seq))
                    for seq in combinations(range(1, n + 1), deg)]
    return tuple(out)


def _steps(n, top):
    """For each length k = 2..top, the index arrays (pre, last), each of
    length C(n, k): the j-th k-subset of range(n) in the order of
    combinations is the pre[j]-th (k-1)-subset followed by last[j].

    Each (k-1)-subset, in order, is followed by each member after its
    own last one, so each level's arrays come from the previous
    level's last members in a few array operations."""
    steps = []
    ends = np.arange(n)
    for _k in range(2, top + 1):
        counts = n - 1 - ends
        pre = np.repeat(np.arange(len(ends)), counts)
        starts = np.cumsum(counts) - counts
        ends = ends[pre] + 1 + np.arange(len(pre)) - starts[pre]
        steps.append((pre, ends))
    return tuple(steps)


def evaluate_family(family, tup, d):
    """Yield (descriptor, value) for the family on the tuple, lazily and
    in the order of enumerate_set.

    The tuple is lifted once into rows (_lift).  The left-normed
    product of tr(i1,...,ik) is the stored row of (i1,...,i(k-1)) times
    one more member, and only the rows of the previous length are kept
    while those of the next length are built.  The last length,
    min(d, n), needs no row, only its trace.  Values come one degree
    level at a time (_levels), computed at the level's first descriptor;
    over GF(p) each becomes a ring element when it is yielded, not
    before.  eval_descriptor, on ring elements, is the reference the
    levels are checked against.

    Raises ValueError at the call, before any work, for an empty tuple,
    members over different rings, or a family enumerate_set refuses.
    """
    descs, levels = _levels(family, tup, d)
    ring = tup[0].ring
    return _pairs(descs, levels, ring.elem if type(ring) is PrimeField else None)


def _pairs(descs, levels, elem):
    """(descriptor, value) over the levels of _levels, each value mapped
    by elem unless elem is None."""
    for pos, values in levels:
        yield from zip(descs[pos:pos + len(values)],
                       map(elem, values) if elem else values)


def _levels(family, tup, d):
    """(descriptors, levels) of the family on the tuple, checked as
    evaluate_family checks them, before any work.

    levels yields (start, values) for each run of descriptors of one kind
    and length, descriptors[start:start + len(values)], computed when it
    is reached: the traces of length 1, the norms, then the traces of each
    length 2..min(d, n).  Over GF(p) the values are int residues, over QQ
    Fractions and over any other ring ring elements.  Every ring runs
    _lane_levels on the rows of _lift."""
    ring = oc.ring_of(tup)
    descs, _names, steps = _family(family, len(tup), d)
    return descs, _lane_levels(descs, steps, *_lift(ring, tup))


def _gather(table):
    """A table of signed index pairs, such as octonion._ZORN_TABLE, as
    index arrays (i, j) of shape (pairs, rows): row r of the table is the
    sum over the pairs of a[i[:, r]] * b[j[:, r]], where b is a row
    followed by its negative, so a pair of sign -1 reads column j + 8."""
    return (np.array([[i for i, _j, _s in row] for row in table]).T,
            np.array([[j if s > 0 else j + 8 for _i, j, s in row]
                      for row in table]).T)


_PRODUCT = _gather(oc._ZORN_TABLE)
_TRACE = _gather(oc._TRACE_ROWS)
# the norm alpha beta - <u, v> of a row, as the table of its pair (a, a)
_NORM = _gather((((0, 7, 1), (1, 4, -1), (2, 5, -1), (3, 6, -1)),))


def _mod(x, p):
    """x mod p, or x itself for p = 0, the rings _lift leaves unreduced."""
    return x % p if p else x


def _lane_product(a, pre, b, last, table, p):
    """The rows of table, a _gather pair, on the pairs of rows (a[pre[r]],
    b[last[r]]) for every r at once, mod p unless p = 0: an array
    (len(pre), rows) of the dtype of a.

    a holds rows (m, 8) and b member rows followed by their negatives
    (n, 16).  On object rows every product and sum is exact and the sum
    is reduced once.  On int64 rows every entry is below p < 2^50 in
    absolute value and a sum has at most 8 products.  For p - 1 < 2^30
    each product is below (p - 1)^2, so the sum stays below
    8 (p - 1)^2 < 2^63 and is reduced once.  Above, each product x y is
    first reduced by a float quotient, q = trunc(x (1/p) y) and
    r = x y - q p in wrapping int64: x and y are exact in float64, and
    three roundings put x (1/p) y within 3 2^-53 p < 0.4 of x y / p, so
    |q - x y / p| < 2 and |r| < 2p.  r fits in int64, so the wrapped
    difference is exact, and a sum of 8 such r stays below 16p < 2^54
    before its one reduction."""
    i, j = table
    x = a.take(pre, 0)[:, i]
    y = b.take(last, 0)[:, j]
    if x.dtype == object or p - 1 < 2 ** 30:
        x *= y
        return _mod(x.sum(1), p)
    q = x * (1.0 / p)
    q *= y
    x *= y
    x -= q.astype(np.int64) * p
    return x.sum(1) % p


def _lane_levels(descs, steps, rows, scales, p):
    """_levels on the rows, scales and modulus of _lift, one degree level
    at a time.

    A level is computed at its first descriptor, so a consumer that stops
    early computes no later level: the traces of length 1 on the columns
    of rows, the norms as one _lane_product with _NORM, the rows of length
    k = 2..min(d, n) - 1 as one _lane_product of the rows of length k - 1
    and the members by the index arrays of _steps, and the top length only
    as traces.  Over QQ the scales of the rows of length k are those of
    length k - 1 times the members' by the same index arrays, and each
    value becomes Fraction(v, scale) when its level is yielded."""
    members = np.arange(len(rows))
    signed = np.concatenate((rows, -rows), 1)
    cur = rows
    cur_scales = level_scales = scales
    qq = scales is not None
    pos = 0
    while pos < len(descs):
        kind, idx = descs[pos]
        k = len(idx)
        if kind == "n":
            values = _lane_product(rows, members, signed, members, _NORM, p)[:, 0]
            if qq:
                level_scales = scales * scales
        elif k == 1:
            values = _mod(rows[:, 0] + rows[:, 7], p)
            level_scales = scales
        else:
            pre, last = steps[k - 2]
            if qq:
                level_scales = cur_scales.take(pre) * scales.take(last)
            if k <= len(steps):
                cur = _lane_product(cur, pre, signed, last, _PRODUCT, p)
                values = _mod(cur[:, 0] + cur[:, 7], p)
                cur_scales = level_scales
            else:
                values = _lane_product(cur, pre, signed, last, _TRACE, p)[:, 0]
        values = values.tolist()
        if qq:
            values = list(map(Fraction, values, level_scales.tolist()))
        yield pos, values
        pos += len(values)


def _lift(ring, octs):
    """(rows, scales, p): the (n, 8) rows _lane_levels runs on, the QQ
    scales and the modulus to reduce every sum by, 0 for none.

    Over GF(p) the residues: with p < 2^50 one int64 array, on which
    _lane_product reduces every sum exactly, directly for p - 1 < 2^30
    and by a float-quotient mulmod of each product above, whose error
    bound needs residues below 2^50; with larger p an object array of
    Python ints.  Over QQ an object array whose row holds the numerators
    of one octonion scaled to its own lcm denominator, and scales, an
    object array of those denominators; a product's scale is the product
    of its factors' scales, and a norm's the square of its octonion's.
    Over any other ring an object array of the ring elements, each stored
    as it is, even one that numpy could read as a sequence.  Only QQ has
    scales.
    """
    p = ring.p if type(ring) is PrimeField else 0
    scales = None
    if p:
        entries = [x.r for a in octs for x in a._c]
    elif ring is QQ:
        scales = [lcm(*[x.denominator for x in a._c]) for a in octs]
        entries = [x.numerator * (s // x.denominator)
                   for a, s in zip(octs, scales) for x in a._c]
        scales = np.array(scales, dtype=object)
    else:
        entries = [x for a in octs for x in a._c]
    rows = np.fromiter(entries, np.int64 if 0 < p < 2 ** 50 else object,
                       len(entries))
    return rows.reshape(-1, 8), scales, p


def generic_octonion(ring, i):
    """Z_i with coordinates z[i,1..8] over a polynomial ring."""
    return oc.Octonion(ring, tuple(ring.var(i, j) for j in range(1, 9)))


def descriptor_polynomial(desc, ring):
    """The descriptor evaluated on generic octonions, as a polynomial."""
    n = max(desc.indices)
    tup = tuple(generic_octonion(ring, i) for i in range(1, n + 1))
    return eval_descriptor(desc, tup)


# ---------------------------------------------------------------------------
# Skew symmetrization of tr(((A1 A2) A3) A4)


def q_prime_combination():
    """The expansion of the skew symmetrization over canonical invariants
    of four letters; coefficients lie in Z[1/2]."""
    half = Fraction(1, 2)
    t = lambda *ix: wd.te_tr(ix)
    expr = t(1, 2, 3, 4) + half * (
        - t(1) * t(2) * t(3) * t(4)
        - t(1) * t(2, 3, 4) - t(2) * t(1, 3, 4)
        - t(3) * t(1, 2, 4) - t(4) * t(1, 2, 3)
        - t(1, 2) * t(3, 4) + t(1, 3) * t(2, 4) - t(1, 4) * t(2, 3)
        + t(1) * t(2) * t(3, 4) + t(1) * t(4) * t(2, 3)
        + t(2) * t(3) * t(1, 4) + t(3) * t(4) * t(1, 2))
    return expr


def q_prime(a1, a2, a3, a4, path="auto"):
    """Complete skew symmetrization of tr(((A1 A2) A3) A4).

    path "sym" averages the 24 signed trace terms (needs 1/24), path
    "combination" evaluates the expanded form (needs only 1/2), "auto"
    picks by characteristic.  Undefined in characteristic 2.

    The orders (i, j, k, l) and (j, i, k, l) have opposite signs, so the
    sym path sums 12 terms sgn * tr(([A_i, A_j] A_k) A_l) with i < j:
    six commutators, then one product and one trace_mul per term.  It
    never reads the combination side, which it checks.
    """
    ring = a1.ring
    if path == "auto":
        path = "sym" if ring.char == 0 else "combination"
    if path == "sym":
        if ring.char != 0 and ring.char <= 3:
            raise ZeroDivisionError("24 is not invertible; use the combination path")
        args = (a1, a2, a3, a4)
        comm = {(i, j): args[i] * args[j] - args[j] * args[i]
                for i, j in combinations(range(4), 2)}
        acc = ring.zero
        for perm in permutations(range(4)):
            i, j, k, l = perm
            if i > j:
                continue
            term = (comm[i, j] * args[k]).trace_mul(args[l])
            acc = acc + (term if _parity(perm) > 0 else -term)
        return acc * ring(Fraction(1, 24))
    if path == "combination":
        if ring.char == 2:
            raise ZeroDivisionError("2 is not invertible in characteristic 2")
        return q_prime_combination().evaluate((a1, a2, a3, a4))
    raise ValueError("path must be 'auto', 'sym' or 'combination'")


def _parity(perm):
    sgn = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sgn = -sgn
    return sgn


# ---------------------------------------------------------------------------
# The 2x2 matrix bridge

_PSI_KILLED = (3, 4, 6, 7)


def psi(f):
    """Projection onto the matrix coordinate subring: z[i,j] -> 0 for
    j in {3, 4, 6, 7}."""
    if not isinstance(f, Polynomial):
        raise TypeError("psi expects a polynomial")
    # the variable with id v is z[v // 8 + 1, v % 8 + 1]
    return Polynomial.from_coded(f.ring, {m: c for m, c in f._terms.items()
                                          if not any(v % 8 + 1 in _PSI_KILLED
                                                     for v in decode(m))})


def psi_hat(a):
    """psi applied to each coordinate of an octonion over a polynomial ring."""
    return oc.Octonion(a.ring, tuple(map(psi, a.coords())))


def embed_matrix(ring, m):
    """The multiplicative, trace preserving embedding of 2x2 matrices:
    (a1,a2;a3,a4) -> (a1, (a2,0,0), (a3,0,0), a4), the z-order
    coordinates (a1, a2, 0, 0, a3, 0, 0, a4)."""
    z = ring.zero
    (a1, a2), (a3, a4) = m
    return oc.from_coords(ring, (a1, a2, z, z, a3, z, z, a4))


def mat2_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def mat2_trace(a):
    return a[0][0] + a[1][1]


def mat2_det(a):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def generic_matrix(ring, i):
    """The generic 2x2 matrix with entries z[i,1], z[i,2], z[i,5], z[i,8]."""
    v = ring.var
    return ((v(i, 1), v(i, 2)), (v(i, 5), v(i, 8)))


def eval_matrix_descriptor(desc, mats):
    """The descriptor on 2x2 matrices, n(i) read as det(M_i): the image
    under psi of the descriptor on generic octonions."""
    if desc.kind == "n":
        return mat2_det(mats[desc.indices[0] - 1])
    m = mats[desc.indices[0] - 1]
    for i in desc.indices[1:]:
        m = mat2_mul(m, mats[i - 1])
    return mat2_trace(m)


def matrix_descriptor_polynomial(desc, ring):
    n = max(desc.indices)
    mats = [generic_matrix(ring, i) for i in range(1, n + 1)]
    return eval_matrix_descriptor(desc, mats)
