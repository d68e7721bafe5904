"""Symbolic verification layer: the defining identities of the algebra
checked as exact polynomial identities in generic octonions over each
field of IDENTITY_BASES (one table, identity_table), the closed form of
the skew symmetrized degree-4 trace, and a linear-algebra
decomposability checker over the base field of its target.
"""

from itertools import combinations_with_replacement

from . import linalg
from . import octonion as oc
from .invariants import generic_octonion, q_prime
from .scalars import GF, QQ, PolynomialRing, coefficients_in_z_half

__all__ = [
    "IDENTITY_NAMES", "IDENTITY_BASES", "verify_identity", "identity_table",
    "verify_skew_symmetrization", "decomposability_check",
]


def _id_trace_symmetry(z):
    return (z[0] * z[1]).trace() - (z[1] * z[0]).trace()


def _id_norm_multiplicativity(z):
    return (z[0] * z[1]).norm() - z[0].norm() * z[1].norm()


def _id_quadratic(z):
    a = z[0]
    return a * a - a.scale(a.trace()) + oc.identity(a.ring).scale(a.norm())


def _id_norm_polarization(z):
    a, b = z
    return ((a + b).norm() - a.norm() - b.norm()
            + (a * b).trace() - a.trace() * b.trace())


def _id_product_polarization(z):
    a, b = z
    one = oc.identity(a.ring)
    return (a * b + b * a - b.scale(a.trace()) - a.scale(b.trace())
            - one.scale((a * b).trace() - a.trace() * b.trace()))


def _id_left_alternative(z):
    a, b = z
    return a * (a * b) - (a * a) * b


def _id_right_alternative(z):
    a, b = z
    return (b * a) * a - b * (a * a)


def _id_left_alt_linearized(z):
    a, c, b = z
    return a * (c * b) + c * (a * b) - (a * c + c * a) * b


def _id_right_alt_linearized(z):
    a, c, b = z
    return (b * a) * c + (b * c) * a - b * (a * c + c * a)


def _id_trace_associativity(z):
    a, b, c = z
    return ((a * b) * c).trace() - (a * (b * c)).trace()


def _id_norm_trace_relation(z):
    a = z[0]
    return 2 * a.norm() + (a * a).trace() - a.trace() * a.trace()


# name -> (number of generic octonions, checker)
_IDENTITIES = {
    "trace-symmetry": (2, _id_trace_symmetry),
    "norm-multiplicativity": (2, _id_norm_multiplicativity),
    "quadratic-relation": (1, _id_quadratic),
    "norm-polarization": (2, _id_norm_polarization),
    "product-polarization": (2, _id_product_polarization),
    "left-alternative": (2, _id_left_alternative),
    "right-alternative": (2, _id_right_alternative),
    "left-alternative-linearized": (3, _id_left_alt_linearized),
    "right-alternative-linearized": (3, _id_right_alt_linearized),
    "trace-associativity": (3, _id_trace_associativity),
    "norm-trace-relation": (1, _id_norm_trace_relation),
}

IDENTITY_NAMES = tuple(_IDENTITIES)

# the base fields every identity is verified over
IDENTITY_BASES = (QQ, GF(2), GF(5))


def verify_identity(name, base=QQ):
    """Does one defining identity hold exactly in generic octonions over
    the given base field?"""
    if name not in _IDENTITIES:
        raise ValueError("unknown identity %r (choose from %s)"
                         % (name, ", ".join(IDENTITY_NAMES)))
    count, fn = _IDENTITIES[name]
    ring = PolynomialRing(base)
    z = tuple(generic_octonion(ring, i) for i in range(1, count + 1))
    return fn(z).is_zero()


def identity_table():
    """One (name, ok) row per defining identity, ok when it holds over
    every base field of IDENTITY_BASES."""
    return [(name, all(verify_identity(name, base) for base in IDENTITY_BASES))
            for name in IDENTITY_NAMES]


def verify_skew_symmetrization():
    """Does the signed average of tr over the 24 argument orders of the
    degree-4 left-normed product equal its closed combination of
    canonical invariants, exactly, with coefficients in Z[1/2]?"""
    ring = PolynomialRing(QQ)
    z = tuple(generic_octonion(ring, i) for i in range(1, 5))
    sym = q_prime(*z, path="sym")
    return ((sym - q_prime(*z, path="combination")).is_zero()
            and coefficients_in_z_half(sym))


# ---------------------------------------------------------------------------
# Decomposability


def decomposability_check(target, generators):
    """Is the target polynomial a linear combination of products of the
    generator polynomials, within its multidegree component?

    Inputs must be multihomogeneous; multidegrees count the slots of the
    target's and the generators' variables together.  Candidate products
    run over all multisets of generators whose multidegrees sum to the
    target's (a single generator of full degree counts as a product of
    one, and the empty product 1 is a candidate for a zero or constant
    target).  For the decomposability question pass only generators of
    strictly lower degree, so every candidate is a product of at least
    two of them.
    The linear algebra runs over the base field of the target's ring,
    on the coefficients coerced into it (a GF(p) term stores an int).
    The search tries every multiset of at most d generators, d the
    target's degree, so its cost grows as C(g + d, d) for g generators.
    Returns (expressible, certificate) where the certificate maps a
    tuple of generator labels to its coefficient.

    generators: list of (label, polynomial) pairs.
    """
    field = target.ring.base
    n = max((i for f in (target, *(g for _lbl, g in generators))
             for i, _j in f.variables()), default=1)
    tmdeg = target.multidegree(n)
    gens = []
    for label, g in generators:
        try:
            gm = g.multidegree(n)
        except ValueError:
            raise ValueError("generator %r is not multihomogeneous" % (label,))
        gens.append((label, g, gm))

    # every multiset of generator indices whose multidegrees sum to the
    # target's, as a sorted index tuple, in lexicographic order; a
    # generator above the target's degree in some slot is in none
    fits = [k for k, (_lbl, _g, gm) in enumerate(gens)
            if all(m <= t for m, t in zip(gm, tmdeg))]
    combos = sorted(
        combo for size in range(sum(tmdeg) + 1)
        for combo in combinations_with_replacement(fits, size)
        if all(sum(gens[k][2][i] for k in combo) == t for i, t in enumerate(tmdeg)))
    products = []
    for combo in combos:
        p = target.ring.one
        for k in combo:
            p = p * gens[k][1]
        products.append((tuple(gens[k][0] for k in combo), p))
    if not products:
        return (False, None)
    monomials = sorted(set().union(*[set(p.terms) for _lbl, p in products],
                                   set(target.terms)))
    mindex = {m: r for r, m in enumerate(monomials)}
    zero = field.zero
    rows = [[zero] * len(products) for _ in monomials]
    for c, (_lbl, p) in enumerate(products):
        for m, coeff in p.terms.items():
            rows[mindex[m]][c] = field(coeff)
    rhs = [field(target.terms.get(m, 0)) for m in monomials]
    sol = linalg.solve(rows, rhs, field)
    if sol is None:
        return (False, None)
    certificate = {lbl: coeff for (lbl, _p), coeff in zip(products, sol)
                   if coeff != zero}
    return (True, certificate)
