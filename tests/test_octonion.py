import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitoct import group as gp
from splitoct import octonion as oc
from splitoct import invariants as inv
from splitoct import linalg
from splitoct.invariants import generic_octonion
from splitoct.scalars import GF, QQ, FpElement, PolynomialRing

from helpers import rand_oct


def test_trace_norm_of_e1():
    e1 = oc.unit_e(QQ, 1)
    assert e1.trace() == 1
    assert e1.norm() == 0


def test_identity_acts_trivially():
    one = oc.identity(QQ)
    for b in oc.basis(QQ):
        assert one * b == b
        assert b * one == b


def test_conj_swaps_and_negates():
    a = oc.from_coords(QQ, [QQ(k) for k in (1, 2, 3, 4, 5, 6, 7, 8)])
    c = a.conj().coords()
    assert c[0] == 8 and c[7] == 1
    assert c[1:4] == tuple(-x for x in a.coords()[1:4])
    assert a.conj().conj() == a


@pytest.mark.parametrize("p", [2, 5])
def test_quadratic_relation_random(p):
    field = GF(p)
    rng = random.Random(p)
    one = oc.identity(field)
    for _ in range(200):
        a = rand_oct(field, rng)
        res = a * a - a.scale(a.trace()) + one.scale(a.norm())
        assert res.is_zero()


@pytest.mark.parametrize("p", [2, 5])
def test_alternativity_random(p):
    field = GF(p)
    rng = random.Random(10 + p)
    for _ in range(200):
        a = rand_oct(field, rng)
        b = rand_oct(field, rng)
        assert a * (a * b) == (a * a) * b
        assert (b * a) * a == b * (a * a)


@pytest.mark.parametrize("p", [2, 5])
def test_trace_properties_random(p):
    field = GF(p)
    rng = random.Random(20 + p)
    for _ in range(200):
        a, b, c = (rand_oct(field, rng) for _ in range(3))
        assert (a * b).trace() == (b * a).trace()
        assert (a * b).norm() == a.norm() * b.norm()
        assert ((a * b) * c).trace() == (a * (b * c)).trace()


@pytest.mark.parametrize("p", [2, 5])
def test_norm_trace_relation_random(p):
    field = GF(p)
    rng = random.Random(30 + p)
    for _ in range(200):
        a = rand_oct(field, rng)
        assert 2 * a.norm() == -((a * a).trace()) + a.trace() * a.trace()


@pytest.mark.parametrize("p", [2, 5])
def test_linearized_identities_random(p):
    field = GF(p)
    rng = random.Random(35 + p)
    one = oc.identity(field)
    for _ in range(200):
        a, b, c = (rand_oct(field, rng) for _ in range(3))
        assert (a + b).norm() == \
            a.norm() + b.norm() - (a * b).trace() + a.trace() * b.trace()
        lhs = a * b + b * a
        rhs = (b.scale(a.trace()) + a.scale(b.trace())
               + one.scale((a * b).trace() - a.trace() * b.trace()))
        assert lhs == rhs
        assert a * (b * c) + b * (a * c) == (a * b + b * a) * c
        assert (c * a) * b + (c * b) * a == c * (a * b + b * a)


def test_conj_antihomomorphism_random():
    field = GF(5)
    rng = random.Random(41)
    for _ in range(200):
        a = rand_oct(field, rng)
        b = rand_oct(field, rng)
        assert (a * b).conj() == b.conj() * a.conj()


def test_quadratic_relation_symbolic():
    ring = PolynomialRing(QQ)
    a = generic_octonion(ring, 1)
    res = a * a - a.scale(a.trace()) + oc.identity(ring).scale(a.norm())
    assert res.is_zero()


def test_polarizations_symbolic():
    ring = PolynomialRing(QQ)
    a = generic_octonion(ring, 1)
    b = generic_octonion(ring, 2)
    assert ((a + b).norm() - a.norm() - b.norm()
            + (a * b).trace() - a.trace() * b.trace()).is_zero()
    one = oc.identity(ring)
    res = (a * b + b * a - b.scale(a.trace()) - a.scale(b.trace())
           - one.scale((a * b).trace() - a.trace() * b.trace()))
    assert res.is_zero()


def test_vector_helpers():
    rng = random.Random(5)
    for _ in range(50):
        u = tuple(QQ(rng.randint(-4, 4)) for _ in range(3))
        w = tuple(QQ(rng.randint(-4, 4)) for _ in range(3))
        assert oc.dot3(u, oc.cross3(u, w)) == 0
        assert oc.cross3(u, u) == (0, 0, 0)


@pytest.mark.parametrize("p", [2, 5])
def test_q_form_symmetric_and_nondegenerate(p):
    field = GF(p)
    rng = random.Random(50 + p)
    for _ in range(100):
        a = rand_oct(field, rng)
        b = rand_oct(field, rng)
        assert oc.q_form(a, b) == oc.q_form(b, a)
        assert oc.q_form(a, b) == (a + b).norm() - a.norm() - b.norm()
    gram = [[oc.q_form(a, b) for b in oc.basis(field)] for a in oc.basis(field)]
    assert linalg.rank(gram, field) == 8


def test_ring_mismatch_errors():
    with pytest.raises(ValueError):
        oc.identity(QQ) * oc.identity(GF(2))
    with pytest.raises(ValueError):
        oc.identity(QQ) + oc.identity(GF(5))


def test_unit_and_coordinate_refusals():
    for make, i in ((oc.unit_e, 3), (oc.unit_u, 0), (oc.unit_v, 4)):
        with pytest.raises(ValueError):
            make(QQ, i)
    with pytest.raises(ValueError):
        oc.from_coords(QQ, [0] * 7)


def test_coordinate_round_trip():
    a = oc.from_coords(QQ, [QQ(k) for k in (1, 2, 3, 4, 5, 6, 7, 8)])
    assert oc.from_coords(QQ, a.coords()) == a
    assert sum((b.scale(c) for c, b in zip(a.coords(), oc.basis(QQ))),
               oc.zero(QQ)) == a


def test_from_coords_coerces_through_ring():
    f5 = GF(5)
    a = oc.from_coords(f5, range(1, 9))
    b = oc.from_coords(f5, [f5(k) for k in range(1, 9)])
    assert a == b and a * a == b * b
    assert all(type(x) is FpElement and x.field is f5 for x in a.coords())
    q = oc.from_coords(QQ, (-3, 0, Fraction(1, 2), 4, 5, 6, 7, 8))
    assert all(type(x) is Fraction for x in q.coords())
    with pytest.raises(ValueError):
        oc.from_coords(f5, [GF(7)(1)] * 8)
    with pytest.raises(TypeError):
        oc.from_coords(QQ, [f5(1)] * 8)


def test_scale_coerces_its_scalar():
    f5 = GF(5)
    one = oc.identity(f5)
    assert one.scale(Fraction(1, 2)) == one.scale(f5(3)) == one.scale(8)
    assert oc.identity(QQ).scale(2) == oc.identity(QQ).scale(Fraction(2))
    ring = PolynomialRing(f5)
    z = generic_octonion(ring, 1)
    assert z.scale(Fraction(1, 2)) == z.scale(ring(3)) == z.scale(f5(3))
    assert z.scale(z.trace()).coords() == tuple(z.trace() * x for x in z.coords())


_PRODUCT_RINGS = (GF(2), GF(3), GF(5), GF(1000003), GF(1073741789),
                  GF(1073741827), GF(10 ** 14 + 31), GF(1125899906842597),
                  GF(2 ** 61 - 1), QQ)


@st.composite
def _octonion_pair(draw):
    """A ring and two octonions over it; over QQ the coordinates mix
    zeros, negative integers and fractions of unequal denominators."""
    ring = draw(st.sampled_from(_PRODUCT_RINGS))
    if ring is QQ:
        scalar = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                           st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                                     st.integers(1, 10 ** 4)))
    else:
        scalar = st.one_of(st.integers(0, ring.p - 1), st.just(ring.p - 1))
    coords = st.lists(scalar, min_size=8, max_size=8)
    return (ring, oc.from_coords(ring, draw(coords)),
            oc.from_coords(ring, draw(coords)))


@given(_octonion_pair())
def test_integer_products_match_the_formula_on_ring_elements(pair):
    """The rows the family evaluator lifts to, residues over GF(p) (int64
    below 2^50, Python ints above) and scaled numerators over QQ,
    multiplied by the lane product and wrapped back, equal the product
    and the trace on the ring elements."""
    ring, a, b = pair
    prod = a * b
    rows, scales, p = inv._lift(ring, (a, b))
    assert rows.dtype == (np.int64 if 0 < p < 2 ** 50 else object)
    signed = np.concatenate((rows, -rows), 1)
    c = inv._lane_product(rows, [0], signed, [1], inv._PRODUCT, p)[0].tolist()
    t, = inv._lane_product(rows, [0], signed, [1], inv._TRACE, p)[0].tolist()
    if p:
        # over GF(p) the lanes give the residue
        assert all(type(v) is int and 0 <= v < p for v in c + [t])
        wrap = ring.elem
    else:
        wrap = lambda v: Fraction(v, scales[0] * scales[1])
    assert prod == oc.Octonion(ring, tuple(map(wrap, c)))
    assert a.trace_mul(b) == wrap(t)
    for x in prod.coords():
        if ring is QQ:
            assert type(x) is Fraction
        else:
            assert type(x) is FpElement and x.field is ring


@given(_octonion_pair())
def test_trace_mul_is_the_trace_of_the_product(pair):
    ring, a, b = pair
    assert a.trace_mul(b) == (a * b).trace()


_MONOMIAL_FACTOR = st.tuples(st.integers(1, 3), st.integers(1, 8), st.integers(1, 2))


@st.composite
def _sparse_polynomial_octonion_pair(draw):
    """Two octonions over QQ[z], GF(2)[z] or GF(5)[z] whose coordinates
    are zero or sums of at most three monomials."""
    base = draw(st.sampled_from((QQ, GF(2), GF(5))))
    ring = PolynomialRing(base)

    def coordinate():
        f = ring.zero
        for c, factors in draw(st.lists(st.tuples(
                st.integers(-3, 3), st.lists(_MONOMIAL_FACTOR, max_size=2)),
                max_size=3)):
            term = ring(base(c))
            for i, j, e in factors:
                term = term * ring.var(i, j) ** e
            f = f + term
        return f

    return tuple(oc.Octonion(ring, tuple(coordinate() for _ in range(8)))
                 for _ in range(2))


@settings(max_examples=60, deadline=None)
@given(_sparse_polynomial_octonion_pair())
def test_trace_mul_is_the_trace_of_the_product_over_polynomials(pair):
    """The fused product and trace over a polynomial ring equal _zorn and
    _zorn_trace on the same Polynomial coordinates, the slow exact
    reference, and store no zero coefficient, also where the terms of
    a * a cancel (u x u and v x v)."""
    a, b = pair
    ring = a.ring
    ab = a * b
    assert ab == oc.Octonion(ring, oc._zorn(a.coords(), b.coords()))
    assert a.trace_mul(b) == oc._zorn_trace(a.coords(), b.coords()) == ab.trace()
    neg_a = -a
    square = a * neg_a
    assert square == -(a * a) == oc.Octonion(ring, oc._zorn(a.coords(), neg_a.coords()))
    for prod in (ab, square):
        assert all(c != 0 for x in prod.coords() for c in x.terms.values())
    assert all(c != 0 for c in a.trace_mul(neg_a).terms.values())


def test_trace_mul_refuses_what_the_product_refuses():
    a = oc.identity(QQ)
    for other in (oc.identity(GF(2)), oc.identity(PolynomialRing(QQ))):
        with pytest.raises(ValueError):
            a * other
        with pytest.raises(ValueError):
            a.trace_mul(other)
    for other in (1, Fraction(1, 2), GF(5)(1), "x", a.coords()):
        with pytest.raises(TypeError):
            a * other
        with pytest.raises(TypeError):
            a.trace_mul(other)


_DIGEST_RINGS = (QQ, GF(2), GF(5), GF(10 ** 14 + 31), PolynomialRing(QQ))


def _digest_scalar(ring, rng):
    if ring is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    if isinstance(ring, PolynomialRing):
        return (ring.var(rng.randint(1, 2), rng.randint(1, 8))
                * rng.randint(-3, 3) + rng.randint(-3, 3))
    return ring(rng.randrange(ring.p))


def _digest_sl3(ring, rng):
    """A product of three transvections I + t E_ij: unimodular over any
    ring, with polynomial entries over a polynomial ring."""
    z, o = ring.zero, ring.one
    g = [[o if i == j else z for j in range(3)] for i in range(3)]
    for _ in range(3):
        i, j = rng.sample(range(3), 2)
        t = _digest_scalar(ring, rng)
        g = [[g[r][c] + (g[r][i] * t if c == j else z) for c in range(3)]
             for r in range(3)]
    return g


def test_octonion_frozen_digest():
    """repr and coords() of the 64 basis products, seeded arithmetic and
    the rows of the generator matrices over QQ, GF(2), GF(5),
    GF(10^14+31) and QQ[z] hash to a frozen value: any change to the
    values or their printed form fails here."""
    h = hashlib.sha256()

    def put(*items):
        h.update(("%r\n" % (items,)).encode())

    for ring in _DIGEST_RINGS:
        rng = random.Random(repr(ring))
        put(ring)
        b = oc.basis(ring)
        for x in b:
            for y in b:
                put(x * y, (x * y).coords())
        for _ in range(12):
            a, c = (oc.from_coords(ring, [_digest_scalar(ring, rng)
                                          for _ in range(8)])
                    for _ in range(2))
            s = _digest_scalar(ring, rng)
            put(a * c, a + c, a - c, -a, a.conj(), a.norm(), a.trace(),
                a.scale(s), oc.q_form(a, c), (a * c).coords())
        vec = lambda: tuple(_digest_scalar(ring, rng) for _ in range(3))
        gens = [gp.from_sl3(ring, _digest_sl3(ring, rng)) for _ in range(3)]
        gens += [gp.delta1(ring, vec()) for _ in range(3)]
        gens += [gp.delta2(ring, vec()) for _ in range(3)]
        gens += [gp.hbar(ring), gp.theta(ring, (2, -3, 1), 3)]
        for g in gens:
            put(g.rows)
    assert h.hexdigest() == \
        "ac245b3af810436d126aee85826c9fd0650d8f3bb2972f3e1611b27c57ef9772"
