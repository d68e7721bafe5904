import random

import pytest

from splitoct import octonion as oc
from splitoct import linalg
from splitoct.invariants import generic_octonion
from splitoct.scalars import GF, QQ, PolynomialRing


def rand_oct(field, rng):
    return oc.from_coords(field, [field(rng.randrange(field.p))
                                  for _ in range(8)])


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
    c = a.conj()
    assert c.alpha == 8 and c.beta == 1
    assert c.u == tuple(-x for x in a.u)
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


def test_coordinate_round_trip():
    a = oc.from_coords(QQ, [QQ(k) for k in (1, 2, 3, 4, 5, 6, 7, 8)])
    assert oc.from_coords(QQ, a.coords()) == a
    assert sum((b.scale(c) for c, b in zip(a.coords(), oc.basis(QQ))),
               oc.zero(QQ)) == a
