import gc
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from splitoct import group as gp
from splitoct.invariants import psi
from splitoct.scalars import (GF, QQ, FpElement, Polynomial, PolynomialRing,
                              PrimeField, add_terms, coefficients_in_z_half,
                              mul_terms, mul_terms_into, var_id, _is_prime)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_exhaustive(p):
    field = GF(p)
    els = [field(r) for r in range(p)]
    for a, b, c in product(els, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in els:
        assert a + (-a) == field.zero
        if a != field.zero:
            assert a * a.inverse() == field.one


def test_field_axioms_randomized_p7():
    field = GF(7)
    rng = random.Random(1)
    for _ in range(500):
        a, b, c = (field(rng.randrange(7)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a != field.zero:
            assert a * a.inverse() == field.one


def _trial_division(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert [p for p in range(-3, 10 ** 5) if _is_prime(p)] == \
        [p for p in range(-3, 10 ** 5) if _trial_division(p)]


def test_is_prime_large_moduli():
    for carmichael in (561, 41041, 3215031751):
        assert not _is_prime(carmichael)
        with pytest.raises(ValueError):
            GF(carmichael)
    t0 = time.perf_counter()
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1
    assert GF(10 ** 14 + 31)(-1) == 10 ** 14 + 30
    assert time.perf_counter() - t0 < 1.0
    assert not _is_prime(2 ** 61 + 1)
    # beyond the proven range of the fixed bases: refused, not guessed
    with pytest.raises(ValueError, match="too large"):
        GF(2 ** 89 - 1)


def test_characteristic_two():
    field = GF(2)
    assert field(1) + field(1) == field(0)


def test_rational_arithmetic():
    assert Fraction(1, 2) * 24 == 12
    assert QQ(Fraction(3, 6)) == Fraction(1, 2)


def test_gf5_inverse_against_brute_force():
    field = GF(5)
    # independent oracle: scan the residues
    expected = {a: next(b for b in range(1, 5) if (a * b) % 5 == 1)
                for a in range(1, 5)}
    for a, b in expected.items():
        assert field(a).inverse() == field(b)
    assert expected[2] == 3


def test_zero_inverse_errors():
    with pytest.raises(ZeroDivisionError):
        GF(5)(0).inverse()
    with pytest.raises(ZeroDivisionError):
        QQ.one / Fraction(0)


def test_from_fraction_integral_and_singular_denominators():
    """A Fraction of denominator 1 maps to its numerator's residue; a
    denominator divisible by p has no image."""
    for p in (5, 10 ** 14 + 31):
        field = GF(p)
        for n in (0, 7, -123456789, 10 ** 20 + 3):
            assert field(Fraction(n)) == field(n) == n % p
        assert field(Fraction(3, p + 1)) == field(3)
        for den in (p, 3 * p):
            with pytest.raises(ZeroDivisionError):
                field(Fraction(2, den))


def test_fraction_coerces_into_the_rationals_without_a_copy():
    for f in (Fraction(0), Fraction(-7, 3), Fraction(10 ** 30 + 1, 2 ** 70)):
        assert QQ(f) is f and QQ.from_fraction(f) is f
        assert QQ(f) == f and hash(QQ(f)) == hash(f)
    assert type(QQ(5)) is Fraction and QQ(5) == 5 and hash(QQ(5)) == hash(5)
    # an int has a numerator and a denominator too
    for p in (7, 10 ** 14 + 31):
        assert GF(p).from_fraction(-10) == GF(p)(Fraction(-10)) == GF(p)(-10)


def test_mixed_field_errors():
    with pytest.raises(ValueError):
        GF(2)(1) + GF(3)(1)
    with pytest.raises(TypeError):
        GF(5)(1) + Fraction(1, 2)
    with pytest.raises(TypeError):
        GF(5)("x")


def test_polynomial_refusals():
    qx, fx = PolynomialRing(QQ).var(1, 1), PolynomialRing(GF(5)).var(1, 1)
    with pytest.raises(ValueError):
        qx + fx
    with pytest.raises(ValueError):
        qx ** 1.5
    with pytest.raises(ValueError):
        PolynomialRing(QQ)(fx)


def test_variables_outside_the_id_range_are_refused():
    ring = PolynomialRing(QQ)
    for i, j in ((0, 1), (1, 9), (1, 0), (-1, 8), (1.0, 1), (1, True)):
        with pytest.raises(ValueError):
            ring.var(i, j)
    f = ring.var(1, 8) * ring.var(2, 1)
    with pytest.raises(ValueError):
        f.substitute({(1, 9): 1})
    with pytest.raises(ValueError):
        f.substitute({(1, 8): 1, (0, 1): 1})
    # ids sort like the pairs, across the block boundary
    assert var_id(1, 8) < var_id(2, 1) and f.variables() == [(1, 8), (2, 1)]
    assert repr(f) == "z[1,8]*z[2,1]"


def test_ring_stores_integral_rationals_as_ints():
    ring = PolynomialRing(QQ)
    for x in (ring(3), ring(Fraction(6, 2)), ring.one, ring.var(2, 5)):
        assert all(type(c) is int for c in x.terms.values())
    assert ring(Fraction(6, 2)).terms == {(): 3}
    assert type(ring(Fraction(1, 2)).terms[()]) is Fraction
    assert ring.coefficient(Fraction(-4, 2)) == -2
    assert type(ring.coefficient(Fraction(-4, 2))) is int
    assert ring.var(2, 5).terms == {(var_id(2, 5),): 1}
    # over GF(p) a coefficient stays a field element
    assert type(PolynomialRing(GF(5)).one.terms[()]) is FpElement


def _fast_vs_slow_poly(ring, rng):
    """A random polynomial in z[1..2, 1..8] built through the ring, and
    the same polynomial with every QQ coefficient forced to a Fraction."""
    base = ring.base
    f = ring.zero
    for _ in range(rng.randint(0, 5)):
        c = (Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
             if base is QQ else base(rng.randrange(5)))
        term = ring(c)
        for _ in range(rng.randint(0, 3)):
            term = term * ring.var(rng.randint(1, 2), rng.randint(1, 8))
        f = f + term
    if base is not QQ:
        return f, Polynomial(ring, dict(f.terms))
    return f, Polynomial(ring, {m: Fraction(c) for m, c in f.terms.items()})


def _chained_substitute(f, assignment, target):
    """The reference substitution: one chained + per term."""
    acc = target.zero
    for m, c in f.terms.items():
        val = target(c)
        for v in m:
            key = (v // 8 + 1, v % 8 + 1)
            val = val * (target(assignment[key]) if key in assignment
                         else target.var(*key))
        acc = acc + val
    return acc


def _assert_exact(x, base):
    """No float anywhere; over QQ every coefficient is an int or a
    Fraction, over GF(p) a field element."""
    coeffs = x.terms.values() if isinstance(x, Polynomial) else (x,)
    kinds = (int, Fraction) if base is QQ else (FpElement,)
    assert all(type(c) in kinds for c in coeffs), x


def _assert_same(x, y, base):
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    _assert_exact(x, base)
    _assert_exact(y, base)


@pytest.mark.parametrize("base", [QQ, GF(5)])
def test_int_coefficients_match_the_fraction_path(base):
    """Every operation on a polynomial built with int coefficients gives
    the result of the same polynomial with Fraction coefficients, with
    equal hash and repr, and substitute matches a chained-+ reference."""
    ring = PolynomialRing(base)
    rng = random.Random(19)
    half = base(Fraction(1, 2))
    gens = [gp.from_sl3(base, [[1, 0, 0], [base(2), 1, 0], [0, 0, 1]]),
            gp.delta1(base, (base(1), half, base(-1))),
            gp.theta(base, (1, -2, 1), base(3)),
            gp.hbar(base).compose(gp.delta2(base, (half, 0, base(2))))]
    for _ in range(30):
        (f, f2), (g, g2) = (_fast_vs_slow_poly(ring, rng) for _ in range(2))
        _assert_same(f, f2, base)
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b, lambda a, b: a ** 2 * b ** 3):
            _assert_same(op(f, g), op(f2, g2), base)
        _assert_same(psi(f), psi(f2), base)
        g_elt = rng.choice(gens)
        _assert_same(gp.coordinate_action(g_elt, f),
                     gp.coordinate_action(g_elt, f2), base)
        keys = [(i, j) for i in (1, 2) for j in range(1, 9)]
        scalars = {k: base(Fraction(rng.randint(-4, 4), rng.choice((1, 3))))
                   for k in keys}
        polys, polys2 = {}, {}
        for k in rng.sample(keys, 12):  # the other keys are retained
            polys[k], polys2[k] = _fast_vs_slow_poly(ring, rng)
        for (a, a2), target in (((scalars, scalars), base),
                                ((polys, polys2), ring)):
            h, h2 = f.substitute(a), f2.substitute(a2)
            _assert_same(h, h2, base)
            _assert_same(h, _chained_substitute(f, a, target), base)


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        GF(6)


_NON_INT_MODULI = (5.0, 1000003.0, "7", True, None, Fraction(5))


@pytest.mark.parametrize("fresh", [True, False])
def test_non_int_modulus_rejected_whichever_fields_exist(monkeypatch, fresh):
    # 5.0 hashes like 5, so without the type check it found GF(5) once
    # that field existed, and failed in range() before
    if fresh:
        monkeypatch.setattr(PrimeField, "_interned", {})
    for p in _NON_INT_MODULI:
        with pytest.raises(ValueError, match=re.escape(repr(p))):
            GF(p)
    assert GF(5).p == 5
    for p in _NON_INT_MODULI:
        with pytest.raises(ValueError, match=re.escape(repr(p))):
            GF(p)


def _old_mul_terms(a, b):
    """The product of two term dicts as mul_terms built it before the
    accumulating kernel: every pair of terms, zero sums dropped at the end."""
    terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2))
            terms[m] = terms.get(m, 0) + c1 * c2
    return {m: c for m, c in terms.items() if c}


_MONOMIALS = st.lists(st.integers(0, 3), max_size=3).map(lambda m: tuple(sorted(m)))
_TERM_DICTS = st.dictionaries(_MONOMIALS, st.integers(-3, 3).filter(bool), max_size=5)


@given(_TERM_DICTS, _TERM_DICTS, _TERM_DICTS, st.data())
def test_mul_terms_into_adds_the_old_product(a, b, acc0, data):
    """mul_terms_into(acc, a, b) is acc + a*b by the old product, also
    where terms of acc cancel exactly, with no zero coefficient left and
    a and b untouched."""
    prod = _old_mul_terms(a, b)
    if prod:
        cancel = data.draw(st.sets(st.sampled_from(sorted(prod))))
        acc0.update((m, -prod[m]) for m in cancel)
    a0, b0 = dict(a), dict(b)
    acc = dict(acc0)
    assert mul_terms_into(acc, a, b) is acc
    assert acc == add_terms(acc0, prod)
    assert all(c != 0 for c in acc.values())
    assert (a, b) == (a0, b0)
    assert mul_terms(a, b) == prod == mul_terms(b, a)


def _random_poly(ring, rng, nvars=4, nterms=4, coeff=None):
    out = ring.zero
    for _ in range(nterms):
        term = ring(coeff(rng) if coeff else rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2)):
            term = term * ring.var(rng.randint(1, 2), rng.randint(1, nvars))
        out = out + term
    return out


@pytest.mark.parametrize("base", [QQ, GF(5)])
def test_polynomial_ring_axioms(base):
    ring = PolynomialRing(base)
    rng = random.Random(7)
    coeff = (lambda r: base(r.randrange(5))) if base is not QQ else None
    for _ in range(60):
        f = _random_poly(ring, rng, coeff=coeff)
        g = _random_poly(ring, rng, coeff=coeff)
        h = _random_poly(ring, rng, coeff=coeff)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert (f + g) * h == f * h + g * h


@pytest.mark.parametrize("base", [QQ, GF(5)])
def test_sub_is_the_sum_with_the_negation(base):
    """f - g, subtracted in place, equals f + (-g) in value, hash and
    repr, also where some or all terms cancel."""
    ring = PolynomialRing(base)
    rng = random.Random(23)
    coeff = ((lambda r: base(r.randrange(5))) if base is not QQ else
             (lambda r: Fraction(r.randint(-3, 3), r.choice((1, 1, 2, 3)))))
    for _ in range(60):
        f = _random_poly(ring, rng, coeff=coeff)
        g = _random_poly(ring, rng, coeff=coeff)
        h = _random_poly(ring, rng, coeff=coeff)
        f_and_h = f + h
        for x, y in ((f, g), (f, f), (f, Polynomial(ring, dict(f.terms))),
                     (f_and_h, f), (f_and_h, h), (g, ring.zero),
                     (ring.zero, g), (f, 3), (f, Fraction(1, 2))):
            diff, ref = x - y, x + (-ring(y))
            assert diff == ref and hash(diff) == hash(ref)
            assert repr(diff) == repr(ref)
            assert all(c != 0 for c in diff.terms.values())
        assert (f - f).terms == {} and (f_and_h - h) == f
        # the operands are not changed
        assert f + (-f) == ring.zero and f_and_h == f + h


def test_substitute_is_a_homomorphism():
    ring = PolynomialRing(QQ)
    rng = random.Random(11)
    for _ in range(100):
        f = _random_poly(ring, rng)
        g = _random_poly(ring, rng)
        assignment = {(i, j): Fraction(rng.randint(-4, 4))
                      for i in (1, 2) for j in range(1, 5)}
        assert (f * g).substitute(assignment) == \
            f.substitute(assignment) * g.substitute(assignment)
        assert (f + g).substitute(assignment) == \
            f.substitute(assignment) + g.substitute(assignment)


def test_substitute_single_variable():
    ring = PolynomialRing(QQ)
    f = ring.var(1, 3)
    assert f.substitute({(1, 3): Fraction(0)}) == Fraction(0)


def test_substitute_matches_determinant():
    ring = PolynomialRing(QQ)
    f = ring.var(1, 1) * ring.var(1, 8) - ring.var(1, 2) * ring.var(1, 5)
    vals = {(1, 1): Fraction(3), (1, 8): Fraction(5),
            (1, 2): Fraction(2), (1, 5): Fraction(7)}
    assert f.substitute(vals) == 3 * 5 - 2 * 7


def test_substitute_partial_retains_variables():
    ring = PolynomialRing(QQ)
    f = ring.var(1, 1) * ring.var(1, 2)
    g = f.substitute({(1, 1): Fraction(2)})
    assert g == 2 * ring.var(1, 2)


def test_substitute_mixed_rings_error():
    ring = PolynomialRing(QQ)
    other = PolynomialRing(GF(5))
    f = ring.var(1, 1) + ring.var(1, 2)
    with pytest.raises(ValueError):
        f.substitute({(1, 1): other.var(1, 1), (1, 2): ring.var(1, 2)})


def test_substitute_commutes_with_arithmetic_mod_p():
    ring = PolynomialRing(GF(5))
    field = GF(5)
    rng = random.Random(3)
    coeff = lambda r: field(r.randrange(5))
    for _ in range(40):
        f = _random_poly(ring, rng, coeff=coeff)
        g = _random_poly(ring, rng, coeff=coeff)
        vals = {(i, j): field(rng.randrange(5)) for i in (1, 2)
                for j in range(1, 5)}
        assert (f * g).substitute(vals) == f.substitute(vals) * g.substitute(vals)


def test_substitute_is_independent_of_assignment_order():
    ring = PolynomialRing(QQ)
    f = ring.var(1, 1) * ring.var(1, 2)
    pairs = [((1, 1), Fraction(2)), ((1, 2), ring.var(2, 1))]
    for order in (pairs, pairs[::-1]):
        assert f.substitute(dict(order)) == 2 * ring.var(2, 1)


def test_equal_scalars_hash_equal():
    f5 = GF(5)
    assert len({f5(1), 1}) == 1
    assert f5(1) == 1 and hash(f5(1)) == hash(1)
    assert f5(1) != 6
    one = PolynomialRing(QQ).one
    for x in (1, Fraction(1)):
        assert one == x and hash(one) == hash(x)
    three = PolynomialRing(GF(5))(3)
    for x in (f5(3), 3):
        assert three == x and hash(three) == hash(x)
    assert three != 8
    assert PolynomialRing(QQ).zero == 0 and hash(PolynomialRing(QQ).zero) == hash(0)
    # a non-constant polynomial never equals a scalar
    assert PolynomialRing(QQ).var(1, 1) != 1


@pytest.mark.parametrize("base", [QQ, GF(5)])
def test_equal_nonconstant_polynomials_hash_equal(base):
    ring = PolynomialRing(base)
    x, y, z = ring.var(1, 1), ring.var(1, 2), ring.var(2, 3)
    # the same polynomial with its terms added and its factors multiplied
    # in different orders, and with its terms dict built in reverse
    f = 3 * x * y * y + z - x
    g = (-x) + y * x * 3 * y + z
    h = Polynomial(ring, dict(reversed(list(f.terms.items()))))
    assert f == g == h
    assert hash(f) == hash(g) == hash(h)
    assert len({f, g, h}) == 1


def test_polynomial_nonunit_inverse_errors():
    ring = PolynomialRing(QQ)
    with pytest.raises(ZeroDivisionError):
        ring.var(1, 1).inverse()
    with pytest.raises(ZeroDivisionError):
        ring.zero.inverse()
    assert ring(Fraction(2)).inverse() == ring(Fraction(1, 2))


def test_coefficients_in_z_half():
    ring = PolynomialRing(QQ)
    f = ring(Fraction(3, 4)) * ring.var(1, 1)
    g = ring(Fraction(1, 3)) * ring.var(1, 1)
    assert coefficients_in_z_half(f)
    assert not coefficients_in_z_half(g)


def test_multidegree():
    ring = PolynomialRing(QQ)
    f = ring.var(1, 1) * ring.var(2, 3) * ring.var(2, 5)
    assert f.multidegree(2) == (1, 2)
    g = f + ring.var(1, 2)
    with pytest.raises(ValueError):
        g.multidegree(2)


def test_large_field_elements_are_not_retained():
    field = GF(10 ** 14 + 31)
    x = field(3)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(100000):
            x * field(k)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 10 ** 6


_PROTOCOL_RINGS = (QQ, GF(2), GF(5), GF(10 ** 14 + 31), PolynomialRing(QQ),
                   PolynomialRing(GF(5)))


@given(st.sampled_from(_PROTOCOL_RINGS),
       st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 6))
def test_ring_protocol(ring, num, den):
    """ring(x) is x in the base field, for an int and for a Fraction with
    an invertible denominator; ring.one / x is the inverse of a unit."""
    base = getattr(ring, "base", ring)
    if base is not QQ:
        assume(den % base.p)
    for x in (num, Fraction(num, den)):
        # x in the base field, computed without the ring
        ref = Fraction(x)
        if base is not QQ:
            ref = ref.numerator * pow(ref.denominator, -1, base.p) % base.p
        y = ring(x)
        assert y == base(x) == ref and hash(y) == hash(base(x)) == hash(ref)
        assert ring(y) == y
        if not y:
            continue
        inv = ring.one / y
        assert y * inv == ring.one and inv * y == ring.one
        if ring is not base:
            # a constant's inverse is its constant's inverse
            assert y.inverse() == inv == ring(base.one / base(x))
