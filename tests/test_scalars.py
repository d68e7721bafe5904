import gc
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from splitoct import group as gp
from splitoct import octonion as oc
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
    # over GF(p) a coefficient is its int residue in 1..p-1
    r5 = PolynomialRing(GF(5))
    assert [(type(c), c) for x in (r5.one, r5(-2)) for c in x.terms.values()] == \
        [(int, 1), (int, 3)]


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
    Fraction; over GF(p) a polynomial's coefficients are int residues in
    1..p-1 and a scalar is an element of that field."""
    if base is QQ:
        coeffs = x.terms.values() if isinstance(x, Polynomial) else (x,)
        assert all(type(c) in (int, Fraction) for c in coeffs), x
    elif isinstance(x, Polynomial):
        assert all(type(c) is int and 0 < c < base.p for c in x.terms.values()), x
    else:
        assert type(x) is FpElement and x.field is base, x


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


class _FpRef:
    """A GF(p) polynomial as term dicts held it before residues: nonzero
    FpElement coefficients, each operation by FpElement arithmetic."""

    def __init__(self, field, terms):
        self.field = field
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def of(cls, f):
        return cls(f.ring.base, {m: f.ring.base(c) for m, c in f.terms.items()})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, self.field.zero) + c
        return _FpRef(self.field, terms)

    def __neg__(self):
        return _FpRef(self.field, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, self.field.zero) + c1 * c2
        return _FpRef(self.field, terms)

    def __pow__(self, k):
        out = _FpRef(self.field, {(): self.field.one})
        for _ in range(k):
            out = out * self
        return out

    def substitute(self, values):
        """values maps a variable id to an _FpRef; the others are kept."""
        acc = _FpRef(self.field, {})
        for m, c in self.terms.items():
            val = _FpRef(self.field, {(): c})
            for v in m:
                val = val * values.get(v, _FpRef(self.field, {(v,): self.field.one}))
            acc = acc + val
        return acc


def _assert_matches_ref(r, ref):
    """r, a Polynomial, stores int residues in 1..p-1 that are ref's
    FpElement coefficients."""
    p = ref.field.p
    assert all(type(c) is int and 0 < c < p for c in r.terms.values()), r
    assert {m: ref.field(c) for m, c in r.terms.items()} == ref.terms


def _sparse_poly(ring, rng):
    """Up to five terms of degree at most 3 in z[1..2, 1..8]; coefficients
    from every residue class, also negative and above p."""
    p = ring.base.p
    f = ring.zero
    for _ in range(rng.randint(0, 5)):
        term = ring(rng.randrange(-2 * p, 2 * p))
        for _ in range(rng.randint(0, 3)):
            term = term * ring.var(rng.randint(1, 2), rng.randint(1, 8))
        f = f + term
    return f


@pytest.mark.parametrize("p", [2, 5, 10 ** 14 + 31])
def test_residues_match_fp_element_coefficients(p):
    """Every polynomial operation over GF(p)[z] gives the coefficients of
    the same operation on FpElement coefficients, as int residues in
    1..p-1: + - * neg ** psi substitute coordinate_action, and the fused
    octonion product and trace_mul."""
    field, ring = GF(p), PolynomialRing(GF(p))
    rng = random.Random(p)
    for _ in range(30):
        f, g = _sparse_poly(ring, rng), _sparse_poly(ring, rng)
        rf, rg = _FpRef.of(f), _FpRef.of(g)
        _assert_matches_ref(f, rf)
        # psi keeps the monomials free of z[i,j] for j in {3, 4, 6, 7}
        kept = _FpRef(field, {m: c for m, c in rf.terms.items()
                              if all(v % 8 + 1 not in (3, 4, 6, 7) for v in m)})
        for r, ref in ((f + g, rf + rg), (f - g, rf - rg), (f - f, rf - rf),
                       (f * g, rf * rg), (-f, -rf), (f ** 3, rf ** 3),
                       (psi(f), kept)):
            _assert_matches_ref(r, ref)
        keys = rng.sample([(i, j) for i in (1, 2) for j in range(1, 9)], 10)
        polys = {k: _sparse_poly(ring, rng) for k in keys}
        _assert_matches_ref(f.substitute(polys), rf.substitute(
            {var_id(*k): _FpRef.of(a) for k, a in polys.items()}))
        point = {(i, j): field(rng.randrange(p)) for i in (1, 2) for j in range(1, 9)}
        val = f.substitute(point)
        assert type(val) is FpElement and val == rf.substitute(
            {var_id(*k): _FpRef(field, {(): c}) for k, c in point.items()}
        ).terms.get((), field.zero)
        # a constant's coordinate action is a scalar, so f gets a variable
        f, rf = f + ring.var(2, 8), rf + _FpRef(field, {(var_id(2, 8),): field.one})
        g_elt = gp.delta1(field, [field(rng.randrange(p)) for _ in range(3)]).compose(
            gp.hbar(field))
        rows = g_elt.inverse().rows
        _assert_matches_ref(gp.coordinate_action(g_elt, f), rf.substitute(
            {var_id(i, j): _FpRef(field, {(var_id(i, k),): c
                                          for k, c in enumerate(rows[j - 1], 1)})
             for i in (1, 2) for j in range(1, 9)}))
        a, b = (oc.Octonion(ring, tuple(_sparse_poly(ring, rng) for _ in range(8)))
                for _ in range(2))
        ra, rb = ([_FpRef.of(x) for x in o.coords()] for o in (a, b))
        for r, ref in zip((a * b).coords(), oc._zorn(ra, rb)):
            _assert_matches_ref(r, ref)
        _assert_matches_ref(a.trace_mul(b), oc._zorn_trace(ra, rb))


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
# the unit {(): 1}, which the kernel adds instead of multiplying
_OPERANDS = st.one_of(st.fixed_dictionaries({(): st.just(1)}), _TERM_DICTS)


@given(_OPERANDS, _OPERANDS, _TERM_DICTS, st.data())
def test_mul_terms_into_adds_the_old_product(a, b, acc0, data):
    """mul_terms_into(acc, a, b) is acc + a*b by the old product, also
    where terms of acc cancel exactly and where a or b is the unit, with
    no zero coefficient left and a and b untouched."""
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


@pytest.mark.parametrize("base", [QQ, GF(5)])
def test_one_times_f_is_f_in_a_new_dict(base):
    """The unit coefficient of ring.one, 1 over QQ and FpElement(1) over
    GF(5), makes the kernel add f's terms: the product equals f, holds
    f's own coefficients and is a new dict."""
    ring = PolynomialRing(base)
    f = (ring(Fraction(1, 2)) * ring.var(1, 1) + ring(3) * ring.var(2, 5)
         - ring.var(1, 2) * ring.var(1, 2) + ring(4))
    assert ring.one.terms == {(): 1} and len(f.terms) == 4
    for prod in (ring.one * f, f * ring.one):
        assert prod == f and prod.terms is not f.terms
        assert all(prod.terms[m] is c for m, c in f.terms.items())


def test_gf_p_constants_are_tested_for_one_without_fp_eq(monkeypatch):
    """Above the preallocated table every GF(p) product is a new element,
    so f's own coefficient objects in the product show that a unit
    FpElement, on either side, still takes the shortcut; neither it nor
    a constant other than 1 is compared by FpElement.__eq__."""
    field = GF(10 ** 14 + 31)
    ring = PolynomialRing(field)
    f = (ring(2) * ring.var(1, 1) + ring(3) * ring.var(2, 5)).terms
    one, three = {(): field(1)}, {(): field(3)}

    def refuse(self, other):
        raise AssertionError("FpElement.__eq__ called")

    monkeypatch.setattr(FpElement, "__eq__", refuse)
    prods = (mul_terms(one, f), mul_terms(f, one), mul_terms(three, f))
    monkeypatch.undo()
    for prod in prods[:2]:
        assert prod == f and prod is not f
        assert all(prod[m] is c for m, c in f.items())
    assert prods[2] == {m: 3 * c for m, c in f.items()}

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


@pytest.mark.parametrize("base", [QQ, GF(5)])
def test_horner_substitute_matches_the_chained_reference(base):
    """Monomials with repeated variables (exponents up to 3) and a
    constant term, into polynomial values with retained variables and a
    scalar among them, and into scalar values, give the chained-+
    reference in value, hash and repr."""
    ring = PolynomialRing(base)
    rng = random.Random(29)
    keys = [(i, j) for i in (1, 2) for j in range(1, 5)]
    for _ in range(25):
        f = ring(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 5)):
            term = ring(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))
            for _ in range(rng.randint(1, 3)):
                term = term * ring.var(*rng.choice(keys)) ** rng.randint(1, 3)
            f = f + term
        polys = {k: _fast_vs_slow_poly(ring, rng)[0] for k in rng.sample(keys, 5)}
        polys[next(iter(polys))] = base(rng.randint(-4, 4))
        scalars = {k: base(Fraction(rng.randint(-4, 4), rng.choice((1, 3))))
                   for k in keys}
        for a, target in ((polys, ring), (scalars, base)):
            _assert_same(f.substitute(a), _chained_substitute(f, a, target), base)


def test_substitute_runs_a_monomial_above_the_recursion_limit():
    """z[1,1]^3000 with z[1,1] -> z[1,2] + 1 over GF(5) is (z[1,2] + 1)^3000,
    also as the binomial sum with each C(3000, j) reduced mod 5."""
    ring = PolynomialRing(GF(5))
    assert sys.getrecursionlimit() < 3000
    x, y = ring.var(1, 1), ring.var(1, 2)
    h = (x ** 3000).substitute({(1, 1): y + 1})
    binomial, c = {}, 1  # c is C(3000, j)
    for j in range(3001):
        if c % 5:
            binomial[(var_id(1, 2),) * j] = c % 5
        c = c * (3000 - j) // (j + 1)
    assert h == (y + 1) ** 3000 == Polynomial(ring, binomial)


@pytest.mark.parametrize("base", [QQ, GF(2), GF(3), GF(5)])
def test_power_is_the_repeated_product(base):
    """f ** k, by base-p digits and pth powers over GF(p), is f * ... * f."""
    ring = PolynomialRing(base)
    rng = random.Random(31)
    for _ in range(4):
        f = _fast_vs_slow_poly(ring, rng)[0]
        prod = ring.one
        for k in range(13):
            assert f ** k == prod, (f, k)
            prod = prod * f


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


def test_substitute_refuses_values_over_another_field():
    """A GF(5) residue is a bare int, yet it maps into QQ[z] or GF(7)[z]
    no more than an FpElement does; QQ coefficients still reduce mod 5."""
    f5, q, f7 = (PolynomialRing(b) for b in (GF(5), QQ, GF(7)))
    f = f5.var(1, 1) * f5(3)
    for ring, exc in ((q, TypeError), (f7, ValueError)):
        with pytest.raises(exc):
            f.substitute({(1, 1): ring.var(1, 2)})
        assert f5.zero.substitute({(1, 1): ring.var(1, 2)}) == ring.zero
    g = q.var(1, 1) * q(Fraction(7, 2))
    assert g.substitute({(1, 1): f5.var(1, 2)}) == f5.var(1, 2) * f5(1)


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


def test_gf_p_constants_compare_as_their_field_elements():
    """A stored residue is a bare int, yet a constant over GF(5) equals
    only what its FpElement equals: not the same residue in GF(7), and
    not a Fraction."""
    three = PolynomialRing(GF(5))(3)
    assert three == GF(5)(3) and three == 3 and three == 8 - 5
    assert three != GF(7)(3) and three != Fraction(3) and three != 8
    assert PolynomialRing(GF(5)).zero == GF(5)(0) != GF(7)(0)


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
