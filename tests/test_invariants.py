import copy
import pickle
import random
from collections import OrderedDict
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitoct import group as gp
from splitoct import invariants as inv
from splitoct import octonion as oc
from splitoct import words as wd
from splitoct.scalars import GF, QQ, PolynomialRing

from helpers import gf2_element, rand_oct


def test_enumerate_set_small():
    descs = inv.enumerate_set("S", 1, 2)
    assert [d.name() for d in descs] == ["tr(1)", "n(1)"]


def test_enumerate_set_counts():
    assert len(inv.enumerate_set("S", 4, 4)) == 19
    assert len(inv.enumerate_set("S0", 3, 3)) == 7
    assert inv.enumerate_set("S0", 2, 1) == []


def test_enumerate_set_deterministic_order():
    a = [d.name() for d in inv.enumerate_set("S", 3, 8)]
    b = [d.name() for d in inv.enumerate_set("S", 3, 8)]
    assert a == b
    assert a[0] == "tr(1)"  # degree 1 first


def test_enumerate_set_stops_at_the_largest_descriptor_degree():
    # no descriptor has degree above max(n, 2), so a huge d costs nothing
    assert inv.enumerate_set("S", 3, 10 ** 9) == inv.enumerate_set("S", 3, 3)
    assert inv.enumerate_set("S", 1, 10 ** 9) == inv.enumerate_set("S", 1, 2)
    assert inv.enumerate_set("S0", 3, 10 ** 9) == inv.enumerate_set("S0", 3, 3)


def test_enumerate_set_size_limit():
    # the largest family used by the command line checks and examples
    assert len(inv.enumerate_set("S", 12, 8)) == 3808
    with pytest.raises(ValueError) as err:
        inv.enumerate_set("S", 18, 8)
    msg = str(err.value)
    assert "family S" in msg and "n=18" in msg and "d=8" in msg
    assert str(inv.MAX_FAMILY_SIZE) in msg
    # refused without counting the whole family
    with pytest.raises(ValueError):
        inv.enumerate_set("S0", 10 ** 6, 10 ** 6)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        inv.Descriptor("tr", (2, 1))
    for kind, indices in (("det", (1,)), ("n", (1, 2)), ("n", ()), ("tr", ()),
                          ("tr", (0, 1)), ("n", (0,)), ("n", (-1,)),
                          ("tr", (1.5, 2)), ("tr", (1, 2.0)), ("n", (1.0,)),
                          ("n", (True,)), ("tr", (False, 1)), ("tr", ("1",))):
        with pytest.raises(ValueError):
            inv.Descriptor(kind, indices)
    with pytest.raises(ValueError):
        inv.enumerate_set("T", 1, 1)
    d = inv.Descriptor("tr", [1, 3])
    assert (d.kind, d.indices, d.degree, repr(d)) == ("tr", (1, 3), 2, "tr(1,3)")
    assert pickle.loads(pickle.dumps(d)) == d and copy.copy(d) == d


def test_eval_descriptor_values():
    b = oc.unit_u(QQ, 1) + oc.unit_v(QQ, 1)
    assert inv.eval_descriptor(inv.Descriptor("n", (1,)), (b,)) == -1
    v = tuple(oc.unit_v(QQ, i) for i in (1, 2, 3))
    # nonzero is what makes the rank-3 pair separable; the value is -1
    assert inv.eval_descriptor(inv.Descriptor("tr", (1, 2, 3)), v) == -1
    extended = v + (oc.unit_e(QQ, 1) - oc.unit_e(QQ, 2),)
    assert inv.eval_descriptor(inv.Descriptor("tr", (1, 2, 3, 4)), extended) == -1


def test_eval_descriptor_index_error():
    with pytest.raises(IndexError):
        inv.eval_descriptor(inv.Descriptor("tr", (1, 2)), (oc.identity(QQ),))


def test_descriptor_invariance_random(g2f2_array):
    mats, _words = g2f2_array
    field = GF(2)
    rng = random.Random(23)
    descs = inv.enumerate_set("S", 2, 8)
    for _ in range(100):
        g = gf2_element(rng.choice(mats))
        tup = (rand_oct(field, rng), rand_oct(field, rng))
        gtup = gp.apply_tuple(g, tup)
        for d in descs:
            assert inv.eval_descriptor(d, tup) == inv.eval_descriptor(d, gtup)


def test_multihomogeneous_scaling():
    field = GF(7)
    rng = random.Random(29)
    lam = field(3)
    for d in inv.enumerate_set("S", 3, 4):
        tup = tuple(rand_oct(field, rng) for _ in range(3))
        for slot in (1, 2, 3):
            scaled = tuple(a.scale(lam) if i == slot else a
                           for i, a in enumerate(tup, start=1))
            deg_i = (d.indices.count(slot) if d.kind == "tr"
                     else (2 if d.indices[0] == slot else 0))
            assert inv.eval_descriptor(d, scaled) == \
                lam ** deg_i * inv.eval_descriptor(d, tup)


def _reference_family(family, tup, d):
    return [(desc, inv.eval_descriptor(desc, tup))
            for desc in inv.enumerate_set(family, len(tup), d)]


# GF(1073741789): the largest p with p - 1 < 2^30, the bound of the
# array path's direct product; GF(1125899906842597): the largest prime
# below 2^50, the bound of its mulmod
_RINGS = (QQ, GF(2), GF(5), GF(1073741789), GF(10 ** 14 + 31),
          GF(1125899906842597), GF(2 ** 61 - 1), GF(10 ** 24 + 7))
_POLY = PolynomialRing(QQ)
# one distinct prime denominator per QQ member, the worst case for a
# common denominator over the whole tuple
_PRIMES_NEAR_1E6 = (999907, 999917, 999931, 999953, 999959, 999961, 999979,
                    999983, 1000003, 1000033)


def _assert_family_matches(family, tup, d):
    got = list(inv.evaluate_family(family, tup, d))
    ref = _reference_family(family, tup, d)
    assert got == ref
    assert [type(v) for _desc, v in got] == [type(v) for _desc, v in ref]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_family_matches_eval_descriptor(data):
    family = data.draw(st.sampled_from(("S", "S0")))
    ring = data.draw(st.sampled_from(_RINGS + (_POLY,)))
    # over QQ[z] the terms multiply with every factor, so at most 4 members
    n = data.draw(st.integers(1, 4 if ring is _POLY else 8))
    # d = n reaches the top trace, tr(1,...,n)
    d = data.draw(st.one_of(st.just(n), st.integers(1, 8)))
    if ring is _POLY:
        # each coordinate a constant or one monomial c z[i, j]
        coord = st.tuples(st.integers(-3, 3), st.integers(0, 8))
        coords = [[_POLY(c) * (_POLY.var(i, j) if j else _POLY.one)
                   for c, j in data.draw(st.lists(coord, min_size=8, max_size=8))]
                  for i in range(1, n + 1)]
    elif ring is QQ and data.draw(st.booleans()):
        dens = data.draw(st.permutations(_PRIMES_NEAR_1E6))
        coords = [[Fraction(c, den) for c in data.draw(
            st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=8, max_size=8))]
            for den in dens[:n]]
    else:
        coord = (st.fractions(max_denominator=5).filter(lambda c: -9 <= c <= 9)
                 if ring is QQ else st.integers(0, ring.p - 1))
        coords = [data.draw(st.lists(coord, min_size=8, max_size=8))
                  for _ in range(n)]
    tup = tuple(oc.from_coords(ring, [ring(c) for c in cs]) for cs in coords)
    _assert_family_matches(family, tup, d)


def test_evaluate_family_to_the_top_trace():
    # d = n for n up to 8: every length below n forms rows, n only a trace
    rng = random.Random(61)
    for n in range(1, 9):
        for ring in _RINGS:
            if ring is QQ:
                tup = tuple(oc.from_coords(QQ, [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                                         den) for _ in range(8)])
                            for den in _PRIMES_NEAR_1E6[:n])
            else:
                tup = tuple(rand_oct(ring, rng) for _ in range(n))
            for family in ("S", "S0"):
                _assert_family_matches(family, tup, n)


def _assert_lanes_match(family, tup, d):
    """The lane walker over GF(p) against eval_descriptor: equal values of
    equal types, and levels of plain int residues that cover the family
    run after run."""
    ring = oc.ring_of(tup)
    _assert_family_matches(family, tup, d)
    descs, levels = inv._levels(family, tup, d)
    covered = 0
    for pos, values in levels:
        assert pos == covered
        assert all(type(v) is int and 0 <= v < ring.p for v in values)
        covered += len(values)
    assert covered == len(descs)


# GF(1073741789) is the largest prime with p - 1 < 2^30, which the int64
# lanes multiply directly, and GF(1073741827) the smallest above it, which
# they reduce by the float-quotient mulmod; GF(1125899906842597) is the
# largest prime below 2^50, the mulmod's bound; above it the residues are
# Python ints in object rows
_LANE_PRIMES = (2, 3, 5, 1000003, 1073741789, 1073741827, 10 ** 14 + 31,
                1125899906842597, 2 ** 61 - 1, 10 ** 24 + 7)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lanes_match_eval_descriptor(data):
    field = GF(data.draw(st.sampled_from(_LANE_PRIMES)))
    family = data.draw(st.sampled_from(("S", "S0")))
    n = data.draw(st.integers(1, 8))
    d = data.draw(st.one_of(st.just(n), st.integers(1, 8)))
    p = field.p
    coord = st.one_of(st.integers(0, p - 1), st.sampled_from((0, 1, p - 2, p - 1)))
    tup = tuple(oc.from_coords(field, data.draw(st.lists(coord, min_size=8, max_size=8)))
                for _ in range(n))
    _assert_lanes_match(family, tup, d)


def test_lanes_at_the_int64_bound(monkeypatch):
    # every coordinate p - 1 gives every product of residues its largest
    # size, (p - 1)^2, and the top traces sum 8 of them
    def worst(field):
        return tuple(oc.from_coords(field, [field.p - 1] * 8) for _ in range(8))

    # the direct product up to p - 1 < 2^30, the mulmod above it and up
    # to the largest prime below 2^50
    assert 8 * (1073741789 - 1) ** 2 < 2 ** 63 <= 8 * (1073741827 - 1) ** 2
    for p in (1073741789, 1073741827, 1125899906842597):
        assert p < 2 ** 50
        assert inv._lift(GF(p), worst(GF(p)))[0].dtype == np.int64
        for family in ("S", "S0"):
            _assert_lanes_match(family, worst(GF(p)), 8)
    # the next prime takes object rows of Python ints, multiplied directly
    big = GF(1125899906842679)
    assert big.p > 2 ** 50
    assert inv._lift(big, worst(big))[0].dtype == object
    lane_product = inv._lane_product

    def on_objects(a, pre, b, last, table, p):
        assert a.dtype == b.dtype == object
        return lane_product(a, pre, b, last, table, p)

    monkeypatch.setattr(inv, "_lane_product", on_objects)
    for family in ("S", "S0"):
        _assert_lanes_match(family, worst(big), 8)


def test_evaluate_family_refuses_empty_and_mixed_tuples():
    u1, v1 = oc.unit_u(GF(5), 1), oc.unit_v(GF(7), 1)
    for d in (1, 2):
        for family in ("S", "S0"):
            for tup in ((), (u1, v1), (u1, oc.unit_v(QQ, 1))):
                # refused at the call, before anything is evaluated
                with pytest.raises(ValueError):
                    inv.evaluate_family(family, tup, d)


def test_enumerate_set_builds_valid_descriptors():
    for family in ("S", "S0"):
        for n in range(1, 9):
            for d in range(1, 9):
                descs = inv.enumerate_set(family, n, d)
                assert all(type(x) is inv.Descriptor for x in descs)
                assert descs == [inv.Descriptor(*x) for x in descs]


def test_enumerate_set_returns_a_new_list():
    first = inv.enumerate_set("S", 3, 3)
    want = list(first)
    first.append(inv.Descriptor("n", (9,)))
    first.reverse()
    assert inv.enumerate_set("S", 3, 3) == want
    assert inv.family_names("S", 3, 3) == tuple(d.name() for d in want)


def test_family_cache_keys_by_the_largest_descriptor_degree(monkeypatch):
    monkeypatch.setattr(inv, "_FAMILIES", OrderedDict())
    assert inv._family("S", 3, 10 ** 9) is inv._family("S", 3, 3)
    assert list(inv._FAMILIES) == [("S", 3, 3)]


def test_family_cache_holds_at_most_the_family_size_limit(monkeypatch):
    monkeypatch.setattr(inv, "_FAMILIES", OrderedDict())

    def held():
        return sum(len(descs) for descs, _names, _steps in inv._FAMILIES.values())

    rng = random.Random(5)
    f5 = GF(5)
    # 65,552 and 3,808 descriptors fit together; S0 at n = 17 (65,535)
    # evicts S at n = 17, and S at n = 17 once more evicts both others
    for family, n, kept in (("S", 17, [("S", 17, 8)]),
                            ("S", 12, [("S", 17, 8), ("S", 12, 8)]),
                            ("S0", 17, [("S", 12, 8), ("S0", 17, 8)]),
                            ("S", 17, [("S", 17, 8)])):
        tup = tuple(rand_oct(f5, rng) for _ in range(n))
        values = inv.evaluate_family(family, tup, 8)  # builds the family
        assert held() <= inv.MAX_FAMILY_SIZE
        assert list(inv._FAMILIES) == kept
    assert len(list(values)) == 65_552


def test_evaluate_family_generic_octonions():
    ring = PolynomialRing(QQ)
    tup = tuple(inv.generic_octonion(ring, i) for i in (1, 2, 3))
    for family in ("S", "S0"):
        assert list(inv.evaluate_family(family, tup, 3)) == \
            _reference_family(family, tup, 3)
    assert list(inv.evaluate_family("S0", tup, 1)) == []


def test_eval_descriptor_matches_the_full_left_normed_product():
    # the last factor enters by trace_mul; the reference forms every product
    rng = random.Random(53)
    tuples = [tuple(oc.from_coords(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                        for _ in range(8)]) for _ in range(4))]
    for ring in _RINGS[1:] + (GF(7),):
        tuples += [tuple(rand_oct(ring, rng) for _ in range(4)) for _ in range(3)]
    poly = PolynomialRing(GF(5))
    tuples.append(tuple(inv.generic_octonion(poly, i) for i in range(1, 5)))
    descs = inv.enumerate_set("S", 4, 4)
    assert len(descs) == 19
    for tup in tuples:
        for d in descs:
            slow = (tup[d.indices[0] - 1].norm() if d.kind == "n"
                    else wd.evaluate(wd.left_normed(d.indices), tup).trace())
            assert inv.eval_descriptor(d, tup) == slow, (d, tup)


def test_reference_shares_no_lift_with_the_family(monkeypatch):
    # eval_descriptor, the product and trace_mul compute on ring elements:
    # with the family's lift broken they keep their values, and only
    # evaluate_family fails
    rng = random.Random(59)
    descs = inv.enumerate_set("S", 4, 4)
    cases = []
    for ring in (QQ, GF(5), GF(10 ** 14 + 31)):
        if ring is QQ:
            tup = tuple(oc.from_coords(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                            for _ in range(8)]) for _ in range(4))
        else:
            tup = tuple(rand_oct(ring, rng) for _ in range(4))
        cases.append((tup, [inv.eval_descriptor(d, tup) for d in descs],
                      tup[0] * tup[1], tup[0].trace_mul(tup[1])))

    def broken(ring, octs):
        raise RuntimeError("the family lift was called")

    monkeypatch.setattr(inv, "_lift", broken)
    for tup, values, prod, trace in cases:
        assert [inv.eval_descriptor(d, tup) for d in descs] == values
        assert tup[0] * tup[1] == prod
        assert tup[0].trace_mul(tup[1]) == trace
        with pytest.raises(RuntimeError):
            list(inv.evaluate_family("S", tup, 4))


def _q_prime_24_terms(args):
    """The definition written out: the average over all 24 orders of
    tr(((a_s1 a_s2) a_s3) a_s4), signed by the parity of the order."""
    ring = args[0].ring
    acc = ring.zero
    for perm in permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(4), 2))
        term = (((args[perm[0]] * args[perm[1]]) * args[perm[2]])
                * args[perm[3]]).trace()
        acc = acc - term if inversions % 2 else acc + term
    return acc * ring(Fraction(1, 24))


def test_q_prime_sym_path_is_the_24_term_average():
    ring = PolynomialRing(QQ)
    generic = tuple(inv.generic_octonion(ring, i) for i in range(1, 5))
    assert inv.q_prime(*generic, path="sym") == _q_prime_24_terms(generic)
    rng = random.Random(59)
    for field in (GF(7), GF(1000003)):
        for _ in range(15):
            args = tuple(rand_oct(field, rng) for _ in range(4))
            assert inv.q_prime(*args, path="sym") == _q_prime_24_terms(args)


def test_q_prime_skew_symmetry():
    rng = random.Random(31)
    a, b, c = (oc.from_coords(QQ, [rng.randint(-4, 4) for _ in range(8)])
               for _ in range(3))
    assert inv.q_prime(a, a, b, c) == 0
    assert inv.q_prime(a, b, a, c) == 0


def test_q_prime_paths_agree_numerically():
    rng = random.Random(37)
    for _ in range(30):
        args = tuple(oc.from_coords(QQ, [rng.randint(-3, 3) for _ in range(8)])
                     for _ in range(4))
        assert inv.q_prime(*args, path="sym") == \
            inv.q_prime(*args, path="combination")


def test_q_prime_on_basis_pairs():
    u1, u2 = oc.unit_u(QQ, 1), oc.unit_u(QQ, 2)
    v1, v2 = oc.unit_v(QQ, 1), oc.unit_v(QQ, 2)
    a = inv.q_prime(u1, v1, u2, v2, path="sym")
    b = inv.q_prime(u1, v1, u2, v2, path="combination")
    assert a == b


def test_q_prime_characteristic_restrictions():
    f3, f2 = GF(3), GF(2)
    rng = random.Random(41)
    args3 = tuple(rand_oct(f3, rng) for _ in range(4))
    with pytest.raises(ZeroDivisionError):
        inv.q_prime(*args3, path="sym")
    inv.q_prime(*args3)  # combination path needs only 1/2
    args2 = tuple(rand_oct(f2, rng) for _ in range(4))
    with pytest.raises(ZeroDivisionError):
        inv.q_prime(*args2)
    with pytest.raises(ValueError):
        inv.q_prime(*oc.basis(QQ)[:4], path="x")


def test_q_prime_odd_char_agrees_with_rational_reduction():
    # evaluate over Z, reduce mod 5, compare with the GF(5) path
    f5 = GF(5)
    rng = random.Random(43)
    for _ in range(20):
        ints = [[rng.randrange(5) for _ in range(8)] for _ in range(4)]
        args_q = tuple(oc.from_coords(QQ, row) for row in ints)
        args_5 = tuple(oc.from_coords(f5, [f5(x) for x in row]) for row in ints)
        expected = f5.from_fraction(inv.q_prime(*args_q, path="sym"))
        assert inv.q_prime(*args_5) == expected


def test_psi_kills_outer_coordinates():
    ring = PolynomialRing(QQ)
    assert inv.psi(ring.var(1, 3)).is_zero()
    assert inv.psi(ring.var(1, 2)) == ring.var(1, 2)
    with pytest.raises(TypeError):
        inv.psi(3)


_FACTOR = st.tuples(st.integers(1, 3), st.integers(1, 8), st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(5)]),
       st.lists(st.tuples(st.integers(-3, 3), st.lists(_FACTOR, max_size=3)),
                max_size=6))
def test_psi_matches_substitution_of_zeros(base, terms):
    # the term filter against the exact substitution path it replaced
    ring = PolynomialRing(base)
    f = ring.zero
    for c, factors in terms:
        term = ring(base(c))
        for i, j, e in factors:
            term = term * ring.var(i, j) ** e
        f = f + term
    killed = {(i, j): ring.zero for (i, j) in f.variables() if j in (3, 4, 6, 7)}
    assert inv.psi(f) == f.substitute(killed)


def test_psi_intertwines_products_traces_norms():
    ring = PolynomialRing(QQ)
    zs = [inv.generic_octonion(ring, i) for i in range(1, 4)]
    ms = [inv.generic_matrix(ring, i) for i in range(1, 4)]
    for seq in [(1,), (1, 2), (1, 3), (1, 2, 3)]:
        w = wd.left_normed(seq)
        oct_prod = wd.evaluate(w, zs)
        mat_prod = ms[seq[0] - 1]
        for i in seq[1:]:
            mat_prod = inv.mat2_mul(mat_prod, ms[i - 1])
        assert inv.psi_hat(oct_prod) == inv.embed_matrix(ring, mat_prod)
        assert inv.psi(oct_prod.trace()) == inv.mat2_trace(mat_prod)
    for i in (1, 2, 3):
        assert inv.psi(zs[i - 1].norm()) == inv.mat2_det(ms[i - 1])


def test_embedding_unit_and_multiplicativity():
    field = GF(5)
    rng = random.Random(47)
    ident = ((field.one, field.zero), (field.zero, field.one))
    assert inv.embed_matrix(field, ident) == oc.identity(field)
    # integer entries are coerced into the field
    m = inv.embed_matrix(field, ((1, 2), (3, 4)))
    assert m * m == inv.embed_matrix(field, ((2, 0), (0, 2)))
    for _ in range(200):
        a = ((field(rng.randrange(5)), field(rng.randrange(5))),
             (field(rng.randrange(5)), field(rng.randrange(5))))
        b = ((field(rng.randrange(5)), field(rng.randrange(5))),
             (field(rng.randrange(5)), field(rng.randrange(5))))
        fa, fb = inv.embed_matrix(field, a), inv.embed_matrix(field, b)
        assert inv.embed_matrix(field, inv.mat2_mul(a, b)) == fa * fb
        assert fa.trace() == inv.mat2_trace(a)
        assert fa.norm() == inv.mat2_det(a)


def test_matrix_invariants_n2():
    names = {d.name() for d in inv.enumerate_set("S", 2, 2)}
    assert names == {"tr(1)", "tr(2)", "n(1)", "n(2)", "tr(1,2)"}


def test_matrix_descriptors_are_psi_images():
    # n(i) is read as det(M_i) on the matrix side, for every n
    ring = PolynomialRing(QQ)
    for n in (1, 2, 3):
        ms = [inv.generic_matrix(ring, i) for i in range(1, n + 1)]
        for d in inv.enumerate_set("S", n, max(n, 2)):
            assert inv.psi(inv.descriptor_polynomial(d, ring)) == \
                inv.eval_matrix_descriptor(d, ms), d


def test_matrix_invariants_gl2_invariance():
    field = GF(5)
    rng = random.Random(53)
    descs = inv.enumerate_set("S", 3, 3)

    def rand_mat():
        return ((field(rng.randrange(5)), field(rng.randrange(5))),
                (field(rng.randrange(5)), field(rng.randrange(5))))

    checked = 0
    while checked < 200:
        g = rand_mat()
        d = inv.mat2_det(g)
        if d == field.zero:
            continue
        gi = ((g[1][1] / d, -g[0][1] / d), (-g[1][0] / d, g[0][0] / d))
        mats = [rand_mat() for _ in range(3)]
        conj = [inv.mat2_mul(inv.mat2_mul(gi, m), g) for m in mats]
        for desc in descs:
            assert inv.eval_matrix_descriptor(desc, mats) == \
                inv.eval_matrix_descriptor(desc, conj)
        checked += 1
