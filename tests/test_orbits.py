import random
import tracemalloc

import numpy as np
import pytest

from splitoct import group as gp
from splitoct import invariants as inv
from splitoct import linalg
from splitoct import octonion as oc
from splitoct import orbits as ob
from splitoct.invariants import enumerate_set, eval_descriptor, generic_octonion
from splitoct.scalars import GF, QQ, PolynomialRing

from helpers import gf2_element, rand_oct


def test_rank_examples():
    assert ob.rank(oc.basis(QQ)) == 8
    f5 = GF(5)
    u1 = oc.unit_u(f5, 1)
    assert ob.rank((u1, u1.scale(f5(2)))) == 1
    assert ob.rank((oc.unit_u(QQ, 1), oc.unit_v(QQ, 2), oc.unit_v(QQ, 3))) == 3
    with pytest.raises(ValueError):
        ob.rank((generic_octonion(PolynomialRing(QQ), 1),))


def test_algebra_closure_examples():
    e1, e2 = oc.unit_e(QQ, 1), oc.unit_e(QQ, 2)
    u1 = oc.unit_u(QQ, 1)
    cl = ob.algebra_closure((e1, e2 + u1))
    assert len(cl) == 3
    span = [list(a.coords()) for a in cl]
    for member in (e1, e2, u1):
        assert linalg.rank(span + [list(member.coords())], QQ) == len(span)
    assert ob.algebra_closure((oc.identity(QQ),)) == [oc.identity(QQ)]
    cl3 = ob.algebra_closure((u1, oc.unit_v(QQ, 2), oc.unit_v(QQ, 3)))
    assert len(cl3) == 3


def _reference_separate(a_tup, b_tup, family, d):
    for desc in enumerate_set(family, len(a_tup), d):
        va, vb = eval_descriptor(desc, a_tup), eval_descriptor(desc, b_tup)
        if va != vb:
            return desc, (va, vb)
    return None


@pytest.mark.parametrize("field", [QQ, GF(5), GF(10 ** 14 + 31)])
def test_separate_matches_reference_scan(field):
    rng = random.Random(83)
    g = gp.delta1(field, (field(1), field(2), field(0))).compose(
        gp.hbar(field).compose(gp.delta2(field, (field(0), field(3), field(1)))))
    for _ in range(6):
        n = rng.randint(2, 5)
        family = rng.choice(("S", "S0"))
        d = rng.randint(2, 8)
        tup = tuple(oc.from_coords(field, [field(rng.randint(-3, 3))
                                           for _ in range(8)])
                    for _ in range(n))
        image = gp.apply_tuple(g, tup)
        assert not ob.separate(tup, image, family, d).separated
        assert _reference_separate(tup, image, family, d) is None
        k = rng.randrange(n)
        a = image[k]
        shifted = list(a.coords())
        shifted[rng.randrange(8)] += field(1)
        # u1 <-> u2 and v1 <-> v2 in one member keep its norm and trace,
        # so only a product trace can separate
        c = a.coords()
        swapped = oc.from_coords(field, (c[0], c[2], c[1], c[3],
                                         c[5], c[4], c[6], c[7]))
        for b in (oc.from_coords(field, shifted), swapped):
            perturbed = image[:k] + (b,) + image[k + 1:]
            report = ob.separate(tup, perturbed, family, d)
            ref = _reference_separate(tup, perturbed, family, d)
            assert report.separated == (ref is not None)
            if ref is not None:
                assert (report.witness, report.values) == ref


def test_separate_validations():
    with pytest.raises(ValueError):
        ob.separate((oc.zero(QQ),), (oc.zero(QQ), oc.zero(QQ)))
    with pytest.raises(ValueError):
        ob.separate((oc.zero(QQ),), (oc.zero(GF(2)),))


def test_separate_at_a_norm_forms_no_product(monkeypatch):
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for name in ("_zorn", "_zorn_trace"):
        monkeypatch.setattr(oc, name, counting(getattr(oc, name)))
    monkeypatch.setattr(oc.Octonion, "__mul__", counting(oc.Octonion.__mul__))
    # the same traces, norms 0 and -1 at n(1)
    a = (oc.unit_u(QQ, 1), oc.identity(QQ), oc.unit_v(QQ, 2))
    b = (oc.unit_u(QQ, 1) + oc.unit_v(QQ, 1),) + a[1:]
    report = ob.separate(a, b, "S", 3)
    assert report.witness.name() == "n(1)" and report.values == (0, -1)
    assert calls == []


def _assert_separate_at_a_norm_computes_no_level(monkeypatch, field):
    """Over a GF(p) on the lanes: no product or trace of a level when n(1)
    separates, and level 2 and the traces of level 3 on each side when
    nothing does.  The norms run through _lane_product too, with _NORM."""
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for name in ("_zorn", "_zorn_trace"):
        monkeypatch.setattr(oc, name, counting(getattr(oc, name)))
    monkeypatch.setattr(oc.Octonion, "__mul__", counting(oc.Octonion.__mul__))
    lane_product = inv._lane_product

    def level_products(a, pre, b, last, table, p):
        if table is not inv._NORM:
            calls.append("_PRODUCT" if table is inv._PRODUCT else "_TRACE")
        return lane_product(a, pre, b, last, table, p)

    monkeypatch.setattr(inv, "_lane_product", level_products)
    # the same traces, norms 0 and -1 at n(1)
    a = (oc.unit_u(field, 1), oc.identity(field), oc.unit_v(field, 2))
    b = (oc.unit_u(field, 1) + oc.unit_v(field, 1),) + a[1:]
    report = ob.separate(a, b, "S", 3)
    assert report.witness.name() == "n(1)" and report.values == (field(0), field(-1))
    assert calls == []
    # a pair not separated computes level 2 and the traces of level 3 on each side
    assert not ob.separate(a, a, "S", 3)
    assert calls == ["_PRODUCT", "_PRODUCT", "_TRACE", "_TRACE"]


def test_separate_at_a_norm_computes_no_level_over_a_small_field(monkeypatch):
    _assert_separate_at_a_norm_computes_no_level(monkeypatch, GF(5))


def test_separate_at_a_norm_computes_no_level_over_a_large_field(monkeypatch):
    # 2^30 <= p - 1 < 2^50: the lanes reduce each product by the mulmod
    _assert_separate_at_a_norm_computes_no_level(monkeypatch, GF(10 ** 14 + 31))


def test_tuple_functions_refuse_empty_and_mixed_tuples():
    u1, v1 = oc.unit_u(QQ, 1), oc.unit_v(GF(5), 1)
    calls = (ob.rank, ob.algebra_closure,
             lambda tup: ob.separate(tup, tup),
             lambda tup: ob.limit((0, 0, 0), tup),
             lambda tup: ob.theta_curve((0, 0, 0), tup, QQ(2)),
             lambda tup: ob.orbit_equal_oracle(tup, tup))
    for call in calls:
        for tup in ((), (u1, v1)):
            with pytest.raises(ValueError):
                call(tup)
    # a mixed first tuple used to be reported as separated by tr(2)
    with pytest.raises(ValueError):
        ob.separate((u1, v1), (u1, u1))
    with pytest.raises(ValueError):
        ob.orbit_equal_oracle((oc.zero(GF(2)),), ())


def test_limit_examples():
    u1 = oc.unit_u(QQ, 1)
    assert ob.limit((1, -1, 0), (u1,)) == (oc.zero(QQ),)
    assert ob.limit((1, -1, 0), (oc.identity(QQ), u1)) == (oc.identity(QQ), oc.zero(QQ))
    assert ob.limit((1, -1, 0), (oc.unit_v(QQ, 1),)) is None
    for lam in ((1, 1, 0), (1, -1), (1, -1, 0, 0), (2, -1, -1, 0, 0),
                (1, -1, 0.0)):
        with pytest.raises(ValueError):
            ob.limit(lam, (u1,))
        with pytest.raises(ValueError):
            ob.theta_curve(lam, (u1,), QQ(2))
    # v1 carries exponent -1 under (1,-1,0), so the curve has a pole at t = 0
    with pytest.raises(ValueError):
        ob.theta_curve((1, -1, 0), (oc.unit_v(QQ, 1),), QQ(2))


def test_limit_agrees_with_curve_constant_term():
    # the invariant values along the curve are polynomial in t with
    # constant term the value at the limit, for each of the nine tuples
    field = GF(2)
    ring = PolynomialRing(field)
    t = ring.var(1, 1)
    for _name, tup, lam, _lim, _b, _a in ob.nonclosedness_witnesses(field):
        curve = ob.theta_curve(lam, tup, t)
        lim = ob.limit(lam, tup)
        for desc in enumerate_set("S", len(tup), 8):
            poly = eval_descriptor(desc, curve)
            const = poly.terms.get((), field.zero)
            assert const == eval_descriptor(desc, lim)


def test_theta_curve_matches_group_action():
    # at any invertible parameter value the curve is the diagonal action
    f5 = GF(5)
    lam = (1, -1, 0)
    tup = (oc.unit_u(f5, 1), oc.unit_e(f5, 1) + oc.unit_v(f5, 2))
    for tval in (f5(1), f5(2), f5(3), f5(4)):
        th = gp.theta(f5, lam, tval)
        assert ob.theta_curve(lam, tup, tval) == gp.apply_tuple(th, tup)


def test_gram_matrix():
    f2 = GF(2)
    g = ob.gram_matrix(oc.basis(f2))
    assert linalg.rank(g, f2) == 8
    # basis (e1, u1, u2, u3, v1, v2, v3, e2): e1 and e2 pair with
    # themselves, u_i with v_i
    assert ob.gram_matrix(oc.basis(QQ)) == [[1, 0, 0, 0, 0, 0, 0, 0],
                                            [0, 0, 0, 0, 1, 0, 0, 0],
                                            [0, 0, 0, 0, 0, 1, 0, 0],
                                            [0, 0, 0, 0, 0, 0, 1, 0],
                                            [0, 1, 0, 0, 0, 0, 0, 0],
                                            [0, 0, 1, 0, 0, 0, 0, 0],
                                            [0, 0, 0, 1, 0, 0, 0, 0],
                                            [0, 0, 0, 0, 0, 0, 0, 1]]
    z = oc.zero(QQ)
    assert ob.gram_matrix((z, z)) == [[0, 0], [0, 0]]
    rng = random.Random(79)
    tup = tuple(rand_oct(GF(5), rng) for _ in range(4))
    m = ob.gram_matrix(tup)
    for i in range(4):
        for j in range(4):
            assert m[i][j] == m[j][i]


def test_oracle_examples(g2f2_array):
    f2 = GF(2)
    e1, e2 = oc.unit_e(f2, 1), oc.unit_e(f2, 2)
    found, witness = ob.orbit_equal_oracle((e1,), (e2,))
    assert found and witness(e1) == e2
    assert gp.hbar(f2)(e1) == e2  # the closed form witness
    found2, w2 = ob.orbit_equal_oracle((e1,), (oc.identity(f2),))
    assert not found2 and w2 is None
    with pytest.raises(ValueError):
        ob.orbit_equal_oracle((oc.unit_e(QQ, 1),), (oc.unit_e(QQ, 2),))


def test_oracle_consistent_with_separation(g2f2_array):
    mats, _words = g2f2_array
    field = GF(2)
    rng = random.Random(83)
    for _ in range(25):
        tup = tuple(rand_oct(field, rng) for _ in range(2))
        g = gf2_element(rng.choice(mats))
        gtup = gp.apply_tuple(g, tup)
        found, _ = ob.orbit_equal_oracle(tup, gtup)
        assert found
        assert not ob.separate(tup, gtup, "S", 8).separated


def test_oracle_memory_does_not_grow_with_tuple_length(g2f2_array):
    # one image of the group per member would take about 0.8 MB each
    field = GF(2)
    rng = random.Random(97)
    tup = tuple(rand_oct(field, rng) for _ in range(400))
    g = gp.GroupElement(field, [[field(int(x)) for x in row]
                                for row in g2f2_array[0][5000]])
    gtup = gp.apply_tuple(g, tup)
    tracemalloc.start()
    try:
        found, witness = ob.orbit_equal_oracle(tup, gtup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found and gp.apply_tuple(witness, tup) == gtup
    assert peak < 8 * 10 ** 6


def test_low_dimensional_bases_close_and_differ(g2f2_array):
    by_dim = {}
    for basis_tup in ob.low_dimensional_bases(GF(2)).values():
        by_dim.setdefault(len(basis_tup), []).append(basis_tup)
    for dim, bases in by_dim.items():
        for basis_tup in bases:
            assert len(ob.algebra_closure(basis_tup)) == dim
        # pairwise inequivalent over GF(2), as basis tuples
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                found, _ = ob.orbit_equal_oracle(bases[i], bases[j])
                assert not found


def test_closed_d2_class_has_no_rank_dropping_limit():
    e1, e2 = oc.unit_e(QQ, 1), oc.unit_e(QQ, 2)
    for lam in ((1, -1, 0), (-1, 1, 0), (0, 1, -1), (2, -1, -1)):
        assert ob.limit(lam, (e1, e2)) == (e1, e2)


def test_xor_image_codes_match_the_matrix_products(g2f2_array):
    # every element on every vector of GF(2)^8: the XOR of the packed
    # columns at the set bits is the packed (mats @ v) % 2
    mats, _words = g2f2_array
    cols = ob._column_codes()
    assert cols.shape == (12096, 8) and cols.dtype == np.uint8
    weights = 1 << np.arange(8)
    for code in range(256):
        v = np.array([code >> i & 1 for i in range(8)], dtype=np.int64)
        assert np.array_equal(ob._image_codes(cols, code),
                              ((mats @ v) % 2) @ weights)


def _matrix_product_oracle(mats, a_tup, b_tup):
    """The narrowing the packed oracle replaced: the elements whose
    matrix maps each member onto its partner, by integer products."""
    field = GF(2)
    for a, b in zip(a_tup, b_tup):
        acol = np.array([x.r for x in a.coords()], dtype=np.int64)
        bcol = np.array([x.r for x in b.coords()], dtype=np.int64)
        mats = mats[np.all((mats @ acol) % 2 == bcol, axis=1)]
        if not len(mats):
            return (False, None)
    rows = [[field(int(x)) for x in row] for row in mats[0]]
    return (True, gp.GroupElement(field, rows))


def test_oracle_matches_the_matrix_product_narrowing(g2f2_array):
    mats, _words = g2f2_array
    field = GF(2)
    rng = random.Random(101)
    founds = set()
    for k in range(40):
        n = rng.randint(1, 4)
        tup = tuple(rand_oct(field, rng) for _ in range(n))
        if k % 2:
            other = gp.apply_tuple(gf2_element(rng.choice(mats)), tup)
        else:
            other = tuple(rand_oct(field, rng) for _ in range(n))
        found, witness = ob.orbit_equal_oracle(tup, other)
        ref_found, ref_witness = _matrix_product_oracle(mats, tup, other)
        assert found == ref_found
        assert (witness is None if ref_witness is None
                else witness.rows == ref_witness.rows)
        founds.add(found)
    assert founds == {True, False}
