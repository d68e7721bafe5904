import random

import numpy as np
import pytest

from splitoct import group as gp
from splitoct import linalg
from splitoct import octonion as oc
from splitoct import suite
from splitoct.invariants import generic_octonion
from splitoct.scalars import GF, QQ, PolynomialRing

from helpers import gf2_element, rand_oct


def random_sl3(field, rng):
    """Random product of transvections, so the determinant is one."""
    ts = gp.sl3_transvections(field)
    m = [[field.one if i == j else field.zero for j in range(3)] for i in range(3)]
    for _ in range(rng.randint(2, 6)):
        m = linalg.matmul(m, rng.choice(ts))
    return m


def test_from_sl3_identity():
    ident = [[QQ(1), QQ(0), QQ(0)], [QQ(0), QQ(1), QQ(0)], [QQ(0), QQ(0), QQ(1)]]
    assert gp.from_sl3(QQ, ident) == gp.identity_element(QQ)


def test_from_sl3_rejects_nonunimodular():
    with pytest.raises(ValueError):
        gp.from_sl3(QQ, [[QQ(2), QQ(0), QQ(0)],
                         [QQ(0), QQ(1), QQ(0)], [QQ(0), QQ(0), QQ(1)]])


def test_from_sl3_fixes_diagonal_idempotents():
    rng = random.Random(4)
    field = GF(5)
    for _ in range(20):
        g = gp.from_sl3(field, random_sl3(field, rng))
        assert g(oc.unit_e(field, 1)) == oc.unit_e(field, 1)
        assert g(oc.unit_e(field, 2)) == oc.unit_e(field, 2)
        assert gp.is_automorphism(g)


def test_signed_permutation_realizes_remark_image():
    assert suite.check_signed_permutation_image()


def test_delta_generators():
    z = QQ.zero
    assert gp.delta1(QQ, (z, z, z)) == gp.identity_element(QQ)
    rng = random.Random(9)
    field = GF(5)
    for _ in range(20):
        uvec = tuple(field(rng.randrange(5)) for _ in range(3))
        assert gp.is_automorphism(gp.delta1(field, uvec))
        assert gp.is_automorphism(gp.delta2(field, uvec))
    d2 = gp.delta2(field, (field(1), field(2), field(3)))
    for b in oc.basis(field):
        assert d2(b).trace() == b.trace()


def test_delta_generators_symbolic_parameters():
    ring = PolynomialRing(QQ)
    params = (ring.var(9, 2), ring.var(9, 3), ring.var(9, 4))
    assert gp.is_automorphism(gp.delta1(ring, params))
    assert gp.is_automorphism(gp.delta2(ring, params))


def test_delta1_char2_shift_image():
    assert suite.check_shift_image_char2()


def test_hbar():
    h = gp.hbar(QQ)
    assert h(oc.unit_e(QQ, 1)) == oc.unit_e(QQ, 2)
    assert h(oc.unit_u(QQ, 1)) == -oc.unit_v(QQ, 1)
    assert h.compose(h) == gp.identity_element(QQ)
    assert gp.is_automorphism(h)


def test_theta():
    field = GF(5)
    for t in (field(1), field(2), field(3)):
        assert gp.theta(field, (0, 0, 0), t) == gp.identity_element(field)
    t = field(2)
    th = gp.theta(field, (1, -1, 0), t)
    assert th(oc.unit_u(field, 1)) == oc.unit_u(field, 1).scale(t)
    assert th(oc.unit_v(field, 1)) == oc.unit_v(field, 1).scale(t ** -1)
    assert gp.is_automorphism(th)
    with pytest.raises(ValueError):
        gp.theta(field, (1, -1, 0), field.zero)
    ring = PolynomialRing(QQ)
    assert gp.is_automorphism(gp.theta(ring, (2, -1, -1), ring(QQ(3))))
    for lam in ((1, 1, 0), (1, -1), (1, -1, 0, 0), (2, -1, -1, 0, 0),
                (1, -1, 0.0), (True, False, -1)):
        with pytest.raises(ValueError):
            gp.theta(field, lam, t)
        with pytest.raises(ValueError):
            gp.weights(lam)


def test_one_coordinate_order():
    # basis vectors, matrix columns and torus weights share the z-order
    # (alpha, u1, u2, u3, v1, v2, v3, beta) of coords()
    assert gp.weights((2, -3, 1)) == (0, 2, -3, 1, -2, 3, -1, 0)
    for field in (GF(2), GF(5), QQ):
        basis = oc.basis(field)
        for k, b in enumerate(basis):
            assert b.coords() == tuple(field.one if j == k else field.zero
                                       for j in range(8))
        sl3 = [[field(x) for x in row]
               for row in ((1, 2, 0), (0, 1, 0), (3, 0, 1))]
        gens = [gp.from_sl3(field, sl3), gp.hbar(field),
                gp.delta1(field, (field(1), field(0), field(1))),
                gp.delta2(field, (field(0), field(1), field(1)))]
        if field is GF(2):
            gens += gp._generator_elements(field)
        else:
            gens += [gp.theta(field, (2, -3, 1), field(3))]
        for g in gens:
            for k, b in enumerate(basis):
                assert tuple(row[k] for row in g.rows) == g(b).coords()
    for field in (GF(5), QQ):
        t = field(2)
        for lam in ((1, -1, 0), (2, -3, 1), (0, 0, 0)):
            th = gp.theta(field, lam, t)
            w = gp.weights(lam)
            for k, b in enumerate(oc.basis(field)):
                assert th(b) == b.scale(t ** w[k])


def test_apply_basics():
    field = GF(5)
    rng = random.Random(14)
    a = rand_oct(field, rng)
    assert gp.identity_element(field)(a) == a
    with pytest.raises(ValueError):
        gp.identity_element(field)(oc.identity(QQ))
    with pytest.raises(TypeError):
        gp.identity_element(field)(5)


def test_action_preserves_trace_norm_conj():
    field = GF(5)
    rng = random.Random(15)
    gens = ([gp.from_sl3(field, random_sl3(field, rng)) for _ in range(4)]
            + [gp.hbar(field),
               gp.delta1(field, (field(1), field(0), field(3))),
               gp.delta2(field, (field(0), field(2), field(1))),
               gp.theta(field, (1, -1, 0), field(2))])
    for _ in range(500):
        g = rng.choice(gens).compose(rng.choice(gens))
        a = rand_oct(field, rng)
        ga = g(a)
        assert ga.trace() == a.trace()
        assert ga.norm() == a.norm()
        assert g(a.conj()) == ga.conj()


def test_action_is_multiplicative():
    field = GF(5)
    rng = random.Random(16)
    for _ in range(100):
        g = gp.from_sl3(field, random_sl3(field, rng))
        a, b = rand_oct(field, rng), rand_oct(field, rng)
        assert g(a * b) == g(a) * g(b)


def test_generator_inverses():
    field = GF(5)
    rng = random.Random(17)
    ident = gp.identity_element(field)
    gens = [gp.from_sl3(field, random_sl3(field, rng)), gp.hbar(field),
            gp.delta1(field, (field(2), field(1), field(0))),
            gp.theta(field, (2, -1, -1), field(3))]
    for g in gens:
        assert g.compose(g.inverse()) == ident
        assert g.inverse().compose(g) == ident
    # a zero column leaves column 3 without a pivot
    singular = [list(row) for row in ident.rows]
    singular[3][3] = field.zero
    with pytest.raises(ValueError):
        gp.GroupElement(field, singular).inverse()


def test_compose_and_inverse_refusals():
    with pytest.raises(ValueError):
        gp.identity_element(QQ).compose(gp.identity_element(GF(5)))
    with pytest.raises(ValueError):
        gp.identity_element(PolynomialRing(QQ)).inverse()


def test_coordinate_action_formula():
    assert suite.check_coordinate_action()


def test_coordinate_action_refuses_mismatched_rings():
    # the element's ring must be the polynomial's base field: a QQ element
    # is not reduced mod 5, and a GF(5) element is not lifted to QQ
    for field, base in ((QQ, GF(5)), (GF(5), QQ)):
        g = gp.delta1(field, (field(1), field(0), field(2)))
        f = generic_octonion(PolynomialRing(base), 1).norm()
        with pytest.raises(ValueError):
            gp.coordinate_action(g, f)


def test_matrix_shapes_are_checked():
    o, z = QQ.one, QQ.zero
    for g in ([[o, z, z, QQ(5)], [z, o, z], [z, z, o]],
              [[o, z], [z, o]],
              [[o, z, z], [z, o, z]],
              [[o, z, z], [z, o, z], [z, z, o], [z, z, o]]):
        with pytest.raises(ValueError):
            gp.from_sl3(QQ, g)
    ident = gp.identity_element(QQ).rows
    for rows in ([r[:7] for r in ident], ident[:7], ident + ident[:1],
                 [r + (z,) for r in ident]):
        with pytest.raises(ValueError):
            gp.GroupElement(QQ, rows)
    for vec in ((o, z, z, o), (o, z), ()):
        for shift in (gp.delta1, gp.delta2):
            with pytest.raises(ValueError):
                shift(QQ, vec)


def test_coordinate_action_fixes_invariants():
    g = gp.delta1(QQ, (QQ(1), QQ(0), QQ(2)))
    ring = PolynomialRing(QQ)
    z1 = generic_octonion(ring, 1)
    for f in (z1.trace(), z1.norm()):
        assert gp.coordinate_action(g, f) == f


def test_coordinate_action_of_a_constant_is_a_polynomial():
    for field in (GF(5), QQ):
        ring = PolynomialRing(field)
        for g in (gp.hbar(field), gp.delta1(field, (field(1), field(0), field(2)))):
            for f in (ring(3), ring.zero, ring.one):
                h = gp.coordinate_action(g, f)
                assert type(h) is type(f) and h.ring is ring
                assert h == f and h.terms == f.terms


def test_all_gf2_generator_parameters_exhaustively():
    field = GF(2)
    gens = gp._generator_elements(field)
    assert len(gens) == 12
    for g in gens:
        assert gp.is_automorphism(g)
        for b in oc.basis(field):
            assert g(b).trace() == b.trace()
            assert g(b).norm() == b.norm()


def test_structure_constants_are_the_basis_products():
    # the integer Zorn table against the products of the QQ basis
    b = oc.basis(QQ)
    want = [[[int(x) for x in (b[i] * b[j]).coords()] for j in range(8)]
            for i in range(8)]
    got = gp.structure_constants()
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_enumeration_order_and_checks(g2f2_array):
    mats, words = g2f2_array
    assert mats.shape == (12096, 8, 8)
    assert gp.group_order_formula(2) == 12096
    assert gp.automorphism_mask(mats, 2).all()
    assert words[0] == ()
    assert all(len(w) >= 1 for w in words[1:])


def test_enumeration_deterministic(g2f2_array):
    mats, _ = g2f2_array
    gp.enumerate_group_array.cache_clear()
    mats2, _ = gp.enumerate_group_array(2)
    assert np.array_equal(mats, mats2)


def test_enumeration_inverse_closed_sample(g2f2_array):
    mats, _ = g2f2_array
    field = GF(2)
    keys = {m.tobytes() for m in mats}
    rng = random.Random(18)
    for idx in rng.sample(range(len(mats)), 300):
        inv = linalg.inverse([[field(int(x)) for x in row] for row in mats[idx]],
                             field)
        assert inv is not None
        assert np.array([[x.r for x in row] for row in inv],
                        dtype=np.int64).tobytes() in keys


def test_enumerated_elements_are_exact(g2f2_array):
    mats, _words = g2f2_array
    field = GF(2)
    rng = random.Random(19)
    for idx in rng.sample(range(len(mats)), 30):
        g = gf2_element(mats[idx])
        assert gp.is_automorphism(g)
        a = rand_oct(field, rng)
        assert g(a).trace() == a.trace()


def test_enumeration_refuses_large_q():
    for q in (3, 5):
        with pytest.raises(ValueError):
            gp.enumerate_group_array(q)
    assert gp.enumerate_group_array.cache_info().currsize <= 1
