"""Bundled reference checks: the worked example values that pin down the
algebra's arithmetic, the generator actions, the separation witnesses,
the degeneration limits, and the matrix bridge.  Every check recomputes
its value from scratch and compares against the frozen expectation.
"""

import random
from itertools import permutations, product

from . import group as gp
from . import invariants as inv
from . import linalg
from . import octonion as oc
from . import orbits as ob
from . import symbolic as sy
from . import words as wd
from .scalars import GF, QQ, PolynomialRing

__all__ = ["run_all", "CHECKS"]


def _sample_field_element(field, rng):
    return field(rng.randrange(field.p))


def _random_octonion(field, rng):
    return oc.from_coords(field, [_sample_field_element(field, rng)
                                  for _ in range(8)])


def check_basis_products():
    u1, u2, u3 = (oc.unit_u(QQ, i) for i in (1, 2, 3))
    v1, v2, v3 = (oc.unit_v(QQ, i) for i in (1, 2, 3))
    return (u1 * v1 == oc.unit_e(QQ, 1)
            and u1 * u2 == v3
            and u1 * u3 == -v2)


def check_norm_u1_plus_v1():
    b = oc.unit_u(QQ, 1) + oc.unit_v(QQ, 1)
    return b.norm() == -1 and b.trace() == 0


def check_generating_witness_trace():
    v1, v2, v3 = (oc.unit_v(QQ, i) for i in (1, 2, 3))
    d = oc.unit_e(QQ, 1) - oc.unit_e(QQ, 2)
    if (((v1 * v2) * v3) * d).trace() != -1:
        return False
    return all((vi * d).trace() == 0 for vi in (v1, v2, v3))


def check_conj_antihomomorphism():
    rng = random.Random(101)
    field = GF(5)
    for _ in range(200):
        a = _random_octonion(field, rng)
        b = _random_octonion(field, rng)
        if (a * b).conj() != b.conj() * a.conj():
            return False
    return True


def check_hbar():
    h = gp.hbar(QQ)
    return (h(oc.unit_e(QQ, 1)) == oc.unit_e(QQ, 2)
            and h(oc.unit_u(QQ, 1)) == -oc.unit_v(QQ, 1)
            and h.compose(h) == gp.identity_element(QQ)
            and gp.is_automorphism(h))


def check_signed_permutation_image():
    # brute force over the 24 unimodular signed permutations for a map
    # sending (u1, v1, u2, v3) to (u1, v1, u3, -v2)
    u1, u2, u3 = (oc.unit_u(QQ, i) for i in (1, 2, 3))
    v1, v2, v3 = (oc.unit_v(QQ, i) for i in (1, 2, 3))
    target = (u1, v1, u3, -v2)
    src = (u1, v1, u2, v3)
    zero, one = QQ.zero, QQ.one
    for perm in permutations(range(3)):
        for s0 in (one, -one):
            for s1 in (one, -one):
                for s2 in (one, -one):
                    signs = (s0, s1, s2)
                    m = [[signs[r] if perm[r] == c else zero for c in range(3)]
                         for r in range(3)]
                    try:
                        g = gp.from_sl3(QQ, m)
                    except ValueError:  # determinant -1
                        continue
                    if gp.apply_tuple(g, src) == target:
                        return True
    return False


def check_shift_image_char2():
    # over GF(2) with b = 1 + u3 + v3 and shift vector (0,0,1); the third
    # image computes to v3 (the v flavored span, giving the same subalgebra)
    field = GF(2)
    one = field.one
    zero = field.zero
    g = gp.delta1(field, (zero, zero, one))
    b = oc.identity(field) + oc.unit_u(field, 3) + oc.unit_v(field, 3)
    got = gp.apply_tuple(g, (oc.unit_u(field, 1), oc.unit_v(field, 2), b))
    expect = (oc.unit_u(field, 1) + oc.unit_v(field, 2),
              oc.unit_v(field, 2), oc.unit_v(field, 3))
    return got == expect and gp.is_automorphism(g)


def check_theta_scaling():
    field = GF(5)
    t = field(3)
    th = gp.theta(field, (1, -1, 0), t)
    return (th(oc.unit_u(field, 1)) == oc.unit_u(field, 1).scale(t)
            and th(oc.unit_v(field, 1)) == oc.unit_v(field, 1).scale(t ** -1)
            and gp.is_automorphism(th))


def check_trace_norm_preserved():
    rng = random.Random(55)
    field = GF(5)
    gens = [gp.from_sl3(field, m) for m in gp.sl3_transvections(field)[:6]]
    gens.append(gp.hbar(field))
    gens.append(gp.delta1(field, (field(2), field.zero, field(1))))
    gens.append(gp.delta2(field, (field.zero, field(3), field(4))))
    for _ in range(500):
        g = rng.choice(gens).compose(rng.choice(gens))
        a = _random_octonion(field, rng)
        ga = g(a)
        if ga.trace() != a.trace() or ga.norm() != a.norm():
            return False
        if g(a.conj()) != ga.conj():
            return False
    return True


def check_coordinate_action():
    # substituting a generator into generic coordinates equals applying
    # its inverse to the generic octonion
    ring = PolynomialRing(QQ)
    z1 = inv.generic_octonion(ring, 1)
    gens = [
        gp.from_sl3(QQ, [[1, 2, 0], [0, 1, 0], [3, 0, 1]]),
        gp.delta1(QQ, (QQ(1), QQ(0), QQ(2))),
        gp.delta2(QQ, (QQ(0), QQ(3), QQ(1))),
        gp.hbar(QQ),
        gp.theta(QQ, (1, -1, 0), QQ(5)),
    ]
    for g in gens:
        acted = oc.from_coords(ring, [gp.coordinate_action(g, c)
                                      for c in z1.coords()])
        ginv = g.inverse()
        lifted = gp.GroupElement(ring, [[ring(x) for x in row]
                                        for row in ginv.rows])
        if acted != lifted(z1):
            return False
    return True


def check_minimal_separation_pairs():
    z = oc.zero(QQ)
    u1, u2 = oc.unit_u(QQ, 1), oc.unit_u(QQ, 2)
    v1, v2, v3 = (oc.unit_v(QQ, i) for i in (1, 2, 3))
    r1 = ob.separate((z, z), (u1, v1), "S0", 2)
    if not (r1.separated and r1.witness.name() == "tr(1,2)"
            and r1.values == (0, 1)):
        return False
    if ob.separate((z, z, z), (v1, v2, v3), "S0", 2).separated:
        return False
    r2 = ob.separate((z, z, z), (v1, v2, v3), "S0", 3)
    if not (r2.separated and r2.witness.name() == "tr(1,2,3)"):
        return False
    c = oc.unit_e(QQ, 1) + u2 - v2 - oc.unit_e(QQ, 2)
    a4 = (u1, v1, c, u2)
    b4 = (u1, v1, c, -v2)
    if ob.separate(a4, b4, "S0", 3).separated:
        return False
    r3 = ob.separate(a4, b4, "S0", 4)
    return (r3.separated and r3.witness.name() == "tr(1,2,3,4)"
            and r3.values == (0, -1))


def check_degree4_pair_trace_values():
    u1, u2 = oc.unit_u(QQ, 1), oc.unit_u(QQ, 2)
    v1, v2 = oc.unit_v(QQ, 1), oc.unit_v(QQ, 2)
    c = oc.unit_e(QQ, 1) + u2 - v2 - oc.unit_e(QQ, 2)
    w = wd.left_normed((1, 2, 3, 4))
    return (wd.evaluate(w, (u1, v1, c, u2)).trace() == 0
            and wd.evaluate(w, (u1, v1, c, -v2)).trace() == -1)


def check_limit_table():
    # the nine rank-dropping limits: the limit tuple and the rank after
    zero, one = oc.zero(QQ), oc.identity(QQ)
    e1, e2 = oc.unit_e(QQ, 1), oc.unit_e(QQ, 2)
    expected = {"(u1)": ((zero,), 0),
                "(1,u1)": ((one, zero), 1),
                "(u1,v2)": ((zero, zero), 0),
                "(e1,u1)": ((e1, zero), 1),
                "(e1,v1)": ((e1, zero), 1),
                "(1,u1,v2)": ((one, zero, zero), 1),
                "(e1,e2,u1)": ((e1, e2, zero), 2),
                "(e1,u1,v2)": ((e1, zero, zero), 1),
                "(u1,v2,v3)": ((zero, zero, oc.unit_v(QQ, 3)), 1)}
    rows = ob.nonclosedness_witnesses(QQ)
    if len(rows) != len(expected):
        return False
    for name, _tup, _lam, lim, before, after in rows:
        if (lim is None or after >= before
                or (lim, after) != expected[name]):
            return False
    return True


def check_limit_values():
    u1 = oc.unit_u(QQ, 1)
    one = oc.identity(QQ)
    return (ob.limit((1, -1, 0), (u1,)) == (oc.zero(QQ),)
            and ob.limit((1, -1, 0), (one, u1)) == (one, oc.zero(QQ))
            and ob.limit((1, -1, 0), (oc.unit_v(QQ, 1),)) is None)


def check_skew_specialization():
    # substituting the unit for the fourth argument keeps both paths equal
    ring = PolynomialRing(QQ)
    z = [inv.generic_octonion(ring, i) for i in range(1, 4)]
    one = oc.identity(ring)
    args = (z[0], z[1], z[2], one)
    return inv.q_prime(*args, path="sym") == inv.q_prime(*args, path="combination")


def check_qprime_paths_agree():
    u1, u2 = oc.unit_u(QQ, 1), oc.unit_u(QQ, 2)
    v1, v2 = oc.unit_v(QQ, 1), oc.unit_v(QQ, 2)
    args = (u1, v1, u2, v2)
    a = inv.q_prime(*args, path="sym")
    b = inv.q_prime(*args, path="combination")
    z1 = oc.unit_u(QQ, 1)
    return a == b and inv.q_prime(z1, z1, u2, v2) == 0


def check_matrix_bridge():
    ring = PolynomialRing(QQ)
    for n, k in ((3, 3), (2, 2), (3, 2)):
        zs = [inv.generic_octonion(ring, i) for i in range(1, n + 1)]
        ms = [inv.generic_matrix(ring, i) for i in range(1, n + 1)]
        prod_oct = wd.evaluate(wd.left_normed(tuple(range(1, k + 1))), zs)
        prod_mat = ms[0]
        for m in ms[1:k]:
            prod_mat = inv.mat2_mul(prod_mat, m)
        if inv.psi_hat(prod_oct) != inv.embed_matrix(ring, prod_mat):
            return False
        if inv.psi(prod_oct.trace()) != inv.mat2_trace(prod_mat):
            return False
    z1 = inv.generic_octonion(ring, 1)
    m1 = inv.generic_matrix(ring, 1)
    return inv.psi(z1.norm()) == inv.mat2_det(m1)


def check_matrix_generator_flags():
    # tr(1..k) of 2x2 matrices against products of the lower-degree
    # invariants: tr(1,2,3) is needed in every characteristic, tr(1,2,3,4)
    # only in characteristic 2
    for field in (QQ, GF(2), GF(3)):
        ring = PolynomialRing(field)
        for k, decomposable in ((3, False), (4, field.char != 2)):
            target = inv.matrix_descriptor_polynomial(
                inv.Descriptor("tr", range(1, k + 1)), ring)
            gens = [(d.name(), inv.matrix_descriptor_polynomial(d, ring))
                    for d in inv.enumerate_set("S", k, k - 1)]
            if sy.decomposability_check(target, gens)[0] != decomposable:
                return False
    return True


def check_embedding():
    rng = random.Random(7)
    field = GF(5)
    ident = ((field.one, field.zero), (field.zero, field.one))
    if inv.embed_matrix(field, ident) != oc.identity(field):
        return False
    for _ in range(200):
        a = ((_sample_field_element(field, rng), _sample_field_element(field, rng)),
             (_sample_field_element(field, rng), _sample_field_element(field, rng)))
        b = ((_sample_field_element(field, rng), _sample_field_element(field, rng)),
             (_sample_field_element(field, rng), _sample_field_element(field, rng)))
        if (inv.embed_matrix(field, inv.mat2_mul(a, b))
                != inv.embed_matrix(field, a) * inv.embed_matrix(field, b)):
            return False
        if inv.embed_matrix(field, a).trace() != inv.mat2_trace(a):
            return False
    return True


def check_algebra_closures():
    field = QQ
    e1, e2 = oc.unit_e(field, 1), oc.unit_e(field, 2)
    u1 = oc.unit_u(field, 1)
    cl = ob.algebra_closure((e1, e2 + u1))
    if len(cl) != 3:
        return False
    span = [list(a.coords()) for a in cl]
    for member in (e1, e2, u1):
        if linalg.rank(span + [list(member.coords())], field) != len(span):
            return False
    cl2 = ob.algebra_closure((u1, oc.unit_v(field, 2), oc.unit_v(field, 3)))
    return len(cl2) == 3


def check_group_order():
    mats, _ = gp.enumerate_group_array(2)
    return mats.shape[0] == gp.group_order_formula(2) == 12096


def check_oracle_witness():
    field = GF(2)
    e1, e2 = oc.unit_e(field, 1), oc.unit_e(field, 2)
    found, witness = ob.orbit_equal_oracle((e1,), (e2,))
    if not (found and witness(e1) == e2):
        return False
    if gp.hbar(field)(e1) != e2:
        return False
    found2, _ = ob.orbit_equal_oracle((e1,), (oc.identity(field),))
    return not found2


def check_closed_class_table():
    # of the twelve low-dimensional subalgebra bases over GF(2), those with
    # a rank-dropping diagonal limit are exactly the nine of the limit
    # table; a limit depends only on the sign pattern of lam, so
    # (a, b, -a-b) with a, b in -2..2 reaches every one
    field = GF(2)
    bases = ob.low_dimensional_bases(field)
    lams = [(a, b, -a - b) for a, b in product(range(-2, 3), repeat=2)]
    dropping = set()
    for name, tup in bases.items():
        before = ob.rank(tup)
        for lam in lams:
            lim = ob.limit(lam, tup)
            if lim is not None and ob.rank(lim) < before:
                dropping.add(name)
    table = {name for name, *_rest in ob.nonclosedness_witnesses(field)}
    return (dropping == table
            and set(bases) - dropping == {"(1)", "(e1)", "(e1,e2)"})


def check_eval_row_value():
    field = GF(5)
    b = oc.unit_u(field, 1) + oc.unit_v(field, 1)
    return inv.eval_descriptor(inv.Descriptor("n", (1,)), (b,)) == field(4)


def check_identity_suite():
    return all(ok for _name, ok in sy.identity_table())


def check_trace_sign_rules():
    return (wd.multilinear_sign(((3, 1), 2)) == (1, (1, 2, 3))
            and wd.multilinear_sign((2, 1)) == (-1, (1, 2))
            and wd.multilinear_sign(((1, 1), 2)) is None)


def check_basis_gram_nonsingular():
    for field in (GF(2), GF(5)):
        gram = ob.gram_matrix(oc.basis(field))
        if linalg.rank(gram, field) != 8:
            return False
    return True


CHECKS = [
    ("basis-products", check_basis_products),
    ("norm-of-u1-plus-v1", check_norm_u1_plus_v1),
    ("degree-4-generating-witness", check_generating_witness_trace),
    ("conjugation-antihomomorphism", check_conj_antihomomorphism),
    ("hbar-action", check_hbar),
    ("signed-permutation-image", check_signed_permutation_image),
    ("shift-automorphism-image", check_shift_image_char2),
    ("diagonal-scaling", check_theta_scaling),
    ("trace-norm-preservation", check_trace_norm_preserved),
    ("coordinate-action-formula", check_coordinate_action),
    ("minimal-separation-pairs", check_minimal_separation_pairs),
    ("degree-4-separation-values", check_degree4_pair_trace_values),
    ("limit-table", check_limit_table),
    ("limit-values", check_limit_values),
    ("skew-symmetrization-identity", sy.verify_skew_symmetrization),
    ("skew-symmetrization-unit-specialization", check_skew_specialization),
    ("skew-symmetrization-paths-agree", check_qprime_paths_agree),
    ("matrix-bridge", check_matrix_bridge),
    ("matrix-generator-flags", check_matrix_generator_flags),
    ("matrix-embedding", check_embedding),
    ("subalgebra-closures", check_algebra_closures),
    ("group-order", check_group_order),
    ("orbit-oracle-witness", check_oracle_witness),
    ("closed-class-table", check_closed_class_table),
    ("eval-row-value", check_eval_row_value),
    ("identity-suite", check_identity_suite),
    ("trace-sign-rules", check_trace_sign_rules),
    ("basis-gram-nonsingular", check_basis_gram_nonsingular),
]


def run_all():
    """Run every bundled check; returns a list of (name, passed)."""
    return [(name, bool(fn())) for name, fn in CHECKS]
