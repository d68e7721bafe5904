"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  All comparisons are exact; the only
tolerances are the stated runtime budgets.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

import numpy as np

from splitoct import group as gp
from splitoct import invariants as inv
from splitoct import octonion as oc
from splitoct import orbits as ob
from splitoct import suite
from splitoct import symbolic as sy
from splitoct import words as wd
from splitoct.scalars import GF, QQ, PolynomialRing

from helpers import gf2_element, labeled_words, rand_oct


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print("ACCEPTANCE %d: FAIL  %s" % (num, desc))
        raise
    print("ACCEPTANCE %d: PASS  %s" % (num, desc))


def test_criterion_1_identity_suite():
    with criterion(1, "identity suite exact over QQ, GF(2), GF(5)"):
        t0 = time.time()
        assert suite.check_identity_suite()
        assert time.time() - t0 < 10.0


def test_criterion_2_skew_symmetrization():
    with criterion(2, "skew symmetrization closed form, coefficients in Z[1/2]"):
        t0 = time.time()
        assert sy.verify_skew_symmetrization()
        assert time.time() - t0 < 60.0


def test_criterion_3_example_values():
    with criterion(3, "worked example values, exact in the stated field"):
        assert suite.check_basis_products()
        assert suite.check_norm_u1_plus_v1()
        assert suite.check_generating_witness_trace()
        assert suite.check_minimal_separation_pairs()
        assert suite.check_degree4_pair_trace_values()


def test_criterion_4_limit_table():
    with criterion(4, "all nine limits reproduce the printed tuples, rank drops"):
        assert suite.check_limit_table()


def test_criterion_5_group_enumeration(g2f2_array):
    with criterion(5, "GF(2) enumeration: 12096 automorphisms, inverse-closed"):
        t0 = time.time()
        mats, _words = g2f2_array
        assert suite.check_group_order()
        assert gp.automorphism_mask(mats, 2).all()
        # automorphisms preserve the form q, whose Gram matrix Q mod 2 is a
        # permutation matrix equal to its own inverse: g^-1 = Q g^T Q
        b = oc.basis(GF(2))
        gram = np.array([[oc.q_form(x, y).r for y in b] for x in b],
                        dtype=np.int64)
        invs = gram @ mats.transpose(0, 2, 1) @ gram % 2
        assert ((mats @ invs) % 2 == np.eye(8, dtype=np.int64)).all()
        keys = {m.tobytes() for m in mats}
        assert all(m.tobytes() in keys for m in invs)
        assert time.time() - t0 < 60.0


def test_criterion_6_invariance(g2f2_array):
    mats, _words = g2f2_array
    with criterion(6, "1000 random (g, tuple): every descriptor agrees"):
        field = GF(2)
        rng = random.Random(20240)
        for _ in range(1000):
            n = rng.randint(1, 3)
            g = gf2_element(rng.choice(mats))
            tup = tuple(rand_oct(field, rng) for _ in range(n))
            gtup = gp.apply_tuple(g, tup)
            for desc in inv.enumerate_set("S", n, 8):
                assert inv.eval_descriptor(desc, tup) == \
                    inv.eval_descriptor(desc, gtup)


class _ArrayRing:
    """Coordinates as parallel numpy vectors, one slot per sample tuple."""

    is_field = True

    def __init__(self, char, m, dtype):
        self.char = char
        self.m = m
        self.dtype = dtype

    @property
    def zero(self):
        return np.zeros(self.m, dtype=self.dtype)

    @property
    def one(self):
        return np.ones(self.m, dtype=self.dtype)

    def __call__(self, x):
        # an element of the ring (a vector) passes through unchanged
        if isinstance(x, np.ndarray):
            return x
        return np.full(self.m, int(x), dtype=self.dtype)


def test_criterion_7_normalizer_soundness():
    desc = "trace normalizer sound on all words deg<=5, n<=4, 100 tuples/field"
    with criterion(7, desc):
        t0 = time.time()
        words = labeled_words(5, 4)
        assert len(words) == 15764
        exprs = {w: wd.normalize_trace(w) for w in words}
        rng = random.Random(777)
        m = 100
        fields = [(2, np.int64, 0, 2), (5, np.int64, 0, 5), (0, object, -9, 10)]
        for p, dtype, lo, hi in fields:
            ring = _ArrayRing(p, m, dtype)
            tup = tuple(
                oc.from_coords(ring, [
                    np.array([rng.randrange(lo, hi) for _ in range(m)],
                             dtype=dtype)
                    for _ in range(8)])
                for _ in range(4))
            memo = {}
            cache = {desc: val % p if p else val
                     for desc, val in inv.evaluate_family("S", tup, 4)}
            for w in words:
                lhs = wd.evaluate(w, tup, memo).trace()
                rhs = exprs[w].evaluate(tup, cache)
                if p:
                    assert not ((lhs - rhs) % p).any(), w
                else:
                    assert not (lhs != rhs).any(), w
        assert time.time() - t0 < 300.0


def test_criterion_8_matrix_bridge():
    with criterion(8, "matrix bridge identities and generating set containment"):
        ring = PolynomialRing(QQ)
        n = 3
        zs = [inv.generic_octonion(ring, i) for i in range(1, n + 1)]
        ms = [inv.generic_matrix(ring, i) for i in range(1, n + 1)]
        for k in range(1, 5):
            for seq in product(range(1, n + 1), repeat=k):
                w = wd.left_normed(seq)
                oct_prod = wd.evaluate(w, zs)
                mat_prod = ms[seq[0] - 1]
                for i in seq[1:]:
                    mat_prod = inv.mat2_mul(mat_prod, ms[i - 1])
                assert inv.psi_hat(oct_prod) == inv.embed_matrix(ring, mat_prod)
                assert inv.psi(oct_prod.trace()) == inv.mat2_trace(mat_prod)
        for i in range(1, n + 1):
            assert inv.psi(zs[i - 1].norm()) == inv.mat2_det(ms[i - 1])
        # every matrix generator is hit by the image of an invariant
        for d in inv.enumerate_set("S", n, n):
            assert inv.psi(inv.descriptor_polynomial(d, ring)) == \
                inv.eval_matrix_descriptor(d, ms)


def test_criterion_9_indecomposability():
    with criterion(9, "top trace not expressible in lower degree products"):
        ring = PolynomialRing(QQ)
        target = inv.descriptor_polynomial(inv.Descriptor("tr", (1, 2, 3, 4)),
                                           ring)
        assert target.multidegree(4) == (1, 1, 1, 1)
        gens = [(d.name(), inv.descriptor_polynomial(d, ring))
                for d in inv.enumerate_set("S", 4, 3)]
        ok, cert = sy.decomposability_check(target, gens)
        assert not ok and cert is None


def test_criterion_10_oracle_separation_consistency(g2f2_array):
    mats, _words = g2f2_array
    with criterion(10, "same-orbit pairs never separated; reference pairs split"):
        field = GF(2)
        rng = random.Random(505)
        for _ in range(500):
            n = rng.randint(1, 3)
            g = gf2_element(rng.choice(mats))
            tup = tuple(rand_oct(field, rng) for _ in range(n))
            gtup = gp.apply_tuple(g, tup)
            assert not ob.separate(tup, gtup, "S", 8).separated
        # the three reference pairs, over GF(2) and with exact values over QQ
        for ring in (field, QQ):
            u1, u2 = oc.unit_u(ring, 1), oc.unit_u(ring, 2)
            v1, v2, v3 = (oc.unit_v(ring, i) for i in (1, 2, 3))
            z = oc.zero(ring)
            r1 = ob.separate((z, z), (u1, v1), "S0", 2)
            assert r1.separated and r1.witness.name() == "tr(1,2)"
            r2 = ob.separate((z, z, z), (v1, v2, v3), "S0", 3)
            assert r2.separated and r2.witness.name() == "tr(1,2,3)"
            c = oc.unit_e(ring, 1) + u2 - v2 - oc.unit_e(ring, 2)
            r3 = ob.separate((u1, v1, c, u2), (u1, v1, c, -v2), "S0", 4)
            assert r3.separated and r3.witness.name() == "tr(1,2,3,4)"
            if ring is QQ:
                assert r3.values == (0, -1)
            else:
                assert r3.values == (field(0), field(1))
