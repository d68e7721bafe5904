import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitoct import octonion as oc
from splitoct import scalars
from splitoct import words as wd
from splitoct.scalars import GF, QQ

from helpers import labeled_words, rand_oct


def rand_oct_q(rng):
    return oc.from_coords(QQ, [rng.randint(-5, 5) for _ in range(8)])


def test_left_normed_shapes():
    assert wd.left_normed((1,)) == 1
    assert wd.left_normed((1, 2)) == (1, 2)
    assert wd.left_normed((1, 2, 3, 4)) == (((1, 2), 3), 4)
    with pytest.raises(ValueError):
        wd.left_normed(())


def test_degree_and_multidegree():
    w = ((1, 2), (1, 3))
    assert wd.degree(w) == 4
    assert wd.leaves(w) == (1, 2, 1, 3)
    assert (wd.degree(3), wd.leaves(3)) == (1, (3,))


def test_degree_and_leaves_refuse_malformed_words():
    # the same walk that normalize_trace runs, naming the offending node
    for bad, node in (((1, 2, 3), (1, 2, 3)), ((1, (2,)), (2,)),
                      ((1, 2.0), 2.0), ([1, 2], [1, 2]), ((1, True), True)):
        for f in (wd.degree, wd.leaves):
            with pytest.raises(ValueError, match=re.escape(repr(node))):
                f(bad)
    for bad in (0, (1, -1)):
        for f in (wd.degree, wd.leaves):
            with pytest.raises(ValueError):
                f(bad)


def test_evaluate_leaf_and_errors():
    e1 = oc.unit_e(QQ, 1)
    assert wd.evaluate(1, (e1,)) == e1
    with pytest.raises(IndexError):
        wd.evaluate(2, (e1,))


def test_evaluate_refuses_what_normalize_trace_refuses():
    # a malformed word raises the ValueError of leaves, naming the node,
    # before any product; a letter above the tuple length stays IndexError
    tup = (oc.unit_e(QQ, 1), oc.unit_v(QQ, 1), oc.unit_u(QQ, 2))
    for bad, node in (((1, 2, 3), (1, 2, 3)), ([1, 2], [1, 2]), ((True, 2), True),
                      ((1.0, 2), 1.0), ((0, 2), (0, 2))):
        for f in (lambda w: wd.evaluate(w, tup), lambda w: wd.evaluate(w, tup, {}),
                  wd.normalize_trace):
            with pytest.raises(ValueError, match=re.escape(repr(node))):
                f(bad)
    with pytest.raises(IndexError):
        wd.evaluate((1, 4), tup)


def test_evaluate_generating_witness():
    v1, v2, v3 = (oc.unit_v(QQ, i) for i in (1, 2, 3))
    d = oc.unit_e(QQ, 1) - oc.unit_e(QQ, 2)
    w = wd.left_normed((1, 2, 3, 4))
    assert wd.evaluate(w, (v1, v2, v3, d)).trace() == -1


def test_normalize_already_canonical():
    assert wd.normalize_trace((1, 2)) == wd.te_tr((1, 2))


def test_normalize_reversed_pair_collects_to_canonical():
    # the degree-2 rearrangement corrections cancel exactly
    assert wd.normalize_trace((2, 1)) == wd.te_tr((1, 2))


def test_normalize_square_word():
    got = wd.normalize_trace(((1, 1), 2))
    expect = wd.te_tr((1,)) * wd.te_tr((1, 2)) - wd.te_norm(1) * wd.te_tr((2,))
    assert got == expect


def test_normalize_right_comb_equals_trace_associativity():
    assert wd.normalize_trace((1, (2, 3))) == wd.te_tr((1, 2, 3))


def test_char2_reduction():
    t = wd.normalize_trace(((1, 1), 1))
    # tr(Z^3) over any ring; mod 2 the doubled terms drop
    t2 = wd.normalize_trace(((1, 1), 1), char=2)
    assert t2 == t.reduce_mod(2)


def test_multilinear_sign_examples():
    assert wd.multilinear_sign(((3, 1), 2)) == (1, (1, 2, 3))
    assert wd.multilinear_sign(wd.left_normed((1, 2))) == (1, (1, 2))
    assert wd.multilinear_sign((2, 1)) == (-1, (1, 2))
    assert wd.multilinear_sign(((1, 1), 2)) is None
    with pytest.raises(ValueError):
        wd.multilinear_sign((1, 1))


def test_multilinear_sign_refuses_malformed_words():
    # degree <= 2 never reaches normalize_trace, which checks the word
    for bad in ((1, 2, 3), (0, 1), (1, 2.0), 0):
        with pytest.raises(ValueError):
            wd.multilinear_sign(bad)


def test_multilinear_sign_matches_leading_term():
    # degree >= 3: the reported sign is the collected leading coefficient
    for w in labeled_words(4, 4):
        ls = wd.leaves(w)
        if len(set(ls)) != len(ls) or len(ls) < 3:
            continue
        sign, srt = wd.multilinear_sign(w)
        assert wd.normalize_trace(w).terms.get((("tr", srt),)) == sign


def test_part3_sign_is_permutation_parity():
    # left-normed multilinear words: leading coefficient equals the parity
    from itertools import permutations
    for k in (3, 4):
        for perm in permutations(range(1, k + 1)):
            w = wd.left_normed(perm)
            inv_count = sum(1 for i in range(k) for j in range(i + 1, k)
                            if perm[i] > perm[j])
            sign, srt = wd.multilinear_sign(w)
            assert srt == tuple(range(1, k + 1))
            assert sign == (-1) ** inv_count


def test_adjacent_swap_flips_leading_sign():
    # degree >= 3 skew symmetry at top degree, structurally
    rng = random.Random(2)
    for _ in range(30):
        k = rng.randint(3, 5)
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        m = rng.randrange(k - 1)
        if perm[m] == perm[m + 1]:
            continue
        w1 = wd.left_normed(perm)
        perm[m], perm[m + 1] = perm[m + 1], perm[m]
        w2 = wd.left_normed(perm)
        s1, srt = wd.multilinear_sign(w1)
        s2, _ = wd.multilinear_sign(w2)
        assert s1 == -s2
        key = (("tr", srt),)
        assert wd.normalize_trace(w1).terms[key] == \
            -wd.normalize_trace(w2).terms[key]


def test_master_property_sample():
    """Evaluation soundness on every shape up to degree 4 over n <= 3."""
    rng = random.Random(99)
    f5 = GF(5)
    f2 = GF(2)
    tuples = {
        "f5": [tuple(rand_oct(f5, rng) for _ in range(3)) for _ in range(8)],
        "f2": [tuple(rand_oct(f2, rng) for _ in range(3)) for _ in range(8)],
        "q": [tuple(rand_oct_q(rng) for _ in range(3)) for _ in range(4)],
    }
    for w in labeled_words(4, 3):
        expr = wd.normalize_trace(w)
        for tups in tuples.values():
            for tup in tups:
                assert wd.evaluate(w, tup).trace() == expr.evaluate(tup)


def test_termination_and_soundness_degree_8():
    rng = random.Random(123)
    f2 = GF(2)
    tups = [tuple(rand_oct(f2, rng) for _ in range(4)) for _ in range(3)]
    for _ in range(12):
        d = 8
        shape = rng.choice(wd.all_shapes(d))
        labels = [rng.randint(1, 4) for _ in range(d)]
        it = iter(labels)

        def fill(s):
            if s is None:
                return next(it)
            return (fill(s[0]), fill(s[1]))

        w = fill(shape)
        expr = wd.normalize_trace(w)
        for tup in tups:
            assert wd.evaluate(w, tup).trace() == expr.evaluate(tup)


def test_trace_expr_arithmetic():
    a = wd.te_tr((1,))
    b = wd.te_norm(2)
    assert (a + b) - b == a
    assert (a * b).terms == {(("n", (2,)), ("tr", (1,))): 1}
    assert (a - a).is_zero()


def test_trace_expr_factors_are_plain_descriptor_pairs():
    # .terms decodes the factor ids into plain pairs, each equal to its Descriptor
    for w in labeled_words(4, 3):
        for m in wd.normalize_trace(w).terms:
            assert all(type(f) is tuple for f in m), (w, m)
    d = wd.Descriptor("tr", (1, 2))
    assert d == ("tr", (1, 2)) and hash(d) == hash(("tr", (1, 2)))
    assert wd.te_tr((1, 2)).terms == {(d,): 1}
    assert wd.te_norm(3).terms == {(wd.Descriptor("n", (3,)),): 1}
    with pytest.raises(ValueError):
        wd.te_tr((2, 1))


def test_trace_expr_equals_scalar():
    assert wd.TraceExpr() == 0
    assert wd.te_const(2) == 2
    assert wd.te_const(Fraction(1, 2)) == Fraction(1, 2)
    assert wd.te_tr((1,)) != 1
    assert wd.normalize_trace(1) != 0


def test_trace_expr_scalar_on_the_left():
    t = wd.te_tr((1,))
    assert 1 - t == wd.te_const(1) - t == -(t - 1)
    assert Fraction(1, 2) - t == -(t - Fraction(1, 2))
    assert 1 + t == t + 1 and 2 * t == t * 2
    with pytest.raises(TypeError):
        1.5 - t
    with pytest.raises(TypeError):
        "x" - t


@pytest.mark.parametrize("op", [
    lambda t: t + 1.5, lambda t: 1.5 + t, lambda t: t - 1.5,
    lambda t: t * 1.5, lambda t: 1.5 * t,
], ids=["add", "radd", "sub", "mul", "rmul"])
def test_trace_expr_refuses_a_float_operand(op):
    with pytest.raises(TypeError):
        op(wd.te_tr((1,)))


def test_trace_expr_constant_prints_as_its_coefficient():
    t = wd.te_tr((1,))
    assert repr(wd.te_const(2)) == "2"
    assert repr(wd.te_const(1)) == "1"
    assert repr(t - 1) == "-1 + tr(1)"
    assert repr(Fraction(1, 2) * wd.te_norm(1) + 3) == "3 + 1/2*n(1)"


def test_trace_expr_coefficients_follow_the_polynomial_rule():
    # a bool is the int it equals and an integral Fraction is an int, as
    # PolynomialRing(QQ).coefficient stores them
    t = wd.te_tr((1,))
    assert t + True == t + 1
    assert repr(t + True) == "1 + tr(1)"
    assert repr(wd.te_const(True)) == "1"
    c = wd.te_const(Fraction(4, 2))
    assert c.terms == {(): 2} and type(c.terms[()]) is int


_TE_SCALARS = st.one_of(st.integers(-5, 5),
                        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
_TE_ATOMS = st.one_of(
    _TE_SCALARS.map(wd.te_const),
    st.integers(1, 3).map(wd.te_norm),
    st.sets(st.integers(1, 4), min_size=1, max_size=3).map(
        lambda ix: wd.te_tr(sorted(ix))))
_TRACE_EXPRS = st.recursive(_TE_ATOMS, lambda inner: st.one_of(
    st.tuples(inner, inner).map(lambda ab: ab[0] + ab[1]),
    st.tuples(inner, inner).map(lambda ab: ab[0] * ab[1]),
    st.tuples(_TE_SCALARS, inner).map(lambda sa: sa[0] * sa[1])), max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(_TRACE_EXPRS, _TRACE_EXPRS, _TRACE_EXPRS, _TE_SCALARS)
def test_trace_expr_ring_laws(a, b, c, s):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and (a * 0).is_zero()
    assert (a - a).is_zero() and (a - b) + b == a
    k = wd.te_const(s)
    assert s + a == a + s == k + a
    assert s - a == k - a == -(a - s)
    assert s * a == a * s == k * a


def test_trace_expr_evaluate_caches_only_factor_values():
    rng = random.Random(12)
    tup = tuple(rand_oct_q(rng) for _ in range(3))
    w = ((1, 2), (3, (1, 2)))
    expr = wd.normalize_trace(w)
    cache = {}
    val = expr.evaluate(tup, cache)
    assert val == wd.evaluate(w, tup).trace()
    factors = {f for m in expr.terms for f in m}
    assert set(cache) == factors
    assert all(cache[f] == wd.eval_descriptor(wd.Descriptor(*f), tup)
               for f in factors)
    assert expr.evaluate(tup, cache) == val


def test_reduce_mod_needs_a_prime():
    with pytest.raises(ValueError):
        wd.normalize_trace(((1, 2), (1, 3)), char=4)
    with pytest.raises(ValueError):
        wd.normalize_trace(((1, 2), (1, 3)), char=-3)
    half = wd.te_const(Fraction(1, 2))
    with pytest.raises(ValueError):
        half.reduce_mod(9)
    with pytest.raises(ZeroDivisionError):
        half.reduce_mod(2)
    assert half.reduce_mod(5) == 3


@pytest.mark.parametrize("char", [None, [], 0.0, 2.0, "3", True, -2])
def test_normalize_trace_needs_an_int_char(char):
    # None, [] and 0.0 used to normalize over Z, as if char were 0
    with pytest.raises(ValueError, match=re.escape(repr(char))):
        wd.normalize_trace(((1, 2), (1, 3)), char=char)


def test_reduce_mod_result_is_over_z():
    r = wd.normalize_trace(((1, 2), (1, 2)), char=2)
    assert repr(r) == "tr(1,2)*tr(1,2)"
    assert repr(r + r) == "2*tr(1,2)*tr(1,2)"
    assert (r + r).reduce_mod(2).is_zero()


def test_evaluate_needs_one_ring():
    rng = random.Random(3)
    expr = wd.normalize_trace(((1, 2), 1))
    a, b = rand_oct_q(rng), rand_oct(GF(5), rng)
    for tup in ((), (a, b), (b, a)):
        with pytest.raises(ValueError):
            expr.evaluate(tup)


def test_letters_are_numbered_from_one():
    with pytest.raises(ValueError):
        wd.normalize_trace((0, 0))
    with pytest.raises(ValueError):
        wd.normalize_trace(((1, 2), -1))
    tup = (oc.unit_e(QQ, 1), oc.unit_e(QQ, 2))
    with pytest.raises(IndexError):
        wd.te_norm(0).evaluate(tup)
    with pytest.raises(IndexError):
        wd.te_norm(3).evaluate(tup)
    assert wd.te_norm(2).evaluate(tup) == tup[1].norm()
    for bad, node in (((1, 2, 3), (1, 2, 3)), ((1, (2,)), (2,)), ((1, 2.0), 2.0)):
        with pytest.raises(ValueError, match=re.escape(repr(node))):
            wd.normalize_trace(bad)


def test_trace_mul_matches_product_trace():
    """tr(L R) by the traced exchange identity against the trace of the
    evaluated product, for every pair of index tuples over three letters
    with len(L) + len(R) <= 5."""
    rng = random.Random(7)
    tups = (tuple(rand_oct(GF(5), rng) for _ in range(3)),
            tuple(rand_oct_q(rng) for _ in range(3)))
    pairs = [(L, R) for n in range(2, 6) for k in range(1, n)
             for L in product((1, 2, 3), repeat=k)
             for R in product((1, 2, 3), repeat=n - k)]
    assert len(pairs) == 1278
    for tup in tups:
        cache = {}
        for L, R in pairs:
            lhs = wd.TraceExpr(wd._trace_mul(L, R)).evaluate(tup, cache)
            prod = wd.evaluate(wd.left_normed(L), tup) \
                * wd.evaluate(wd.left_normed(R), tup)
            assert lhs == prod.trace(), (L, R)


def test_normalize_trace_frozen_digest():
    """Every word of degree <= 5 in three letters at char 0, 2 and 3
    normalizes to exactly the output recorded when the engine expanded
    every product (same terms, same repr)."""
    h = hashlib.sha256()
    for w in labeled_words(5, 3):
        for char in (0, 2, 3):
            h.update((repr(wd.normalize_trace(w, char)) + "\n").encode())
    assert h.hexdigest() == \
        "b1f17847c52c956e2187540672452dda1b9495b2a16bfeac854b4da374db5ca5"


@pytest.fixture
def fresh_atom_table():
    """An empty atom table, the one of scalars that codes both factors
    and variables, emptied in place and restored on exit.  The memos and
    decode hold codes of the table in use, so they are cleared on entry
    and on exit."""
    memos = (wd.canonical_trace, wd._trace_mul, wd._mul_left_normed, scalars.decode)
    codes, primes, atoms = scalars.ATOM_CODES, scalars._PRIMES, scalars._ATOMS
    saved = (dict(codes), primes[:], atoms[:])
    for memo in memos:
        memo.cache_clear()
    codes.clear()
    primes[:] = atoms[:] = []
    yield
    for memo in memos:
        memo.cache_clear()
    codes.clear()
    codes.update(saved[0])
    primes[:], atoms[:] = saved[1:]


def test_factor_codes_in_reverse_order_keep_the_frozen_digest(fresh_atom_table):
    pairs = [("tr", ix) for k in (1, 2, 3) for ix in combinations((1, 2, 3), k)]
    pairs += [("n", (i,)) for i in (1, 2, 3)]
    for pair in sorted(pairs, reverse=True):
        wd._factor_code(*pair)
    # inside, tr(2) now has a smaller prime than tr(1); the decoded view
    # still sorts by pairs
    t1, t2 = (scalars.ATOM_CODES[("tr", (i,))] for i in (1, 2))
    assert t2 < t1
    expr = wd.te_tr((1,)) * wd.te_tr((2,))
    assert list(expr._terms) == [t1 * t2]
    assert expr.terms == {(("tr", (1,)), ("tr", (2,))): 1}
    test_normalize_trace_frozen_digest()
    assert len(scalars._ATOMS) == len(pairs)


def test_memo_entries_are_never_mutated(monkeypatch):
    """Every value that the memos canonical_trace, _trace_mul and
    _mul_left_normed and the expansion _to_left_normed return is a plain
    dict, never a TraceExpr, and keeps the coded terms it had when first
    returned, through all words of degree <= 5 in three letters and then
    degree-8 words built on those entries: sums go into owned dicts, and
    _mul_left_normed makes a new sum of each entry it changes."""
    names = ("canonical_trace", "_trace_mul", "_mul_left_normed", "_to_left_normed")
    seen = {}

    def coded(val):
        # a term dict maps monomials to numbers, a word combination maps
        # words to term dicts
        assert type(val) is dict
        return {k: dict(c) if type(c) is dict else c for k, c in val.items()}

    def recording(fn):
        def call(*args):
            val = fn(*args)
            if id(val) not in seen:
                seen[id(val)] = (val, coded(val))
            return val
        return call

    def assert_unchanged():
        for val, terms in seen.values():
            assert coded(val) == terms

    for name in names:
        fn = getattr(wd, name)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
        monkeypatch.setattr(wd, name, recording(fn))
    for w in labeled_words(5, 3):
        wd.normalize_trace(w)
    assert_unchanged()
    cached = len(seen)
    assert cached > 1000
    rng = random.Random(8)
    shapes = wd.all_shapes(8)
    for _ in range(12):
        labels = iter([rng.randint(1, 3) for _ in range(8)])

        def fill(s):
            return next(labels) if s is None else (fill(s[0]), fill(s[1]))

        wd.normalize_trace(fill(rng.choice(shapes)))
    assert len(seen) > cached
    assert_unchanged()


def test_factor_table_holds_one_canonical_pair_per_factor(fresh_atom_table):
    k = 3
    for w in labeled_words(5, k):
        wd.normalize_trace(w)
    atoms = scalars._ATOMS
    assert 0 < len(atoms) <= 2 ** k - 1 + k
    for f in atoms:
        assert type(f) is tuple and wd.Descriptor(*f) == f
    assert scalars.ATOM_CODES == dict(zip(atoms, scalars._PRIMES))


def test_factor_indices_must_be_ints(fresh_atom_table):
    # (1.0, 2) equals the interned (1, 2), and is refused all the same
    wd.te_tr((1, 2))
    for make in (lambda: wd.te_tr((1.0, 2)), lambda: wd.te_norm(True),
                 lambda: wd.te_tr((1, 2.5))):
        with pytest.raises(ValueError):
            make()
    assert scalars._ATOMS == [("tr", (1, 2))]
    assert repr(wd.te_tr((1, 2))) == "tr(1,2)"
