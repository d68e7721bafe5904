import pytest

from splitoct import invariants as inv
from splitoct import symbolic as sy
from splitoct.scalars import GF, QQ, PolynomialRing, coefficients_in_z_half


def test_identity_names_cover_eleven():
    assert len(sy.IDENTITY_NAMES) == 11


@pytest.mark.parametrize("name", sy.IDENTITY_NAMES)
def test_identities_over_rationals(name):
    assert sy.verify_identity(name, QQ)


@pytest.mark.parametrize("base", [GF(2), GF(5)])
def test_identities_reexpanded_mod_p(base):
    for name in sy.IDENTITY_NAMES:
        assert sy.verify_identity(name, base) is True, name


def test_identity_table_covers_every_identity_and_base():
    assert sy.IDENTITY_BASES == (QQ, GF(2), GF(5))
    assert sy.identity_table() == [(name, True) for name in sy.IDENTITY_NAMES]


def test_identity_table_row_fails_with_one_base(monkeypatch):
    real = sy.verify_identity
    monkeypatch.setattr(sy, "verify_identity", lambda name, base: (
        real(name, base) and not (name == "trace-symmetry" and base is GF(5))))
    rows = dict(sy.identity_table())
    assert rows.pop("trace-symmetry") is False
    assert all(rows.values())


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        sy.verify_identity("no-such-identity")


def test_skew_symmetrization_coefficients_in_z_half():
    ring = PolynomialRing(QQ)
    poly = inv.q_prime(*(inv.generic_octonion(ring, i) for i in range(1, 5)),
                       path="sym")
    assert coefficients_in_z_half(poly)
    assert not poly.is_zero()


def test_generic_octonions():
    ring = PolynomialRing(QQ)
    z = inv.generic_octonion(ring, 2)
    assert z.coords() == tuple(ring.var(2, j) for j in range(1, 9))


def _s4_lower_generators(ring):
    return [(d.name(), inv.descriptor_polynomial(d, ring))
            for d in inv.enumerate_set("S", 4, 3)]


def test_top_trace_not_decomposable():
    ring = PolynomialRing(QQ)
    target = inv.descriptor_polynomial(inv.Descriptor("tr", (1, 2, 3, 4)), ring)
    ok, cert = sy.decomposability_check(target, _s4_lower_generators(ring))
    assert not ok and cert is None


def test_matrix_pair_trace_not_decomposable():
    ring = PolynomialRing(QQ)
    target = inv.matrix_descriptor_polynomial(inv.Descriptor("tr", (1, 2)), ring)
    gens = [(d.name(), inv.matrix_descriptor_polynomial(d, ring))
            for d in inv.enumerate_set("S", 2, 1)]
    ok, _ = sy.decomposability_check(target, gens)
    assert not ok


def test_square_trace_certificate():
    ring = PolynomialRing(QQ)
    z1 = inv.generic_octonion(ring, 1)
    target = (z1 * z1).trace()
    gens = [("tr(1)", z1.trace()), ("n(1)", z1.norm())]
    ok, cert = sy.decomposability_check(target, gens)
    assert ok
    assert cert == {("tr(1)", "tr(1)"): 1, ("n(1)",): -2}


def test_certificate_reevaluates_to_target():
    ring = PolynomialRing(QQ)
    target = inv.descriptor_polynomial(inv.Descriptor("tr", (1, 2)), ring)
    sq = target * target
    gens = [("tr(1,2)", target)]
    ok, cert = sy.decomposability_check(sq, gens)
    assert ok
    total = ring.zero
    by_name = dict(gens)
    for labels, coeff in cert.items():
        prod = ring.one
        for lbl in labels:
            prod = prod * by_name[lbl]
        total = total + ring(QQ(coeff)) * prod
    assert total == sq


def test_decomposability_over_prime_field():
    base = GF(5)
    ring = PolynomialRing(base)
    z1 = inv.generic_octonion(ring, 1)
    target = (z1 * z1).trace()
    gens = [("tr(1)", z1.trace()), ("n(1)", z1.norm())]
    ok, cert = sy.decomposability_check(target, gens)
    assert ok
    assert cert[("n(1)",)] == base(-2)


def test_decomposability_field_comes_from_the_target():
    # GF(2): tr(Z^2) = tr(Z)^2, with no n(Z) term
    ring = PolynomialRing(GF(2))
    z1 = inv.generic_octonion(ring, 1)
    ok, cert = sy.decomposability_check((z1 * z1).trace(),
                                        [("tr(1)", z1.trace()), ("n(1)", z1.norm())])
    assert ok and cert == {("tr(1)", "tr(1)"): GF(2).one}


def test_inhomogeneous_generator_rejected():
    ring = PolynomialRing(QQ)
    bad = ring.var(1, 1) + ring.var(1, 1) * ring.var(1, 2)
    with pytest.raises(ValueError):
        sy.decomposability_check(ring.var(1, 1), [("bad", bad)])


def test_slots_count_the_generators_variables_too():
    # n comes from the target and the generators together: a generator
    # in a slot above every variable of the target used to raise
    # IndexError from Polynomial.multidegree
    ring = PolynomialRing(QQ)
    tr1, tr2 = (inv.descriptor_polynomial(inv.Descriptor("tr", (i,)), ring)
                for i in (1, 2))
    gens = [("tr(2)", tr2)]
    assert sy.decomposability_check(tr1, gens) == (False, None)
    # zero is the empty combination, a constant a multiple of the empty product
    assert sy.decomposability_check(ring.zero, gens) == (True, {})
    assert sy.decomposability_check(ring(3), gens) == (True, {(): 3})
    assert sy.decomposability_check(tr1 * tr2, gens + [("tr(1)", tr1)]) == (
        True, {("tr(2)", "tr(1)"): 1})
