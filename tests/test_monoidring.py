import json
import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from princlab import monoidring
from princlab.poly import Poly, poly_divrem
from princlab.monoidring import (
    MonoidDesc,
    MonoidElem,
    MonoidError,
    MonoidRing,
    _from_poly,
    juett_split,
    mr_comax_chain,
    mr_split,
)
from princlab.rational import Fraction
from princlab.report import enc
from princlab.rings import QQ, ZZ
from princlab.zloc import LocalizedIntegers
from rechecked import recheck

F = Fraction
S2 = MonoidDesc(primes=(2,))
S23 = MonoidDesc(primes=(2, 3))
G2 = MonoidDesc(primes=(2,), group=True)

RQ2 = MonoidRing(QQ, S2)
RQ3 = MonoidRing(QQ, MonoidDesc(primes=(3,)))
RZ2 = MonoidRing(ZZ, S2)
RL2 = MonoidRing(LocalizedIntegers((2,)), S2)
RG2 = MonoidRing(QQ, G2)


def test_desc_contains():
    assert S2.contains(F(1, 2)) and S2.contains(F(5, 8)) and S2.contains(3)
    assert not S2.contains(F(1, 3))
    assert not S2.contains(F(-1, 2))
    assert G2.contains(F(-1, 2))
    assert S23.contains(F(5, 12))
    with pytest.raises(MonoidError):
        MonoidDesc(primes=())


def test_elem_construction_validates():
    RQ2.monomial(F(1, 2))
    with pytest.raises(MonoidError):
        RQ2.monomial(F(1, 3))
    with pytest.raises(MonoidError):
        RZ2.monomial(F(1, 2), F(1, 2))  # coefficient outside Z


def test_mr_split_spec_cases():
    sp = mr_split(1, 3, RQ3)
    one = RQ3.one
    assert sp.f1 == one - RQ3.monomial(F(1, 3))
    assert sp.f2 == one + RQ3.monomial(F(1, 3)) + RQ3.monomial(F(2, 3))
    assert sp.remainder == 3
    assert recheck("mring split", RQ3, sp) == []

    sp = mr_split(1, 2, RQ2)
    assert sp.lam == RQ2.coerce(F(1, 2))
    assert sp.mu == RQ2.coerce(F(1, 2))
    assert recheck("mring split", RQ2, sp) == []

    with pytest.raises(MonoidError):
        mr_split(1, 2, RZ2)  # 1/2 not in Z
    with pytest.raises(MonoidError):
        mr_split(1, 3, RQ2)  # 1/3 not in S


def test_mr_split_over_localized_base():
    sp = mr_split(1, 2, RL2)
    assert recheck("mring split", RL2, sp) == []
    # s/n in S but n not invertible in the base: Z[1/3] has no 1/2
    with pytest.raises(MonoidError):
        mr_split(F(1, 2), 2, MonoidRing(LocalizedIntegers((3,)), MonoidDesc((2, 3))))
    # and the mixed case where everything lines up does work
    ring = MonoidRing(LocalizedIntegers((3,)), MonoidDesc((2, 3)))
    sp = mr_split(F(1, 2), 3, ring)
    assert recheck("mring split", ring, sp) == []


def test_mr_comax_chain_spec_cases():
    ch = mr_comax_chain(1, 3, RQ2)
    one = RQ2.one
    assert ch.factors == [
        one - RQ2.monomial(F(1, 4)),
        one + RQ2.monomial(F(1, 4)),
        one + RQ2.monomial(F(1, 2)),
    ]
    assert recheck("mring chain", RQ2, ch) == []

    ch = mr_comax_chain(1, 1, RQ2)
    assert ch.factors == [one - RQ2.monomial(1)] and not ch.pairwise

    ch = mr_comax_chain(1, 6, RQ2)
    assert len(ch.factors) == 6 and len(ch.pairwise) == 15
    assert recheck("mring chain", RQ2, ch) == []


def test_mr_comax_chain_certificates_renormalize():
    ch = mr_comax_chain(1, 5, RQ2)
    one = RQ2.one
    # the finest factor sets the grid X^(1/16) that the certificates live on
    assert ch.factors[0] == one - RQ2.monomial(F(1, 16))
    for i, j, lam, mu in ch.pairwise:
        assert lam * ch.factors[i] + mu * ch.factors[j] == one


def test_chain_over_z_half_base_stays_inside():
    # all certificate coefficients must live in Z[1/2]
    ch = mr_comax_chain(1, 4, RL2)
    assert recheck("mring chain", RL2, ch) == []
    for _, _, lam, mu in ch.pairwise:
        for _, c in lam.terms + mu.terms:
            assert RL2.base.contains_rat(c)


def test_juett_split_spec_cases():
    js = juett_split(1, 1, 2, 1, RG2)
    one = RG2.one
    assert js.z == RG2.monomial(F(1, 2))
    assert js.unit * js.f1 * js.f2 == RG2.monomial(1) - one
    assert recheck("mring juett", RG2, js) == []

    js = juett_split(1, 4, 2, 2, RG2)
    assert js.z == RG2.monomial(F(1, 2), F(1, 2))
    assert recheck("mring juett", RG2, js) == []

    with pytest.raises(MonoidError):
        juett_split(1, 4, 2, 3, RG2)  # 3^2 != 4
    with pytest.raises(MonoidError):
        juett_split(1, 1, 2, 1, RQ2)  # not a group ring
    with pytest.raises(MonoidError, match="need t != 0"):
        juett_split(0, 4, 2, 2, RG2)  # X^0 - 4 is a constant


@pytest.mark.parametrize("t,b,p,beta", [(1, 1, 2, 1), (1, 32, 5, 2), (-7, F(1, 128), 7, F(1, 2)), (3, 1, 31, 1)])
def test_juett_lam_is_the_division_quotient(t, b, p, beta):
    # lam == -q(Z)/p for the quotient q of 1 + T + ... + T^(p-1) by T - 1,
    # built term by term as the splitter did before its closed form
    ring = MonoidRing(QQ, MonoidDesc(primes=(p,), group=True))
    js = juett_split(t, b, p, beta, ring)
    q, rem = poly_divrem(Poly([F(1)] * p), Poly([F(-1), F(1)]))
    assert rem == Poly((F(p),))
    qz, zpow = ring.zero, ring.one
    for c in q.coeffs:
        qz = qz + ring.coerce(c) * zpow
        zpow = zpow * js.z
    assert js.lam == ring.coerce(F(-1, p)) * qz
    assert js.mu == ring.coerce(F(1, p))


def test_juett_split_is_linear_in_p():
    ring = MonoidRing(QQ, MonoidDesc(primes=(4001,), group=True))
    start = time.perf_counter()
    js = juett_split(1, 1, 4001, 1, ring)
    assert time.perf_counter() - start < 5
    assert len(js.lam.terms) == 4000 and len(js.f2.terms) == 4001


def test_a_composite_denominator_is_refused():
    with pytest.raises(MonoidError, match="denominator 4 of S is not a prime"):
        MonoidDesc(primes=(2, 4))
    with pytest.raises(ValueError, match="6 is not a prime"):
        LocalizedIntegers((6,))


def test_group_monomials_are_units():
    rng = random.Random(3)
    one = RG2.one
    for _ in range(50):
        s = F(rng.randrange(-40, 41), 2 ** rng.randrange(0, 5))
        xs = RG2.monomial(s)
        assert xs * RG2.monomial(-s) == one


def rand_elem(rng, ring, nterms=3):
    terms = []
    for _ in range(rng.randrange(0, nterms + 1)):
        e = F(rng.randrange(0, 17), 2 ** rng.randrange(0, 3))
        c = F(rng.randrange(-5, 6))
        terms.append((e, c))
    return MonoidElem(tuple(terms), ring)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (rand_elem(rng, RQ2) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c


def test_divides():
    one = RQ2.one
    x = RQ2.monomial(1)
    xh = RQ2.monomial(F(1, 2))
    q = RQ2.divides(one - xh, one - x)
    assert q == one + xh
    assert RQ2.divides(one - x, one - xh) is None
    # monomial shifts in non-group mode
    assert RQ2.divides(xh, x) == xh
    assert RQ2.divides(x, xh) is None
    # coefficient membership over Z
    two, three = RZ2.coerce(2), RZ2.coerce(3)
    assert RZ2.divides(two, three) is None
    assert RZ2.divides(two, RZ2.coerce(6)) == three


def test_divides_refuses_operands_past_its_dense_limit():
    # on the grid 1/2^16 of 1 + X^(1/2^16) the dividend 1 - X^e is dense
    # with e*2^16 + 1 entries: at the limit it is divided, past it refused
    cap = monoidring._DIVIDES_LEN
    b = RQ2.one + RQ2.monomial(F(1, cap))
    assert RQ2.divides(b, RQ2.one - RQ2.monomial(F(cap - 1, cap))) is None  # odd power of -1 is not a root
    with pytest.raises(MonoidError, match=f"exact division needs {cap + 1} dense terms"):
        RQ2.divides(b, RQ2.one - RQ2.monomial(1))


def test_divides_random_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        a, b = rand_elem(rng, RQ2), rand_elem(rng, RQ2)
        if not b:
            continue
        q = RQ2.divides(b, a * b)
        assert q == a


# ------------------------------------------- the integer kernel behind `*`

G23 = MonoidDesc(primes=(2, 3), group=True)
# (ring, exponent denominators, coefficient denominators)
KERNEL_RINGS = {
    "Q monoid": (RQ2, [1, 2, 4, 2**20], [1, 3, 7, 2**64 + 1]),
    "Q mult:{2,3}": (MonoidRing(QQ, S23), [1, 2, 3, 6, 9], [1, 5]),
    "Q group": (RG2, [1, 2, 8], [1, 2, 9]),
    "Q group mult:{2,3}": (MonoidRing(QQ, G23), [1, 3, 4, 27], [1, 4, 11]),
    "Z": (RZ2, [1, 2, 4, 2**20], [1]),
    "Z[1/2]": (RL2, [1, 2, 16], [1, 2, 2**70]),
}
numerators = st.one_of(
    st.integers(-6, 6), st.sampled_from([2**63, -(2**64) + 1, 2**127, -(2**300)])
)


@st.composite
def kernel_operands(draw):
    name = draw(st.sampled_from(sorted(KERNEL_RINGS)))
    ring, exp_dens, coeff_dens = KERNEL_RINGS[name]
    low = -40 if ring.desc.group else 0
    # a sparse exponent far out pushes a product past the density guard
    exps = st.one_of(
        st.builds(F, st.integers(low, 40), st.sampled_from(exp_dens)),
        st.sampled_from([F(1000), F(10**6), F(1, 2**20)]),
    )
    coeffs = st.builds(F, numerators, st.sampled_from(coeff_dens))

    def elem():
        return MonoidElem(draw(st.lists(st.tuples(exps, coeffs), max_size=6)), ring)

    return elem(), elem()


def schoolbook(a, b):
    out = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            out[e1 + e2] = out.get(e1 + e2, F(0)) + c1 * c2
    return tuple(sorted((e, c) for e, c in out.items() if c))


@settings(max_examples=300, deadline=None)
@given(kernel_operands())
def test_product_matches_the_schoolbook_loop(operands):
    a, b = operands
    prod = a * b
    assert prod.terms == schoolbook(a, b)
    assert [e for e, _ in prod.terms] == sorted(e for e, _ in prod.terms)
    assert all(type(e) is F and type(c) is F and c for e, c in prod.terms)
    assert prod.ring is a.ring


def test_density_guard_keeps_sparse_products_sparse(monkeypatch):
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
    sparse = RZ2.monomial(F(1, 2**20)) + RZ2.monomial(10**6)
    dense = RZ2.one + RZ2.monomial(F(1, 2)) + RZ2.monomial(1)
    prod = sparse * dense
    # the dense length would be about 10**12: the sparse loop runs instead
    assert prod.terms == schoolbook(sparse, dense)
    assert calls == []
    assert (dense * dense).terms == tuple((F(k, 2), F(c)) for k, c in enumerate((1, 2, 3, 2, 1)))
    assert calls == [1]


def test_density_guard_product_is_fast():
    sparse = RZ2.monomial(F(1, 2**20)) + RZ2.monomial(10**6)
    for dense in (RZ2.one + RZ2.monomial(1), RZ2.one + RZ2.monomial(F(1, 2)) + RZ2.monomial(1)):
        start = time.perf_counter()
        sparse * dense
        assert time.perf_counter() - start < 1


def test_from_poly_still_checks_membership():
    with pytest.raises(MonoidError, match="coefficient 1/3 outside Z\\[1/2\\]"):
        _from_poly(Poly([F(1), F(1, 3)]), 1, 0, 2, RL2)
    with pytest.raises(MonoidError, match="exponent 1/3 not in S"):
        _from_poly(Poly([F(1), F(1)]), 1, 0, 3, RQ2)
    with pytest.raises(MonoidError, match="exponent -1/2 not in S"):
        _from_poly(Poly([F(1), F(1)]), 1, -1, 2, RQ2)
    # a shift outside S is fine when no term lands there
    assert _from_poly(Poly([F(0), F(2)]), 2, -1, 2, RZ2) == RZ2.monomial(F(1, 2), 2)
    assert _from_poly(Poly([F(1, 2), F(3, 4)]), 1, 0, 4, RL2).terms == ((F(0), F(1, 2)), (F(1, 4), F(3, 4)))


def fraction_form(e):
    """The report form an element with Fraction terms had: each exponent by
    `str`, each coefficient a "rat" leaf."""
    return {"type": "monoid", "terms": [[str(x), enc(c)] for x, c in e.terms]}


@settings(max_examples=300, deadline=None)
@given(kernel_operands())
def test_integer_vectors_encode_to_the_fraction_form_bytes(operands):
    a, b = operands
    for e in (a, b, a * b, a + b, -a):
        assert json.dumps(e.json()) == json.dumps(fraction_form(e))
        # least denominators, ascending exponents, no zero coefficient
        assert all(type(x) is int for x in (e.den, e.cden, *e.exps, *e.coeffs))
        assert e.den > 0 and e.cden > 0 and all(e.coeffs)
        assert list(e.exps) == sorted(set(e.exps))
        assert gcd(e.den, *e.exps) == 1 and gcd(e.cden, *e.coeffs) == 1
        assert MonoidElem(e.terms, e.ring) == e


def test_chain_elements_are_integer_vectors_with_the_old_bytes():
    ch = mr_comax_chain(F(5, 4), 5, RQ2)
    elems = ch.factors + [v for _, _, lam, mu in ch.pairwise for v in (lam, mu)]
    assert all(e.cden == 1 for e in ch.factors)
    assert any(e.cden > 1 for e in elems)  # Euclid's cofactors over Q
    for e in elems:
        assert json.dumps(e.json()) == json.dumps(fraction_form(e))
