import random
from math import gcd

import pytest

from princlab import quadring
from princlab.comax import (
    ComaxInputError,
    SupportBoundExceeded,
    comax_factor_int,
    enumerate_complete_factorizations,
    find_nonunique_witness,
    is_pseudo_irreducible,
)
from princlab.quadring import QuadElem, QuadOrder
from princlab.rings import ZZ

O5 = QuadOrder(-5)


def E(x, y):
    return QuadElem(x, y, -5)


def oracle_prime_power_grouping(n):
    """Independent trial-division grouping of |n| into prime powers."""
    out = []
    m = abs(n)
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append(q)
        p += 1
    if m > 1:
        out.append(m)
    return sorted(out)


def oracle_is_pseudo_irreducible_int(n):
    n = abs(n)
    return not any(
        gcd(c, n // c) == 1 and n // c > 1 for c in range(2, n) if n % c == 0
    )


def test_comax_factor_int_spec_cases():
    f = comax_factor_int(360)
    assert sorted(f.factors) == [5, 8, 9]
    assert f.verify()

    f = comax_factor_int(8)
    assert f.factors == [8]
    assert f.transcripts[0].pseudo_irreducible

    for bad in (1, -1, 0):
        with pytest.raises(ComaxInputError):
            comax_factor_int(bad)

    f = comax_factor_int(-12)
    assert sorted(f.factors) == [3, 4] and f.unit == -1
    assert f.verify()


def test_comax_factor_int_against_oracle():
    for n in range(2, 2000):
        f = comax_factor_int(n)
        assert sorted(f.factors) == oracle_prime_power_grouping(n)
        assert f.verify()


def test_pseudo_irreducible_int_against_oracle():
    for n in range(2, 400):
        t = is_pseudo_irreducible(n, ZZ)
        assert t.pseudo_irreducible == oracle_is_pseudo_irreducible_int(n), n


def test_pseudo_irreducible_spec_cases():
    t = is_pseudo_irreducible(E(2, 0), O5)
    assert t.pseudo_irreducible and len(t.support) == 1

    t = is_pseudo_irreducible(E(3, 0), O5)
    assert t.pseudo_irreducible
    # both simple splits were examined and had a non-principal side
    assert len(t.splits) == 1
    assert not t.splits[0].comaximal_split

    t = is_pseudo_irreducible(6, ZZ)
    assert not t.pseudo_irreducible
    assert t.witness_split is not None


def test_enumerate_int_unique():
    for n in list(range(2, 200)) + [360, 1024, 9999]:
        facts = enumerate_complete_factorizations(n, ZZ)
        assert len(facts) == 1
        assert sorted(facts[0].factors) == oracle_prime_power_grouping(n)
        assert facts[0].verify()


def test_enumerate_quad_six_unique():
    facts = enumerate_complete_factorizations(E(6, 0), O5)
    assert len(facts) == 1
    assert sorted(f.norm() for f in facts[0].factors) == [4, 9]
    assert facts[0].factors == [E(2, 0), E(3, 0)]
    assert facts[0].verify()


def test_enumerate_quad_21_three_factorizations():
    facts = enumerate_complete_factorizations(E(21, 0), O5)
    assert len(facts) == 3
    families = {frozenset((f.x, f.y) for f in fact.factors) for fact in facts}
    assert families == {
        frozenset({(3, 0), (7, 0)}),
        frozenset({(1, 2), (1, -2)}),
        frozenset({(4, 1), (4, -1)}),
    }
    for fact in facts:
        assert fact.verify()
        # every pair in every factorization carries a working certificate
        assert len(fact.pairwise) == len(fact.factors) * (len(fact.factors) - 1) // 2


def test_enumerate_quad_9_and_related():
    # 9 = (2 - sqrt(-5))(2 + sqrt(-5)) is the only complete factorization:
    # the split 3*3 is not comaximal
    facts = enumerate_complete_factorizations(E(9, 0), O5)
    assert len(facts) == 1
    assert sorted((f.x, f.y) for f in facts[0].factors) == [(2, -1), (2, 1)]

    # 2 is pseudo-irreducible: single factorization {2}
    facts = enumerate_complete_factorizations(E(2, 0), O5)
    assert len(facts) == 1 and facts[0].factors == [E(2, 0)]


@pytest.mark.parametrize("d,b", [(-5, E(41055, 0)), (-6, QuadElem(10010, 0, -6)), (-14, QuadElem(30, 0, -14))])
def test_one_principality_test_per_prime_subset(monkeypatch, d, b):
    tested = []
    real = quadring.ideal_is_principal
    monkeypatch.setattr(quadring, "ideal_is_principal", lambda i: tested.append(i.key()) or real(i))
    facts = enumerate_complete_factorizations(b, QuadOrder(d))
    k = len(facts[0].support)
    assert k >= 5
    assert len(tested) == len(set(tested)) <= 2**k - 1


def test_support_cap():
    n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    with pytest.raises(SupportBoundExceeded):
        enumerate_complete_factorizations(n, ZZ)
    facts = enumerate_complete_factorizations(n, ZZ, support_cap=9)
    assert len(facts) == 1


def test_support_cap_env(monkeypatch):
    monkeypatch.setenv("PRINC_LAB_SUPPORT_CAP", "3")
    with pytest.raises(SupportBoundExceeded):
        enumerate_complete_factorizations(210, ZZ)
    monkeypatch.setenv("PRINC_LAB_SUPPORT_CAP", "4")
    assert len(enumerate_complete_factorizations(210, ZZ)) == 1


def test_find_nonunique_witness_quad():
    hit = find_nonunique_witness(O5, 500)
    assert hit is not None
    b, facts = hit
    assert b.norm() <= 441
    assert len(facts) >= 2
    assert all(f.verify() for f in facts)
    # the exhaustive scan finds -9+3*sqrt(-5) (norm 126, ideal P*Q*Qbar*Sbar)
    # well before 21 (norm 441); both are non-uniqueness witnesses
    assert b == E(-9, 3)
    families = {frozenset((f.x, f.y) for f in fact.factors) for fact in facts}
    assert frozenset({(1, 1), (1, 2)}) in families  # (1+w)(1+2w) = -9+3w

    assert find_nonunique_witness(O5, 5) is None


def test_find_nonunique_witness_int_degenerate():
    assert find_nonunique_witness(ZZ, 300) is None


def test_random_quad_factorizations_verify():
    rng = random.Random(59)
    done = 0
    while done < 30:
        b = E(rng.randrange(-9, 10), rng.randrange(-9, 10))
        if not b or b.is_unit():
            continue
        for fact in enumerate_complete_factorizations(b, O5):
            assert fact.verify()
            prod = E(1, 0)
            for f in fact.factors:
                prod = prod * f
            assert prod * fact.unit == b
        done += 1
