import json
import random
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from princlab import comax, quadring
from princlab.core import _MR_BOUND
from princlab.comax import (
    ComaxInputError,
    SupportBoundExceeded,
    enumerate_complete_factorizations,
    find_nonunique_witness,
)
from princlab.quadring import QuadElem, QuadOrder, ideal_from_pair, ideal_is_principal, principal_ideal
from princlab.report import enc
from princlab.rings import ZZ
from rechecked import recheck

O5 = QuadOrder(-5)


def rechecks(found, ring):
    """The factorizations pass recheck as a `comax unique` report."""
    count = len(found.factorizations)
    verdict = "unique" if count == 1 else "non_unique"
    return recheck("comax unique", ring, {"count": count, **enc(found)}, verdict) == []


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


def test_int_factorization_spec_cases():
    found = enumerate_complete_factorizations(360, ZZ)
    assert found.factorizations[0].factors == [5, 8, 9]
    assert rechecks(found, ZZ)

    (f,) = enumerate_complete_factorizations(8, ZZ).factorizations
    assert f.factors == [8] and f.blocks == [(0,)]

    for bad in (1, -1, 0):
        with pytest.raises(ComaxInputError):
            enumerate_complete_factorizations(bad, ZZ)

    found = enumerate_complete_factorizations(-12, ZZ)
    (f,) = found.factorizations
    assert f.factors == [3, 4] and f.unit == -1
    assert rechecks(found, ZZ)


def test_int_factorization_against_oracle():
    for n in range(2, 2000):
        found = enumerate_complete_factorizations(n, ZZ)
        assert found.factorizations[0].factors == oracle_prime_power_grouping(n)
        assert rechecks(found, ZZ)


def test_pseudo_irreducible_int_against_oracle():
    # b is pseudo-irreducible exactly when its complete factorization has one factor
    for n in range(2, 400):
        (fact,) = enumerate_complete_factorizations(n, ZZ).factorizations
        assert (len(fact.factors) == 1) == oracle_is_pseudo_irreducible_int(n), n


def test_pseudo_irreducible_spec_cases():
    found = enumerate_complete_factorizations(E(2, 0), O5)
    (fact,) = found.factorizations
    assert fact.factors == [E(2, 0)] and len(found.support) == 1

    # (3) == P*Q with P, Q non-principal: the one split has no principal
    # side, so 3 is its own complete factorization over two primes
    (fact,) = enumerate_complete_factorizations(E(3, 0), O5).factorizations
    assert fact.factors == [E(3, 0)] and fact.blocks == [(0, 1)]

    (fact,) = enumerate_complete_factorizations(6, ZZ).factorizations
    assert fact.factors == [2, 3]


def test_enumerate_int_unique():
    for n in list(range(2, 200)) + [360, 1024, 9999]:
        found = enumerate_complete_factorizations(n, ZZ)
        (fact,) = found.factorizations
        assert sorted(fact.factors) == oracle_prime_power_grouping(n)
        assert rechecks(found, ZZ)


def test_enumerate_quad_six_unique():
    found = enumerate_complete_factorizations(E(6, 0), O5)
    (fact,) = found.factorizations
    assert sorted(f.norm() for f in fact.factors) == [4, 9]
    assert fact.factors == [E(2, 0), E(3, 0)]
    assert rechecks(found, O5)


def test_enumerate_quad_21_three_factorizations():
    found = enumerate_complete_factorizations(E(21, 0), O5)
    facts = found.factorizations
    assert len(facts) == 3
    families = {frozenset((f.x, f.y) for f in fact.factors) for fact in facts}
    assert families == {
        frozenset({(3, 0), (7, 0)}),
        frozenset({(1, 2), (1, -2)}),
        frozenset({(4, 1), (4, -1)}),
    }
    # every pair in every factorization carries a working certificate
    assert rechecks(found, O5)
    for fact in facts:
        assert len(fact.pairwise) == len(fact.factors) * (len(fact.factors) - 1) // 2


def test_a_result_writes_its_element_and_support_once():
    found = enumerate_complete_factorizations(E(21, 0), O5)
    result = enc(found)
    assert list(result) == ["element", "support", "factorizations"]
    assert result["element"] == enc(E(21, 0))
    assert result["support"] == [{"prime": enc(P), "exponent": e} for P, e in found.support]
    assert [list(fact) for fact in result["factorizations"]] == [["factors", "unit", "pairwise", "blocks"]] * 3
    # the hunt writes the element as its witness
    assert list(found.to_json(enc, "witness")) == ["witness", "support", "factorizations"]


def test_enumerate_quad_9_and_related():
    # 9 = (2 - sqrt(-5))(2 + sqrt(-5)) is the only complete factorization:
    # the split 3*3 is not comaximal
    (fact,) = enumerate_complete_factorizations(E(9, 0), O5).factorizations
    assert sorted((f.x, f.y) for f in fact.factors) == [(2, -1), (2, 1)]

    # 2 is pseudo-irreducible: single factorization {2}
    (fact,) = enumerate_complete_factorizations(E(2, 0), O5).factorizations
    assert fact.factors == [E(2, 0)]


@pytest.mark.parametrize("d,b", [(-5, E(41055, 0)), (-6, QuadElem(10010, 0, -6)), (-14, QuadElem(30, 0, -14))])
def test_one_principality_test_per_prime_subset(monkeypatch, d, b):
    tested = []
    real = quadring.ideal_is_principal
    monkeypatch.setattr(quadring, "ideal_is_principal", lambda i: tested.append(i.key()) or real(i))
    k = len(enumerate_complete_factorizations(b, QuadOrder(d)).support)
    assert k >= 5
    assert len(tested) == len(set(tested)) <= 2**k - 1


@pytest.mark.parametrize("d,b", [(-5, E(41055, 0)), (-6, QuadElem(10010, 0, -6)), (-14, QuadElem(30, 0, -14))])
def test_principality_is_tested_only_on_blocks_of_identity_class(monkeypatch, d, b):
    ring = QuadOrder(d)
    tested = []
    real = quadring.ideal_is_principal
    monkeypatch.setattr(quadring, "ideal_is_principal", lambda i: tested.append(i) or real(i))
    enumerate_complete_factorizations(b, ring)
    assert tested and all(ring.ideal_class(i) == ring.class_identity for i in tested)


@pytest.mark.parametrize("d,b", [(-5, E(41055, 0)), (-6, QuadElem(10010, 0, -6)), (-14, QuadElem(30, 0, -14))])
def test_each_factor_generates_its_block(d, b):
    found = enumerate_complete_factorizations(b, QuadOrder(d))
    assert len(found.support) >= 5
    for fact in found.factorizations:
        assert sorted(i for block in fact.blocks for i in block) == list(range(len(found.support)))
        for factor, block in zip(fact.factors, fact.blocks):
            ideal = principal_ideal(QuadElem(1, 0, d))
            for i in block:
                P, e = found.support[i]
                ideal = ideal * P**e
            assert principal_ideal(factor) == ideal


def test_support_cap(monkeypatch):
    # the cap counts the primes the walk combines, those of non-identity
    # class: over Z none.  All twelve primes of 2047395 in Z[sqrt(-26)] are
    # of non-identity class; four of the twelve of 24694341 in Z[sqrt(-5)]
    # are of identity class, so it has eight to combine
    assert len(enumerate_complete_factorizations(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, ZZ).factorizations) == 1
    assert rechecks(enumerate_complete_factorizations(E(24694341, 0), O5), O5)
    b26 = QuadElem(2047395, 0, -26)
    with pytest.raises(SupportBoundExceeded, match="^12 support primes of non-identity class exceed the cap 8$"):
        enumerate_complete_factorizations(b26, QuadOrder(-26))
    monkeypatch.setenv("PRINC_LAB_SUPPORT_CAP", "12")
    support, partitions = comax.walk(b26, QuadOrder(-26))
    assert (len(support), len(partitions)) == (12, 589)


def test_support_cap_env(monkeypatch):
    # 210 in Z[sqrt(-5)]: P2^2 = (2) and P5^2 = (5) are of identity class,
    # and the two primes over each of 3 and 7 are not
    monkeypatch.setenv("PRINC_LAB_SUPPORT_CAP", "3")
    with pytest.raises(SupportBoundExceeded, match="^4 support primes of non-identity class exceed the cap 3$"):
        enumerate_complete_factorizations(E(210, 0), O5)
    monkeypatch.setenv("PRINC_LAB_SUPPORT_CAP", "4")
    assert rechecks(enumerate_complete_factorizations(E(210, 0), O5), O5)
    monkeypatch.setenv("PRINC_LAB_SUPPORT_CAP", "0")
    assert len(enumerate_complete_factorizations(210, ZZ).factorizations) == 1
    # a negative cap is refused as it is read, before anything is factored
    monkeypatch.setenv("PRINC_LAB_SUPPORT_CAP", "-1")
    for b, ring in ((210, ZZ), (E(210, 0), O5)):
        with pytest.raises(ComaxInputError, match=r"^PRINC_LAB_SUPPORT_CAP='-1' is not a nonnegative integer$"):
            enumerate_complete_factorizations(b, ring)


def test_support_primes_stay_below_the_proven_primality_bound(capsys):
    # recheck proves each support prime by Miller-Rabin, exact only below
    # _MR_BOUND; factorint refuses a cofactor it could not prove, and the
    # CLI reads that refusal as bad input
    from princlab import cli

    p = sympy.nextprime(_MR_BOUND)
    big, refusal = 2 * p, f"{p} is too large to prove prime"
    with pytest.raises(ValueError, match=refusal):
        enumerate_complete_factorizations(big, ZZ)
    with pytest.raises(ValueError, match=refusal):
        enumerate_complete_factorizations(E(big, 0), O5)
    for argv in (["comax", "factor", str(big)], ["comax", "unique", "--ring", "Z[sqrt(-5)]", str(big)]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"princlab: error: {refusal}\n"
    assert len(enumerate_complete_factorizations(2 * sympy.prevprime(_MR_BOUND), ZZ).factorizations[0].factors) == 2


def test_find_nonunique_witness_quad():
    hit = find_nonunique_witness(O5, 500)
    assert hit is not None
    b, facts = hit.element, hit.factorizations
    assert b.norm() <= 441
    assert len(facts) >= 2
    assert rechecks(hit, O5)
    # the exhaustive scan finds -9+3*sqrt(-5) (norm 126, ideal P*Q*Qbar*Sbar)
    # well before 21 (norm 441); both are non-uniqueness witnesses
    assert b == E(-9, 3)
    families = {frozenset((f.x, f.y) for f in fact.factors) for fact in facts}
    assert frozenset({(1, 1), (1, 2)}) in families  # (1+w)(1+2w) = -9+3w

    assert find_nonunique_witness(O5, 5) is None
    # a bound below 2 scans no norm, so it has no answer
    for bound in (1, 0, -1):
        with pytest.raises(ComaxInputError, match="need --bound >= 2"):
            find_nonunique_witness(O5, bound)


def test_find_nonunique_witness_int_degenerate():
    assert find_nonunique_witness(ZZ, 300) is None


def test_random_quad_factorizations_verify():
    rng = random.Random(59)
    done = 0
    while done < 30:
        b = E(rng.randrange(-9, 10), rng.randrange(-9, 10))
        if not b or b.is_unit():
            continue
        found = enumerate_complete_factorizations(b, O5)
        assert rechecks(found, O5)
        for fact in found.factorizations:
            prod = E(1, 0)
            for f in fact.factors:
                prod = prod * f
            assert prod * fact.unit == b
        done += 1


# ---------------------------------------------------------------- oracle
# The walk before class labels: every set partition of the support (Bell(k)
# of them), each block's generator by a scan over the elements of its norm.


def scan_rank(xy):
    x, y = xy
    return (x * x, y * y, 0 if x > 0 or (x == 0 and y > 0) else 1, -x, -y)


def scan_generator(ideal):
    """The first element of norm N(I), in rank order, lying in I (then it
    generates I), or None."""
    n, d = ideal.norm(), ideal.d
    found = set()
    y = 0
    while -d * y * y <= n:
        rem = n + d * y * y
        x = isqrt(rem)
        if x * x == rem:
            found |= {(sx, sy) for sx in (x, -x) for sy in (y, -y)}
        y += 1
    for x, y in sorted(found, key=scan_rank):
        if ideal.contains(QuadElem(x, y, d)):
            return QuadElem(x, y, d)
    return None


class ScanMemo:
    """Scan generators of the blocks of one support, with no classes."""

    def __init__(self, support, ring):
        self.support = support
        self.ring = ring
        self.generators = {}

    def generator(self, idxs):
        idxs = tuple(idxs)
        if idxs not in self.generators:
            ideal = principal_ideal(self.ring.one)
            for i in idxs:
                P, e = self.support[i]
                ideal = ideal * P**e
            self.generators[idxs] = scan_generator(ideal)
        return self.generators[idxs]

    def pseudo_irreducible(self, idxs):
        """No split of the block into two nonempty parts has two scan generators."""
        k = len(idxs)
        for mask in range(1, 1 << (k - 1)):
            left = [idxs[i] for i in range(k) if mask >> i & 1]
            right = [idxs[i] for i in range(k) if not mask >> i & 1]
            if self.generator(left) is not None and self.generator(right) is not None:
                return False
        return True


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def bell_walk_factorizations(b, ring):
    memo = ScanMemo(ring.prime_support(b), ring)
    out = []
    for partition in set_partitions(list(range(len(memo.support)))):
        generators = [memo.generator(block) for block in partition]
        if None in generators or not all(memo.pseudo_irreducible(block) for block in partition):
            continue
        order = sorted(range(len(partition)), key=lambda i: ring.sort_key(generators[i]))
        out.append(comax._build_factorization(b, ring, [tuple(partition[i]) for i in order],
                                              [generators[i] for i in order]))
    out.sort(key=lambda f: (len(f.factors), [ring.sort_key(x) for x in f.factors]))
    return comax.ComaxResult(b, memo.support, out)


# Z[sqrt(-5)] and Z[sqrt(-6)] have class group C2, Z[sqrt(-14)] C4,
# Z[sqrt(-21)] C2 x C2 and Z[sqrt(-26)] C6
CLASS_GROUP_RINGS = (-5, -6, -14, -21, -26)


def seeded_elements(d, count, max_support=6, max_norm=10**8):
    """Products of one to four small elements, with at most max_support
    primes and norm at most max_norm, from a fixed seed."""
    rng = random.Random(1000 - d)
    ring = QuadOrder(d)
    out = []
    while len(out) < count:
        b = ring.one
        for _ in range(rng.randint(1, 4)):
            b = b * QuadElem(rng.randint(-7, 7), rng.randint(-2, 2), d)
        if not b or b.is_unit() or b.norm() > max_norm:
            continue
        if len(ring.prime_support(b)) <= max_support:
            out.append(b)
    return out


@pytest.mark.parametrize("d", CLASS_GROUP_RINGS)
def test_minimal_zero_sum_walk_matches_the_bell_walk_byte_for_byte(d):
    ring = QuadOrder(d)
    supports = []
    for b in seeded_elements(d, 20):
        new = json.dumps(enc(enumerate_complete_factorizations(b, ring)))
        old = json.dumps(enc(bell_walk_factorizations(b, ring)))
        assert new == old, b
        supports.append(len(ring.prime_support(b)))
    assert max(supports) >= 5


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from(CLASS_GROUP_RINGS), n=st.integers(1, 100), x=st.integers(-10**4, 10**4),
       y=st.integers(-10**4, 10**4))
def test_reduction_agrees_with_a_norm_scan(d, n, x, y):
    # (n, x + y*sqrt(d)) has norm dividing n^2 <= 10^4
    ideal = ideal_from_pair(QuadElem(n, 0, d), QuadElem(x, y, d))
    v = ideal_is_principal(ideal)
    g = scan_generator(ideal)
    assert v.principal == (g is not None)
    assert v.generator == g
