import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from princlab.quadring import (
    NonMaximalOrderError,
    QuadElem,
    QuadError,
    QuadIdeal,
    QuadOrder,
    combination,
    divides,
    factor_principal,
    ideal_from_pair,
    ideal_is_invertible,
    ideal_is_principal,
    norm_solutions,
    principal_ideal,
    reduce_form,
    validate_d,
)
from princlab.rational import Fraction
from princlab.report import enc


def E(x, y, d=-5):
    return QuadElem(x, y, d)


def span_canonical(vectors):
    """Independent canonical form of a Z-span (sympy HNF on columns)."""
    m = Matrix([[v[0] for v in vectors], [v[1] for v in vectors]])
    return tuple(hermite_normal_form(m))


def ideal_span(ideal: QuadIdeal):
    return span_canonical([(ideal.n, 0), (ideal.c, ideal.m)])


def pair_span(a, b):
    d = a.d
    vecs = []
    for g in (a, b):
        if g:
            s = g * QuadElem(0, 1, d)
            vecs += [(g.x, g.y), (s.x, s.y)]
    return span_canonical(vecs)


def rand_elem(rng, d=-5, bound=9):
    return QuadElem(rng.randrange(-bound, bound + 1), rng.randrange(-bound, bound + 1), d)


def test_validate_d():
    validate_d(-5)
    validate_d(-1)
    with pytest.raises(QuadError):
        validate_d(5)
    with pytest.raises(QuadError):
        validate_d(-4)


def test_ideal_from_pair_spec_cases():
    i = ideal_from_pair(E(2, 0), E(1, 1))
    assert i.norm() == 2
    assert (i.n, i.c, i.m) == (2, 1, 1)

    assert ideal_from_pair(E(1, 0), E(7, -3)).norm() == 1

    i = ideal_from_pair(E(3, 0), E(0, 0))
    assert i.norm() == 9
    assert i == principal_ideal(E(3, 0))

    with pytest.raises(QuadError):
        ideal_from_pair(E(0, 0), E(0, 0))


def test_ideal_from_pair_matches_span_oracle():
    rng = random.Random(17)
    for _ in range(200):
        a, b = rand_elem(rng), rand_elem(rng)
        if not a and not b:
            continue
        i = ideal_from_pair(a, b)
        assert ideal_span(i) == pair_span(a, b)
        # idempotent under re-normalization
        j = ideal_from_pair(*i.basis)
        assert j == i


def test_ideal_mul_spec_cases():
    i = ideal_from_pair(E(2, 0), E(1, 1))
    j = ideal_from_pair(E(2, 0), E(1, -1))
    assert i.mul(j) == principal_ideal(E(2, 0))

    one = principal_ideal(E(1, 0))
    assert i.mul(one) == i

    q = ideal_from_pair(E(3, 0), E(1, 1))
    qb = ideal_from_pair(E(3, 0), E(1, -1))
    assert q.mul(qb) == principal_ideal(E(3, 0))


def test_ideal_mul_matches_product_span_oracle():
    # oracle: span of all 16 pairwise products of the defining generators
    rng = random.Random(23)
    sqrtd = E(0, 1)
    for _ in range(100):
        a, b = rand_elem(rng, bound=5), rand_elem(rng, bound=5)
        c, e = rand_elem(rng, bound=5), rand_elem(rng, bound=5)
        if (not a and not b) or (not c and not e):
            continue
        i, j = ideal_from_pair(a, b), ideal_from_pair(c, e)
        gens_i = [g * m for g in (a, b) if g for m in (E(1, 0), sqrtd)]
        gens_j = [g * m for g in (c, e) if g for m in (E(1, 0), sqrtd)]
        prods = [u * v for u in gens_i for v in gens_j]
        assert ideal_span(i.mul(j)) == span_canonical(
            [(p.x, p.y) for p in prods]
        )


def test_ideal_norm_multiplicative_for_invertible():
    rng = random.Random(29)
    count = 0
    while count < 200:
        a, b = rand_elem(rng), rand_elem(rng)
        c, e = rand_elem(rng), rand_elem(rng)
        if (not a and not b) or (not c and not e):
            continue
        i, j = ideal_from_pair(a, b), ideal_from_pair(c, e)
        assert i.mul(j).norm() == i.norm() * j.norm()
        count += 1


def test_elem_norm_multiplicative():
    rng = random.Random(31)
    for d in (-5, -3, -1, -7, -2):
        for _ in range(50):
            a, b = rand_elem(rng, d), rand_elem(rng, d)
            assert (a * b).norm() == a.norm() * b.norm()


def test_invertibility_spec_cases():
    cert = ideal_is_invertible(ideal_from_pair(E(2, 0), E(1, 1)))
    assert cert.invertible
    prod = ideal_from_pair(E(2, 0), E(1, 1)).mul(cert.cofactor)
    assert prod == principal_ideal(cert.product_generator)

    # conductor prime of the non-maximal order Z[sqrt(-3)]
    bad = ideal_from_pair(E(2, 0, -3), E(1, 1, -3))
    cert = ideal_is_invertible(bad)
    assert not cert.invertible

    assert ideal_is_invertible(principal_ideal(E(7, 0))).invertible
    assert ideal_is_invertible(principal_ideal(E(7, 0, -3))).invertible


def omega_stable(i: QuadIdeal) -> bool:
    """Whether omega = (1 + sqrt(d))/2 maps I into itself (d == 1 mod 4):
    the test `ideal_is_invertible` once made, kept here as the reference.
    Z[omega] is the only order strictly above Z[sqrt(d)], so I fails to be
    invertible exactly when it is omega-stable."""
    for u in i.basis:
        w = u + u * QuadElem(0, 1, i.d)  # 2*omega*u
        if w.x % 2 or w.y % 2 or not i.contains(QuadElem(w.x // 2, w.y // 2, i.d)):
            return False
    return True


def in_order(q: QuadElem) -> bool:
    return Fraction(q.x).denominator == Fraction(q.y).denominator == 1


small_coords = st.integers(-6, 6)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([-1, -2, -3, -5, -7, -15]), small_coords, small_coords, small_coords, small_coords)
def test_inverse_bezout_and_the_product_rule_decide_alike(d, ax, ay, bx, by):
    a, b = QuadElem(ax, ay, d), QuadElem(bx, by, d)
    assume(a or b)
    ideal = ideal_from_pair(a, b)
    invertible = ideal_is_invertible(ideal).invertible
    sol = QuadOrder(d).inverse_bezout(a, b)
    assert (sol is not None) == invertible
    if sol is not None:
        lam, mu = sol
        assert lam * a + mu * b == 1
        assert all(in_order(p) for p in (lam * a, lam * b, mu * a, mu * b))
    if d % 4 == 1:
        assert invertible == (not omega_stable(ideal))


def test_principality_spec_cases():
    v = ideal_is_principal(ideal_from_pair(E(2, 0), E(1, 1)))
    assert v.status == "non_principal"
    # x^2 + 5y^2 = 2 has no solutions: transcript is empty
    assert v.search == []

    v = ideal_is_principal(principal_ideal(E(1, 1)))
    assert v.principal
    assert v.generator in (E(1, 1), E(-1, -1), E(1, -1), E(-1, 1))
    assert principal_ideal(v.generator) == principal_ideal(E(1, 1))

    v = ideal_is_principal(ideal_from_pair(E(3, 0), E(1, 1)))
    assert v.status == "non_principal"

    v = ideal_is_principal(ideal_from_pair(E(2, 0, -3), E(1, 1, -3)))
    assert v.status == "not_invertible"


def test_principality_against_enumeration_oracle():
    rng = random.Random(37)
    for _ in range(60):
        a, b = rand_elem(rng, bound=6), rand_elem(rng, bound=6)
        if not a and not b:
            continue
        i = ideal_from_pair(a, b)
        v = ideal_is_principal(i)
        # oracle: try every (x, y) with x^2 + 5 y^2 == norm directly
        found = None
        n = i.norm()
        for x in range(-n, n + 1):
            for y in range(-n, n + 1):
                if x * x + 5 * y * y == n and (x or y):
                    g = QuadElem(x, y, -5)
                    if ideal_span(principal_ideal(g)) == ideal_span(i):
                        found = g
                        break
            if found:
                break
        assert v.principal == (found is not None)
        if v.principal:
            g = v.generator
            assert g.norm() == n
            # (g) == I both ways: g divides each basis element, and g lies in I
            assert divides(g, i.basis[0]) is not None
            assert divides(g, i.basis[1]) is not None
            assert i.contains(g)


def test_reduction_certificate_of_the_ideal_3():
    # (3) == 3*[1, sqrt(-5)]: its form (1, 0, 5) is already the reduced
    # principal form, so the identity transform certifies it and the
    # transform's first column, times 3, is the generator
    v = ideal_is_principal(ideal_from_pair(E(3, 0), E(0, 3)))
    assert v.generator == E(3, 0)
    assert v.search == [{"x": 3, "y": 0, "generates": True}]
    assert enc(v)["search"] == {
        "form": ["1", "0", "5"],
        "transform": [["1", "0"], ["0", "1"]],
        "reduced": ["1", "0", "5"],
    }


def apply_transform(form, transform):
    a, b, c = form
    p, q, r, s = transform
    return (a * p * p + b * p * r + c * r * r, 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
            a * q * q + b * q * s + c * s * s)


def reduced_forms(disc):
    """Every reduced positive definite form of discriminant disc < 0, by the
    bounds |b| <= a <= c and 3a^2 <= |disc|."""
    out = set()
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a) == 0:
                c = (b * b - disc) // (4 * a)
                if c > a or (c == a and b >= 0):
                    out.add((a, b, c))
        a += 1
    return out


@pytest.mark.parametrize("d", [-1, -2, -5, -6, -14, -21, -26])
def test_reduce_form_certifies_the_reduced_form(d):
    rng = random.Random(d)
    reduced = reduced_forms(4 * d)
    for _ in range(200):
        # a random form of discriminant 4d: (a, 2k, (k^2 - d)/a) with a | k^2 - d
        k = rng.randrange(-10**6, 10**6)
        divisors = [a for a in range(1, 200) if (k * k - d) % a == 0]
        a = rng.choice(divisors)
        form = (a, 2 * k, (k * k - d) // a)
        red, (p, q, r, s), _ = reduce_form(*form)
        assert p * s - q * r == 1
        assert apply_transform(form, (p, q, r, s)) == red
        assert red in reduced


@pytest.mark.parametrize("d,h", [(-1, 1), (-2, 1), (-5, 2), (-6, 2), (-14, 4), (-21, 4), (-26, 6)])
def test_prime_classes_fill_the_class_group_and_compose_like_ideals(d, h):
    # every reduced form is the class of some prime of small norm (all
    # reduced forms of a maximal order's discriminant are primitive here),
    # and the composition of classes is the class of the product
    ring = QuadOrder(d)
    primes = [P for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
              for P in (f[0] for f in factor_principal(QuadElem(p, 0, d)))]
    classes = {ring.ideal_class(P) for P in primes}
    assert len(reduced_forms(4 * d)) == h
    assert classes == reduced_forms(4 * d)
    for P in primes[:8]:
        for Q in primes[:8]:
            assert ring.ideal_class(P * Q) == ring.class_compose(ring.ideal_class(P), ring.ideal_class(Q))
    assert all(ring.class_compose(c, ring.class_identity) == c for c in classes)


def test_principality_far_past_a_norm_scan():
    # norms near 10^40: the reduction takes a few dozen steps, where a scan
    # over x^2 + 26y^2 == N would take about 10^19
    d = -26
    g = QuadElem(10**20 + 7, 3 * 10**19 + 11, d)
    v = ideal_is_principal(principal_ideal(g))
    assert v.principal and principal_ideal(v.generator) == principal_ideal(g)
    assert v.generator.norm() == g.norm() >= 10**40
    P = ideal_from_pair(QuadElem(3, 0, d), QuadElem(1, 1, d))  # a class of order 3
    v = ideal_is_principal(P.mul(principal_ideal(g)))
    assert v.status == "non_principal" and v.reduced == QuadOrder(d).ideal_class(P)


@pytest.mark.parametrize("d", [-1, -2, -3, -5, -7, -15])
def test_membership_decides_each_candidate_like_ideal_equality(d):
    # a norm-N candidate g generates I exactly when g lies in I; compare every
    # transcript entry with the direct test (g) == I, non-maximal orders too
    rng = random.Random(d)
    for _ in range(40):
        a, b = rand_elem(rng, d, 7), rand_elem(rng, d, 7)
        if not a and not b:
            continue
        i = ideal_from_pair(a, b)
        v = ideal_is_principal(i)
        for step in v.search:
            g = QuadElem(step["x"], step["y"], d)
            assert step["generates"] == (principal_ideal(g) == i)
        assert v.principal == any(step["generates"] for step in v.search)


def test_generator_tie_break_is_deterministic():
    v = ideal_is_principal(principal_ideal(E(-3, 0)))
    assert v.generator == E(3, 0)
    v = ideal_is_principal(principal_ideal(E(0, -1)))
    assert v.generator == E(0, 1)


def test_divides_spec_cases():
    assert divides(E(-3, 0), E(-6, 0)) == E(2, 0)
    assert divides(E(1, 1), E(6, 0)) == E(1, -1)
    assert divides(E(1, 1), E(2, 0)) is None
    with pytest.raises(ZeroDivisionError):
        divides(E(0, 0), E(1, 0))


def test_report_tag_follows_the_coordinate_types():
    assert enc(E(3, -1)) == {"type": "quad", "x": "3", "y": "-1", "d": "-5"}
    assert enc(E(Fraction(3), Fraction(-1))) == {"type": "quadrat", "x": "3", "y": "-1", "d": "-5"}
    # field arithmetic gives Fraction coordinates in both slots
    assert enc(E(3, 0) / 2) == {"type": "quadrat", "x": "3/2", "y": "0", "d": "-5"}
    assert enc(E(3, 1) * Fraction(1)) == {"type": "quadrat", "x": "3", "y": "1", "d": "-5"}
    assert enc(E(3, 1) + Fraction(1)) == {"type": "quadrat", "x": "4", "y": "1", "d": "-5"}


def test_the_order_never_takes_a_field_value_for_an_element():
    ring = QuadOrder(-1)
    u = QuadElem(Fraction(3, 5), Fraction(4, 5), -1)  # norm 1, not in Z[i]
    assert u.norm() == 1
    assert not ring.is_unit(u) and not u.is_unit()
    assert ring.is_unit(QuadElem(0, 1, -1)) and not ring.is_unit(QuadElem(Fraction(0), Fraction(1), -1))
    with pytest.raises(QuadError):
        ring.coerce(u)
    with pytest.raises(QuadError):
        ring.coerce(QuadElem(Fraction(1), Fraction(0), -1))
    with pytest.raises(QuadError):
        ring.divides(u, QuadElem(5, 0, -1))  # u * (3 - 4i) == 5 in Q(i)
    with pytest.raises(QuadError):
        ring.divides(QuadElem(1, 0, -1), u)
    with pytest.raises(QuadError, match="non-integer coordinates"):
        ring.from_field(u)
    assert ring.from_field(QuadElem(Fraction(3), Fraction(4), -1)) == QuadElem(3, 4, -1)
    assert ring.divides(QuadElem(1, 1, -1), 2) == QuadElem(1, -1, -1)


def test_divides_random_round_trip():
    rng = random.Random(41)
    for _ in range(200):
        b, q = rand_elem(rng), rand_elem(rng)
        if not b:
            continue
        a = b * q
        assert divides(b, a) == q


def test_norm_solutions_complete():
    # independent double loop oracle
    for n in (1, 2, 3, 4, 6, 9, 21, 441):
        got = set(norm_solutions(n, -5))
        want = {
            (x, y)
            for x in range(-25, 26)
            for y in range(-10, 11)
            if x * x + 5 * y * y == n
        }
        assert got == want


def test_factor_principal_spec_cases():
    fp = factor_principal(E(6, 0))
    by_norm = sorted((P.norm(), e) for P, e in fp)
    assert by_norm == [(2, 2), (3, 1), (3, 1)]
    p2 = ideal_from_pair(E(2, 0), E(1, 1))
    assert any(P == p2 and e == 2 for P, e in fp)
    q = ideal_from_pair(E(3, 0), E(1, 1))
    qb = ideal_from_pair(E(3, 0), E(2, 1))
    assert any(P == q and e == 1 for P, e in fp)
    assert any(P == qb and e == 1 for P, e in fp)

    fp = factor_principal(E(0, 1))
    assert len(fp) == 1 and fp[0][1] == 1 and fp[0][0].norm() == 5

    fp = factor_principal(E(11, 0))
    assert len(fp) == 1
    assert fp[0][0] == principal_ideal(E(11, 0)) and fp[0][1] == 1

    with pytest.raises(NonMaximalOrderError):
        factor_principal(QuadElem(6, 0, -3))
    with pytest.raises(QuadError):
        factor_principal(E(1, 0))
    with pytest.raises(QuadError):
        factor_principal(E(0, 0))


def test_factor_principal_remultiplies_random():
    rng = random.Random(43)
    for d in (-5, -2):
        done = 0
        while done < 40:
            b = rand_elem(rng, d, bound=12)
            if not b or b.is_unit():
                continue
            fp = factor_principal(b)
            prod = principal_ideal(QuadElem(1, 0, d))
            for P, e in fp:
                prod = prod.mul(P.pow(e))
            assert prod == principal_ideal(b)
            done += 1


def test_bezout_pair_behaviour():
    # non-comaximal: (2, 1+sqrt(-5)) is a proper ideal, no certificate exists
    assert combination(E(2, 0), E(1, 1), E(1, 0)) is None
    lam, mu = combination(E(2, 0), E(3, 0), E(1, 0))
    assert lam * E(2, 0) + mu * E(3, 0) == E(1, 0)
    # random comaximal pairs: whenever (a, b) is the unit ideal a certificate
    # must come back and verify
    rng = random.Random(47)
    found = 0
    while found < 50:
        a, b = rand_elem(rng), rand_elem(rng)
        if not a or not b:
            continue
        if ideal_from_pair(a, b).norm() != 1:
            continue
        lam, mu = combination(a, b, E(1, 0))
        assert lam * a + mu * b == E(1, 0)
        found += 1


@pytest.mark.parametrize("d", [-1, -2, -5])
def test_associates_of_norm_gives_one_generator_per_principal_ideal(d):
    ring = QuadOrder(d)
    for n in range(1, 51):
        reps = ring.associates_of_norm(n)
        assert all(r.norm() == n for r in reps)
        ideals = [principal_ideal(r) for r in reps]
        assert len(set(ideals)) == len(ideals), (n, reps)
        # and every element of norm n is an associate of one of them
        assert {principal_ideal(QuadElem(x, y, d)) for x, y in norm_solutions(n, d)} == set(ideals)
