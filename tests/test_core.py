import random
from fractions import Fraction

import pytest
import sympy

from princlab import core
from princlab.core import (
    Poly,
    RatFunc,
    factorint,
    poly_divrem,
    poly_extended_gcd,
    poly_gcd,
    solve_int_combination,
    sqrt_mod_prime,
    xgcd,
)


def P(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


def rand_poly(rng, max_deg=6):
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        return Poly()
    cs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(deg)]
    cs.append(Fraction(rng.randrange(1, 10)))
    return Poly(cs)


def test_xgcd_basics():
    for a, b in [(4, 6), (0, 5), (5, 0), (0, 0), (-12, 18), (7, -3)]:
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g
        assert g >= 0


def test_factorint_matches_sympy(monkeypatch):
    fallbacks = []
    sympy_factorint = sympy.factorint
    monkeypatch.setattr(sympy, "factorint", lambda m: fallbacks.append(m) or sympy_factorint(m))
    p12, q12 = sympy.nextprime(10**12), sympy.nextprime(2 * 10**12)
    p14, q14 = sympy.nextprime(10**13), sympy.nextprime(10**14)
    # a cofactor rho gives up on, and one at or above the Miller-Rabin bound
    assert factorint(p12 * q12) == {p12: 1, q12: 1}
    assert factorint(6 * p14 * q14) == {2: 1, 3: 1, p14: 1, q14: 1}
    assert fallbacks == [p12 * q12, p14 * q14]
    special = [1, 2, 997, 1009**2, 997 * 1009, 561, 3215031751, 2**61 - 1, (2**31 - 1) ** 2 * 3**5,
               sympy.nextprime(10**9) * sympy.nextprime(3 * 10**9), core._MR_BOUND - 1, core._MR_BOUND]
    rng = random.Random(1901)
    randoms = [rng.randrange(2, 10 ** rng.randrange(2, 31)) for _ in range(60)]
    for n in special + randoms:
        assert factorint(n) == sympy_factorint(n), n
    with pytest.raises(ValueError):
        factorint(0)


def test_sqrt_mod_prime_matches_sympy():
    for d in (-1, -2, -3, -5, -6, -7, -10, -13, -14):
        for p in sympy.primerange(3, 3000):
            if d % p == 0:
                continue
            if pow(d % p, (p - 1) // 2, p) == 1:
                r = sqrt_mod_prime(d, p)
                assert r == int(sympy.sqrt_mod(d, p)) and r <= p // 2 and (r * r - d) % p == 0, (d, p)
            else:
                with pytest.raises(ValueError):
                    sqrt_mod_prime(d, p)


def test_divrem_spec_cases():
    # 1 + Z + Z^2 = (1 - Z)(-Z - 2) + 3
    q, r = poly_divrem(P(1, 1, 1), P(1, -1))
    assert q == P(-2, -1) and r == P(3)
    # 1 + Z = (1 - Z)(-1) + 2
    q, r = poly_divrem(P(1, 1), P(1, -1))
    assert q == P(-1) and r == P(2)
    f = P(2, 0, 5)
    q, r = poly_divrem(f, f)
    assert q == P(1) and r.is_zero()


def test_divrem_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divrem(P(1), Poly())


def test_extended_gcd_spec_cases():
    d, s, t = poly_extended_gcd(P(1, -1), P(1, 1))
    assert d == P(1)
    assert s == P(Fraction(1, 2)) and t == P(Fraction(1, 2))

    d, s, t = poly_extended_gcd(P(0, 0, 1), P(0, 0, 0, 1))
    assert d == P(0, 0, 1) and s == P(1) and t == Poly()

    d, s, t = poly_extended_gcd(Poly(), P(0, 3))
    assert d == P(0, 1) and s == Poly() and t == P(Fraction(1, 3))

    d, s, t = poly_extended_gcd(Poly(), Poly())
    assert d.is_zero()


def test_divrem_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        f = rand_poly(rng)
        g = rand_poly(rng)
        if g.is_zero():
            continue
        q, r = poly_divrem(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_extended_gcd_certificate_random():
    rng = random.Random(11)
    for _ in range(300):
        f, g = rand_poly(rng), rand_poly(rng)
        d, s, t = poly_extended_gcd(f, g)
        assert s * f + t * g == d
        if not d.is_zero():
            assert d.leading() == 1
            # d divides both inputs
            for h in (f, g):
                if not h.is_zero():
                    assert poly_divrem(h, d)[1].is_zero()


def test_gcd_of_common_multiple():
    rng = random.Random(13)
    for _ in range(100):
        a, b, c = rand_poly(rng, 3), rand_poly(rng, 3), rand_poly(rng, 2)
        if c.is_zero():
            continue
        g = poly_gcd(a * c, b * c)
        if not g.is_zero():
            assert poly_divrem(g, c.monic())[1].is_zero()


def test_poly_compose_and_eval():
    f = P(0, 1)  # Z
    phi = P(0, 1, 1)  # Z + Z^2
    assert f.compose(phi) == phi
    g = P(1, 2, 1)
    x = Fraction(3, 2)
    assert g.compose(phi).eval(x) == g.eval(phi.eval(x))


def test_ratfunc_canonical_and_arith():
    one_plus = P(1, 1)
    one_minus = P(1, -1)
    f = RatFunc(one_plus * one_minus, one_minus)  # reduces to 1 + X
    assert f.is_poly() and f.num == one_plus
    a = RatFunc(P(0, 1), P(1, 1))  # X/(1+X)
    b = RatFunc(P(1), P(1, 1))  # 1/(1+X)
    assert a + b == RatFunc(P(1))
    assert (a * b).den == one_plus * one_plus
    assert (a / a) == RatFunc(P(1))
    assert -a + a == RatFunc(Poly())


def test_solve_int_combination():
    rows = [(4, 0), (6, 0)]
    sol = solve_int_combination(rows, (2, 0))
    assert sol is not None
    assert sum(c * r[0] for c, r in zip(sol, rows)) == 2

    rows = [(2, 0), (0, 2), (1, 1), (-5, 1)]
    for target in [(1, 1), (2, 0), (0, 2), (3, 1)]:
        sol = solve_int_combination(rows, target)
        assert sol is not None
        got = (
            sum(c * r[0] for c, r in zip(sol, rows)),
            sum(c * r[1] for c, r in zip(sol, rows)),
        )
        assert got == target
    assert solve_int_combination(rows, (1, 0)) is None  # odd lattice parity


def test_solve_int_combination_random():
    rng = random.Random(3)
    for _ in range(200):
        rows = [
            (rng.randrange(-9, 10), rng.randrange(-9, 10))
            for _ in range(rng.randrange(1, 5))
        ]
        coeffs = [rng.randrange(-4, 5) for _ in rows]
        target = (
            sum(c * r[0] for c, r in zip(coeffs, rows)),
            sum(c * r[1] for c, r in zip(coeffs, rows)),
        )
        sol = solve_int_combination(rows, target)
        assert sol is not None
        got = (
            sum(c * r[0] for c, r in zip(sol, rows)),
            sum(c * r[1] for c, r in zip(sol, rows)),
        )
        assert got == target
