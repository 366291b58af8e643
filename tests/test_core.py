import random
import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from princlab import core, poly
from princlab.core import factorint, is_prime, solve_int_combination, sqrt_mod_prime, xgcd
from princlab.poly import Poly, RatFunc, poly_divrem, poly_extended_gcd, poly_gcd
from princlab.quadring import QuadElem
from princlab.rational import Fraction


def test_the_paths_the_tracer_wraps_resolve_to_the_moved_objects():
    # perfbench's traced child wraps core.Poly.__mul__, core.poly_extended_gcd
    # and core.hnf2_with_transform by these paths; the first two live in poly
    from princlab import quadring

    assert core.Poly is poly.Poly and core.poly_extended_gcd is poly.poly_extended_gcd
    assert core.hnf2_with_transform is quadring.hnf2_with_transform
    assert "Poly" not in vars(core) and "poly_extended_gcd" not in vars(core)
    with pytest.raises(AttributeError, match="RatFunc"):
        core.RatFunc


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


def test_small_primes_are_the_trial_division_list():
    assert core._SMALL_PRIMES == [p for p in range(2, 1000) if all(p % q for q in range(2, p))]
    assert core._MR_BASES == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def factorint_or_refusal(n):
    """factorint(n), or the cofactor its ValueError names, checked to be one
    it may refuse: a divisor of n at or above _MR_BOUND that Miller-Rabin
    does not show composite, or a composite that rho does not split within
    its budget."""
    try:
        return factorint(n)
    except ValueError as exc:
        why = str(exc)
    m = int(re.search(r"\d+", why).group())
    assert n % m == 0, (n, why)
    if "too large to prove prime" in why:
        assert m >= core._MR_BOUND and core._is_prime(m), (n, why)
    else:
        assert f"within {core._RHO_STEPS} rho steps" in why, (n, why)
        assert not sympy.isprime(m) and core._pollard_brent(m) is None, (n, why)
    return m


def test_factorint_matches_sympy():
    p12, q12 = sympy.nextprime(10**12), sympy.nextprime(2 * 10**12)
    p14, q14 = sympy.nextprime(10**13), sympy.nextprime(10**14)
    big = sympy.nextprime(core._MR_BOUND)
    # composites rho does not split within its budget, and cofactors at or
    # above the Miller-Rabin bound, whether prime or a strong pseudoprime to
    # every base (_MR_BOUND itself) ...
    assert factorint_or_refusal(p12 * q12) == p12 * q12
    assert factorint_or_refusal(6 * p14 * q14) == p14 * q14
    assert factorint_or_refusal(5 * big) == big
    assert factorint_or_refusal(big**2) == big
    assert factorint_or_refusal(core._MR_BOUND) == core._MR_BOUND
    # ... while rho splits a composite of any size into proven primes, and a
    # perfect power gives its root before rho runs
    p8, p20 = sympy.nextprime(10**8), sympy.nextprime(10**20)
    assert factorint(p8 * p20) == {p8: 1, p20: 1}
    assert factorint(p12**3) == {p12: 3}
    assert factorint(7 * p14**5) == {7: 1, p14: 5}
    assert factorint(p8**2 * 3 * p20 * 10**40) == sympy.factorint(p8**2 * 3 * p20 * 10**40)
    special = [1, 2, 997, 1009**2, 997 * 1009, 561, 3215031751, 2**61 - 1, (2**31 - 1) ** 2 * 3**5,
               sympy.nextprime(10**9) * sympy.nextprime(3 * 10**9), core._MR_BOUND - 1]
    rng = random.Random(1901)
    randoms = [rng.randrange(2, 10 ** rng.randrange(2, 31)) for _ in range(60)]
    for n in special:
        assert factorint(n) == sympy.factorint(n), n
    for n in randoms:
        got = factorint_or_refusal(n)
        assert isinstance(got, int) or got == sympy.factorint(n), n
    with pytest.raises(ValueError):
        factorint(0)


def test_is_prime_matches_sympy():
    for n in list(range(-3, 3000)) + [10**6 - 17, 10**6 + 3, 3215031751, 2**61 - 1, 561 * 1000003]:
        assert is_prime(n) == sympy.isprime(n), n
    with pytest.raises(ValueError, match="too large to prove prime"):
        is_prime(2**89 - 1)


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


# ------------------------------------------- integer kernel vs schoolbook
# The schoolbook loops Poly ran before the integer-vector kernel, kept here as
# the reference.  The kernel must give the same value and the same type for
# every coefficient: all-int vectors give ints, a Fraction operand gives
# Fractions, and mixed, Q(sqrt(d)) and Poly-over-Poly vectors take the loops.


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _div(a, c):
    return Fraction(a, c) if isinstance(a, int) and isinstance(c, int) else a / c


def ref_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _strip(out)


def ref_sub(a, b):
    return ref_add(a, tuple(-c for c in b))


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _strip(out)


def ref_compose(p, f):
    acc = ()
    for c in reversed(p):
        acc = ref_add(ref_mul(acc, f), _strip([c]))
    return acc


def ref_divrem(f, g):
    q, rem, dg, lc = [], list(f), len(g) - 1, g[-1]
    for k in range(len(rem) - 1 - dg, -1, -1):
        c = _div(rem[k + dg], lc)
        q.append(c)
        if c != 0:
            for i, gc in enumerate(g):
                rem[k + i] = rem[k + i] - c * gc
    q.reverse()
    return _strip(q), _strip(rem[:dg] if dg > 0 else ())


def ref_extended_gcd(f, g):
    r0, r1, s0, s1, t0, t1 = f, g, (1,), (), (), (1,)
    while r1:
        q, r = ref_divrem(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, ref_sub(s0, ref_mul(q, s1))
        t0, t1 = t1, ref_sub(t0, ref_mul(q, t1))
    if not r0:
        return r0, s0, t0
    lc = r0[-1]
    return tuple(_strip(_div(c, lc) for c in v) for v in (r0, s0, t0))


def typed(cs):
    return [(type(c), c) for c in cs]


def slot_edges():
    # magnitudes at and next to a slot boundary 2**(w-1), w = 8, 16, ..., 128
    out = []
    for w in (8, 16, 24, 32, 64, 128):
        out += [2 ** (w - 1), 2 ** (w - 1) - 1, 2**w - 1]
    return out + [2**300]


EDGES = slot_edges()
ints = st.one_of(
    st.integers(-9, 9),
    st.just(0),
    st.sampled_from(EDGES + [-e for e in EDGES]),
    st.integers(-(2**300), 2**300),
)
fracs = st.builds(Fraction, ints, st.one_of(st.integers(1, 12), st.sampled_from([2**64, 3**40])))
negs = st.one_of(st.integers(-9, -1), st.sampled_from([-e for e in EDGES]))
RATIONAL_VECTORS = {
    "int": st.lists(ints, max_size=7),
    "fraction": st.lists(fracs, max_size=7),
    "negative int": st.lists(negs, max_size=7),
    "negative fraction": st.lists(negs.map(Fraction), max_size=7),
    "mixed": st.lists(st.one_of(ints, fracs), max_size=7),
}
rational = st.one_of(*RATIONAL_VECTORS.values())
# Q(sqrt(-5)): QuadElem with Fraction coordinates
quad = st.lists(st.builds(lambda x, y: QuadElem(Fraction(x), Fraction(y), -5), st.integers(-3, 3), st.integers(-3, 3)),
                max_size=4)
poly_over_poly = st.lists(st.lists(st.integers(-3, 3), max_size=3).map(Poly), max_size=4)


@pytest.mark.parametrize("kind", list(RATIONAL_VECTORS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_product_and_compose_match_schoolbook(kind, data):
    a = _strip(data.draw(RATIONAL_VECTORS[kind]))
    b = _strip(data.draw(rational))
    for x, y in ((a, b), (b, a), (a, a)):
        assert typed((Poly(x) * Poly(y)).coeffs) == typed(ref_mul(x, y))
        assert typed(Poly(x).compose(Poly(y)).coeffs) == typed(ref_compose(x, y))


@pytest.mark.parametrize("vectors", [quad, poly_over_poly], ids=["QuadRat", "Poly"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generic_coefficients_match_schoolbook(vectors, data):
    a = _strip(data.draw(vectors))
    b = _strip(data.draw(st.one_of(vectors, st.lists(st.integers(-3, 3), max_size=3))))
    for x, y in ((a, b), (b, a)):
        assert typed((Poly(x) * Poly(y)).coeffs) == typed(ref_mul(x, y))
        assert typed(Poly(x).compose(Poly(y)).coeffs) == typed(ref_compose(x, y))


@settings(max_examples=150, deadline=None)
@given(f=rational, g=rational)
def test_kernel_division_and_gcd_match_schoolbook(f, g):
    f, g = _strip(f), _strip(g)
    if g:
        q, r = poly_divrem(Poly(f), Poly(g))
        rq, rr = ref_divrem(f, g)
        assert (typed(q.coeffs), typed(r.coeffs)) == (typed(rq), typed(rr))
    got = poly_extended_gcd(Poly(f), Poly(g))
    assert [typed(v.coeffs) for v in got] == [typed(v) for v in ref_extended_gcd(f, g)]


@settings(max_examples=25, deadline=None)
@given(f=quad, g=quad)
def test_quadratic_gcd_matches_schoolbook(f, g):
    f, g = _strip(f), _strip(g)
    got = poly_extended_gcd(Poly(f), Poly(g))
    assert [typed(v.coeffs) for v in got] == [typed(v) for v in ref_extended_gcd(f, g)]


def test_slot_width_is_tight_at_its_edge():
    # one product coefficient equals the bound 2**(w-1) - 1 exactly, and the
    # slot chosen for it has w bits
    for w in (8, 16, 64, 128):
        edge = 2 ** (w - 1) - 1
        assert poly._slot_bytes(edge) * 8 == w
        for sign in (1, -1):
            a, b = [sign * edge, 0, -sign * edge], [1]
            assert (Poly(a) * Poly(b)).coeffs == tuple(a)
            assert poly._unpack(poly._pack(a, w // 8), w // 8, 3) == a
