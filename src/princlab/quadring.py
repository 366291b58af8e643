"""Imaginary quadratic orders Z[sqrt(d)] (d < 0 squarefree): element and
two-generated ideal arithmetic, invertibility and principality decisions,
and prime factorization of principal ideals in the maximal-order case.

One class, `QuadElem`, holds x + y*sqrt(d) in the order (int coordinates)
and in Q(sqrt(d)) (Fraction coordinates); `QuadOrder.coerce`, `is_unit` and
`divides` accept only the int form.  A negative power of a nonzero element
is taken in Q(sqrt(d)).

Ideals are stored as Z-lattices over the basis {1, sqrt(d)} in Hermite
normal form [(n, 0), (c, m)] with 0 <= c < n; the ideal norm is the index
n*m.  The ideal m*[n', c' + sqrt(d)] (n = m*n', c = m*c') maps to the binary
quadratic form (n', 2c', (c'^2 - d)/n') of discriminant 4d, and ideal classes
are decided on forms (Cohen, GTM 138, sections 5.2-5.4): `reduce_form`
finds the one reduced form of a class with its SL2(Z) transform, and
`compose_forms` is the group law.  Principality is a reduction, not a
search over the elements of the ideal's norm: its cost grows with the
number of digits of the norm.  Invertibility is decided by
I * conj(I) == (N(I)).  All decisions return re-checkable certificates, and
each certificate type serializes itself (`to_json(enc)`); `recheck` checks
them, and nothing here re-multiplies its own.
The ring handle `QuadOrder` carries the ideal-theoretic hooks the engines
call (see `rings`), the class-group ones among them.  One lattice solve,
`combination`, serves its three Bezout hooks.
`InvertibilityCert` and `PrincipalityVerdict` are plain classes with an
explicit `__init__`; see `core` for why not dataclasses.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .core import (CertificateError, RingElem, RingHandle, factorint, hnf2_with_transform,
                   solve_int_combination, sqrt_mod_prime, xgcd)
from .rational import Fraction


class QuadError(ValueError):
    pass


@lru_cache(maxsize=None)
def validate_d(d: int) -> int:
    if d >= 0:
        raise QuadError(f"unsupported d={d}: only imaginary orders (d < 0)")
    if any(e > 1 for e in factorint(-d).values()):
        raise QuadError(f"d={d} is not squarefree")
    return d


def is_maximal(d: int) -> bool:
    # Z[sqrt(d)] is the full ring of integers exactly when d is 2 or 3 mod 4
    return d % 4 in (2, 3)


class QuadElem(RingElem):
    """x + y*sqrt(d): int coordinates in Z[sqrt(d)], Fractions in Q(sqrt(d)).
    A Fraction scalar lifts to Fractions in both slots, so arithmetic with a
    field value, and `/`, give Fraction coordinates.  Reports tag the int
    form "quad" and the other "quadrat"."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x, y, d: int):
        self.x = x
        self.y = y
        self.d = d

    def _lift(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise QuadError("mixed quadratic orders")
            return other
        if isinstance(other, int):
            return QuadElem(other, 0, self.d)
        if isinstance(other, Fraction):
            return QuadElem(other, Fraction(0), self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(self.x + o.x, self.y + o.y, self.d)

    def __neg__(self):
        return QuadElem(-self.x, -self.y, self.d)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(
            self.x * o.x + self.d * self.y * o.y,
            self.x * o.y + self.y * o.x,
            self.d,
        )

    def _one(self):
        return QuadElem(1, 0, self.d)

    def _invert(self):
        # the inverse in Q(sqrt(d)); a ZeroDivisionError for 0
        return self._one() / self

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        n = Fraction(o.norm())
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        num = self * o.conj()
        return QuadElem(num.x / n, num.y / n, self.d)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else o / self

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            return (self.x, self.y, self.d) == (other.x, other.y, other.d)
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y, self.d))

    def __bool__(self):
        return bool(self.x or self.y)

    def in_order(self) -> bool:
        """Whether this is an element of Z[sqrt(d)]: both coordinates ints."""
        return type(self.x) is int and type(self.y) is int

    def conj(self) -> "QuadElem":
        return QuadElem(self.x, -self.y, self.d)

    def norm(self):
        return self.x * self.x - self.d * self.y * self.y

    def is_unit(self) -> bool:
        return self.in_order() and self.norm() == 1

    def json(self):
        if self.in_order():
            return {"type": "quad", "x": str(self.x), "y": str(self.y), "d": str(self.d)}
        return {"type": "quadrat", "x": str(self.x), "y": str(self.y), "d": str(self.d)}


def divides(b: QuadElem, a: QuadElem):
    """Quotient q with a == b*q when it exists in Z[sqrt(d)], else None."""
    if not b:
        raise ZeroDivisionError("division by zero element")
    n = b.norm()
    num = a * b.conj()
    if num.x % n or num.y % n:
        return None
    return QuadElem(num.x // n, num.y // n, a.d)


class QuadIdeal:
    """Nonzero ideal of Z[sqrt(d)] in lattice normal form."""

    __slots__ = ("d", "n", "c", "m")

    def __init__(self, d: int, n: int, c: int, m: int):
        self.d = d
        self.n = n
        self.c = c
        self.m = m

    @property
    def basis(self) -> tuple[QuadElem, QuadElem]:
        return QuadElem(self.n, 0, self.d), QuadElem(self.c, self.m, self.d)

    def norm(self) -> int:
        return self.n * self.m

    def contains(self, e: QuadElem) -> bool:
        if e.d != self.d:
            raise QuadError("mixed quadratic orders")
        if e.y % self.m:
            return False
        k = e.y // self.m
        return (e.x - k * self.c) % self.n == 0

    def contains_ideal(self, other: "QuadIdeal") -> bool:
        return all(self.contains(v) for v in other.basis)

    def key(self):
        return (self.d, self.n, self.c, self.m)

    def __eq__(self, other):
        return isinstance(other, QuadIdeal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def mul(self, other: "QuadIdeal") -> "QuadIdeal":
        if other.d != self.d:
            raise QuadError("mixed quadratic orders")
        vecs = []
        for u in self.basis:
            for v in other.basis:
                p = u * v
                vecs.append((p.x, p.y))
        return _from_vectors(self.d, vecs)

    def conjugate(self) -> "QuadIdeal":
        return _from_vectors(self.d, [(self.n, 0), (self.c, -self.m)])

    def pow(self, e: int) -> "QuadIdeal":
        result = principal_ideal(QuadElem(1, 0, self.d))
        for _ in range(e):
            result = result.mul(self)
        return result

    # `*` and `**` let comax build block ideals of Z[sqrt(d)] the way it
    # builds those of Z, where an ideal is its generator (an int)
    __mul__ = mul
    __pow__ = pow

    def json(self):
        return {"type": "quadideal", "d": str(self.d), "basis": [[str(self.n), "0"], [str(self.c), str(self.m)]]}

    def __repr__(self):
        return f"QuadIdeal(d={self.d}, basis=[({self.n},0),({self.c},{self.m})])"


def _from_vectors(d: int, vecs) -> QuadIdeal:
    (n, _), (c, m), _, _ = hnf2_with_transform(vecs)
    if n <= 0 or m <= 0:
        raise QuadError("zero ideal")
    ideal = QuadIdeal(d, n, c % n, m)
    # sanity: the span must be closed under multiplication by sqrt(d)
    for v in ideal.basis:
        if not ideal.contains(v * QuadElem(0, 1, d)):
            raise CertificateError("lattice is not an ideal (not sqrt(d)-stable)")
    return ideal


def ideal_from_pair(a: QuadElem, b: QuadElem) -> QuadIdeal:
    """Normal form of the ideal (a, b); raises QuadError on the zero ideal."""
    if a.d != b.d:
        raise QuadError("mixed quadratic orders")
    validate_d(a.d)
    if not a and not b:
        raise QuadError("zero ideal")
    sqrtd = QuadElem(0, 1, a.d)
    vecs = []
    for g in (a, b):
        if g:
            vecs.append((g.x, g.y))
            gs = g * sqrtd
            vecs.append((gs.x, gs.y))
    return _from_vectors(a.d, vecs)


def principal_ideal(g: QuadElem) -> QuadIdeal:
    return ideal_from_pair(g, QuadElem(0, 0, g.d))


class InvertibilityCert:
    def __init__(self, invertible: bool, cofactor: QuadIdeal | None = None,
                 product_generator: QuadElem | None = None):
        self.invertible = invertible
        # when invertible: I * cofactor == (product_generator), a principal ideal
        self.cofactor = cofactor
        self.product_generator = product_generator

    def __bool__(self):
        return self.invertible

    def to_json(self, enc):
        return {
            "invertible": self.invertible,
            "cofactor": enc(self.cofactor),
            "product_generator": enc(self.product_generator),
        }


def ideal_is_invertible(i: QuadIdeal) -> InvertibilityCert:
    """Decide (I : I) == Z[sqrt(d)]: exactly when I * conj(I) == (N(I)) (Cox,
    Primes of the Form x^2 + ny^2, section 7), with conj(I) the cofactor."""
    cofactor, norm = i.conjugate(), QuadElem(i.norm(), 0, i.d)
    if i.mul(cofactor) != principal_ideal(norm):
        return InvertibilityCert(False)
    return InvertibilityCert(True, cofactor=cofactor, product_generator=norm)


def norm_solutions(N: int, d: int) -> list[tuple[int, int]]:
    """All (x, y) with x*x - d*y*y == N (d < 0).  The witness hunt's element
    scan (`QuadOrder.associates_of_norm`) is its only caller; principality
    goes through `reduce_form`."""
    out = []
    ad = -d
    y = 0
    while ad * y * y <= N:
        rem = N - ad * y * y
        x = isqrt(rem)
        if x * x == rem:
            xs = (x, -x) if x else (0,)
            ys = (y, -y) if y else (0,)
            for sx in xs:
                for sy in ys:
                    out.append((sx, sy))
        y += 1
    return out


def _generator_rank(xy):
    x, y = xy
    return (x * x, y * y, 0 if x > 0 or (x == 0 and y > 0) else 1, -x, -y)


def _first_associate(x: int, y: int, d: int) -> QuadElem:
    """The associate of x + y*sqrt(d) that `_generator_rank` ranks first.
    The units are +-1, and also +-sqrt(-1) when d == -1."""
    associates = [(x, y), (-x, -y)]
    if d == -1:
        associates += [(-y, x), (y, -x)]
    return QuadElem(*min(associates, key=_generator_rank), d)


def ideal_form(i: QuadIdeal) -> tuple[int, int, int]:
    """The form (n', 2c', (c'^2 - d)/n') of I = m*[n', c' + sqrt(d)], of
    discriminant 4d: its value at (x, y) is N(x*n' + y*(c' + sqrt(d)))/n'.
    An ideal's m divides n and c, and n' divides c'^2 - d, because I is
    closed under multiplication by sqrt(d)."""
    n, c = i.n // i.m, i.c // i.m
    return n, 2 * c, (c * c - i.d) // n


def reduce_form(a: int, b: int, c: int):
    """Gauss reduction of the positive definite form (a, b, c) (Cohen, GTM
    138, section 5.3): returns the reduced form (|b| <= a <= c, and b >= 0
    when |b| == a or a == c), the SL2(Z) transform (p, q, r, s) with
    f(p*x + q*y, r*x + s*y) the reduced form, and one (p, r, a) per swap: the
    transform's first column and the leading coefficient it brings to the
    front.  Each class of forms has exactly one reduced form."""
    p, q, r, s = 1, 0, 0, 1
    swaps = []
    while True:
        t = (a - b) // (2 * a)  # b + 2at in (-a, a]
        if t:
            b, c = b + 2 * a * t, (a * t + b) * t + c
            q, s = q + t * p, s + t * r
        if a < c or (a == c and b >= 0):
            return (a, b, c), (p, q, r, s), swaps
        a, b, c = c, -b, a
        p, q, r, s = q, -p, s, -r
        swaps.append((p, r, a))


def compose_forms(f1, f2) -> tuple[int, int, int]:
    """The reduced Gauss composition of two primitive positive definite
    forms of one discriminant (Cohen, GTM 138, algorithm 5.4.7)."""
    (a1, b1, c1), (a2, b2, c2) = sorted((f1, f2))
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, y1, _ = xgcd(a2, a1)
    if s % d == 0:
        x2, y2, d1 = 0, -1, d
    else:
        d1, x2, v = xgcd(s, d)
        y2 = -v
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    return reduce_form(v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1)[0]


class PrincipalityVerdict:
    def __init__(self, status: str, ideal: QuadIdeal, search: list, generator: QuadElem | None = None,
                 form=None, transform=None, reduced=None):
        self.status = status  # "principal" | "non_principal" | "not_invertible"
        self.ideal = ideal
        # the reduction's steps: the element of I each swap brings to the
        # front, and last, for a principal verdict, the generator
        self.search = search
        self.generator = generator
        # reduction certificate: transform (p, q, r, s) of determinant 1
        # takes the ideal's form to the reduced form
        self.form = form
        self.transform = transform
        self.reduced = reduced

    @property
    def principal(self) -> bool:
        return self.status == "principal"

    def to_json(self, enc):
        cert = None
        if self.form is not None:
            p, q, r, s = self.transform
            cert = {
                "form": [str(v) for v in self.form],
                "transform": [[str(p), str(q)], [str(r), str(s)]],
                "reduced": [str(v) for v in self.reduced],
            }
        return {
            "ideal": enc(self.ideal),
            "status": self.status,
            "generator": enc(self.generator),
            "search": cert,
        }


def ideal_is_principal(i: QuadIdeal) -> PrincipalityVerdict:
    """Decide whether I = m*[n', c' + sqrt(d)] is principal by reducing its
    form (`ideal_form`).  I is principal exactly when the form reduces to
    (1, 0, -d): a generator g == m*(x*n' + y*(c' + sqrt(d))) has norm N(I),
    so f(x, y) == 1, and a form representing 1 is equivalent to (1, 0, -d).
    The generator is the transform's first column, as the associate that
    `_generator_rank` ranks first; it lies in I and has norm N(I), so it
    generates I.  A non-principal verdict carries the transform and the
    reduced form.  Only a non-maximal order needs the invertibility test."""
    d = validate_d(i.d)
    if not is_maximal(d) and not ideal_is_invertible(i):
        # principal ideals are invertible, so no reduction is needed
        return PrincipalityVerdict("not_invertible", i, [])
    form = ideal_form(i)
    reduced, transform, swaps = reduce_form(*form)
    search = [{"x": p * i.n + r * i.c, "y": r * i.m, "generates": False} for p, r, a in swaps if a != 1]
    if reduced != (1, 0, -d):
        return PrincipalityVerdict("non_principal", i, search, form=form, transform=transform, reduced=reduced)
    p, _, r, _ = transform
    g = _first_associate(p * i.n + r * i.c, r * i.m, d)
    search.append({"x": g.x, "y": g.y, "generates": True})
    return PrincipalityVerdict("principal", i, search, generator=g, form=form, transform=transform, reduced=reduced)


class NonMaximalOrderError(QuadError):
    pass


def _prime_above(d: int, p: int):
    """Prime ideals of Z[sqrt(d)] above p, with the splitting type.

    Returns ("ramified", P) | ("inert", (p)) | ("split", P, Pbar).
    Maximal-order case only.
    """
    sqrtd = QuadElem(0, 1, d)
    pelt = QuadElem(p, 0, d)
    if p == 2:
        if d % 2 == 0:
            return "ramified", ideal_from_pair(pelt, sqrtd)
        return "ramified", ideal_from_pair(pelt, QuadElem(1, 1, d))
    if d % p == 0:
        return "ramified", ideal_from_pair(pelt, sqrtd)
    if pow(d % p, (p - 1) // 2, p) == p - 1:
        return ("inert", principal_ideal(pelt))
    u = sqrt_mod_prime(d, p)
    P = ideal_from_pair(pelt, QuadElem(u, 1, d))
    Pbar = ideal_from_pair(pelt, QuadElem(p - u, 1, d))
    return "split", P, Pbar


def factor_principal(b: QuadElem) -> list[tuple[QuadIdeal, int]]:
    """Prime-ideal factorization of (b) in a maximal order Z[sqrt(d)].

    Returns [(P, e)] with prod P^e == (b); rejects non-maximal orders and
    zero/unit inputs.
    """
    d = validate_d(b.d)
    if not is_maximal(d):
        raise NonMaximalOrderError(
            f"Z[sqrt({d})] is not the maximal order (d = 1 mod 4); "
            "prime splitting is not implemented there"
        )
    if not b:
        raise QuadError("cannot factor zero")
    if b.is_unit():
        raise QuadError("cannot factor a unit")
    target = principal_ideal(b)
    out = []
    for p, e in factorint(b.norm()).items():
        split = _prime_above(d, p)
        if split[0] == "ramified":
            out.append((split[1], e))
        elif split[0] == "inert":
            if e % 2:
                raise CertificateError(f"inert prime {p} with odd norm valuation")
            out.append((split[1], e // 2))
        else:
            _, P, Pbar = split
            k = 0
            power = principal_ideal(QuadElem(1, 0, d))
            while k < e:
                power = power.mul(P)
                if not power.contains_ideal(target):
                    break
                k += 1
            if k:
                out.append((P, k))
            if e - k:
                out.append((Pbar, e - k))
    return out


def combination(a: QuadElem, b: QuadElem, target: QuadElem, basis=None) -> tuple[QuadElem, QuadElem] | None:
    """lam, mu in the Z-span of `basis` ({1, sqrt(d)}, the order, by
    default) with lam*a + mu*b == target, when there are any."""
    u, v = basis or (QuadElem(1, 0, a.d), QuadElem(0, 1, a.d))
    rows = []
    for g in (a, b):
        gu, gv = g * u, g * v
        rows += [(gu.x, gu.y), (gv.x, gv.y)]
    sol = solve_int_combination(rows, (target.x, target.y))
    if sol is None:
        return None
    return u * sol[0] + v * sol[1], u * sol[2] + v * sol[3]


class QuadOrder(RingHandle):
    """Ring handle for Z[sqrt(d)], d < 0 squarefree."""

    family = "quad"

    def __init__(self, d: int):
        self.d = validate_d(d)
        # the class of the principal ideals, as a reduced form
        self.class_identity = (1, 0, -d)

    @property
    def zero(self):
        return QuadElem(0, 0, self.d)

    @property
    def one(self):
        return QuadElem(1, 0, self.d)

    def coerce(self, v):
        """v as an element of Z[sqrt(d)]; a QuadError for any value with a
        Fraction coordinate, which lives in Q(sqrt(d)) only."""
        if isinstance(v, QuadElem) and v.in_order():
            if v.d != self.d:
                raise QuadError("mixed quadratic orders")
            return v
        if isinstance(v, int):
            return QuadElem(v, 0, self.d)
        raise QuadError(f"cannot coerce {v!r} into {self}")

    def divides(self, b, a):
        b, a = self.coerce(b), self.coerce(a)
        if not b:
            return self.zero if not a else None
        return divides(b, a)

    def is_unit(self, x) -> bool:
        return isinstance(x, QuadElem) and x.is_unit()

    # the working domain Q(sqrt(d)): both coordinates Fractions
    def field_coerce(self, v):
        x, y = (v.x, v.y) if isinstance(v, QuadElem) else (v, 0)
        return QuadElem(Fraction(x), Fraction(y), self.d)

    def from_field(self, q):
        q = self.field_coerce(q)
        if q.x.denominator != 1 or q.y.denominator != 1:
            raise QuadError(f"element has non-integer coordinates ({q.x}, {q.y})")
        return QuadElem(int(q.x), int(q.y), self.d)

    def field_sqrt(self, d):
        if d != self.d:
            raise QuadError(f"sqrt({d}) does not live in {self}")
        return QuadElem(Fraction(0), Fraction(1), d)

    # ideal-theoretic hooks for the engines (see `rings`)
    def inverse_bezout(self, a, b):
        # conj(I) is N(I) * I^-1 when I is invertible; otherwise nothing reaches N(I)
        ideal = ideal_from_pair(a, b)
        n = ideal.norm()
        sol = combination(a, b, QuadElem(n, 0, self.d), ideal.conjugate().basis)
        return None if sol is None else (sol[0] / n, sol[1] / n)

    def prime_support(self, b):
        return sorted(factor_principal(b), key=lambda pe: (pe[0].norm(), pe[0].key()))

    def principal_generator(self, ideal):
        return ideal_is_principal(ideal).generator

    def ideal_class(self, ideal):
        return reduce_form(*ideal_form(ideal))[0]

    def class_compose(self, f, g):
        return compose_forms(f, g)

    def principal_bezout(self, a, b):
        verdict = ideal_is_principal(ideal_from_pair(a, b))
        if not verdict.principal:
            return None
        cert = combination(a, b, verdict.generator)
        if cert is None:
            raise CertificateError("generator not reachable from the pair (bug)")
        return verdict.generator, *cert

    def unit_bezout(self, a, b):
        return combination(a, b, self.one)

    def sort_key(self, x):
        return (x.norm(), x.x, x.y)

    def associates_of_norm(self, n):
        # one associate of each element of norm n, in lex order.  The units are
        # +-1 (keep y > 0, or y == 0 < x), and also +-i when d == -1 (keep x > 0 <= y).
        if self.d == -1:
            reps = sorted((x, y) for x, y in norm_solutions(n, self.d) if x > 0 <= y)
        else:
            reps = sorted((x, y) for x, y in norm_solutions(n, self.d) if y > 0 or (y == 0 and x > 0))
        return [QuadElem(x, y, self.d) for x, y in reps]

    def to_json(self):
        return {"family": "quad", "d": str(self.d)}

    def __str__(self):
        return f"Z[sqrt({self.d})]"
