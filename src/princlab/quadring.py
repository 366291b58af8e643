"""Imaginary quadratic orders Z[sqrt(d)] (d < 0 squarefree): element and
two-generated ideal arithmetic, invertibility and principality decisions,
and prime factorization of principal ideals in the maximal-order case.

Ideals are stored as Z-lattices over the basis {1, sqrt(d)} in Hermite
normal form [(n, 0), (c, m)] with 0 <= c < n; the ideal norm is the index
n*m.  All decisions return re-checkable certificates, and each certificate
type serializes itself (`to_json(enc)`).  The ring handle `QuadOrder`
carries the ideal-theoretic hooks the engines call (see `rings`).
`InvertibilityCert` and `PrincipalityVerdict` are plain classes with an
explicit `__init__`; see `core` for why not dataclasses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .core import (CertificateError, RingElem, RingHandle, factorint, hnf2_with_transform,
                   solve_int_combination, sqrt_mod_prime)


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
    """x + y*sqrt(d) with integer coordinates."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x: int, y: int, d: int):
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

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            return (self.x, self.y, self.d) == (other.x, other.y, other.d)
        if isinstance(other, int):
            return self.y == 0 and self.x == other
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y, self.d))

    def __bool__(self):
        return bool(self.x or self.y)

    def conj(self) -> "QuadElem":
        return QuadElem(self.x, -self.y, self.d)

    def norm(self) -> int:
        return self.x * self.x - self.d * self.y * self.y

    def is_unit(self) -> bool:
        return self.norm() == 1

    def to_rat(self) -> "QuadRat":
        return QuadRat(Fraction(self.x), Fraction(self.y), self.d)

    def __repr__(self):
        return f"QuadElem({self})"

    def __str__(self):
        if self.y == 0:
            return str(self.x)
        ypart = f"{self.y}*sqrt({self.d})"
        if self.x == 0:
            return ypart
        sign = "+" if self.y > 0 else "-"
        return f"{self.x}{sign}{abs(self.y)}*sqrt({self.d})"


class QuadRat(RingElem):
    """Fraction-field variant: x + y*sqrt(d) with rational coordinates."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x, y, d: int):
        self.x = Fraction(x)
        self.y = Fraction(y)
        self.d = d

    def _lift(self, other) -> "QuadRat":
        if isinstance(other, QuadRat):
            if other.d != self.d:
                raise QuadError("mixed quadratic orders")
            return other
        if isinstance(other, QuadElem):
            return other.to_rat()
        if isinstance(other, (int, Fraction)):
            return QuadRat(other, 0, self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadRat(self.x + o.x, self.y + o.y, self.d)

    def __neg__(self):
        return QuadRat(-self.x, -self.y, self.d)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadRat(
            self.x * o.x + self.d * self.y * o.y,
            self.x * o.y + self.y * o.x,
            self.d,
        )

    def _one(self):
        return QuadRat(1, 0, self.d)

    def __truediv__(self, other):
        o = self._lift(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        num = self * o.conj()
        return QuadRat(num.x / n, num.y / n, self.d)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __eq__(self, other):
        if isinstance(other, (QuadRat, QuadElem)):
            o = self._lift(other)
            return (self.x, self.y) == (o.x, o.y)
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y, self.d))

    def __bool__(self):
        return bool(self.x or self.y)

    def conj(self) -> "QuadRat":
        return QuadRat(self.x, -self.y, self.d)

    def norm(self) -> Fraction:
        return self.x * self.x - self.d * self.y * self.y

    def to_int_elem(self) -> QuadElem | None:
        if self.x.denominator == 1 and self.y.denominator == 1:
            return QuadElem(int(self.x), int(self.y), self.d)
        return None

    def __repr__(self):
        return f"QuadRat({self.x}+{self.y}*sqrt({self.d}))"


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

    def coordinates(self, e: QuadElem) -> tuple[int, int] | None:
        """(alpha, beta) with e == alpha*basis[0] + beta*basis[1], if any."""
        if e.y % self.m:
            return None
        beta = e.y // self.m
        rx = e.x - beta * self.c
        if rx % self.n:
            return None
        return rx // self.n, beta

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
                 product_generator: QuadElem | None = None, reason: str = ""):
        self.invertible = invertible
        # when invertible: I * cofactor == (product_generator), a principal ideal
        self.cofactor = cofactor
        self.product_generator = product_generator
        # when not: the extra multiplier (1+sqrt(d))/2 that stabilizes the lattice
        self.reason = reason

    def __bool__(self):
        return self.invertible

    def to_json(self, enc):
        return {
            "invertible": self.invertible,
            "cofactor": enc(self.cofactor),
            "product_generator": enc(self.product_generator),
            "reason": self.reason,
        }


def ideal_is_invertible(i: QuadIdeal) -> InvertibilityCert:
    """Decide (I : I) == Z[sqrt(d)]; conjugate-cofactor certificate when true."""
    d = i.d
    if d % 4 == 1:
        # the only strictly larger order is Z[(1+sqrt(d))/2]; check whether
        # that extra element stabilizes the lattice
        omega_stable = True
        for u in i.basis:
            w = u + u * QuadElem(0, 1, d)  # 2*omega*u
            if w.x % 2 or w.y % 2 or not i.contains(QuadElem(w.x // 2, w.y // 2, d)):
                omega_stable = False
                break
        if omega_stable:
            return InvertibilityCert(
                False, reason="(1+sqrt(d))/2 multiplies the ideal into itself"
            )
    cof = i.conjugate()
    g = QuadElem(i.norm(), 0, d)
    if i.mul(cof) != principal_ideal(g):
        raise CertificateError("invertibility certificate failed to verify")
    return InvertibilityCert(True, cofactor=cof, product_generator=g)


def norm_solutions(N: int, d: int) -> list[tuple[int, int]]:
    """All (x, y) with x*x - d*y*y == N (d < 0), in generator scan order."""
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
    out.sort(key=_generator_rank)
    return out


def _generator_rank(xy):
    x, y = xy
    return (x * x, y * y, 0 if x > 0 or (x == 0 and y > 0) else 1, -x, -y)


class PrincipalityVerdict:
    def __init__(self, status: str, ideal: QuadIdeal, search: list, generator: QuadElem | None = None,
                 basis_quotients: tuple[QuadElem, QuadElem] | None = None,
                 generator_coordinates: tuple[int, int] | None = None):
        self.status = status  # "principal" | "non_principal" | "not_invertible"
        self.ideal = ideal
        # search transcript: every norm-equation solution with its outcome
        self.search = search
        self.generator = generator
        # two-way membership certificate for a principal verdict
        self.basis_quotients = basis_quotients
        self.generator_coordinates = generator_coordinates

    @property
    def principal(self) -> bool:
        return self.status == "principal"

    def to_json(self, enc):
        coords = self.generator_coordinates
        return {
            "ideal": enc(self.ideal),
            "status": self.status,
            "generator": enc(self.generator),
            "basis_quotients": enc(self.basis_quotients),
            "generator_coordinates": None if coords is None else [str(c) for c in coords],
            "search": [{"x": str(s["x"]), "y": str(s["y"]), "generates": s["generates"]} for s in self.search],
        }


def ideal_is_principal(i: QuadIdeal) -> PrincipalityVerdict:
    """Exhaustive positive-definite norm search for a generator of I.

    A candidate g with N(g) == N(I) generates I exactly when g lies in I:
    then (g) is inside I with the same index.  The two basis quotients are
    the certificate that I is inside (g)."""
    validate_d(i.d)
    if not ideal_is_invertible(i):
        # principal ideals are invertible, so no search is needed
        return PrincipalityVerdict("not_invertible", i, [])
    N = i.norm()
    transcript = []
    for x, y in norm_solutions(N, i.d):
        g = QuadElem(x, y, i.d)
        coords = i.coordinates(g)
        if coords is not None:
            q1 = divides(g, i.basis[0])
            q2 = divides(g, i.basis[1])
            if q1 is None or q2 is None:
                raise CertificateError("principality certificate failed to verify")
            transcript.append({"x": x, "y": y, "generates": True})
            return PrincipalityVerdict(
                "principal",
                i,
                transcript,
                generator=g,
                basis_quotients=(q1, q2),
                generator_coordinates=coords,
            )
        transcript.append({"x": x, "y": y, "generates": False})
    return PrincipalityVerdict("non_principal", i, transcript)


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
    prod = principal_ideal(QuadElem(1, 0, d))
    for P, e in out:
        prod = prod.mul(P.pow(e))
    if prod != target:
        raise CertificateError("prime factorization failed to re-multiply to (b)")
    return out


def combination(a: QuadElem, b: QuadElem, target: QuadElem) -> tuple[QuadElem, QuadElem] | None:
    """lam, mu in the order with lam*a + mu*b == target, when target lies in (a, b)."""
    d = a.d
    rows = []
    for g in (a, b):
        for mult in (QuadElem(1, 0, d), QuadElem(0, 1, d)):
            ge = g * mult
            rows.append((ge.x, ge.y))
    sol = solve_int_combination(rows, (target.x, target.y))
    if sol is None:
        return None
    lam = QuadElem(sol[0], sol[1], d)
    mu = QuadElem(sol[2], sol[3], d)
    if lam * a + mu * b != target:
        raise CertificateError("Bezout certificate failed to verify")
    return lam, mu


class QuadOrder(RingHandle):
    """Ring handle for Z[sqrt(d)], d < 0 squarefree."""

    family = "quad"

    def __init__(self, d: int):
        self.d = validate_d(d)

    @property
    def zero(self):
        return QuadElem(0, 0, self.d)

    @property
    def one(self):
        return QuadElem(1, 0, self.d)

    def coerce(self, v):
        if isinstance(v, QuadElem):
            if v.d != self.d:
                raise QuadError("mixed quadratic orders")
            return v
        if isinstance(v, int):
            return QuadElem(v, 0, self.d)
        raise QuadError(f"cannot coerce {v!r} into {self}")

    def divides(self, b, a):
        if not b:
            return self.zero if not a else None
        return divides(b, a)

    def is_unit(self, x) -> bool:
        return isinstance(x, QuadElem) and x.is_unit()

    # fraction-field support for Lemma-style certificates
    def field_coerce(self, v):
        if isinstance(v, QuadRat):
            return v
        if isinstance(v, QuadElem):
            return v.to_rat()
        return QuadRat(Fraction(v), Fraction(0), self.d)

    def from_field(self, q):
        q = self.field_coerce(q)
        elem = q.to_int_elem()
        if elem is None:
            raise QuadError(f"element has non-integer coordinates ({q.x}, {q.y})")
        return elem

    def field_sqrt(self, d):
        if d != self.d:
            raise QuadError(f"sqrt({d}) does not live in {self}")
        return QuadRat(Fraction(0), Fraction(1), d)

    # ideal-theoretic hooks for the engines (see `rings`)
    def inverse_bezout(self, a, b):
        ideal = ideal_from_pair(a, b)
        n = ideal.norm()
        conj = ideal.conjugate()
        inv_basis = conj.basis  # scaled by 1/n these span I^{-1}
        rows = []
        for g in (a, b):
            for u in inv_basis:
                gu = g * u
                rows.append((gu.x, gu.y))
        sol = solve_int_combination(rows, (n, 0))
        if sol is None:
            return None
        lam = QuadRat(Fraction(sol[0] * inv_basis[0].x + sol[1] * inv_basis[1].x, n),
                      Fraction(sol[0] * inv_basis[0].y + sol[1] * inv_basis[1].y, n),
                      self.d)
        mu = QuadRat(Fraction(sol[2] * inv_basis[0].x + sol[3] * inv_basis[1].x, n),
                     Fraction(sol[2] * inv_basis[0].y + sol[3] * inv_basis[1].y, n),
                     self.d)
        return lam, mu

    def complement_check(self, f, s):
        if not s:
            return not f * (self.one - f)
        return ideal_from_pair(f, s).mul(ideal_from_pair(self.one - f, s)) == principal_ideal(s)

    def prime_support(self, b):
        return sorted(factor_principal(b), key=lambda pe: (pe[0].norm(), pe[0].key()))

    def principal_generator(self, ideal):
        return ideal_is_principal(ideal).generator

    def principal_bezout(self, a, b):
        verdict = ideal_is_principal(ideal_from_pair(a, b))
        if not verdict.principal:
            return None, None, None, verdict
        cert = combination(a, b, verdict.generator)
        if cert is None:
            raise CertificateError("generator not reachable from the pair (bug)")
        return verdict.generator, *cert, verdict

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
