"""Exact arithmetic in the rational coordinate ring of the 2-sphere,
Q[X0,X1,X2]/(X0^2+X1^2+X2^2-1), and the rank-2 tangent projector.

The defining relation is monic of degree 2 in X0, so every element has a
unique representative f + g*X0 with f, g in Q[X1,X2]; reduction never needs
Groebner machinery.  Divisibility goes through the conjugation norm
N(f + g*X0) = f^2 - g^2*(1-X1^2-X2^2), which is multiplicative and zero
only at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import CertificateError, RingElem, RingHandle


class SphereError(ValueError):
    pass


def _key(mono):
    # graded lex on (total degree, then exponents)
    return (mono[0] + mono[1], mono[0], mono[1])


class Poly2(RingElem):
    """Bivariate polynomial over Q with exact Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        merged: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in terms:
            c = Fraction(c)
            if c == 0:
                continue
            k = (int(i), int(j))
            v = merged.get(k, Fraction(0)) + c
            if v:
                merged[k] = v
            else:
                del merged[k]
        self.terms = dict(sorted(merged.items(), key=lambda kv: _key(kv[0])))

    @classmethod
    def const(cls, c):
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var(cls, idx: int):
        if idx == 1:
            return cls({(1, 0): Fraction(1)})
        if idx == 2:
            return cls({(0, 1): Fraction(1)})
        raise SphereError("Poly2 variables are X1 and X2")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly2):
            return self.terms == other.terms
        if other == 0:
            return not self.terms
        return self.terms == {(0, 0): Fraction(other)}

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def _lift(self, other):
        if isinstance(other, Poly2):
            return other
        return Poly2.const(other)

    def __add__(self, other):
        o = self._lift(other)
        out = dict(self.terms)
        for k, c in o.terms.items():
            v = out.get(k, Fraction(0)) + c
            if v:
                out[k] = v
            else:
                del out[k]
        return Poly2(out)

    def __neg__(self):
        return Poly2({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        o = self._lift(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in o.terms.items():
                k = (i1 + i2, j1 + j2)
                v = out.get(k, Fraction(0)) + c1 * c2
                if v:
                    out[k] = v
                else:
                    del out[k]
        return Poly2(out)

    def _one(self):
        return Poly2.const(1)

    def leading(self):
        mono = max(self.terms, key=_key)
        return mono, self.terms[mono]

    def divrem(self, g: "Poly2") -> tuple["Poly2", "Poly2"]:
        """Multivariate division by the single divisor g: self = q*g + r and
        no monomial of r is divisible by the leading monomial of g.  Since a
        one-element set is trivially a Groebner basis of its ideal, r == 0
        exactly when g divides self."""
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        gm, gc = g.leading()
        q: dict[tuple[int, int], Fraction] = {}
        r: dict[tuple[int, int], Fraction] = {}
        p = Poly2(self.terms)
        while p.terms:
            pm, pc = p.leading()
            if pm[0] >= gm[0] and pm[1] >= gm[1]:
                mono = (pm[0] - gm[0], pm[1] - gm[1])
                coef = pc / gc
                q[mono] = q.get(mono, Fraction(0)) + coef
                p = p - Poly2({mono: coef}) * g
            else:
                r[pm] = pc
                p = p - Poly2({pm: pc})
        return Poly2(q), Poly2(r)

    def exact_div(self, g: "Poly2") -> "Poly2 | None":
        q, r = self.divrem(g)
        return q if r.is_zero() else None

    def to_str(self, v1="X1", v2="X2") -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in self.terms.items():
            mono = "*".join(
                ([f"{v1}^{i}" if i > 1 else v1] if i else [])
                + ([f"{v2}^{j}" if j > 1 else v2] if j else [])
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly2({self.to_str()})"


# 1 - X1^2 - X2^2, what X0^2 reduces to
X0_SQUARED = Poly2({(0, 0): Fraction(1), (2, 0): Fraction(-1), (0, 2): Fraction(-1)})


class SphereElem(RingElem):
    """Canonical representative f + g*X0, f and g bivariate in X1, X2."""

    __slots__ = ("f", "g")

    def __init__(self, f: Poly2, g: Poly2 = Poly2()):
        self.f = f
        self.g = g

    @classmethod
    def const(cls, c):
        return cls(Poly2.const(c))

    @classmethod
    def from_trivariate(cls, terms) -> "SphereElem":
        """Reduce a polynomial in X0, X1, X2 (terms {(e0,e1,e2): c}) modulo
        X0^2 -> 1 - X1^2 - X2^2."""
        f, g = Poly2(), Poly2()
        if isinstance(terms, dict):
            terms = terms.items()
        for (e0, e1, e2), c in terms:
            part = Poly2({(e1, e2): c}) * X0_SQUARED ** (e0 // 2)
            if e0 % 2:
                g = g + part
            else:
                f = f + part
        return cls(f, g)

    def _lift(self, other):
        if isinstance(other, SphereElem):
            return other
        return SphereElem.const(other)

    def __add__(self, other):
        o = self._lift(other)
        return SphereElem(self.f + o.f, self.g + o.g)

    def __neg__(self):
        return SphereElem(-self.f, -self.g)

    def __mul__(self, other):
        o = self._lift(other)
        return SphereElem(
            self.f * o.f + self.g * o.g * X0_SQUARED,
            self.f * o.g + self.g * o.f,
        )

    def _one(self):
        return SphereElem.const(1)

    def __eq__(self, other):
        o = self._lift(other)
        return self.f == o.f and self.g == o.g

    def __hash__(self):
        return hash((self.f, self.g))

    def __bool__(self):
        return bool(self.f) or bool(self.g)

    def conj(self) -> "SphereElem":
        return SphereElem(self.f, -self.g)

    def norm(self) -> Poly2:
        return self.f * self.f - self.g * self.g * X0_SQUARED

    def to_str(self) -> str:
        if not self.g:
            return self.f.to_str()
        gpart = f"({self.g.to_str()})*X0"
        if not self.f:
            return gpart
        return f"{self.f.to_str()} + {gpart}"

    def __repr__(self):
        return f"SphereElem({self.to_str()})"


class SphereRing(RingHandle):
    """Ring handle for the rational 2-sphere coordinate ring."""

    family = "sphere"

    @property
    def zero(self):
        return SphereElem(Poly2())

    @property
    def one(self):
        return SphereElem.const(1)

    def x(self, idx: int) -> SphereElem:
        if idx == 0:
            return SphereElem(Poly2(), Poly2.const(1))
        return SphereElem(Poly2.var(idx))

    def coerce(self, v):
        if isinstance(v, SphereElem):
            return v
        return SphereElem.const(v)

    def divides(self, b: SphereElem, a: SphereElem):
        if not b:
            return self.zero if not a else None
        n = b.norm()
        w = a * b.conj()
        qf = w.f.exact_div(n)
        if qf is None:
            return None
        qg = w.g.exact_div(n)
        if qg is None:
            return None
        return SphereElem(qf, qg)

    def is_unit(self, x) -> bool:
        return (
            isinstance(x, SphereElem)
            and not x.g
            and bool(x.f)
            and set(x.f.terms) == {(0, 0)}
        )

    def to_json(self):
        return {"family": "sphere"}

    def __str__(self):
        return "B2"


B2 = SphereRing()


@dataclass
class ProjectorReport:
    """E = I3 - x^T x with every defining identity checked exactly."""

    matrix: list
    checks: list = field(default_factory=list)

    def verified(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_json(self, enc):
        return {"matrix": enc(self.matrix), "checks": [[name, ok] for name, ok in self.checks]}


def tangent_projector() -> ProjectorReport:
    """The idempotent 3x3 matrix presenting the tangent module as a direct
    summand of B2^3: E^2 == E, E*x^T == 0, x*E == 0, trace(E) == 2, and the
    section identity x*x^T == 1."""
    xs = [B2.x(i) for i in range(3)]
    one = B2.one
    e = [[(one if i == j else B2.zero) - xs[i] * xs[j] for j in range(3)] for i in range(3)]

    checks = []
    esq = [
        [sum((e[i][k] * e[k][j] for k in range(1, 3)), e[i][0] * e[0][j]) for j in range(3)]
        for i in range(3)
    ]
    checks.append(("E*E == E", esq == e))
    ex = [sum((e[i][k] * xs[k] for k in range(1, 3)), e[i][0] * xs[0]) for i in range(3)]
    checks.append(("E*x^T == 0", all(not v for v in ex)))
    xe = [sum((xs[k] * e[k][j] for k in range(1, 3)), xs[0] * e[0][j]) for j in range(3)]
    checks.append(("x*E == 0", all(not v for v in xe)))
    trace = e[0][0] + e[1][1] + e[2][2]
    checks.append(("trace(E) == 2", trace == SphereElem.const(2)))
    xxt = sum((xs[k] * xs[k] for k in range(1, 3)), xs[0] * xs[0])
    checks.append(("x*x^T == 1", xxt == one))

    report = ProjectorReport(e, checks)
    if not report.verified():
        raise CertificateError("projector identities failed (bug)")
    return report
