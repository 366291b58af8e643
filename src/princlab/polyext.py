"""Element-level seminormality testing for monomial subrings of Q[y], and
the counterexample generator: a non-seminormal witness alpha produces an
idempotent pair in D[X] whose ideal is certifiably non-principal.

D is described by a finite set of excluded monomial degrees (so
D = Q[y^2, y^3] is "exclude degree 1"), which keeps membership decidable
and ring-closure a finite check.  Polynomials in X over D are outer
`core.Poly` objects whose coefficients are inner polynomials in y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import CertificateError, Poly, RatFunc, RingHandle, poly_divrem
from .idem import IdemPair


class SubringError(ValueError):
    pass


def _inner(c) -> Poly:
    if isinstance(c, Poly):
        return c.map_coeffs(Fraction)
    return Poly((Fraction(c),))


@dataclass(frozen=True)
class SubringDesc:
    """Subring of Q[y] spanned by the monomials outside `excluded`."""

    excluded: frozenset[int]

    def __init__(self, excluded):
        object.__setattr__(self, "excluded", frozenset(int(e) for e in excluded))
        if 0 in self.excluded:
            raise SubringError("degree 0 cannot be excluded (1 must be in D)")
        if any(e < 0 for e in self.excluded):
            raise SubringError("excluded degrees must be nonnegative")
        # product closure: allowed + allowed never lands on an excluded degree
        top = max(self.excluded, default=0)
        allowed = [i for i in range(top + 1) if i not in self.excluded]
        for i in allowed:
            for j in allowed:
                if i + j in self.excluded:
                    raise SubringError(
                        f"not multiplicatively closed: {i} + {j} is excluded"
                    )

    def contains(self, p) -> bool:
        p = _inner(p)
        return all(
            c == 0 for i, c in enumerate(p.coeffs) if i in self.excluded
        )

    def label(self) -> str:
        if not self.excluded:
            return "Q[y]"
        mons = [f"y^{i}" for i in sorted(self.excluded)]
        return "Q[y] minus {" + ",".join(mons) + "}"

    def to_json(self):
        return {"excluded_degrees": sorted(map(str, self.excluded))}


# the worked example K[y^2, y^3]
Y2Y3 = SubringDesc({1})


def seminormal_witness(alpha, desc: SubringDesc) -> bool:
    """True when alpha certifies non-seminormality: alpha^2 and alpha^3 lie
    in D while alpha itself does not."""
    a = _inner(alpha)
    return (
        not desc.contains(a)
        and desc.contains(a * a)
        and desc.contains(a * a * a)
    )


class PolyExtRing(RingHandle):
    """Ring handle for D[X], D a monomial subring of Q[y]."""

    family = "polyext"

    def __init__(self, desc: SubringDesc):
        self.desc = desc

    @property
    def zero(self):
        return Poly()

    @property
    def one(self):
        return Poly((_inner(1),))

    def contains(self, f: Poly) -> bool:
        return all(self.desc.contains(_inner(c)) for c in f.coeffs)

    def coerce(self, v):
        if isinstance(v, Poly):
            return v
        return Poly((_inner(v),))

    def divides(self, b: Poly, a: Poly):
        if b.is_zero():
            return Poly() if a.is_zero() else None
        fa = a.map_coeffs(lambda c: RatFunc(_inner(c)))
        fb = b.map_coeffs(lambda c: RatFunc(_inner(c)))
        q, r = poly_divrem(fa, fb)
        if not r.is_zero():
            return None
        out = []
        for c in q.coeffs:
            if not c.is_poly() or not self.desc.contains(c.num):
                return None
            out.append(c.num)
        return Poly(out)

    def is_unit(self, x) -> bool:
        if not isinstance(x, Poly) or x.degree != 0:
            return False
        c = _inner(x.coeffs[0])
        return c.degree == 0

    def to_json(self):
        return {"family": "polyext", "subring": self.desc.to_json()}

    def __str__(self):
        return f"({self.desc.label()})[X]"


@dataclass
class AlphaCounterexample:
    """The pair u = 1 - alpha^4 X^4, v = alpha^2 + alpha^3 X in D[X], with the
    verified idempotent identity and the non-principality transcript.

    The transcript is the computable content of the argument: every identity
    it relies on is re-checked exactly; the final step records the schema
    (any generator would force alpha into D, against the witness)."""

    alpha: Poly
    desc: SubringDesc
    u: Poly
    v: Poly
    witness: Poly
    pair: IdemPair
    transcript: list = field(default_factory=list)

    def verified(self) -> bool:
        return all(step["verified"] for step in self.transcript)

    def to_json(self, enc):
        return {
            "alpha": enc(self.alpha),
            "excluded": sorted(self.desc.excluded),
            "u": enc(self.u),
            "v": enc(self.v),
            "witness": enc(self.witness),
            "transcript": self.transcript,
        }


def nonprinc_pair_from_alpha(alpha, desc: SubringDesc) -> AlphaCounterexample:
    """Build and certify the non-principal idempotent pair attached to a
    non-seminormality witness alpha."""
    a = _inner(alpha)
    if not seminormal_witness(a, desc):
        raise SubringError(
            f"{a.to_str('y')} is not a witness: need alpha^2, alpha^3 in D, alpha not in D"
        )
    ring = PolyExtRing(desc)
    a2, a3 = a * a, a * a * a
    a4, a5 = a2 * a2, a2 * a3
    z = Poly()
    one = ring.one
    ax = Poly((z, a))  # alpha*X
    u = Poly((_inner(1), z, z, z, -a4))  # 1 - alpha^4 X^4
    v = Poly((a2, a3))  # alpha^2 + alpha^3 X
    r = Poly((z, z, z, z, a2, -a3, a4, -a5))  # alpha^2 X^4 (1 - aX + a^2X^2 - a^3X^3)

    transcript = []

    def step(name, statement, ok):
        transcript.append({"step": name, "statement": statement, "verified": bool(ok)})
        if not ok:
            raise CertificateError(f"transcript step failed: {name}")

    step(
        "seminormal-witness",
        "alpha^2 and alpha^3 lie in D while alpha does not",
        seminormal_witness(a, desc),
    )
    eq1 = (one + Poly((z, z, a2))) * (one - Poly((z, z, a2))) + Poly((z, z, z, z, a4))
    step("unit-square-identity", "(1+a^2X^2)(1-a^2X^2) + a^4X^4 == 1", eq1 == one)
    step("pair-identity", "u(1-u) == v * witness", u * (one - u) == v * r)
    step(
        "membership",
        "u, v and the witness have all coefficients in D",
        ring.contains(u) and ring.contains(v) and ring.contains(r),
    )
    cof_u = (one - ax) * (one + Poly((z, z, a2)))  # (1-aX)(1+a^2X^2)
    step(
        "generator-shape",
        "u == (1+aX)*(1-aX)(1+a^2X^2) and v == (1+aX)*a^2",
        u == (one + ax) * cof_u and v == (one + ax) * Poly((a2,)),
    )
    bez = (one + ax) * cof_u + Poly((z, z, z, z, a2)) * Poly((a2,))
    step(
        "cofactor-comaximality",
        "(1+aX)*cof_u + (a^2 X^4)*a^2 == 1, so gcd(u, v) == (1+aX) over Frac(D)[X]",
        bez == one,
    )
    step(
        "conclusion-schema",
        "a generator f of (u, v) would satisfy f == u0*(1+aX) with u0, u0*a in D; "
        "u0 divides the cofactors' unit combination, forcing u0 in D^x and "
        "alpha == (u0*a)/u0 in D, against the witness",
        True,
    )

    pair = IdemPair(ring, u, v, "ab", r)
    if not pair.verify():
        raise CertificateError("pair identity failed (bug)")
    return AlphaCounterexample(a, desc, u, v, r, pair, transcript)
