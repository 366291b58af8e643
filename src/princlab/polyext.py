"""Element-level seminormality testing for monomial subrings of Q[y], and
the counterexample generator: a non-seminormal witness alpha produces an
idempotent pair in D[X] whose ideal is certifiably non-principal.

D is described by a finite set of excluded monomial degrees (so
D = Q[y^2, y^3] is "exclude degree 1"), which keeps membership decidable
and ring-closure a finite check.  Polynomials in X over D are outer
`poly.Poly` objects whose coefficients are inner polynomials in y.

`SubringDesc` and `AlphaCounterexample` are plain classes with an explicit
`__init__`; see `core` for why not dataclasses.  D[X] has no ring handle:
no command computes in it beyond the pair its counterexample writes.
"""

from __future__ import annotations

from .poly import Poly
from .rational import Fraction


class SubringError(ValueError):
    pass


def _inner(c) -> Poly:
    if isinstance(c, Poly):
        return c.map_coeffs(Fraction)
    return Poly((Fraction(c),))


def _unclosed_pair(excluded, top):
    """Two allowed degrees whose sum is excluded, or None; top is the
    largest excluded degree.  With m the least allowed degree (the
    multiplicity), the allowed degrees are closed under + exactly when (a)
    a + m is allowed for every allowed a, and (b) for the least allowed
    degrees w_r, w_s of any two classes mod m, w_r + w_s is allowed: by (a)
    each class's allowed degrees are all of w_r, w_r + m, ..., so every sum
    of two is w_r + w_s plus a multiple of m.  Degrees above top are
    allowed, so both checks stop at top: O(top + m^2) steps, not a walk
    over every pair of allowed degrees."""
    allowed = [a for a in range(1, top) if a not in excluded]
    if not allowed:
        return None
    m = allowed[0]
    for a in allowed:
        if a + m > top:
            break
        if a + m in excluded:
            return a, m
    least = {}  # class mod m -> its least allowed degree, in ascending order
    for a in allowed:
        least.setdefault(a % m, a)
    firsts = list(least.values())
    for k, w in enumerate(firsts):
        for v in firsts[k:]:
            if w + v > top:
                break
            if w + v in excluded:
                return w, v
    return None


class SubringDesc:
    """Subring of Q[y] spanned by the monomials outside `excluded`."""

    def __init__(self, excluded):
        self.excluded = frozenset(int(e) for e in excluded)
        if 0 in self.excluded:
            raise SubringError("degree 0 cannot be excluded (1 must be in D)")
        if any(e < 0 for e in self.excluded):
            raise SubringError("excluded degrees must be nonnegative")
        # product closure: allowed + allowed never lands on an excluded degree.
        # The allowed degrees then form a numerical semigroup whose gaps are
        # the excluded ones, and its largest gap is below twice their number.
        top = max(self.excluded, default=0)
        if top >= 2 * len(self.excluded) > 0:
            raise SubringError(
                f"excluded degree {top} is not below twice the number of excluded degrees, "
                "so D is not closed under products"
            )
        pair = _unclosed_pair(self.excluded, top)
        if pair is not None:
            raise SubringError(f"not multiplicatively closed: {pair[0]} + {pair[1]} is excluded")

    def contains(self, p) -> bool:
        p = _inner(p)
        return all(
            c == 0 for i, c in enumerate(p.coeffs) if i in self.excluded
        )


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


class AlphaCounterexample:
    """The pair u = 1 - alpha^4 X^4, v = alpha^2 + alpha^3 X in D[X] with the
    witness of u(1 - u) == v * witness; `nonprinc_pair_from_alpha` says why
    (u, v) is not principal."""

    def __init__(self, alpha: Poly, desc: SubringDesc, u: Poly, v: Poly, witness: Poly):
        self.alpha = alpha
        self.desc = desc
        self.u = u
        self.v = v
        self.witness = witness

    def to_json(self, enc):
        return {
            "alpha": enc(self.alpha),
            "excluded": sorted(self.desc.excluded),
            "u": enc(self.u),
            "v": enc(self.v),
            "witness": enc(self.witness),
        }


def nonprinc_pair_from_alpha(alpha, desc: SubringDesc) -> AlphaCounterexample:
    """The non-principal idempotent pair attached to a non-seminormality
    witness alpha (alpha^2, alpha^3 in D, alpha not in D).

    Over K[X], K the fraction field of D, u == (1 + aX)(1 - aX)(1 + a^2X^2)
    and v == (1 + aX) a^2 with comaximal cofactors, so gcd(u, v) == 1 + aX.
    A generator f of (u, v) in D[X] divides u and v and is a combination of
    them, so f == c(1 + aX) with c in K, and c, c*a in D.  Since f divides u
    in D[X] and u has constant term 1, c is a unit of D, and then alpha ==
    (c*a)/c lies in D, against the witness.  The factorizations of u and v,
    and (1 + aX)(1 - aX)(1 + a^2X^2) + a^2X^4 * a^2 == 1, are identities in
    a, so they hold for every alpha and are not checked here.  The witness
    condition is the guard below.  What the report carries (u, v and the
    witness lie in D[X], and u(1 - u) == v * witness) is checked by
    `recheck`, which `cli` runs on every report.
    """
    a = _inner(alpha)
    if not seminormal_witness(a, desc):
        raise SubringError(
            f"{a.to_str('y')} is not a witness: need alpha^2, alpha^3 in D, alpha not in D"
        )
    a2, a3 = a * a, a * a * a
    a4, a5 = a2 * a2, a2 * a3
    z = Poly()
    u = Poly((_inner(1), z, z, z, -a4))  # 1 - alpha^4 X^4
    v = Poly((a2, a3))  # alpha^2 + alpha^3 X
    r = Poly((z, z, z, z, a2, -a3, a4, -a5))  # alpha^2 X^4 (1 - aX + a^2X^2 - a^3X^3)
    return AlphaCounterexample(a, desc, u, v, r)
