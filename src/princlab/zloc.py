"""Z[1/p, ...], the integers with some primes inverted, as a coefficient
domain: the base of a D[X;S] or an `idem` ring such as `Z[1/2]`.  Only a
call with such a base loads this module.
"""

from __future__ import annotations

from .core import RingHandle, is_prime
from .rational import Fraction
from .rings import _strip_primes


class LocalizedIntegers(RingHandle):
    """Z[1/p : p in primes] as a coefficient domain."""

    family = "zloc"

    def __init__(self, primes):
        ps = sorted(set(int(p) for p in primes))
        if not ps or any(p < 2 for p in ps):
            raise ValueError("need at least one prime >= 2")
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not a prime")
        self.primes = tuple(ps)
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, v):
        q = Fraction(v)
        if not self.contains_rat(q):
            raise ValueError(f"{q} lies outside {self}")
        return q

    def contains_rat(self, q: Fraction) -> bool:
        return _strip_primes(q.denominator, self.primes) == 1

    def divides(self, b, a):
        if b == 0:
            return Fraction(0) if a == 0 else None
        q = Fraction(a) / Fraction(b)
        return q if self.contains_rat(q) else None

    def is_unit(self, x) -> bool:
        if x == 0:
            return False
        x = Fraction(x)
        return (
            _strip_primes(x.numerator, self.primes) == 1
            and _strip_primes(x.denominator, self.primes) == 1
        )

    def to_json(self):
        return {"family": "zloc", "primes": [str(p) for p in self.primes]}

    def __str__(self):
        return "Z[" + ",".join(f"1/{p}" for p in self.primes) + "]"
