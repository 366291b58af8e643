"""Z[1/p, ...], the integers with some primes inverted, as a coefficient
domain.  It is only ever the base of a D[X;S] such as `Z[1/2][X;S]`, which
asks it `contains_rat` alone: `--ring 'Z[1/2]'` on its own has no
expression grammar, so no command takes its elements.  Only a call with
such a base loads this module.
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

    def contains_rat(self, q: Fraction) -> bool:
        return _strip_primes(q.denominator, self.primes) == 1

    def to_json(self):
        return {"family": "zloc", "primes": [str(p) for p in self.primes]}

    def __str__(self):
        return "Z[" + ",".join(f"1/{p}" for p in self.primes) + "]"
