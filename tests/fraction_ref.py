"""Fraction-only reference loops for limit-ring values: coefficient tuples
are trimmed of trailing zeros, and a lift rewrites x -> x + x^2 once per level.
The loops run on the stdlib's `fractions.Fraction`, apart from the package's
own rational type; `std` converts the package's values for them.
`exponent_past_the_bound` names the strings the package's parser refuses
where the stdlib's would first build 10**exponent."""

import re
from fractions import Fraction

from princlab.rational import EXPONENT_BOUND


def exponent_past_the_bound(text):
    """Whether the string ends in an exponent, [eE] then a signed integer in
    the stdlib's spelling, whose magnitude passes `EXPONENT_BOUND`."""
    m = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    return m is not None and abs(int(m[1])) > EXPONENT_BOUND


def std(cs):
    """A tuple of the package's rationals and ints, with each rational as the
    stdlib's Fraction."""
    return tuple(c if type(c) is int else Fraction(c.numerator, c.denominator) for c in cs)


def strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def fraction_add(a, b):
    n = max(len(a), len(b))
    return strip(x + y for x, y in zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b))))


def fraction_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return strip(out)


def fraction_lift(cs, levels):
    # Horner with x -> x + x^2, once per level
    phi = (Fraction(0), Fraction(1), Fraction(1))
    for _ in range(levels):
        acc = ()
        for c in reversed(cs):
            acc = fraction_add(fraction_mul(acc, phi), (c,))
        cs = acc
    return tuple(cs)
