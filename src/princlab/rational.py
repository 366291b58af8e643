"""Exact rationals for every certificate the package writes and rechecks.

`Fraction` is a slotted pair of ints, `numerator` and `denominator`, in
lowest terms with the denominator > 0.  It stands in for the stdlib
`fractions.Fraction`, whose import loads `decimal` (the `_decimal` C
extension) and `numbers`: about 0.45 MB of each call's peak RSS and 2 ms of
its import time, for a type the package uses only as a field of quotients
of ints.  This module imports only `math` and `sys`.

It keeps the stdlib's behaviour where the package can see it:

- values: the same lowest-terms pair for every input, so `str` ("p" or
  "p/q"), `repr` ("Fraction(p, q)") and every report byte are unchanged;
- `==`, `<`, `<=`, `>`, `>=` and `hash` give the stdlib's results against a
  `Fraction` or an `int` (its hash formula over `sys.hash_info`), so ints
  and rationals mix as dict keys and set members as before;
- `+ - * /` take an `int` or a `Fraction` on either side and return a
  `Fraction`, and so does `**` with an int exponent; zero to a negative
  power raises the stdlib's ZeroDivisionError text, "Fraction(1, 0)";
- `bool`, `int` (truncation), unary `-` and `abs`.

Any other operand (float, Decimal, complex, the stdlib `Fraction`) gets
NotImplemented, so a package type's reflected operator runs and anything
else is a TypeError.  The attributes are not write-protected: nothing
assigns to them after construction, and a value must not change once it
may be a dict key.

Strings.  `Fraction("[-]digits")` and `Fraction("[-]digits/digits")` are
read here with `int`.  Every other string (a sign `+`, spaces, a decimal
point, an exponent, a zero denominator, a malformed literal) goes to the
stdlib's parser, imported at that point only, so the accepted forms and
the error texts stay the stdlib's.  The one exception is an exponent
whose magnitude passes `EXPONENT_BOUND` ("1e99999999"): it is refused with
a ValueError first, where the stdlib would build 10**exponent with no
bound.  The operands a call reads (`--s 5/4`) and the leaves of a report
take the first path.

Division by zero raises ZeroDivisionError; its text follows CPython 3.12
("Fraction(1, 0)" for every dividend), where 3.10 and 3.11 name the
reduced dividend instead.  The package never shows that text.
"""

from __future__ import annotations

import sys
from math import gcd

# the largest exponent magnitude of a rational in exponent form ("1e4300"):
# CPython's default limit on the digits of an int string, so the value has
# about as many digits as the longest int a string may spell
EXPONENT_BOUND = 4300
_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


class Fraction:
    """p/q in lowest terms, q > 0: `Fraction(n)` for an int or a Fraction n,
    `Fraction(n, d)` for ints n and d, or `Fraction(text)`."""

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None:
            if type(numerator) is int:
                return _make(numerator, 1)
            if type(numerator) is Fraction:
                return numerator
            if not isinstance(numerator, str):
                raise TypeError("argument should be a string or a Rational instance")
            n, d = _parse(numerator)
        elif type(numerator) is int and type(denominator) is int:
            n, d = numerator, denominator
        else:
            raise TypeError("both arguments should be Rational instances")
        if d == 0:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        g = gcd(n, d)
        if d < 0:
            g = -g
        if g != 1:
            n //= g
            d //= g
        return _make(n, d)

    # ------------------------------------------------------------ arithmetic

    def __add__(a, b):
        if type(b) is Fraction:
            na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
            g = gcd(da, db)
            if g == 1:
                return _make(na * db + da * nb, da * db)
            s = da // g
            t = na * (db // g) + nb * s
            g2 = gcd(t, g)
            if g2 == 1:
                return _make(t, s * db)
            return _make(t // g2, s * (db // g2))
        if isinstance(b, int):
            return _make(a.numerator + b * a.denominator, a.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is Fraction:
            return a + _make(-b.numerator, b.denominator)
        if isinstance(b, int):
            return _make(a.numerator - b * a.denominator, a.denominator)
        return NotImplemented

    def __rsub__(a, b):
        if isinstance(b, int):
            return _make(b * a.denominator - a.numerator, a.denominator)
        return NotImplemented

    def __mul__(a, b):
        if type(b) is Fraction:
            na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
            g1 = gcd(na, db)
            if g1 > 1:
                na //= g1
                db //= g1
            g2 = gcd(nb, da)
            if g2 > 1:
                nb //= g2
                da //= g2
            return _make(na * nb, db * da)
        if isinstance(b, int):
            g = gcd(b, a.denominator)
            return _make(a.numerator * (b // g), a.denominator // g)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is Fraction:
            return a * _inverse(b.numerator, b.denominator)
        if isinstance(b, int):
            return a * _inverse(b, 1)
        return NotImplemented

    def __rtruediv__(a, b):
        if isinstance(b, int):
            return _inverse(a.numerator, a.denominator) * b
        return NotImplemented

    def __pow__(a, b):
        if not isinstance(b, int):
            return NotImplemented
        if b >= 0:
            return _make(a.numerator ** b, a.denominator ** b)
        if a.numerator == 0:
            raise ZeroDivisionError(f"Fraction({a.denominator ** -b}, 0)")
        return _inverse(a.numerator ** -b, a.denominator ** -b)

    def __neg__(a):
        return _make(-a.numerator, a.denominator)

    def __abs__(a):
        return _make(abs(a.numerator), a.denominator)

    # ----------------------------------------------------------- comparison

    def __eq__(a, b):
        if type(b) is Fraction:
            return a.numerator == b.numerator and a.denominator == b.denominator
        if isinstance(b, int):
            return a.denominator == 1 and a.numerator == b
        return NotImplemented

    def __lt__(a, b):
        if type(b) is Fraction:
            return a.numerator * b.denominator < b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator < b * a.denominator
        return NotImplemented

    def __le__(a, b):
        if type(b) is Fraction:
            return a.numerator * b.denominator <= b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator <= b * a.denominator
        return NotImplemented

    def __gt__(a, b):
        if type(b) is Fraction:
            return a.numerator * b.denominator > b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator > b * a.denominator
        return NotImplemented

    def __ge__(a, b):
        if type(b) is Fraction:
            return a.numerator * b.denominator >= b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator >= b * a.denominator
        return NotImplemented

    def __hash__(self):
        # the stdlib's: hash(p/q) is p * q^-1 modulo the hash modulus, so an
        # integral value hashes as its int
        n, d = self.numerator, self.denominator
        if d == 1:
            return hash(n)
        try:
            dinv = pow(d, -1, _MODULUS)
        except ValueError:  # q is a multiple of the modulus
            h = _HASH_INF
        else:
            h = hash(hash(abs(n)) * dinv)
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(a):
        return a.numerator != 0

    def __int__(a):
        n, d = a.numerator, a.denominator
        return n // d if n >= 0 else -(-n // d)

    # ---------------------------------------------------------------- text

    def __str__(self):
        return str(self.numerator) if self.denominator == 1 else f"{self.numerator}/{self.denominator}"

    def __repr__(self):
        return f"Fraction({self.numerator}, {self.denominator})"


_new = object.__new__


def _make(n: int, d: int) -> Fraction:
    """n/d, which the caller has already put in lowest terms with d > 0."""
    f = _new(Fraction)
    f.numerator = n
    f.denominator = d
    return f


def _inverse(n: int, d: int) -> Fraction:
    """d/n for n/d in lowest terms; n/d must not be zero."""
    if n == 0:
        raise ZeroDivisionError(f"Fraction({d}, 0)")
    return _make(d, n) if n > 0 else _make(-d, -n)


def _parse(text: str) -> tuple[int, int]:
    """(n, d) with d > 0, not always in lowest terms, from "[-]p" or
    "[-]p/q"; every other string through the stdlib's parser, unless its
    exponent passes `EXPONENT_BOUND` (a ValueError).  `recheck` reads
    report leaves with it."""
    num, slash, den = text.partition("/")
    # str.isdecimal is the digit class of the stdlib's pattern, and int() reads it
    if (num[1:] if num[:1] == "-" else num).isdecimal() and (not slash or den.isdecimal()):
        try:
            n, d = int(num), int(den) if slash else 1
        except ValueError:  # past int's digit limit: the stdlib raises its own error
            pass
        else:
            if d:
                return n, d
    # the stdlib builds 10**exponent before anything else bounds it
    _, e, exp = text.replace("E", "e").rpartition("e")
    exp = exp.rstrip()
    if e and (exp[:1].isdecimal() or exp[:1] in ("+", "-") and exp[1:2].isdecimal()):
        try:
            too_large = abs(int(exp)) > EXPONENT_BOUND
        except ValueError:  # not an exponent the stdlib's pattern takes
            too_large = False
        if too_large:
            raise ValueError(f"the exponent of {text[:40]!r} passes {EXPONENT_BOUND} in magnitude")
    from fractions import Fraction as Stdlib

    f = Stdlib(text)
    return f.numerator, f.denominator
