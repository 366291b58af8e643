"""Expression grammar for CLI element input, evaluated through the ring handle.

Grammar: integers, `sqrt(d)`, symbols (`X`, `Y`, `x_n`, `X0 X1 X2`, `y`),
operators + - * / ^ and parentheses.  An exponent is an integer or a
parenthesized expression over Q; a `sqrt` argument is an expression over Q.
Errors carry the 0-based position in the input string.

One evaluator serves every ring.  It works in the handle's working domain
(Q for Z, Q(sqrt(d)) for Z[sqrt(d)], Q(X) for Q[X], Q(Y) for the pullback,
the same family over Q for D[X;S] and the limit ring, B2 for B2) through
four handle hooks:

- `field_coerce(n)`: the integer n as a working-domain value;
- `symbol(name)`: the symbol's value, None for a name the ring does not
  know, or, for a symbol whose powers are monomials (X in D[X;S]), a
  function from the rational exponent to that monomial;
- `field_sqrt(d)`: sqrt(d) as a working-domain value (Z[sqrt(d)], pullback);
- `from_field(v)`: map the result back into the ring, raising a ValueError
  that says why when it lies outside.

Membership is checked once, by `from_field`, so its errors sit at position 0.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rings import QQ, RationalPolyRing


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        num, name, op = m.groups()
        pos = m.start(1) if num else m.start(2) if name else m.start(3)
        if num:
            out.append(("num", num, pos))
        elif name:
            out.append(("name", name, pos))
        else:
            out.append(("op", op, pos))
        i = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    """Recursive descent; every production evaluates in the ring it is given."""

    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def accept_op(self, op) -> bool:
        kind, text, _ = self.peek()
        if kind == "op" and text == op:
            self.i += 1
            return True
        return False

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self, ring):
        value = self.expr(ring)
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def rational(self) -> Fraction:
        """A parenthesized exponent or a sqrt argument: an expression over Q."""
        value = self.expr(QQ)
        self.expect_op(")")
        return value

    def expr(self, ring):
        value = self.term(ring)
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term(ring)
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self, ring):
        value = self.unary(ring)
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary(ring)
                value = value * rhs if text == "*" else _divide(value, rhs, pos)
            else:
                return value

    def unary(self, ring):
        if self.accept_op("-"):
            return -self.unary(ring)
        if self.accept_op("+"):
            return self.unary(ring)
        return self.power(ring)

    def power(self, ring):
        _, _, start = self.peek()
        value = self.atom(ring)
        _, _, pos = self.peek()
        exp = self.exponent() if self.accept_op("^") else None
        if callable(value):
            # the exponent picks the monomial, so any rational is allowed
            try:
                return value(Fraction(1) if exp is None else exp)
            except ValueError as exc:
                raise ParseError(str(exc), start) from None
        if exp is None:
            return value
        if exp.denominator != 1:
            raise ParseError("fractional exponents only apply to X in monoid rings", pos)
        try:
            return value ** int(exp)
        except (ValueError, ArithmeticError):
            raise ParseError("negative power is not invertible here", pos) from None

    def exponent(self) -> Fraction:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return -self.exponent()
        if kind == "num":
            self.advance()
            return Fraction(int(text))
        if self.accept_op("("):
            return self.rational()
        raise ParseError("expected an exponent", pos)

    def atom(self, ring):
        kind, text, pos = self.advance()
        if kind == "num":
            return ring.field_coerce(int(text))
        if kind == "op" and text == "(":
            value = self.expr(ring)
            self.expect_op(")")
            return value
        if kind == "name" and text == "sqrt":
            self.expect_op("(")
            d = self.rational()
            if d.denominator != 1:
                raise ParseError("sqrt argument must be an integer", pos)
            if not hasattr(ring, "field_sqrt"):
                raise ParseError("sqrt() is not available in this ring", pos)
            return _hook(ring.field_sqrt, int(d), pos)
        if kind == "name":
            symbol = getattr(ring, "symbol", None)
            value = None if symbol is None else _hook(symbol, text, pos)
            if value is None:
                raise ParseError(f"unknown symbol {text!r}", pos)
            return value
        raise ParseError(f"unexpected {text!r}", pos)


def _hook(fn, arg, pos):
    try:
        return fn(arg)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


def _divide(a, b, pos):
    try:
        return a / b
    except ZeroDivisionError:
        raise ParseError("division by zero", pos) from None
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


def _evaluate(text: str, ring):
    if not hasattr(ring, "field_coerce"):
        raise ParseError(f"no expression grammar for {ring}", 0)
    value = _Parser(text).parse(ring)
    try:
        return ring.from_field(value)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None


def parse_element(text: str, ring):
    """Exact ring element from an expression, or a positioned ParseError."""
    return _evaluate(text, ring)


def parse_ypoly(text: str):
    """Polynomial in y over Q (subring-witness input)."""
    return _evaluate(text, _Y_POLY)


_Y_POLY = RationalPolyRing("y")
