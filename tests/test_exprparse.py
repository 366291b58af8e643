"""The expression grammar, pinned: for every `--ring` family and for
`parse_ypoly`, the `report.enc` form of what an expression parses to, or the
exact error with its 0-based position.  The parser reaches every family
through the ring handle only, so it imports no engine module."""

import ast
from pathlib import Path

import pytest

import princlab
from princlab import exprparse
from princlab.cli import parse_ring_spec
from princlab.exprparse import ParseError, parse_element, parse_ypoly
from princlab.report import enc

RINGS = {
    "Z": ("Z",),
    "Q": ("Q",),
    "Z[sqrt(-5)]": ("Z[sqrt(-5)]",),
    "Q[X]": ("Q[X]",),
    "pullback:Z": ("pullback:Z",),
    "pullback:Z[sqrt(-5)]": ("pullback:Z[sqrt(-5)]",),
    "Q[X;S]": ("Q[X;S]",),
    "Z[X;S]": ("Z[X;S]",),
    "Z[1/2][X;S]": ("Z[1/2][X;S]",),
    "Q[X;S] group": ("Q[X;S]", None, True),
    "Z[X;S] mult:{2,3}": ("Z[X;S]", "mult:{2,3}"),
    "limitring:Q": ("limitring:Q",),
    "limitring:Z": ("limitring:Z",),
    "B2": ("B2",),
    "Z[1/2]": ("Z[1/2]",),
}


def integer(v):
    return {"type": "int", "value": v}


def rat(v):
    return {"type": "rat", "value": v}


def quad(x, y, d):
    return {"type": "quad", "x": x, "y": y, "d": d}


def quadrat(x, y, d):
    return {"type": "quadrat", "x": x, "y": y, "d": d}


def poly(*coeffs):
    # a string coefficient is a rational
    return {"type": "poly", "coeffs": [rat(c) if isinstance(c, str) else c for c in coeffs]}


def pullback(num, den):
    return {"type": "pullback", "num": num, "den": den}


def monoid(*terms):
    return {"type": "monoid", "terms": [[e, rat(c)] for e, c in terms]}


def limit(level, *coeffs):
    return {"type": "limit", "level": level, "coeffs": [rat(c) for c in coeffs]}


def sphere(f, g):
    return {"type": "sphere", "f": f, "g": g}


# (ring, expression, expected): a dict is the element's `enc`, a string the
# error message with its position.  "ypoly" is `parse_ypoly`.
CASES = [
    ('Z', '6', integer('6')),
    ('Z', '+6', integer('6')),
    ('Z', '--6', integer('6')),
    ('Z', '-(-6)', integer('6')),
    ('Z', '((1+2))*3', integer('9')),
    ('Z', '6/3', integer('2')),
    ('Z', '6/4', '3/2 lies outside Z (at position 0)'),
    ('Z', '1/0', 'division by zero (at position 1)'),
    ('Z', '2^-1', '1/2 lies outside Z (at position 0)'),
    ('Z', '0^-1', 'negative power is not invertible here (at position 1)'),
    ('Z', '2^(1/2)', 'fractional exponents only apply to X in monoid rings (at position 1)'),
    ('Z', 'X', "unknown symbol 'X' (at position 0)"),
    ('Z', 'X^(1/0)', "unknown symbol 'X' (at position 0)"),
    ('Z', 'sqrt(-5)', 'sqrt() is not available in this ring (at position 0)'),
    ('Z', '1+', "unexpected '' (at position 2)"),
    ('Z', '(1', "expected ')' (at position 2)"),
    ('Z', '2^', 'expected an exponent (at position 2)'),
    ('Z', '2^(1/0)', 'division by zero (at position 4)'),
    ('Z', '2^(2*3/4)', 'fractional exponents only apply to X in monoid rings (at position 1)'),
    ('Z', '3 $', "unexpected character '$' (at position 2)"),
    ('Z', '', "unexpected '' (at position 0)"),
    ('Q', '6/4', rat('3/2')),
    ('Q', '2^-1', rat('1/2')),
    ('Q', '(1/2)^-2', rat('4')),
    ('Q', '-(1/2)', rat('-1/2')),
    ('Q', 'X', "unknown symbol 'X' (at position 0)"),
    ('Z[sqrt(-5)]', '1+sqrt(-5)', quad('1', '1', '-5')),
    ('Z[sqrt(-5)]', '-sqrt(-5)', quad('0', '-1', '-5')),
    ('Z[sqrt(-5)]', 'sqrt(-5)^2', quad('-5', '0', '-5')),
    ('Z[sqrt(-5)]', 'sqrt(-3)', 'sqrt(-3) does not live in Z[sqrt(-5)] (at position 0)'),
    ('Z[sqrt(-5)]', 'sqrt(-5)^-1', 'negative power is not invertible here (at position 8)'),
    ('Z[sqrt(-5)]', 'sqrt(1/2)', 'sqrt argument must be an integer (at position 0)'),
    ('Z[sqrt(-5)]', 'sqrt(-10/2)', quad('0', '1', '-5')),
    ('Z[sqrt(-5)]', 'sqrt(1/0)', 'division by zero (at position 6)'),
    ('Z[sqrt(-5)]', '(2+2*sqrt(-5))/2', quad('1', '1', '-5')),
    ('Z[sqrt(-5)]', '(1+sqrt(-5))/2', 'element has non-integer coordinates (1/2, 1/2) (at position 0)'),
    ('Z[sqrt(-5)]', '1/0', 'division by zero (at position 1)'),
    ('Z[sqrt(-5)]', 'X', "unknown symbol 'X' (at position 0)"),
    ('Q[X]', 'X^2-1', poly('-1', '0', '1')),
    ('Q[X]', '(X^2-1)/(X-1)', poly('1', '1')),
    ('Q[X]', 'X^-1', 'element is a proper rational function, not a polynomial (at position 0)'),
    ('Q[X]', '1/X', 'element is a proper rational function, not a polynomial (at position 0)'),
    ('Q[X]', 'X^(1/2)', 'fractional exponents only apply to X in monoid rings (at position 1)'),
    ('Q[X]', 'X^(1/0)', 'division by zero (at position 4)'),
    ('Q[X]', 'X/0', 'division by zero (at position 1)'),
    ('Q[X]', '(X+1)^3', poly('1', '3', '3', '1')),
    ('Q[X]', 'Y', "unknown symbol 'Y' (at position 0)"),
    ('pullback:Z', 'Y', pullback(poly('0', '1'), poly('1'))),
    ('pullback:Z', '1-Y', pullback(poly('1', '-1'), poly('1'))),
    ('pullback:Z', '3+Y', pullback(poly('3', '1'), poly('1'))),
    ('pullback:Z', '1/Y', 'pole at Y=0: not in the valuation ring (at position 0)'),
    ('pullback:Z', 'Y^-1', 'pole at Y=0: not in the valuation ring (at position 0)'),
    ('pullback:Z', 'Y/Y', pullback(poly('1'), poly('1'))),
    ('pullback:Z', '(Y+Y^2)/Y', pullback(poly('1', '1'), poly('1'))),
    ('pullback:Z', '1/(1+Y)', pullback(poly('1'), poly('1', '1'))),
    ('pullback:Z', '1/2+Y', 'value at Y=0 lies outside the base Z (at position 0)'),
    ('pullback:Z', 'Y/2', pullback(poly('0', '1/2'), poly('1'))),
    ('pullback:Z', 'sqrt(-5)', 'sqrt(-5) does not live in the base Z (at position 0)'),
    ('pullback:Z', 'Y^(1/2)', 'fractional exponents only apply to X in monoid rings (at position 1)'),
    ('pullback:Z[sqrt(-5)]', 'sqrt(-5)+Y', pullback(poly(quadrat('0', '1', '-5'), quadrat('1', '0', '-5')), poly('1'))),
    ('pullback:Z[sqrt(-5)]', 'sqrt(-3)', 'sqrt(-3) does not live in the base Z[sqrt(-5)] (at position 0)'),
    ('pullback:Z[sqrt(-5)]', '1/2+Y', 'value at Y=0 lies outside the base Z[sqrt(-5)] (at position 0)'),
    ('pullback:Z[sqrt(-5)]', '6/3', pullback(poly(quadrat('2', '0', '-5')), poly(quadrat('1', '0', '-5')))),
    ('Q[X;S]', 'X', monoid(('1', '1'))),
    ('Q[X;S]', 'X^(1/2)', monoid(('1/2', '1'))),
    ('Q[X;S]', 'X^(-1/2)', 'exponent -1/2 not in S (monoid p-div:2) (at position 0)'),
    ('Q[X;S]', 'X^(2*3/4)', monoid(('3/2', '1'))),
    ('Q[X;S]', 'X^(1/0)', 'division by zero (at position 4)'),
    ('Q[X;S]', 'X^(1/3)', 'exponent 1/3 not in S (monoid p-div:2) (at position 0)'),
    ('Q[X;S]', '1+X^(1/3)', 'exponent 1/3 not in S (monoid p-div:2) (at position 2)'),
    ('Q[X;S]', '(X)^(1/2)', 'fractional exponents only apply to X in monoid rings (at position 3)'),
    ('Q[X;S]', 'X^0', monoid(('0', '1'))),
    ('Q[X;S]', 'X^-1', 'exponent -1 not in S (monoid p-div:2) (at position 0)'),
    ('Q[X;S]', '(1+X)^-1', 'negative power is not invertible here (at position 5)'),
    ('Q[X;S]', 'X/2', monoid(('1', '1/2'))),
    ('Q[X;S]', 'X/X', 'division is only available by nonzero constants (at position 1)'),
    ('Q[X;S]', 'X/0', 'division is only available by nonzero constants (at position 1)'),
    ('Q[X;S]', 'X^2^2', "unexpected '^' (at position 3)"),
    ('Z[X;S]', 'X^(1/2)', monoid(('1/2', '1'))),
    ('Z[X;S]', '1-X^(1/2)', monoid(('0', '1'), ('1/2', '-1'))),
    ('Z[X;S]', '2*X^(1/2)/2', monoid(('1/2', '1'))),
    ('Z[X;S]', '6/3', monoid(('0', '2'))),
    ('Z[X;S]', 'X/2', 'coefficient 1/2 outside Z (at position 0)'),
    ('Z[X;S]', '2^-1', 'coefficient 1/2 outside Z (at position 0)'),
    ('Z[1/2][X;S]', 'X/2', monoid(('1', '1/2'))),
    ('Z[1/2][X;S]', 'X/3', 'coefficient 1/3 outside Z[1/2] (at position 0)'),
    ('Q[X;S] group', 'X^-1', monoid(('-1', '1'))),
    ('Q[X;S] group', 'X^(-1/2)', monoid(('-1/2', '1'))),
    ('Q[X;S] group', 'X*X^-1', monoid(('0', '1'))),
    ('Q[X;S] group', '(1+X)^-1', 'negative power is not invertible here (at position 5)'),
    ('Z[X;S] mult:{2,3}', 'X^(1/6)', monoid(('1/6', '1'))),
    ('Z[X;S] mult:{2,3}', 'X^(1/5)', 'exponent 1/5 not in S (monoid mult:{2,3}) (at position 0)'),
    ('limitring:Q', 'x_1', limit(1, '0', '1')),
    ('limitring:Q', 'x_1*x_2', limit(2, '0', '0', '1', '1')),
    ('limitring:Q', 'x_1/2', limit(1, '0', '1/2')),
    ('limitring:Q', 'x_0', 'levels start at 1 (at position 0)'),
    ('limitring:Q', 'x_01', limit(1, '0', '1')),
    ('limitring:Q', 'x_1^-1', 'negative power is not invertible here (at position 3)'),
    ('limitring:Q', 'x_1/x_1', 'division is only available by nonzero constants (at position 3)'),
    ('limitring:Q', 'x_1/0', 'division is only available by nonzero constants (at position 3)'),
    ('limitring:Q', '(x_1+x_2)/3', limit(2, '0', '2/3', '1/3')),
    ('limitring:Q', 'X', "unknown symbol 'X' (at position 0)"),
    ('limitring:Z', '6/3', limit(1, '2')),
    ('limitring:Z', '2*x_1/2', limit(1, '0', '1')),
    ('limitring:Z', 'x_1/2', 'coefficient 1/2 outside Z (at position 0)'),
    ('limitring:Z', '-x_2^2', limit(2, '0', '0', '-1')),
    ('limitring:Z', 'x_1/(x_2-x_2+2)', 'coefficient 1/2 outside Z (at position 0)'),
    ('B2', 'X0', sphere([], [[0, 0, '1']])),
    ('B2', 'X0^3', sphere([], [[0, 0, '1'], [0, 2, '-1'], [2, 0, '-1']])),
    ('B2', 'X0^2+X1^2+X2^2', sphere([[0, 0, '1']], [])),
    ('B2', 'X0/2', sphere([], [[0, 0, '1/2']])),
    ('B2', '(X1+1)/2', sphere([[0, 0, '1/2'], [1, 0, '1/2']], [])),
    ('B2', 'X0/X0', 'division is only available by nonzero constants (at position 2)'),
    ('B2', 'X0/0', 'division is only available by nonzero constants (at position 2)'),
    ('B2', 'X0^-1', 'negative power is not invertible here (at position 2)'),
    ('B2', 'X3', "unknown symbol 'X3' (at position 0)"),
    ('Z[1/2]', '6', 'no expression grammar for Z[1/2] (at position 0)'),
    ('Z[1/2]', '3 $', 'no expression grammar for Z[1/2] (at position 0)'),
    ('ypoly', 'y', poly('0', '1')),
    ('ypoly', '2*y', poly('0', '2')),
    ('ypoly', 'y^2', poly('0', '0', '1')),
    ('ypoly', 'y/2', poly('0', '1/2')),
    ('ypoly', 'y^-1', 'element is a proper rational function, not a polynomial (at position 0)'),
    ('ypoly', '1/y', 'element is a proper rational function, not a polynomial (at position 0)'),
    ('ypoly', 'X', "unknown symbol 'X' (at position 0)"),
    # exponents and sqrt arguments are expressions over Q
    ('Z', '2^(2^2)', integer('16')),
    ('Z', '2^(+1)', integer('2')),
    ('Q[X;S]', 'X^(2^2)', monoid(('4', '1'))),
    ('Q[X;S]', 'X^(a)', "unknown symbol 'a' (at position 3)"),
    ('Z[sqrt(-5)]', 'sqrt(X)', "unknown symbol 'X' (at position 5)"),
    # exact division by a constant stays sparse
    ('Z[X;S]', '2*(X^(1/2^20)+X^1000000)/2', monoid(('1/1048576', '1'), ('1000000', '1'))),
    ('Z[X;S]', '(X^(1/2^20)+X^1000000)/2', 'coefficient 1/2 outside Z (at position 0)'),
    ('Z[X;S]', '(X^(1/2^20)+X^1000000)/X', 'division is only available by nonzero constants (at position 22)'),
    # a nonzero constant of the Q-domain has negative powers; membership is checked last
    ('Z[X;S]', '(1/2)^-2', monoid(('0', '4'))),
    ('Z[X;S]', '(-1)^-3*X', monoid(('1', '-1'))),
    ('Q[X;S]', '2^-1*X', monoid(('1', '1/2'))),
    ('Q[X;S]', '0^-1', 'negative power is not invertible here (at position 1)'),
    ('Q[X;S] group', '(X^(1/2))^-1', 'negative power is not invertible here (at position 9)'),
    ('limitring:Z', '(1/2)^-2', limit(1, '4')),
    ('limitring:Z', '(x_2-x_2+2)^-1', 'coefficient 1/2 outside Z (at position 0)'),
    ('limitring:Q', '(x_2-x_2+2)^-1', limit(2, '1/2')),
    ('limitring:Q', '(x_1-x_1)^-1', 'negative power is not invertible here (at position 9)'),
    ('B2', '2^-2*X0', sphere([], [[0, 0, '1/4']])),
    ('B2', '0^-1', 'negative power is not invertible here (at position 1)'),
]


def outcome(ring, text):
    try:
        value = parse_ypoly(text) if ring == "ypoly" else parse_element(text, parse_ring_spec(*RINGS[ring]))
    except ParseError as exc:
        return f"{exc.message} (at position {exc.pos})"
    return enc(value)


@pytest.mark.parametrize("ring,text,expected", CASES, ids=[f"{r}|{t}" for r, t, _ in CASES])
def test_parse(ring, text, expected):
    assert outcome(ring, text) == expected


def test_exprparse_imports_only_core_rings_and_poly():
    # read the source, not the loaded module: an import inside a function
    # counts as much as one at the top
    found = set()
    for node in ast.walk(ast.parse(Path(exprparse.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level > 0:
                found.update([parts[0]] if node.module else [a.name for a in node.names])
            elif parts[0] == princlab.__name__:
                found.update(parts[1:2] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == princlab.__name__)
        elif isinstance(node, ast.Name) and node.id in ("__import__", "importlib"):
            found.add(node.id)
    # rational is the package's number type, a leaf like core; poly gives
    # Q[y] for a y-polynomial operand
    assert found <= {"core", "poly", "rational", "rings"}
