"""`princlab.rational.Fraction` against its oracle, the stdlib's
`fractions.Fraction`: every operator the package uses, over int and rational
operands on either side, comparisons and hashes, text, string parsing on
both paths, and pickling."""

import fractions
import multiprocessing
import operator
import pickle
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import princlab
from fraction_ref import exponent_past_the_bound
from princlab.rational import Fraction

ints = st.one_of(st.integers(-30, 30), st.integers(-2**80, 2**80))
dens = st.one_of(st.integers(1, 30), st.integers(1, 2**80))
# (the package's value, the stdlib's value): an int is itself on both sides
rationals = st.builds(lambda n, d: (Fraction(n, d), fractions.Fraction(n, d)), ints, dens)
operands = st.one_of(ints.map(lambda n: (n, n)), rationals)


def outcome(fn, *args, rational=Fraction):
    """What fn(*args) gives, in terms both types share: a value of type
    `rational` as ("rational", p, q), any other value as its type and
    itself, an exception as its type and text."""
    try:
        r = fn(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    if type(r) is rational:
        return "rational", r.numerator, r.denominator
    return type(r), r


def same(fn, *args):
    """fn gives on the package's operands what the stdlib gives on its own,
    a rational of the package's type where the stdlib gives one of its."""
    ours = outcome(fn, *(a for a, _ in args))
    assert ours == outcome(fn, *(b for _, b in args), rational=fractions.Fraction)


BINARY = [operator.add, operator.sub, operator.mul]
COMPARE = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]


@settings(max_examples=400, deadline=None)
@given(op=st.sampled_from(BINARY + COMPARE), x=operands, y=operands)
def test_arithmetic_and_comparison_match_the_stdlib(op, x, y):
    assume(type(x[0]) is Fraction or type(y[0]) is Fraction)
    same(op, x, y)


@settings(max_examples=300, deadline=None)
@given(x=operands, y=operands)
@example(x=(Fraction(0), fractions.Fraction(0)), y=(Fraction(0), fractions.Fraction(0)))
@example(x=(3, 3), y=(Fraction(0), fractions.Fraction(0)))
def test_division_matches_the_stdlib(x, y):
    assume(type(x[0]) is Fraction or type(y[0]) is Fraction)
    if y[1] == 0:
        # the text of a division by zero differs between CPython versions
        # (3.10 and 3.11 name the reduced dividend); the package never shows it
        with pytest.raises(ZeroDivisionError):
            x[0] / y[0]
        return
    same(operator.truediv, x, y)


@settings(max_examples=300, deadline=None)
@given(x=rationals, n=st.integers(-6, 6))
@example(x=(Fraction(0), fractions.Fraction(0)), n=-1)
@example(x=(Fraction(0), fractions.Fraction(0)), n=-2)
@example(x=(Fraction(-2, 3), fractions.Fraction(-2, 3)), n=-3)
def test_integer_powers_match_the_stdlib_with_its_zero_division_text(x, n):
    same(operator.pow, x, (n, n))


@settings(max_examples=300, deadline=None)
@given(x=rationals)
@example(x=(Fraction(-1), fractions.Fraction(-1)))
@example(x=(Fraction(1, sys.hash_info.modulus), fractions.Fraction(1, sys.hash_info.modulus)))
@example(x=(Fraction(-7, 2 * sys.hash_info.modulus), fractions.Fraction(-7, 2 * sys.hash_info.modulus)))
def test_unary_operations_hash_and_text_match_the_stdlib(x):
    for fn in (operator.neg, abs, bool, int, hash, str, repr):
        same(fn, x)
    if x[0].denominator == 1:
        # an integral value is its int as a dict key
        assert hash(x[0]) == hash(x[0].numerator) and {x[0].numerator: 1}[x[0]] == 1


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True))
@example("0/0")
@example("-12/0")
@example("-0")
@example("6/-4")
@example("9" * 5000)
@example("1/" + "9" * 5000)
def test_the_two_fast_string_forms_parse_as_the_stdlib_parses_them(text):
    assert outcome(Fraction, text) == outcome(fractions.Fraction, text, rational=fractions.Fraction)


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789-+/._ eE\t٣", max_size=10))
@example(" 3")
@example("+3")
@example("1.5")
@example("1e3")
@example("1_0")
@example("1 / 2")
@example("٣/4")
@example("--3")
@example("")
@example("1e4300")
@example("1E-4301 ")
def test_every_other_string_goes_to_the_stdlib_parser(text):
    # the stdlib builds 10**exponent first ("1e99999999" runs for minutes):
    # past the bound the string is refused, at once
    if exponent_past_the_bound(text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="passes 4300 in magnitude"):
            Fraction(text)
        assert time.perf_counter() - start < 1
        return
    assert outcome(Fraction, text) == outcome(fractions.Fraction, text, rational=fractions.Fraction)


@pytest.mark.parametrize("text", ["1e99999999", "-1.5E-99999999", "1e9_999_999", "2e4301", "e99999"])
def test_an_exponent_past_the_bound_is_refused_within_a_second(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="passes 4300 in magnitude"):
        Fraction(text)
    assert time.perf_counter() - start < 1


def test_only_ints_and_rationals_are_operands():
    x = Fraction(1, 2)
    for other in (0.5, Decimal("0.5"), 0.5j, fractions.Fraction(1, 2)):
        assert x != other
        for op in BINARY + [operator.truediv, operator.lt]:
            with pytest.raises(TypeError):
                op(x, other)
        with pytest.raises(TypeError):
            Fraction(other)
    with pytest.raises(TypeError):
        x ** 0.5


@given(x=rationals)
def test_a_pickle_round_trip_gives_the_same_value(x):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(x[0], protocol))
        assert type(back) is Fraction and (back.numerator, back.denominator) == (x[0].numerator, x[0].denominator)


def test_rationals_cross_a_process_pool():
    # `--jobs N` sends its values to worker processes
    xs = [Fraction(-7, 3), Fraction(5), Fraction(2**70, 3**40)]
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert list(pool.map(abs, xs)) == [abs(x) for x in xs]


def test_only_strings_outside_the_fast_forms_load_the_stdlib_parser():
    probe = (
        "import sys\n"
        "from princlab.rational import Fraction\n"
        "x = Fraction('-35/10') + Fraction('7') * Fraction(1, 2)\n"
        "before = sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules))\n"
        "y = Fraction('-3.5')\n"
        "print(before, 'fractions' in sys.modules, x == 0, y == Fraction(-7, 2), type(y) is Fraction)\n"
    )
    src = str(Path(princlab.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=60)
    assert res.stdout == "[] True True True True\n", res.stderr
