"""The checker's independence from the producer, and its own integer
polynomial arithmetic against plain Fraction loops."""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import princlab
from princlab import recheck

RECHECK_SOURCE = Path(recheck.__file__).read_text()


def test_recheck_imports_only_the_shared_lattice_routine():
    # read the source, not the loaded module: an import inside a function
    # counts as much as one at the top
    found = []
    for node in ast.walk(ast.parse(RECHECK_SOURCE)):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == princlab.__name__
            if package:
                found.append((node.level, node.module, tuple(a.name for a in node.names)))
        elif isinstance(node, ast.Import):
            found += [(0, a.name, ()) for a in node.names if a.name.split(".")[0] == princlab.__name__]
        elif isinstance(node, ast.Name) and node.id in ("__import__", "importlib"):
            found.append((0, node.id, ()))
    assert found == [(1, "core", ("hnf2_with_transform",))]


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


big = st.sampled_from([2**63, 2**64 - 1, 2**127, 2**300])
rationals = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.one_of(big, big.map(lambda n: -n)), st.sampled_from([1, 3, 2**40])),
)
vectors = st.lists(rationals, max_size=6).map(tuple)


@settings(max_examples=150, deadline=None)
@given(a=vectors, b=vectors, la=st.integers(1, 3), lb=st.integers(1, 3))
def test_lim_and_poly_arithmetic_match_fraction_loops(a, b, la, lb):
    n = max(la, lb)
    lifted_a, lifted_b = fraction_lift(a, n - la), fraction_lift(b, n - lb)
    assert recheck._lim_lift(("lim", la, a), n) == ("lim", n, lifted_a)
    assert recheck.v_mul(("lim", la, a), ("lim", lb, b)) == ("lim", n, fraction_mul(lifted_a, lifted_b))
    pa, pb = ("poly", tuple(("rat", c) for c in a)), ("poly", tuple(("rat", c) for c in b))
    want = ("poly", tuple(("rat", c) for c in fraction_mul(a, b)))
    assert recheck.v_mul(pa, pb) == want
