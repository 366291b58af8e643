"""Single-leaf mutation of the golden comax reports: adding 1 to any one
numeric leaf (an int, or a string that reads as a Fraction) must make
recheck fail, except on the leaves named in HARMLESS, each with its reason.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from princlab import recheck

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
COMAX = [c["name"] for c in CASES if c["argv"][0] == "comax" and c["exit"] != 2]

HARMLESS = {
    ("result", "bound"): "a witness's norm is still within a larger bound, and a no_witness verdict "
                         "carries no certificate of its scan",
}


def _number(leaf):
    if type(leaf) is int:
        return True
    try:
        return type(leaf) is str and Fraction(leaf) is not None
    except ValueError:
        return False


def numeric_leaves(node, path=()):
    """(parent container, key, path) of every numeric leaf under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numeric_leaves(value, path + (key,))
        elif _number(value):
            yield node, key, path + (key,)


def test_the_comax_goldens_are_the_mutated_ones():
    assert COMAX == ["comax_factor", "comax_factor_batch", "comax_factor_quad", "comax_unique", "comax_unique_quad",
                     "comax_non_unique", "comax_hunt", "comax_hunt_no_witness", "comax_non_unique_quad26"]


@pytest.mark.parametrize("name", COMAX)
def test_every_plus_one_mutant_of_a_comax_golden_fails_recheck(name):
    report = json.loads((GOLDEN / f"{name}.out").read_text())
    assert recheck.verify_report(report) == []
    survivors, harmless = [], []
    for parent, key, path in list(numeric_leaves(report)):
        leaf = parent[key]
        parent[key] = leaf + 1 if type(leaf) is int else str(Fraction(leaf) + 1)
        if not recheck.verify_report(report):
            survivors.append(path)
        parent[key] = leaf
        if path in HARMLESS:
            harmless.append(path)
    assert recheck.verify_report(report) == []
    # every survivor is a named harmless leaf, and every named leaf present survives
    assert survivors == harmless
