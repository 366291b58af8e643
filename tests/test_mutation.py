"""Single-leaf mutation of every golden report: adding 1 to any one numeric
leaf (an int, or a string that reads as a Fraction) must make recheck fail.
On the comax and chain goldens the leaves named in HARMLESS, each with its
reason, and the level of a constant limit-ring cofactor (`_harmless_level`)
are exempt; the TIED goldens have no exempt leaf.  The NOT_A_PAIR and
UNTIED goldens have known survivors, pinned leaf by leaf: a change may tie
them and shrink these maps, never grow them.  Every report golden is in
exactly one of these lists, so a new golden fails until it is classified.
"""

import json
from pathlib import Path

import pytest

from princlab import recheck
from princlab.rational import Fraction

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
COMAX = [c["name"] for c in CASES if c["argv"][0] == "comax" and c["exit"] != 2]
CHAINS = ["limitring_chain", "limitring_chain_m6_z", "limitring_chain_m7_q", "mring_chain", "mring_chain_m7_q"]
TIED = ["ideal_mul", "mring_split", "mring_split_mult23", "idem_check", "idem_check_pullback",
        "idem_check_pullback_pole", "idem_check_monoid", "idem_check_monoid_z", "idem_from_ideal",
        "ideal_invertible", "ideal_not_invertible", "polyext_counterexample", "sphere_projector",
        "idem_matrix", "idem_check_quad", "idem_from_ideal_quad", "ideal_frompair", "ideal_principal",
        "ideal_non_principal", "ideal_principal_not_invertible", "ideal_principal_power",
        "ideal_principal_quad26", "ideal_non_principal_quad26", "ideal_factor", "pullback_reduce_detected",
        "pullback_reduce_quad", "pullback_base_non_principal", "pullback_nonufd", "mring_juett",
        "mring_juett_group_p3", "mring_chain_m7_zhalf", "mring_chain_m9_zhalf_s3", "mring_chain_m8_q_s1",
        "idem_from_ideal_zero", "idem_check_rat", "idem_check_qpoly", "idem_check_limit_q", "idem_check_monoid_zero",
        "idem_check_sphere"]
# recheck decides "not a pair" again from a and b, so the +1 mutant of a
# survives only as the report of another input with the same verdict: (5, 7)
# is no idempotent pair over Z either, and a and b are all the report says of
# its input
NOT_A_PAIR = {"idem_check_not_pair": [("result", "a", "value")], "idem_matrix_not_pair": [("result", "a", "value")]}

# goldens whose report does not tie some leaves to its input or claim: the
# reason, and the leaves whose +1 mutant passes recheck
UNTIED = {
    "limitring_eval": ("an echo command: recheck has no verifier for it, so no leaf is checked",
                       [("result", "element", "level"), *[("result", "element", "coeffs", k, "value") for k in range(7)],
                        ("result", "level")]),
    "sphere_reduce": ("an echo command: recheck has no verifier for it, so no leaf is checked",
                      [("result", "element", "g", i, j) for i in range(3) for j in range(3)]),
    "idem_from_ideal_qpoly": ("lam is 0 and the complement's generator and products are 0, so lam's den and the "
                              "quotients claim nothing",
                              [("result", "bezout", "lam", "den", "coeffs", 0, "value"),
                               *[("result", "complement", "quotients", i, "coeffs", k, "value")
                                 for i, k in ((0, 0), (0, 1), (2, 0))]]),
    "polyext_witness": ("alpha is all the report says of its input, and 2y is a witness as y is",
                        [("result", "alpha", "coeffs", 1, "value")]),
    "polyext_not_a_witness": ("alpha is all the report says of its input, and 1 + y^2 and 2y^2 are no witness "
                              "as y^2 is not",
                              [("result", "alpha", "coeffs", 0, "value"), ("result", "alpha", "coeffs", 2, "value")]),
    "pullback_reduce": ("ca is 0, so the den under its zero numerator claims nothing",
                        [("result", "ca", "den", "coeffs", 0, "value")]),
    "pullback_reduce_pole": ("cb is 0, so the den under its zero numerator claims nothing",
                             [("result", "cb", "den", "coeffs", 0, "value")]),
    "pullback_reduce_quad_zero": ("ca is 0, so the den under its zero numerator claims nothing",
                                  [("result", "ca", "den", "coeffs", 0, "value")]),
}

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


def mutants(name, harmless):
    """(survivors, harmless leaves) of the golden report `name`: the paths
    whose +1 mutant passes recheck, and the paths harmless(report, path)
    names."""
    report = json.loads((GOLDEN / f"{name}.out").read_text())
    assert recheck.verify_report(report) == []
    survivors, named = [], []
    for parent, key, path in list(numeric_leaves(report)):
        leaf = parent[key]
        parent[key] = leaf + 1 if type(leaf) is int else str(Fraction(leaf) + 1)
        if not recheck.verify_report(report):
            survivors.append(path)
        parent[key] = leaf
        if harmless(report, path):
            named.append(path)
    assert recheck.verify_report(report) == []
    return survivors, named


@pytest.mark.parametrize("name", COMAX)
def test_every_plus_one_mutant_of_a_comax_golden_fails_recheck(name):
    survivors, harmless = mutants(name, lambda report, path: path in HARMLESS)
    # every survivor is a named harmless leaf, and every named leaf present survives
    assert survivors == harmless


def _harmless_level(report, path):
    """A limit-ring lam or mu that is a constant is the same element at every
    level, so the level of a constant cofactor claims nothing."""
    if path[-1] != "level" or path[-2] not in ("lam", "mu"):
        return False
    node = report
    for key in path[:-1]:
        node = node[key]
    return len(node["coeffs"]) <= 1


def test_the_chain_goldens_are_the_mutated_ones():
    commands = {c["name"]: c["argv"][:2] for c in CASES}
    assert [commands[n] for n in CHAINS] == [["limitring", "chain"]] * 3 + [["mring", "chain"]] * 2


@pytest.mark.parametrize("name", CHAINS)
def test_every_plus_one_mutant_of_a_chain_golden_fails_recheck(name):
    survivors, harmless = mutants(name, _harmless_level)
    assert survivors == harmless
    # result.m is tied to the factor count, so it is not among them
    assert ("result", "m") not in survivors


@pytest.mark.parametrize("name", TIED)
def test_every_plus_one_mutant_of_a_tied_golden_fails_recheck(name):
    assert mutants(name, lambda report, path: False) == ([], [])


@pytest.mark.parametrize("name", NOT_A_PAIR)
def test_a_not_a_pair_golden_survives_only_as_another_non_pair(name):
    survivors, _ = mutants(name, lambda report, path: False)
    assert survivors == NOT_A_PAIR[name]


@pytest.mark.parametrize("name", UNTIED)
def test_an_untied_golden_has_only_its_pinned_survivors(name):
    survivors, _ = mutants(name, lambda report, path: False)
    assert survivors == UNTIED[name][1]


def test_every_report_golden_is_in_exactly_one_list():
    listed = COMAX + CHAINS + TIED + list(NOT_A_PAIR) + list(UNTIED)
    assert sorted(listed) == sorted(c["name"] for c in CASES if c["exit"] != 2)
