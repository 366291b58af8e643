"""The checker's independence from the producer, and its own integer
polynomial arithmetic against plain Fraction loops."""

import ast
import collections
import contextlib
import copy
import fractions
import io
import json
import re
import time
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import princlab
from fraction_ref import exponent_past_the_bound, fraction_lift, fraction_mul, std, strip
from princlab import core, recheck
from princlab.recheck import examples, orders, polys, values
from princlab.rational import Fraction

RECHECK_SOURCES = {path.stem: path.read_text() for path in Path(recheck.__file__).parent.glob("*.py")}
RECHECK_PARTS = {"values", "polys", "orders", "pairs", "examples"}


def test_recheck_imports_only_the_shared_rational_type():
    # read every module's source, not the loaded modules: an import inside a
    # function counts as much as one at the top.  From princlab a module may
    # import only rational's Fraction and parser, and the package's own parts
    assert set(RECHECK_SOURCES) == RECHECK_PARTS | {"__init__"}
    found = []
    for name, source in sorted(RECHECK_SOURCES.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                package = node.level > 0 or (node.module or "").split(".")[0] == princlab.__name__
                own = node.level == 1 and (node.module in RECHECK_PARTS or node.module is None
                                           and {a.name for a in node.names} <= RECHECK_PARTS)
                if package and not own:
                    found.append((name, node.level, node.module, tuple(a.name for a in node.names)))
            elif isinstance(node, ast.Import):
                found += [(name, 0, a.name, ()) for a in node.names if a.name.split(".")[0] == princlab.__name__]
            elif isinstance(node, ast.Name) and node.id in ("__import__", "importlib"):
                found.append((name, 0, node.id, ()))
    assert found == [("examples", 2, "rational", ("Fraction",)), ("orders", 2, "rational", ("Fraction",)),
                     ("polys", 2, "rational", ("Fraction",)),
                     ("values", 2, "rational", ("Fraction", "_parse"))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), max_size=6))
def test_recheck_span_matches_the_producer_hermite_form(vectors):
    # a lattice has one such basis, so recheck's reduction and the
    # producer's core.hnf2_with_transform agree on every span, rank below 2 too
    (n, _), (c, m), _, _ = core.hnf2_with_transform(vectors)
    assert orders._span(vectors) == (n, c, m)


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
    # the reference runs on the stdlib's Fractions
    lifted_a, lifted_b = fraction_lift(std(a), n - la), fraction_lift(std(b), n - lb)
    lifted = polys._lim_lift(("lim", la, a), n)
    assert lifted[:2] == ("lim", n) and std(lifted[2]) == lifted_a
    product = values.v_mul(("lim", la, a), ("lim", lb, b))
    assert product[:2] == ("lim", n) and std(product[2]) == fraction_mul(lifted_a, lifted_b)
    pa, pb = ("poly", tuple(("rat", c) for c in a)), ("poly", tuple(("rat", c) for c in b))
    product = values.v_mul(pa, pb)
    assert product[0] == "poly" and all(tag == "rat" for tag, _ in product[1])
    assert std(c for _, c in product[1]) == fraction_mul(std(a), std(b))


def fraction_mon_mul(a, b):
    out = {}
    for e1, c1 in a:
        for e2, c2 in b:
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return tuple(sorted((e, c) for e, c in out.items() if c))


def mon_terms_of(v):
    """The (exponent, coefficient) Fractions of a "mon" value."""
    _, den, cden, terms = v
    return tuple((Fraction(e, den), Fraction(c, cden)) for e, c in terms)


def mon_normal(v):
    # ints over least denominators, ascending distinct exponents, no zero
    _, den, cden, terms = v
    assert all(type(x) is int for x in (den, cden, *(x for t in terms for x in t)))
    assert den > 0 and cden > 0 and all(c for _, c in terms)
    assert [e for e, _ in terms] == sorted({e for e, _ in terms})
    assert gcd(den, *(e for e, _ in terms)) == 1 and gcd(cden, *(c for _, c in terms)) == 1
    return True


# exponents with one far-out choice, so products fall on both sides of the
# dense-length guard; terms may repeat and come in any order
exponents = st.one_of(
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 9, 2**20])),
    st.sampled_from([Fraction(10**6), Fraction(-1, 2**20)]),
)
mon_terms = st.lists(st.tuples(exponents, rationals), max_size=6).map(tuple)


@settings(max_examples=300, deadline=None)
@given(a=mon_terms, b=mon_terms)
def test_mon_product_matches_a_fraction_loop(a, b):
    # a "mon" value holds integer exponents over one denominator and integer
    # coefficients over another; repeated terms merge when it is built
    va, vb = polys._mon_of(a), polys._mon_of(b)
    assert mon_terms_of(va) == fraction_mon_mul(a, ((Fraction(0), Fraction(1)),))
    prod = values.v_mul(va, vb)
    assert mon_terms_of(prod) == fraction_mon_mul(a, b)
    assert mon_normal(prod) and prod == polys._mon_of(fraction_mon_mul(a, b))


def test_sparse_mon_product_stays_sparse():
    sparse_terms = ((Fraction(1, 2**20), Fraction(1)), (Fraction(10**6), Fraction(1)))
    dense_terms = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))
    sparse, dense = polys._mon_of(sparse_terms), polys._mon_of(dense_terms)
    # both on the exponent denominator 2^20
    dense_grid = [(e * 2**20, c) for e, c in dense[3]]
    assert polys._mon_imul(list(sparse[3]), dense_grid) is None
    assert mon_terms_of(values.v_mul(sparse, dense)) == fraction_mon_mul(sparse_terms, dense_terms)
    assert polys._mon_norm(1, 1, polys._mon_imul(dense[3], dense[3])) == values.v_mul(dense, dense)


def parse_outcome(fn, s):
    try:
        return fn(s)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    rationals.map(str),
    st.text("0123456789-+/._ e٣", max_size=8),
    st.sampled_from(["3/-4", "--3", "-", "/4", "3/", "1/0", " 3", "+3", "1e3", "1_0", "0e4301", "1e99999999"]),
))
def test_rational_leaves_decode_as_fraction_parses_them(s):
    # the reference is the stdlib's parser, which would first build
    # 10**exponent for an exponent past the bound
    if exponent_past_the_bound(s):
        with pytest.raises(ValueError, match="passes 4300 in magnitude"):
            values._q(s)
        return

    def pair(f):
        return f.numerator, f.denominator

    want = parse_outcome(lambda s: pair(fractions.Fraction(s)), s)
    assert parse_outcome(lambda s: pair(Fraction(*values._q(s))), s) == want


def per_term_membership(v, ring, label):
    # every term on its own, as the checker did before its whole-vector test
    fails = []
    primes = [int(p) for p in ring["monoid"]["primes"]]
    base = ring["base"]
    for e, c in mon_terms_of(v):
        if not ring["monoid"]["group"] and e < 0:
            fails.append(f"{label}: negative exponent outside group mode")
        if values._strip(e.denominator, primes) != 1:
            fails.append(f"{label}: exponent {e} outside the denominator lattice")
        if base["family"] == "int" and c.denominator != 1:
            fails.append(f"{label}: coefficient {c} outside Z")
        if base["family"] == "zloc" and values._strip(c.denominator, [int(p) for p in base["primes"]]) != 1:
            fails.append(f"{label}: coefficient {c} outside the localized base")
    return fails


mon_rings = st.builds(
    lambda base, primes, group: {"family": "monoid", "base": base, "monoid": {"primes": primes, "group": group}},
    st.sampled_from([{"family": "int"}, {"family": "rat"}, {"family": "zloc", "primes": ["2"]},
                     {"family": "zloc", "primes": ["3", "5"]}]),
    st.sampled_from([["2"], ["3"], ["2", "3"]]),
    st.booleans(),
)
member_terms = st.lists(st.tuples(
    st.builds(Fraction, st.integers(-4, 9), st.sampled_from([1, 2, 3, 4, 5, 6])),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5])),
), max_size=5)


@settings(max_examples=300, deadline=None)
@given(ring=mon_rings, terms=member_terms)
def test_mon_membership_names_the_terms_a_per_term_check_names(ring, terms):
    v = polys._mon_of(terms)
    fails = []
    polys._mon_in_ring(v, ring, fails, "lam")
    assert fails == per_term_membership(v, ring, "lam")


GOLDEN = Path(__file__).parent / "golden"
REPORTS = [c["name"] for c in json.loads((GOLDEN / "cases.json").read_text()) if c["exit"] != 2]


def golden(name):
    return json.loads((GOLDEN / f"{name}.out").read_text())


@pytest.mark.parametrize("schema", ["princlab/1", None, "princlab/3", ""], ids=["v1", "none", "other", "empty"])
def test_a_report_of_another_schema_fails_by_its_schema_alone(schema):
    # the checker holds its own copy of the producer's schema name
    assert recheck.SCHEMA == princlab.REPORT_SCHEMA == "princlab/2"
    for name in REPORTS:
        report = golden(name)
        if schema is None:
            del report["schema"]
        else:
            report["schema"] = schema
        assert recheck.verify_report(report) == [f"report schema {schema!r} is not 'princlab/2'"], name


def golden_fails(name, mutate):
    """recheck's failures on the golden report `name` after mutate(report)."""
    report = golden(name)
    assert recheck.verify_report(report) == []
    report = copy.deepcopy(report)
    mutate(report)
    return recheck.verify_report(report)


def plus_one(leaf: str) -> str:
    return str(Fraction(leaf) + 1)


@pytest.mark.parametrize("name", ["limitring_chain", "limitring_chain_m6_z"])
def test_every_limit_chain_factor_enters_the_product(name):
    # the product runs x_m, 1+x_m, ..., 1+x_2, not in the listed order
    m = json.loads((GOLDEN / f"{name}.out").read_text())["result"]["m"]
    for k in range(m):
        def bump(report, k=k):
            leaf = report["result"]["factors"][k]["coeffs"][0]
            leaf["value"] = plus_one(leaf["value"])

        assert "product of chain factors differs from the lift of x_1" in golden_fails(name, bump), k


def test_a_leaf_in_exponent_form_past_the_bound_aborts_recheck_at_once():
    # the stdlib's parser would build 10**99999999 first
    start = time.perf_counter()
    fails = golden_fails("mring_split", lambda report: report["result"].update(s="1e99999999"))
    assert time.perf_counter() - start < 1
    assert fails == ["recheck aborted: ValueError: the exponent of '1e99999999' passes 4300 in magnitude"]


@pytest.mark.parametrize("mutate", [lambda checks: checks[0].__setitem__(1, False), lambda checks: checks.pop(),
                                    lambda checks: checks[2].__setitem__(0, "x*E == 1")],
                         ids=["false", "missing", "renamed"])
def test_a_projector_report_listing_other_than_its_five_true_identities_fails(mutate):
    # the producer lists the identities without raising on them
    fails = golden_fails("sphere_projector", lambda report: mutate(report["result"]["checks"]))
    assert fails == ["checks are not the five identities, each true"]


def _int(v):
    return {"type": "int", "value": str(v)}


def _rat(v):
    return {"type": "rat", "value": str(v)}


def test_an_idem_check_witness_outside_the_ring_fails():
    # (2, 3) is no idempotent pair of Z, yet r = -2/3 gives 2*(1 - 2) == 3*r
    def forge(report):
        result = report["result"]
        result.update(a=_int(2), b=_int(3), complement=None)
        result["pair"].update(a=_int(2), b=_int(3), orientation="ab", witness=_rat("-2/3"))

    assert golden_fails("idem_check", forge) == ["pair witness does not lie in the ring"]


def test_an_idem_from_ideal_pair_outside_the_ring_fails():
    # lam = 1/4, mu = 0 solve lam*4 + mu*6 == 1 over Q and derive the pair
    # (1, 3/2) with witness 0, whose complement is recomputed to match
    def forge(report):
        result = report["result"]
        result["bezout"] = {"lam": _rat("1/4"), "mu": _int(0)}
        result["pair"].update(a=_int(1), b=_rat("3/2"), orientation="ab", witness=_int(0))
        result["complement"].update(generator=_rat("3/2"), products=[_int(0), _rat("3/2"), _int(0), _rat("9/4")],
                                    quotients=[_int(0), _int(1), _int(0), _rat("3/2")])

    assert golden_fails("idem_from_ideal", forge) == [
        "derived pair b does not lie in the ring", "complement quotient 3 does not lie in the ring"]


def _witness_off_the_ring(report):
    # a witness in the fraction field but not in the ring (the pair identity
    # fails too): half the sqrt(d) coordinate, half of each D[X;S]
    # coefficient, 1/2 more at Y = 0 in the pullback
    w = report["result"]["pair"]["witness"]
    if w["type"] == "quad":
        w["y"] = str(Fraction(w["y"]) / 2)
    elif w["type"] == "monoid":
        w["terms"] = [[e, _rat(Fraction(c["value"]) / 2)] for e, c in w["terms"]]
    else:
        coeffs = w["num"]["coeffs"]
        coeffs[0] = _rat(Fraction(coeffs[0]["value"]) + Fraction(1, 2))


@pytest.mark.parametrize("name,failure", [
    ("idem_check_quad", "pair witness does not lie in the ring"),
    ("idem_check_monoid_z", "pair witness: coefficient 1/2 outside Z"),
    ("idem_check_pullback", "pair witness does not lie in the ring"),
])
def test_an_idem_witness_is_checked_in_its_ring(name, failure):
    assert failure in golden_fails(name, _witness_off_the_ring)


def test_a_counterexample_whose_alpha_lies_in_d_fails(monkeypatch):
    # alpha = y^2 lies in D = Q[y^2, y^3], so (u, v) is principal; with the
    # producer's witness guard patched out, every identity of its report holds
    from princlab import cli, polyext

    monkeypatch.setattr(polyext, "seminormal_witness", lambda alpha, desc: True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["polyext", "counterexample", "--alpha", "y^2"]) == 3
    failure = "alpha is not a seminormality witness: need alpha^2, alpha^3 in D, alpha not in D"
    assert recheck.verify_report(json.loads(out.getvalue())) == [failure]
    assert err.getvalue() == f"princlab: recheck FAILED: {failure}\n"


def test_a_counterexample_over_degrees_that_leave_no_subring_fails(monkeypatch):
    # with 2 and 3 excluded, y * y is excluded, so the span is no ring; with
    # SubringDesc's closure check patched out, every identity of the report
    # holds and alpha = y^2 is a witness
    from princlab import cli, polyext

    def unchecked(self, excluded):
        self.excluded = frozenset(int(e) for e in excluded)

    monkeypatch.setattr(polyext.SubringDesc, "__init__", unchecked)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["polyext", "counterexample", "--alpha", "y^2", "--exclude", "2,3"]) == 3
    failure = "D is not closed under products: 1 + 1 is excluded"
    assert recheck.verify_report(json.loads(out.getvalue())) == [failure]
    assert err.getvalue() == f"princlab: recheck FAILED: {failure}\n"


def test_recheck_and_the_producer_agree_on_which_degrees_leave_a_subring():
    from itertools import combinations

    from princlab.polyext import SubringDesc, SubringError

    for size in range(10):
        for excluded in combinations(range(1, 10), size):
            try:
                SubringDesc(excluded)
                closed = True
            except SubringError:
                closed = False
            assert (examples._subring_fails(set(excluded)) == []) == closed, excluded


def semigroup_gaps(gens):
    """The gaps of the numerical semigroup the generators (gcd 1) span."""
    bound = min(gens) * max(gens)  # past the Frobenius number
    spanned = bytearray(bound)
    spanned[0] = 1
    for n in range(1, bound):
        spanned[n] = any(n >= g and spanned[n - g] for g in gens)
    return {n for n in range(bound) if not spanned[n]}


def pair_walk(excluded):
    """Whether the degrees outside `excluded` are closed under +, by the walk
    over every pair of them below the largest excluded degree."""
    top = max(excluded, default=0)
    left = [i for i in range(1, top) if i not in excluded]
    return not any(i + j in excluded for i in left for j in left if i <= j)


closed_sets = st.lists(st.integers(2, 12), min_size=1, max_size=3).map(lambda g: semigroup_gaps(g + [g[0] + 1]))
excluded_sets = st.one_of(
    st.sets(st.integers(1, 40), max_size=25),
    closed_sets,
    # a closed set with one degree added or taken out
    st.tuples(closed_sets, st.integers(1, 60)).map(lambda t: t[0] ^ {t[1]}),
)


@settings(max_examples=400, deadline=None)
@given(excluded=excluded_sets)
def test_the_multiplicity_closure_checks_decide_as_the_pair_walk_does(excluded):
    # the producer and recheck check closure through the least degree left
    # and the least degree left of each class mod it; a pair either names
    # must be two degrees left whose sum is excluded
    from princlab.polyext import SubringDesc, SubringError

    closed = pair_walk(excluded)
    if closed and excluded:
        # a numerical semigroup's largest gap is below twice its number of gaps
        assert max(excluded) < 2 * len(excluded)
    try:
        SubringDesc(excluded)
        failures = []
    except SubringError as exc:
        failures = [str(exc)]
    failures += examples._subring_fails(set(excluded))
    assert len(failures) == (0 if closed else 2)
    for failure in failures:
        named = re.search(r"(\d+) \+ (\d+) is excluded$", failure)
        if named:
            i, j = map(int, named.groups())
            assert i not in excluded and j not in excluded and i + j in excluded


def test_the_closure_checks_of_a_semigroup_with_many_gaps_take_under_a_second():
    # <200, 201> has 19,900 gaps up to 39,799: the pair walk took seconds
    from princlab.polyext import SubringDesc

    excluded = semigroup_gaps([200, 201])
    assert (len(excluded), max(excluded)) == (19900, 39799)
    start = time.perf_counter()
    SubringDesc(excluded)
    produced = time.perf_counter()
    assert examples._subring_fails(excluded) == []
    assert produced - start < 1 and time.perf_counter() - produced < 1


@pytest.mark.parametrize("name", ["polyext_counterexample", "polyext_witness"])
def test_a_huge_excluded_degree_fails_before_the_closure_walk(name):
    report = json.loads((GOLDEN / f"{name}.out").read_text())
    report["result"]["excluded"] = ["1000000000"]
    start = time.perf_counter()
    fails = recheck.verify_report(report)
    assert time.perf_counter() - start < 1
    assert fails[0] == ("excluded degree 1000000000 is not below twice the number of excluded degrees, "
                        "so D is not closed under products")


@pytest.mark.parametrize("name", ["pullback_base_non_principal", "pullback_reduce_quad"])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("key", ["x", "y", "d"])
def test_base_pair_is_tied_to_the_values_at_zero(name, k, key):
    def bump(report):
        entry = report["result"]["base_pair"][k]
        entry[key] = plus_one(entry[key])

    assert golden_fails(name, bump)


def test_base_pair_is_null_outside_a_base_reduction():
    def add_pair(report):
        report["result"]["base_pair"] = [{"type": "int", "value": "0"}, {"type": "int", "value": "1"}]

    assert golden_fails("pullback_reduce", add_pair) == ["base_pair is set outside a base reduction"]


def _bump_juett(*path):
    def bump(report):
        *head, last = path
        node = report["result"]
        for part in head:
            node = node[part]
        node[last] = node[last] + 1 if type(node[last]) is int else plus_one(node[last])

    return bump


@pytest.mark.parametrize(
    "mutate",
    [
        lambda report: report["ring"]["monoid"].update(primes=["3", "3"]),
        _bump_juett("p"),
        _bump_juett("beta"),
        _bump_juett("z", "terms", 0, 0),
        _bump_juett("z", "terms", 0, 1, "value"),
    ],
    ids=["primes-3-3", "p", "beta", "z-exponent", "z-coefficient"],
)
def test_juett_split_is_tied_to_its_ring_and_parameters(mutate):
    assert golden_fails("mring_juett_group_p3", mutate)


def _bump_at(*path):
    def bump(report):
        *head, last = path
        node = report
        for part in head:
            node = node[part]
        node[last] = plus_one(node[last])

    return bump


def d_leaves(node, path="result"):
    """(dict, path) of every Z[sqrt(d)] element and ideal anywhere under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, v in items:
        at = f"{path}[{key}]" if type(key) is int else f"{path}.{key}"
        if isinstance(v, dict) and v.get("type") in ("quad", "quadrat", "quadideal"):
            yield v, at
        else:
            yield from d_leaves(v, at)


def _d_ring(report):
    """The ring.d or ring.base.d that names a report's Z[sqrt(d)], or None."""
    ring = report["ring"] or {}
    for where, r in (("ring.d", ring), ("ring.base.d", ring.get("base") or {})):
        if r.get("family") == "quad":
            return where, r
    return None


QUAD_REPORTS = [name for name in REPORTS if _d_ring(golden(name))]


def test_the_quad_goldens_have_their_d_leaves():
    assert len(QUAD_REPORTS) == 21
    # a comax result writes its element and support once (200 leaves with a
    # copy in each factorization)
    assert sum(len(list(d_leaves(golden(name)["result"]))) for name in QUAD_REPORTS) == 170


@pytest.mark.parametrize("name", QUAD_REPORTS)
def test_the_d_of_every_leaf_and_of_the_ring_is_tied(name):
    # one failure naming the leaf whose d changed, or the ring's d against
    # its values, and never an abort on arithmetic over two d
    report = golden(name)
    where, ring = _d_ring(report)
    d = int(ring["d"])
    for k, (_, path) in enumerate(d_leaves(report["result"])):
        def change(r, k=k):
            leaf, _ = list(d_leaves(r["result"]))[k]
            leaf["d"] = str(d - 1)

        assert golden_fails(name, change) == [f"{where} is {d}, but {path} has d = {d - 1}"]
    fails = golden_fails(name, lambda r: _d_ring(r)[1].update(d=str(d - 1)))
    assert fails and all(f.startswith(f"{where} is {d - 1}, but result") for f in fails)


def test_every_verdict_flip_of_a_golden_fails():
    verdicts = {}
    for name in REPORTS:
        report = golden(name)
        verdicts.setdefault(report["command"], set()).add(report["verdict"])
    for name in REPORTS:
        report = golden(name)
        verdict = report["verdict"]
        for flip in sorted(verdicts[report["command"]] - {verdict}) + ["bogus"]:
            assert golden_fails(name, lambda r: r.update(verdict=flip)) == [
                f"verdict {flip!r} is not the {verdict!r} its result gives"], (name, flip)


@pytest.mark.parametrize("name", ["ideal_principal", "pullback_reduce_quad", "pullback_reduce"])
def test_a_status_its_command_never_gives_fails_under_the_same_verdict(name):
    # these commands' verdict is their status, so the status is checked itself
    def bogus(report):
        report.update(verdict="bogus")
        report["result"].update(status="bogus")

    assert golden_fails(name, bogus) == ["unknown status 'bogus'"]


def decoded_leaves(node):
    """Every element under node, nested ones too, decoded; ideals are left out."""
    items = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    if isinstance(node, dict) and node.get("type") not in (None, "quadideal"):
        yield values.dec(node)
    for v in items:
        yield from decoded_leaves(v)


def test_identity_values_are_the_identities_of_every_golden_leaf():
    tags = set()
    for name in REPORTS:
        for v in decoded_leaves(golden(name)["result"]):
            one, zero = values.v_one_like(v), values.v_zero_like(v)
            assert values.v_eq(values.v_mul(one, v), v), (name, v)
            assert values.v_eq(values.v_add(zero, v), v), (name, v)
            assert values.v_is_zero(zero), (name, v)
            tags.add(v[0] if v[0] != "poly" or not v[1] else ("poly", v[1][-1][0]))
    assert tags == {"rat", "quad", "poly", ("poly", "rat"), ("poly", "quad"), ("poly", "poly"), "rf", "mon", "lim",
                    "sph"}


@pytest.mark.parametrize(
    "mutate,failure",
    [
        (lambda result: result["chain"].pop(), "chain length 2 is not n = 3 >= 1"),
        (lambda result: result.update(n=0, chain=[]), "chain length 0 is not n = 0 >= 1"),
    ],
    ids=["last-dropped", "empty"],
)
def test_a_pullback_nonufd_chain_of_other_than_n_elements_fails(mutate, failure):
    # each element left is still z/d^k: only the length tells
    assert golden_fails("pullback_nonufd", lambda report: mutate(report["result"])) == [failure]


def test_a_composite_monoid_prime_fails():
    fails = golden_fails("mring_juett_group_p3", lambda report: report["ring"]["monoid"].update(primes=["2", "4"]))
    assert "ring.monoid.primes: 4 is composite (divisible by 2)" in fails


def test_not_prime_is_exact():
    sieve = [True] * 20000
    sieve[0] = sieve[1] = False
    for p in range(2, 142):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, 20000, p))
    assert [n for n in range(20000) if values._not_prime(n) is None] == [n for n in range(20000) if sieve[n]]
    # strong pseudoprimes to the bases 2..7 and 2..23, a Carmichael number,
    # two Mersenne primes, and one past the proven range
    assert values._not_prime(3215031751).startswith("is composite")
    assert values._not_prime(3825123056546413051).startswith("is composite")
    assert values._not_prime(561 * 1000003).startswith("is composite")
    assert values._not_prime(2**61 - 1) is None and values._not_prime(2**31 - 1) is None
    assert values._not_prime(2**89 - 1) == "is too large to prove prime"


@pytest.mark.parametrize("name", ["ideal_principal_quad26", "ideal_non_principal_quad26"])
@pytest.mark.parametrize(
    "path",
    [("search", "form", 0), ("search", "form", 1), ("search", "form", 2),
     ("search", "transform", 0, 0), ("search", "transform", 0, 1),
     ("search", "transform", 1, 0), ("search", "transform", 1, 1),
     ("search", "reduced", 0), ("search", "reduced", 1), ("search", "reduced", 2),
     ("ideal", "basis", 1, 0), ("ideal", "basis", 1, 1)],
)
def test_every_leaf_of_the_reduction_certificate_is_checked(name, path):
    assert golden_fails(name, _bump_at("result", *path))


@pytest.mark.parametrize("d,x,y", [(-5, 2, 1), (-26, 1, 1), (-26, 20, 5), (-1, 3, 4)])
def test_a_principal_ideal_fails_a_non_principal_claim(d, x, y):
    fails = []
    orders._nonprincipal_fails(orders._span(orders._elem_vectors(x, y, d)), d, fails, "I")
    assert fails == [f"I: claimed non-principal, but its form reduces to (1, 0, {-d})"]
    fails = []
    orders._nonprincipal_fails(orders._span(orders._elem_vectors(3, 0, -26) + orders._elem_vectors(1, 1, -26)),
                                -26, fails, "I")
    assert fails == []


def test_a_reducible_factor_fails_even_when_its_report_says_so():
    # factorization 0 of 21 in Z[sqrt(-5)] is 3 * 7 over blocks [0, 1] and
    # [2, 3]; as one factor 21 its block splits into two principal blocks.
    # A `transcripts` key that admits as much is not read, so it excuses nothing
    def merge(report):
        element = report["result"]["element"]
        report["result"]["factorizations"][0].update(
            factors=[element], pairwise=[], blocks=[[0, 1, 2, 3]],
            transcripts=[{"element": element, "pseudo_irreducible": False, "splits": []}])

    fails = golden_fails("comax_non_unique", merge)
    assert "block [0, 1, 2, 3] splits into principal blocks [0, 1] and [2, 3]" in fails


@pytest.mark.parametrize("copies", [24, 25])
def test_a_wide_comax_block_fails_without_walking_its_splits(copies):
    # one factor over a block of k copies of (3, 1+sqrt(-5)), whose square is
    # (2-sqrt(-5)): for even k the block is principal and [0, 1] is a
    # principal part of it; for odd k it is not principal, no element
    # generates it, and each of its 2^(k-1) - 1 splits has a non-principal side
    x, y = 3 ** (copies % 2), 0
    for _ in range(copies // 2):
        x, y = 2 * x + 5 * y, 2 * y - x
    g = {"type": "quad", "x": str(x), "y": str(y), "d": "-5"}
    report = json.loads((GOLDEN / "comax_non_unique.out").read_text())
    result = report["result"]
    fact = result["factorizations"][0]
    fact.update(factors=[g], pairwise=[], blocks=[list(range(copies))])
    result.update(element=g, support=result["support"][:1] * copies, count=1, factorizations=[fact])
    report["verdict"] = "unique"
    start = time.perf_counter()
    fails = recheck.verify_report(report)
    assert time.perf_counter() - start < 1
    block = list(range(copies))
    # a support lists each prime once, so every copy after the first fails too
    assert fails == [f"support[{i}] repeats an earlier entry" for i in block[1:]] + [
        f"block {block} splits into principal blocks [0, 1] and {block[2:]}" if copies % 2 == 0
        else f"[0] factors[0] does not generate the ideal of its block {block}"]


def test_the_class_walk_decides_every_block_as_its_splits_do():
    # every sub-block of a Z[sqrt(-26)] support (class group of order 6)
    # with three primes repeated: the walk fails a block exactly when one
    # of its splits has two principal sides
    report = json.loads((GOLDEN / "comax_non_unique_quad26.out").read_text())
    support = report["result"]["support"]
    support = support + support[:3]
    blocks = orders._Blocks(support, report["ring"], [])
    principal = (1, 0, 26)
    for mask in range(1, 1 << len(support)):
        block = tuple(i for i in range(len(support)) if mask >> i & 1)
        splits = [(tuple(i for n, i in enumerate(block) if side >> n & 1),
                   tuple(i for n, i in enumerate(block) if not side >> n & 1)) for side in range(1, 1 << (len(block) - 1))]
        splits = [(a, b) for a, b in splits if blocks._class(a) == principal == blocks._class(b)]
        blocks.fails.clear()
        blocks.check(block)
        assert bool(blocks.fails) == bool(splits), block
        if blocks.fails:
            a, b = (tuple(json.loads(side)) for side in blocks.fails[0].split("principal blocks ")[1].split(" and "))
            assert blocks._class(a) == principal == blocks._class(b)


def test_every_mring_chain_factor_is_a_member_of_the_ring():
    # X^(1/3) is off the exponent lattice Z[1/2] of the monoid
    def off_lattice(report):
        report["result"]["factors"][0]["terms"][1][0] = "1/3"

    assert "factors[0]: exponent 1/3 outside the denominator lattice" in golden_fails("mring_chain_m7_zhalf", off_lattice)


def test_a_factor_is_tied_to_its_block():
    # swapping the factors of factorization 1 (and so its Bezout pair) keeps
    # the product and the pair, but each factor now sits on the other's block
    def swap(report):
        fact = report["result"]["factorizations"][1]
        fact["factors"].reverse()
        pair = fact["pairwise"][0]
        pair["lam"], pair["mu"] = pair["mu"], pair["lam"]

    fails = golden_fails("comax_non_unique", swap)
    assert "[1] factors[0] does not generate the ideal of its block [0, 2]" in fails
    assert "[1] factors[1] does not generate the ideal of its block [1, 3]" in fails


@pytest.mark.parametrize(
    "mutate,failure",
    [(lambda result: result["factorizations"][0].update(pairwise=[]),
      "[0] pairwise certificates do not cover each pair of factors once"),
     (lambda result: result.update(count=0, factorizations=[]), "no factorization is listed")],
    ids=["pair-dropped", "no-factorization"],
)
def test_a_comax_report_without_a_certificate_fails(mutate, failure):
    assert failure in golden_fails("comax_non_unique", lambda report: mutate(report["result"]))


@pytest.mark.parametrize("name", ["comax_non_unique", "comax_hunt"])
def test_a_raised_exponent_in_the_one_support_fails(name):
    # 21 in Z[sqrt(-5)] is P3 * P3' * P7 * P7', each to the first power; each
    # factorization's factor over P3 then generates another ideal than its block
    def raise_first(report):
        report["result"]["support"][0]["exponent"] += 1

    fails = golden_fails(name, raise_first)
    assert fails and all(re.fullmatch(r"\[\d\] factors\[\d\] does not generate the ideal of its block \[0, \d\]", f)
                         for f in fails), fails
    assert len(fails) == len(golden(name)["result"]["factorizations"])


@pytest.mark.parametrize(
    "name,bound,failure",
    [("comax_hunt", 125, "witness norm 126 exceeds the bound 125"),
     ("comax_hunt_no_witness", 1, "bound 1 is below 2, so no norm was scanned")],
)
def test_comax_hunt_is_tied_to_its_bound(name, bound, failure):
    assert failure in golden_fails(name, lambda report: report["result"].update(bound=bound))


# ------------------------------------- chain certificates and comax claims


def chain_report(*argv):
    from princlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    report = json.loads(out.getvalue())
    assert recheck.verify_report(report) == []
    return report


CHAIN_ARGV = [("limitring", "chain", "--m", "4", "--ring", "limitring:Q"),
              ("limitring", "chain", "--m", "4", "--ring", "limitring:Z"),
              ("mring", "chain", "--m", "4", "--ring", "Q[X;S]"),
              ("mring", "chain", "--m", "4", "--ring", "Z[1/2][X;S]", "--s", "5/4")]


@pytest.mark.parametrize("argv", CHAIN_ARGV, ids=lambda a: " ".join(a))
def test_a_chain_without_a_pair_certificate_fails(argv):
    for cut in (-1, 0):
        report = chain_report(*argv)
        del report["result"]["pairwise"][cut]
        assert "pairwise certificates do not cover each pair of factors once" in recheck.verify_report(report)
    report = chain_report(*argv)
    pairs = report["result"]["pairwise"]
    pairs[0], pairs[1] = pairs[1], pairs[0]
    assert "pairwise certificates do not cover each pair of factors once" in recheck.verify_report(report)


@pytest.mark.parametrize("argv", CHAIN_ARGV, ids=lambda a: " ".join(a))
@pytest.mark.parametrize("m", [2, 3, 5])
def test_a_chain_length_is_tied_to_its_factors(argv, m):
    report = chain_report(*argv)
    report["result"]["m"] = m
    assert recheck.verify_report(report) == [f"m is {m}, but the chain has 4 factors"]


def test_a_comax_support_entry_must_be_a_prime_ideal():
    # 21 in Z[sqrt(-5)] as one factor over the single "prime" (21): every
    # split of 21 would hide inside that entry
    def one_fake_prime(report):
        result = report["result"]
        fact = result["factorizations"][0]
        fact.update(factors=[result["element"]], pairwise=[], blocks=[[0]])
        result.update(count=1, factorizations=[fact], support=[
            {"prime": {"type": "quadideal", "d": "-5", "basis": [["21", "0"], ["0", "21"]]}, "exponent": 1}])
        report["verdict"] = "unique"

    assert golden_fails("comax_non_unique", one_fake_prime) == ["support[0] is not a prime ideal"]


@pytest.mark.parametrize("basis,prime", [
    ((2, 0, 2), False),   # 2 ramifies in Z[sqrt(-5)]
    ((5, 0, 5), False),   # 5 ramifies
    ((11, 0, 11), True),  # -5 is not a square mod 11: 11 is inert
    ((7, 0, 7), False),   # 7 splits
    ((7, 3, 1), True),    # a prime over 7: 3^2 == -5 mod 7
    ((7, 1, 1), False),   # not an ideal: 1 != -5 mod 7
    ((9, 2, 1), False),   # norm 9 is not a prime
    ((3, 0, 1), False),   # not an ideal
])
def test_prime_labels_of_z_sqrt_minus_5(basis, prime):
    assert (orders._prime_label(("qid", -5, *basis), -5) is not None) == prime


def test_a_comax_support_over_z_lists_distinct_primes():
    def entry(report, value):
        report["result"]["support"][1]["prime"]["value"] = value

    assert "support[1] repeats an earlier entry" in golden_fails("comax_unique", lambda r: entry(r, "2"))
    assert "support[1] is not a prime" in golden_fails("comax_unique", lambda r: entry(r, "9"))


def test_support_primes_are_proven_up_to_the_producers_bound():
    # factorint refuses a support prime at or above core._MR_BOUND, the bound
    # below which recheck's Miller-Rabin is exact
    below, above = sympy.prevprime(core._MR_BOUND), sympy.nextprime(core._MR_BOUND)
    assert orders._prime_label(("rat", Fraction(below)), None) == below
    assert orders._prime_label(("rat", Fraction(above)), None) is None


def test_the_comax_verdict_is_tied_to_its_count():
    assert golden_fails("comax_non_unique", lambda r: r.update(verdict="unique")) == [
        "verdict 'unique' is not the 'non_unique' its result gives"]
    assert golden_fails("comax_unique", lambda r: r.update(verdict="non_unique")) == [
        "verdict 'non_unique' is not the 'unique' its result gives"]


# ---------------------------------------------------- limit-ring lifting


ints_or_fractions = st.one_of(
    st.lists(st.integers(-9, 9), max_size=5),
    st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)), max_size=5),
).map(tuple)


@settings(max_examples=150, deadline=None)
@given(cs=ints_or_fractions, level=st.integers(1, 3), k=st.integers(0, 6))
def test_the_iterate_lift_is_the_level_by_level_lift(cs, level, k):
    # a decoded value: no trailing zero, ints when every coefficient is one
    cs = strip(cs)
    cs = tuple(map(int, cs)) if all(Fraction(c).denominator == 1 for c in cs) else tuple(map(Fraction, cs))
    lifted = polys._lim_lift(("lim", level, cs), level + k)
    assert lifted[:2] == ("lim", level + k)
    assert std(lifted[2]) == strip(fraction_lift(std(map(Fraction, cs)), k))
    # ints exactly when every coefficient is an integer
    assert all(type(c) is int for c in lifted[2]) == all(Fraction(c).denominator == 1 for c in lifted[2])


@pytest.mark.parametrize("value,name", [(lambda r: r["factors"][0], "factors[0]"),
                                        (lambda r: r["pairwise"][0]["lam"], "pairwise 0,1 lam")],
                         ids=["factor", "lam"])
def test_a_limit_value_above_the_chain_level_fails_before_it_is_lifted(value, name):
    # each level past m costs about 8 times more to lift to, so a forged one
    # must fail before any product or Bezout identity
    start = time.perf_counter()
    fails = golden_fails("limitring_chain", lambda report: value(report["result"]).update(level=20))
    assert time.perf_counter() - start < 1
    assert fails == [f"{name} has level 20, above the chain's m = 3"]


# ------------------------------------------- Bezout certificates in the ring


def _leaf(v):
    """A decoded "rat", "quad", "lim" or "mon" value as a report leaf."""
    if v[0] == "rat":
        return {"type": "rat", "value": str(v[1])}
    if v[0] == "quad":
        return {"type": "quad", "x": str(v[1]), "y": str(v[2]), "d": str(v[3])}
    if v[0] == "mon":
        _, den, cden, terms = v
        return {"type": "monoid", "terms": [[str(Fraction(e, den)), _leaf(("rat", Fraction(c, cden)))] for e, c in terms]}
    return {"type": "limit", "level": v[1], "coeffs": [{"type": "rat", "value": str(c)} for c in v[2]]}


def forge_pair(cert, k=0, by=Fraction(1, 2)):
    """Replace pairwise entry k, for the pair (i, j), by (lam + by*f_j, mu -
    by*f_i): lam*f_i + mu*f_j is still 1, but over the fraction field, where
    every two nonzero elements are comaximal."""
    pair = cert["pairwise"][k]
    fi, fj = (values.dec(cert["factors"][pair[key]]) for key in ("i", "j"))
    by = ("rat", by)
    pair["lam"] = _leaf(values.v_add(values.dec(pair["lam"]), values.v_mul(by, fj)))
    pair["mu"] = _leaf(values.v_sub(values.dec(pair["mu"]), values.v_mul(by, fi)))


@pytest.mark.parametrize("argv,cert,failures", [
    (("comax", "factor", "360"), lambda r: r["factorization"],
     ["[0] pairwise 0,1 mu is not an integer"]),  # f_0 == 5, f_1 == 8: lam + 4 stays in Z
    (("comax", "unique", "--ring", "Z[sqrt(-5)]", "21"), lambda r: r["factorizations"][0],
     ["[0] pairwise 0,1 lam does not have integer coordinates",
      "[0] pairwise 0,1 mu does not have integer coordinates"]),
    (("limitring", "chain", "--m", "3", "--ring", "limitring:Z"), lambda r: r,
     ["pairwise 0,1 lam coefficients leave Z", "pairwise 0,1 mu coefficients leave Z"]),
], ids=["comax-Z", "comax-Z[sqrt(-5)]", "limitring-Z"])
def test_a_bezout_certificate_outside_the_ring_fails(argv, cert, failures):
    from princlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    report = json.loads(out.getvalue())
    assert recheck.verify_report(report) == []
    forge_pair(cert(report["result"]))
    assert recheck.verify_report(report) == failures


@pytest.mark.parametrize("name,failures", [
    ("mring_chain_m7_zhalf", ["Bezout certificate for pair 0,5 fails", "m is 8, but the chain has 7 factors",
                              "lam: coefficient 5/6 outside the localized base",
                              "lam: coefficient 1/3 outside the localized base",
                              "mu: coefficient 1/6 outside the localized base",
                              "mu: coefficient 1/3 outside the localized base"]),
    ("limitring_chain_m6_z", ["Bezout certificate for pair 0,5 fails", "m is 7, but the chain has 6 factors",
                              "pairwise 0,2 lam coefficients leave Z", "pairwise 0,2 mu coefficients leave Z"]),
])
def test_pair_by_pair_checks_keep_the_failure_list(name, failures):
    # pair 0,2 leaves the ring (over Z[1/2] and Z, a third does not lie in
    # the base), pair 0,5, later in the list, breaks its Bezout identity, and
    # m is off by one: the pair walk checks membership as it decodes each
    # pair, yet the failures come in the order they came when every pair was
    # decoded before any was checked
    def mutate(report):
        report["result"]["m"] += 1
        pairs = report["result"]["pairwise"]
        assert [(pairs[k]["i"], pairs[k]["j"]) for k in (1, 4)] == [(0, 2), (0, 5)]
        forge_pair(report["result"], 1, Fraction(1, 3))
        lam = pairs[4]["lam"]
        leaf = lam["terms"][0][1] if lam["type"] == "monoid" else lam["coeffs"][0]
        leaf["value"] = plus_one(leaf["value"])

    assert golden_fails(name, mutate) == failures


# ------------------------------------------------ negative idem verdicts


def _negative_idem_report(command, ring, verdict, a, b):
    from princlab.report import enc, make_report

    result = {"a": enc(a), "b": enc(b)}
    if command != "idem from-ideal":
        result["pair"] = None
    if command == "idem check":
        result["complement"] = None
    return make_report(command, ring, verdict, result)


def _idem_operands():
    from princlab.poly import QQ_POLY, Poly
    from princlab.quadring import QuadElem, QuadOrder
    from princlab.rings import ZZ

    small = st.integers(-12, 12)
    quad = QuadOrder(-5)
    elems = {
        ZZ: small,
        quad: st.builds(lambda x, y: QuadElem(x, y, -5), small, st.integers(-3, 3)),
        QQ_POLY: st.builds(lambda cs: Poly([Fraction(c, 2) for c in cs]), st.lists(st.integers(-4, 4), max_size=3)),
    }
    return st.sampled_from(list(elems)).flatmap(lambda ring: st.tuples(st.just(ring), elems[ring], elems[ring]))


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["idem check", "idem matrix"]), operands=_idem_operands())
def test_a_not_a_pair_verdict_passes_exactly_when_the_producer_finds_no_pair(command, operands):
    # over Z, Z[sqrt(-5)] and Q[X] recheck decides both divisibilities itself
    from princlab.idem import is_idempotent_pair

    ring, a, b = operands
    report = _negative_idem_report(command, ring, "not_idempotent_pair", a, b)
    fails = recheck.verify_report(report)
    assert fails in ([], ["a and b form an idempotent pair"])
    assert (fails == []) == (is_idempotent_pair(a, b, ring) is None)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(-5, 5), b=st.integers(-5, 5))
def test_only_the_zero_ideal_of_z_is_not_invertible(a, b):
    from princlab.rings import ZZ

    report = _negative_idem_report("idem from-ideal", ZZ, "not_invertible", a, b)
    assert (recheck.verify_report(report) == []) == (a == b == 0)


def test_a_not_a_pair_report_with_a_pair_fails():
    report = json.loads((GOLDEN / "idem_check.out").read_text())
    report["verdict"] = "not_idempotent_pair"
    assert recheck.verify_report(report) == [
        "verdict 'not_idempotent_pair' is not the 'idempotent_pair' its result gives"]


# ------------------------------------------ negative verdicts carry nothing


def _carry(source, *keys):
    """Give a report the `keys` of the result of golden `source`."""
    return lambda report: report["result"].update({k: golden(source)["result"][k] for k in keys})


@pytest.mark.parametrize("name,mutate,failures", [
    ("comax_hunt_no_witness", _carry("comax_hunt", "factorizations"),
     ["a no_witness verdict carries factorizations"]),
    ("comax_hunt_no_witness", _carry("comax_hunt", "support"), ["a no_witness verdict carries a support"]),
    ("idem_check_not_pair", lambda report: report["result"].update(complement={"bogus": 1}),
     ["a not_idempotent_pair verdict carries a complement"]),
    ("idem_matrix_not_pair", _carry("idem_matrix", "matrix"), ["a not_idempotent_pair verdict carries a matrix"]),
    ("idem_from_ideal_zero", _carry("idem_from_ideal", "bezout", "complement"),
     ["a not_invertible verdict carries bezout", "a not_invertible verdict carries complement"]),
    ("idem_from_ideal_zero", lambda report: report["result"].update(pair=None),
     ["a not_invertible verdict carries pair"]),
], ids=["hunt-factorizations", "hunt-support", "check-complement", "matrix-matrix", "from-ideal-bezout", "from-ideal-pair"])
def test_a_negative_verdict_that_carries_a_certificate_fails(name, mutate, failures):
    assert golden_fails(name, mutate) == failures


# ----------------------------------------- what is printed is what was checked


def _main(argv):
    """The report `cli.main` builds for argv (its values still the producer's
    objects), and the stdout it writes."""
    from unittest import mock

    from princlab import cli

    built, out = [], io.StringIO()
    print_report = cli._print_report
    with mock.patch.object(cli, "_print_report", lambda report: built.append(report) or print_report(report)), \
            contextlib.redirect_stdout(out):
        cli.main(argv)
    return built[0], out.getvalue()


@pytest.mark.parametrize("name", REPORTS)
def test_the_tree_main_checks_and_the_text_it_prints_recheck_alike(name):
    case = next(c for c in json.loads((GOLDEN / "cases.json").read_text()) if c["name"] == name)
    built, text = _main(["--recheck", *case["argv"]])
    assert text == (GOLDEN / f"{name}.out").read_text()
    assert recheck.verify_report(built) == recheck.verify_report(json.loads(text)) == []


QUAD_REPORTS = [name for name in REPORTS if values._ring_d(golden(name)["ring"] or {"family": None}) is not None]


def _tree_values(node):
    """The values the producer left in a report tree, by id."""
    if hasattr(node, "json"):
        return {id(node): node}
    found = {}
    for v in node.values() if isinstance(node, dict) else node if isinstance(node, list) else ():
        found.update(_tree_values(v))
    return found


@pytest.mark.parametrize("name", QUAD_REPORTS)
def test_recheck_builds_the_json_of_each_value_the_tree_holds_once(name, monkeypatch):
    # `dec` decodes each value once per call, and checks its d as it does: the
    # walk that ties d to the ring opens no value the producer left in the tree
    case = next(c for c in json.loads((GOLDEN / "cases.json").read_text()) if c["name"] == name)
    built, _ = _main(case["argv"])
    held, builds = _tree_values(built["result"]), collections.Counter()
    for cls in {type(v) for v in held.values()}:
        monkeypatch.setattr(cls, "json", lambda self, json_of=cls.json: builds.update([id(self)]) or json_of(self))
    assert recheck.verify_report(built) == []
    assert {key: builds[key] for key in held} == dict.fromkeys(held, 1)


def test_a_value_over_another_d_in_the_tree_is_named_by_its_path(monkeypatch):
    # the walk leaves the values in the tree to `dec`, which finds the d;
    # verify_report then walks again, opening every value, to name it
    from princlab.quadring import QuadElem

    built, _ = _main(["comax", "unique", "--ring", "Z[sqrt(-5)]", "21"])
    last = built["result"]["factorizations"][-1]["pairwise"][-1]["mu"]
    json_of = QuadElem.json
    monkeypatch.setattr(QuadElem, "json", lambda self: {**json_of(self), "d": "-6"} if self is last else json_of(self))
    k, j = len(built["result"]["factorizations"]) - 1, len(built["result"]["factorizations"][-1]["pairwise"]) - 1
    assert recheck.verify_report(built) == [f"ring.d is -5, but result.factorizations[{k}].pairwise[{j}].mu has d = -6"]


def test_a_value_over_another_d_in_a_node_the_walk_skips_still_fails():
    # a factorization given a "type" of no value is a node the d walk does not
    # enter; `dec` still finds its factor's d, and the check fails with it
    # rather than passing the rest of the report unchecked
    def forge(report):
        fact = report["result"]["factorizations"][1]
        fact["type"] = "x"
        fact["factors"][0]["d"] = "-6"

    assert golden("comax_non_unique")["ring"]["d"] == "-5"
    assert golden_fails("comax_non_unique", forge) == [
        "the ring's d is -5, but a Z[sqrt(d)] value in the result has d = -6"]


def test_recheck_reads_the_values_the_tree_holds(monkeypatch):
    # the first factor's JSON forged to the second's: recheck decodes what the
    # value gives, so the product fails
    from princlab.monoidring import MonoidElem

    built, _ = _main(["mring", "chain", "--m", "4", "--ring", "Q[X;S]"])
    first, second = built["result"]["factors"][:2]
    assert recheck.verify_report(built) == []
    json_of = MonoidElem.json
    monkeypatch.setattr(MonoidElem, "json", lambda self: json_of(second if self is first else self))
    assert recheck.verify_report(built) == ["product does not telescope to 1 - X^s",
                                            *(f"Bezout certificate for pair 0,{j} fails" for j in (1, 2, 3))]
