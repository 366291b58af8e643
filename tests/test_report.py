"""`report.dump` against `json.dumps(x, indent=2)`, the text it replaces,
as it streams it to a writer, and the memory of a report tree and of
writing it."""

import json
import os
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from princlab import cli, report
from princlab.rational import Fraction
from princlab.report import dump, make_report

GOLDEN = Path(__file__).parent / "golden"

# quotes, backslashes, control characters, DEL, non-ASCII and astral
# characters, each of which json escapes in its own way
TRICKY = '"\\/\x00\x08\x1f\x7fé \ud800\U0001f600'
texts = st.text(st.one_of(st.sampled_from(TRICKY), st.characters()), max_size=8)
ints = st.one_of(st.integers(), st.integers(-(2**300), 2**300), st.sampled_from([2**300, -(2**300)]))
leaves = st.one_of(st.none(), st.booleans(), ints, st.floats(), texts)
keys = st.one_of(texts, st.integers(-5, 5), st.floats(), st.booleans(), st.none())
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(values)
@example({})
@example([])
@example({"a": [], "b": {}, "c": ()})
@example({"é\"\x01": ["\U0001f600", 2**300, True, False, None]})
def test_dump_writes_what_json_dumps_writes(x):
    assert streamed(x) == json.dumps(x, indent=2)


def streamed(x):
    """The pieces `dump` hands its writer, joined; it then returns ""."""
    pieces = []
    assert dump(x, pieces.append) == ""
    return "".join(pieces)


@pytest.mark.parametrize("spill", [1, 2])
@settings(max_examples=200, deadline=None)
@given(x=values)
@example(x={"a": [[1, {"b": []}], {}], "c": ({"d": None},)})
def test_dump_writes_what_json_dumps_writes_when_it_spills_at_every_piece(spill, x):
    # the trees above never reach the real _SPILL pieces
    with mock.patch.object(report, "_SPILL", spill):
        assert streamed(x) == json.dumps(x, indent=2)


def _large_report():
    ring = cli.parse_ring_spec("Q[X;S]")
    verdict, result, _ = cli.cmd_mring_chain(ring, Fraction(5, 4), 10, None)
    return dict(make_report("mring chain", ring, verdict, result), recheck="passed")


def test_printing_a_large_report_holds_a_fraction_of_its_text(monkeypatch):
    # each batch goes to stdout as it is joined, so the text is never held
    # whole (about twice the text when cli joined it first)
    large = _large_report()
    text = streamed(large)
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            assert cli._print_report(large)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(text) > 240_000
    assert peak <= 0.25 * len(text)


CHAINS = [c for c in json.loads((GOLDEN / "cases.json").read_text()) if c["argv"][1] == "chain" and c["exit"] == 0]


def _built(argv):
    """The report dict `cli.main` builds for argv, as it goes to stdout."""
    built = []
    with mock.patch.object(cli, "_print_report", lambda r: built.append(r) or True):
        cli.main(argv)
    return built[0]


@pytest.mark.parametrize("case", CHAINS, ids=[c["name"] for c in CHAINS])
def test_a_chain_report_with_shared_leaves_reads_back_as_itself(case):
    built = _built(["--recheck", *case["argv"]])
    text = streamed(built)
    assert json.loads(text) == whole(built)
    assert text + "\n" == (GOLDEN / f"{case['name']}.out").read_text()
    # the tree holds the chain's elements, and the JSON of one of them gives
    # its equal coefficients one leaf dict
    elements = [*built["result"]["factors"], *(p[k] for p in built["result"]["pairwise"] for k in ("lam", "mu"))]
    assert not list(_rat_leaves(built)) and all(hasattr(e, "json") for e in elements)
    leaves = [list(_rat_leaves(e.json())) for e in elements]
    assert any(len({id(leaf) for leaf in ls}) < len(ls) for ls in leaves)


def whole(node):
    """A report tree with each value in it replaced by its JSON."""
    if hasattr(node, "json"):
        return node.json()
    if isinstance(node, dict):
        return {k: whole(v) for k, v in node.items()}
    if isinstance(node, list):
        return [whole(v) for v in node]
    return node


def _rat_leaves(node):
    if isinstance(node, dict):
        if node.get("type") == "rat":
            yield node
        for v in node.values():
            yield from _rat_leaves(v)
    elif isinstance(node, list):
        for v in node:
            yield from _rat_leaves(v)


def test_the_report_tree_holds_values_not_their_json(monkeypatch):
    # the live memory of the report main builds, taken right after
    # make_report: the chain's elements (about 58 kB), not the JSON of them
    # (about 190 kB more when handlers encoded every value)
    argv = ["mring", "chain", "--m", "10", "--ring", "Q[X;S]", "--s", "5/4"]
    monkeypatch.setattr(cli, "_print_report", lambda report: True)
    assert cli.main(argv) == 0  # loads the modules and fills the caches first
    sizes = []

    def measured(*args):
        built = make_report(*args)
        sizes.append(tracemalloc.get_traced_memory()[0])
        return built

    monkeypatch.setattr(cli, "make_report", measured)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
    finally:
        tracemalloc.stop()
    assert sizes[0] < 90_000


@pytest.mark.parametrize("bad", [{"a": Fraction(1, 2)}, [object()], {(1, 2): 0}, {"a": [{1j: 0}]}])
def test_dump_raises_type_error_where_json_does(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2)
    with pytest.raises(TypeError):
        streamed(bad)
