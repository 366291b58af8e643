"""`report.dump` against `json.dumps(x, indent=2)`, the text it replaces."""

import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from princlab import cli, report
from princlab.report import dump, make_report

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
    assert dump(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize("spill", [1, 2])
@settings(max_examples=200, deadline=None)
@given(x=values)
@example(x={"a": [[1, {"b": []}], {}], "c": ({"d": None},)})
def test_dump_writes_what_json_dumps_writes_when_it_spills_at_every_piece(spill, x):
    # the trees above never reach the real _SPILL pieces
    with mock.patch.object(report, "_SPILL", spill):
        assert dump(x) == json.dumps(x, indent=2)


def test_dump_holds_about_twice_the_text_of_a_large_report():
    ring = cli.parse_ring_spec("Q[X;S]")
    verdict, result, _ = cli.cmd_mring_chain(ring, Fraction(5, 4), 10, None)
    large = dict(make_report("mring chain", ring, verdict, result), recheck="passed")
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = dump(large)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(text) > 240_000
    # the batches and the returned text; one list of every piece peaks near 5x
    assert peak <= 2.5 * len(text)


@pytest.mark.parametrize("bad", [{"a": Fraction(1, 2)}, [object()], {(1, 2): 0}, {"a": [{1j: 0}]}])
def test_dump_raises_type_error_where_json_does(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2)
    with pytest.raises(TypeError):
        dump(bad)
