"""Recheck reads every field a report carries: on each golden report the
keys `verify_report` reads are recorded, and every key of `result`, and of
each dict nested in it that is not an encoded element (a dict with a
"type"), must be read on at least one golden of its command.  A field that
recheck does not need is deleted, not left unread; the exceptions below
each name their reason.
"""

import json
from pathlib import Path

from princlab import recheck

GOLDEN = Path(__file__).parent / "golden"
CASES = [c for c in json.loads((GOLDEN / "cases.json").read_text()) if c["exit"] != 2]

# these commands echo a value and claim nothing that could be checked
ECHOED = ["limitring eval", "sphere reduce"]
UNREAD = {}


class Recorded(dict):
    """A dict that notes the path of each key read through [] or get()."""

    def __init__(self, items, path, reads):
        super().__init__(items)
        self.path, self.reads = path, reads

    def __getitem__(self, key):
        self.reads.add(self.path + (key,))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(self.path + (key,))
        return super().get(key, default)


def recorded(node, reads, path=()):
    """node with every dict in it Recorded; list indices are left out of paths."""
    if isinstance(node, dict):
        return Recorded({k: recorded(v, reads, path + (k,)) for k, v in node.items()}, path, reads)
    if isinstance(node, list):
        return [recorded(v, reads, path) for v in node]
    return node


def fields(node, path=()):
    """The key paths of node's dicts that are not encoded elements."""
    if isinstance(node, dict) and "type" not in node:
        for key, value in node.items():
            yield path + (key,)
            yield from fields(value, path + (key,))
    elif isinstance(node, list):
        for value in node:
            yield from fields(value, path)


def test_recheck_reads_every_result_field_of_every_command():
    present, read = {}, {}
    for case in CASES:
        report = json.loads((GOLDEN / f"{case['name']}.out").read_text())
        reads = set()
        assert recheck.verify_report(recorded(report, reads)) == [], case["name"]
        command = report["command"]
        present.setdefault(command, set()).update(fields(report["result"]))
        read.setdefault(command, set()).update(p[1:] for p in reads if p[0] == "result")
    # no verifier part is named for them
    assert all(recheck._VERIFIERS[c][0] is None for c in ECHOED)
    unread = {(c, p) for c, paths in present.items() if c not in ECHOED for p in paths - read[c]}
    assert unread == set(UNREAD)
    # every command of the CLI has a golden report
    assert sorted(present) == sorted(recheck._VERIFIERS)

