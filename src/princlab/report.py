"""Report assembly and JSON encoding.

Every numeric leaf is serialized as a decimal string ("p/q" for rationals),
so arbitrary-precision values survive transport; structural indices (matrix
positions, levels, exponents of prime powers) stay plain JSON integers.
Encoding is recursive, so nested coefficient domains (e.g. polynomials over
Q[y]) come out uniformly.  This module encodes None, bools, ints, Fractions,
lists and tuples; every element and certificate type serializes itself through
`to_json(enc)` in its own module, so each type has one encoding and this
module imports nothing from the package but `rational`.

`dump` writes the text of `json.dumps(report, indent=2)` byte for byte,
without importing `json`.  `json` never uses its C encoder when `indent` is
set, so `dump` walks the containers itself, hands each string to the C
routine `json.encoder` uses for it (`_json.encode_basestring_ascii`) and
writes the int, bool and None leaves itself.  Any other leaf or key type
goes to `json.dumps`, imported then, so its text and its TypeError stay
json's own.

Memory.  The text is built from many small pieces (a key, a separator, a
leaf), about one per 25 bytes of a chain report, and a small string object
costs about 50 bytes more than its text.  So `dump` holds about `_SPILL`
pieces at a time: after each member of a container it joins them into one
batch string once there are `_SPILL` or more, and hands that batch to
`write` at once (`cli` passes `sys.stdout.write`).  So a report goes out
while `dump` holds one batch of a few kB beside it, and the text is never
held whole.  A batch handed to `write` stays written: a leaf JSON cannot
hold raises its TypeError after the text before it went out (`enc` builds
no such leaf).

A report is read-only once `make_report` has built it, except for its
top-level "recheck" key, which `cli` sets after a passed recheck: the
`to_json` of a chain element gives equal coefficients one shared leaf dict
(`core.rat_leaves`).  Edit a copy, such as the `json.loads` of the text.
"""

from __future__ import annotations

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without json's C accelerator
    from json.encoder import encode_basestring_ascii

from . import REPORT_SCHEMA, __version__
from .rational import Fraction


def enc(x):
    """Encode a ring element (or certificate value) as JSON-ready data."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return {"type": "int", "value": str(x)}
    if isinstance(x, Fraction):
        return {"type": "rat", "value": str(x)}
    if isinstance(x, (list, tuple)):
        return [enc(v) for v in x]
    if hasattr(x, "to_json"):
        return x.to_json(enc)
    raise TypeError(f"no encoder for {type(x).__name__}")


def make_report(command: str, ring, verdict: str, result: dict) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": command,
        "ring": None if ring is None else ring.to_json(),
        "verdict": verdict,
        "result": result,
    }


# the pieces `dump` holds before it joins them into one batch string
_SPILL = 256


def dump(report: dict, write) -> str:
    """Write `json.dumps(report, indent=2)` to `write`: the same text, each
    batch as soon as it is joined, with the same TypeError for a value or key
    JSON cannot hold.  Returns "" (the text is not kept)."""
    pieces = []
    put = pieces.append

    def walk(x, nl):
        # nl is a newline plus the indentation of the line x starts on
        if type(x) is str:
            put(encode_basestring_ascii(x))
        elif isinstance(x, dict):
            if not x:
                put("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for k, v in x.items():
                head = sep + encode_basestring_ascii(k if type(k) is str else _key(k)) + ": "
                if type(v) is str:
                    put(head + encode_basestring_ascii(v))
                else:
                    put(head)
                    walk(v, inner)
                    if len(pieces) >= _SPILL:
                        write("".join(pieces))
                        pieces.clear()
                sep = "," + inner
            put(nl + "}")
        elif isinstance(x, (list, tuple)):
            if not x:
                put("[]")
                return
            inner = nl + "  "
            sep = "[" + inner
            for v in x:
                put(sep)
                walk(v, inner)
                if len(pieces) >= _SPILL:
                    write("".join(pieces))
                    pieces.clear()
                sep = "," + inner
            put(nl + "]")
        elif x is None:
            put("null")
        elif x is True:
            put("true")
        elif x is False:
            put("false")
        elif type(x) is int:
            put(repr(x))
        else:
            # a leaf's text does not depend on the indentation, so json
            # gives it (and raises its own TypeError for anything it
            # cannot encode)
            import json

            put(json.dumps(x))

    walk(report, "\n")
    write("".join(pieces))
    return ""


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        import json

        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
