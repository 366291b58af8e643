"""Report assembly and JSON encoding.

Every numeric leaf is serialized as a decimal string ("p/q" for rationals),
so arbitrary-precision values survive transport; structural indices (matrix
positions, levels, exponents of prime powers) stay plain JSON integers.
Encoding is recursive, so nested coefficient domains (e.g. polynomials over
Q[y]) come out uniformly.  This module encodes None, bools, ints, Fractions,
lists and tuples.  Every other type serializes itself in its own module, so
each type has one encoding and this module imports nothing from the package
but `rational`: a value (a ring element or ideal) through `json()`, and a
certificate (a chain, a factorization, an idempotent pair, ...) through
`to_json(enc)`, which encodes its parts with the `enc` it is given.

The report tree.  A handler encodes its result with `tree`, not `enc`:
containers and certificates become dicts and lists, so recheck walks the
same skeleton as in the printed text, but every value stays the producer's
object.  (An int or Fraction element becomes its small leaf dict at once:
the tree's plain ints are structural, so an element int cannot stay one.)
A value's JSON is built only when `dump` writes it, or when recheck
decodes it (`recheck.values.dec` calls the same `json()`), and is dropped
right after.  So a report holds the values the producer made, not a second
copy of them as dicts and strings: on `mring chain --m 10 --s 5/4` the
JSON tree was about 190 kB on top of 58 kB of elements.  This is sound only
because values are immutable: a value's `json()` gives the same text when it
is written as when it was rechecked, so what is printed is what was checked.
`enc` still gives the whole JSON of anything `tree` takes.

`dump` writes the text of `json.dumps(report, indent=2)` byte for byte,
without importing `json`, where each value in the tree stands for its
`json()`.  `json` never uses its C encoder when `indent` is set, so `dump`
walks the containers itself, hands each string to the C routine
`json.encoder` uses for it (`_json.encode_basestring_ascii`) and writes the
int, bool and None leaves itself.  A value's JSON is walked in its place.
Any other leaf or key type goes to `json.dumps`, imported then, so its text
and its TypeError stay json's own.

Memory.  The text is built from many small pieces (a key, a separator, a
leaf), about one per 25 bytes of a chain report, and a small string object
costs about 50 bytes more than its text; a separator is built once per
depth and shared.  So `dump` holds about `_SPILL` pieces at a time: after
each member of a container it joins them into one batch string once there
are `_SPILL` or more, and hands that batch to `write` at once (`cli` passes
`sys.stdout.write`).  So a report goes out while `dump` holds one batch of
about 1.5 kB and one value's JSON beside it, and the text is never held
whole.  On a chain that JSON is the largest share: printing `mring chain
--m 10 --s 5/4` holds at most 58 kB, 34 kB of it its largest cofactor's
JSON.  A batch handed to `write` stays written: a leaf JSON cannot hold
raises its TypeError after the text before it went out (`tree` builds no
such leaf).

Schema.  A report's keys are "schema", "version", "command", "ring",
"verdict", "result" and, once recheck passed, "recheck"; `recheck` fails
any other schema than its own.  `princlab/2` writes each fact once: a
comax result holds its element and support beside its factorizations.

A report is read-only once `make_report` has built it, except for its
top-level "recheck" key, which `cli` sets after a passed recheck.  The
`json()` of a chain element gives equal coefficients one shared leaf dict
(`poly.rat_leaves`), so edit a copy of a value's JSON, such as the
`json.loads` of the text.
"""

from __future__ import annotations

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without json's C accelerator
    from json.encoder import encode_basestring_ascii

from . import REPORT_SCHEMA, __version__
from .rational import Fraction


def enc(x):
    """x (an int, a Fraction, a value, a certificate, or a list of them) as
    JSON data, whole."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return {"type": "int", "value": str(x)}
    if isinstance(x, Fraction):
        return {"type": "rat", "value": str(x)}
    if isinstance(x, (list, tuple)):
        return [enc(v) for v in x]
    if hasattr(x, "json"):
        return x.json()
    if hasattr(x, "to_json"):
        return x.to_json(enc)
    raise TypeError(f"no encoder for {type(x).__name__}")


def tree(x):
    """x as a report tree: as `enc(x)`, except that each value (an object
    with `json()`) stays itself."""
    if hasattr(x, "json"):
        return x
    if isinstance(x, (list, tuple)):
        return [tree(v) for v in x]
    if hasattr(x, "to_json"):
        return x.to_json(tree)
    return enc(x)


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
_SPILL = 64


def dump(report: dict, write) -> str:
    """Write `json.dumps(report, indent=2)` to `write`, each value in the
    tree read as its `json()`: the same text, each batch as soon as it is
    joined, with the same TypeError for a leaf or key JSON cannot hold.
    Returns "" (the text is not kept)."""
    pieces = []
    put = pieces.append
    # levels[k]: the separators of a container k levels deep, built when
    # dump first enters that depth, so the pieces that repeat one share it
    levels = []

    def level(depth):
        if depth == len(levels):
            nl = "\n" + "  " * depth
            inner = nl + "  "
            levels.append(("{" + inner, "[" + inner, "," + inner, nl + "}", nl + "]"))
        return levels[depth]

    def walk(x, depth):
        if type(x) is str:
            put(encode_basestring_ascii(x))
        elif isinstance(x, dict):
            if not x:
                put("{}")
                return
            sep, _, comma, close, _ = level(depth)
            for k, v in x.items():
                head = sep + encode_basestring_ascii(k if type(k) is str else _key(k)) + ": "
                if type(v) is str:
                    put(head + encode_basestring_ascii(v))
                else:
                    put(head)
                    walk(v, depth + 1)
                    if len(pieces) >= _SPILL:
                        write("".join(pieces))
                        pieces.clear()
                sep = comma
            put(close)
        elif isinstance(x, (list, tuple)):
            if not x:
                put("[]")
                return
            _, sep, comma, _, close = level(depth)
            for v in x:
                put(sep)
                walk(v, depth + 1)
                if len(pieces) >= _SPILL:
                    write("".join(pieces))
                    pieces.clear()
                sep = comma
            put(close)
        elif x is None:
            put("null")
        elif x is True:
            put("true")
        elif x is False:
            put("false")
        elif type(x) is int:
            put(repr(x))
        elif hasattr(x, "json"):
            walk(x.json(), depth)
        else:
            # a leaf's text does not depend on the indentation, so json
            # gives it (and raises its own TypeError for anything it
            # cannot encode)
            import json

            put(json.dumps(x))

    walk(report, 0)
    write("".join(pieces))
    return ""


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        import json

        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
