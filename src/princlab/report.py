"""Report assembly and JSON encoding.

Every numeric leaf is serialized as a decimal string ("p/q" for rationals),
so arbitrary-precision values survive transport; structural indices (matrix
positions, levels, exponents of prime powers) stay plain JSON integers.
Encoding is type-driven and recursive, so nested coefficient domains (e.g.
polynomials over Q[y]) come out uniformly.  Lists and tuples encode item by
item.  Every certificate type serializes itself through `to_json(enc)`, in
its own module, so this module needs no engine imports beyond the element
types and each certificate has exactly one encoding.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import REPORT_SCHEMA, __version__
from .core import Poly, RatFunc
from .limitring import LimitElem
from .monoidring import MonoidElem
from .pullback import PullbackElem
from .quadring import QuadElem, QuadIdeal, QuadRat
from .sphere import SphereElem


def _frac(x) -> str:
    f = x if type(x) is Fraction else Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def enc(x):
    """Encode a ring element (or certificate value) as JSON-ready data."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return {"type": "int", "value": str(x)}
    if isinstance(x, Fraction):
        return {"type": "rat", "value": _frac(x)}
    if isinstance(x, QuadElem):
        return {"type": "quad", "x": str(x.x), "y": str(x.y), "d": str(x.d)}
    if isinstance(x, QuadRat):
        return {"type": "quadrat", "x": _frac(x.x), "y": _frac(x.y), "d": str(x.d)}
    if isinstance(x, Poly):
        return {"type": "poly", "coeffs": [enc(c) for c in x.coeffs]}
    if isinstance(x, RatFunc):
        return {"type": "ratfunc", "num": enc(x.num), "den": enc(x.den)}
    if isinstance(x, PullbackElem):
        num, den = x.display_num_den()
        return {"type": "pullback", "num": enc(num), "den": enc(den)}
    if isinstance(x, MonoidElem):
        return {"type": "monoid", "terms": [[_frac(e), enc(c)] for e, c in x.terms]}
    if isinstance(x, LimitElem):
        return {"type": "limit", "level": x.level, "coeffs": [enc(c) for c in x.poly.coeffs]}
    if isinstance(x, SphereElem):
        return {
            "type": "sphere",
            "f": [[i, j, _frac(c)] for (i, j), c in x.f.terms.items()],
            "g": [[i, j, _frac(c)] for (i, j), c in x.g.terms.items()],
        }
    if isinstance(x, QuadIdeal):
        return {
            "type": "quadideal",
            "d": str(x.d),
            "basis": [[str(x.n), "0"], [str(x.c), str(x.m)]],
        }
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


def dump(report: dict) -> str:
    return json.dumps(report, indent=2)
