"""Independent certificate verification for emitted reports.

This is the one check of every certificate: producers do not re-check what
they build, and `cli.main` runs `verify_report` on every report (the
`--recheck` flag only writes `"recheck": "passed"`).  The package shares
one routine with the producers, `rational.Fraction` with its parser; a test
checks that it imports nothing else from `princlab`.  It decodes the report
into its own tagged values and re-derives every claim with its own integer
polynomial products and its own Hermite form of ideal lattices, so a passing
recheck means the certificates stand on their own.

The report `cli.main` checks is the one it prints: certificates are dicts
and lists, but each ring element and ideal is still the producer's
immutable object (see `report`).  The checker reads such a value through
one argument-free call, `json()` (`values._decode`), the text `report.dump`
writes for it, and decodes that as it would the `json.loads` of the text.

The checker is split in parts, and a call runs only those its report needs:

- `values`, for every report: decoding, "rat" and "quad" arithmetic,
  membership, primes and the identities every part checks;
- `polys`, imported by `values` for a value of any other tag: polynomials,
  rational functions, the monoid and limit rings, the 2-sphere, matrices;
- one verifier part, the one `_VERIFIERS` names for the command: `orders`
  (`ideal`, `comax`: lattices, forms and class groups), `pairs` (`idem`,
  `pullback`) or `examples` (`mring`, `limitring`, `polyext`, `sphere`).

So a report over Z or Z[sqrt(d)] never loads `polys`, and a chain report
never loads the lattice code.
"""

from __future__ import annotations

SCHEMA = "princlab/2"  # the one schema read: `princlab.REPORT_SCHEMA`, which is not imported

def _pair(result):
    return "not_idempotent_pair" if result["pair"] is None else "idempotent_pair"


# command -> (the part that holds its verifier, `_verify_<group>_<name>` with
# "-" read as "_", or None for a command that echoes a value and claims
# nothing; the verdict its result gives, fixed or a function of the result)
_VERIFIERS = {
    "idem check": ("pairs", _pair),
    "idem matrix": ("pairs", _pair),
    "idem from-ideal": ("pairs", lambda r: "not_invertible" if r.get("pair") is None else "pair_derived"),
    "ideal frompair": ("orders", "normal_form"),
    "ideal mul": ("orders", "product"),
    "ideal invertible": ("orders", lambda r: "invertible" if r["invertible"] else "not_invertible"),
    "ideal principal": ("orders", lambda r: r["status"]),
    "ideal factor": ("orders", "factored"),
    "comax factor": ("orders", "factored"),
    "comax unique": ("orders", lambda r: "unique" if r["count"] == 1 else "non_unique"),
    "comax hunt": ("orders", lambda r: "no_witness" if r["witness"] is None else "witness_found"),
    "pullback reduce": ("pairs", lambda r: r["status"]),
    "pullback nonufd": ("pairs", "chain"),
    "mring split": ("examples", "split"),
    "mring chain": ("examples", "chain"),
    "mring juett": ("examples", "split"),
    "limitring chain": ("examples", "chain"),
    "limitring eval": (None, "value"),
    "polyext witness": ("examples", lambda r: "witness" if r["witness"] else "not_a_witness"),
    "polyext counterexample": ("examples", "non_principal_pair"),
    "sphere projector": ("examples", "projector"),
    "sphere reduce": (None, "reduced"),
}


def verify_report(report: dict) -> list[str]:
    """Re-derive every certificate in the report; returns failure messages
    (empty means everything re-checked).  The schema, the ring's primes
    (`values._ring_prime_fails`) and the d of every Z[sqrt(d)] value end the
    check when they fail, before any routine computes with a value:
    `values._ring_d_fails` walks the result first, and `dec` checks each
    value the producer left in the tree as it decodes it, on whose
    `OtherD` the walk runs again, opening every value, to name the path
    (or, for a value in a node the walk does not enter, its d alone).
    The verdict must be the one `_VERIFIERS` gives for the result; a
    mismatch is named, and the verifier still runs."""
    if report.get("schema") != SCHEMA:
        return [f"report schema {report.get('schema')!r} is not {SCHEMA!r}"]
    command = report.get("command")
    if command not in _VERIFIERS:
        return [f"no recheck routine for command {command!r}"]
    from . import values

    part, rule = _VERIFIERS[command]
    if part == "orders":
        from . import orders as part
    elif part == "pairs":
        from . import pairs as part
    elif part == "examples":
        from . import examples as part
    verify = part and getattr(part, "_verify_" + command.replace(" ", "_").replace("-", "_"))
    try:
        ring = report["ring"]
        if ring is not None and (fails := values._ring_prime_fails(ring) or values._ring_d_fails(report)):
            return fails
        values.start(ring)
        verdict, want = report["verdict"], rule if type(rule) is str else rule(report["result"])
        fails = [] if verdict == want else [f"verdict {verdict!r} is not the {want!r} its result gives"]
        try:
            return fails + (verify(report) if verify else [])
        except values.OtherD as exc:
            # a value the walk above did not open: walk again, opening each,
            # to name its path; a value the walk never enters is named by
            # its d alone, so a stray d always fails
            return values._ring_d_fails(report, leaves=True) or [str(exc)]
    except Exception as exc:  # a malformed report must fail loudly, not crash
        return [f"recheck aborted: {type(exc).__name__}: {exc}"]
    finally:
        values.forget()
