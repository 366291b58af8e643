"""Independent certificate verification for emitted reports.

This is the one check of every certificate: producers do not re-check what
they build, and `cli.main` runs `verify_report` on every report, with or
without `--recheck` (the flag only writes `"recheck": "passed"`).

This package shares one routine with the producing modules: the rational
type `rational.Fraction` with its string parser (the stdlib's `fractions`
would load `decimal` on every `--recheck` call).
Everything else is its own: it decodes the JSON report into its own tagged
values and re-derives every claimed identity with those rationals, its own
integer polynomial products (written apart from the producer's `Poly`
kernel) and its own Hermite normal form of ideal lattices; a test checks
that the package imports nothing else from `princlab`.  A passing recheck
therefore means the certificates stand on their own, not that the producer
agrees with itself, up to that shared routine.

The report `cli.main` checks is the one it prints, before it is written: its
certificates are dicts and lists, but each ring element and ideal in it is
still the producer's immutable object (see `report`).  The checker gets such
a leaf's JSON through one argument-free call, `leaf.json()`
(`values.leaf`).  That call is the producer's encoding, the same text
`report.dump` writes for the leaf, and it decides nothing: the checker
decodes the JSON it returns and re-derives every claim from it, exactly as
for a report read back with `json.loads`.

The checker is split in three parts, and a call runs only the ones its
report needs.  `values` (decoding, arithmetic, membership, primes and the
identities every part checks) runs for every report.  `orders` holds the
verifiers of the `idem`, `ideal`, `comax` and `pullback` commands, and
`examples` those of the paper's example rings (`mring`, `limitring`,
`polyext`, `sphere`).  `verify_report` imports the part that `_VERIFIERS`
names for the report's command, inside the call, so a chain report never
loads the lattice and class-group code.
"""

from __future__ import annotations

def _pair(result):
    return "not_idempotent_pair" if result["pair"] is None else "idempotent_pair"


# command -> (the part that holds its verifier, `_verify_<group>_<name>` with
# "-" read as "_", or None for a command that echoes a value and claims
# nothing; the verdict its result gives, fixed or a function of the result)
_VERIFIERS = {
    "idem check": ("orders", _pair),
    "idem matrix": ("orders", _pair),
    "idem from-ideal": ("orders", lambda r: "not_invertible" if r.get("pair") is None else "pair_derived"),
    "ideal frompair": ("orders", "normal_form"),
    "ideal mul": ("orders", "product"),
    "ideal invertible": ("orders", lambda r: "invertible" if r["invertible"] else "not_invertible"),
    "ideal principal": ("orders", lambda r: r["status"]),
    "ideal factor": ("orders", "factored"),
    "comax factor": ("orders", "factored"),
    "comax unique": ("orders", lambda r: "unique" if r["count"] == 1 else "non_unique"),
    "comax hunt": ("orders", lambda r: "no_witness" if r["witness"] is None else "witness_found"),
    "pullback reduce": ("orders", lambda r: r["status"]),
    "pullback nonufd": ("orders", "chain"),
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
    (empty means everything re-checked).  Three checks run before the
    command's verifier.  The ring's primes (`values._ring_prime_fails`) and
    the d of every Z[sqrt(d)] value (`values._ring_d_fails`) end the check
    when they fail, before any routine reads a value.  The verdict must be
    the one `_VERIFIERS` gives for the result; a mismatch is named, and the
    verifier still runs."""
    command = report.get("command")
    if command not in _VERIFIERS:
        return [f"no recheck routine for command {command!r}"]
    from . import values

    part, rule = _VERIFIERS[command]
    if part == "orders":
        from . import orders as part
    elif part == "examples":
        from . import examples as part
    verify = part and getattr(part, "_verify_" + command.replace(" ", "_").replace("-", "_"))
    try:
        ring = report["ring"]
        if ring is not None and (fails := values._ring_prime_fails(ring) or values._ring_d_fails(report)):
            return fails
        verdict, want = report["verdict"], rule if type(rule) is str else rule(report["result"])
        fails = [] if verdict == want else [f"verdict {verdict!r} is not the {want!r} its result gives"]
        return fails + (verify(report) if verify else [])
    except Exception as exc:  # a malformed report must fail loudly, not crash
        return [f"recheck aborted: {type(exc).__name__}: {exc}"]
    finally:
        del values._LIM_ITERATES[2:]
