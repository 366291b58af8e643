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

# command -> the part that holds its verifier, `_verify_<group>_<name>` with
# "-" read as "_"; None for a command that echoes a value and claims nothing
_VERIFIERS = {
    "idem check": "orders",
    "idem matrix": "orders",
    "idem from-ideal": "orders",
    "ideal frompair": "orders",
    "ideal mul": "orders",
    "ideal invertible": "orders",
    "ideal principal": "orders",
    "ideal factor": "orders",
    "comax factor": "orders",
    "comax unique": "orders",
    "comax hunt": "orders",
    "pullback reduce": "orders",
    "pullback nonufd": "orders",
    "mring split": "examples",
    "mring chain": "examples",
    "mring juett": "examples",
    "limitring chain": "examples",
    "limitring eval": None,
    "polyext witness": "examples",
    "polyext counterexample": "examples",
    "sphere projector": "examples",
    "sphere reduce": None,
}


def verify_report(report: dict) -> list[str]:
    """Re-derive every certificate in the report; returns failure messages
    (empty means everything re-checked).  A ring whose primes fail
    `values._ring_prime_fails` fails here, before any routine reads a
    value."""
    command = report.get("command")
    if command not in _VERIFIERS:
        return [f"no recheck routine for command {command!r}"]
    from . import values

    part = _VERIFIERS[command]
    if part == "orders":
        from . import orders as part
    elif part == "examples":
        from . import examples as part
    verify = part and getattr(part, "_verify_" + command.replace(" ", "_").replace("-", "_"))
    try:
        ring = report["ring"]
        if ring is not None and (fails := values._ring_prime_fails(ring)):
            return fails
        return verify(report) if verify else []
    except Exception as exc:  # a malformed report must fail loudly, not crash
        return [f"recheck aborted: {type(exc).__name__}: {exc}"]
    finally:
        del values._LIM_ITERATES[2:]
