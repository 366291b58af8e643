"""Recheck a certificate a test built, as `cli.main` does for every report:
`recheck.verify_report` on the report that would print it.  Producers do
not check their own certificates, so this is the one check."""

from princlab.recheck import verify_report
from princlab.report import enc, make_report


# the one verdict the CLI gives each command whose certificates tests build
# and recheck without naming a verdict
FIXED_VERDICTS = {"comax factor": "factored", "limitring chain": "chain", "mring split": "split",
                  "mring chain": "chain", "mring juett": "split"}


def recheck(command, ring, result, verdict=None):
    """The failures `verify_report` finds in the `command` report over
    `ring` whose result is `result`: a certificate, which is encoded here,
    or a dict of already encoded fields.  The verdict defaults to the fixed
    one the CLI gives `command`."""
    verdict = FIXED_VERDICTS[command] if verdict is None else verdict
    return verify_report(make_report(command, ring, verdict, result if isinstance(result, dict) else enc(result)))


def pair_rechecks(pair, ring, complement=None):
    """The idempotent pair, and its complement certificate when given, pass
    recheck as an `idem check` report."""
    result = {"a": enc(pair.a), "b": enc(pair.b), "pair": enc(pair), "complement": enc(complement)}
    return recheck("idem check", ring, result, "idempotent_pair") == []
