"""Golden reports: the exact stdout and exit code of `princlab --recheck` for
one small fixed input per subcommand, plus the negative verdicts and input
errors the CLI can give.  Every call rechecks its report, and the flag only
writes `"recheck": "passed"`: without it each case prints its `.out` minus
that last field, with the same exit code and stderr.

`golden/cases.json` lists each case's name, argv (without `--recheck`), exit
code and, for input errors, the exact stderr.  `golden/<name>.out` holds the
stdout bytes.  A refactor must leave every file as it is; only a change that
means to alter a report regenerates them, and says so.  A change of
`princlab.REPORT_SCHEMA` changes the schema line of every report, so it
re-pins every case, in one commit of its own.  To regenerate one case,
from the repository root:

    PYTHONPATH=src python -m princlab.cli --recheck ARGV... > tests/golden/NAME.out

then put the printed exit code (`echo $?`) into that case's entry in
`golden/cases.json`.
"""

import json
from pathlib import Path

import pytest

from princlab import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


PASSED = b',\n  "recheck": "passed"\n}\n'


# a case keeps its name with the flag and gains "-no-flag" without it
@pytest.mark.parametrize("case,recheck", [pytest.param(c, flag, id=c["name"] + ("" if flag else "-no-flag"))
                                          for c in CASES for flag in (True, False)])
def test_golden_report(capsys, case, recheck):
    code = cli.main(["--recheck", *case["argv"]] if recheck else case["argv"])
    captured = capsys.readouterr()
    want = (GOLDEN / f"{case['name']}.out").read_bytes()
    if not recheck and want:
        assert want.endswith(PASSED)
        want = want[: -len(PASSED)] + b"\n}\n"
    assert captured.out.encode() == want
    assert code == case["exit"]
    assert captured.err == case.get("stderr", "")
