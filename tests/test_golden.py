"""Golden reports: the exact stdout and exit code of `princlab --recheck` for
one small fixed input per subcommand, plus the negative verdicts and input
errors the CLI can give.

`golden/cases.json` lists each case's name, argv (without `--recheck`), exit
code and, for input errors, the exact stderr.  `golden/<name>.out` holds the
stdout bytes.  A refactor must leave every file as it is; only a change that
means to alter a report regenerates them, and says so.  To regenerate one
case, from the repository root:

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


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(capsys, case):
    code = cli.main(["--recheck", *case["argv"]])
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()
    assert code == case["exit"]
    if "stderr" in case:
        assert captured.err == case["stderr"]
