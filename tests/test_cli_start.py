"""The modules a shell call loads: its command's family modules and no
json."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import princlab

BASE = ["cli", "core", "exprparse", "recheck", "report", "rings"]


CALLS = [
    (["idem", "check", "-2", "-3"], ["idem"]),
    (["ideal", "frompair", "2", "1+sqrt(-5)"], ["quadring"]),
    (["comax", "unique", "60"], ["comax"]),
    (["pullback", "nonufd", "Y", "2", "3"], ["pullback", "quadring"]),
    (["mring", "chain", "--m", "3", "--ring", "Z[1/2][X;S]"], ["monoidring"]),
    (["limitring", "chain", "--m", "3", "--ring", "limitring:Z"], ["limitring"]),
    (["polyext", "counterexample", "--alpha", "2*y"], ["idem", "polyext"]),
    (["sphere", "projector"], ["sphere"]),
]


@pytest.mark.parametrize("argv,families", CALLS, ids=[argv[0] for argv, _ in CALLS])
def test_a_call_loads_only_what_its_command_uses(argv, families):
    # a family module in sys.modules that never ran is still importlib's lazy
    # module type, not types.ModuleType
    probe = (
        "import sys, types\n"
        "from princlab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "ran = [n[9:] for n, m in sys.modules.items() if n.startswith('princlab.') and type(m) is types.ModuleType]\n"
        "sys.stderr.write(repr((code, 'json' in sys.modules, sorted(ran))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(princlab.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", probe, "--recheck", *argv], env=env, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["recheck"] == "passed"
    assert res.stderr == repr((0, False, sorted(BASE + families)))
