"""A call's start: `cli._read` against argparse, and the modules a call
loads."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import princlab
from princlab import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
POOL = [op for workload in WORKLOADS.WORKLOADS for op in WORKLOADS.pool(workload)] + [WORKLOADS.SETUP_OP]


def argparse_reads(argv):
    """The namespace of the full argparse tree for argv, or the code it
    exits with (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def outcome(argv):
    """main's exit code (or SystemExit code, or the name of the exception it
    raised), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [c["argv"] for c in GOLDEN] + POOL,
                         ids=[c["name"] for c in GOLDEN] + [" ".join(op) for op in POOL])
def test_every_golden_and_pool_argv_is_read_from_the_table(argv):
    # mring_juett_group_p3's --t=-3/2 included: a value that is not a
    # negative number reaches its flag only after "="
    for words in (argv, ["--recheck", *argv], ["--jobs", "1", "--recheck", *argv]):
        read = cli._read(words)
        assert read is not None
        assert vars(read) == argparse_reads(words)


# words that argparse reads in several ways: negative numbers, words that
# start with "-" but are not numbers, "--", help, abbreviations of top-level
# and command flags, and --flag=value
VALUES = ["-2", "-3", "0", "2", "3", "1/2", "-1.5", "-.5", "x", "-x", "", "-", "Y", "1-Y", "ab", "ba", "zz",
          "Z", "Q[X;S]", "p-div:3", "2*y", "1+sqrt(-5)", "X0^2", "-3/2", "--", "a b", "-2 x"]
ODD = ["-h", "--help", "--", "--rech", "--jo", "--recheck", "--jobs", "--ring=Z", "--s=1/2", "--m=2", "--or",
       "--bou", "--lev", "--mon", "--grou", "-2x", "--jobs=1", "--r", "--g", "--=1", "--recheck=1", "-hx", "--he"]
JOBS = ["1", "0", "-1", "x", str((os.cpu_count() or 1) + 1)]


def spelled(draw, flag, kwargs, value):
    """flag and its value as one of argparse's spellings: in full or a
    prefix of at least one letter, the value as the next word or after "="."""
    name = flag[: draw(st.integers(3, len(flag)))] if draw(st.booleans()) else flag
    if kwargs.get("action") == "store_true":
        return [name]
    return [f"{name}={draw(value)}"] if draw(st.booleans()) else [name, draw(value)]


@st.composite
def argvs(draw):
    """An argv around one command: its top-level flags, group and name, its
    flags in some order and spelling, some given twice, and a run of
    operands of about the right length, perhaps after "--"; then perhaps a
    word dropped, a word inserted or two words swapped."""
    row = draw(st.sampled_from(cli.COMMANDS))
    value = st.sampled_from(VALUES)
    top = [spelled(draw, flag, kwargs, st.sampled_from(JOBS)) for flag, kwargs in cli._TOP if draw(st.booleans())]
    items = []
    for flag, kwargs in cli._arguments(row):
        if flag.startswith("-") and (kwargs.get("required") or draw(st.booleans())):
            items += [spelled(draw, flag, kwargs, value) for _ in range(draw(st.integers(1, 2)))]
    operands = [kwargs for flag, kwargs in cli._arguments(row) if not flag.startswith("-")]
    run = draw(st.lists(value, min_size=max(0, len(operands) - 1), max_size=len(operands) + 1))
    items = draw(st.permutations(items))
    items.insert(draw(st.integers(0, len(items))), ["--", *run] if draw(st.integers(0, 3)) == 0 else run)
    words = [w for item in draw(st.permutations(top)) for w in item] + list(row[:2])
    words += [w for item in items for w in item]
    change = draw(st.sampled_from(["none", "none", "drop", "insert", "swap"]))
    if change == "drop" and words:
        del words[draw(st.integers(0, len(words) - 1))]
    elif change == "insert":
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(ODD + VALUES)))
    elif change == "swap" and len(words) > 1:
        i = draw(st.integers(0, len(words) - 2))
        words[i], words[i + 1] = words[i + 1], words[i]
    return words


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_the_table_path_reads_what_argparse_reads(argv):
    # argparse accepts exactly the argv _read accepts, with the same
    # namespace; every other argv gets its help (0) or usage error (2)
    read, full = cli._read(argv), argparse_reads(argv)
    if read is None:
        assert full in (0, 2)
    else:
        assert vars(read) == full
        assert outcome(argv) == outcome_without_the_table(argv)


def outcome_without_the_table(argv):
    with mock.patch.object(cli, "_read", lambda argv: None):
        return outcome(argv)


@pytest.mark.parametrize("version", [(3, 9, 18), (3, 10, 0), (3, 13, 0), (3, 14, 0), (4, 0, 0)])
def test_the_table_path_runs_only_on_the_versions_it_was_checked_against(version):
    # elsewhere argparse serves every call
    argv = ["--recheck", "mring", "split", "--s=1/2", "--n", "2"]
    with mock.patch.object(sys, "version_info", version):
        checked = cli._read(argv) is not None
        assert outcome(argv) == outcome_without_the_table(argv)
    assert checked == ((3, 10) <= version[:2] <= (3, 13))
    assert outcome(argv)[0] == 0


# ------------------------------------------------------ modules a call loads

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
        "loaded = sorted({'argparse', 'gettext', 'json', 'locale'} & set(sys.modules))\n"
        "sys.stderr.write(repr((code, loaded, sorted(ran))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(princlab.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", probe, "--recheck", *argv], env=env, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["recheck"] == "passed"
    assert res.stderr == repr((0, [], sorted(BASE + families)))
