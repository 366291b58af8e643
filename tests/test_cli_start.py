"""A call's start: `cli._read` against argparse, and the modules a call
loads."""

import ast
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
    for words in (argv, ["--recheck", *argv]):
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
    top = [spelled(draw, flag, kwargs, value) for flag, kwargs in cli._TOP if draw(st.booleans())]
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
    # whatever _read reads, argparse reads to the same namespace, and main
    # ends the same way; _read leaves every other argv to argparse
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == argparse_reads(argv)
        assert outcome(argv) == outcome_without_the_table(argv)


def plain(word):
    """An operand of the plain grammar: a word that does not start with "-",
    or one of the negative numbers VALUES holds."""
    return not word.startswith("-") or word in ("-2", "-3", "-1.5", "-.5")


@st.composite
def plain_argvs(draw):
    """An argv in the plain grammar around one command: its top-level
    flags, group and name, then its flags in some order, some given twice or
    left out though required, each spelled in full with its value as the
    next word (an operand) or after "=" (any word but "--"; a switch seldom
    has one), and one run of operands of about the right length among
    them."""
    row = draw(st.sampled_from(cli.COMMANDS))

    def items(arguments, values):
        # half the values are ones every argument takes: "2", "-3", or a choice
        out = []
        for flag, kwargs in arguments:
            if not flag.startswith("-"):
                continue
            value = st.sampled_from(kwargs.get("choices", ("2", "-3"))) | st.sampled_from(values)
            least = 1 if kwargs.get("required") and draw(st.integers(0, 7)) else 0
            for _ in range(draw(st.integers(least, 2))):
                if kwargs.get("action") == "store_true" and draw(st.integers(0, 3)):
                    out.append([flag])
                elif kwargs.get("action") == "store_true" or draw(st.booleans()):
                    out.append([f"{flag}={draw(value.filter(lambda v: v != '--'))}"])
                else:
                    out.append([flag, draw(value.filter(plain))])
        return out

    top = draw(st.permutations(items(cli._TOP, VALUES)))
    flags = draw(st.permutations(items(cli._arguments(row), VALUES)))
    operands = [flag for flag, _ in cli._arguments(row) if not flag.startswith("-")]
    size = max(0, len(operands) + draw(st.sampled_from([0, 0, -1, 1])))
    run = [draw(st.sampled_from(("2", "-3")) | st.sampled_from(VALUES).filter(plain)) for _ in range(size)]
    flags.insert(draw(st.integers(0, len(flags))), run)
    return [w for item in top for w in item] + list(row[:2]) + [w for item in flags for w in item]


@settings(max_examples=300, deadline=None)
@given(plain_argvs())
def test_the_table_reads_exactly_the_plain_argv_argparse_accepts(argv):
    read, full = cli._read(argv), argparse_reads(argv)
    if isinstance(full, dict):
        assert read is not None and vars(read) == full
    else:
        assert read is None


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

BASE = ["cli", "core", "rational", "recheck", "recheck.values", "report", "rings"]

# the one verifier part each group's report needs
VERIFIERS = {"recheck.orders", "recheck.pairs", "recheck.examples"}
PART = {"idem": "recheck.pairs", "ideal": "recheck.orders", "comax": "recheck.orders", "pullback": "recheck.pairs",
        "mring": "recheck.examples", "limitring": "recheck.examples", "polyext": "recheck.examples",
        "sphere": "recheck.examples"}

# argv, and the modules past BASE that its call runs: its family modules,
# `poly` for a polynomial family, `zloc` for a Z[1/p] base, its verifier
# part, the checker's `polys` part for values that are not in Z or
# Z[sqrt(d)], and exprparse for an element or y-polynomial operand
CALLS = {
    "idem": (["idem", "check", "-2", "-3"], ["idem", "exprparse", "recheck.pairs"]),
    "idem-qpoly": (["idem", "check", "--ring", "Q[X]", "X", "1-X"],
                   ["idem", "poly", "exprparse", "recheck.pairs", "recheck.polys"]),
    "ideal": (["ideal", "frompair", "2", "1+sqrt(-5)"], ["quadring", "exprparse", "recheck.orders"]),
    "comax": (["comax", "unique", "60"], ["comax", "exprparse", "recheck.orders"]),
    "comax-quad": (["comax", "unique", "--ring", "Z[sqrt(-5)]", "21"],
                   ["comax", "quadring", "exprparse", "recheck.orders"]),
    # over the default base Z, a pullback call never runs quadring
    "pullback": (["pullback", "nonufd", "Y", "2", "3"],
                 ["pullback", "poly", "exprparse", "recheck.pairs", "recheck.polys"]),
    "pullback-reduce": (["pullback", "reduce", "3+Y", "2"],
                        ["pullback", "poly", "idem", "exprparse", "recheck.pairs", "recheck.polys"]),
    "mring": (["mring", "chain", "--m", "3", "--ring", "Z[1/2][X;S]"],
              ["monoidring", "poly", "zloc", "recheck.examples", "recheck.polys"]),
    # a flag's value after "=" is plain grammar too
    "mring-equals": (["mring", "split", "--s=1/2", "--n", "2"],
                     ["monoidring", "poly", "recheck.examples", "recheck.polys"]),
    "limitring": (["limitring", "chain", "--m", "3", "--ring", "limitring:Z"],
                  ["limitring", "poly", "recheck.examples", "recheck.polys"]),
    "polyext": (["polyext", "counterexample", "--alpha", "2*y"],
                ["polyext", "poly", "exprparse", "recheck.examples", "recheck.polys"]),
    "sphere": (["sphere", "projector"], ["sphere", "recheck.examples", "recheck.polys"]),
}


@pytest.mark.parametrize("argv,families", CALLS.values(), ids=CALLS)
def test_a_call_loads_only_what_its_command_uses(argv, families):
    # a family module in sys.modules that never ran is still importlib's lazy
    # module type, not types.ModuleType
    probe = (
        "import sys, types\n"
        "from princlab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "ran = [n[9:] for n, m in sys.modules.items() if n.startswith('princlab.') and type(m) is types.ModuleType]\n"
        "unwanted = {'argparse', 'decimal', 'fractions', 'gettext', 'json', 'locale', 'numbers'}\n"
        "loaded = sorted(unwanted & set(sys.modules))\n"
        "sys.stderr.write(repr((code, loaded, sorted(ran))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(princlab.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", probe, "--recheck", *argv], env=env, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["recheck"] == "passed"
    code, loaded, ran = ast.literal_eval(res.stderr)
    # Z[sqrt(-5)]'s 21 has two factorizations: the one negative verdict here
    assert (code, loaded, ran) == (1 if argv[-1] == "21" else 0, [], sorted(BASE + families))
    # of the three verifier parts, only the one its group needs ran
    assert VERIFIERS & set(ran) == {PART[argv[0]]}
    # a call over Z or Z[sqrt(d)] runs no polynomial code, the producer's or the checker's
    if argv[0] in ("ideal", "comax"):
        assert not {"poly", "recheck.polys", "recheck.pairs"} & set(ran)


@pytest.mark.parametrize("s,stdlib", [("1/2", False), ("0.5", True), (" 1/2", True)])
def test_only_a_rational_operand_outside_the_two_fast_forms_loads_the_stdlib_parser(s, stdlib):
    # "[-]p" and "[-]p/q" are read without `fractions`; any other spelling goes
    # to its parser, which loads `decimal` too, and gives the same report
    case = next(c for c in GOLDEN if c["name"] == "mring_chain_m7_zhalf")
    assert case["argv"][-2:] == ["--s", "1/2"]
    argv = ["--recheck", *case["argv"][:-1], s]
    probe = (
        "import sys\n"
        "from princlab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.stderr.write(repr((code, sorted({'decimal', 'fractions', 'numbers'} & set(sys.modules)))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(princlab.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert res.stdout == (ROOT / "tests" / "golden" / "mring_chain_m7_zhalf.out").read_text()
    assert res.stderr == repr((0, ["decimal", "fractions", "numbers"] if stdlib else []))
