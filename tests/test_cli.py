import copy
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import princlab
from princlab import cli, comax, quadring
from princlab.comax import enumerate_complete_factorizations
from princlab.limitring import lr_chain
from princlab.monoidring import juett_split, mr_comax_chain, mr_split
from princlab.quadring import QuadElem
from princlab.recheck import verify_report
from princlab.report import enc, make_report
from princlab.zloc import LocalizedIntegers


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 1)
    return json.loads(out)


@pytest.mark.parametrize(
    "d,b,count",
    [(-5, "21", 3), (-5, "41055", 15), (-6, "10010", 3), (-10, "14", 1), (-10, "210", 1), (-14, "15", 2)],
)
def test_comax_unique_rechecks(capsys, d, b, count):
    code, out, _ = run_cli(capsys, "--recheck", "comax", "unique", "--ring", f"Z[sqrt({d})]", b)
    report = json.loads(out)
    assert report["recheck"] == "passed"
    assert report["result"]["count"] == count
    assert code == (0 if count == 1 else 1)


def test_recheck_failure_exits_3(capsys, monkeypatch):
    real = quadring.factor_principal
    monkeypatch.setattr(quadring, "factor_principal", lambda b: real(b)[:-1])
    argv = ["ideal", "factor", "--ring", "Z[sqrt(-5)]", "6"]
    # every call rechecks its report; the flag only writes the verdict
    for flag in ([], ["--recheck"]):
        code, out, err = run_cli(capsys, *flag, *argv)
        assert code == 3
        assert "recheck FAILED" in err and "recheck" not in json.loads(out)


def test_jobs_is_a_usage_error(capsys):
    # a batch runs in one process, in sequence: the top level has no --jobs
    code, out, err = run_cli(capsys, "--jobs", "2", "comax", "factor", "360", "1001")
    assert (code, out) == (2, "")
    assert err.startswith("usage: princlab [-h] [--recheck] {")


@pytest.mark.parametrize("options", [["--monoid", "p-div:3"], ["--group"], ["--monoid", "p-div:3", "--group"]])
def test_monoid_options_off_a_monoid_ring_are_rejected(capsys, options):
    assert run_cli(capsys, "idem", "check", *options, "2", "5") == (
        2, "", "princlab: error: --monoid and --group need --ring 'BASE[X;S]'\n")
    code, out, err = run_cli(capsys, "idem", "check", "--ring", "Q[X;S]", *options, "2", "5")
    assert code in (0, 1) and err == ""


def test_command_table_recheck_and_golden_cases_name_the_same_commands():
    from princlab.recheck import _VERIFIERS

    table = {f"{group} {name}" for group, name, *_ in cli.COMMANDS}
    golden = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())
    assert table == set(_VERIFIERS) == {" ".join(case["argv"][:2]) for case in golden}


LEVELS = [(), *((group,) for group in cli.GROUPS), *(row[:2] for row in cli.COMMANDS)]


def _level_arguments(names):
    """The (flag or operand, help) the table gives the level `names` names:
    the top, a group or a command."""
    if not names:
        return [(flag, kwargs.get("help")) for flag, kwargs in cli._TOP] + [(group, None) for group in cli.GROUPS]
    if len(names) == 1:
        return [(row[1], None) for row in cli.COMMANDS if row[0] == names[0]]
    row = next(row for row in cli.COMMANDS if row[:2] == names)
    return [(flag, kwargs.get("help")) for flag, kwargs in cli._arguments(row)]


@pytest.mark.parametrize("spelling", ["-h", "--help", "--he"])
@pytest.mark.parametrize("names", LEVELS, ids=lambda names: " ".join(names) or "top")
def test_each_level_s_help_names_every_flag_and_operand(capsys, names, spelling):
    code, out, err = run_cli(capsys, *names, spelling)
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: princlab", *names, "[-h]"]))
    assert {word for word, _ in _level_arguments(names)} <= set(re.findall(r"[\w-]+", out))
    assert all(text in out for _, text in _level_arguments(names) if text)


# argv, and the level (the top, a group or a command) whose usage its error shows
USAGE_ERRORS = [
    ("", ""), ("frob", ""), ("--recheck frob idem", ""), ("--jobs x idem check -2 -3", ""),
    ("--jobs idem check -2 -3", ""), ("--recheck=1 idem check -2 -3", ""), ("--=1 idem check -2 -3", ""), ("-hx", ""),
    ("idem", "idem"), ("idem chek 1 2", "idem"), ("idem --recheck check 1 2", "idem"), ("ideal idem check", "ideal"),
    ("idem check 1", "idem check"), ("idem check ideal", "idem check"), ("idem check --rng Z 1 2", "idem check"),
    ("idem check 1 2 3", "idem check"), ("idem check --group=1 1 2", "idem check"),
    ("comax hunt --bound x", "comax hunt"), ("comax hunt", "comax hunt"), ("comax factor --ring Z", "comax factor"),
    ("pullback reduce --orientation zz Y 1-Y", "pullback reduce"), ("pullback nonufd Y 2 n", "pullback nonufd"),
    ("mring chain --m", "mring chain"), ("mring chain --m --n 2", "mring chain"), ("mring juett --b 1", "mring juett"),
    ("sphere projector extra", "sphere projector"), ("sphere projector -- -h", "sphere projector"),
]


@pytest.mark.parametrize("argv,level", USAGE_ERRORS, ids=[argv or "no-argv" for argv, _ in USAGE_ERRORS])
def test_a_usage_error_shows_its_level_s_usage_line_and_one_error(capsys, argv, level):
    usage = run_cli(capsys, *level.split(), "-h")[1].splitlines()[0]
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == usage
    assert len(err.splitlines()) == 2 and err.splitlines()[1].startswith("princlab: error: ")


def test_a_flag_is_spelled_by_a_prefix_no_other_flag_of_its_level_has(capsys, monkeypatch):
    want = run_cli(capsys, "--recheck", "idem", "check", "-2", "-3")
    assert run_cli(capsys, "--rech", "idem", "check", "-2", "-3") == want
    monkeypatch.setattr(cli, "_TOP", (*cli._TOP, ("--record", {"action": "store_true"})))
    assert run_cli(capsys, "--rec", "idem", "check", "-2", "-3") == (
        2, "", "usage: princlab [-h] [--recheck] [--record] {idem,ideal,comax,pullback,mring,limitring,polyext,sphere}"
        " ...\nprinclab: error: ambiguous option: --rec could match --recheck, --record\n")
    assert run_cli(capsys, "--reche", "idem", "check", "-2", "-3") == want


@pytest.mark.parametrize(
    "argv,same",
    [
        ("idem check --ring Z[sqrt(-5)] 3 1+sqrt(-5)", "idem check 3 --ring Z[sqrt(-5)] 1+sqrt(-5)"),
        ("idem check -2 -3", "idem check -- -2 -3"),
        ("idem check -2 -3", "-- idem check -2 -3"),
        ("comax factor 360 1001", "comax factor 360 --ring Z 1001"),
        ("pullback reduce Y 1-Y --orientation ba", "pullback reduce Y --orientation=ba 1-Y"),
        ("mring chain --m 3", "mring chain --m 2 --m=3"),
    ],
    ids=["interleaved", "dashes", "dashes-first", "plus-interleaved", "question-interleaved", "last-wins"],
)
def test_flags_and_operands_come_in_any_order(capsys, argv, same):
    assert run_cli(capsys, *same.split()) == run_cli(capsys, *argv.split())
    assert run_cli(capsys, *argv.split())[0] in (0, 1)


def _build_counts(monkeypatch):
    """The sizes of the factorizations comax certifies, one per call of its
    builder."""
    built = []
    real = comax._build_factorization

    def counted(b, ring, blocks, factors):
        built.append(len(factors))
        return real(b, ring, blocks, factors)

    monkeypatch.setattr(comax, "_build_factorization", counted)
    return built


def test_comax_factor_certifies_the_one_factorization_it_prints(capsys, monkeypatch):
    # 21 has three complete factorizations in Z[sqrt(-5)]; the report prints the first
    built = _build_counts(monkeypatch)
    report = report_of(capsys, "--recheck", "comax", "factor", "--ring", "Z[sqrt(-5)]", "21")
    assert report["recheck"] == "passed"
    assert built == [len(report["result"]["factorization"]["factors"])]


def test_comax_hunt_certifies_only_its_witness(capsys, monkeypatch):
    built = _build_counts(monkeypatch)
    report = report_of(capsys, "--recheck", "comax", "hunt", "--ring", "Z[sqrt(-5)]", "--bound", "500")
    assert report["recheck"] == "passed"
    assert built == [len(f["factors"]) for f in report["result"]["factorizations"]] and len(built) > 1


def test_comax_over_z_combines_no_prime(capsys):
    # every prime power of an integer is of identity class, so no support
    # size meets the cap: the product of the first 30 primes
    primes = [p for p in range(2, 114) if all(p % q for q in range(2, p))]
    n = str(math.prod(primes))
    for command in ("unique", "factor"):
        code, out, err = run_cli(capsys, "--recheck", "comax", command, n)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["recheck"] == "passed" and len(report["result"]["support"]) == 30


@pytest.mark.parametrize("command", ["factor", "unique"])
def test_a_support_past_the_cap_is_an_input_error_naming_what_it_counts(capsys, monkeypatch, command):
    # all twelve primes of 2047395 in Z[sqrt(-26)] are of non-identity class;
    # of 210's six in Z[sqrt(-5)], the four over 3 and 7 are
    assert run_cli(capsys, "comax", command, "--ring", "Z[sqrt(-26)]", "2047395") == (
        2, "", "princlab: error: 12 support primes of non-identity class exceed the cap 8\n")
    monkeypatch.setenv("PRINC_LAB_SUPPORT_CAP", "3")
    assert run_cli(capsys, "comax", command, "--ring", "Z[sqrt(-5)]", "210") == (
        2, "", "princlab: error: 4 support primes of non-identity class exceed the cap 3\n")
    monkeypatch.setenv("PRINC_LAB_SUPPORT_CAP", "4")
    assert report_of(capsys, "--recheck", "comax", command, "--ring", "Z[sqrt(-5)]", "210")["recheck"] == "passed"


def _tampered_fails(report, mutate):
    bad = copy.deepcopy(report)
    mutate(bad["result"])
    return verify_report(bad)


def test_recheck_ties_comax_unique_to_its_element(capsys):
    report = report_of(capsys, "comax", "unique", "--ring", "Z[sqrt(-5)]", "21")
    assert verify_report(report) == []

    def other_element(result):
        result["element"]["x"] = "22"

    def copied_twice(result):
        result["factorizations"][1] = copy.deepcopy(result["factorizations"][0])

    # the one element the result writes is the one each factorization multiplies to
    fails = _tampered_fails(report, other_element)
    assert [f"[{n}] product of factors times unit differs from the element" for n in range(3)] == fails
    assert any("repeats the blocks" in f for f in _tampered_fails(report, copied_twice))


def test_recheck_ties_comax_hunt_to_its_witness(capsys):
    report = report_of(capsys, "comax", "hunt", "--ring", "Z[sqrt(-5)]", "--bound", "300")
    assert report["verdict"] == "witness_found" and verify_report(report) == []

    def other_witness(result):
        result["witness"]["x"] = str(int(result["witness"]["x"]) + 1)

    def copied_twice(result):
        result["factorizations"] = [result["factorizations"][0]] * 2

    fails = _tampered_fails(report, other_witness)
    assert "[0] product of factors times unit differs from the element" in fails
    assert any("repeats the blocks" in f for f in _tampered_fails(report, copied_twice))


def test_juett_splits_for_a_composite_p(capsys):
    # (-q(Z)/p)*(Z - 1) + (1/p)*(1 + Z + ... + Z^(p-1)) == 1 holds over Q for every p >= 2
    report = report_of(capsys, "--recheck", "mring", "juett", "--group", "--b", "1", "--p", "4", "--beta", "1")
    assert (report["verdict"], report["result"]["p"], report["recheck"]) == ("split", 4, "passed")
    assert run_cli(capsys, "mring", "juett", "--group", "--b", "1", "--p", "1", "--beta", "1") == (
        2, "", "princlab: error: need p >= 2\n")


def _bumped(cert, path):
    """A copy of cert whose value at path (an attribute, then list or tuple
    indices) is one more."""
    def bump(value, idx):
        if not idx:
            return value + 1
        seq = list(value)
        seq[idx[0]] = bump(value[idx[0]], idx[1:])
        return type(value)(seq)

    bad = copy.copy(cert)
    setattr(bad, path[0], bump(getattr(cert, path[0]), path[1:]))
    return bad


MR_Q, MR_ZHALF = "Q[X;S]", "Z[1/2][X;S]"
FACTOR, LAM, MU, UNIT = ("factors", 1), ("pairwise", 0, 2), ("pairwise", 0, 3), ("unit",)
SPLIT = (("f1",), ("f2",), ("lam",), ("mu",))


@pytest.mark.parametrize(
    "argv,produce,part,paths",
    [
        (["mring", "split", "--ring", MR_Q, "--monoid", "p-div:2", "--n", "2", "--s", "1"],
         lambda: mr_split(1, 2, cli.parse_ring_spec(MR_Q, "p-div:2")), lambda r: r, SPLIT),
        *[(["mring", "chain", "--ring", ring, "--m", "3", "--s", "1"],
           lambda ring=ring: mr_comax_chain(1, 3, cli.parse_ring_spec(ring)), lambda r: r, (FACTOR, LAM, MU))
          for ring in (MR_Q, MR_ZHALF)],
        (["mring", "juett", "--ring", MR_Q, "--monoid", "p-div:3", "--group", "--b", "8", "--p", "3", "--beta", "2"],
         lambda: juett_split(1, 8, 3, 2, cli.parse_ring_spec(MR_Q, "p-div:3", True)), lambda r: r,
         SPLIT + (UNIT,)),
        *[(["limitring", "chain", "--ring", ring, "--m", "3"],
           lambda ring=ring: lr_chain(3, cli.parse_ring_spec(ring)), lambda r: r, (("factors", 0), LAM, MU))
          for ring in ("limitring:Q", "limitring:Z")],
        (["comax", "unique", "--ring", "Z[sqrt(-5)]", "21"],
         lambda: enumerate_complete_factorizations(QuadElem(21, 0, -5),
                                                   cli.parse_ring_spec("Z[sqrt(-5)]")).factorizations[0],
         lambda r: r["factorizations"][0], (FACTOR, LAM, MU, UNIT)),
        (["comax", "factor", "360"], lambda: enumerate_complete_factorizations(360, cli.ZZ).factorizations[0],
         lambda r: r["factorization"], (FACTOR, LAM, MU, UNIT)),
    ],
    ids=["mr_split", "mr_comax_chain-Q", "mr_comax_chain-Z[1/2]", "juett_split", "lr_chain-Q", "lr_chain-Z",
         "comax_unique", "comax_factor"],
)
def test_every_comaximal_certificate_fails_when_one_value_changes(capsys, argv, produce, part, paths):
    report = report_of(capsys, *argv)
    cert = produce()
    assert verify_report(report) == []
    assert enc(cert) == part(report["result"])  # the report carries this certificate
    for path in paths:
        bad = _bumped(cert, path)
        assert _tampered_fails(report, lambda result: part(result).update(enc(bad))), path


@pytest.mark.parametrize(
    "argv,mutate,name",
    [
        (["ideal", "principal", "--ring", "Z[sqrt(-5)]", "3", "sqrt(-5)^2"],
         lambda r: r["generator"].update(x="3/2"), "generator"),
        (["ideal", "factor", "--ring", "Z[sqrt(-5)]", "6"], lambda r: r["element"].update(x="13/2"), "element"),
        # the golden case pullback_base_non_principal
        (["pullback", "reduce", "--ring", "pullback:Z[sqrt(-5)]", "3", "1+sqrt(-5)+Y"],
         lambda r: r["base_pair"][0].update(x="7/2"), "base_pair[0]"),
    ],
)
def test_recheck_fails_a_non_integral_coordinate(capsys, argv, mutate, name):
    # int() would truncate 3/2 to 1: a claim about another element
    report = report_of(capsys, *argv)
    assert verify_report(report) == []
    assert f"{name} does not have integer coordinates" in _tampered_fails(report, mutate)


def run_probe(probe, *argv, environ=os.environ, **kwargs):
    """Run the Python source `probe` in a fresh interpreter that imports
    this checkout's princlab, with argv as its sys.argv[1:]; stdout and
    stderr are captured as text unless kwargs say otherwise."""
    src = str(Path(princlab.__file__).resolve().parents[1])
    env = dict(environ, PYTHONPATH=src)
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **kwargs}
    return subprocess.run([sys.executable, "-c", probe, *argv], env=env, timeout=60, **kwargs)


@pytest.mark.parametrize(
    "argv",
    [["ideal", "frompair", "2", "1+sqrt(-5)"], ["comax", "unique", "--ring", "Z[sqrt(-6)]", "10010"]],
)
def test_quadratic_commands_do_not_import_sympy(argv):
    probe = (
        "import sys\n"
        "from princlab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.stderr.write('sympy loaded: %s' % ('sympy' in sys.modules))\n"
        "sys.exit(code)\n"
    )
    res = run_probe(probe, "--recheck", *argv)
    assert res.returncode in (0, 1), res.stderr
    assert json.loads(res.stdout)["recheck"] == "passed"
    assert res.stderr.endswith("sympy loaded: False")


def test_no_golden_call_imports_sympy():
    # sympy is a test oracle only: every golden argv, input errors included,
    # runs in one process without loading it
    probe = (
        "import json, sys\n"
        "from princlab import cli\n"
        "codes = [cli.main(['--recheck', *case['argv']]) for case in json.load(open(sys.argv[1]))]\n"
        "sys.stderr.write('codes %s, sympy loaded: %s' % (codes, 'sympy' in sys.modules))\n"
    )
    cases = Path(__file__).parent / "golden" / "cases.json"
    res = run_probe(probe, str(cases), stdout=subprocess.DEVNULL)
    codes = [case["exit"] for case in json.loads(cases.read_text())]
    assert res.returncode == 0
    assert res.stderr.endswith(f"codes {codes}, sympy loaded: False"), res.stderr[-2000:]


def test_a_prime_past_the_proven_primality_bound_is_an_input_error(capsys):
    # a prime = 1 mod 4 above core._MR_BOUND: factorint refuses it rather
    # than hand recheck a prime ideal of Z[i] it cannot prove (exit 3)
    p = "3400000000000000000000049"
    code, out, err = run_cli(capsys, "ideal", "factor", "--ring", "Z[sqrt(-1)]", p)
    assert (code, out) == (2, "")
    assert err == f"princlab: error: {p} is too large to prove prime\n"


def test_failed_self_check_exits_3_not_2(capsys, monkeypatch):
    # a producer that builds a wrong certificate: one factor off by one
    real = comax._build_factorization
    monkeypatch.setattr(comax, "_build_factorization", lambda *args: _bumped(real(*args), FACTOR))
    for flag in ([], ["--recheck"]):
        code, out, err = run_cli(capsys, *flag, "comax", "factor", "84")
        assert code == 3
        assert "recheck" not in json.loads(out)
        assert "princlab: recheck FAILED: [0] product of factors times unit differs from the element" in err.splitlines()


def test_an_exponent_past_the_bound_is_an_input_error(capsys):
    # the stdlib's parser would build 10**99999999 before any check
    assert run_cli(capsys, "mring", "split", "--s", "1e99999999", "--n", "2") == (
        2, "", "princlab: error: the exponent of '1e99999999' passes 4300 in magnitude\n")


def test_a_huge_excluded_degree_is_an_input_error_at_once(capsys):
    # the closure walk would list every degree up to 10^8 and walk their pairs
    start = time.perf_counter()
    assert run_cli(capsys, "polyext", "witness", "--alpha", "y", "--exclude", "100000000") == (
        2, "", "princlab: error: excluded degree 100000000 is not below twice the number of excluded degrees, "
        "so D is not closed under products\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("spelling", [["--exclude", ""], ["--exclude="]], ids=["next-word", "equals"])
def test_an_empty_exclude_list_excludes_no_degree(capsys, spelling):
    # D = Q[y], which holds y: no witness.  Only an absent flag means D = Q[y^2, y^3]
    code, out, err = run_cli(capsys, "--recheck", "polyext", "witness", "--alpha", "y", *spelling)
    report = json.loads(out)
    assert (code, err, report["verdict"], report["result"]["excluded"]) == (1, "", "not_a_witness", [])
    assert report["recheck"] == "passed"


def test_wrong_user_witness_still_exits_2(capsys):
    code, out, err = run_cli(capsys, "pullback", "reduce", "Y", "Y-Y^2", "5")
    assert code == 2 and out == ""
    assert "witness does not satisfy the defining relation" in err


def test_negative_power_in_an_order_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "ideal", "principal", "sqrt(-5)^-1", "3")
    assert code == 2 and out == ""
    assert "negative power is not invertible here" in err


def test_recheck_accepts_integer_values_in_a_quadratic_base(capsys):
    # ca == 0 decodes as the rational 0, which lies in Z[sqrt(-5)]
    report = report_of(capsys, "pullback", "reduce", "--ring", "pullback:Z[sqrt(-5)]", "Y", "3")
    assert report["result"]["ca"]["num"]["coeffs"] == [] and verify_report(report) == []

    def half_at_zero(result):
        result["ca"]["num"]["coeffs"] = [{"type": "rat", "value": "1/2"}]

    assert "ca is not a member of the pullback (value at 0)" in _tampered_fails(report, half_at_zero)


@pytest.mark.parametrize(
    "argv,undivided",
    [
        (["limitring", "eval", "--ring", "limitring:Z", "6/3"], "2"),
        (["idem", "check", "--ring", "Z[X;S]", "2*X^(1/2)/2", "1-X^(1/2)"], "X^(1/2)"),
    ],
)
def test_exact_division_by_a_constant_over_z(capsys, argv, undivided):
    code, out, err = run_cli(capsys, "--recheck", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["recheck"] == "passed"
    argv = [undivided if a == argv[4] else a for a in argv]
    assert run_cli(capsys, "--recheck", *argv) == (code, out, err)


def test_negative_power_of_a_constant_inverts_it(capsys):
    code, out, err = run_cli(capsys, "--recheck", "limitring", "eval", "--ring", "limitring:Z", "(1/2)^-2")
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["element"] == {"type": "limit", "level": 1, "coeffs": [{"type": "rat", "value": "4"}]}
    code, out, err = run_cli(capsys, "--recheck", "idem", "check", "--ring", "Q[X;S]", "2^-1*X", "1-X")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["result"]["a"]["terms"] == [["1", {"type": "rat", "value": "1/2"}]]
    assert report["recheck"] == "passed"


def test_commands_import_no_code_generation_modules():
    # dataclasses pulls in inspect, ast and dis, and every @dataclass execs
    # generated code at start-up; the certificates are plain classes
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from princlab import cli\n"
        "for argv in (['comax', 'unique', '60'], ['mring', 'chain', '--m', '3', '--ring', 'Z[1/2][X;S]'],\n"
        "             ['limitring', 'chain', '--m', '3', '--ring', 'limitring:Z'], ['sphere', 'projector'],\n"
        "             ['polyext', 'counterexample', '--alpha', '2*y']):\n"
        "    assert cli.main(['--recheck', *argv]) == 0, argv\n"
        "new = set(sys.modules) - before\n"
        "sys.stderr.write(repr(sorted(new & {'dataclasses', 'inspect', 'ast', 'dis'})))\n"
    )
    res = run_probe(probe)
    assert res.returncode == 0, res.stderr
    assert res.stderr == "[]"


def test_report_imports_no_engine_module():
    probe = (
        "import sys\n"
        "import princlab.report\n"
        "sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith('princlab'))))\n"
    )
    res = run_probe(probe)
    assert res.returncode == 0, res.stderr
    assert res.stderr == "['princlab', 'princlab.rational', 'princlab.report']"


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)


def test_division_past_the_dense_limit_is_an_input_error():
    # X^100 - X^200 on the grid of 1 + X^(1/2^20) would be 100*2^20 + 1 entries
    probe = (
        "import sys, time\n"
        "from princlab import cli\n"
        "start = time.perf_counter()\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.stderr.write('elapsed %f' % (time.perf_counter() - start))\n"
        "sys.exit(code)\n"
    )
    res = run_probe(probe, "--recheck", "idem", "check", "--ring", "Z[X;S]", "1+X^(1/2^20)", "X^100",
                    preexec_fn=_limit_address_space)
    assert res.returncode == 2 and res.stdout == ""
    message, _, elapsed = res.stderr.rpartition("elapsed ")
    assert message == "princlab: error: exact division needs 104857601 dense terms on the exponent grid 1/1048576; the limit is 65536\n"
    assert float(elapsed) < 1


PRIMES_BELOW_2 = pytest.mark.parametrize(
    "monoid,base,failure",
    [
        (["1"], ["2"], "ring.monoid.primes: 1 is below 2"),
        (["2", "0"], ["2"], "ring.monoid.primes: 0 is below 2"),
        (["2"], ["3", "1"], "ring.base.primes: 1 is below 2"),
    ],
)


def recheck_fails_fast(report, failure):
    # stripping the prime 1 never ends and the prime 0 divides by zero, so
    # the check runs in a fresh interpreter with a time limit
    probe = (
        "import json, sys, time\n"
        "from princlab.recheck import verify_report\n"
        "report = json.load(sys.stdin)\n"
        "start = time.perf_counter()\n"
        "fails = verify_report(report)\n"
        "print(json.dumps([fails, time.perf_counter() - start]))\n"
    )
    res = run_probe(probe, input=json.dumps(report))
    fails, elapsed = json.loads(res.stdout)
    assert fails == [failure]
    assert elapsed < 1


def check_prime_below_2_fails_fast(capsys, argv, monoid, base, failure):
    report = report_of(capsys, *argv, "--ring", "Z[1/2][X;S]")
    report["ring"]["monoid"]["primes"] = monoid
    report["ring"]["base"]["primes"] = base
    recheck_fails_fast(report, failure)


@PRIMES_BELOW_2
def test_recheck_fails_a_ring_prime_below_2_before_any_loop(capsys, monoid, base, failure):
    check_prime_below_2_fails_fast(capsys, ["mring", "chain", "--m", "4", "--s", "1/2"], monoid, base, failure)


@PRIMES_BELOW_2
def test_recheck_fails_a_ring_prime_below_2_in_an_idem_check(capsys, monoid, base, failure):
    check_prime_below_2_fails_fast(capsys, ["idem", "check", "X^(1/2)", "1-X^(1/2)"], monoid, base, failure)


@pytest.mark.parametrize("command", ["idem check", "idem matrix"])
@pytest.mark.parametrize("prime", ["1", "0"])
def test_recheck_fails_a_z_1_over_p_prime_below_2_in_an_idem_report(command, prime):
    # the expression grammar has no Z[1/p], so the report is made in process
    ring = LocalizedIntegers((3,))
    handler = getattr(cli, "cmd_" + command.replace(" ", "_"))
    report = make_report(command, ring, *handler(ring, ring.coerce(-2), ring.coerce(-3))[:2])
    assert report["verdict"] == "idempotent_pair" and verify_report(report) == []
    report["ring"]["primes"] = [prime]
    recheck_fails_fast(report, f"ring.primes: {prime} is below 2")


# ------------------------------------------------------- the shell exit
# cli.run (the console script and `python -m princlab.cli`) against
# sys.exit(cli.main(...)), the interpreter's normal exit: a call must end
# alike either way

RUN = "from princlab import cli\n{patch}cli.run()\n"
MAIN = "import sys\nfrom princlab import cli\n{patch}sys.exit(cli.main(sys.argv[1:]))\n"
FORCED_FAILURE = "cli.verify_report = lambda report: ['forced']\n"
RAISING_HANDLER = "def boom(ring, a, b):\n    raise RuntimeError('boom')\ncli.cmd_idem_check = boom\n"


def _stdout_env(unbuffered):
    """The environment with stdout block-buffered on a pipe, or unbuffered."""
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(environ, PYTHONUNBUFFERED="1") if unbuffered else environ


def _both_exits(argv, patch="", **kwargs):
    return tuple(run_probe(probe.format(patch=patch), *argv, **kwargs) for probe in (RUN, MAIN))


@pytest.mark.parametrize(
    "argv",
    [["idem", "check", "--ring=--", "1", "2"], ["mring", "split", "--s=--", "--n", "1"], ["mring", "chain", "--m=--"]],
    ids=["ring", "fraction", "int"],
)
def test_a_flag_whose_value_is_double_dash_is_an_input_error(capsys, argv):
    # a value after "=" is the word's rest, "--" too, and no converter reads it
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "argv,patch,code",
    [
        (["idem", "check", "-2", "-3"], "", 0),
        (["--recheck", "comax", "unique", "--ring", "Z[sqrt(-5)]", "21"], "", 1),
        (["pullback", "nonufd", "Y", "2", "0"], "", 2),
        (["--recheck", "idem", "check", "-2", "-3"], FORCED_FAILURE, 3),
        (["idem", "check", "1"], "", 2),
        (["--help"], "", 0),
    ],
    ids=["exit-0", "exit-1", "exit-2", "exit-3", "usage-error", "help"],
)
def test_a_shell_call_ends_as_main_returns(argv, patch, code):
    # block-buffered stdout: a hard exit before the flush would lose the report
    ran, returned = _both_exits(argv, patch, text=False, environ=_stdout_env(False))
    assert ran.returncode == code
    assert (ran.returncode, ran.stdout, ran.stderr) == (returned.returncode, returned.stdout, returned.stderr)
    if patch == FORCED_FAILURE:
        assert json.loads(ran.stdout)["verdict"] == "idempotent_pair"
        assert ran.stderr == b"princlab: recheck FAILED: forced\n"


def test_an_uncaught_exception_keeps_its_traceback():
    ran, returned = _both_exits(["idem", "check", "-2", "-3"], RAISING_HANDLER)
    for res in (ran, returned):
        assert res.returncode == 1 and res.stdout == ""
        lines = res.stderr.splitlines()
        assert lines[0] == "Traceback (most recent call last):" and lines[-1] == "RuntimeError: boom"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["idem", "check", "-2", "-3"], ["--recheck", "mring", "chain", "--m", "10", "--ring", "Q[X;S]", "--s", "1/2"]],
    ids=["small", "large"],
)
def test_a_closed_pipe_fails_as_it_did(argv, unbuffered):
    # a pipe whose reader is gone before the call starts: main's write (or,
    # block-buffered, its flush) fails, and either exit ends with SIGPIPE's
    # shell status and no traceback
    outcomes = []
    for probe in (RUN, MAIN):
        read, write = os.pipe()
        os.close(read)
        try:
            res = run_probe(probe.format(patch=""), *argv, stdout=write, environ=_stdout_env(unbuffered))
        finally:
            os.close(write)
        outcomes.append((res.returncode, res.stderr))
    assert outcomes == [(cli.EXIT_CLOSED_PIPE, "")] * 2


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("patch,code", [("", cli.EXIT_CLOSED_PIPE), (FORCED_FAILURE, 3)], ids=["passed", "failed"])
def test_a_reader_that_closes_early_ends_the_call_with_sigpipe_status(patch, code, unbuffered):
    # `princlab ... | head -c 1`: the report is larger than a pipe holds, so
    # the call is still writing when the reader closes.  A failed recheck
    # still says so on stderr and exits 3
    argv = ["--recheck", "mring", "chain", "--m", "10", "--ring", "Q[X;S]", "--s", "5/4"]
    src = str(Path(princlab.__file__).resolve().parents[1])
    env = dict(_stdout_env(unbuffered), PYTHONPATH=src)
    for probe in (RUN, MAIN):
        with subprocess.Popen([sys.executable, "-c", probe.format(patch=patch), *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == code
        assert err == (b"princlab: recheck FAILED: forced\n" if patch else b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_large_report_arrives_whole_through_a_pipe(unbuffered):
    argv = ["--recheck", "mring", "chain", "--m", "10", "--ring", "Q[X;S]", "--s", "1/2"]
    ran, returned = _both_exits(argv, text=False, environ=_stdout_env(unbuffered))
    assert (ran.returncode, ran.stderr) == (0, b"")
    assert len(ran.stdout) > 200_000 and ran.stdout == returned.stdout
    assert json.loads(ran.stdout)["recheck"] == "passed"
