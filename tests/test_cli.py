import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import princlab
from princlab import cli
from princlab.recheck import verify_report


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
    real = cli.factor_principal
    monkeypatch.setattr(cli, "factor_principal", lambda b: real(b)[:-1])
    argv = ["ideal", "factor", "--ring", "Z[sqrt(-5)]", "6"]
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, "--recheck", *argv)
    assert code == 3
    assert "recheck FAILED" in err and "recheck" not in json.loads(out)


@pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
def test_jobs_out_of_range_is_rejected_before_any_pool(capsys, monkeypatch, jobs):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, out, err = run_cli(capsys, "--jobs", str(jobs), "comax", "factor", "360", "1001")
    assert code == 2 and out == ""
    assert "--jobs" in err


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool of two workers needs two CPUs")
def test_jobs_pool_prints_what_one_process_prints(capsys):
    golden = (Path(__file__).parent / "golden" / "comax_factor_batch.out").read_text()
    assert run_cli(capsys, "--recheck", "--jobs", "2", "comax", "factor", "360", "1001") == (0, golden, "")
    argv = ["--recheck", "comax", "factor", "--ring", "Z[sqrt(-5)]", "6", "21"]
    assert run_cli(capsys, "--jobs", "2", *argv) == run_cli(capsys, "--jobs", "1", *argv)


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

    assert any("another element" in f for f in _tampered_fails(report, other_element))
    assert any("repeats the blocks" in f for f in _tampered_fails(report, copied_twice))


def test_recheck_ties_comax_hunt_to_its_witness(capsys):
    report = report_of(capsys, "comax", "hunt", "--ring", "Z[sqrt(-5)]", "--bound", "300")
    assert report["verdict"] == "witness_found" and verify_report(report) == []

    def other_witness(result):
        result["witness"]["x"] = str(int(result["witness"]["x"]) + 1)

    def copied_twice(result):
        result["factorizations"] = [result["factorizations"][0]] * 2

    assert any("another element" in f for f in _tampered_fails(report, other_witness))
    assert any("repeats the blocks" in f for f in _tampered_fails(report, copied_twice))


@pytest.mark.parametrize(
    "argv",
    [["ideal", "frompair", "2", "1+sqrt(-5)"], ["comax", "unique", "--ring", "Z[sqrt(-6)]", "10010"]],
)
def test_quadratic_commands_do_not_import_sympy(argv):
    src = str(Path(princlab.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "from princlab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.stderr.write('sympy loaded: %s' % ('sympy' in sys.modules))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", probe, "--recheck", *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode in (0, 1), res.stderr
    assert json.loads(res.stdout)["recheck"] == "passed"
    assert res.stderr.endswith("sympy loaded: False")


def test_failed_self_check_exits_3_not_2(capsys, monkeypatch):
    from princlab.comax import ComaxFactorization

    monkeypatch.setattr(ComaxFactorization, "verify", lambda self: False)
    code, out, err = run_cli(capsys, "comax", "factor", "84")
    assert code == 3 and out == ""
    assert "failed to verify" in err


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
