import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

from qdrinfeld import pbw
from qdrinfeld.cli import main
from qdrinfeld.specfile import format_spec, load_fixture, parse_spec_text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_check_passes_on_every_fixture():
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
        code, _, _ = run(["check", name])
        assert code == 0, name


def test_check_fails_on_a_broken_spec(tmp_path):
    text = format_spec(load_fixture("ex2")).replace(
        "1 2 -> 3 (1) lam", "1 2 -> 3 (1) lam\n1 3 -> 3 (1) lam"
    )
    path = tmp_path / "broken.qdo"
    path.write_text(text)
    code, out, _ = run(["check", str(path), "--json"])
    assert code == 2
    assert json.loads(out)["verdict"] is False


def test_unknown_spec_is_an_input_error():
    code, _, err = run(["check", "no-such-fixture"])
    assert code == 1
    assert "input error" in err


def test_malformed_file_is_an_input_error(tmp_path):
    path = tmp_path / "bad.qdo"
    path.write_text("[field]\nconductor = q\n")
    code, _, err = run(["check", str(path)])
    assert code == 1


def test_check_json_key_set():
    code, out, _ = run(["check", "ex2", "--json"])
    assert code == 0
    assert sorted(json.loads(out)) == [
        "command",
        "cond1",
        "cond1_violations",
        "cond2",
        "cond2_violations",
        "cond3",
        "cond3_violations",
        "fixed_point_free",
        "oracle_confluent",
        "remark_cond2",
        "remark_cond3",
        "spec",
        "strong_vanishing",
        "strong_vanishing_violations",
        "vanishing",
        "vanishing_violations",
        "verdict",
    ]


def test_normal_form_output():
    code, out, _ = run(["normal-form", "ex2", "v2*v1"])
    assert code == 0
    assert out == "-q*lam*v3*g(1) + q*v1*v2\n"


def test_fmt_round_trips():
    code, out, _ = run(["fmt", "ex3"])
    assert code == 0
    assert format_spec(parse_spec_text(out, name="ex3")) == out


def test_run_all_is_deterministic_apart_from_timing():
    first = run(["all", "ex3", "--json"])
    second = run(["all", "ex3", "--json"])
    assert first[0] == second[0] == 0
    a, b = json.loads(first[1]), json.loads(second[1])
    a.pop("timing"), b.pop("timing")
    assert a == b
    assert a["passed"] is True
    assert a["verdicts"]["hopf_exploratory"] is False


def test_run_all_on_ex1_is_exploratory_for_the_coproduct():
    code, out, _ = run(["all", "ex1", "--json"])
    assert code == 2
    data = json.loads(out)
    assert data["verdicts"] == {
        "check": True,
        "strong_vanishing": False,
        "lie": True,
        "uea": True,
        "hopf": False,
        "hopf_exploratory": True,
    }
    assert data["passed"] is False


def test_lie_on_the_generic_fixture():
    code, _, _ = run(["lie", "gl11"])
    assert code == 0


def test_lie_quotient_verdicts():
    code, out, _ = run(["lie", "ex2", "--quotient", "--json"])
    assert code == 0 and json.loads(out)["epsilon_descends"] is True
    code, out, _ = run(["lie", "ex1", "--quotient", "--json"])
    assert code == 2
    data = json.loads(out)
    assert data["epsilon_descends"] is False
    assert data["descent_certificates"][0]["value"] == "-1 - zeta(3)"


def test_uea_with_an_instantiation():
    code, out, _ = run(["uea", "ex2", "--instantiate", "lam=5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["pbw_count"] == data["quotient_dim"] == 40
    assert data["dimensions_match"] is True


def test_uea_rejects_bad_instantiations():
    code, _, err = run(["uea", "ex2", "--instantiate", "lam"])
    assert code == 1
    code, _, _ = run(["uea", "ex2", "--instantiate", "lam=q*lam"])
    assert code == 1


def test_hopf_exit_codes():
    code, _, _ = run(["hopf", "ex2"])
    assert code == 0
    code, _, _ = run(["hopf", "ex1", "--degree", "2"])
    assert code == 2


def test_degree_guards():
    code, _, err = run(["hopf", "ex2", "--degree", "-5"])
    assert code == 1
    assert "nonnegative" in err
    # the soft limit prints a note before dispatch; a generic ring makes
    # the command itself bail out cheaply right after
    code, _, err = run(["hopf", "gl11", "--degree", "7"])
    assert code == 1
    assert "soft limit" in err and "input error" in err


def test_converse_round_trip():
    for name in ("ex2", "ex3"):
        code, out, _ = run(["converse", name, "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["round_trip"] is True
        assert data["canonical"] == format_spec(load_fixture(name))


def test_unclosed_group_element_is_an_input_error(tmp_path):
    path = tmp_path / "unclosed.qdo"
    path.write_text(format_spec(load_fixture("ex2")).replace("3 (1) lam", "3 (1 lam"))
    code, _, err = run(["check", str(path)])
    assert code == 1
    assert "input error" in err
    assert "Traceback" not in err


def test_unknown_root_of_unity_in_an_expression_is_an_input_error():
    for expr in ("zeta(5)*v1", "zeta(0)"):
        code, out, err = run(["normal-form", "ex2", expr])
        assert code == 1, expr
        assert out == ""
        assert err.startswith("input error:") and "zeta(" in err
        assert "Traceback" not in err


def test_internal_inconsistency_exits_with_3(monkeypatch):
    monkeypatch.setattr(pbw, "_remark3_holds", lambda spec: False)
    code, out, err = run(["check", "ex2"])
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")
    assert "Traceback" not in err


def test_oversized_powers_are_input_errors(tmp_path):
    # refused by the exponent bound, by the term bound, and in a spec row
    path = tmp_path / "power.qdo"
    path.write_text(format_spec(load_fixture("ex2")).replace("2 3 = -q\n", "2 3 = -q^5000\n"))
    for argv in (
        ["normal-form", "ex2", "v1^200000"],
        ["normal-form", "ex2", "(1+lam)^200000"],
        ["normal-form", "ex2", "(1+lam)^1000"],
        ["check", str(path)],
    ):
        started = time.monotonic()
        code, out, err = run(argv)
        assert time.monotonic() - started < 1, argv
        assert code == 1 and not out, argv
        assert err.startswith("input error:") and "exceed" in err, argv
    assert "line " in err


def test_oversized_conductor_is_an_input_error(tmp_path):
    path = tmp_path / "conductor.qdo"
    path.write_text(
        "[field]\nconductor = 1000000\n[group]\norders = [1]\n"
        "[action]\ncharacters = [[0], [0]]\n[q]\n1 2 = -1\n"
    )
    started = time.monotonic()
    code, out, err = run(["check", str(path)])
    assert time.monotonic() - started < 1
    assert code == 1 and not out
    assert err.startswith("input error:") and "conductor 1000000" in err
    assert "line 2:" in err and "Traceback" not in err
    # a conductor taken from the group's orders is bounded on the orders row
    path.write_text(
        "[group]\norders = [1000]\n[action]\ncharacters = [[0], [0]]\n[q]\n1 2 = -1\n"
    )
    code, out, err = run(["check", str(path)])
    assert code == 1 and not out
    assert err.startswith("input error: line 2:") and "conductor 1000 exceeds" in err


GENERIC_WIDE = """\
[generic-lie]
free_rank = 1
orders = [40]
basis = x, y
degrees = [[40, 39], [-40, 1]]
epsilon 1 1 = -1
epsilon 2 2 = -1
"""


def test_power_bounds_leave_internal_arithmetic_alone(tmp_path):
    # the pairing raises table entries to 40*40 and 39*39, and instantiation
    # raises q to 1200: only powers written in the input are bounded
    path = tmp_path / "wide.qdo"
    path.write_text(GENERIC_WIDE)
    code, out, err = run(["lie", str(path)])
    assert code == 0 and err == "", err
    path.write_text(
        format_spec(load_fixture("ex2"))
        .replace("1 3 = -q^-1\n", "1 3 = -q^-600*q^-600\n")
        .replace("2 3 = -q\n", "2 3 = -q^600*q^600\n")
    )
    code, out, err = run(["uea", str(path), "--degree", "2"])
    assert code == 0 and err == "", err
    assert "closed-form count 20, quotient slice 20" in out
