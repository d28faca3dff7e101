import io
import json
import math
import random
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qdrinfeld import cli, colorlie, hopf, pbw, uea
from qdrinfeld.cli import main, run_all
from qdrinfeld.cyclotomic import CyclotomicNumber
from qdrinfeld.errors import HypothesisNotMet
from qdrinfeld.scalar import Scalar, parse_scalar
from qdrinfeld.specfile import (
    fixture_names,
    fixture_path,
    format_spec,
    load_fixture,
    parse_spec_text,
)

from randspec import corpus, parametric_corpus


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


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "bin.qdo"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(["check", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "bin.qdo" in err and "UTF-8" in err
    assert "Traceback" not in err


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


CANCELLING_ROW = """
[field]
conductor = 2

[group]
orders = [2]

[action]
characters = [[1], [1]]

[q]
1 2 = -1

[kappa]
1 2 -> 1 (0) 1 ; 1 (0) -1
"""


def test_a_kappa_row_whose_terms_cancel_adds_nothing(tmp_path):
    path = tmp_path / "cancelling.qdo"
    path.write_text(CANCELLING_ROW)
    for command in ("check", "lie", "uea", "converse", "all"):
        code, _, err = run([command, str(path)])
        assert code == 0, (command, err)
    code, out, _ = run(["fmt", str(path)])
    assert code == 0
    assert out == format_spec(parse_spec_text(CANCELLING_ROW.split("[kappa]")[0]))
    assert "[kappa]" not in out


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
    with pytest.warns(UserWarning, match="ex1"):
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


def test_a_pass_over_the_fixtures_skips_products_by_one(monkeypatch):
    calls = []
    multiply = CyclotomicNumber.__mul__
    monkeypatch.setattr(CyclotomicNumber, "__mul__", lambda a, b: calls.append(1) or multiply(a, b))
    with pytest.warns(UserWarning, match="ex1"):
        for name in fixture_names():
            run_all(name, 2)
    # multiplying out every factor of 1, and every word character per use, made 9,545
    assert len(calls) <= 9545 // 3


def _counted_pbw_reports(monkeypatch) -> list:
    """The specs, by name, whose PBW report is computed from now on; a
    report read back from the spec's memo is not counted."""
    calls = []
    compute = pbw._pbw_report

    def counted(spec):
        calls.append(spec.name)
        return compute(spec)

    monkeypatch.setattr(pbw, "_pbw_report", counted)
    return calls


def test_run_all_decides_pbw_once(monkeypatch):
    # run_all and the Hopf check's gate both ask for the report
    calls = _counted_pbw_reports(monkeypatch)
    assert run_all("ex2", 2)["passed"]
    assert calls == ["ex2"]
    calls.clear()
    code, _, _ = run(["hopf", "ex2", "--degree", "2"])
    assert code == 0 and calls == ["ex2"]


def test_run_all_builds_no_ring_on_the_algebra_fixtures(monkeypatch):
    # inside the hypotheses lie and uea come from the paper's theorems
    # (run_all's docstring), so nothing is built or computed for them
    calls = _counted_pbw_reports(monkeypatch)
    for module in (cli, colorlie, uea):
        for name in ("check_color_axioms", "iso_check", "dimension_oracle"):
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    built = []
    construct = colorlie.ColorLieRing.__init__

    def counted_ring(ring, mode, *args, **kwargs):
        built.append(mode)
        construct(ring, mode, *args, **kwargs)

    monkeypatch.setattr(colorlie.ColorLieRing, "__init__", counted_ring)
    with pytest.warns(UserWarning, match="ex1"):
        for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
            run_all(name, 2)
    names = ["ex1", "ex2", "ex3", "ex4", "zero-kappa"]
    assert built == [] and calls == names
    # lie and uea read the same gate
    calls.clear()
    for name in names:
        for argv in (["lie", name], ["lie", name, "--quotient"], ["uea", name, "--degree", "2"]):
            run(argv)
    assert built == []
    assert calls == [name for name in names for _ in range(3)]
    assert run_all("gl11", 2)["passed"]
    assert built == ["generic"]


def test_run_all_decides_each_spec_fact_once(monkeypatch):
    # vanishing and the overlap oracle, once each, whether the Hopf leg
    # is proved (ex2) or read off the braiding (ex1).  One sweep of the
    # identity, _identity_failures, decides both strengths of vanishing;
    # the public check_vanishing reads the report and is not called at all
    facts = ("_identity_failures", "overlap_oracle", "check_vanishing")
    for name in ("ex1", "ex2"):
        calls = []
        with monkeypatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for fact in facts:
                original = getattr(pbw, fact)

                def counted(*args, _fact=fact, _original=original, **kwargs):
                    calls.append(_fact)
                    return _original(*args, **kwargs)

                patch.setattr(pbw, fact, counted)
            run_all(name, 2)
        assert sorted(calls) == ["_identity_failures", "overlap_oracle"], name


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


def test_an_unknown_instantiation_is_refused_without_parameters():
    # ex1 has no free parameter, so no name can be instantiated
    code, _, err = run(["uea", "ex1", "--instantiate", "zz=3", "--degree", "2"])
    assert code == 1
    assert "'zz'" in err and "Traceback" not in err


def test_every_instantiation_refusal_is_an_input_error():
    # ex2's q_12 is q^-1, and 0 has no inverse
    for argv, message in (
        (["uea", "ex1", "--instantiate", "zz=3"], "unknown parameter 'zz'"),
        (["uea", "ex2", "--instantiate", "q=0"], "q_12 = q^-1 is not defined at q = 0"),
        (["uea", "ex2", "--instantiate", "lam=q*lam"], "still has free parameters"),
        (["uea", "ex2", "--instantiate", "lam"], "wants name=expr"),
    ):
        code, out, err = run(argv + ["--degree", "2"])
        assert (code, out) == (1, ""), argv
        assert err.startswith("input error: ") and message in err, (argv, err)
        assert err.count("\n") == 1 and "Traceback" not in err, argv


def test_an_undefined_instantiation_names_the_entry_and_the_point(tmp_path):
    # ex2's q_12 is q^-1; with lam^-1 for lam, its kappa coefficient is
    # undefined at lam = 0 too.  The spec is PBW for every nonzero lam
    path = tmp_path / "ex2-inverse.qdo"
    path.write_text(fixture_path("ex2").read_text().replace("(1) lam", "(1) lam^-1"))
    kappa = "the v3*g(1) coefficient of kappa(v1, v2) = lam^-1"
    for argv, message in (
        (["uea", "ex2", "--instantiate", "q=0"], "q_12 = q^-1 is not defined at q = 0"),
        (["uea", str(path), "--instantiate", "lam=0"], f"{kappa} is not defined at lam = 0"),
    ):
        code, out, err = run(argv + ["--degree", "2"])
        assert (code, out, err) == (1, "", f"input error: {message}\n"), argv
    code, out, _ = run(["uea", str(path), "--instantiate", "lam=2", "--degree", "2"])
    assert code == 0 and "quotient slice 20" in out


def test_a_malformed_degree_is_an_input_error():
    # a message past cli.MAX_MESSAGE characters is cut to its head and length
    long = "--degree wants an integer, got '" + "9" * 5000 + "'"
    for value, message in (
        ("x", "--degree wants an integer, got 'x'"),
        ("2.5", "--degree wants an integer, got '2.5'"),
        ("9" * 5000, long[: cli.MAX_MESSAGE] + "... (5033 characters)"),
    ):
        code, out, err = run(["uea", "ex1", "--degree", value])
        assert (code, out) == (1, ""), value[:10]
        assert err == f"input error: {message}\n", value[:10]
    # what int() reads is still a degree
    for value in (" 2 ", "0_2", "+2"):
        code, out, err = run(["uea", "ex1", "--degree", value, "--json"])
        assert (code, err) == (0, "") and json.loads(out)["degree"] == 2, value


def test_a_repeated_instantiation_is_refused():
    code, out, err = run(
        ["uea", "ex2", "--instantiate", "lam=1", "--instantiate", "lam=2", "--degree", "2"]
    )
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "'lam'" in err
    assert "Traceback" not in err


def test_uea_reads_the_dimension_oracle_on_the_fixtures():
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
        spec = load_fixture(name)
        for d in range(7):
            code, out, err = run(["uea", name, "--degree", str(d), "--json"])
            assert code == 0 and err == "", (name, d)
            data = json.loads(out)
            counts = (data["pbw_count"], data["quotient_dim"])
            assert counts == uea.dimension_oracle(spec, d), (name, d)


def _gated(spec):
    try:
        colorlie.require_hypotheses(spec)
    except HypothesisNotMet:
        return False
    return True


def test_uea_reads_the_dimension_oracle_at_instantiated_points(tmp_path):
    # every point instantiate_spec accepts keeps a gated spec confluent
    # (require_hypotheses' proofs), lam = 0 included; q = 0 on a q_12
    # that carries q is refused
    specs = [
        spec
        for spec in parametric_corpus(288, 1)
        if spec.n * len(spec.group) <= 12 and _gated(spec)
    ]
    assert len(specs) == 88
    rng = random.Random(25)
    agreed = refused = 0
    for spec in specs:
        path = tmp_path / f"{spec.name}.qdo"
        path.write_text(format_spec(spec))
        m = spec.ctx.conductor
        for _ in range(3):
            draw = {
                name: rng.choice(["0", "2", "-3", "5", f"zeta({m})^{rng.randrange(m)}"])
                for name in spec.ctx.params
            }
            argv = ["uea", str(path), "--degree", "3", "--json"]
            for name, value in draw.items():
                argv += ["--instantiate", f"{name}={value}"]
            code, out, err = run(argv)
            if draw["q"] == "0" and not spec.q_scalar(0, 1).is_constant():
                assert (code, out, err) == (1, "", "input error: q_12 = 0 is not a unit\n"), argv
                refused += 1
                continue
            assert code == 0 and err == "", (argv, err)
            data = json.loads(out)
            values = {name: parse_scalar(value, spec.ctx) for name, value in draw.items()}
            counts = (data["pbw_count"], data["quotient_dim"])
            assert counts == uea.dimension_oracle(spec, 3, values), argv
            agreed += 1
    assert (agreed, refused) == (221, 43)


def test_hopf_exit_codes():
    code, _, _ = run(["hopf", "ex2"])
    assert code == 0
    with pytest.warns(UserWarning, match="ex1"):
        code, _, _ = run(["hopf", "ex1", "--degree", "2"])
    assert code == 2


def test_ex1_is_decided_at_any_degree_within_a_second():
    # the flank sweep grew 5-6x per degree: hopf ex1 --degree 6 took 4.0 s
    for command in ("hopf", "all"):
        started = time.monotonic()
        with pytest.warns(UserWarning, match="of ex1;"):
            code, out, _ = run([command, "ex1", "--degree", "12", "--json"])
        assert time.monotonic() - started < 1, command
        assert code == 2, command
        assert json.loads(out)["degree"] == 12


def test_the_hopf_check_on_ex1_takes_no_coproduct(monkeypatch):
    calls = []
    for name in ("coproduct", "braided_product"):
        original = getattr(hopf, name)
        monkeypatch.setattr(
            hopf, name, lambda *args, _n=name, _o=original: calls.append(_n) or _o(*args)
        )
    spec = load_fixture("ex1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = [hopf.check_hopf_axioms(spec, d) for d in range(1, 7)]
    assert calls == []
    assert all(not r.delta_well_defined and len(r.certificates) == 2 for r in reports)


def test_degree_guards():
    code, _, err = run(["hopf", "ex2", "--degree", "-5"])
    assert code == 1
    assert "nonnegative" in err
    # no command's work grows with the degree, so none prints a note on a
    # high one; a generic ring is refused as input
    for command in ("uea", "hopf"):
        code, _, err = run([command, "gl11", "--degree", "7"])
        assert code == 1
        assert "soft limit" not in err and "input error" in err


def test_negative_degree_is_an_input_error():
    code, _, err = run(["all", "ex2", "--degree", "-1"])
    assert code == 1
    assert err == "input error: the degree bound must be nonnegative\n"


def test_degree_zero_is_refused_before_the_hopf_sweep_runs():
    # all used to run check, lie and uea before the Hopf stage refused it
    for command in ("all", "hopf"):
        code, out, err = run([command, "ex1", "--degree", "0"])
        assert code == 1
        assert out == ""
        assert err == "input error: the degree bound must be at least 1\n"


def test_degree_zero_still_counts_dimensions():
    code, out, _ = run(["uea", "ex2", "--degree", "0", "--json"])
    assert code == 0
    assert json.loads(out)["degree"] == 0


def test_uea_at_a_high_degree_answers_within_a_second():
    # the dimension count of ex4 took 2.5 s at degree 6 before uea read it
    # from the theorems
    started = time.monotonic()
    code, out, err = run(["uea", "ex4", "--degree", "12"])
    assert time.monotonic() - started < 1
    assert code == 0 and err == ""
    assert "closed-form count 7280, quotient slice 7280" in out


def test_an_oversized_degree_is_an_input_error(tmp_path):
    # C(5 + 10^999, 5) has about 5,000 digits, past the interpreter's
    # default limit of 4,300 for printing an integer
    path = tmp_path / "commuting.qdo"
    path.write_text("[group]\norders = [1]\n[action]\ncharacters = [[0], [0], [0], [0], [0]]\n")
    started = time.monotonic()
    code, out, err = run(["uea", str(path), "--degree", "1" + "0" * 999])
    assert time.monotonic() - started < 1
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err
    # about 4,000 digits still print
    code, out, err = run(["uea", str(path), "--degree", "1" + "0" * 800, "--json"])
    assert code == 0 and err == ""
    assert json.loads(out)["pbw_count"] == math.comb(5 + 10**800, 5)


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
    # a planted condition 3 failure on the PBW fixture ex2
    monkeypatch.setattr(pbw, "_condition3_failures", lambda spec: [(0, 1, 2, {})])
    code, out, err = run(["check", "ex2"])
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")
    assert "Traceback" not in err


def test_oracle_disagreement_exits_with_3(monkeypatch):
    monkeypatch.setattr(pbw, "overlap_oracle", lambda spec: False)
    code, out, err = run(["check", "ex2"])
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:") and "overlap oracle (False)" in err
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


def test_deep_nesting_is_an_input_error(tmp_path):
    # the grammar refuses nesting past its bound, and json's own recursion
    # on a deep row is read as a malformed row, not left to the stack
    text = format_spec(load_fixture("ex2"))
    parens = "(" * 10000 + "q" + ")" * 10000
    minus = "-" * 10000 + "q"
    deep_row = "[" * 100000 + "]" * 100000
    cases = []
    for name, old, new in (
        ("parens", "2 3 = -q\n", f"2 3 = {parens}\n"),
        ("minus", "2 3 = -q\n", f"2 3 = {minus}\n"),
        ("characters", "characters = [[1], [1], [0]]\n", f"characters = {deep_row}\n"),
    ):
        path = tmp_path / f"{name}.qdo"
        path.write_text(text.replace(old, new))
        cases.append((["check", str(path)], "must be a JSON list" if name == "characters" else "bound 100"))
    for expr in (parens.replace("q", "v1"), minus.replace("q", "v1")):
        cases.append((["normal-form", "ex2", "--", expr], "bound 100"))
    for argv, message in cases:
        started = time.monotonic()
        code, out, err = run(argv)
        assert time.monotonic() - started < 1, argv[:2]
        assert code == 1 and not out, argv[:2]
        assert err.startswith("input error:") and message in err, argv[:2]
        assert "Traceback" not in err


def test_a_refusal_echoes_at_most_the_message_bound(tmp_path):
    # each refusal quotes its whole input; stderr shows the message's first
    # cli.MAX_MESSAGE characters and its length
    text = format_spec(load_fixture("ex2"))
    deep_row = "[" * 100000 + "]" * 100000
    parens = "(" * 10000 + "q" + ")" * 10000
    expr = "q+" * 2999 + "zz"
    assert len(expr) == 6000
    for name, old, new, message in (
        ("characters", "characters = [[1], [1], [0]]\n", f"characters = {deep_row}\n", "JSON list"),
        ("parens", "2 3 = -q\n", f"2 3 = {parens}\n", "bound 100"),
        ("unknown", "2 3 = -q\n", f"2 3 = {expr}\n", "unknown identifier"),
    ):
        path = tmp_path / f"{name}.qdo"
        path.write_text(text.replace(old, new))
        started = time.monotonic()
        code, out, err = run(["check", str(path)])
        assert time.monotonic() - started < 1, name
        assert (code, out) == (1, ""), name
        assert err.startswith("input error: line ") and message in err, name
        line, rest = err.split("\n", 1)
        head, cut, suffix = line.rpartition("... (")
        assert rest == "" and cut and suffix.endswith(" characters)"), name
        assert len(head) == len("input error: ") + cli.MAX_MESSAGE, name
        assert int(suffix.split()[0]) > cli.MAX_MESSAGE, name


def test_structural_refusals_are_input_errors(tmp_path):
    ex2 = fixture_path("ex2").read_text()
    gl11 = fixture_path("gl11").read_text()
    epsilon = (
        "[field]\nconductor = 2\n[generic-lie]\nfree_rank = 0\norders = [2, 2]\n"
        "basis = A, B\ndegrees = [[1, 0], [0, 1]]\nepsilon 1 2 = -1\nepsilon 2 1 = 1\n"
    )
    for name, text, command, message in (
        ("q", ex2.replace("1 2 = q^-1\n", "1 2 = q^-1\n2 1 = q^2\n"), "check", "q_12 and q_21 are not inverse"),
        (
            "kappa",
            ex2 + "2 1 -> 3 (1) lam\n",
            "check",
            "kappa(1,2) given twice with values that violate quantum antisymmetry",
        ),
        ("epsilon", epsilon, "lie", "epsilon(1,2) and epsilon(2,1) are not inverse to each other"),
        ("bracket", gl11 + "bracket E12 E11 = E12\n", "lie", "brackets for (E12, E11) violate antisymmetry"),
    ):
        path = tmp_path / f"{name}.qdo"
        path.write_text(text)
        code, out, err = run([command, str(path)])
        assert (code, out, err) == (1, "", f"input error: {message}\n"), name
    code, out, err = run(["uea", "ex2", "--instantiate", "lam=q"])
    message = "instantiation for 'lam' is q, which still has free parameters"
    assert (code, out, err) == (1, "", f"input error: {message}\n")


def test_check_on_a_large_group_answers_quickly(tmp_path):
    # 576 group elements: no check may sweep all pairs of them
    path = tmp_path / "z24.qdo"
    path.write_text(
        "[group]\norders = [24, 24]\n[action]\ncharacters = [[1, 0], [0, 1]]\n"
        "[q]\n1 2 = zeta(24)\n"
    )
    started = time.monotonic()
    code, out, err = run(["check", str(path)])
    assert time.monotonic() - started < 5
    assert code == 0 and "verdict: PBW" in out, err


# ROADMAP item 21's probe: not PBW generically, though kappa vanishes at lam = 1
NOT_PBW_AT_LAM = """[field]
conductor = 6
params = lam

[group]
orders = [3]

[action]
characters = [[1], [2], [2]]

[q]
1 2 = -zeta(6)
1 3 = 1 - zeta(6)
2 3 = -1

[kappa]
2 3 -> 1 (2) (lam - 1)*(-1 + zeta(6))
"""


def test_all_decides_nothing_past_a_failed_check(tmp_path):
    path = tmp_path / "item21.qdo"
    path.write_text(NOT_PBW_AT_LAM)
    code, out, _ = run(["all", str(path), "--json"])
    assert code == 2
    data = json.loads(out)
    assert data["verdicts"] == {
        "check": False,
        "strong_vanishing": False,
        "lie": None,
        "uea": None,
        "hopf": None,
        "hopf_exploratory": None,
    }
    assert {key: data["certificates"][key] for key in ("lie", "uea", "hopf")} == {
        "lie": [],
        "uea": [],
        "hopf": [],
    }
    assert data["passed"] is False and data["exit_code"] == 2
    code, _, err = run(["uea", str(path)])
    assert code == 2 and "hypothesis not met: item21 fails the PBW verdict" in err


def test_all_prints_the_certificates_of_a_failed_check(tmp_path):
    path = tmp_path / "item21.qdo"
    path.write_text(NOT_PBW_AT_LAM)
    _, out, _ = run(["check", str(path)])
    printed = [line for line in out.splitlines() if line.startswith("  ")]
    _, out, _ = run(["check", str(path), "--json"])
    assert printed == ["  " + json.dumps(cert) for cert in json.loads(out)["cond2_violations"]]
    assert len(printed) == 2
    code, out, _ = run(["all", str(path)])
    assert code == 2
    assert [line for line in out.splitlines() if line.startswith("  ")] == printed


# PBW (condition 2's mixed entry cancels between its two kappa terms) but
# chi_3(g) != q_23 on the v1 g term of kappa(v1, v2): weak vanishing fails
PBW_WITHOUT_WEAK_VANISHING = """[field]
conductor = 12

[group]
orders = [2]

[action]
characters = [[0], [0], [1]]

[q]
1 2 = zeta(12)^2
1 3 = zeta(12) - zeta(12)^3
2 3 = 1 - zeta(12)^2

[kappa]
1 2 -> 1 (1) 1
2 3 -> 3 (1) -1 - zeta(12)^2
"""


def test_all_decides_nothing_without_weak_vanishing(tmp_path):
    path = tmp_path / "mixed.qdo"
    path.write_text(PBW_WITHOUT_WEAK_VANISHING)
    code, out, _ = run(["all", str(path), "--json"])
    data = json.loads(out)
    assert code == 2 and data["passed"] is False
    assert data["verdicts"]["check"] is True
    assert [data["verdicts"][key] for key in ("lie", "uea", "hopf")] == [None] * 3


def test_gated_commands_refuse_exactly_where_all_decides_nothing(tmp_path):
    # one gate for the five commands: the hypotheses of the paper's theorems
    texts = [(spec.name, format_spec(spec)) for spec in corpus(60)]
    texts += [("item21", NOT_PBW_AT_LAM), ("mixed", PBW_WITHOUT_WEAK_VANISHING)]
    outside = []
    for index, (name, text) in enumerate(texts):
        path = tmp_path / f"{index}.qdo"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            verdicts = run_all(str(path), 2)["verdicts"]
            refused = verdicts["lie"] is None
            commands = {
                ("lie", str(path)): 0,
                ("uea", str(path), "--degree", "2"): 0,
                # the Hopf laws may fail inside the hypotheses, as on ex1
                ("hopf", str(path), "--degree", "2"): 0 if verdicts["hopf"] else 2,
                ("converse", str(path)): 0,
            }
            for argv, expected in commands.items():
                code, _, err = run(list(argv))
                if refused:
                    assert code == 2 and err.startswith("hypothesis not met:"), (name, argv)
                else:
                    assert code == expected and not err, (name, argv, err)
        if refused:
            outside.append(name)
    # 19 of the 60 corpus specs fail the PBW verdict or weak vanishing
    assert outside[-2:] == ["item21", "mixed"] and len(outside) == 21


def test_all_on_a_large_non_invariant_spec_answers_quickly(tmp_path):
    # ROADMAP item 17's probe on Z/6 x Z/6: not PBW, as kappa is not
    # invariant, so nothing may sweep the (n|G|)^3 triples of its ring
    path = tmp_path / "z6.qdo"
    path.write_text(
        "[field]\nconductor = 12\nparams = lam\n[group]\norders = [6, 6]\n"
        "[action]\ncharacters = [[0, 1], [1, 0], [1, 1]]\n"
        "[q]\n1 2 = 1\n1 3 = 1\n2 3 = 1\n"
        "[kappa]\n1 2 -> 3 (1,0) lam; 1 (0,1) 1\n1 3 -> 2 (0,1) 1\n"
    )
    started = time.monotonic()
    code, out, err = run(["all", str(path), "--degree", "1", "--json"])
    assert time.monotonic() - started < 5
    assert code == 2 and len(out.encode()) < 10_000, err
    assert json.loads(out)["verdicts"]["lie"] is None


def _two_generator_spec(order):
    return (
        f"[group]\norders = [{order}, {order}]\n[action]\ncharacters = [[1, 0], [0, 1]]\n"
        f"[q]\n1 2 = zeta({order})\n"
    )


def test_lie_on_a_large_group_answers_quickly(tmp_path):
    # 288 basis elements and no bracket: no sweep may visit all triples
    path = tmp_path / "z12.qdo"
    path.write_text(_two_generator_spec(12))
    started = time.monotonic()
    code, out, err = run(["lie", str(path)])
    assert time.monotonic() - started < 5
    assert code == 0 and "jacobi: pass" in out, err


def test_uea_on_a_large_group_answers_quickly(tmp_path):
    # 82,944 basis pairs: the paper's theorems decide the comparison map
    path = tmp_path / "z12.qdo"
    path.write_text(_two_generator_spec(12))
    started = time.monotonic()
    code, out, err = run(["uea", str(path), "--degree", "2"])
    assert time.monotonic() - started < 5
    assert code == 0 and "enveloping algebra comparison: pass" in out, err


def test_uea_at_the_default_degree_on_a_large_group_answers_quickly(tmp_path):
    # degree 3 over 144 group elements: the count is a closed form in n, |G| and d
    path = tmp_path / "z12.qdo"
    path.write_text(_two_generator_spec(12))
    started = time.monotonic()
    code, out, err = run(["uea", str(path)])
    assert time.monotonic() - started < 5
    assert code == 0 and "enveloping algebra comparison: pass" in out, err


def test_hopf_on_a_large_group_answers_quickly(tmp_path):
    # strong and confluent: the finite checks decide, whatever the degree
    path = tmp_path / "z12.qdo"
    path.write_text(_two_generator_spec(12))
    started = time.monotonic()
    code, out, err = run(["hopf", str(path), "--degree", "5"])
    assert time.monotonic() - started < 5
    assert code == 0 and "antipode_law: True" in out, err


def _wide_spec(rank):
    identity = ",".join("0" * rank)
    return (
        f"[group]\norders = [{', '.join('2' * rank)}]\n"
        f"[action]\ncharacters = [[{identity}], [{identity}]]\n"
        f"[kappa]\n1 2 -> 1 ({identity}) 1\n"
    )


def test_every_command_on_a_wide_group_answers_quickly(tmp_path):
    # 1,024 group letters under a bracket: no command may build the own
    # ring, whose table has (n|G|)^2 entries
    path = tmp_path / "wide.qdo"
    path.write_text(_wide_spec(10))
    outputs = {}
    for argv in (
        ["check"],
        ["lie"],
        ["lie", "--quotient"],
        ["uea", "--degree", "2"],
        ["hopf", "--degree", "2"],
        ["converse"],
        ["all", "--degree", "2"],
        ["fmt"],
    ):
        started = time.monotonic()
        code, outputs[argv[0]], err = run([argv[0], str(path), *argv[1:]])
        assert time.monotonic() - started < 1, argv
        assert code == 0, (argv, err)
    assert outputs["converse"] == outputs["fmt"] + "round trip: True\n"


def test_uea_on_a_wider_group_answers_within_a_second(tmp_path):
    # 65,536 group letters: the dimension count eliminated once per character
    path = tmp_path / "wide.qdo"
    path.write_text(_wide_spec(16))
    started = time.monotonic()
    code, out, err = run(["uea", str(path), "--degree", "2"])
    assert time.monotonic() - started < 1
    assert code == 0 and err == ""
    assert "closed-form count 393216, quotient slice 393216" in out


def test_axiom_sweep_work_follows_the_bracket_table(monkeypatch):
    ring = colorlie.build_color_lie_ring(parse_spec_text(_two_generator_spec(6)))
    assert ring.size == 72 and not ring.table
    calls = []
    multiply = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: calls.append(1) or multiply(a, b))
    assert colorlie.check_color_axioms(ring).passed
    assert len(calls) <= 1000


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
