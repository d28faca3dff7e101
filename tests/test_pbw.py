import ast
import re
from importlib import resources

import pytest

from qdrinfeld.algebra import AlgebraSpec
from qdrinfeld.pbw import (
    check_condition2,
    check_condition3,
    check_invariance,
    check_jacobi_sum,
    check_pbw,
    check_vanishing,
    overlap_oracle,
)
from qdrinfeld.scalar import Scalar, parse_scalar
from qdrinfeld.specfile import load_fixture

from randspec import corpus

FIXTURE_SPECS = [load_fixture(name) for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa")]


def perturbed_action(spec):
    """Copy of a spec with the last generator's character swapped for the
    first one's, which breaks invariance whenever kappa hits it."""
    chars = list(spec.chars)
    chars[-1] = chars[0]
    q = {(i, j): spec.q_scalar(i, j) for i in range(spec.n) for j in range(i + 1, spec.n)}
    kappa = {pair: spec.kappa_pairs(*pair) for pair in spec.kappa_support()}
    return AlgebraSpec(spec.ctx, spec.group, chars, q, kappa, name=spec.name + "-twisted")


def test_all_fixtures_have_the_basis_property():
    for spec in FIXTURE_SPECS:
        report = check_pbw(spec)
        assert report.cond1 and report.cond2 and report.cond3
        assert report.verdict
        assert report.oracle_confluent


def test_vanishing_on_fixtures():
    for spec in FIXTURE_SPECS:
        ok, certs = check_vanishing(spec)
        assert ok and certs == ()


def test_strong_vanishing_splits_the_fixtures():
    assert check_vanishing(load_fixture("ex2"), strong=True)[0]
    assert check_vanishing(load_fixture("ex3"), strong=True)[0]
    ok, certs = check_vanishing(load_fixture("ex1"), strong=True)
    assert not ok
    assert {(c["i"], c["j"], c["k"]) for c in certs} == {(1, 2, 1), (1, 2, 2)}
    # ex4 (n=4, G=(Z/2)^2): g(1,0) negates only v1, q is -1 on the pairs
    # (1,3) and (2,4) and 1 elsewhere.  For the term v1 g(1,0) of
    # kappa(v1,v3), chi_k(g) against q_1k q_3k q_k1 reads
    #   k=1: -1 = 1*(-1)*1    k=2: 1 = 1*1*1
    #   k=3:  1 = (-1)*1*(-1) k=4: 1 = 1*1*1
    # and kappa(v2,v4) gives the same table with 2, 4 for 1, 3.  Every
    # channel holds, the in-pair ones included, so the strong form holds.
    assert check_vanishing(load_fixture("ex4"), strong=True)[0]


def _sections(text):
    """Split a spec text into {section: [line, ...]}, comments dropped."""
    sections, current = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif line:
            current.append(line)
    return sections


def _independent_strong_channels(text):
    """Violated strong-identity channels (i, j, k), 1-based, of a spec text.

    Reads the [field], [group], [action], [q] and [kappa] rows itself and
    decides chi_k(g) = q_ik q_jk q_kr for every kappa term v_r g of every
    pair (i, j) and every k in sympy: zeta(d) becomes z^(m/d) with z a
    root of the m-th cyclotomic polynomial, params become symbols, and two
    Laurent expressions are equal when the numerator of their difference
    is divisible by Phi_m(z).
    """
    import sympy

    rows = _sections(text)
    field = dict(map(str.strip, line.split("=", 1)) for line in rows["field"])
    m = int(field["conductor"])
    names = [p.strip() for p in field.get("params", "").split(",") if p.strip()]
    z = sympy.Symbol("z")
    symbols = {name: sympy.Symbol(name) for name in names}
    symbols["z"] = z
    phi = sympy.Poly(sympy.cyclotomic_poly(m, z), z)

    def scalar(src):
        src = re.sub(r"zeta\((\d+)\)", lambda hit: f"(z**{m // int(hit.group(1))})", src)
        return sympy.sympify(src.replace("^", "**"), locals=symbols)

    def equal(a, b):
        numerator, _ = sympy.fraction(sympy.together(a - b))
        return sympy.Poly(sympy.expand(numerator), z).rem(phi).is_zero

    (orders_row,) = rows["group"]
    orders = ast.literal_eval(orders_row.split("=", 1)[1].strip())
    (chars_row,) = rows["action"]
    chars = ast.literal_eval(chars_row.split("=", 1)[1].strip())
    n = len(chars)

    q = {(k, k): sympy.Integer(1) for k in range(1, n + 1)}
    for line in rows["q"]:
        pair, value = line.split("=", 1)
        i, j = map(int, pair.split())
        q[(i, j)] = scalar(value)
        q[(j, i)] = 1 / q[(i, j)]

    def chi(k, g):
        exponent = sum((m // o) * e * a for o, e, a in zip(orders, chars[k - 1], g))
        return z ** (exponent % m)

    violated = set()
    for line in rows["kappa"]:
        pair, terms = line.split("->", 1)
        i, j = map(int, pair.split())
        for term in terms.split(";"):
            hit = re.match(r"\s*(\d+)\s*\(([^)]*)\)", term)
            r, g = int(hit.group(1)), tuple(int(a) for a in hit.group(2).split(","))
            for k in range(1, n + 1):
                if not equal(chi(k, g), q[(i, k)] * q[(j, k)] * q[(k, r)]):
                    violated.add((i, j, k))
    return violated


def test_strong_column_matches_an_independent_sympy_recomputation():
    pytest.importorskip("sympy")
    names = ("ex1", "ex2", "ex3", "ex4")
    fixtures = resources.files("qdrinfeld") / "fixtures"
    channels = {
        name: _independent_strong_channels((fixtures / f"{name}.qdo").read_text())
        for name in names
    }
    column = {name: not channels[name] for name in names}
    assert column == {"ex1": False, "ex2": True, "ex3": True, "ex4": True}
    assert channels["ex1"] == {(1, 2, 1), (1, 2, 2)}
    assert column == {
        name: check_vanishing(load_fixture(name), strong=True)[0] for name in names
    }


def test_broken_action_fails_invariance_with_certificate():
    broken = perturbed_action(load_fixture("ex2"))
    ok, certs = check_invariance(broken)
    assert not ok
    assert certs[0]["i"] == 1 and certs[0]["j"] == 2 and certs[0]["r"] == 3
    report = check_pbw(broken)
    assert not report.verdict
    assert not report.oracle_confluent


def test_corpus_exposes_scalar_condition_failures():
    seen_cond2_failure = False
    for spec in corpus(60):
        inv_ok, _ = check_invariance(spec)
        cond2_ok, certs = check_condition2(spec)
        if inv_ok and not cond2_ok:
            seen_cond2_failure = True
            assert certs
            assert not check_pbw(spec).verdict
            break
    assert seen_cond2_failure


def test_corpus_exposes_mixed_condition_failures():
    seen = False
    for spec in corpus(120):
        report = check_pbw(spec)
        if report.cond1 and report.cond2 and not report.cond3:
            seen = True
            assert report.cond3_violations
            assert not report.verdict
    assert seen


def test_verdict_matches_rewriting_oracle_on_corpus():
    for spec in corpus(120):
        report = check_pbw(spec)
        assert report.verdict == report.oracle_confluent, spec.name


def test_alternative_forms_agree_on_corpus():
    for spec in corpus(100):
        report = check_pbw(spec)
        assert report.remark_cond2 == report.cond2, spec.name
        if report.cond2:
            assert report.remark_cond3 == report.cond3, spec.name


def test_fixed_point_free_collapses_cond2_to_vanishing():
    seen = 0
    for spec in corpus(150):
        report = check_pbw(spec)
        if not report.fixed_point_free or not spec.kappa_support():
            continue
        seen += 1
        assert report.cond2 == report.vanishing, spec.name
    assert seen >= 5


def test_replacement_conditions_imply_the_verdict():
    for spec in corpus(120):
        inv_ok, _ = check_invariance(spec)
        van_ok, _ = check_vanishing(spec)
        jac_ok, _ = check_jacobi_sum(spec)
        if inv_ok and van_ok and jac_ok:
            assert check_pbw(spec).verdict, spec.name


def test_jacobi_sum_on_fixtures():
    for spec in FIXTURE_SPECS:
        ok, certs = check_jacobi_sum(spec)
        assert ok and certs == ()


def test_oracle_alone_accepts_fixtures():
    for spec in FIXTURE_SPECS:
        assert overlap_oracle(spec)


def test_condition3_holds_without_kappa():
    plane = load_fixture("zero-kappa")
    ok, _ = check_condition3(plane)
    assert ok


def test_report_dict_is_insertion_stable():
    report = check_pbw(load_fixture("ex2")).as_dict()
    assert list(report)[:3] == ["cond1", "cond2", "cond3"]
    assert report["verdict"] is True
