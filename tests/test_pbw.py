import ast
import functools
import itertools
import random
import re
from importlib import resources

import pytest

from qdrinfeld.algebra import AlgebraSpec, NCElement, kappa_element, normal_form
from qdrinfeld.cyclotomic import CyclotomicNumber
from qdrinfeld.pbw import (
    _cyclic_sums,
    check_condition2,
    check_condition3,
    check_invariance,
    check_pbw,
    check_vanishing,
    decided_vanishing,
    overlap_oracle,
)
from qdrinfeld.scalar import Scalar, parse_scalar
from qdrinfeld.specfile import fixture_path, format_spec, load_fixture, parse_spec_text
from qdrinfeld.uea import dimension_oracle, instantiate_spec

from randspec import corpus, multi_letter_corpus, parametric_corpus

FIXTURE_SPECS = [load_fixture(name) for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa")]


# Three more forms of the degree obstructions, kept as references for
# the closed-form conditions: the remarks' forms of conditions 2 and 3
# and the Jacobi sum of the correction map.


def _remark2_holds(spec) -> bool:
    """Alternative degree-two form, computed in the q-symmetric algebra.

    The cyclic sum is reduced in the spec itself.  Every kappa term has
    length one, so the length-two part of its normal form is exactly the
    normal form in the q-symmetric algebra.  The length-two words carry
    their source letter h, so they never meet across letters.
    """

    def term(a, b, c, r, h, coeff):
        twist = spec.q_scalar(c, a) * spec.char_value(c, h)
        forward = NCElement.monomial(spec, (c, r), coeff=spec.q_scalar(b, c) * coeff)
        return forward - NCElement.monomial(spec, (r, c), coeff=twist * coeff)

    sums = (total for *_, total in _cyclic_sums(spec, term) if not total.is_zero())
    return all(len(word) != 2 for total in sums for word, _ in normal_form(total).terms)


def _remark3_holds(spec) -> bool:
    """Alternative degree-one form: corrections composed on either side."""

    def term(a, b, c, r, h, coeff):
        twist = spec.q_scalar(c, a) * spec.char_value(c, h)
        composed = kappa_element(spec, c, r).scale(spec.q_scalar(b, c) * coeff)
        return kappa_element(spec, r, c).scale(twist * coeff) - composed

    return all(total.is_zero() for *_, total in _cyclic_sums(spec, term))


def _jacobi_sum(spec):
    """Cyclic q-weighted self-composition of the correction map, with
    check_condition3's certificates: every term v_r h of kappa(v_a, v_b)
    composes with v_c at the weight q_bc, which becomes the Jacobi
    identity of the associated bracket."""

    def term(a, b, c, r, h, coeff):
        return kappa_element(spec, c, r).scale(spec.q_scalar(b, c) * coeff)

    violations = tuple(
        {"i": i + 1, "j": j + 1, "k": k + 1, "residue": str(total)}
        for i, j, k, total in _cyclic_sums(spec, term)
        if not total.is_zero()
    )
    return not violations, violations


@functools.lru_cache(maxsize=1)
def _reference_rows():
    """(spec, report, remark 2, remark 3) on the fixtures and four corpora."""
    specs = (
        FIXTURE_SPECS
        + corpus(200)
        + multi_letter_corpus(288, 1)
        + MULTI_LETTER_SPECS
        + parametric_corpus(288, 1)
    )
    return [(spec, check_pbw(spec), _remark2_holds(spec), _remark3_holds(spec)) for spec in specs]


def perturbed_action(spec):
    """Copy of a spec with the last generator's character swapped for the
    first one's, which breaks invariance whenever kappa hits it."""
    chars = list(spec.chars)
    chars[-1] = chars[0]
    q = {(i, j): spec.q_scalar(i, j) for i in range(spec.n) for j in range(i + 1, spec.n)}
    kappa = {pair: spec.kappa_pairs(*pair) for pair in spec.kappa_support()}
    return AlgebraSpec(spec.ctx, spec.group, chars, q, kappa, name=spec.name + "-twisted")


def split_terms(spec):
    """Copy of a spec with each kappa coefficient c given as the two terms
    2c and -c, and a pair of terms x and -x added on a (target, letter) the
    pair does not use, on every pair of the support and on (1, 2)."""
    two, x = Scalar.rational(spec.ctx, 2), Scalar.rational(spec.ctx, 3)
    kappa = {}
    for pair in sorted(set(spec.kappa_support()) | {(0, 1)}):
        terms = spec.kappa_pairs(*pair)
        used = {(r, g) for r, g, _ in terms}
        spare = next((r, g) for r in range(spec.n) for g in spec.group if (r, g) not in used)
        split = [(r, g, c) for r, g, coeff in terms for c in (two * coeff, -coeff)]
        kappa[pair] = (*split, (*spare, x), (*spare, -x))
    return AlgebraSpec(spec.ctx, spec.group, spec.chars, spec.q_table(), kappa, name=spec.name)


def test_kappa_terms_on_the_same_target_and_letter_are_summed():
    for spec in FIXTURE_SPECS + corpus(60) + multi_letter_corpus(72, 1):
        split = split_terms(spec)
        assert len(split.kappa_pairs(0, 1)) == len(spec.kappa_pairs(0, 1))
        assert format_spec(split) == format_spec(spec), spec.name
        assert check_pbw(split).as_dict() == check_pbw(spec).as_dict(), spec.name


def test_the_parametric_corpus_agrees_with_the_overlap_oracle():
    # check_pbw raises when its verdict and the overlap oracle disagree
    verdicts = [check_pbw(spec).verdict for spec in parametric_corpus(288, 1)]
    assert 50 < sum(verdicts) < 238


def test_a_generic_verdict_survives_specialisation():
    # conditions 1-3 are identities in the Laurent ring over Q(zeta_m) in
    # lam and q, so a generic PBW verdict holds at every point where the
    # parameters are units, and a generic failure is a nonzero Laurent
    # polynomial, which two random points both kill with probability at
    # most (degree / 10^4)^2 (Schwartz-Zippel)
    rng = random.Random(2026)
    for spec in parametric_corpus(288, 1):
        points = [
            {name: Scalar.rational(spec.ctx, rng.randint(2, 10**4)) for name in spec.ctx.params}
            for _ in range(2)
        ]
        special = [check_pbw(instantiate_spec(spec, point)).verdict for point in points]
        if check_pbw(spec).verdict:
            assert all(special), spec.name
        else:
            assert not all(special), spec.name


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


# Split by source letter, condition 3 leaves -v2 g(1,1) under g(1,0) and
# v2 g(1,0) under g(1,1).  Both land on v2 g(0,1) with opposite signs, and
# they cancel.
MULTI_LETTER = """
[field]
conductor = 6
[group]
orders = [2, 2]
[action]
characters = [[0, 0], [0, 1], [0, 0]]
[q]
1 2 = 1
1 3 = 1
2 3 = -1 + zeta(6)
[kappa]
1 2 -> 2 (1,0) 1 - zeta(6)
2 3 -> 2 (1,0) 1 - zeta(6) ; 2 (1,1) zeta(6)
"""


def test_cyclic_sums_cancel_across_source_letters():
    spec = parse_spec_text(MULTI_LETTER)
    report = check_pbw(spec)
    assert report.cond1 and report.cond2 and report.cond3
    assert report.verdict and report.oracle_confluent
    assert _remark2_holds(spec) and _remark3_holds(spec)
    assert dimension_oracle(spec, 3) == (80, 80)


# the check-corpus specs of seed 3; one of them is PBW only through a
# cancellation across source letters, like MULTI_LETTER
MULTI_LETTER_SPECS = multi_letter_corpus(288, 3)


def test_verdict_matches_rewriting_oracle_on_multi_letter_corpus():
    verdicts = set()
    for spec in MULTI_LETTER_SPECS:
        report = check_pbw(spec)
        assert report.verdict == report.oracle_confluent, spec.name
        verdicts.add(report.verdict)
    assert verdicts == {True, False}
    assert max(spec.n for spec in MULTI_LETTER_SPECS) == 4
    assert any(
        len({g for pair in spec.kappa_support() for _, g, _ in spec.kappa_pairs(*pair)}) > 2
        for spec in MULTI_LETTER_SPECS
    )


def test_verdict_matches_the_dimension_count_on_small_multi_letter_specs():
    small = [spec for spec in MULTI_LETTER_SPECS if len(spec.group) <= 4 and spec.n <= 3]
    assert len(small) == 128
    for spec in small:
        pbw_count, quotient_dim = dimension_oracle(spec, 3)
        report = check_pbw(spec)
        assert report.verdict == report.oracle_confluent == (pbw_count == quotient_dim), spec.name


def test_the_remark_forms_reproduce_the_verdict():
    rows = _reference_rows()
    assert len(rows) == 1069
    for spec, report, remark2, remark3 in rows:
        assert (report.cond1 and remark2 and remark3) == report.verdict, spec.name


def test_alternative_forms_agree_on_corpus():
    for spec, report, remark2, remark3 in _reference_rows():
        assert remark2 == report.cond2, spec.name
        if report.cond2:
            assert remark3 == report.cond3, spec.name


def test_condition3_is_the_jacobi_sum_under_weak_vanishing():
    # converse_construct reads condition 3 as the Jacobi sum only after
    # weak vanishing holds, since without it the two can differ
    differ = 0
    for spec, report, *_ in _reference_rows():
        same = _jacobi_sum(spec) == (report.cond3, report.cond3_violations)
        if report.vanishing:
            assert same, spec.name
        differ += not same
    assert differ > 0


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
    for spec, report, *_ in _reference_rows():
        if report.cond1 and report.vanishing and _jacobi_sum(spec)[0]:
            assert report.verdict, spec.name


def test_jacobi_sum_on_fixtures():
    for spec in FIXTURE_SPECS:
        ok, certs = _jacobi_sum(spec)
        assert ok and certs == ()


def test_oracle_alone_accepts_fixtures():
    for spec in FIXTURE_SPECS:
        assert overlap_oracle(spec)


def _chains_resolve(spec) -> bool:
    n = spec.n
    for k in range(2, n):
        for j in range(1, k):
            for i in range(j):
                chain = NCElement.monomial(spec, (k, j, i))
                if normal_form(chain, "leftmost") != normal_form(chain, "rightmost"):
                    return False
    return True


def _whole_group_resolves(spec) -> bool:
    """The oracle's group part over every element of G, not only the generators."""
    for g in spec.group:
        unit = NCElement.group_unit(spec, g)
        for j in range(1, spec.n):
            for i in range(j):
                pair = NCElement.monomial(spec, (j, i))
                if normal_form(unit * pair) != normal_form(unit * normal_form(pair)):
                    return False
    return True


# kappa(v1, v2) = v1, and chi_1 chi_2 chi_1^-1 = chi_2 moves only the second generator
SECOND_GENERATOR_MOVES = """
[group]
orders = [2, 2]
[action]
characters = [[0, 0], [0, 1]]
[kappa]
1 2 -> 1 (0,0) 1
"""


def test_oracle_on_the_generators_of_g_matches_the_whole_group():
    moves = parse_spec_text(SECOND_GENERATOR_MOVES)
    assert not _whole_group_resolves(moves)
    specs = FIXTURE_SPECS + corpus(60) + [moves]
    chains = [_chains_resolve(spec) for spec in specs]
    group = [_whole_group_resolves(spec) for spec in specs]
    assert [overlap_oracle(spec) for spec in specs] == [c and g for c, g in zip(chains, group)]
    # the group part alone says False on 7 corpus specs and on moves, and
    # decides the oracle on 2 of those specs and on moves
    assert group.count(False) == 8
    assert sum(c and not g for c, g in zip(chains, group)) == 3


def test_condition3_holds_without_kappa():
    plane = load_fixture("zero-kappa")
    ok, _ = check_condition3(plane)
    assert ok


def test_report_dict_is_insertion_stable():
    report = check_pbw(load_fixture("ex2")).as_dict()
    assert list(report)[:3] == ["cond1", "cond2", "cond3"]
    assert report["verdict"] is True


def test_each_derived_q_transpose_is_inverted_once(monkeypatch):
    # six nontrivial entries above the diagonal give six transposes below it;
    # the parse completes the table in its one spec and check_pbw inverts nothing
    text = """
[field]
conductor = 6
[group]
orders = [3]
[action]
characters = [[1], [2], [0], [1]]
[q]
1 2 = zeta(6)
1 3 = -1
1 4 = zeta(3)
2 3 = -zeta(6)
2 4 = zeta(6)^2
3 4 = -zeta(3)
[kappa]
1 2 -> 3 (1) 1
"""
    calls = []
    inv = Scalar.inv

    def counting_inv(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(Scalar, "inv", counting_inv)
    check_pbw(parse_spec_text(text))
    assert len(calls) == 6


def test_one_spec_is_built_from_parse_to_verdict(monkeypatch):
    built = []
    init = AlgebraSpec.__init__
    monkeypatch.setattr(
        AlgebraSpec, "__init__", lambda self, *args, **kw: built.append(1) or init(self, *args, **kw)
    )
    spec = parse_spec_text(fixture_path("ex1").read_text())
    assert len(built) == 1
    check_pbw(spec)
    assert len(built) == 1


def _dense_condition2(spec):
    """check_condition2 as a sweep over every letter of the correction
    support and every ordered triple of distinct indices, the reference
    for the sweep over the live triples."""
    letters = {}
    for pair in spec.kappa_support():
        for _, g, _ in spec.kappa_pairs(*pair):
            letters[g.exps] = g
    zero, one = Scalar.zero(spec.ctx), Scalar.one(spec.ctx)

    def coeff(i, j, r, g):
        return spec._kappa.get((i, j), {}).get(((r,), g), zero)

    violations = []
    for g in (letters[key] for key in sorted(letters)):
        for i, j, k in itertools.permutations(range(spec.n), 3):
            for r in range(spec.n):
                c = coeff(i, j, r, g)
                if r in (i, j) or c.is_zero():
                    continue
                lhs = spec.char_value(k, g)
                rhs = spec.q_scalar(j, k) * spec.q_scalar(i, k) * spec.q_scalar(k, r)
                if lhs != rhs:
                    violations.append(
                        {
                            "family": "reordering",
                            "i": i + 1,
                            "j": j + 1,
                            "k": k + 1,
                            "r": r + 1,
                            "g": str(g),
                            "lhs": str(lhs),
                            "rhs": str(rhs),
                            "coefficient": str(c),
                        }
                    )
            combo = (one - spec.q_scalar(i, j) * spec.char_value(i, g)) * coeff(
                j, k, k, g
            ) + (spec.q_scalar(j, k) - spec.char_value(k, g)) * coeff(i, j, i, g)
            if not combo.is_zero():
                violations.append(
                    {
                        "family": "mixed",
                        "i": i + 1,
                        "j": j + 1,
                        "k": k + 1,
                        "g": str(g),
                        "value": str(combo),
                    }
                )
    return not violations, tuple(violations)


# kappa(v1, v2) is given two terms on g(1) that cancel and one on g(2), so
# the spec's table keeps the g(2) term alone
CANCELLING_LETTER = """
[field]
conductor = 6
[group]
orders = [3]
[action]
characters = [[1], [2], [0]]
[q]
1 2 = zeta(6)
1 3 = -1
2 3 = zeta(3)
[kappa]
1 2 -> 3 (1) 1 ; 3 (1) -1 ; 3 (2) zeta(6)
2 3 -> 3 (1) 2
"""


def test_condition2_over_live_triples_matches_the_dense_sweep():
    cancelling = parse_spec_text(CANCELLING_LETTER)
    assert len(cancelling.kappa_pairs(0, 1)) == 1
    base = FIXTURE_SPECS + corpus(60) + multi_letter_corpus(288, 1)
    specs = base + [perturbed_action(spec) for spec in base if spec.n > 1] + [cancelling]
    failing = 0
    for spec in specs:
        expected = _dense_condition2(spec)
        assert check_condition2(spec) == expected, spec.name
        failing += not expected[0]
    assert failing > 100
    assert not check_condition2(cancelling)[0]


def test_condition2_multiplies_only_on_live_triples(monkeypatch):
    specs = multi_letter_corpus(288, 1)
    calls = []
    multiply = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: calls.append(1) or multiply(a, b))
    for spec in specs:
        check_condition2(spec)
    # the sweep over every support letter and triple made 16,336
    assert len(calls) <= 16336 // 4


def test_parsing_and_deciding_the_corpus_skips_products_by_one(monkeypatch):
    texts = [format_spec(spec) for spec in multi_letter_corpus(288, 1)]
    calls = []
    multiply = CyclotomicNumber.__mul__
    monkeypatch.setattr(CyclotomicNumber, "__mul__", lambda a, b: calls.append(1) or multiply(a, b))
    for text in texts:
        check_pbw(parse_spec_text(text))
    # multiplying out every factor of 1 made 23,445
    assert len(calls) <= 23445 * 2 // 3


def test_weak_vanishing_is_read_off_the_strong_answer():
    for spec in FIXTURE_SPECS + corpus(60) + multi_letter_corpus(72, 1):
        assert decided_vanishing(spec) == check_vanishing(spec), spec.name
        assert decided_vanishing(spec, strong=True) == check_vanishing(spec, strong=True)
