import ast
import functools
import gc
import itertools
import math
import operator
import random
import re
import warnings
import weakref
from importlib import resources

import pytest

from qdrinfeld import algebra, cyclotomic, pbw, scalar
from qdrinfeld.algebra import AlgebraSpec, NCElement, kappa_element, normal_form
from qdrinfeld.cyclotomic import CyclotomicNumber
from qdrinfeld.groups import GroupElement
from qdrinfeld.cli import run_all
from qdrinfeld.pbw import _cyclic_sums, check_pbw, check_vanishing, overlap_oracle
from qdrinfeld.scalar import Scalar, parse_scalar
from qdrinfeld.specfile import (
    fixture_names,
    fixture_path,
    format_spec,
    load_fixture,
    parse_spec_text,
)
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
    condition 3's certificates: every term v_r h of kappa(v_a, v_b)
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
    report = check_pbw(broken)
    assert not report.cond1
    certs = report.cond1_violations
    assert certs[0]["i"] == 1 and certs[0]["j"] == 2 and certs[0]["r"] == 3
    assert not report.verdict
    assert not report.oracle_confluent


def test_corpus_exposes_scalar_condition_failures():
    seen_cond2_failure = False
    for spec in corpus(60):
        report = check_pbw(spec)
        if report.cond1 and not report.cond2:
            seen_cond2_failure = True
            assert report.cond2_violations
            assert not report.verdict
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


def test_weak_vanishing_implies_condition2():
    # a reordering entry is a weak vanishing identity, and each bracket of
    # a mixed entry vanishes unless the term it weighs fails weak vanishing
    specs = (
        FIXTURE_SPECS
        + corpus(200)
        + multi_letter_corpus(288, 1)
        + multi_letter_corpus(288, 3)
        + parametric_corpus(288, 1)
    )
    vanishing = 0
    for spec in specs:
        report = check_pbw(spec)
        if report.vanishing:
            vanishing += 1
            assert report.cond2, spec.name
        reordering = {
            (v["g"], frozenset((v["i"], v["j"])), v["k"], v["r"], v["lhs"], v["rhs"])
            for v in report.cond2_violations
            if v["family"] == "reordering"
        }
        weak = {
            (v["g"], frozenset((v["i"], v["j"])), v["k"], v["r"], v["lhs"], v["rhs"])
            for v in report.vanishing_violations
            if v["r"] not in (v["i"], v["j"])
        }
        assert reordering == weak, spec.name
    assert len(specs) == 1069 and vanishing == 670


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


def _rightmost_normal_form(element):
    """normal_form with the rightmost descent rewritten first, through
    algebra.rewrite: its first step on v_k v_j v_i rewrites v_j v_i."""
    spec = element.spec

    def rule(key):
        word, g = key
        for p in range(len(word) - 2, -1, -1):
            if word[p] > word[p + 1]:
                break
        else:
            return None
        a, b = word[p], word[p + 1]
        head, tail = word[:p], word[p + 2 :]
        out = [((head + (b, a) + tail, g), spec.q_scalar(a, b))]
        for ((r,), h), c in spec._kappa.get((a, b), {}).items():
            out.append(((head + (r,) + tail, h * g), c * spec.word_char(tail, h)))
        return out

    return element._like(algebra.rewrite(element.terms, rule, operator.itemgetter(0)))


def _failing_chains(spec) -> list:
    """The chains v_k v_j v_i whose leftmost and rightmost normal forms
    differ: the two-order reference for the oracle's overlap part."""
    failing = []
    for k, j, i in itertools.combinations(reversed(range(spec.n)), 3):
        chain = NCElement.monomial(spec, (k, j, i))
        if normal_form(chain) != _rightmost_normal_form(chain):
            failing.append((k, j, i))
    return failing


def _chains_resolve(spec) -> bool:
    return not _failing_chains(spec)


def _generator_group_resolves(spec) -> bool:
    """The oracle's group part as it ran before it read one normal form
    per pair: a generator g of G pushed through each pair relation
    v_j v_i before and after reducing, four rewrites per generator and
    pair."""
    for t in range(spec.group.rank):
        unit = NCElement.group_unit(spec, spec.group.generator(t))
        for j in range(1, spec.n):
            for i in range(j):
                pair = NCElement.monomial(spec, (j, i))
                reduce_last = normal_form(unit * pair)
                reduce_first = normal_form(unit * normal_form(pair))
                if reduce_last != reduce_first:
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


def _oracle_corpora():
    """Fresh specs: the fixtures, corpus(200), parametric_corpus(96, 1),
    the multi-letter corpora of seeds 1 and 3, MULTI_LETTER and
    SECOND_GENERATOR_MOVES."""
    return (
        [load_fixture(name) for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa")]
        + corpus(200)
        + parametric_corpus(96, 1)
        + multi_letter_corpus(288, 1)
        + multi_letter_corpus(288, 3)
        + [parse_spec_text(MULTI_LETTER), parse_spec_text(SECOND_GENERATOR_MOVES)]
    )


def test_oracle_matches_the_generator_by_generator_reference():
    # the group part reads each ambiguity g v_j v_i off NF(v_j v_i); the
    # reference pushes g through with four rewrites instead
    specs = _oracle_corpora()
    chains = [_chains_resolve(spec) for spec in specs]
    group = [_generator_group_resolves(spec) for spec in specs]
    assert [overlap_oracle(spec) for spec in specs] == [c and g for c, g in zip(chains, group)]
    # the group part alone says False on 254 of the 879 specs, and decides
    # the oracle on 58 of them
    assert len(specs) == 879 and group.count(False) == 254
    assert sum(c and not g for c, g in zip(chains, group)) == 58


# kappa(v1, v2) = v3 and kappa(v1, v3) = v1 over trivial characters and
# q = 1: the Jacobi identity fails on v1, v2, v3 alone, and v4 is central,
# so of the four chains only v3 v2 v1 fails to resolve
ONE_CHAIN_FAILS = """
[group]
orders = [2]
[action]
characters = [[0], [0], [0], [0]]
[kappa]
1 2 -> 3 (0) 1
1 3 -> 1 (0) 1
"""


def test_oracle_matches_the_two_order_reference():
    # Bergman's check on each overlap against reducing it both ways
    planted = parse_spec_text(ONE_CHAIN_FAILS)
    assert _failing_chains(planted) == [(2, 1, 0)]
    assert _generator_group_resolves(planted) and not overlap_oracle(planted)
    specs = (
        [load_fixture(name) for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa")]
        + corpus(200)
        + parametric_corpus(96, 1)
        + multi_letter_corpus(200, 7)
        + [planted]
    )
    chains = [_chains_resolve(spec) for spec in specs]
    group = [_generator_group_resolves(spec) for spec in specs]
    assert [overlap_oracle(spec) for spec in specs] == [c and g for c, g in zip(chains, group)]
    # the chains alone decide the oracle on some specs, the planted one included
    assert sum(g and not c for c, g in zip(chains, group)) > 1


def test_oracle_reads_one_normal_form_per_pair(monkeypatch):
    # on a fresh confluent spec whose group has a generator: two per
    # chain v_k v_j v_i, NF(v_k v_j v_i) and NF(v_k N_ji), and one per
    # pair v_j v_i, C(n,3)*2 + C(n,2); the generator-by-generator group
    # part made four per pair and generator
    calls = []
    for module in (algebra, pbw):
        original = module.normal_form
        monkeypatch.setattr(
            module, "normal_form", lambda *args, _f=original: calls.append(1) or _f(*args)
        )
    counts = {}
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
        calls.clear()
        assert overlap_oracle(load_fixture(name))
        counts[name] = len(calls)
    assert counts == {"ex1": 5, "ex2": 5, "ex3": 5, "ex4": 14, "zero-kappa": 1}
    checked = 0
    for spec in corpus(200) + multi_letter_corpus(288, 1):
        if not spec.group.rank or not check_pbw(spec).oracle_confluent:
            continue
        fresh = parse_spec_text(format_spec(spec))
        calls.clear()
        assert overlap_oracle(fresh)
        assert len(calls) == 2 * math.comb(spec.n, 3) + math.comb(spec.n, 2), spec.name
        checked += 1
    assert checked == 290


def test_the_oracle_work_on_the_pbw_specs_of_the_corpus_is_pinned(monkeypatch):
    # two normal forms per chain and one per pair, as the two-order check
    # made; the count repeats exactly from one run to the next
    texts = [format_spec(spec) for spec in corpus(200) if check_pbw(spec).verdict]
    calls = []
    for module in (algebra, pbw):
        original = module.normal_form
        monkeypatch.setattr(module, "normal_form", lambda x, _f=original: calls.append(1) or _f(x))
    counts = []
    for _ in range(2):
        calls.clear()
        for text in texts:
            assert overlap_oracle(parse_spec_text(text))
        counts.append(len(calls))
    assert len(texts) == 146 and counts == [362, 362]


def _eager_report(spec) -> dict:
    """check_pbw's report dict with every certificate rendered where it
    is found, as the deciders did before they kept raw failures."""
    cond1 = []
    for i, j in spec.kappa_support():
        product = spec.chars[i] * spec.chars[j]
        for r, g, _ in spec.kappa_pairs(i, j):
            if product != spec.chars[r]:
                cond1.append(
                    {
                        "i": i + 1,
                        "j": j + 1,
                        "r": r + 1,
                        "g": str(g),
                        "char_product": list(product.exps),
                        "char_of_target": list(spec.chars[r].exps),
                    }
                )
    _, cond2 = _dense_condition2(spec)

    def term(a, b, c, r, h, coeff):
        if r == a:
            return kappa_element(spec, c, a).scale(spec.char_value(c, h) * coeff)
        return kappa_element(spec, c, r).scale(spec.q_scalar(b, c) * coeff)

    cond3 = [
        {"i": i + 1, "j": j + 1, "k": k + 1, "residue": str(total)}
        for i, j, k, total in _cyclic_sums(spec, term)
        if not total.is_zero()
    ]
    strong = []
    for i, j in spec.kappa_support():
        for r, g, _ in spec.kappa_pairs(i, j):
            for k in range(spec.n):
                lhs = spec.char_value(k, g)
                rhs = spec.q_scalar(i, k) * spec.q_scalar(j, k) * spec.q_scalar(k, r)
                if lhs != rhs:
                    strong.append(
                        dict(i=i + 1, j=j + 1, k=k + 1, r=r + 1, g=str(g), lhs=str(lhs), rhs=str(rhs))
                    )
    weak = [v for v in strong if v["k"] not in (v["i"], v["j"])]
    verdict = not (cond1 or cond2 or cond3)
    return {
        "cond1": not cond1,
        "cond2": not cond2,
        "cond3": not cond3,
        "cond1_violations": cond1,
        "cond2_violations": list(cond2),
        "cond3_violations": cond3,
        "vanishing": not weak,
        "vanishing_violations": weak,
        "strong_vanishing": not strong,
        "strong_vanishing_violations": strong,
        "fixed_point_free": all(not chi.is_identity() for chi in spec.chars),
        "oracle_confluent": verdict,
        "verdict": verdict,
    }


def test_check_pbw_renders_nothing_while_it_decides(monkeypatch):
    # certificates are rendered at the edge: deciding prints no scalar,
    # group letter or element, and the rendered report equals the eager one
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} printed while deciding")

    specs = _oracle_corpora()
    with monkeypatch.context() as patch:
        for cls in (Scalar, GroupElement, NCElement):
            patch.setattr(cls, "__str__", refuse)
        reports = [check_pbw(spec) for spec in specs]
    failing = 0
    for spec, report in zip(specs, reports):
        assert report.as_dict() == _eager_report(spec), spec.name
        failing += not report.verdict
    assert failing == 380


def test_a_failing_report_dies_with_its_spec():
    # the raw failures keep condition 3's residues as terms, not as
    # elements, which hold their spec: no cycle runs through the spec
    texts = [format_spec(spec) for spec in corpus(120)]
    failing = 0
    gc.disable()
    try:
        for text in texts:
            spec = parse_spec_text(text)
            report = check_pbw(spec)
            if report.cond3 and report.strong_vanishing:
                continue
            failing += not report.cond3
            ref = weakref.ref(spec)
            del spec, report
            assert ref() is None
    finally:
        gc.enable()
    assert failing > 0


def test_a_decided_spec_leaves_no_scalar_context_behind():
    # the context shares terms of 1 and of the other +-zeta^k with its
    # scalars, never scalars, which would hold it in a cycle
    texts = [format_spec(spec) for spec in corpus(60)]
    gc.disable()
    try:
        for text in texts:
            spec = parse_spec_text(text)
            check_pbw(spec)
            assert spec.ctx.__dict__.get("_root_terms")
            refs = weakref.ref(spec), weakref.ref(spec.ctx)
            del spec
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_no_product_of_two_signed_roots_reaches_the_dense_multiply(monkeypatch):
    # parsing and check_pbw multiply +-zeta^k by table; the count is
    # exact, so a lost fast path fails here and not only in a timing
    texts = [fixture_path(name).read_text() for name in fixture_names()]
    texts += [format_spec(spec) for spec in corpus(200)]
    signed_roots = functools.cache(
        lambda m: {tuple(s * a for a in row) for row in cyclotomic._power_rows(m) for s in (1, -1)}
    )
    dense = cyclotomic._dense_mul

    def dense_products():
        calls = []

        def spy(x, y):
            calls.append(all(z.den == 1 and z.nums in signed_roots(z.m) for z in (x, y)))
            return dense(x, y)

        monkeypatch.setattr(cyclotomic, "_dense_mul", spy)
        for text in texts:
            spec = parse_spec_text(text)
            if isinstance(spec, AlgebraSpec):
                check_pbw(spec)
        monkeypatch.setattr(cyclotomic, "_dense_mul", dense)
        return calls

    first = dense_products()
    assert first and not any(first)
    assert dense_products() == first


def test_no_product_of_two_signed_root_scalars_multiplies_terms(monkeypatch):
    # a product of two constant +-zeta^k scalars is a sum of table
    # indices: it runs neither Scalar.__mul__'s term loop nor a field
    # multiply, and the count is exact, as in the test above
    texts = [fixture_path(name).read_text() for name in fixture_names()]
    texts += [format_spec(spec) for spec in corpus(200)]
    signed_roots = functools.cache(
        lambda m: {tuple(s * a for a in row) for row in cyclotomic._power_rows(m) for s in (1, -1)}
    )

    def is_signed_root(x):
        if len(x.terms) != 1:
            return False
        (exps, c), = x.terms.items()
        return not any(exps) and c.den == 1 and c.nums in signed_roots(c.m)

    counts = {"products": 0, "inside": 0, "loop": 0, "field": 0}
    scalar_mul, field_mul, accumulate = Scalar.__mul__, CyclotomicNumber.__mul__, scalar.accumulate

    def spy_scalar_mul(x, y):
        if not (is_signed_root(x) and is_signed_root(y)):
            return scalar_mul(x, y)
        counts["products"] += 1
        counts["inside"] += 1
        try:
            return scalar_mul(x, y)
        finally:
            counts["inside"] -= 1

    def spy_field_mul(x, y):
        counts["field"] += counts["inside"] > 0
        return field_mul(x, y)

    def spy_accumulate(terms, key, coeff):
        counts["loop"] += counts["inside"] > 0
        accumulate(terms, key, coeff)

    monkeypatch.setattr(Scalar, "__mul__", spy_scalar_mul)
    monkeypatch.setattr(CyclotomicNumber, "__mul__", spy_field_mul)
    monkeypatch.setattr(scalar, "accumulate", spy_accumulate)
    for text in texts:
        spec = parse_spec_text(text)
        if isinstance(spec, AlgebraSpec):
            check_pbw(spec)
    assert counts["products"] > 1000
    assert (counts["loop"], counts["field"]) == (0, 0)


def test_condition3_holds_without_kappa():
    plane = load_fixture("zero-kappa")
    assert check_pbw(plane).cond3


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
    """Condition 2 as a sweep over every letter of the correction
    support and every ordered triple of distinct indices, the reference
    for its reading of the weak vanishing failures."""
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


def test_condition2_from_the_identity_failures_matches_the_dense_sweep():
    cancelling = parse_spec_text(CANCELLING_LETTER)
    assert len(cancelling.kappa_pairs(0, 1)) == 1
    base = FIXTURE_SPECS + corpus(60) + multi_letter_corpus(288, 1)
    specs = base + [perturbed_action(spec) for spec in base if spec.n > 1] + [cancelling]
    failing = 0
    for spec in specs:
        expected = _dense_condition2(spec)
        report = check_pbw(spec)
        assert (report.cond2, report.cond2_violations) == expected, spec.name
        failing += not expected[0]
    assert failing > 100
    assert not check_pbw(cancelling).cond2


def test_condition2_multiplies_only_where_the_identity_fails(monkeypatch):
    weak_failures = []
    for spec in multi_letter_corpus(288, 1):
        weak = [f for f in pbw._identity_failures(spec) if f[4] not in f[:2]]
        weak_failures.append((spec, weak))
    calls = []
    multiply = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: calls.append(1) or multiply(a, b))
    for spec, weak in weak_failures:
        pbw._condition2_failures(spec, weak)
    # the sweep over every support letter and triple made 16,336, the
    # weak identity sweep included; condition 2 alone makes 1,482
    assert len(calls) <= 16336 // 8


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
        report = check_pbw(spec)
        weak = tuple(
            v for v in report.strong_vanishing_violations if v["k"] not in (v["i"], v["j"])
        )
        assert report.vanishing_violations == weak and report.vanishing == (not weak), spec.name
        assert check_vanishing(spec) == (report.vanishing, weak), spec.name
        strong = (report.strong_vanishing, report.strong_vanishing_violations)
        assert check_vanishing(spec, strong=True) == strong, spec.name


_ENTRIES = {
    "weak check_vanishing": check_vanishing,
    "strong check_vanishing": functools.partial(check_vanishing, strong=True),
    "check_pbw": check_pbw,
}


def test_the_identity_is_swept_once_per_spec_whatever_reads_it_first(monkeypatch):
    calls = []
    sweep = pbw._identity_failures
    monkeypatch.setattr(pbw, "_identity_failures", lambda spec: calls.append(spec) or sweep(spec))
    texts = [fixture_path(name).read_text() for name in ("ex1", "ex2", "ex3", "ex4")]
    texts += [format_spec(spec) for spec in corpus(20)]
    for first in _ENTRIES:
        for text in texts:
            spec = parse_spec_text(text)
            calls.clear()
            _ENTRIES[first](spec)
            for entry in _ENTRIES.values():
                entry(spec)
            assert calls == [spec], (first, spec.name)
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
        calls.clear()
        with warnings.catch_warnings():
            # ex1 fails strong vanishing, and its Hopf leg warns
            warnings.simplefilter("ignore")
            run_all(name, 2)
        assert len(calls) == 1, name
