import itertools
import random

import pytest

from qdrinfeld import algebra
from qdrinfeld.algebra import (
    AlgebraSpec,
    NCElement,
    all_words,
    defining_relation,
    normal_form,
    pbw_monomial_count,
    pbw_words,
)
from qdrinfeld.colorlie import generic_color_lie_ring
from qdrinfeld.errors import SpecError
from qdrinfeld.groups import AbelianGroup, Character
from qdrinfeld.scalar import Combination, Scalar, ScalarContext, accumulate, parse_scalar
from qdrinfeld.specfile import fixture_names, load_fixture, parse_nc_expression, parse_spec_text
from qdrinfeld.uea import build_uea

from test_cli import _two_generator_spec

EX1 = load_fixture("ex1")
EX2 = load_fixture("ex2")
PLANE = load_fixture("zero-kappa")


def q(spec, i, j):
    return spec.q_scalar(i, j)


def test_memoized_word_characters_match_the_letter_by_letter_product():
    specs = [load_fixture(name) for name in fixture_names() if name != "gl11"]
    specs.append(parse_spec_text(_two_generator_spec(12)))
    for spec in specs:
        one = Scalar.one(spec.ctx)
        words = [w for d in range(4) for w in itertools.product(range(spec.n), repeat=d)]
        for g in spec.group:
            for word in words:
                expected = one
                for j in word:
                    expected = expected * spec.char_value(j, g)
                assert spec.word_char(word, g) == expected, (spec.name, word, g)
                assert spec.word_char(word, g) is spec.word_char(word, g)


def test_q_entries_equal_to_one_are_the_shared_one():
    spec = parse_spec_text(
        "[group]\norders = [2]\n[action]\ncharacters = [[0], [1], [1]]\n"
        "[q]\n1 2 = 1\n2 1 = 1\n1 3 = -1\n"
    )
    one = Scalar.one(spec.ctx)
    for i in range(spec.n):
        for j in range(spec.n):
            value = q(spec, i, j)
            assert (value.terms is one.terms) == (value == one), (i, j)
    assert q(spec, 2, 1).terms is one.terms and q(spec, 2, 0) == -one


def test_q_transposes_are_inverses():
    for spec in (EX1, EX2):
        for i in range(spec.n):
            for j in range(spec.n):
                if i == j:
                    assert q(spec, i, j) == Scalar.one(spec.ctx)
                else:
                    assert q(spec, i, j) * q(spec, j, i) == Scalar.one(spec.ctx)


def test_kappa_transpose_sign():
    entries = EX2.kappa_pairs(1, 0)
    assert len(entries) == 1
    r, g, c = entries[0]
    assert r == 2 and not g.is_identity()
    assert c == -q(EX2, 1, 0) * parse_scalar("lam", EX2.ctx)


def test_kappa_transposes_are_computed_once_at_parse(monkeypatch):
    spec = load_fixture("ex1")
    expected = {
        (j, i): [(r, g, -q(spec, j, i) * c) for r, g, c in spec.kappa_pairs(i, j)]
        for i, j in spec.kappa_support()
    }
    assert expected
    calls = []
    multiply = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: calls.append(1) or multiply(a, b))
    for (j, i), terms in expected.items():
        assert j > i
        for _ in range(2):
            assert list(spec.kappa_pairs(j, i)) == terms
    assert not calls


def test_spec_resolves_kappa_given_on_a_transposed_pair():
    e, g = EX1.group.identity(), EX1.group.generator(0)
    terms = ((2, g, parse_scalar("2", EX1.ctx)), (0, e, Scalar.one(EX1.ctx)))

    def build(kappa):
        return AlgebraSpec(EX1.ctx, EX1.group, EX1.chars, EX1.q_table(), kappa)

    spec = build({(1, 0): terms})
    assert spec.kappa_support() == [(0, 1)]
    assert list(spec.kappa_pairs(1, 0)) == list(terms)
    assert [(r, h) for r, h, _ in spec.kappa_pairs(0, 1)] == [(2, g), (0, e)]
    for pair in ((0, 0), (0, 3)):
        with pytest.raises(SpecError, match="distinct indices in range"):
            build({pair: terms})


def test_group_letters_skew_past_generators():
    g = EX2.group.generator(0)
    x = NCElement.group_unit(EX2, g)
    v1 = NCElement.monomial(EX2, (0,))
    # g * v1 = chi_1(g) v1 g and chi_1(g) = -1 on this fixture
    assert x * v1 == NCElement.monomial(EX2, (0,), g, -Scalar.one(EX2.ctx))


def test_free_product_concatenates_words():
    a = NCElement.monomial(EX2, (0, 1))
    b = NCElement.monomial(EX2, (1,))
    ab = a * b
    assert list(ab.terms) == [((0, 1, 1), EX2.group.identity())]


def test_normal_form_of_quantum_plane_swap():
    # v2 v1 -> q^-1 v1 v2 with no correction terms on the kappa-free fixture
    swap = normal_form(NCElement.monomial(PLANE, (1, 0)))
    expected = NCElement.monomial(PLANE, (0, 1), coeff=parse_scalar("q^-1", PLANE.ctx))
    assert swap == expected


def test_normal_form_fixed_on_sorted_words():
    for word in pbw_words(EX2.n, 3):
        for g in EX2.group:
            element = NCElement.monomial(EX2, word, g)
            assert normal_form(element) == element


def test_normal_form_example_with_correction():
    # v2 v1 = q v1 v2 - q lam v3 g on the Example-2-style fixture
    reduced = normal_form(NCElement.monomial(EX2, (1, 0)))
    g = EX2.group.generator(0)
    qq = parse_scalar("q", EX2.ctx)
    lam = parse_scalar("lam", EX2.ctx)
    expected = NCElement.monomial(EX2, (0, 1), coeff=qq) + NCElement.monomial(
        EX2, (2,), g, -qq * lam
    )
    assert reduced == expected


def test_normal_form_strategies_agree_on_pbw_fixture():
    rng = random.Random(3)
    for _ in range(40):
        word = tuple(rng.randrange(EX2.n) for _ in range(rng.randint(0, 4)))
        g = rng.choice(list(EX2.group))
        element = NCElement.monomial(EX2, word, g)
        assert normal_form(element, "leftmost") == normal_form(element, "rightmost")


def test_h_multiply_is_associative_on_ex1():
    rng = random.Random(5)
    letters = list(EX1.group)

    def rand_monomial():
        word = tuple(rng.randrange(EX1.n) for _ in range(rng.randint(0, 2)))
        return NCElement.monomial(EX1, word, rng.choice(letters))

    for _ in range(30):
        a, b, c = rand_monomial(), rand_monomial(), rand_monomial()
        assert normal_form(normal_form(a * b) * c) == normal_form(a * normal_form(b * c))


def test_defining_relation_reduces_to_zero():
    for spec in (EX1, EX2, PLANE):
        for i in range(spec.n):
            for j in range(i + 1, spec.n):
                assert normal_form(defining_relation(spec, j, i)).is_zero()


def test_defining_relation_index_guard():
    with pytest.raises(SpecError):
        defining_relation(EX2, 0, 1)


def test_spec_needs_a_conductor_divisible_by_the_group_exponent():
    # refused at construction: with one generator no check ever evaluates
    # a character, so the mismatch would otherwise go unnoticed
    group = AbelianGroup((2, 4))
    with pytest.raises(SpecError, match="group exponent 4"):
        AlgebraSpec(ScalarContext(6), group, [Character(group, (1, 1))], {}, {})


def test_word_generators():
    assert len(list(pbw_words(3, 2))) == 10
    assert len(list(all_words(2, 3))) == 15
    assert pbw_monomial_count(EX1, 2) == 90
    assert pbw_monomial_count(EX2, 3) == 40


def test_parse_nc_expression_matches_manual_element():
    g = EX2.group.generator(0)
    manual = NCElement.monomial(EX2, (1, 0), g, parse_scalar("q", EX2.ctx))
    assert parse_nc_expression("q*v2*v1*g(1)", EX2) == manual


def test_elements_refuse_mixed_specs():
    with pytest.raises(SpecError):
        NCElement.monomial(EX1, (0,)) + NCElement.monomial(EX2, (0,))


def test_plain_combinations_drop_zeros_and_refuse_elements():
    one = Scalar.one(EX2.ctx)
    a = Combination({0: one, 1: one, 2: one - one})
    assert a.terms == {0: one, 1: one}
    b = Combination({1: -one, 3: one})
    assert (a + b).terms == {0: one, 3: one}
    assert (a - a).is_zero() and a - a == Combination()
    assert -a == a.scale(-one) != a
    with pytest.raises(SpecError):
        a + NCElement.monomial(EX2, (0,))


def test_the_first_q_pair_that_is_not_inverse_is_named():
    ctx = ScalarContext(conductor=6)
    group = AbelianGroup((2,))
    chars = [Character(group, (0,))] * 3
    zeta = Scalar.zeta(ctx, 6)
    # q_12 q_21 = zeta^2 fails first; q_23 q_32 = zeta^2 fails too, later
    q = {(0, 1): zeta, (1, 0): zeta, (1, 2): zeta, (2, 1): zeta}
    with pytest.raises(SpecError, match="^q_12 and q_21 are not inverse$"):
        AlgebraSpec(ctx, group, chars, q, {})
    # once q_12 and q_21 are inverse, the failing pair is named from above the diagonal
    q = {(0, 1): zeta, (1, 0): zeta.inv(), (2, 1): zeta, (1, 2): zeta}
    with pytest.raises(SpecError, match="^q_23 and q_32 are not inverse$"):
        AlgebraSpec(ctx, group, chars, q, {})


def _reference_rewrite(terms, rule):
    """The path-by-path worklist that ``rewrite`` replaced: each path of
    rewrites is followed on its own and equal keys are never merged."""
    done = {}
    work = list(terms.items())
    while work:
        key, coeff = work.pop()
        if coeff.is_zero():
            continue
        replacement = rule(key)
        if replacement is None:
            accumulate(done, key, coeff)
        else:
            work.extend((new_key, coeff * factor) for new_key, factor in replacement)
    return done


def _reference_normal_form(monkeypatch, element, strategy):
    with monkeypatch.context() as patch:
        patch.setattr(
            algebra, "rewrite", lambda terms, rule, word=None: _reference_rewrite(terms, rule)
        )
        return normal_form(element, strategy)


def test_merged_rewriting_matches_the_path_by_path_reference(monkeypatch):
    rng = random.Random(11)
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
        spec = load_fixture(name)
        letters = list(spec.group)
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                word = tuple(rng.randrange(spec.n) for _ in range(rng.randint(0, 5)))
                terms[(word, rng.choice(letters))] = Scalar.rational(spec.ctx, rng.randint(1, 5))
            element = NCElement(spec, terms)
            for strategy in ("leftmost", "rightmost"):
                reference = _reference_normal_form(monkeypatch, element, strategy)
                assert normal_form(element, strategy) == reference
    ring = generic_color_lie_ring(load_fixture("gl11"))
    pres = build_uea(ring)
    one = Scalar.one(ring.epsilon.ctx)
    for word in itertools.product(range(ring.size), repeat=4):
        assert pres.reduce({word: one}) == _reference_rewrite({word: one}, pres._rule)


def test_a_power_rewrites_each_key_once(monkeypatch):
    # the path-by-path worklist made 130,976 rule calls on (v1+v2)^9 at the
    # leftmost strategy; merged, each key is rewritten once
    calls = []
    rewrite = algebra.rewrite

    def counted(terms, rule, word=None):
        def counting_rule(key):
            calls.append(key)
            return rule(key)

        return rewrite(terms, counting_rule, word)

    monkeypatch.setattr(algebra, "rewrite", counted)
    power = parse_nc_expression("(v1+v2)^9", EX2)
    for strategy in ("leftmost", "rightmost"):
        calls.clear()
        reduced = normal_form(power, strategy)
        assert len(reduced.terms) == 30
        assert len(calls) == len(set(calls)) <= 2000
