import itertools
import random

import pytest

from qdrinfeld.algebra import (
    LinearCombination,
    NCElement,
    all_words,
    defining_relation,
    extended_kappa,
    h_multiply,
    inversions,
    normal_form,
    pbw_monomial_count,
    pbw_words,
)
from qdrinfeld.errors import SpecError
from qdrinfeld.scalar import Scalar, parse_scalar
from qdrinfeld.specfile import load_fixture, parse_nc_expression

EX1 = load_fixture("ex1")
EX2 = load_fixture("ex2")
PLANE = load_fixture("zero-kappa")


def q(spec, i, j):
    return spec.q_scalar(i, j)


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
        assert h_multiply(h_multiply(a, b), c) == h_multiply(a, h_multiply(b, c))


def test_defining_relation_reduces_to_zero():
    for spec in (EX1, EX2, PLANE):
        for i in range(spec.n):
            for j in range(i + 1, spec.n):
                assert normal_form(defining_relation(spec, j, i)).is_zero()


def test_defining_relation_index_guard():
    with pytest.raises(SpecError):
        defining_relation(EX2, 0, 1)


def test_extended_kappa_collects_letters_on_the_right():
    g = EX2.group.generator(0)
    e = EX2.group.identity()
    value = extended_kappa(EX2, 0, g, 1, e)
    # chi_2(g) = -1, and the correction letter g joins the acting letter
    lam = parse_scalar("lam", EX2.ctx)
    assert value == NCElement.monomial(EX2, (2,), g * g, -lam)


def test_inversions_counts_descents():
    assert inversions((0, 1, 2)) == 0
    assert inversions((2, 1, 0)) == 3
    assert inversions((1, 0, 1)) == 1


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
    a = LinearCombination({0: one, 1: one, 2: one - one})
    assert a.terms == {0: one, 1: one}
    b = LinearCombination({1: -one, 3: one})
    assert (a + b).terms == {0: one, 3: one}
    assert (a - a).is_zero() and a - a == LinearCombination()
    assert -a == a.scale(-one) != a
    with pytest.raises(SpecError):
        a + NCElement.monomial(EX2, (0,))
