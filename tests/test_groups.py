import pytest

from qdrinfeld.errors import SpecError
from qdrinfeld.groups import (
    ADegree,
    AbelianGroup,
    Character,
    SubgroupN,
    char_eval,
)
from qdrinfeld.scalar import Scalar, ScalarContext


def test_group_basics():
    G = AbelianGroup((2, 3))
    assert len(G) == 6
    assert G.exponent == 6
    elements = list(G)
    assert len(set(elements)) == 6
    assert G.identity().is_identity()


def test_identity_is_one_shared_element_per_group():
    for orders in ((), (4,), (2, 6)):
        G = AbelianGroup(orders)
        e = G.identity()
        assert G.identity() is e
        built = G.element((0,) * G.rank)
        assert e == built and hash(e) == hash(built)


def test_element_arithmetic_wraps_orders():
    G = AbelianGroup((4,))
    g = G.generator(0)
    assert g * g * g * g == G.identity()
    assert g.inverse() == G.element((3,))


def test_fast_product_and_inverse_match_the_validating_constructor():
    for orders in ((2, 4), (3, 3), (12, 12)):
        G = AbelianGroup(orders)
        elements = list(G)
        for kind in (G.element, lambda exps: Character(G, exps)):
            vectors = [kind(g.exps) for g in elements]
            for a in vectors:
                inverse = a.inverse()
                assert type(inverse) is type(a) and inverse.group is G
                assert inverse.exps == kind([-e for e in a.exps]).exps
                for b in vectors:
                    product = a * b
                    assert type(product) is type(a) and product.group is G
                    assert product.exps == kind([x + y for x, y in zip(a.exps, b.exps)]).exps


def test_equal_elements_of_separately_built_groups_hash_equal():
    G, H = AbelianGroup((3, 3)), AbelianGroup((3, 3))
    for g, h in zip(G, H):
        assert g == h and hash(g) == hash(h)
    assert len(set(G) | set(H)) == 9
    # the same exponents as a character are still a different vector
    assert G.generator(0) != Character(G, (1, 0))


def test_a_trivial_character_value_is_the_shared_one():
    G = AbelianGroup((2, 3))
    ctx = ScalarContext(6)
    chi = Character(G, (1, 1))
    for g in G:
        value = char_eval(chi, g, ctx)
        assert (value.terms is ctx._one_terms) == g.is_identity()
    assert char_eval(Character(G, (0, 0)), G.generator(1), ctx).terms is ctx._one_terms


def test_element_rejects_foreign_group():
    G, H = AbelianGroup((2,)), AbelianGroup((3,))
    with pytest.raises(SpecError):
        G.generator(0) * H.generator(0)


def test_character_evaluation():
    G = AbelianGroup((3,))
    ctx = ScalarContext(3)
    chi = Character(G, (1,))
    g = G.generator(0)
    assert char_eval(chi, g, ctx) == Scalar.zeta(ctx, 3)
    assert char_eval(chi, g * g, ctx) == Scalar.zeta(ctx, 3, 2)
    assert char_eval(chi.inverse(), g, ctx) * char_eval(chi, g, ctx) == Scalar.one(ctx)
    # every character is a homomorphism, so no spec needs to check it again
    for orders in ((2, 2), (3, 3), (2, 4), (6,)):
        G = AbelianGroup(orders)
        ctx = ScalarContext(G.exponent)
        for chi in (Character(G, g.exps) for g in G):
            for g in G:
                for h in G:
                    assert char_eval(chi, g * h, ctx) == char_eval(chi, g, ctx) * char_eval(chi, h, ctx)


def test_character_needs_compatible_conductor():
    G = AbelianGroup((3,))
    chi = Character(G, (1,))
    with pytest.raises(SpecError):
        char_eval(chi, G.generator(0), ScalarContext(4))


def test_adegree_product_and_vector():
    G = AbelianGroup((2, 2))
    a = ADegree.generator_degree(3, 0, G) * ADegree.group_degree(3, G.generator(1))
    b = ADegree.generator_degree(3, 2, G)
    c = a * b
    assert c.as_int_vector() == [1, 0, 1, 0, 1]
    assert c * c.inverse() == ADegree((0, 0, 0), G.identity())


def test_subgroup_membership_uses_torsion():
    # N = <(2, 0; 0)> inside Z^2 x Z/2: (4, 0; 0) is in, (1, 0; 0) is not
    G = AbelianGroup((2,))
    gen = ADegree((2, 0), G.identity())
    N = SubgroupN(2, G, (gen,))
    assert N.contains(ADegree((4, 0), G.identity()))
    assert not N.contains(ADegree((1, 0), G.identity()))


def test_subgroup_torsion_relations_are_built_in():
    # inside Z^1 x Z/3 the element (0; g^3) is the identity, hence in any N
    G = AbelianGroup((3,))
    N = SubgroupN(1, G, ())
    assert N.contains(ADegree((0,), G.identity()))
    assert not N.contains(ADegree((0,), G.generator(0)))


def test_congruence_mod_mixed_generator():
    # N generated by (1, 1; g) makes (1, 1; 0) and (0, 0; g^-1) congruent... not
    # equal: their difference is exactly the generator.
    G = AbelianGroup((4,))
    gen = ADegree((1, 1), G.generator(0))
    N = SubgroupN(2, G, (gen,))
    x = ADegree((1, 1), G.identity())
    y = ADegree((0, 0), G.generator(0).inverse())
    assert N.congruent(x, y)
    assert not N.congruent(x, ADegree((0, 0), G.identity()))
