import gc
import itertools
import warnings

import pytest

from qdrinfeld import cli, groups
from qdrinfeld.algebra import normal_form
from qdrinfeld.errors import SpecError
from qdrinfeld.groups import (
    ADegree,
    AbelianGroup,
    Character,
    GroupElement,
    SubgroupN,
    char_eval,
    char_exponent,
)
from qdrinfeld.scalar import Scalar, ScalarContext
from qdrinfeld.specfile import fixture_names, load_fixture, parse_nc_expression, parse_spec_text


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


def test_one_group_per_tuple_of_orders():
    G = AbelianGroup((3, 3))
    assert AbelianGroup([3, 3]) is G and AbelianGroup(("3", 3)) is G
    assert AbelianGroup((3,)) is not G and AbelianGroup((3, 3, 1)) is not G
    with pytest.raises(SpecError, match=r"cyclic orders must be >= 1, got \(3, 0\)"):
        AbelianGroup((3, 0))


def test_every_construction_path_returns_the_table_element():
    G = AbelianGroup((2, 6))
    table = {exps: G.element(exps) for exps in itertools.product(range(2), range(6))}
    assert G._elements == table
    for exps, g in table.items():
        assert g.exps == exps and g.group is G
        assert GroupElement(G, exps) is g
        # outside exponents are reduced before the lookup
        assert G.element([e + 2 * m for e, m in zip(exps, G.orders)]) is g
        assert G.element([e - m for e, m in zip(exps, G.orders)]) is g
    assert G.identity() is table[(0, 0)]
    assert [G.generator(t) for t in range(2)] == [table[(1, 0)], table[(0, 1)]]
    assert all(a is b for a, b in zip(G, table.values()))
    assert len(G._elements) == len(G)
    e = G.identity()
    for (a_exps, a), (b_exps, b) in itertools.product(table.items(), repeat=2):
        product = tuple((x + y) % m for x, y, m in zip(a_exps, b_exps, G.orders))
        assert a * b is table[product]
    for exps, g in table.items():
        assert g.inverse() is table[tuple(-x % m for x, m in zip(exps, G.orders))]
        # a product with the identity is the other factor itself
        assert g * e is g and e * g is g
        assert g.is_identity() == (g is e)


def test_parsed_letters_are_the_table_elements():
    spec = load_fixture("ex1")
    G = spec.group
    assert G is AbelianGroup(G.orders)
    for (word, g), _ in parse_nc_expression("v2*g(1,2) + g(4,-1)*v1", spec).terms.items():
        assert g is G._elements[g.exps]
    for i, j in spec.kappa_support():
        for _, g, _ in spec.kappa_pairs(i, j):
            assert g is G._elements[g.exps]


def test_characters_stay_values():
    G = AbelianGroup((3, 3))
    chi, psi = Character(G, (1, 2)), Character(G, (4, -1))
    assert chi is not psi and chi == psi and hash(chi) == hash(psi)
    assert chi * chi.inverse() == Character(G, (0, 0))
    assert type(chi * psi) is Character and (chi * psi).is_identity() is False
    assert chi != G.element((1, 2)) and G.element((1, 2)) != chi
    assert len({chi, psi, G.element((1, 2))}) == 2
    with pytest.raises(SpecError, match="character needs 2 exponents, got 1"):
        Character(G, (1,))
    with pytest.raises(SpecError, match="element needs 2 exponents, got 3"):
        G.element((1, 2, 3))


def test_a_group_mismatch_still_raises():
    G, H = AbelianGroup((3,)), AbelianGroup((3, 1))
    pairs = [
        (G.generator(0), H.generator(0)),
        (G.identity(), H.generator(0)),
        (G.generator(0), H.identity()),
        (G.identity(), H.identity()),
        (Character(G, (1,)), Character(H, (1, 0))),
    ]
    for a, b in pairs:
        with pytest.raises(SpecError, match="group mismatch"):
            a * b
    with pytest.raises(SpecError, match="group mismatch"):
        char_exponent(Character(G, (1,)), H.generator(0), 3)


_LONELY = """
[field]
conductor = 35

[group]
orders = [5, 7]

[action]
characters = [[1, 0], [0, 1]]

[kappa]
1 2 -> 1 (2, 3) 1
"""


def _alive(orders):
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, GroupElement) and obj.group.orders == orders
        or isinstance(obj, AbelianGroup) and obj.orders == orders
    ]


def test_a_group_and_its_elements_die_with_the_last_spec():
    # no other test builds Z/5 x Z/7, so the spec below holds the only
    # references; the elements point back to their group, so the pair
    # waits for the cycle collector
    gc.collect()
    assert (5, 7) not in groups._GROUPS and not _alive((5, 7))
    spec = parse_spec_text(_LONELY)
    normal_form(parse_nc_expression("v2*v1*g(1,1)", spec))
    assert AbelianGroup((5, 7)) is spec.group is groups._GROUPS[(5, 7)]
    assert len(_alive((5, 7))) == 1 + len(spec.group._elements) > 2
    del spec
    gc.collect()
    assert (5, 7) not in groups._GROUPS and not _alive((5, 7))


def test_a_fixture_pass_builds_one_element_per_group_element(monkeypatch):
    # one run_all(name, 2) pass over the six fixtures used to build 2,289
    # GroupElement objects; now each fixture builds at most the |G|
    # elements of its group, 22 in all, and fewer where a group is still
    # alive from an earlier fixture or test
    built = []
    element = AbelianGroup._element

    def counted(group, exps):
        if exps not in group._elements:
            built.append((group.orders, exps))
        return element(group, exps)

    monkeypatch.setattr(AbelianGroup, "_element", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in fixture_names():
            cli.run_all(name, 2)
    assert len(built) <= 22
    # and every element alive is its table's
    for obj in gc.get_objects():
        if type(obj) is GroupElement:
            assert obj.group._elements[obj.exps] is obj
