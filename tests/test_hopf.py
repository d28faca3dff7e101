"""Braided tensor square, coproduct, counit, antipode, and the axiom sweep."""

import gc
import random
import warnings
import weakref

import pytest

from qdrinfeld import hopf
from qdrinfeld.algebra import NCElement, all_words, normal_form
from qdrinfeld.colorlie import Bicharacter
from qdrinfeld.hopf import (
    BraidedTensorElement,
    antipode,
    braided_product,
    check_hopf_axioms,
    coproduct,
    counit,
)
from qdrinfeld.errors import SpecError
from qdrinfeld.pbw import check_pbw, check_vanishing
from qdrinfeld.scalar import Scalar
from qdrinfeld.specfile import load_fixture

from randspec import corpus


def mono(spec, word, g=None):
    return NCElement.monomial(spec, word, spec.group.identity() if g is None else g)


def test_coproduct_of_a_sorted_word():
    spec = load_fixture("ex2")
    v12 = normal_form(mono(spec, (0,)) * mono(spec, (1,)))
    assert str(coproduct(v12)) == (
        "1*1 (x) v1*v2*g(0) + 1*v1 (x) v2*g(0) "
        "+ q^-1*v2 (x) v1*g(0) + 1*v1*v2 (x) g(0)"
    )


def test_counit_keeps_group_letters_only():
    spec = load_fixture("ex2")
    g = spec.group.generator(0)
    assert counit(mono(spec, (0, 1))).is_zero()
    assert str(counit(mono(spec, (), g))) == "g(1)"
    assert str(counit(mono(spec, ()) + mono(spec, (2,), g))) == "1"


def test_antipode_values():
    spec = load_fixture("ex2")
    assert str(antipode(mono(spec, (0,)))) == "-v1"
    v12 = normal_form(mono(spec, (0,)) * mono(spec, (1,)))
    # reversing v1 v2 costs one crossing, and sorting it back brings in
    # the correction term
    assert str(antipode(v12)) == "-lam*v3*g(1) + v1*v2"
    g = spec.group.generator(0)
    assert antipode(mono(spec, (), g)) == mono(spec, (), g)


def test_from_pair_moves_group_letters_right():
    spec = load_fixture("ex2")
    g = spec.group.generator(0)
    x = BraidedTensorElement.from_pair(mono(spec, (0,), g), mono(spec, (1,)))
    assert str(x) == "-1*v1 (x) v2*g(1)"


def test_braided_product_value():
    spec = load_fixture("ex2")
    g = spec.group.generator(0)
    x = BraidedTensorElement.from_pair(mono(spec, (0,), g), mono(spec, (1,)))
    y = BraidedTensorElement.from_pair(mono(spec, (1,)), mono(spec, (0,), g))
    assert str(braided_product(x, y)) == (
        "q*lam*v1*v2 (x) v3*g(1) + -q*v1*v2 (x) v1*v2*g(0)"
    )


def test_braided_product_is_associative():
    rng = random.Random(2026)
    for name in ("ex2", "ex3"):
        spec = load_fixture(name)
        letters = list(spec.group)

        def rand_factor():
            word = tuple(rng.randrange(spec.n) for _ in range(rng.randint(0, 2)))
            left = mono(spec, word, rng.choice(letters))
            word2 = tuple(rng.randrange(spec.n) for _ in range(rng.randint(0, 2)))
            right = mono(spec, word2, rng.choice(letters))
            return BraidedTensorElement.from_pair(left, right)

        for _ in range(100):
            x, y, z = rand_factor(), rand_factor(), rand_factor()
            assert braided_product(braided_product(x, y), z) == braided_product(
                x, braided_product(y, z)
            )


def _letter_delta(spec, j):
    e = spec.group.identity()
    one = Scalar.one(spec.ctx)
    return BraidedTensorElement(spec, 2, {((j,), (), e): one, ((), (j,), e): one})


def _group_delta(spec, g):
    return BraidedTensorElement(spec, 2, {((), (), g): Scalar.one(spec.ctx)})


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "zero-kappa"])
def test_memoized_coproduct_matches_the_left_to_right_product(name):
    spec = load_fixture(name)
    for word in all_words(spec.n, 3):
        product = BraidedTensorElement.unit(spec)
        for j in word:
            product = braided_product(product, _letter_delta(spec, j))
        for g in spec.group:
            expected = braided_product(product, _group_delta(spec, g))
            assert coproduct(mono(spec, word, g), strong=True) == expected, (name, word, g)


def test_coproduct_is_linear_and_returns_fresh_elements():
    spec = load_fixture("ex4")
    letters = list(spec.group)
    parts = [
        (mono(spec, (3, 0), letters[1]), Scalar.rational(spec.ctx, 2)),
        (mono(spec, (1,)), Scalar.param(spec.ctx, spec.ctx.params[0])),
        (mono(spec, (0, 2, 1), letters[3]), Scalar.rational(spec.ctx, -1)),
    ]
    x = NCElement.zero(spec)
    expected = BraidedTensorElement.zero(spec)
    for part, coeff in parts:
        x = x + part.scale(coeff)
        expected = expected + coproduct(part, strong=True).scale(coeff)
    assert coproduct(x, strong=True) == expected

    monomial = parts[2][0]
    first = coproduct(monomial, strong=True)
    kept = BraidedTensorElement(spec, 2, first.terms)
    first.terms.clear()
    assert not kept.is_zero()
    assert coproduct(monomial, strong=True) == kept


def test_the_memo_dies_with_its_spec():
    # the memo must not form a reference cycle through the spec, or every
    # spec of a long run would wait for the cycle collector
    spec = load_fixture("ex4")
    coproduct(mono(spec, (3, 2, 1), spec.group.generator(0)), strong=True)
    ref = weakref.ref(spec)
    gc.disable()
    try:
        del spec
        assert ref() is None
    finally:
        gc.enable()


def test_axiom_sweep_reuses_coproducts_and_pairings(monkeypatch):
    # without the per-spec memo the sweep makes 1308 braided products and
    # 4462 pairing evaluations; the memo must keep a fourth of them or less,
    # and no degree pair may be evaluated twice, by any pairing instance
    counts = {"braided_product": 0, "uncached_eval": 0}
    pairs = set()
    braided = hopf.braided_product
    evaluate = Bicharacter.eval

    def counted_braided(*args, **kwargs):
        counts["braided_product"] += 1
        return braided(*args, **kwargs)

    def counted_eval(self, a, b):
        if (a, b) not in self._memo:
            counts["uncached_eval"] += 1
            pairs.add((a, b))
        return evaluate(self, a, b)

    monkeypatch.setattr(hopf, "braided_product", counted_braided)
    monkeypatch.setattr(Bicharacter, "eval", counted_eval)
    assert check_hopf_axioms(load_fixture("ex4"), 2).passed
    assert counts["braided_product"] <= 1308 // 4
    assert counts["uncached_eval"] <= 4462 // 4
    assert counts["uncached_eval"] == len(pairs)


def test_tensor_element_arithmetic():
    spec = load_fixture("ex3")
    x = BraidedTensorElement.from_pair(mono(spec, (0,)), mono(spec, (1,)))
    zero = BraidedTensorElement.zero(spec)
    assert x - x == zero
    assert x + zero == x
    unit = BraidedTensorElement.unit(spec)
    assert braided_product(unit, x) == x
    assert braided_product(x, unit) == x
    assert str(zero) == "0"


def test_axiom_sweep_passes_where_the_strong_identity_holds():
    for name in ("ex2", "ex3", "zero-kappa"):
        report = check_hopf_axioms(load_fixture(name), d=3)
        assert report.strong_vanishing
        assert report.passed and not report.certificates, name


def test_axiom_sweep_flags_ex1_at_degree_two():
    spec = load_fixture("ex1")
    with pytest.warns(UserWarning):
        report = check_hopf_axioms(spec, d=2)
    assert not report.strong_vanishing
    assert not report.delta_well_defined
    cert = report.certificates[0]
    assert cert["law"] == "coproduct on relations"
    assert cert["residue"] == "(1 + 2*zeta(3))*v3 (x) v1*g(1,0)"


def test_coproduct_warns_without_the_strong_identity():
    spec = load_fixture("ex1")
    with pytest.warns(UserWarning):
        coproduct(mono(spec, (0,)))


def test_degree_bound_must_be_positive():
    with pytest.raises(SpecError):
        check_hopf_axioms(load_fixture("ex2"), d=0)


def test_strong_identity_implies_well_definedness_on_random_specs():
    # The converse is false: specs exist whose only violated channels sit
    # inside the bracket pair itself, and there the coproduct still
    # descends.  One such spec lives in this corpus, so pin both facts.
    checked = 0
    converse_fails = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in corpus(60):
            if not check_pbw(spec).verdict:
                continue
            strong, _ = check_vanishing(spec, strong=True)
            report = check_hopf_axioms(spec, d=2)
            if strong:
                assert report.delta_well_defined
            elif report.delta_well_defined:
                converse_fails += 1
            checked += 1
    assert checked >= 10
    assert converse_fails >= 1


def test_report_dict_shape():
    report = check_hopf_axioms(load_fixture("ex4"), d=3)
    data = report.as_dict()
    assert list(data) == [
        "degree",
        "strong_vanishing",
        "delta_well_defined",
        "coassociative",
        "counit_laws",
        "antipode_law",
        "passed",
        "certificates",
    ]
    assert data["passed"] and data["strong_vanishing"]
