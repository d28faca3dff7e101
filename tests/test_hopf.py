"""Braided tensor square, coproduct, counit, antipode, and the axiom sweep."""

import gc
import random
import warnings
import weakref

import pytest

from qdrinfeld import algebra, hopf
from qdrinfeld.algebra import NCElement, all_words, defining_relation, normal_form, pbw_words
from qdrinfeld.cli import run_all
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
from qdrinfeld.groups import ADegree
from qdrinfeld.pbw import check_pbw, check_vanishing, overlap_oracle
from qdrinfeld.scalar import Scalar, accumulate
from qdrinfeld.specfile import load_fixture, parse_spec_text

from randspec import corpus, parametric_corpus
from test_cli import _two_generator_spec


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


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "zero-kappa"])
def test_braided_product_twists_by_the_pairing_of_the_crossing_degrees(name):
    # (1 (x) v_ar g)(v_bl (x) 1) is eps(|v_ar g|, |v_bl|) times the tensor
    # of the two reduced slots, with degrees built here as ADegree products
    spec = load_fixture(name)
    eps, n, e = Bicharacter.from_spec(spec), spec.n, spec.group.identity()
    one = Scalar.one(spec.ctx)

    def degree(word, g):
        value = ADegree.group_degree(n, g)
        for j in word:
            value = value * ADegree.generator_degree(n, j, spec.group)
        return value

    words = list(all_words(n, 2))
    for ar in words:
        for ag in spec.group:
            x = BraidedTensorElement(spec, 2, {((), ar, ag): one})
            for bl in words:
                y = BraidedTensorElement(spec, 2, {(bl, (), e): one})
                plain = BraidedTensorElement.from_pair(
                    normal_form(mono(spec, bl)), normal_form(mono(spec, ar, ag))
                )
                assert not plain.is_zero()
                twist = eps.eval(degree(ar, ag), degree(bl, e))
                assert braided_product(x, y) == plain.scale(twist), (ar, ag, bl)


def test_the_hopf_sweep_builds_no_degree_on_ex1(monkeypatch):
    # the twist comes from the q table and the memoized word characters;
    # before, check_hopf_axioms(ex1, 4) built 53,826 ADegree objects
    spec = load_fixture("ex1")
    built = []
    init = ADegree.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ADegree, "__init__", counted)
    with pytest.warns(UserWarning):
        assert not check_hopf_axioms(spec, 4).passed
    assert built == []


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


def _reference_braided_product(x, y):
    """The braided product with both slots of every pair of terms built
    as free products and reduced by ``normal_form``, with no memo."""
    spec = x.spec
    identity = spec.group.identity()
    result = {}
    for (al, ar, ag), ac in x.terms.items():
        right_a = NCElement.monomial(spec, ar, ag)
        for (bl, br, bg), bc in y.terms.items():
            twist = spec.word_char(bl, ag)
            for a in ar:
                for b in bl:
                    twist = twist * spec.q_scalar(a, b)
            left = normal_form(NCElement.monomial(spec, al + bl, identity))
            right = normal_form(right_a * NCElement.monomial(spec, br, bg))
            base = ac * bc * twist
            for (lw, lg), lc in left.terms.items():
                for (rw, rg), rc in right.terms.items():
                    coeff = base * lc * rc * spec.word_char(rw, lg)
                    accumulate(result, (lw, rw, lg * rg), coeff)
    return x._like(result)


def _reference_antipode(x):
    """normal_form of the reversed words, each scaled by its sign and the
    crossing factors of its reversal."""
    spec = x.spec
    terms = {}
    for (word, g), coeff in x.terms.items():
        factor = coeff
        for a in range(len(word)):
            for b in range(a + 1, len(word)):
                factor = factor * spec.q_scalar(word[a], word[b])
            factor = -factor
        terms[(word[::-1], g)] = factor
    return normal_form(x._like(terms))


def _assert_the_memo_matches_the_references(spec, degree):
    factors = [_letter_delta(spec, j) for j in range(spec.n)]
    factors += [_group_delta(spec, g) for g in spec.group]
    for word in all_words(spec.n, degree):
        delta = coproduct(mono(spec, word), strong=True)
        for factor in factors:
            expected = _reference_braided_product(delta, factor)
            assert braided_product(delta, factor) == expected, (spec.name, word)
        for g in spec.group:
            assert antipode(mono(spec, word, g)) == _reference_antipode(mono(spec, word, g))
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            relation = defining_relation(spec, j, i)
            assert antipode(relation) == _reference_antipode(relation), (spec.name, i, j)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "zero-kappa"])
def test_memoized_slots_match_the_reference_product_on_fixtures(name):
    _assert_the_memo_matches_the_references(load_fixture(name), 3)


def test_memoized_slots_match_the_reference_product_on_random_specs():
    for spec in corpus(40):
        _assert_the_memo_matches_the_references(spec, 2)
    # not confluent: normal_form is still a function of the word for a
    # fixed strategy, so the memo still holds
    spec = corpus(60)[22]
    assert not overlap_oracle(spec)
    _assert_the_memo_matches_the_references(spec, 3)


def _rewrite_calls(monkeypatch, work) -> int:
    """The calls that work() makes to algebra.rewrite, which every
    normal_form runs once."""
    calls = 0
    rewrite = algebra.rewrite

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return rewrite(*args, **kwargs)

    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        patch.setattr(algebra, "rewrite", counted)
        work()
    return calls


def test_the_hopf_check_reduces_each_word_once_on_ex1(monkeypatch):
    # reducing both slots of every pair of terms of every braided product
    # and every antipode fold made 3108 rewrites
    spec = load_fixture("ex1")
    assert _rewrite_calls(monkeypatch, lambda: check_hopf_axioms(spec, 3)) <= 3108 // 10


def test_a_fixture_pass_reduces_each_word_once(monkeypatch):
    # 1034 rewrites when every braided product and antipode ran normal_form
    names = ("ex1", "ex2", "ex3", "ex4", "gl11", "zero-kappa")
    calls = _rewrite_calls(monkeypatch, lambda: [run_all(name, 2) for name in names])
    assert calls <= 1034 // 4


def test_coproduct_at_a_group_letter_makes_no_braided_product(monkeypatch):
    # Delta(w g) is Delta(w) with the letter of its last slot moved by g
    spec = load_fixture("ex1")
    plain = {word: coproduct(mono(spec, word), strong=True) for word in all_words(spec.n, 2)}
    calls = []
    braided = hopf.braided_product
    monkeypatch.setattr(hopf, "braided_product", lambda *args: calls.append(args) or braided(*args))
    for word, delta in plain.items():
        for g in spec.group:
            shifted = {(l, r, h * g): c for (l, r, h), c in delta.terms.items()}
            got = coproduct(mono(spec, word, g), strong=True)
            assert got == BraidedTensorElement(spec, 2, shifted), (word, g)
    assert calls == []


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
    # the memos must not form a reference cycle through the spec, or every
    # spec of a long run would wait for the cycle collector
    spec = load_fixture("ex4")
    coproduct(mono(spec, (3, 2, 1), spec.group.generator(0)), strong=True)
    antipode(mono(spec, (2, 0), spec.group.generator(0)))
    assert spec._delta_cache and spec._nf_cache and spec._twist_cache
    check_pbw(spec)
    # strong vanishing, which also answers the weak form, and confluence
    assert set(spec._facts) == {"vanishing", "confluence"}
    ref = weakref.ref(spec)
    gc.disable()
    try:
        del spec
        assert ref() is None
    finally:
        gc.enable()


def test_axiom_sweep_reuses_coproducts_and_pairings(monkeypatch):
    # without the per-spec memo the sweep makes 1308 braided products; the
    # memo must keep a fourth of them or less.  ex4 now takes the finite
    # proof, so ex1 keeps the monomial sweep under the same guard: with the
    # coproduct memo dropping every write, check_hopf_axioms(ex1, 2) makes
    # 203 braided products (1011 when the sweep visited every group letter
    # of every monomial).  braided_product reads its twist from the q table
    # and the word characters, so neither sweep evaluates the pairing.
    counts = {"braided_product": 0, "eval": 0}
    braided = hopf.braided_product
    evaluate = Bicharacter.eval

    def counted_braided(*args, **kwargs):
        counts["braided_product"] += 1
        return braided(*args, **kwargs)

    def counted_eval(self, a, b):
        counts["eval"] += 1
        return evaluate(self, a, b)

    monkeypatch.setattr(hopf, "braided_product", counted_braided)
    monkeypatch.setattr(Bicharacter, "eval", counted_eval)
    assert check_hopf_axioms(load_fixture("ex4"), 2).passed
    assert counts["braided_product"] <= 1308 // 4
    assert counts["eval"] == 0

    counts.update(braided_product=0)
    with pytest.warns(UserWarning):
        assert not check_hopf_axioms(load_fixture("ex1"), 2).passed
    assert counts["braided_product"] <= 1011 // 4
    assert counts["eval"] == 0


def test_bare_relation_sweep_bounds_the_braided_products_on_ex4(monkeypatch):
    # ex4 is strong and confluent, so only the bare relations are swept:
    # the flank sweep at degree 3 makes 501 braided products
    count = 0
    braided = hopf.braided_product

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return braided(*args, **kwargs)

    monkeypatch.setattr(hopf, "braided_product", counted)
    assert check_hopf_axioms(load_fixture("ex4"), 3).passed
    assert count <= 160


def _hopf_work(monkeypatch, spec, d, names=("braided_product", "antipode")):
    """The report of check_hopf_axioms(spec, d) and the calls it makes to
    the named functions of hopf."""
    counts = dict.fromkeys(names, 0)
    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in counts:
            original = getattr(hopf, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            patch.setattr(hopf, name, counted)
        report = check_hopf_axioms(spec, d)
    return report, counts


def test_finite_proof_work_does_not_grow_with_the_degree(monkeypatch):
    # the sweep makes 22 braided products and 90 antipodes at degree 2
    # on ex4, and 42 and 330 at degree 3 (65/360 and 145/1320 when it
    # visited every group letter)
    report, low = _hopf_work(monkeypatch, load_fixture("ex4"), 2)
    assert report.passed
    report, high = _hopf_work(monkeypatch, load_fixture("ex4"), 5)
    assert report.passed and low == high
    assert low["braided_product"] > 0 and low["antipode"] > 0


def test_finite_proof_work_does_not_grow_with_the_group(monkeypatch):
    # the all-letters sweep at degree 2 visited every one of the 36 or 144
    # group letters
    report, small = _hopf_work(monkeypatch, parse_spec_text(_two_generator_spec(6)), 2)
    assert report.passed
    report, large = _hopf_work(monkeypatch, parse_spec_text(_two_generator_spec(12)), 2)
    assert report.passed and small == large
    assert small["braided_product"] > 0


def test_finite_proof_checks_the_laws_on_the_v_i_only(monkeypatch):
    # each generator of G added one more call, six in all on ex4
    spec = load_fixture("ex4")
    report, counts = _hopf_work(monkeypatch, spec, 3, names=("_law_certificates",))
    assert report.passed
    assert counts["_law_certificates"] == spec.n


def test_every_law_holds_on_the_group_letters():
    specs = [load_fixture(name) for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa")]
    for spec in specs + corpus(60):
        for g in spec.group:
            assert hopf._law_certificates(spec, mono(spec, (), g)) == [], (spec.name, g)


def _all_letters_sweep(spec, d):
    """Reference sweep: the relation multiples, then every law on every
    sorted monomial of degree <= d at every group letter."""
    strong, _ = check_vanishing(spec, strong=True)
    flank = 0 if strong and overlap_oracle(spec) else d - 1
    certificates = hopf._relation_certificates(spec, flank)
    well_defined = not certificates
    for word in pbw_words(spec.n, d):
        for g in spec.group:
            certificates += hopf._law_certificates(spec, mono(spec, word, g))
    failed = {cert["law"] for cert in certificates}
    return hopf.HopfReport(
        degree=d,
        strong_vanishing=strong,
        delta_well_defined=well_defined,
        coassociative="coassociativity" not in failed,
        counit_laws="counit" not in failed,
        antipode_law="antipode" not in failed,
        certificates=tuple(certificates),
    )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "zero-kappa"])
def test_sweep_matches_the_all_letters_reference_on_fixtures(name, d):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert hopf._sweep(load_fixture(name), d) == _all_letters_sweep(load_fixture(name), d)


def test_sweep_matches_the_all_letters_reference_on_random_specs():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        specs = corpus(60)
        for spec in specs:
            assert hopf._sweep(spec, 2) == _all_letters_sweep(spec, 2), spec.name
        assert hopf._sweep(specs[22], 3) == _all_letters_sweep(specs[22], 3)


def test_the_hopf_check_matches_the_all_letters_reference_with_parameters():
    specs = [spec for spec in parametric_corpus(72, 1) if spec.n * len(spec.group) <= 12]
    assert len(specs) >= 30
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in specs:
            assert check_hopf_axioms(spec, 2) == _all_letters_sweep(spec, 2), spec.name


def test_a_covariant_fault_is_swept_on_every_letter(monkeypatch):
    # doubling the antipode on every element with a length-2 word breaks
    # the antipode law on each degree-2 monomial at every group letter,
    # and the identity letter must send the sweep to the others
    spec = load_fixture("ex1")
    anti = hopf.antipode
    two = Scalar.rational(spec.ctx, 2)

    def doubled(x):
        value = anti(x)
        return value.scale(two) if any(len(word) == 2 for word, _ in x.terms) else value

    monkeypatch.setattr(hopf, "antipode", doubled)
    with pytest.warns(UserWarning):
        report = check_hopf_axioms(spec, 2)
    assert report == _all_letters_sweep(load_fixture("ex1"), 2)
    assert len(report.certificates) == 56
    antipodes = [cert for cert in report.certificates if cert["law"] == "antipode"]
    assert len(antipodes) == 6 * len(spec.group)


@pytest.mark.parametrize("d", [2, 3])
def test_sweep_checks_the_laws_once_per_monomial_on_ex1(d, monkeypatch):
    # every law holds on ex1's monomials, so no letter but the identity is
    # tried: the all-letters sweep makes 90 calls at degree 2 and 180 at 3
    report, counts = _hopf_work(monkeypatch, load_fixture("ex1"), d, ("_law_certificates",))
    assert not report.passed
    assert counts["_law_certificates"] == len(list(pbw_words(3, d)))


def test_sweep_work_does_not_grow_with_the_group(monkeypatch):
    # the kappa row breaks strong vanishing, so the spec sweeps; the
    # all-letters sweep makes 103 braided products and 480 antipodes at
    # k = 4, and 223 and 1080 at k = 6
    def swept(order):
        text = _two_generator_spec(order) + "[kappa]\n1 2 -> 1 (1,0) 1\n"
        report, counts = _hopf_work(monkeypatch, parse_spec_text(text), 2)
        assert not report.strong_vanishing and not report.delta_well_defined
        return counts

    small = swept(4)
    assert small == swept(6)
    assert small["braided_product"] > 0 and small["antipode"] > 0


def _no_sweep(spec, d):
    raise AssertionError(f"{spec.name} should be decided by the finite checks")


@pytest.mark.parametrize("name", ["ex2", "ex3", "ex4", "zero-kappa"])
def test_finite_proof_agrees_with_the_sweep_on_fixtures(name, monkeypatch):
    reference = hopf._sweep(load_fixture(name), 3)
    monkeypatch.setattr(hopf, "_sweep", _no_sweep)
    assert check_hopf_axioms(load_fixture(name), 3) == reference


def test_finite_proof_agrees_with_the_sweep_on_random_specs():
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in corpus(60):
            if not (check_vanishing(spec, strong=True)[0] and overlap_oracle(spec)):
                continue
            assert hopf._finite_checks_pass(spec), spec.name
            assert check_hopf_axioms(spec, 2) == hopf._sweep(spec, 2), spec.name
            checked += 1
    assert checked >= 30


def test_a_failed_finite_check_falls_back_to_the_sweep(monkeypatch):
    laws = hopf._law_certificates
    planted = {"law": "counit", "monomial": "v1", "left": "planted", "right": "planted"}

    def failing_on_v1(spec, monomial):
        found = laws(spec, monomial)
        return found + [planted] if monomial == mono(spec, (0,)) else found

    monkeypatch.setattr(hopf, "_law_certificates", failing_on_v1)
    report = check_hopf_axioms(load_fixture("ex4"), 2)
    assert not report.passed and not report.counit_laws
    assert report.certificates == (planted,)
    assert report == hopf._sweep(load_fixture("ex4"), 2)


def _flank_residues(spec, d):
    """Reference sweep: (i, j, u, w) of every multiple u * rel_ij * w with
    flank words of combined length < d whose coproduct is nonzero."""
    n = spec.n
    found = []
    for i in range(n):
        for j in range(i + 1, n):
            relation = defining_relation(spec, j, i)
            for u in all_words(n, d - 1):
                for w in all_words(n, d - 1 - len(u)):
                    multiple = mono(spec, u) * relation * mono(spec, w)
                    if not coproduct(multiple, strong=True).is_zero():
                        found.append((i, j, u, w))
    return found


@pytest.mark.parametrize("name", ["ex2", "ex3", "ex4", "zero-kappa"])
def test_flank_residues_vanish_on_strong_confluent_fixtures(name):
    spec = load_fixture(name)
    assert check_vanishing(spec, strong=True)[0] and overlap_oracle(spec)
    assert _flank_residues(spec, 3) == []


def test_flank_residues_vanish_on_strong_confluent_random_specs():
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in corpus(60):
            if check_vanishing(spec, strong=True)[0] and overlap_oracle(spec):
                assert _flank_residues(spec, 2) == [], spec.name
                checked += 1
    assert checked >= 30


# corpus(60)[22]: strong vanishing holds but the rewriting is not
# confluent, and only the multiples of the bare relations show it
STRONG_NOT_CONFLUENT = """
[field]
conductor = 6

[group]
orders = [2]

[action]
characters = [[0], [1], [0]]

[q]
1 2 = 1
1 3 = 1
2 3 = 1

[kappa]
1 2 -> 2 (0) -1 + zeta(6)
1 3 -> 3 (0) 1 - zeta(6)
2 3 -> 2 (0) -1 + zeta(6)
"""


def test_strong_vanishing_without_confluence_keeps_the_flank_sweep():
    spec = parse_spec_text(STRONG_NOT_CONFLUENT, "strong-not-confluent")
    assert check_vanishing(spec, strong=True)[0]
    assert not overlap_oracle(spec)
    assert _flank_residues(spec, 2)
    report = check_hopf_axioms(spec, 2)
    assert not report.delta_well_defined
    flanked = [
        cert
        for cert in report.certificates
        if cert["law"] == "coproduct on relations" and (cert["left"], cert["right"]) != ("1", "1")
    ]
    assert flanked


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
