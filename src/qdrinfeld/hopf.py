"""Braided tensor squares, the coproduct on the deformation, and axiom checks.

Elements of the tensor square are kept in a canonical form where the left
slot is a group-free word and all group letters sit in the right slot; the
balanced structure over the group algebra makes that a normal form, with
letters migrating right through the diagonal action.  Multiplication
twists by the degree pairing whenever the right slot of the first factor
moves past the left slot of the second.

The coproduct sends each generator to v (x) 1 + 1 (x) v and each group
letter to 1 (x) g, extended multiplicatively.  Delta of a monomial is
memoized on its spec and built from its prefix, Delta(w v_j) =
Delta(w) Delta(v_j), so each monomial's value is computed once per spec;
Delta(w g) is Delta(w) with the letter of its last slot moved by g.
Braided products and antipodes read per-spec normal forms of bare words
(``algebra.word_normal_form``) shifted by G: ``normal_form`` commutes
with right multiplication by a group letter, so c * v_w * g reduces to
c times the memoized normal form of v_w with every letter moved by g.

Whether Delta is well defined on the quotient is checked on the defining
relations.  Delta is an algebra map from the free algebra into the
braided tensor square, so Delta(u rel w) = Delta(u) Delta(rel) Delta(w),
and the multiples add nothing once Delta(rel) = 0.  That needs two
premises.  Strong vanishing makes each relation homogeneous for the
degree pairing, so the twist is well defined on the quotient.
Confluence of the rewriting system (the overlap oracle, by Bergman's
diamond lemma) makes ``normal_form`` a function on the quotient, so the
braided square is associative.  Where either fails, degree-bounded
multiples u rel w are swept instead.  Strong vanishing alone is not
enough: the guided spec ``corpus(60)[22]`` of ``tests/randspec.py`` has
it, is not confluent, and has every bare relation in the kernel of Delta
but not every multiple.  Under both premises the remaining laws are
decided on the v_i as well, and the degree-bounded sweep runs only
where a premise or one of those finite checks fails (see
``check_hopf_axioms``).  The sweep tests the laws on each PBW monomial
at the identity letter, and at the other group letters only where that
one fails: a law holds on w g exactly when it holds on w (see ``_sweep``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

from .algebra import (
    AlgebraSpec,
    NCElement,
    all_words,
    defining_relation,
    pbw_words,
    word_normal_form,
)
from .algebra import normal_form  # noqa: F401  (bench/tracing.py patches this binding)
from .errors import SpecError
from .groups import GroupElement
from .pbw import decided_confluence, decided_vanishing
from .pbw import check_vanishing  # noqa: F401  (bench/tracing.py patches this binding)
from .scalar import Combination, Scalar, accumulate


class BraidedTensorElement(Combination):
    """A sum of canonical tensors with two or three slots.

    Keys are (w1, ..., wk, g): group-free words for every slot and one
    group letter belonging to the last slot.  Scalars live in the spec's
    coefficient field.
    """

    __slots__ = ("spec", "slots")

    def __init__(self, spec: AlgebraSpec, slots: int, terms) -> None:
        if slots not in (2, 3):
            raise SpecError("tensor elements carry two or three slots")
        self.spec = spec
        self.slots = slots
        super().__init__(terms)

    def _space(self) -> tuple:
        return (self.spec, self.slots)

    @classmethod
    def zero(cls, spec: AlgebraSpec) -> BraidedTensorElement:
        return cls._trusted((spec, 2), {})

    @classmethod
    def unit(cls, spec: AlgebraSpec) -> BraidedTensorElement:
        return cls._trusted((spec, 2), {((), (), spec.group.identity()): Scalar.one(spec.ctx)})

    @classmethod
    def from_pair(cls, x: NCElement, y: NCElement) -> BraidedTensorElement:
        """Canonical form of x (x) y, migrating x's letters into y."""
        spec = x.spec
        terms: dict = {}
        for (xw, xg), xc in x.terms.items():
            for (yw, yg), yc in y.terms.items():
                coeff = xc * yc * spec.word_char(yw, xg)
                accumulate(terms, (xw, yw, xg * yg), coeff)
        return cls._trusted((spec, 2), terms)

    def __str__(self) -> str:
        return self.sum_str(_tensor_label, _term_order)


def _term_order(key):
    words, g = key[:-1], key[-1]
    return tuple((len(w), w) for w in words) + (g.exps,)


def _tensor_label(key) -> str:
    slots = [_word_str(w) for w in key[:-1]]
    letter = f"g({','.join(str(e) for e in key[-1].exps)})"
    slots[-1] = letter if slots[-1] == "1" else slots[-1] + "*" + letter
    return " (x) ".join(slots)


def _word_str(word) -> str:
    if not word:
        return "1"
    return "*".join(f"v{j + 1}" for j in word)


def braided_product(x: BraidedTensorElement, y: BraidedTensorElement) -> BraidedTensorElement:
    """(a (x) b)(c (x) d) = pairing(|b|, |c|) (ac (x) bd), slots reduced.

    The left slots multiply as plain words but their reduction can emit
    group letters from correction terms; those migrate into the right
    slot with the usual diagonal-action factor.

    The pairing is bimultiplicative with eps(e_a, e_b) = q_ab and
    eps(g, e_b) = chi_b(g) (``colorlie.Bicharacter.from_spec``), so the
    twist of |v_ar g| past |v_bl| is prod_{a in ar, b in bl} q_ab times
    prod_{b in bl} chi_b(g), which is ``spec.word_char(bl, g)``.  The
    q-product is kept on the spec per (ar, bl).

    Both slots are read from ``word_normal_form``.  The left slot is the
    normal form of v_al v_bl.  The right slot, v_ar ag v_br bg =
    ``spec.word_char(br, ag)`` v_ar v_br (ag bg), is that of v_ar v_br
    with every letter multiplied by ag bg, since ``normal_form`` commutes
    with right multiplication by a group letter (the proof is in its
    docstring).
    """
    spec = x.spec
    if x.slots != 2 or y.slots != 2:
        raise SpecError("the braided product is defined on two-slot tensors")
    x._check(y)
    twists = spec._twist_cache
    word_char = spec.word_char
    result: dict = {}
    for (al, ar, ag), ac in x.terms.items():
        for (bl, br, bg), bc in y.terms.items():
            crossing = twists.get((ar, bl))
            if crossing is None:
                crossing = Scalar.one(spec.ctx)
                for a in ar:
                    for b in bl:
                        crossing = crossing * spec.q_scalar(a, b)
                twists[(ar, bl)] = crossing
            base = ac * bc * word_char(bl, ag) * crossing * word_char(br, ag)
            shift = ag * bg
            right = word_normal_form(spec, ar + br)
            for (lw, lg), lc in word_normal_form(spec, al + bl).items():
                for (rw, rg), rc in right.items():
                    coeff = base * lc * rc * word_char(rw, lg)
                    accumulate(result, (lw, rw, lg * rg * shift), coeff)
    return x._like(result)


def _monomial_delta(spec: AlgebraSpec, word, g: GroupElement) -> dict:
    """Terms of Delta(v_word g) from the spec's memo, computing missing entries.

    Delta(w v_j) is the braided product of the memoized Delta(w) with
    v_j (x) 1 + 1 (x) v_j, so the bracketing is left to right.  On any
    spec, Delta(w g) is Delta(w) with the last slot's letter multiplied
    by g, and takes no braided product: that of Delta(w) with 1 (x) g
    has twist 1 against a degree-zero factor, leaves the normal slots of
    Delta(w) alone and moves the empty slot at no cost.  The memo keeps
    terms dicts, not elements, so it holds no reference back to the spec
    and dies with it without waiting for the cycle collector.  The dicts
    are shared and must not be mutated.
    """
    memo = spec._delta_cache
    key = (word, g)
    terms = memo.get(key)
    if terms is not None:
        return terms
    identity = spec.group.identity()
    if g != identity:
        prefix = _monomial_delta(spec, word, identity)
        terms = {(l, r, h * g): c for (l, r, h), c in prefix.items()}
    elif not word:
        terms = BraidedTensorElement.unit(spec).terms
    else:
        one = Scalar.one(spec.ctx)
        prefix = _monomial_delta(spec, word[:-1], identity)
        factor = {((word[-1],), (), identity): one, ((), (word[-1],), identity): one}
        tensor = BraidedTensorElement._trusted
        terms = braided_product(tensor((spec, 2), prefix), tensor((spec, 2), factor)).terms
    memo[key] = terms
    return terms


def coproduct(x: NCElement, strong: bool | None = None) -> BraidedTensorElement:
    """Multiplicative extension of v -> v (x) 1 + 1 (x) v, g -> 1 (x) g.

    Applied term by term to the free presentation of x.  Delta of each
    monomial is memoized per spec and built from its prefix; the result is
    always a fresh element.  It only descends to the quotient when the
    strong character identity holds; otherwise a warning is emitted and
    the value is exploratory.  Callers that have already decided strong
    vanishing pass it as ``strong``.
    """
    spec = x.spec
    if strong is None:
        strong, _ = decided_vanishing(spec, strong=True)
    if not strong:
        warnings.warn(
            "the coproduct does not descend to the quotient of "
            f"{spec.name or 'an unnamed algebra'}; values are exploratory",
            stacklevel=2,
        )
    total: dict = {}
    for (word, g), coeff in x.terms.items():
        for key, c in _monomial_delta(spec, word, g).items():
            accumulate(total, key, coeff * c)
    return BraidedTensorElement._trusted((spec, 2), total)


def counit(x: NCElement) -> NCElement:
    """Projection onto word degree zero; group letters pass through."""
    return x._like({key: c for key, c in x.terms.items() if not key[0]})


def antipode(x: NCElement) -> NCElement:
    """S(v) = -v, S(g) = g, twisted anti-multiplicative on words.

    S(uv) = pairing(|u|,|v|) S(v)S(u) on homogeneous factors, so a word
    picks up a sign per letter, the crossing factors of its reversal, and
    its group letter stays on the right.  The result is normal-formed.
    """
    spec = x.spec
    terms = {}
    for (word, g), coeff in x.terms.items():
        factor = coeff
        for a in range(len(word)):
            for b in range(a + 1, len(word)):
                factor = factor * spec.q_scalar(word[a], word[b])
            factor = -factor
        terms[(word[::-1], g)] = factor
    return _reduced(x._like(terms))


def _reduced(x: NCElement) -> NCElement:
    """``normal_form(x)`` read from the spec's memo of bare words.

    ``normal_form`` is linear and commutes with right multiplication by a
    group letter, so x = sum c * v_w * g reduces to the sum of c times
    ``word_normal_form(w)`` with every letter multiplied by g.
    """
    spec = x.spec
    terms: dict = {}
    for (word, g), coeff in x.terms.items():
        for (w, h), c in word_normal_form(spec, word).items():
            accumulate(terms, (w, h * g), coeff * c)
    return x._like(terms)


# ---------------------------------------------------------------------------
# axiom checks


def _delta_on_left(bt: BraidedTensorElement) -> BraidedTensorElement:
    """(Delta (x) 1): coproduct of the left slot, right slot appended."""
    spec = bt.spec
    result: dict = {}
    for (l, r, g), coeff in bt.terms.items():
        inner = coproduct(NCElement.monomial(spec, l), strong=True)
        for (a, b, bg), c in inner.terms.items():
            migrate = spec.word_char(r, bg)
            accumulate(result, (a, b, r, bg * g), coeff * c * migrate)
    return BraidedTensorElement._trusted((spec, 3), result)


def _delta_on_right(bt: BraidedTensorElement) -> BraidedTensorElement:
    """(1 (x) Delta): coproduct of the right slot, left slot prepended."""
    spec = bt.spec
    result: dict = {}
    for (l, r, g), coeff in bt.terms.items():
        inner = coproduct(NCElement.monomial(spec, r, g), strong=True)
        for (b, c, cg), value in inner.terms.items():
            accumulate(result, (l, b, c, cg), coeff * value)
    return BraidedTensorElement._trusted((spec, 3), result)


@dataclass(frozen=True)
class HopfReport:
    """Outcome of the Hopf laws up to degree d, by finite proof or by sweep."""

    degree: int
    strong_vanishing: bool
    delta_well_defined: bool
    coassociative: bool
    counit_laws: bool
    antipode_law: bool
    certificates: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return (
            self.delta_well_defined
            and self.coassociative
            and self.counit_laws
            and self.antipode_law
        )

    def as_dict(self) -> dict:
        """Fields in declaration order with passed before certificates,
        which is the key order of `hopf --json`."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        certificates = values.pop("certificates")
        return {**values, "passed": self.passed, "certificates": list(certificates)}


def _relation_certificates(spec: AlgebraSpec, flank: int) -> list[dict]:
    """A certificate for each multiple u * rel * w with flank words of
    combined length <= flank whose coproduct is nonzero."""
    n = spec.n
    certificates = []
    for i in range(n):
        for j in range(i + 1, n):
            relation = defining_relation(spec, j, i)
            for u in all_words(n, flank):
                for w in all_words(n, flank - len(u)):
                    multiple = (
                        NCElement.monomial(spec, u)
                        * relation
                        * NCElement.monomial(spec, w)
                    )
                    residue = coproduct(multiple, strong=True)
                    if not residue.is_zero():
                        certificates.append(
                            {
                                "law": "coproduct on relations",
                                "i": i + 1,
                                "j": j + 1,
                                "left": _word_str(u),
                                "right": _word_str(w),
                                "residue": str(residue),
                            }
                        )
    return certificates


def _law_certificates(spec: AlgebraSpec, monomial: NCElement) -> list[dict]:
    """A certificate for each of coassociativity, the counit laws and the
    antipode laws that fails on one monomial, in that order."""
    certificates = []
    image = coproduct(monomial, strong=True)

    left3 = _delta_on_left(image)
    right3 = _delta_on_right(image)
    if left3 != right3:
        certificates.append(
            {
                "law": "coassociativity",
                "monomial": str(monomial),
                "residue": str(left3 - right3),
            }
        )

    # the terms with an empty slot, keyed by the other one
    from_left = monomial._like({(r, g): c for (l, r, g), c in image.terms.items() if not l})
    from_right = monomial._like({(l, g): c for (l, r, g), c in image.terms.items() if not r})
    if from_left != monomial or from_right != monomial:
        certificates.append(
            {
                "law": "counit",
                "monomial": str(monomial),
                "left": str(from_left),
                "right": str(from_right),
            }
        )

    expected = counit(monomial)
    fold_left = NCElement.zero(spec)
    fold_right = NCElement.zero(spec)
    for (l, r, rg), coeff in image.terms.items():
        left_part = antipode(NCElement.monomial(spec, l))
        fold_left = fold_left + _reduced(
            left_part * NCElement.monomial(spec, r, rg)
        ).scale(coeff)
        right_part = antipode(NCElement.monomial(spec, r, rg))
        fold_right = fold_right + _reduced(
            NCElement.monomial(spec, l) * right_part
        ).scale(coeff)
    if fold_left != expected or fold_right != expected:
        certificates.append(
            {
                "law": "antipode",
                "monomial": str(monomial),
                "left": str(fold_left),
                "right": str(fold_right),
                "expected": str(expected),
            }
        )
    return certificates


def _finite_checks_pass(spec: AlgebraSpec) -> bool:
    """Delta and S kill each bare relation, and every law holds on each
    v_i; the group letters need no check (see check_hopf_axioms)."""
    if _relation_certificates(spec, 0):
        return False
    n = spec.n
    for i in range(n):
        for j in range(i + 1, n):
            if not antipode(defining_relation(spec, j, i)).is_zero():
                return False
    return not any(_law_certificates(spec, NCElement.monomial(spec, (i,))) for i in range(n))


def _sweep(spec: AlgebraSpec, d: int) -> HopfReport:
    """The degree-bounded sweep: relation multiples, then every law on
    every sorted monomial w of degree <= d at the identity letter, and at
    the other group letters only where w * e leaves a certificate.

    Write shift_g for the map on tensor keys, and on NCElement keys, that
    multiplies the last slot's letter by g on the right.  It is a
    bijection on keys that leaves coefficients alone, so it commutes with
    sums, scaling and equality.  For every spec, with no premise:

    - Delta(w g) = shift_g Delta(w) (the proof is in ``_monomial_delta``).
    - ``_delta_on_left`` and ``_delta_on_right`` commute with shift_g:
      the first carries the last letter through, and the second reads
      Delta(r h g) = shift_g Delta(r h), since G is abelian.
    - The counit projections commute with shift_g: they keep the terms
      with an empty slot and move the letter with the other slot.
    - ``antipode`` keeps the letter on the right and scales by factors of
      the word alone, and ``normal_form`` commutes with right
      multiplication by a group letter (the proof is in its docstring),
      so both antipode folds commute with shift_g.

    So each law holds on w g exactly when it holds on w e, and
    ``_law_certificates`` is empty at every letter when it is empty at
    the identity.  The group yields its identity first, and that result
    is kept, so the certificates and their order are those of the sweep
    over every letter.
    """
    strong, _ = decided_vanishing(spec, strong=True)
    flank = 0 if strong and decided_confluence(spec) else d - 1
    certificates = _relation_certificates(spec, flank)
    well_defined = not certificates
    for word in pbw_words(spec.n, d):
        letters = iter(spec.group)
        found = _law_certificates(spec, NCElement.monomial(spec, word, next(letters)))
        certificates += found
        if found:
            for g in letters:
                certificates += _law_certificates(spec, NCElement.monomial(spec, word, g))
    failed = {cert["law"] for cert in certificates}
    return HopfReport(
        degree=d,
        strong_vanishing=strong,
        delta_well_defined=well_defined,
        coassociative="coassociativity" not in failed,
        counit_laws="counit" not in failed,
        antipode_law="antipode" not in failed,
        certificates=tuple(certificates),
    )


def check_hopf_axioms(spec: AlgebraSpec, d: int = 3) -> HopfReport:
    """Decide the coalgebra and antipode laws up to degree d.

    Where strong vanishing holds and the rewriting system is confluent,
    finitely many checks decide the laws in every degree:

    * Delta(rel) = 0 for each bare relation;
    * S(rel) = 0 for each bare relation;
    * coassociativity, both counit laws and both antipode laws on each v_i.

    The extension to all of A is the standard one for braided bialgebras
    (Takeuchi, "Survey of braided Hopf algebras", Contemp. Math. 267,
    2000; Majid, *Foundations of Quantum Group Theory*, CUP 1995,
    ch. 10).  Strong vanishing makes each relation homogeneous for the
    degree pairing, so the twist is well defined on the quotient A, and
    confluence (the overlap oracle, by Bergman's diamond lemma) makes
    ``normal_form`` a function on A, so the braided tensor powers of A
    are associative.  Delta is an algebra map from the free algebra, so
    Delta(u rel w) = Delta(u) Delta(rel) Delta(w) and it descends to an
    algebra map on A once the bare relations are in its kernel.  S is a
    twisted anti-algebra map on the free algebra, so S(u rel w) is a
    unit times S(w) S(rel) S(u) and S descends once S(rel) = 0.  Then
    (Delta (x) 1) Delta and (1 (x) Delta) Delta are algebra maps into the
    braided triple tensor power, and so are the two counit maps into A
    (the counit kills every relation, whose terms all have positive word
    length); two algebra maps that agree on a generating set agree
    everywhere.
    The set on which an antipode law holds is closed under products:
    with Delta(ab) = Delta(a) Delta(b) and S(ab) a twist times S(b) S(a),
    the law for ab folds into the law for a and then for b.  The v_i
    and the generators of G generate A as an algebra, since g^-1 is a
    power of g, and every law is linear.  The group letters need no
    check: each law holds on a monomial w g exactly when it holds on w
    (see ``_sweep``), so on a letter g exactly when it holds on the
    unit, where Delta(1) = 1 (x) 1, eps(1) = 1 and S(1) = 1 make every
    law hold.  So the sweep at any degree could only return every flag
    true and no certificate.  That is the report returned, and its work
    does not depend on d or on |G|.

    Where a premise or a finite check fails, ``_sweep`` decides, and its
    certificates are the report's.  Well-definedness reduces the
    coproduct of every relation multiple u * rel * w with flank words of
    combined length < d, or of the bare relations alone where both
    premises hold, by the algebra-map argument above.  Otherwise the
    flanks stay, because the bare relation does not stand in for its
    multiples: on ex1, where strong vanishing fails, Delta(rel_12) = 0
    but Delta(v1 * rel_12) != 0, and on the non-confluent
    ``corpus(60)[22]``, where it holds, every bare residue is zero and a
    flank residue is not.  The remaining laws sweep sorted monomials of
    degree <= d at the identity letter, and at the other group letters
    only where the identity letter fails, since each law holds on w g
    exactly when it holds on w (see ``_sweep``); linearity extends all
    of them to the full slice.
    """
    if d < 1:
        raise SpecError("the degree bound must be at least 1")
    strong, _ = decided_vanishing(spec, strong=True)
    if not strong:
        warnings.warn(
            "the coproduct does not descend to the quotient of "
            f"{spec.name or 'an unnamed algebra'}; the axiom sweep is exploratory",
            stacklevel=2,
        )
    elif decided_confluence(spec) and _finite_checks_pass(spec):
        return HopfReport(
            degree=d,
            strong_vanishing=True,
            delta_well_defined=True,
            coassociative=True,
            counit_laws=True,
            antipode_law=True,
        )
    return _sweep(spec, d)


__all__ = [
    "BraidedTensorElement",
    "braided_product",
    "coproduct",
    "counit",
    "antipode",
    "HopfReport",
    "check_hopf_axioms",
]
