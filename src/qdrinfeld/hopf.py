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
Delta(w) Delta(v_j), so each monomial's value is computed once per spec.
Whether that is well defined on the quotient is checked on
degree-bounded multiples of the defining relations; the verdict tracks
the strong form of the character identity on correction terms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .algebra import (
    AlgebraSpec,
    LinearCombination,
    NCElement,
    accumulate,
    all_words,
    defining_relation,
    h_multiply,
    normal_form,
    pbw_words,
)
from .colorlie import Bicharacter
from .errors import SpecError
from .groups import ADegree, GroupElement
from .pbw import check_vanishing
from .scalar import Scalar


def _monomial_degree(spec: AlgebraSpec, word, g: GroupElement) -> ADegree:
    degree = ADegree.group_degree(spec.n, g)
    for j in word:
        degree = degree * ADegree.generator_degree(spec.n, j, spec.group)
    return degree


class BraidedTensorElement(LinearCombination):
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
    def zero(cls, spec: AlgebraSpec, slots: int = 2) -> BraidedTensorElement:
        return cls(spec, slots, {})

    @classmethod
    def unit(cls, spec: AlgebraSpec, slots: int = 2) -> BraidedTensorElement:
        key = ((),) * slots + (spec.group.identity(),)
        return cls(spec, slots, {key: Scalar.one(spec.ctx)})

    @classmethod
    def from_pair(cls, x: NCElement, y: NCElement) -> BraidedTensorElement:
        """Canonical form of x (x) y, migrating x's letters into y."""
        spec = x.spec
        terms: dict = {}
        for (xw, xg), xc in x.terms.items():
            for (yw, yg), yc in y.terms.items():
                coeff = xc * yc * spec.word_char(yw, xg)
                accumulate(terms, (xw, yw, xg * yg), coeff)
        return cls(spec, 2, terms)

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


def braided_product(
    x: BraidedTensorElement, y: BraidedTensorElement, epsilon: Bicharacter | None = None
) -> BraidedTensorElement:
    """(a (x) b)(c (x) d) = pairing(|b|, |c|) (ac (x) bd), slots reduced.

    The left slots multiply as plain words but their reduction can emit
    group letters from correction terms; those migrate into the right
    slot with the usual diagonal-action factor.
    """
    spec = x.spec
    if x.slots != 2 or y.slots != 2:
        raise SpecError("the braided product is defined on two-slot tensors")
    x._check(y)
    eps = Bicharacter.from_spec(spec) if epsilon is None else epsilon
    identity = spec.group.identity()
    result: dict = {}
    for (al, ar, ag), ac in x.terms.items():
        right_a = NCElement.monomial(spec, ar, ag)
        for (bl, br, bg), bc in y.terms.items():
            twist = eps.eval(_monomial_degree(spec, ar, ag), _monomial_degree(spec, bl, identity))
            left = normal_form(NCElement.monomial(spec, al + bl, identity))
            right = h_multiply(right_a, NCElement.monomial(spec, br, bg))
            base = ac * bc * twist
            for (lw, lg), lc in left.terms.items():
                for (rw, rg), rc in right.terms.items():
                    coeff = base * lc * rc * spec.word_char(rw, lg)
                    accumulate(result, (lw, rw, lg * rg), coeff)
    return BraidedTensorElement(spec, 2, result)


def _monomial_delta(spec: AlgebraSpec, word, g: GroupElement, eps: Bicharacter) -> dict:
    """Terms of Delta(v_word g) from the spec's memo, computing missing entries.

    Delta(w v_j) is the braided product of the memoized Delta(w) with
    v_j (x) 1 + 1 (x) v_j, and Delta(w g) that of Delta(w) with 1 (x) g,
    so the bracketing is left to right.  The memo keeps terms dicts, not
    elements, so it holds no reference back to the spec and dies with it
    without waiting for the cycle collector.  The dicts are shared and
    must not be mutated.
    """
    memo = spec._delta_cache
    key = (word, g)
    terms = memo.get(key)
    if terms is not None:
        return terms
    identity = spec.group.identity()
    if not word and g == identity:
        terms = BraidedTensorElement.unit(spec, 2).terms
    else:
        one = Scalar.one(spec.ctx)
        if g != identity:
            prefix = _monomial_delta(spec, word, identity, eps)
            factor = {((), (), g): one}
        else:
            prefix = _monomial_delta(spec, word[:-1], identity, eps)
            factor = {((word[-1],), (), identity): one, ((), (word[-1],), identity): one}
        product = braided_product(
            BraidedTensorElement(spec, 2, prefix), BraidedTensorElement(spec, 2, factor), eps
        )
        terms = product.terms
    memo[key] = terms
    return terms


def coproduct(x: NCElement, spec: AlgebraSpec | None = None, strong: bool | None = None) -> BraidedTensorElement:
    """Multiplicative extension of v -> v (x) 1 + 1 (x) v, g -> 1 (x) g.

    Applied term by term to the free presentation of x.  Delta of each
    monomial is memoized per spec and built from its prefix; the result is
    always a fresh element.  It only descends to the quotient when the
    strong character identity holds; otherwise a warning is emitted and
    the value is exploratory.
    """
    spec = x.spec if spec is None else spec
    if strong is None:
        strong, _ = check_vanishing(spec, strong=True)
    if not strong:
        warnings.warn(
            "the coproduct does not descend to the quotient here; "
            "values are exploratory",
            stacklevel=2,
        )
    eps = Bicharacter.from_spec(spec)
    total: dict = {}
    for (word, g), coeff in x.terms.items():
        for key, c in _monomial_delta(spec, word, g, eps).items():
            accumulate(total, key, coeff * c)
    return BraidedTensorElement(spec, 2, total)


def counit(x: NCElement) -> NCElement:
    """Projection onto word degree zero; group letters pass through."""
    spec = x.spec
    kept = {key: c for key, c in x.terms.items() if not key[0]}
    return NCElement(spec, kept)


def antipode(x: NCElement, epsilon: Bicharacter | None = None) -> NCElement:
    """S(v) = -v, S(g) = g, twisted anti-multiplicative on words.

    S(uv) = pairing(|u|,|v|) S(v)S(u) on homogeneous factors, so a word
    picks up a sign per letter, the crossing factors of its reversal, and
    its group letter stays on the right.  The result is normal-formed.
    """
    spec = x.spec
    eps = Bicharacter.from_spec(spec) if epsilon is None else epsilon
    total = NCElement.zero(spec)
    for (word, g), coeff in x.terms.items():
        factor = coeff
        for a in range(len(word)):
            for b in range(a + 1, len(word)):
                factor = factor * spec.q_scalar(word[a], word[b])
            factor = -factor
        total = total + NCElement.monomial(spec, tuple(reversed(word)), g, factor)
    return normal_form(total)


# ---------------------------------------------------------------------------
# axiom checks


def _delta_on_left(bt: BraidedTensorElement) -> BraidedTensorElement:
    """(Delta (x) 1): coproduct of the left slot, right slot appended."""
    spec = bt.spec
    result: dict = {}
    for (l, r, g), coeff in bt.terms.items():
        inner = coproduct(NCElement.monomial(spec, l), spec, strong=True)
        for (a, b, bg), c in inner.terms.items():
            migrate = spec.word_char(r, bg)
            accumulate(result, (a, b, r, bg * g), coeff * c * migrate)
    return BraidedTensorElement(spec, 3, result)


def _delta_on_right(bt: BraidedTensorElement) -> BraidedTensorElement:
    """(1 (x) Delta): coproduct of the right slot, left slot prepended."""
    spec = bt.spec
    result: dict = {}
    for (l, r, g), coeff in bt.terms.items():
        inner = coproduct(NCElement.monomial(spec, r, g), spec, strong=True)
        for (b, c, cg), value in inner.terms.items():
            accumulate(result, (l, b, c, cg), coeff * value)
    return BraidedTensorElement(spec, 3, result)


@dataclass(frozen=True)
class HopfReport:
    """Outcome of the degree-bounded axiom sweep."""

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
        return {
            "degree": self.degree,
            "strong_vanishing": self.strong_vanishing,
            "delta_well_defined": self.delta_well_defined,
            "coassociative": self.coassociative,
            "counit_laws": self.counit_laws,
            "antipode_law": self.antipode_law,
            "passed": self.passed,
            "certificates": list(self.certificates),
        }


def check_hopf_axioms(spec: AlgebraSpec, d: int = 3) -> HopfReport:
    """Verify the coalgebra laws on a degree-bounded spanning set.

    Well-definedness reduces the coproduct of every relation multiple
    u * rel * w with flank words of combined length < d.  The remaining
    laws sweep sorted monomials of degree <= d against every group
    letter; linearity extends all of them to the full slice.
    """
    if d < 1:
        raise SpecError("the degree bound must be at least 1")
    strong, _ = check_vanishing(spec, strong=True)
    if not strong:
        warnings.warn(
            "the coproduct does not descend to the quotient here; "
            "the axiom sweep is exploratory",
            stacklevel=2,
        )
    eps = Bicharacter.from_spec(spec)
    n = spec.n
    identity = spec.group.identity()
    certificates = []

    def delta(x: NCElement) -> BraidedTensorElement:
        return coproduct(x, spec, strong=True)

    well_defined = True
    flank = d - 1
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
                    residue = delta(multiple)
                    if not residue.is_zero():
                        well_defined = False
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

    coassociative = True
    counit_ok = True
    antipode_ok = True
    for word in pbw_words(n, d):
        for g in spec.group:
            monomial = NCElement.monomial(spec, word, g)
            image = delta(monomial)

            left3 = _delta_on_left(image)
            right3 = _delta_on_right(image)
            if left3 != right3:
                coassociative = False
                certificates.append(
                    {
                        "law": "coassociativity",
                        "monomial": str(monomial),
                        "residue": str(left3 - right3),
                    }
                )

            from_left = NCElement.zero(spec)
            from_right = NCElement.zero(spec)
            for (l, r, rg), coeff in image.terms.items():
                if not l:
                    from_left = from_left + NCElement.monomial(spec, r, rg, coeff)
                if not r:
                    from_right = from_right + NCElement.monomial(spec, l, rg, coeff)
            if from_left != monomial or from_right != monomial:
                counit_ok = False
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
                left_part = antipode(NCElement.monomial(spec, l), eps)
                fold_left = fold_left + h_multiply(
                    left_part, NCElement.monomial(spec, r, rg)
                ).scale(coeff)
                right_part = antipode(NCElement.monomial(spec, r, rg), eps)
                fold_right = fold_right + h_multiply(
                    NCElement.monomial(spec, l), right_part
                ).scale(coeff)
            if fold_left != expected or fold_right != expected:
                antipode_ok = False
                certificates.append(
                    {
                        "law": "antipode",
                        "monomial": str(monomial),
                        "left": str(fold_left),
                        "right": str(fold_right),
                        "expected": str(expected),
                    }
                )

    return HopfReport(
        degree=d,
        strong_vanishing=strong,
        delta_well_defined=well_defined,
        coassociative=coassociative,
        counit_laws=counit_ok,
        antipode_law=antipode_ok,
        certificates=tuple(certificates),
    )


__all__ = [
    "BraidedTensorElement",
    "braided_product",
    "coproduct",
    "counit",
    "antipode",
    "HopfReport",
    "check_hopf_axioms",
]
