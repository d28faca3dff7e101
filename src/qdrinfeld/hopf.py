"""Braided tensor squares, the coproduct on the deformation, and the Hopf laws.

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
Delta(v_j) is stored as it stands, and Delta(w g) is Delta(w) with the
letter of its last slot moved by g.  Braided products read per-spec
normal forms of bare words (``algebra.word_normal_form``) shifted by G:
``normal_form`` commutes with right multiplication by a group letter, so
c * v_w * g reduces to c times the memoized normal form of v_w with
every letter moved by g.  The antipode calls ``normal_form`` itself.

``check_hopf_axioms`` decides the laws under the paper's hypotheses
(``colorlie.require_hypotheses``), which make the rewriting confluent,
and its docstring has the proofs; it computes nothing.  The coproduct
kills every bare defining relation on every spec, so where strong
vanishing holds it descends to the quotient.  Where strong vanishing
fails, the braiding does not preserve the relation ideal, so the
quotient has no braided tensor square and the coproduct does not
descend; each strong vanishing violation is the certificate.  On a
sorted word the coproduct is the quantum shuffle coproduct, so
coassociativity and the counit laws hold on every spec, and under
confluence so does the antipode law.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

from .algebra import AlgebraSpec, NCElement, SpecCombination, normal_form, word_normal_form
from .colorlie import require_hypotheses
from .errors import SpecError
from .groups import GroupElement
from .pbw import check_vanishing  # noqa: F401  (bench/tracing.py patches this binding)
from .scalar import Scalar, accumulate


class BraidedTensorElement(SpecCombination):
    """A sum of canonical tensors v_l (x) v_r g.

    Keys are (l, r, g): group-free words for both slots and the group
    letter of the right slot.  Scalars live in the spec's coefficient
    field.
    """

    __slots__ = ()

    @classmethod
    def unit(cls, spec: AlgebraSpec) -> BraidedTensorElement:
        return cls._trusted((spec,), {((), (), spec.group.identity()): Scalar.one(spec.ctx)})

    @classmethod
    def from_pair(cls, x: NCElement, y: NCElement) -> BraidedTensorElement:
        """Canonical form of x (x) y, migrating x's letters into y."""
        spec = x.spec
        terms: dict = {}
        for (xw, xg), xc in x.terms.items():
            for (yw, yg), yc in y.terms.items():
                coeff = xc * yc * spec.word_char(yw, xg)
                accumulate(terms, (xw, yw, xg * yg), coeff)
        return cls._trusted((spec,), terms)

    def __str__(self) -> str:
        return self.sum_str(_tensor_label, _term_order)


def _term_order(key):
    l, r, g = key
    return (len(l), l), (len(r), r), g.exps


def _tensor_label(key) -> str:
    l, r, g = key
    right = f"{_word_str(r)}*{g}" if r else str(g)
    return _word_str(l) + " (x) " + right


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
    q_ab are multiplied in per pair of terms: each is a unit, one term,
    and a product of two +-zeta^k is a sum of table indices.

    Both slots are read from ``word_normal_form``.  The left slot is the
    normal form of v_al v_bl.  The right slot, v_ar ag v_br bg =
    ``spec.word_char(br, ag)`` v_ar v_br (ag bg), is that of v_ar v_br
    with every letter multiplied by ag bg, since ``normal_form`` commutes
    with right multiplication by a group letter (the proof is in its
    docstring).  The two characters of ag are read as one,
    ``spec.word_char(bl + br, ag)``, since a word character is a product
    over the letters; a migration factor that is the shared one is not
    multiplied in.
    """
    spec = x.spec
    x._check(y)
    word_char = spec.word_char
    one = spec.ctx._one_terms
    result: dict = {}
    for (al, ar, ag), ac in x.terms.items():
        for (bl, br, bg), bc in y.terms.items():
            base = ac * bc * word_char(bl + br, ag)
            for a in ar:
                for b in bl:
                    base = base * spec.q_scalar(a, b)
            shift = ag * bg
            right = word_normal_form(spec, ar + br)
            for (lw, lg), lc in word_normal_form(spec, al + bl).items():
                left = base * lc
                for (rw, rg), rc in right.items():
                    coeff = left * rc
                    migrate = word_char(rw, lg)
                    if migrate.terms is not one:
                        coeff = coeff * migrate
                    accumulate(result, (lw, rw, lg * rg * shift), coeff)
    return x._like(result)


def _monomial_delta(spec: AlgebraSpec, word, g: GroupElement) -> dict:
    """Terms of Delta(v_word g) from the spec's memo, computing missing entries.

    Delta(w v_j) is the braided product of the memoized Delta(w) with
    v_j (x) 1 + 1 (x) v_j, so the bracketing is left to right.  A single
    letter is stored as v_j (x) 1 + 1 (x) v_j itself: its product with
    the unit has twist 1, and both slots are normal.  On any spec,
    Delta(w g) is Delta(w) with the last slot's letter multiplied by g,
    and takes no braided product: that of Delta(w) with 1 (x) g
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
        terms = {((word[-1],), (), identity): one, ((), (word[-1],), identity): one}
        if len(word) > 1:
            prefix = _monomial_delta(spec, word[:-1], identity)
            tensor = BraidedTensorElement._trusted
            terms = braided_product(tensor((spec,), prefix), tensor((spec,), terms)).terms
    memo[key] = terms
    return terms


def coproduct(x: NCElement) -> BraidedTensorElement:
    """Multiplicative extension of v -> v (x) 1 + 1 (x) v, g -> 1 (x) g.

    Applied term by term to the free presentation of x.  Delta of each
    monomial is memoized per spec and built from its prefix; the result is
    always a fresh element.  Under the paper's hypotheses it descends to
    the quotient exactly when the strong character identity holds
    (proofs (1) and (2) of check_hopf_axioms, which reads that identity
    from the PBW report and gives the one warning where it fails).
    """
    spec = x.spec
    total: dict = {}
    for (word, g), coeff in x.terms.items():
        for key, c in _monomial_delta(spec, word, g).items():
            accumulate(total, key, coeff * c)
    return BraidedTensorElement._trusted((spec,), total)


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
    return normal_form(x._like(terms))


# ---------------------------------------------------------------------------
# the laws


@dataclass(frozen=True)
class HopfReport:
    """Outcome of the Hopf laws, asked up to degree d (see check_hopf_axioms)."""

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


def check_hopf_axioms(spec: AlgebraSpec, d: int = 3) -> HopfReport:
    """Decide the coalgebra and antipode laws; the answer is the same at
    every degree bound d >= 1.

    Raise HypothesisNotMet outside the paper's hypotheses
    (``colorlie.require_hypotheses``): there the rewriting need not be
    confluent, ``normal_form`` is then no function on the quotient, and
    the laws would describe the rewriting order, not an algebra.  The
    PBW verdict, which check_pbw holds against the overlap oracle, makes
    the rewriting confluent.  Nothing is computed: the report is read
    off the PBW report that the gate returns, and it does not depend on
    d.  Its certificates are those of the braiding on relations, one per
    strong vanishing violation; coassociativity, the counit laws and the
    antipode law never fail.  Write v_w for the monomial of a word w,
    q_ab for the braiding of v_a past v_b, and shift_g for the map on
    the keys of tensors and of free elements that multiplies the letter
    of the last slot by g on the right.  The literature is Takeuchi, "Survey of
    braided Hopf algebras" (Contemp. Math. 267, 2000), Andruskiewitsch and
    Schneider, "Pointed Hopf algebras" (2002), and Majid, *Foundations of
    Quantum Group Theory* (CUP 1995), ch. 10.

    Relations.  (0) The bare relations.  For j > i, rel_ji = v_j v_i -
    q_ji v_i v_j - kappa(v_j, v_i), where kappa(v_j, v_i) = sum c_rh v_r h
    has words of length one, and Delta(v_r h) = v_r (x) h + 1 (x) v_r h.
    In Delta(v_j v_i) = (v_j (x) 1 + 1 (x) v_j)(v_i (x) 1 + 1 (x) v_i)
    the mixed terms are v_j (x) v_i and, twisted by the crossing, q_ji
    v_i (x) v_j.  The slots of v_j v_i (x) 1 and 1 (x) v_j v_i take the
    one rewrite step v_j v_i = q_ji v_i v_j + kappa(v_j, v_i), and the
    letter h of a kappa term in the left slot migrates right, giving
    v_r (x) h, so
    Delta(v_j v_i) = q_ji (v_i v_j (x) 1 + 1 (x) v_i v_j) + v_j (x) v_i
    + q_ji v_i (x) v_j + Delta(kappa(v_j, v_i)).  The word v_i v_j is
    sorted, so no slot of Delta(v_i v_j) = v_i v_j (x) 1 + v_i (x) v_j +
    q_ij v_j (x) v_i + 1 (x) v_i v_j is rewritten, and
    Delta(rel_ji) = (1 - q_ji q_ij) v_j (x) v_i = 0, since the spec
    stores q_ji = q_ij^-1.  No premise is used: every bare relation is in
    the kernel of the coproduct on every spec, ex1 included.

    (1) Strong vanishing holds.  It makes each relation homogeneous for
    the degree pairing, so the twist is well defined on the quotient A,
    and confluence (by Bergman's diamond lemma) makes ``normal_form`` a
    function on A, so the braided square A (x) A exists and is
    associative.  Delta is an algebra map from the free algebra, so
    Delta(u rel w) = Delta(u) Delta(rel) Delta(w), which is 0 by (0):
    Delta descends, and no relation is visited.

    (2) Strong vanishing fails.  Then Delta does not descend, since A has
    no braided square.  Let T be the free algebra over kG, so A = T / I
    for the ideal I of the relations.  The braiding is c(x (x) y) =
    eps(|x|, |y|) y (x) x on homogeneous x and y, which is the twist of
    ``braided_product`` ((a (x) b)(c (x) d) = eps(|b|, |c|) ac (x) bd),
    with eps(e_a, e_b) = q_ab and eps(e_k, g) = chi_k(g)^-1
    (``colorlie.Bicharacter.from_spec``).  The product of A (x) A is
    well defined only if c maps T (x) I and I (x) T into
    I (x) T + T (x) I, that is, if I is a braided ideal.  Take a strong
    violation: i < j, a term c v_r g of kappa(v_i, v_j) with c != 0, and
    an index k with chi_k(g) != q_ik q_jk q_kr (the identity of
    ``pbw.check_vanishing`` with strong=True).  The spec stores
    kappa(v_j, v_i) = -q_ji kappa(v_i, v_j), so the term of v_r g in
    kappa(v_j, v_i) is c' v_r g with c' = -q_ji c != 0.  Put
    lambda = eps(e_k, e_i + e_j) = q_ki q_kj, the pairing of v_k with
    both v_j v_i and v_i v_j, and mu_rg = eps(e_k, e_r + g) =
    q_kr chi_k(g)^-1 for each term c'_rg v_r g of kappa(v_j, v_i).  Then

        c(v_k (x) rel_ji) = lambda (v_j v_i - q_ji v_i v_j) (x) v_k
                            - sum c'_rg mu_rg v_r g (x) v_k
                          = lambda rel_ji (x) v_k
                            + sum (lambda - mu_rg) c'_rg v_r g (x) v_k.

    The first term lies in I (x) T.  Since q_ik = q_ki^-1, lambda = mu_rg
    exactly when chi_k(g) = q_ik q_jk q_kr, so the sum runs over the
    strong violations at (i, j, k), each with a nonzero coefficient.
    Under the PBW verdict the ordered monomials are a basis of A, the
    v_r g among them, so the sum is x (x) v_k with x != 0 in A, which is
    nonzero in A (x) A; in the canonical form of ``BraidedTensorElement``
    it is the sum of (lambda - mu_rg) c'_rg chi_k(g) v_r (x) v_k g, one
    key per term.  So c(v_k (x) rel_ji) is not in I (x) T + T (x) I.
    So ``delta_well_defined`` is False, and each violation is a
    certificate with law "braiding on relations" and the fields of its
    entry of ``strong_vanishing_violations``: i, j, k, r, g, lhs =
    chi_k(g) and rhs = q_ik q_jk q_kr.  The PBW report renders them
    when they are first read, here.  No degree enters.

    (a) No rewriting.  Let w = w_1 ... w_k be sorted.  The memo builds
    Delta(v_w) from the left, one Delta(v_{w_i}) at a time, so each slot
    of each term is a subsequence of w.  A subsequence of a sorted word
    is sorted, hence normal, so no slot is rewritten, no correction term
    or group letter appears and every migration factor is 1.  What is
    left is the twist: w_j moves into the left slot past every earlier
    w_i in the right slot, so

        Delta(v_w) = sum over S + T = {1..k} of
                     prod_{i in T, j in S, i < j} q_{w_i w_j} v_{w_S} (x) v_{w_T},

    the quantum shuffle coproduct of the diagonal braiding.

    (b) Coassociativity and counit.  Applying (a) to each slot, both
    (Delta (x) 1) Delta(v_w) and (1 (x) Delta) Delta(v_w) are the sum
    over A + B + C = {1..k} of v_{w_A} (x) v_{w_B} (x) v_{w_C} times the
    q_{w_i w_j} over the pairs i < j with (i, j) in (B, A), (C, A) or
    (C, B).  The terms of Delta(v_w) with an empty slot are S = {} and
    T = {}, each with coefficient 1, so both counit projections give
    v_w back.  So both laws hold on every PBW monomial, on every spec.

    (c) Antipode.  In the free algebra, the folds sum c_ST S(v_{w_S})
    v_{w_T} and sum c_ST v_{w_S} S(v_{w_T}) over the terms of (a) are 0
    for k >= 1: that is the antipode of the tensor algebra as a braided
    Hopf algebra.  ``antipode`` is the normal form of the free S, and
    each fold multiplies it by a monomial and takes the normal form
    again.  Under confluence NF(NF(a) b) = NF(a b), since NF(a) - a lies
    in the ideal and NF kills the ideal, so each computed fold is
    NF(0) = 0 = eps(v_w).  On the unit both folds are S(1) 1 = 1 =
    eps(1).  So the law holds on every monomial and is not checked.

    Shift by G.  Delta(w g) = shift_g Delta(w) (``_monomial_delta``),
    ``counit`` and ``antipode`` keep the letter on the right, and
    ``normal_form`` commutes with right multiplication by a group letter
    (the proof is in its docstring), so the folds and the counit at w g
    are those at w shifted by g.  Every law therefore holds on w g
    exactly when it holds on w, and (a) to (c) carry over to every
    letter.
    """
    if d < 1:
        raise SpecError("the degree bound must be at least 1")
    pbw = require_hypotheses(spec)
    strong = pbw.strong_vanishing
    if not strong:
        warnings.warn(
            "the coproduct does not descend to the quotient of "
            f"{spec.name or 'an unnamed algebra'}; the braiding does not preserve "
            "its relations",
            stacklevel=2,
        )
    return HopfReport(
        degree=d,
        strong_vanishing=strong,
        delta_well_defined=strong,
        coassociative=True,
        counit_laws=True,
        antipode_law=True,
        certificates=tuple(
            {"law": "braiding on relations", **violation}
            for violation in pbw.strong_vanishing_violations
        ),
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
