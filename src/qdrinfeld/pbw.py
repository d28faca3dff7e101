"""Decision procedures for the PBW property of skew group deformations.

The defining relations replace v_j v_i (j > i) by a q-weighted
reordering plus a group-twisted correction in the span of the v_r g.
Whether the ordered monomials v_1^{m_1} ... v_n^{m_n} g remain a basis
of the quotient is decided here twice over: once through closed-form
scalar identities on the correction coefficients, and once through a
rewriting oracle that resolves every overlapping reduction directly.
The two verdicts must agree on every valid input; check_pbw raises if not.

The deciders keep their failures as raw tuples of indices, group
letters, scalars and residue terms, and print nothing.  A failure
becomes a certificate dict only where it is read: in the report, on the
first read of a violation field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    AlgebraSpec,
    NCElement,
    kappa_element,
    nc_str,
    normal_form,
    word_normal_form,
)
from .errors import InternalInconsistency
from .groups import GroupElement
from .scalar import Scalar, accumulate


def _kappa_coeff(spec: AlgebraSpec, i: int, j: int, r: int, g: GroupElement) -> Scalar:
    """Coefficient of v_r g in kappa(v_i, v_j)."""
    return spec._kappa.get((i, j), {}).get(((r,), g), Scalar.zero(spec.ctx))


def _cyclic_classes(n: int):
    """One ordered representative per cyclic class of distinct triples."""
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                if j != k:
                    yield i, j, k


def _invariance_failures(spec: AlgebraSpec) -> list[tuple]:
    """(i, j, r, g, product, target), i < j, for each stored term v_r g
    of kappa(v_i, v_j) where product = chi_i chi_j differs from
    target = chi_r."""
    failures = []
    for i, j in spec.kappa_support():
        product = spec.chars[i] * spec.chars[j]
        for r, g, _ in spec.kappa_pairs(i, j):
            target = spec.chars[r]
            if product != target:
                failures.append((i, j, r, g, product, target))
    return failures


def _invariance_certificate(failure) -> dict:
    i, j, r, g, product, target = failure
    return {
        "i": i + 1,
        "j": j + 1,
        "r": r + 1,
        "g": str(g),
        "char_product": list(product.exps),
        "char_of_target": list(target.exps),
    }


def _condition2_failures(spec: AlgebraSpec, weak_failures) -> list[tuple]:
    """Degree-two obstruction, as scalar identities.

    Two families over a group element g and an ordered triple (i, j, k)
    of distinct generator indices.  A "reordering" entry tests the
    coefficient of v_r g in kappa(v_i, v_j) for each r other than i and
    j: it is the vanishing identity chi_k(g) = q_ik q_jk q_kr of that
    term, so the entries are the weak vanishing failures with r outside
    {i, j}, on both orders of the pair.  The "mixed" entry is
    q_ij (q_ji - chi_i(g)) c_jk(v_k g) + (q_jk - chi_k(g)) c_ij(v_i g).
    Since q_ik q_ki = 1, the weak identity of the term v_k g of
    kappa(v_j, v_k) at i reads chi_i(g) = q_ji, and that of v_i g of
    kappa(v_i, v_j) at k reads chi_k(g) = q_jk: each bracket vanishes
    unless the term that carries it fails weak vanishing.  So weak
    vanishing implies condition 2, and the combination is computed only
    on the triples such a failure marks.  Entries are ordered by g's
    exponents, then (i, j, k), the reordering ones by r before the
    mixed one.

    The failures are ("reordering", i, j, k, r, g, lhs, rhs, coefficient)
    and ("mixed", i, j, k, g, value), read off weak_failures.
    """
    entries = []
    marked: dict = {}
    for i, j, r, g, k, lhs, rhs in weak_failures:
        for a, b in ((i, j), (j, i)):
            if r == a:
                marked[(g.exps, a, b, k)] = g
            elif r == b:
                marked[(g.exps, k, a, b)] = g
            else:
                coeff = _kappa_coeff(spec, a, b, r, g)
                failure = ("reordering", a, b, k, r, g, lhs, rhs, coeff)
                entries.append(((g.exps, a, b, k, 0, r), failure))
    one = Scalar.one(spec.ctx)
    for (exps, i, j, k), g in marked.items():
        onward, own = _kappa_coeff(spec, j, k, k, g), _kappa_coeff(spec, i, j, i, g)
        combo = (one - spec.q_scalar(i, j) * spec.char_value(i, g)) * onward + (
            spec.q_scalar(j, k) - spec.char_value(k, g)
        ) * own
        if not combo.is_zero():
            entries.append(((exps, i, j, k, 1), ("mixed", i, j, k, g, combo)))
    return [failure for _, failure in sorted(entries, key=lambda item: item[0])]


def _condition2_certificate(failure) -> dict:
    family, i, j, k, *rest = failure
    if family == "reordering":
        r, g, lhs, rhs, coeff = rest
        return dict(
            family=family, i=i + 1, j=j + 1, k=k + 1, r=r + 1, g=str(g),
            lhs=str(lhs), rhs=str(rhs), coefficient=str(coeff),
        )
    g, value = rest
    return dict(family=family, i=i + 1, j=j + 1, k=k + 1, g=str(g), value=str(value))


def _cyclic_sums(spec: AlgebraSpec, term):
    """One element per cyclic class (i, j, k) of distinct generators.

    The element sums term(a, b, c, r, h, coeff) * h over the rotations
    (a, b, c) of the class and the terms coeff * v_r h of kappa(v_a, v_b).
    Right multiplication by h only moves each letter x to x h, so terms
    from different source letters that land on one product letter meet,
    and may cancel, in one dict.
    """
    if not spec._kappa:
        return
    for i, j, k in _cyclic_classes(spec.n):
        terms: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for ((r,), h), coeff in spec._kappa.get((a, b), {}).items():
                for (word, x), value in term(a, b, c, r, h, coeff).terms.items():
                    accumulate(terms, (word, x * h), value)
        yield i, j, k, NCElement._trusted((spec,), terms)


def _condition3_failures(spec: AlgebraSpec) -> list[tuple]:
    """Degree-one obstruction: cyclic sums must vanish in the span of v_r g.

    The term v_a h of kappa(v_a, v_b) composes with chi_c(h), the others
    with q_bc; each residue is kept at the letters it lands on.

    The failures are (i, j, k, residue) for each cyclic class whose sum
    is nonzero.  The residue is kept as its terms: an NCElement holds
    its spec, and the report is kept on the spec.
    """

    def term(a, b, c, r, h, coeff):
        if r == a:
            return kappa_element(spec, c, a).scale(spec.char_value(c, h) * coeff)
        return kappa_element(spec, c, r).scale(spec.q_scalar(b, c) * coeff)

    return [
        (i, j, k, total.terms)
        for i, j, k, total in _cyclic_sums(spec, term)
        if not total.is_zero()
    ]


def _condition3_certificate(failure) -> dict:
    i, j, k, residue = failure
    return {"i": i + 1, "j": j + 1, "k": k + 1, "residue": nc_str(residue)}


def _identity_failures(spec: AlgebraSpec) -> list[tuple]:
    """(i, j, r, g, k, lhs, rhs), i < j, for each stored term v_r g of
    kappa(v_i, v_j) and each index k where lhs = chi_k(g) differs from
    rhs = q_ik q_jk q_kr.  In the order of kappa_support, then of the
    terms, then of k."""
    failures = []
    for i, j in spec.kappa_support():
        pair_q = [spec.q_scalar(i, k) * spec.q_scalar(j, k) for k in range(spec.n)]
        for r, g, _ in spec.kappa_pairs(i, j):
            for k, q_ijk in enumerate(pair_q):
                lhs, rhs = spec.char_value(k, g), q_ijk * spec.q_scalar(k, r)
                if lhs != rhs:
                    failures.append((i, j, r, g, k, lhs, rhs))
    return failures


def _vanishing_certificate(failure) -> dict:
    i, j, r, g, k, lhs, rhs = failure
    return dict(i=i + 1, j=j + 1, k=k + 1, r=r + 1, g=str(g), lhs=str(lhs), rhs=str(rhs))


def check_vanishing(spec: AlgebraSpec, strong: bool = False) -> tuple[bool, tuple[dict, ...]]:
    """Character-equals-q-product test over the stored correction terms.

    For every stored coefficient of v_r g in kappa(v_i, v_j) and every
    reordering index k the value chi_k(g) must equal q_ik q_jk q_kr.
    With strong=False the index k avoids i and j; with strong=True all
    k are tested.  Both strengths are read from check_pbw's report.
    """
    report = check_pbw(spec)
    if strong:
        return report.strong_vanishing, report.strong_vanishing_violations
    return report.vanishing, report.vanishing_violations


def overlap_oracle(spec: AlgebraSpec) -> bool:
    """Resolve every ambiguity of the rewriting system directly.

    Independent of the closed-form conditions: it reads none of them and
    decides by rewriting alone.  The rules rewrite v_j v_i (j > i) to
    N_ji = NF(v_j v_i) = q_ji v_i v_j + kappa(v_j, v_i), which is one
    step (the memo of word_normal_form), and move a group letter g right
    past v_j at the factor chi_j(g).  Every rule lowers (word length,
    inversion count), so Bergman's diamond lemma (Adv. Math. 29, 1978)
    applies: every element has one normal form iff every ambiguity
    resolves, that is iff its two one-step reductions reduce to a common
    element; and then the ordered monomials are a basis.  True iff every
    ambiguity resolves.

    The overlaps are the chains v_k v_j v_i, k > j > i.  One one-step
    reduction is N_kj v_i, the first step normal_form takes on
    v_k v_j v_i, since it rewrites the leftmost descent; so it reduces
    to NF(v_k v_j v_i).  The other is v_k N_ji, whose keys are
    ((k,) + w, h) with the coefficients of N_ji, since v_k carries the
    identity letter; it reduces to NF(v_k N_ji).  Under confluence both
    are the one normal form of v_k v_j v_i, so they are equal.  If they
    differ, v_k v_j v_i has two normal forms, so by the lemma some
    ambiguity cannot be resolved; and if they agree, this overlap
    resolves.

    Write N = N_ji = sum c(w, h) v_w h, nonzero c, and chi_w(g) for the
    product of chi_l(g) over the letters l of w.  Reducing v_j v_i
    last, the group ambiguity g v_j v_i equals chi_i chi_j(g) v_j v_i g,
    whose normal form is chi_i chi_j(g) N g, since normal_form commutes
    with right multiplication by a group letter.  Reducing it first
    gives g N = sum c(w, h) chi_w(g) v_w gh; its words are sorted, so
    normal_form leaves it as it is.  G is abelian and distinct (w, h)
    give distinct (w, gh), so the two agree iff chi_w(g) = chi_i chi_j(g)
    for every term of N.

    The generators suffice.  That identity says that g lies in the
    kernel of the character chi_i chi_j chi_w^-1, and a kernel is a
    subgroup: it holds all of G iff it holds the generators.
    """
    n = spec.n
    for k in range(2, n):
        for j in range(1, k):
            for i in range(j):
                chain = normal_form(NCElement.monomial(spec, (k, j, i)))
                pair = word_normal_form(spec, (j, i)).items()
                other = NCElement._trusted((spec,), {((k,) + w, h): c for (w, h), c in pair})
                if chain != normal_form(other):
                    return False
    generators = [spec.group.generator(t) for t in range(spec.group.rank)]
    if not generators:
        return True
    for j in range(1, n):
        for i in range(j):
            terms = word_normal_form(spec, (j, i))
            for g in generators:
                pair = spec.word_char((j, i), g)
                if any(spec.word_char(word, g) != pair for word, _ in terms):
                    return False
    return True


@dataclass(frozen=True)
class PBWReport:
    """Outcome of every PBW sub-check on one algebra.

    ``failures`` holds the deciders' raw failures under the name of the
    violation field they fill: cond1_violations, cond2_violations,
    cond3_violations, vanishing_violations and
    strong_vanishing_violations.  Each such field renders its failures
    to certificate dicts the first time it is read, and keeps them.
    """

    cond1: bool
    cond2: bool
    cond3: bool
    vanishing: bool
    strong_vanishing: bool
    fixed_point_free: bool
    oracle_confluent: bool
    verdict: bool
    failures: dict

    @cached_property
    def cond1_violations(self) -> tuple[dict, ...]:
        return tuple(map(_invariance_certificate, self.failures["cond1_violations"]))

    @cached_property
    def cond2_violations(self) -> tuple[dict, ...]:
        return tuple(map(_condition2_certificate, self.failures["cond2_violations"]))

    @cached_property
    def cond3_violations(self) -> tuple[dict, ...]:
        return tuple(map(_condition3_certificate, self.failures["cond3_violations"]))

    @cached_property
    def vanishing_violations(self) -> tuple[dict, ...]:
        return tuple(map(_vanishing_certificate, self.failures["vanishing_violations"]))

    @cached_property
    def strong_vanishing_violations(self) -> tuple[dict, ...]:
        return tuple(map(_vanishing_certificate, self.failures["strong_vanishing_violations"]))

    def as_dict(self) -> dict:
        """Verdicts and rendered certificates in the key order of `check --json`."""
        values = {key: getattr(self, key) for key in _REPORT_KEYS}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}


_REPORT_KEYS = (
    "cond1",
    "cond2",
    "cond3",
    "cond1_violations",
    "cond2_violations",
    "cond3_violations",
    "vanishing",
    "vanishing_violations",
    "strong_vanishing",
    "strong_vanishing_violations",
    "fixed_point_free",
    "oracle_confluent",
    "verdict",
)


def check_pbw(spec: AlgebraSpec) -> PBWReport:
    """Run all sub-checks and assemble the report, decided once per spec.

    The verdict is conditions 1-3 together.  The overlap oracle decides
    the same property independently and must reproduce it; a
    disagreement means a bug, not a property of the input.  The report
    is the one place where vanishing is decided: every other module
    reads both strengths from it.  It is kept on the spec and holds no
    reference back to it, so it dies with the spec; it is shared between
    callers and must not be mutated.
    """
    if spec._pbw is None:
        spec._pbw = _pbw_report(spec)
    return spec._pbw


def _pbw_report(spec: AlgebraSpec) -> PBWReport:
    invariance = _invariance_failures(spec)
    # one sweep of the vanishing identity: the weak failures are the
    # strong ones at an index k other than i and j, and condition 2 reads
    # those
    strong = _identity_failures(spec)
    weak = [
        (i, j, r, g, k, lhs, rhs) for i, j, r, g, k, lhs, rhs in strong if k not in (i, j)
    ]
    cond2 = _condition2_failures(spec, weak)
    cond3 = _condition3_failures(spec)
    verdict = not (invariance or cond2 or cond3)
    oracle = overlap_oracle(spec)
    if verdict != oracle:
        raise InternalInconsistency(
            f"the closed-form verdict ({verdict}) and the overlap oracle ({oracle}) "
            f"disagree on {spec.name or 'an unnamed algebra'}"
        )
    return PBWReport(
        cond1=not invariance,
        cond2=not cond2,
        cond3=not cond3,
        vanishing=not weak,
        strong_vanishing=not strong,
        fixed_point_free=all(not chi.is_identity() for chi in spec.chars),
        oracle_confluent=oracle,
        verdict=verdict,
        failures={
            "cond1_violations": tuple(invariance),
            "cond2_violations": tuple(cond2),
            "cond3_violations": tuple(cond3),
            "vanishing_violations": tuple(weak),
            "strong_vanishing_violations": tuple(strong),
        },
    )


__all__ = [
    "check_vanishing",
    "overlap_oracle",
    "PBWReport",
    "check_pbw",
]
