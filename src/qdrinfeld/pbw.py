"""Decision procedures for the PBW property of skew group deformations.

The defining relations replace v_j v_i (j > i) by a q-weighted
reordering plus a group-twisted correction in the span of the v_r g.
Whether the ordered monomials v_1^{m_1} ... v_n^{m_n} g remain a basis
of the quotient is decided here twice over: once through closed-form
scalar identities on the correction coefficients, and once through a
rewriting oracle that resolves every overlapping reduction directly.
The two verdicts must agree on every valid input; check_pbw raises if not.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .algebra import AlgebraSpec, NCElement, kappa_element, normal_form
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


def _rotations(i: int, j: int, k: int):
    return ((i, j, k), (j, k, i), (k, i, j))


def check_invariance(spec: AlgebraSpec) -> tuple[bool, tuple[dict, ...]]:
    """Is the correction map fixed by the group action?

    For a diagonal action this is an exact character identity: the
    characters of the two reordered generators must multiply to the
    character of each generator appearing in the correction.
    """
    violations = []
    for i, j in spec.kappa_support():
        product = spec.chars[i] * spec.chars[j]
        for r, g, _ in spec.kappa_pairs(i, j):
            if product != spec.chars[r]:
                violations.append(
                    {
                        "i": i + 1,
                        "j": j + 1,
                        "r": r + 1,
                        "g": str(g),
                        "char_product": list(product.exps),
                        "char_of_target": list(spec.chars[r].exps),
                    }
                )
    return not violations, tuple(violations)


def check_condition2(spec: AlgebraSpec) -> tuple[bool, tuple[dict, ...]]:
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
    """
    entries = []
    marked: dict = {}
    for i, j, r, g, k, lhs, rhs in _identity_failures(spec, False):
        for a, b in ((i, j), (j, i)):
            if r == a:
                marked[(g.exps, a, b, k)] = g
            elif r == b:
                marked[(g.exps, k, a, b)] = g
            else:
                coeff = _kappa_coeff(spec, a, b, r, g)
                entry = dict(family="reordering", i=a + 1, j=b + 1, k=k + 1, r=r + 1, g=str(g))
                entry.update(lhs=str(lhs), rhs=str(rhs), coefficient=str(coeff))
                entries.append(((g.exps, a, b, k, 0, r), entry))
    one = Scalar.one(spec.ctx)
    for (exps, i, j, k), g in marked.items():
        onward, own = _kappa_coeff(spec, j, k, k, g), _kappa_coeff(spec, i, j, i, g)
        combo = (one - spec.q_scalar(i, j) * spec.char_value(i, g)) * onward + (
            spec.q_scalar(j, k) - spec.char_value(k, g)
        ) * own
        if not combo.is_zero():
            entry = dict(family="mixed", i=i + 1, j=j + 1, k=k + 1, g=str(g), value=str(combo))
            entries.append(((exps, i, j, k, 1), entry))
    violations = tuple(entry for _, entry in sorted(entries, key=lambda item: item[0]))
    return not violations, violations


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
        for a, b, c in _rotations(i, j, k):
            for ((r,), h), coeff in spec._kappa.get((a, b), {}).items():
                for (word, x), value in term(a, b, c, r, h, coeff).terms.items():
                    accumulate(terms, (word, x * h), value)
        yield i, j, k, NCElement._trusted((spec,), terms)


def check_condition3(spec: AlgebraSpec) -> tuple[bool, tuple[dict, ...]]:
    """Degree-one obstruction: cyclic sums must vanish in the span of v_r g.

    The term v_a h of kappa(v_a, v_b) composes with chi_c(h), the others
    with q_bc; each residue is kept at the letters it lands on.
    """

    def term(a, b, c, r, h, coeff):
        if r == a:
            return kappa_element(spec, c, a).scale(spec.char_value(c, h) * coeff)
        return kappa_element(spec, c, r).scale(spec.q_scalar(b, c) * coeff)

    violations = tuple(
        {"i": i + 1, "j": j + 1, "k": k + 1, "residue": str(total)}
        for i, j, k, total in _cyclic_sums(spec, term)
        if not total.is_zero()
    )
    return not violations, violations


def _identity_failures(spec: AlgebraSpec, strong: bool) -> list[tuple]:
    """(i, j, r, g, k, lhs, rhs), i < j, for each stored term v_r g of
    kappa(v_i, v_j) and each index k where lhs = chi_k(g) differs from
    rhs = q_ik q_jk q_kr; k avoids i and j unless strong.  In the order
    of kappa_support, then of the terms, then of k."""
    failures = []
    for i, j in spec.kappa_support():
        pair_q = [
            (k, spec.q_scalar(i, k) * spec.q_scalar(j, k))
            for k in range(spec.n)
            if strong or k not in (i, j)
        ]
        for r, g, _ in spec.kappa_pairs(i, j):
            for k, q_ijk in pair_q:
                lhs, rhs = spec.char_value(k, g), q_ijk * spec.q_scalar(k, r)
                if lhs != rhs:
                    failures.append((i, j, r, g, k, lhs, rhs))
    return failures


def check_vanishing(spec: AlgebraSpec, strong: bool = False) -> tuple[bool, tuple[dict, ...]]:
    """Character-equals-q-product test over the stored correction terms.

    For every stored coefficient of v_r g in kappa(v_i, v_j) and every
    reordering index k the value chi_k(g) must equal q_ik q_jk q_kr.
    With strong=False the index k avoids i and j; with strong=True all
    k are tested.
    """
    violations = tuple(
        dict(i=i + 1, j=j + 1, k=k + 1, r=r + 1, g=str(g), lhs=str(lhs), rhs=str(rhs))
        for i, j, r, g, k, lhs, rhs in _identity_failures(spec, strong)
    )
    return not violations, violations


def overlap_oracle(spec: AlgebraSpec) -> bool:
    """Resolve every overlapping reduction directly.

    Independent of the closed-form conditions: descending chains
    v_k v_j v_i are reduced through both association orders, and a
    generator g of the group is pushed through each pair relation
    v_j v_i before and after reducing.  True iff everything matches.

    The generators suffice.  The two sides differ by the sum over the
    terms c(r, h) v_r h of kappa(v_j, v_i) of
    c(r, h) (chi_i chi_j(g) - chi_r(g)) v_r hg, and distinct h give
    distinct hg.  So they agree iff g lies in the kernel of the
    character chi_i chi_j chi_r^-1 for each r with c(r, h) != 0.  A
    kernel is a subgroup: it holds all of G iff it holds the generators.
    """
    n = spec.n
    for k in range(2, n):
        for j in range(1, k):
            for i in range(j):
                chain = NCElement.monomial(spec, (k, j, i))
                left = normal_form(chain, "leftmost")
                right = normal_form(chain, "rightmost")
                if left != right:
                    return False
    for t in range(spec.group.rank):
        unit = NCElement.group_unit(spec, spec.group.generator(t))
        for j in range(1, n):
            for i in range(j):
                pair = NCElement.monomial(spec, (j, i))
                reduce_last = normal_form(unit * pair)
                reduce_first = normal_form(unit * normal_form(pair))
                if reduce_last != reduce_first:
                    return False
    return True


@dataclass(frozen=True)
class PBWReport:
    """Outcome of every PBW sub-check on one algebra."""

    cond1: bool
    cond2: bool
    cond3: bool
    cond1_violations: tuple
    cond2_violations: tuple
    cond3_violations: tuple
    vanishing: bool
    vanishing_violations: tuple
    strong_vanishing: bool
    strong_vanishing_violations: tuple
    fixed_point_free: bool
    oracle_confluent: bool
    verdict: bool

    def as_dict(self) -> dict:
        """Fields in declaration order, which is the key order of `check --json`."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}


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
    cond1, cond1_violations = check_invariance(spec)
    cond2, cond2_violations = check_condition2(spec)
    cond3, cond3_violations = check_condition3(spec)
    # the weak form tests the same identities on the indices k other than
    # i and j, so its violations are the strong ones with such a k
    strong, strong_violations = check_vanishing(spec, strong=True)
    vanishing_violations = tuple(
        v for v in strong_violations if v["k"] not in (v["i"], v["j"])
    )
    verdict = cond1 and cond2 and cond3
    oracle = overlap_oracle(spec)
    if verdict != oracle:
        raise InternalInconsistency(
            f"the closed-form verdict ({verdict}) and the overlap oracle ({oracle}) "
            f"disagree on {spec.name or 'an unnamed algebra'}"
        )
    return PBWReport(
        cond1=cond1,
        cond2=cond2,
        cond3=cond3,
        cond1_violations=cond1_violations,
        cond2_violations=cond2_violations,
        cond3_violations=cond3_violations,
        vanishing=not vanishing_violations,
        vanishing_violations=vanishing_violations,
        strong_vanishing=strong,
        strong_vanishing_violations=strong_violations,
        fixed_point_free=all(not chi.is_identity() for chi in spec.chars),
        oracle_confluent=oracle,
        verdict=verdict,
    )
