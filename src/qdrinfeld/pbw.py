"""Decision procedures for the PBW property of skew group deformations.

The defining relations replace v_j v_i (j > i) by a q-weighted
reordering plus a group-twisted correction in the span of the v_r g.
Whether the ordered monomials v_1^{m_1} ... v_n^{m_n} g remain a basis
of the quotient is decided here twice over: once through closed-form
scalar identities on the correction coefficients, and once through a
rewriting oracle that resolves every overlapping reduction directly.
The two verdicts must agree on every valid input; tests enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraSpec, NCElement, kappa_element, normal_form
from .errors import InternalInconsistency
from .groups import GroupElement
from .scalar import Scalar


def _kappa_coeff(spec: AlgebraSpec, i: int, j: int, r: int, g: GroupElement) -> Scalar:
    """Coefficient of v_r g in kappa(v_i, v_j)."""
    return kappa_element(spec, i, j).terms.get(((r,), g), Scalar.zero(spec.ctx))


def _support_elements(spec: AlgebraSpec) -> list[GroupElement]:
    """Group elements that carry a nonzero correction term, sorted."""
    seen: dict = {}
    for i, j in spec.kappa_support():
        for _, g, _ in spec.kappa_pairs(i, j):
            seen[g.exps] = g
    return [seen[key] for key in sorted(seen)]


def _distinct_triples(n: int):
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i != j and j != k and i != k:
                    yield i, j, k


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

    Two families, swept over every group element in the correction
    support and every ordered triple of distinct generator indices.
    """
    violations = []
    one = Scalar.one(spec.ctx)
    n = spec.n
    for g in _support_elements(spec):
        for i, j, k in _distinct_triples(n):
            for r in range(n):
                if r == i or r == j:
                    continue
                c = _kappa_coeff(spec, i, j, r, g)
                if c.is_zero():
                    continue
                lhs = spec.char_value(k, g)
                rhs = spec.q_scalar(j, k) * spec.q_scalar(i, k) * spec.q_scalar(k, r)
                if lhs != rhs:
                    violations.append(
                        {
                            "family": "reordering",
                            "i": i + 1,
                            "j": j + 1,
                            "k": k + 1,
                            "r": r + 1,
                            "g": str(g),
                            "lhs": str(lhs),
                            "rhs": str(rhs),
                            "coefficient": str(c),
                        }
                    )
            combo = (one - spec.q_scalar(i, j) * spec.char_value(i, g)) * _kappa_coeff(
                spec, j, k, k, g
            ) + (spec.q_scalar(j, k) - spec.char_value(k, g)) * _kappa_coeff(
                spec, i, j, i, g
            )
            if not combo.is_zero():
                violations.append(
                    {
                        "family": "mixed",
                        "i": i + 1,
                        "j": j + 1,
                        "k": k + 1,
                        "g": str(g),
                        "value": str(combo),
                    }
                )
    return not violations, tuple(violations)


def check_condition3(spec: AlgebraSpec) -> tuple[bool, tuple[dict, ...]]:
    """Degree-one obstruction: cyclic sums must vanish in the span of v_r g."""
    violations = []
    for g in _support_elements(spec):
        for i, j, k in _cyclic_classes(spec.n):
            total = NCElement.zero(spec)
            for a, b, c in _rotations(i, j, k):
                head = (spec.char_value(c, g) - spec.q_scalar(b, c)) * _kappa_coeff(
                    spec, a, b, a, g
                )
                total = total + kappa_element(spec, c, a).scale(head)
                qbc = spec.q_scalar(b, c)
                for r, h, coeff in spec.kappa_pairs(a, b):
                    if h != g:
                        continue
                    total = total + kappa_element(spec, c, r).scale(qbc * coeff)
            if not total.is_zero():
                violations.append(
                    {
                        "i": i + 1,
                        "j": j + 1,
                        "k": k + 1,
                        "g": str(g),
                        "residue": str(total),
                    }
                )
    return not violations, tuple(violations)


def _remark2_holds(spec: AlgebraSpec) -> bool:
    """Alternative degree-two form, computed in the q-symmetric algebra."""
    q_only = AlgebraSpec(
        spec.ctx,
        spec.group,
        spec.chars,
        {(i, j): spec.q_scalar(i, j) for i in range(spec.n) for j in range(i + 1, spec.n)},
        {},
        name=spec.name + ":q-only" if spec.name else "q-only",
    )
    for g in _support_elements(spec):
        for i, j, k in _cyclic_classes(spec.n):
            total = NCElement.zero(q_only)
            for a, b, c in _rotations(i, j, k):
                qbc = spec.q_scalar(b, c)
                twist = spec.q_scalar(c, a) * spec.char_value(c, g)
                for r, h, coeff in spec.kappa_pairs(a, b):
                    if h != g:
                        continue
                    total = total + NCElement.monomial(q_only, (c, r), coeff=qbc * coeff)
                    total = total - NCElement.monomial(q_only, (r, c), coeff=twist * coeff)
            if not normal_form(total).is_zero():
                return False
    return True


def _remark3_holds(spec: AlgebraSpec) -> bool:
    """Alternative degree-one form: corrections composed on either side."""
    for g in _support_elements(spec):
        for i, j, k in _cyclic_classes(spec.n):
            total = NCElement.zero(spec)
            for a, b, c in _rotations(i, j, k):
                qbc = spec.q_scalar(b, c)
                twist = spec.q_scalar(c, a) * spec.char_value(c, g)
                for r, h, coeff in spec.kappa_pairs(a, b):
                    if h != g:
                        continue
                    total = total + kappa_element(spec, r, c).scale(twist * coeff)
                    total = total - kappa_element(spec, c, r).scale(qbc * coeff)
            if not total.is_zero():
                return False
    return True


def check_vanishing(spec: AlgebraSpec, strong: bool = False) -> tuple[bool, tuple[dict, ...]]:
    """Character-equals-q-product test over the stored correction terms.

    For every stored coefficient of v_r g in kappa(v_i, v_j) and every
    reordering index k the value chi_k(g) must equal q_ik q_jk q_kr.
    With strong=False the index k avoids i and j; with strong=True all
    k are tested.
    """
    violations = []
    for i, j in spec.kappa_support():
        for r, g, _ in spec.kappa_pairs(i, j):
            for k in range(spec.n):
                if not strong and k in (i, j):
                    continue
                lhs = spec.char_value(k, g)
                rhs = spec.q_scalar(i, k) * spec.q_scalar(j, k) * spec.q_scalar(k, r)
                if lhs != rhs:
                    violations.append(
                        {
                            "i": i + 1,
                            "j": j + 1,
                            "k": k + 1,
                            "r": r + 1,
                            "g": str(g),
                            "lhs": str(lhs),
                            "rhs": str(rhs),
                        }
                    )
    return not violations, tuple(violations)


def check_jacobi_sum(spec: AlgebraSpec) -> tuple[bool, tuple[dict, ...]]:
    """Cyclic q-weighted self-composition of the correction map.

    The correction of (v_a, v_b) lands in the span of v_r h; composing
    with v_c on the left extends over the group letter by right
    multiplication.  The cyclic sum over each distinct triple must
    vanish.  This is the obstruction that becomes the Jacobi identity
    on the associated bracket.
    """
    violations = []
    for i, j, k in _cyclic_classes(spec.n):
        total = NCElement.zero(spec)
        for a, b, c in _rotations(i, j, k):
            qbc = spec.q_scalar(b, c)
            for r, h, coeff in spec.kappa_pairs(a, b):
                letter = NCElement.group_unit(spec, h)
                total = total + (kappa_element(spec, c, r) * letter).scale(qbc * coeff)
        if not total.is_zero():
            violations.append(
                {"i": i + 1, "j": j + 1, "k": k + 1, "residue": str(total)}
            )
    return not violations, tuple(violations)


def overlap_oracle(spec: AlgebraSpec) -> bool:
    """Resolve every overlapping reduction directly.

    Independent of the closed-form conditions: descending chains
    v_k v_j v_i are reduced through both association orders, group
    products acting on a generator are compared against the action of
    each factor, and a group element is pushed through a reduction
    before and after reducing.  True iff everything matches.
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
    for g in spec.group:
        for h in spec.group:
            gh = g * h
            for i in range(n):
                joint = spec.char_value(i, gh)
                split = spec.char_value(i, g) * spec.char_value(i, h)
                if joint != split:
                    return False
    for g in spec.group:
        unit = NCElement.group_unit(spec, g)
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
    remark_cond2: bool
    remark_cond3: bool
    verdict: bool

    def as_dict(self) -> dict:
        return {
            "cond1": self.cond1,
            "cond2": self.cond2,
            "cond3": self.cond3,
            "cond1_violations": list(self.cond1_violations),
            "cond2_violations": list(self.cond2_violations),
            "cond3_violations": list(self.cond3_violations),
            "vanishing": self.vanishing,
            "vanishing_violations": list(self.vanishing_violations),
            "strong_vanishing": self.strong_vanishing,
            "strong_vanishing_violations": list(self.strong_vanishing_violations),
            "fixed_point_free": self.fixed_point_free,
            "oracle_confluent": self.oracle_confluent,
            "remark_cond2": self.remark_cond2,
            "remark_cond3": self.remark_cond3,
            "verdict": self.verdict,
        }


def check_pbw(spec: AlgebraSpec) -> PBWReport:
    """Run all sub-checks and assemble the report.

    The alternative forms of the degree obstructions are evaluated as
    well; together with invariance they must reproduce the primary
    verdict, and a disagreement means a bug, not a property of the
    input.
    """
    cond1, cond1_violations = check_invariance(spec)
    cond2, cond2_violations = check_condition2(spec)
    cond3, cond3_violations = check_condition3(spec)
    vanishing, vanishing_violations = check_vanishing(spec, strong=False)
    strong, strong_violations = check_vanishing(spec, strong=True)
    remark2 = _remark2_holds(spec)
    remark3 = _remark3_holds(spec)
    verdict = cond1 and cond2 and cond3
    if (cond1 and remark2 and remark3) != verdict:
        raise InternalInconsistency(
            "alternative condition forms disagree with the primary forms on "
            f"{spec.name or 'an unnamed algebra'}"
        )
    return PBWReport(
        cond1=cond1,
        cond2=cond2,
        cond3=cond3,
        cond1_violations=cond1_violations,
        cond2_violations=cond2_violations,
        cond3_violations=cond3_violations,
        vanishing=vanishing,
        vanishing_violations=vanishing_violations,
        strong_vanishing=strong,
        strong_vanishing_violations=strong_violations,
        fixed_point_free=all(not chi.is_identity() for chi in spec.chars),
        oracle_confluent=overlap_oracle(spec),
        remark_cond2=remark2,
        remark_cond3=remark3,
        verdict=verdict,
    )
