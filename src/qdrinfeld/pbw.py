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
    return spec._kappa_terms.get((i, j), {}).get(((r,), g), Scalar.zero(spec.ctx))


def _live_triples(spec: AlgebraSpec):
    """(g, i, j, k), distinct indices, where kappa(v_i, v_j) has a term on
    the letter g or kappa(v_j, v_k) has a v_k g term; sorted by g's
    exponents, then by (i, j, k)."""
    live: dict = {}
    for (a, b), terms in spec._kappa_terms.items():
        others = [c for c in range(spec.n) if c != a and c != b]
        for (r,), g in terms:
            for c in others:
                live[(g.exps, a, b, c)] = g
                if r == b:
                    live[(g.exps, c, a, b)] = g
    return [(live[key], *key[1:]) for key in sorted(live)]


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
    j; the "mixed" entry tests a combination of the coefficients of
    v_i g in kappa(v_i, v_j) and of v_k g in kappa(v_j, v_k).  Each
    identity is scaled by its coefficients, so it can fail only where
    one of them is nonzero, and that is a stored term of
    kappa(v_i, v_j) on g or a v_k g term of kappa(v_j, v_k): the live
    triples.  They are visited per g in the order of its exponents,
    then per (i, j, k) in lexicographic order, the reordering entries by
    r before the mixed one, which is the order of a sweep over every g
    and every triple.
    """
    violations = []
    one = Scalar.one(spec.ctx)
    n = spec.n
    for g, i, j, k in _live_triples(spec):
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
        onward, own = _kappa_coeff(spec, j, k, k, g), _kappa_coeff(spec, i, j, i, g)
        if onward.is_zero() and own.is_zero():
            continue
        combo = (one - spec.q_scalar(i, j) * spec.char_value(i, g)) * onward + (
            spec.q_scalar(j, k) - spec.char_value(k, g)
        ) * own
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


def _cyclic_sums(spec: AlgebraSpec, term):
    """One element per cyclic class (i, j, k) of distinct generators.

    The element sums term(a, b, c, r, h, coeff) * h over the rotations
    (a, b, c) of the class and the terms coeff * v_r h of kappa(v_a, v_b).
    Right multiplication by h only moves each letter x to x h, so terms
    from different source letters that land on one product letter meet,
    and may cancel, in one dict.
    """
    if not spec.kappa_support():
        return
    for i, j, k in _cyclic_classes(spec.n):
        terms: dict = {}
        for a, b, c in _rotations(i, j, k):
            for r, h, coeff in spec.kappa_pairs(a, b):
                for (word, x), value in term(a, b, c, r, h, coeff).terms.items():
                    accumulate(terms, (word, x * h), value)
        yield i, j, k, NCElement(spec, terms)


def _residues(spec: AlgebraSpec, term) -> tuple[bool, tuple[dict, ...]]:
    violations = tuple(
        {"i": i + 1, "j": j + 1, "k": k + 1, "residue": str(total)}
        for i, j, k, total in _cyclic_sums(spec, term)
        if not total.is_zero()
    )
    return not violations, violations


def check_condition3(spec: AlgebraSpec) -> tuple[bool, tuple[dict, ...]]:
    """Degree-one obstruction: cyclic sums must vanish in the span of v_r g.

    The term v_a h of kappa(v_a, v_b) composes with chi_c(h), the others
    with q_bc; each residue is kept at the letters it lands on.
    """

    def term(a, b, c, r, h, coeff):
        if r == a:
            return kappa_element(spec, c, a).scale(spec.char_value(c, h) * coeff)
        return kappa_element(spec, c, r).scale(spec.q_scalar(b, c) * coeff)

    return _residues(spec, term)


def _remark2_holds(spec: AlgebraSpec) -> bool:
    """Alternative degree-two form, computed in the q-symmetric algebra.

    The cyclic sum is reduced in the spec itself.  Every kappa term has
    length one, so the length-two part of its normal form is exactly the
    normal form in the q-symmetric algebra.  The length-two words carry
    their source letter h, so they never meet across letters.
    """

    def term(a, b, c, r, h, coeff):
        twist = spec.q_scalar(c, a) * spec.char_value(c, h)
        forward = NCElement.monomial(spec, (c, r), coeff=spec.q_scalar(b, c) * coeff)
        return forward - NCElement.monomial(spec, (r, c), coeff=twist * coeff)

    sums = (total for *_, total in _cyclic_sums(spec, term) if not total.is_zero())
    return all(len(word) != 2 for total in sums for word, _ in normal_form(total).terms)


def _remark3_holds(spec: AlgebraSpec) -> bool:
    """Alternative degree-one form: corrections composed on either side."""

    def term(a, b, c, r, h, coeff):
        twist = spec.q_scalar(c, a) * spec.char_value(c, h)
        composed = kappa_element(spec, c, r).scale(spec.q_scalar(b, c) * coeff)
        return kappa_element(spec, r, c).scale(twist * coeff) - composed

    return all(total.is_zero() for *_, total in _cyclic_sums(spec, term))


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

    def term(a, b, c, r, h, coeff):
        return kappa_element(spec, c, r).scale(spec.q_scalar(b, c) * coeff)

    return _residues(spec, term)


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


def _decided(spec: AlgebraSpec, key, decide):
    """decide() on the first call for key, the answer kept on the spec after.

    The answers are booleans and tuples of plain dicts, with no reference
    back to the spec, so the memo dies with it.  They are shared between
    callers and must not be mutated.
    """
    facts = spec._facts
    if key not in facts:
        facts[key] = decide()
    return facts[key]


def decided_vanishing(spec: AlgebraSpec, strong: bool = False) -> tuple[bool, tuple[dict, ...]]:
    """``check_vanishing``, decided once per spec.

    Only the strong form is computed.  The weak form tests the same
    identities on the indices k other than i and j, so its violations
    are the strong ones with such a k, in the same order.
    """
    ok, violations = _decided(spec, "vanishing", lambda: check_vanishing(spec, strong=True))
    if strong:
        return ok, violations
    weak = tuple(v for v in violations if v["k"] not in (v["i"], v["j"]))
    return not weak, weak


def decided_confluence(spec: AlgebraSpec) -> bool:
    """``overlap_oracle``, decided once per spec."""
    return _decided(spec, "confluence", lambda: overlap_oracle(spec))


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
        """Fields in declaration order, which is the key order of `check --json`."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}


def check_pbw(spec: AlgebraSpec) -> PBWReport:
    """Run all sub-checks and assemble the report.

    The alternative forms of the degree obstructions, together with
    invariance, and the overlap oracle must each reproduce the primary
    verdict; a disagreement means a bug, not a property of the input.
    """
    cond1, cond1_violations = check_invariance(spec)
    cond2, cond2_violations = check_condition2(spec)
    cond3, cond3_violations = check_condition3(spec)
    vanishing, vanishing_violations = decided_vanishing(spec, strong=False)
    strong, strong_violations = decided_vanishing(spec, strong=True)
    remark2 = _remark2_holds(spec)
    remark3 = _remark3_holds(spec)
    verdict = cond1 and cond2 and cond3
    alternative = cond1 and remark2 and remark3
    oracle = decided_confluence(spec)
    if not verdict == alternative == oracle:
        raise InternalInconsistency(
            f"the closed-form verdict ({verdict}), its alternative forms ({alternative}) and "
            f"the overlap oracle ({oracle}) disagree on {spec.name or 'an unnamed algebra'}"
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
        oracle_confluent=oracle,
        remark_cond2=remark2,
        remark_cond3=remark3,
        verdict=verdict,
    )
