"""Enveloping algebras of bracket rings and the reverse construction.

The enveloping algebra of a bracket ring imposes u*v - eps(|u|,|v|) v*u =
[u, v] on the tensor algebra of the ring.  For rings whose basis is indexed
by generator/group-letter pairs the group letters can be pushed to the
right of every word, which turns the enveloping algebra into the same
word-times-letter calculus used for the deformations themselves; reduction
is then delegated to the normal-form routine over a derived spec.  Generic
rings (no group structure) reduce words in their own basis indices with a
swap-and-square rule run by the same rewriting engine.

The reverse direction recovers a deformation spec from a purely positive
ring: commutation scalars from the degree pairing, correction terms from
the brackets of identity-letter basis elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraSpec,
    NCElement,
    all_words,
    defining_relation,
    normal_form,
    pbw_monomial_count,
    rewrite,
)
from .colorlie import Combo, ColorLieRing, check_color_axioms, split_parts
from .errors import (
    AxiomsFailed,
    InternalInconsistency,
    NotPurelyPositive,
    NonUnitEpsilon,
    NotAUnit,
    SpecError,
    SymbolicParameter,
)
from .cyclotomic import CyclotomicNumber
from .groups import ADegree, Character, char_exponent
from .pbw import check_pbw
from .pbw import check_vanishing  # noqa: F401  (bench/tracing.py patches this binding)
from .scalar import Scalar, ScalarContext, accumulate


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class UEAPresentation:
    """Rewrite rules for the enveloping algebra of a bracket ring.

    base is "group-algebra" when the ring carries a group-labelled basis
    and the rules live in the skew-group calculus of engine_spec, and
    "field" for generic rings, where swap_rules and square_rules drive a
    word rewriting engine over the ring's own basis indices.
    """

    ring: ColorLieRing
    base: str
    engine_spec: AlgebraSpec | None
    swap_rules: dict[tuple[int, int], tuple[Scalar, Combo]]
    square_rules: dict[int, Combo]

    def reduce(self, terms: dict[tuple[int, ...], Scalar]) -> dict[tuple[int, ...], Scalar]:
        """Normal form of a sum of words in the ring's basis (generic mode)."""
        if self.base != "field":
            raise SpecError("reduce() works on generic presentations; use the engine spec otherwise")
        return rewrite(terms, self._rule)

    def _rule(self, word: tuple[int, ...]):
        """Replacement terms at the leftmost descent or negative square, or None."""
        for p in range(len(word) - 1):
            a, b = word[p], word[p + 1]
            if a > b or (a == b and a in self.square_rules):
                break
        else:
            return None
        head, tail = word[:p], word[p + 2:]
        if a == b:
            return [(head + (u,) + tail, c) for u, c in self.square_rules[a].items()]
        factor, bracket = self.swap_rules[(a, b)]
        return [(head + (b, a) + tail, factor)] + [
            (head + (u,) + tail, c) for u, c in bracket.items()
        ]


def _spec_from_ring(ring: ColorLieRing) -> AlgebraSpec:
    """Deformation data read off a group-labelled ring.

    Commutation scalars are the pairings of generator degrees and the
    correction map is the bracket on identity-letter basis elements; no
    compatibility conditions are checked here.
    """
    if ring.mode != "from_spec" or ring.spec is None:
        raise SpecError("this construction needs a ring with a group-labelled basis")
    base = ring.spec
    n = base.n
    identity = base.group.identity()
    gen_degrees = [ADegree.generator_degree(n, i, base.group) for i in range(n)]
    q: dict[tuple[int, int], Scalar] = {}
    for i in range(n):
        for j in range(i + 1, n):
            value = ring.epsilon.eval(gen_degrees[i], gen_degrees[j])
            if not value.is_unit():
                raise NonUnitEpsilon(
                    f"pairing of generators {i + 1} and {j + 1} is {value}, not a unit"
                )
            q[(i, j)] = value
    kappa: dict[tuple[int, int], tuple] = {}
    for i in range(n):
        for j in range(i + 1, n):
            combo = ring.bracket(ring.index_of((i, identity)), ring.index_of((j, identity)))
            terms = tuple(
                (ring.labels[u][0], ring.labels[u][1], c) for u, c in sorted(combo.items())
            )
            if terms:
                kappa[(i, j)] = terms
    return AlgebraSpec(base.ctx, base.group, base.chars, q, kappa, name=base.name)


def _require_axioms(ring: ColorLieRing) -> None:
    """Raise AxiomsFailed when the ring does not satisfy the bracket axioms."""
    report = check_color_axioms(ring)
    if not report.passed:
        raise AxiomsFailed(
            "the enveloping algebra needs a ring satisfying the bracket axioms; "
            f"first violation: {report.certificates[0] if report.certificates else 'unknown'}"
        )


def build_uea(ring: ColorLieRing) -> UEAPresentation:
    """Presentation of the enveloping algebra, one rule per basis pair.

    Raises AxiomsFailed when the ring does not satisfy the bracket axioms.
    Negative generators of generic rings get the self-rule v*v -> [v,v]/2.
    """
    _require_axioms(ring)
    if ring.mode == "from_spec":
        return UEAPresentation(ring, "group-algebra", _spec_from_ring(ring), {}, {})
    half = Scalar.rational(ring.epsilon.ctx, Fraction(1, 2))
    swap_rules: dict[tuple[int, int], tuple[Scalar, Combo]] = {}
    for s in range(ring.size):
        for t in range(s):
            factor = ring.epsilon.eval(ring.degrees[s], ring.degrees[t])
            swap_rules[(s, t)] = (factor, dict(ring.bracket(s, t)))
    square_rules: dict[int, Combo] = {}
    for s in split_parts(ring).negative:
        square_rules[s] = {u: half * c for u, c in ring.bracket(s, s).items()}
    return UEAPresentation(ring, "field", None, swap_rules, square_rules)


# ---------------------------------------------------------------------------
# the comparison map


def j_generator_image(spec: AlgebraSpec, ring: ColorLieRing, s: int, t: int) -> NCElement:
    """Image in the deformation of the pair relation for basis elements s, t.

    The comparison map sends the basis element v_i (x) g to the product
    v_i * g, so a tensor v_i g (x) v_j h lands on chi_j(g) v_i v_j * gh.
    The returned element is not reduced.
    """
    i, g = ring.labels[s]
    j, h = ring.labels[t]
    factor = ring.epsilon.eval(ring.degrees[s], ring.degrees[t])
    terms: dict[tuple[tuple[int, ...], object], Scalar] = {}
    accumulate(terms, ((i, j), g * h), spec.char_value(j, g))
    accumulate(terms, ((j, i), h * g), -(factor * spec.char_value(i, h)))
    for u, c in ring.bracket(s, t).items():
        r, w = ring.labels[u]
        accumulate(terms, ((r,), w), -c)
    return NCElement._trusted((spec,), terms)


def iso_check(spec: AlgebraSpec, ring: ColorLieRing):
    """Reduce the comparison map's defining data in both directions.

    Forward, every pair relation of the ring is pushed into the
    deformation and reduced there; backward, every defining relation of
    the deformation is rewritten in the enveloping algebra's own calculus.
    Returns (all residues vanish, certificates for the ones that do not).

    Every ordered pair is reduced, then every relation.  On the spec's
    own ring under the paper's hypotheses every residue vanishes;
    colorlie.require_hypotheses has the proof.
    """
    certificates = []
    engine = _spec_from_ring(ring)
    for s in range(ring.size):
        for t in range(ring.size):
            residue = normal_form(j_generator_image(spec, ring, s, t))
            if not residue.is_zero():
                certificates.append(
                    {
                        "direction": "ring to deformation",
                        "left": ring.label_str(s),
                        "right": ring.label_str(t),
                        "residue": str(residue),
                    }
                )
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            relation = defining_relation(spec, j, i)
            residue = normal_form(NCElement._trusted((engine,), relation.terms))
            if not residue.is_zero():
                certificates.append(
                    {
                        "direction": "deformation to enveloping algebra",
                        "i": i + 1,
                        "j": j + 1,
                        "residue": str(residue),
                    }
                )
    return not certificates, certificates


# ---------------------------------------------------------------------------
# graded dimension counts


def instantiate_spec(spec: AlgebraSpec, values: dict[str, Scalar] | None = None) -> AlgebraSpec:
    """Copy of the spec with every parameter replaced by a concrete scalar.

    The defaults are a primitive root of unity for the commutation
    parameters q and p and 1 for every other coefficient; entries of
    ``values`` override them.  Raises SymbolicParameter when an override
    itself still contains a free parameter, and SpecError naming the
    entry and the point when an override of 0 meets a negative power.
    """
    for name in values or {}:
        if name not in spec.ctx.params:
            raise SpecError(f"unknown parameter {name!r}")
    if not spec.ctx.params:
        return spec
    target = ScalarContext(spec.ctx.conductor)
    zeta = Scalar.zeta(target, target.conductor)
    one = Scalar.one(target)
    table = {name: zeta if name in ("q", "p") else one for name in spec.ctx.params}
    for name, value in (values or {}).items():
        if not value.is_constant():
            raise SymbolicParameter(
                f"instantiation for {name!r} is {value}, which still has free parameters"
            )
        table[name] = value.substitute({}, target)

    def substitute(value, label):
        try:
            return value.substitute(table, target)
        except NotAUnit:
            negative = {p for x in value.terms for p, e in zip(spec.ctx.params, x) if e < 0}
            name = next(p for p in spec.ctx.params if p in negative and not table[p].is_unit())
            raise SpecError(f"{label} = {value} is not defined at {name} = {table[name]}") from None

    q = {}
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            q[(i, j)] = substitute(spec.q_scalar(i, j), f"q_{i + 1}{j + 1}")
    kappa = {}
    for i, j in spec.kappa_support():
        kappa[(i, j)] = tuple(
            (r, g, substitute(c, f"the v{r + 1}*{g} coefficient of kappa(v{i + 1}, v{j + 1})"))
            for r, g, c in spec.kappa_pairs(i, j)
        )
    return AlgebraSpec(target, spec.group, spec.chars, q, kappa, name=spec.name)


def _rank(rows) -> int:
    """Rank of sparse rows over the cyclotomics, forward elimination only."""
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = row[col].inverse()
                pivots[col] = {c: v * inv for c, v in row.items()}
                rank += 1
                break
            factor = row.pop(col)
            for c, pv in pivot.items():
                if c != col:
                    accumulate(row, c, -(factor * pv))
    return rank


def dimension_oracle(spec: AlgebraSpec, d: int, instantiate: dict[str, Scalar] | None = None):
    """Count monomials two ways in filtration degree <= d.

    pbw_count is the closed-form count of sorted monomials times group
    letters.  quotient_dim is the corank of the rows u*g1*rel*w*g2 that
    stay inside the bound, over the columns (word, g) with len(word) <= d,
    from exact elimination done one character of G at a time:

    - Right multiplication by x in G sends the row of (u, g1, w, g2) to
      the row of (u, g1, w, g2 x) and permutes the columns,
      (word, g) -> (word, g x).  Left multiplication by x sends it to
      chi_u(x) times the row of (u, x g1, w, g2) and maps (word, g) to
      chi_word(x) (word, x g), where chi_word is the product of the chi_i
      over the word's letters.  The two actions commute, and Q(zeta_m)
      holds every value of every character of G, as the conductor is a
      multiple of the exponent.  So the row space is the direct sum of
      its projections to the isotypic parts of this action of G x G
      (Serre, Linear Representations of Finite Groups, 2.6).
    - The part where right multiplication acts by a character chi has
      the basis [word], and the projection sends (word, g) to
      chi(g) [word]; the row of (u, g1, w, g2) goes to chi(g2) times
      that of (u, g1, w, e).  On [word] left multiplication by x acts by
      chi(x) chi_word(x), so the part splits again by chi_word: the
      projection keeps the pieces of a row whose words have one
      character.  Left multiplication by g1 scales each piece, so the
      pieces of the rows u*rel*w, with g1 = g2 = e, span every part.

    Hence quotient_dim is the sum over chi of W - rank_chi, where W is the
    number of words and rank_chi eliminates those pieces, mapped by chi.
    This uses only how the rows are generated: a kappa term whose word
    character differs from that of its quadratic part lands in another
    piece.  A symbolic spec is instantiated first.
    """
    if d < 0:
        raise SpecError("the degree bound must be nonnegative")
    inst = instantiate_spec(spec, instantiate)
    n, group, m = inst.n, inst.group, inst.ctx.conductor
    words = list(all_words(n, d))
    column = {word: s for s, word in enumerate(words)}
    character = {(): Character(group, (0,) * group.rank)}
    for word in words[1:]:
        character[word] = character[word[:-1]] * inst.chars[word[-1]]
    # per term of a row u*rel*w: its column, the character of its word,
    # its letter h, chi_w(h) as a power of zeta_m and its coefficient
    rows = []
    flank = d - 2
    for i in range(n):
        for j in range(i + 1, n):
            relation = defining_relation(inst, j, i)
            for u in all_words(n, flank):
                for w in all_words(n, flank - len(u)):
                    row = []
                    for (word, h), c in relation.terms.items():
                        key = u + word + w
                        k = char_exponent(character[w], h, m)
                        row.append((column[key], character[key], h, k, c.constant_value()))
                    rows.append(row)
    letters = {h for row in rows for _, _, h, _, _ in row}
    quotient_dim = 0
    for x in group:
        chi = Character(group, x.exps)  # the characters have the exponents of the elements
        at = {h: char_exponent(chi, h, m) for h in letters}
        pieces = []
        for row in rows:
            split: dict = {}
            for s, word_char, h, k, c in row:
                k = (k + at[h]) % m
                accumulate(
                    split.setdefault(word_char, {}),
                    s,
                    c if k == 0 else c * CyclotomicNumber.zeta_power(m, k),
                )
            pieces.extend(piece for piece in split.values() if piece)
        quotient_dim += len(words) - _rank(pieces)
    return pbw_monomial_count(inst, d), quotient_dim


# ---------------------------------------------------------------------------
# the reverse construction


def converse_construct(ring: ColorLieRing) -> AlgebraSpec:
    """Deformation spec recovered from a purely positive ring.

    Commutation scalars come from the degree pairing and correction terms
    from identity-letter brackets.  The compatibility conditions that make
    the recovered spec well behaved (action invariance, the character
    identity on correction terms, and the cyclic sum) are consequences of
    the bracket axioms, so they are asserted after the rebuild, read from
    the rebuilt spec's PBW report, which pbw_for_uea then reuses.

    The cyclic sum is the Jacobi identity of the bracket: each term
    v_r h of kappa(v_a, v_b) composes with v_c at the weight q_bc.
    pbw._condition3_failures weighs a term v_a h by chi_c(h) instead,
    and with c outside {a, b} weak vanishing gives chi_c(h) =
    q_ac q_bc q_ca = q_bc there.  So once weak vanishing holds the two
    sums agree term by term, and condition 3 is the Jacobi sum.
    """
    parts = split_parts(ring)
    if parts.negative:
        labels = ", ".join(ring.label_str(s) for s in parts.negative)
        raise NotPurelyPositive(f"basis elements with self-pairing -1: {labels}")
    rebuilt = _spec_from_ring(ring)
    report = check_pbw(rebuilt)
    if not (report.cond1 and report.vanishing and report.cond3):
        raise InternalInconsistency(
            "the rebuilt spec must inherit the compatibility conditions from "
            f"the bracket axioms on {ring!r}"
        )
    return rebuilt


def pbw_for_uea(ring: ColorLieRing) -> bool:
    """PBW verdict for the enveloping algebra of a purely positive ring."""
    _require_axioms(ring)
    return check_pbw(converse_construct(ring)).verdict


__all__ = [
    "UEAPresentation",
    "build_uea",
    "j_generator_image",
    "iso_check",
    "instantiate_spec",
    "dimension_oracle",
    "converse_construct",
    "pbw_for_uea",
]
