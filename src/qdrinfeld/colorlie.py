"""Color Lie rings: the bracket carried by a deformation, and user tables.

The grading group A is Z^n x G.  A deformation spec induces a pairing
epsilon on A from its q-matrix and characters, and a bracket on the
module spanned by the v_i g.  Alternatively an explicit basis with
degrees, pairing table and bracket table can be supplied, which covers
small hand-built examples such as gl(1|1).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import reduce

from .algebra import AlgebraSpec
from .errors import HypothesisNotMet, InternalInconsistency, NonUnitEpsilon, SpecError, ValueNotSign
from .groups import ADegree, GroupElement, SubgroupN
from .pbw import PBWReport, check_pbw
from .pbw import check_vanishing  # noqa: F401  (bench/tracing.py patches this binding)
from .scalar import Combination, Scalar, ScalarContext, accumulate
from .specfile import GenericLieData

Combo = dict[int, Scalar]


class Bicharacter:
    """Multiplicative antisymmetric pairing on the grading group.

    The table holds the values on pairs of generators of Z^n x G, indexed
    as in ADegree.as_int_vector (free generators first); a pair missing
    from it pairs to 1.  Values are memoized per degree pair.
    """

    def __init__(self, ctx: ScalarContext, table: dict[tuple[int, int], Scalar]):
        self.ctx = ctx
        self._table = table
        self._memo: dict[tuple[ADegree, ADegree], Scalar] = {}

    @classmethod
    def from_spec(cls, spec: AlgebraSpec) -> Bicharacter:
        """The spec's pairing, built once and kept on the spec.

        eps(e_i, e_j) = q_ij, eps(g_t, e_j) = chi_j(g_t) and
        eps(e_i, g_t) = chi_i(g_t^-1) on the group generators g_t, which
        pair to 1 with each other.
        """
        if spec._pairing is None:
            n = spec.n
            table = {(i, j): spec.q_scalar(i, j) for i in range(n) for j in range(n)}
            for t in range(spec.group.rank):
                g = spec.group.generator(t)
                for i in range(n):
                    table[(n + t, i)] = spec.char_value(i, g)
                    table[(i, n + t)] = spec.char_value(i, g.inverse())
            spec._pairing = cls(spec.ctx, table)
        return spec._pairing

    @classmethod
    def from_table(cls, data: GenericLieData) -> Bicharacter:
        """Validate and complete a generator table.

        Missing transposes are filled in as inverses, missing entries
        as 1.  Every entry must be an invertible monomial, square to 1
        on the diagonal, and be killed by the torsion orders.
        """
        count = data.gen_count
        one = Scalar.one(data.ctx)
        table: dict[tuple[int, int], Scalar] = {}
        for (s, t), value in data.epsilon_table.items():
            if not value.is_unit():
                raise NonUnitEpsilon(
                    f"epsilon({s + 1},{t + 1}) = {value} is not an invertible monomial"
                )
            table[(s, t)] = value
        for s in range(count):
            for t in range(count):
                if (s, t) in table:
                    continue
                flipped = table.get((t, s))
                table[(s, t)] = one if flipped is None else flipped.inv()
        for s in range(count):
            for t in range(count):
                if table[(t, s)] != table[(s, t)].inv():
                    raise SpecError(
                        f"epsilon({s + 1},{t + 1}) and epsilon({t + 1},{s + 1}) "
                        "are not inverse to each other"
                    )
        for s in range(count):
            if table[(s, s)] * table[(s, s)] != one:
                raise SpecError(f"epsilon({s + 1},{s + 1}) must square to 1")
        for t, order in enumerate(data.torsion.orders):
            s = data.free_rank + t
            for other in range(count):
                if table[(s, other)] ** order != one or table[(other, s)] ** order != one:
                    raise SpecError(
                        f"epsilon entries for generator {s + 1} must have order "
                        f"dividing {order}"
                    )
        return cls(data.ctx, table)

    def eval(self, a: ADegree, b: ADegree) -> Scalar:
        """The product of table[s, t]^(a_s * b_t) over the generator pairs."""
        value = self._memo.get((a, b))
        if value is None:
            one = Scalar.one(self.ctx)
            factors = []
            vb = b.as_int_vector()
            for s, xs in enumerate(a.as_int_vector()):
                if xs == 0:
                    continue
                for t, yt in enumerate(vb):
                    entry = self._table.get((s, t)) if yt else None
                    if entry is not None and entry != one:
                        factors.append(entry ** (xs * yt))
            value = reduce(operator.mul, factors) if factors else one
            self._memo[(a, b)] = value
        return value


class ColorLieRing:
    """Finite-basis bracketed module graded by A.

    mode "from_spec" carries the basis v_i (x) g with the bracket read
    off the correction map; mode "generic" carries abstract labels with
    explicit data.  The bracket table is complete over ordered index
    pairs and every value is a combination of basis indices.

    A built ring is never mutated in place; a variant is a new ring made
    from copies of the fields.
    """

    def __init__(
        self,
        mode: str,
        labels,
        degrees,
        table: dict[tuple[int, int], Combo],
        epsilon: Bicharacter,
        spec: AlgebraSpec | None = None,
    ) -> None:
        self.mode = mode
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        self.table = table
        self.epsilon = epsilon
        self.spec = spec
        self._index = {label: s for s, label in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def bracket(self, s: int, t: int) -> Combo:
        return self.table.get((s, t), {})

    def bracket_combo(self, s: int, t: int) -> Combination:
        return Combination._trusted((), self.bracket(s, t))

    def index_of(self, label) -> int:
        return self._index[label]

    def label_str(self, s: int) -> str:
        label = self.labels[s]
        if self.mode == "from_spec":
            i, g = label
            return f"v{i + 1}*{g}"
        return str(label)

    def __repr__(self) -> str:
        return f"ColorLieRing(mode={self.mode!r}, size={self.size})"


def require_hypotheses(spec: AlgebraSpec) -> PBWReport:
    """Raise HypothesisNotMet, naming the spec and the hypothesis that
    fails, unless the hypotheses of the paper's two theorems hold: the
    PBW verdict and the weak vanishing condition, read from check_pbw's
    report, which is decided once per spec.  Return that report, so that
    a caller reads strong vanishing from it too.

    This is the one place where the theorems are applied: under
    the hypotheses, the bracket ring is a color Lie ring over kG and its
    enveloping algebra is the deformation.  `lie`, `uea`, `converse` and
    `all` report what follows from that, as proved below, without
    building a ring; check_color_axioms, iso_check, converse_construct
    and dimension_oracle compute it for any ring or spec, and the tests
    compare the two.  check_hopf_axioms, and with it `hopf`, and
    build_color_lie_ring call it too.  Weak vanishing implies condition
    2 (pbw._condition2_failures), so under it the PBW verdict adds only
    conditions 1 and 3.

    - On the spec's own ring (_own_ring), check_color_axioms passes with
      no certificate, and with build_N_and_quotient's N its grading
      check passes too.
    - On the own ring, iso_check passes with no certificate.
    - dimension_oracle's two counts agree at every degree and at every
      point that instantiate_spec accepts, so `uea` reports the
      closed-form count, which reads n, |G| and the degree only, as both.

    The own ring's bracket is [v_i g, v_j h] = chi_j(g) kappa(v_i, v_j) gh,
    and the pairing is bimultiplicative with group letters pairing to 1
    (Bicharacter.from_spec), so eps(v_i g, v_j h) = q_ij chi_j(g) chi_i(h)^-1.
    The spec's invariants are q_ii = 1, q_ij q_ji = 1 and
    kappa(v_j, v_i) = -q_ji kappa(v_i, v_j); the PBW verdict includes
    invariance (condition 1) and condition 3.

    - Antisymmetry: -eps(v_i g, v_j h) [v_j h, v_i g] =
      q_ij q_ji chi_j(g) kappa(v_i, v_j) gh = [v_i g, v_j h].
    - Yetter-Drinfeld: the pairing table pairs g_t with e_i to
      chi_i(g_t) and g_t with g_u to 1, so eps(g, e_i) = chi_i(g), the
      action, for every g.
    - Module laws (check_color_axioms states them): "right" and
      "balanced" are identities of the bracket formula, as chi_j is a
      character.  "left" compares chi_i(g) chi_j(g) with chi_r(g) on each
      term v_r w of kappa(v_i, v_j), so it holds on all of G exactly when
      every term has chi_r = chi_i chi_j, which is invariance.
    - Jacobi, from the letters to the identity letter: let
      R_m(v_i h) = v_i hm and J(x, y, z) = [x, [y, z]] eps(z, x)
      + [z, [x, y]] eps(y, z) + [y, [z, x]] eps(x, y).  By "right",
      [x, R_m w] = R_m [x, w]; by "balanced" and "right",
      [R_m z, w] = chi_r(m) R_m [z, w] for w = v_r u.  With x = v_i g and
      y = v_j h, eps(R_m z, x) = eps(z, x) chi_i(m),
      eps(y, R_m z) = eps(y, z) chi_j(m)^-1, and on every term v_r u of
      [x, y], chi_j(m)^-1 chi_r(m) = chi_i(m) by invariance.  So
      J(x, y, R_m z) = chi_i(m) R_m J(x, y, z), and R_m is a bijection of
      the basis.  J is invariant under rotation, so every slot shifts
      this way, and J vanishes on all (n|G|)^3 triples exactly when it
      vanishes on the n^3 triples (v_i e, v_j e, v_k e).
    - Jacobi on the identity letters: there [v_a e, v_r h] =
      kappa(v_a, v_r) h and eps(v_a e, v_b e) = q_ab.  With a repeated
      index, J(v_a, v_a, v_b) = q_ba [v_a, kappa(v_a, v_b)]
      + q_ab [v_b, kappa(v_a, v_a)] + [v_a, kappa(v_b, v_a)] = 0, as
      kappa(v_a, v_a) = 0 and kappa(v_b, v_a) = -q_ba kappa(v_a, v_b);
      this covers J(v_a, v_a, v_a) as well.  With i, j, k distinct,
      J(v_i, v_j, v_k) is the sum over the rotations (a, b, c) of
      (i, j, k) and the terms c_rh v_r h of kappa(v_a, v_b) of
      q_bc c_rh kappa(v_c, v_r) h.  pbw._condition3_failures sums the
      same terms over the same cyclic classes, except that it weighs a
      term with r = a by chi_c(h), and weak vanishing at c outside
      {a, b} gives chi_c(h) = q_ac q_bc q_ca = q_bc there
      (converse_construct).  So J on those triples is condition 3's
      cyclic sum, which vanishes.
    - Grading modulo N: v_i g has degree (e_i, g), so the product degree
      of v_i g and v_j h is (e_i + e_j, gh), and a bracket term
      v_r (w g h) has degree (e_r, wgh).  Their difference is
      (e_i + e_j - e_r, w^-1), which is the generator of N that
      build_N_and_quotient makes from the term v_r w of kappa(v_i, v_j);
      kappa(v_j, v_i) has the same terms.  So every term is congruent to
      the product degree, by construction of N.
    - Comparison map: let J(v_i, v_j) = v_i v_j - q_ij v_j v_i
      - kappa(v_i, v_j).  Forward, for i < j the normal form of
      J(v_i, v_j) is (1 - q_ij q_ji) v_i v_j
      - (q_ij kappa(v_j, v_i) + kappa(v_i, v_j)), which is 0; for i > j
      one rewrite step is the relation itself, and for i = j, q_ii = 1
      and kappa(v_i, v_i) is empty.  On other pairs, as G is abelian,
      the image of (v_i g, v_j h) is chi_j(g) J(v_i, v_j) gh, and
      normal_form commutes with right multiplication by a group letter
      (see its docstring).  Backward, _spec_from_ring reads back the
      spec's own q, each a unit of a single term, so NonUnitEpsilon
      cannot arise, and its own kappa; each defining relation reduces to
      0 in one step.  Every self-pairing eps(v_i g, v_i g) is
      q_ii chi_i(g) chi_i(g)^-1 = 1, so NotPurelyPositive cannot arise
      either, and converse_construct returns the spec itself: `converse`
      prints its canonical text with the round trip holding.
    - Dimension count, at every point that instantiate_spec accepts
      (the default point is one): a parameter set to 0 has no negative
      power in any entry of q or kappa there, as Scalar.substitute
      raises NotAUnit otherwise, and every q_ij goes to a unit, as
      AlgebraSpec refuses the point otherwise.  So substituting is a
      ring map phi from the Laurent polynomials that hold the entries
      to Q(zeta_m), and the instantiated q and kappa are the images of
      the spec's; q_ji goes to the inverse of phi(q_ij), which is
      phi(q_ji).  The characters carry no parameter.  normal_form
      rewrites each word by one rule that depends on the word alone,
      with entries and character values as coefficients, and is linear,
      so at the point it is phi applied to the generic normal form; a
      coefficient that phi sends to 0 only drops a term.  So the
      overlap oracle's chain residues at the point are the images of
      the generic ones, and its group identities are asked of fewer
      terms.  Under the PBW verdict, which check_pbw holds against the
      oracle, all of them vanish, so the instantiated rewriting system
      is confluent, and by Bergman's diamond lemma (Adv. Math. 29,
      1978) the sorted words times G are a basis of the algebra
      (Shepler-Witherspoon, Trans. AMS 2014, for this group-twisted
      setting).  A word of length <= d reduces to sorted words by
      subtracting rows u rel w g of degree <= d, so modulo the rows of
      dimension_oracle every column is a combination of the pbw_count
      sorted ones; and the rows lie in the ideal, in which no
      combination of sorted words lies.  So quotient_dim == pbw_count.
    """
    report = check_pbw(spec)
    if not (report.verdict and report.vanishing):
        hypothesis = "weak vanishing" if report.verdict else "the PBW verdict"
        raise HypothesisNotMet(
            f"{spec.name or 'an unnamed algebra'} fails {hypothesis}, which the bracket ring needs"
        )
    return report


def build_color_lie_ring(spec: AlgebraSpec) -> ColorLieRing:
    """The spec's own ring (see _own_ring) under require_hypotheses."""
    require_hypotheses(spec)
    return _own_ring(spec)


def _own_ring(spec: AlgebraSpec) -> ColorLieRing:
    """Bracket table over the basis v_i (x) g from the correction map,
    built without deciding the hypotheses.

    [v_i g, v_j h] = chi_j(g) kappa(v_i, v_j) gh, as g acts on v_j on its
    way right.  So each entry is the row kappa(v_i, v_j) scaled once by
    the unit chi_j(g), with its letters moved by g and then by h, which
    is a bijection on keys: no coefficient vanishes.
    """
    n = spec.n
    elements = list(spec.group)
    labels = [(i, g) for i in range(n) for g in elements]
    index = {label: s for s, label in enumerate(labels)}
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    degrees = [ADegree(units[i], g) for i, g in labels]
    table: dict[tuple[int, int], Combo] = {}
    for s, (i, g) in enumerate(labels):
        for j in range(n):
            row = spec._kappa.get((i, j))
            if row is None:
                continue
            factor = spec.char_value(j, g)
            shifted = [(r, w * g, factor * c) for ((r,), w), c in row.items()]
            for h in elements:
                table[(s, index[(j, h)])] = {index[(r, w * h)]: c for r, w, c in shifted}
    return ColorLieRing("from_spec", labels, degrees, table, Bicharacter.from_spec(spec), spec=spec)


def generic_color_lie_ring(data: GenericLieData) -> ColorLieRing:
    """Ring from an explicit table; transposes derived by antisymmetry."""
    epsilon = Bicharacter.from_table(data)
    table: dict[tuple[int, int], Combo] = {}
    for (a, b), terms in data.brackets.items():
        combo: Combo = {}
        for u, c in terms:
            accumulate(combo, u, c)
        if combo:
            table[(a, b)] = combo
    for (a, b) in list(data.brackets):
        if (b, a) in data.brackets:
            continue
        factor = -epsilon.eval(data.degrees[b], data.degrees[a])
        derived = Combination._trusted((), table.get((a, b), {})).scale(factor)
        if not derived.is_zero():
            table[(b, a)] = derived.terms
    for (a, b) in data.brackets:
        if (b, a) not in data.brackets or (a, b) < (b, a):
            continue
        factor = -epsilon.eval(data.degrees[a], data.degrees[b])
        derived = Combination._trusted((), table.get((b, a), {})).scale(factor)
        if Combination._trusted((), table.get((a, b), {})) != derived:
            raise SpecError(
                f"brackets for ({data.basis[a]}, {data.basis[b]}) violate antisymmetry"
            )
    return ColorLieRing("generic", data.basis, data.degrees, table, epsilon)


@dataclass(frozen=True)
class ColorAxiomReport:
    """Verdicts per axiom; None marks a check that does not apply."""

    antisymmetry: bool
    jacobi: bool
    bimodule: bool | None
    yetter_drinfeld: bool | None
    grading: bool | None
    certificates: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        verdicts = (
            self.antisymmetry,
            self.jacobi,
            self.bimodule,
            self.yetter_drinfeld,
            self.grading,
        )
        return all(v is not False for v in verdicts)

    def as_dict(self) -> dict:
        """Fields in declaration order with passed before certificates,
        which is the key order of `lie --json`."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        certificates = values.pop("certificates")
        return {**values, "passed": self.passed, "certificates": list(certificates)}


def _bracket_with_combo(ring: ColorLieRing, s: int, combo: Combo) -> Combination:
    out: Combo = {}
    for u, c in combo.items():
        for v, d in ring.bracket(s, u).items():
            accumulate(out, v, d * c)
    return Combination._trusted((), out)


class _Shift(dict):
    """Basis index of v_i (x) g h for the basis index of v_i (x) h, filled on demand."""

    def __init__(self, ring: ColorLieRing, g: GroupElement) -> None:
        super().__init__()
        self.ring = ring
        self.g = g

    def __missing__(self, s: int) -> int:
        i, h = self.ring.labels[s]
        shifted = self[s] = self.ring.index_of((i, self.g * h))
        return shifted


def _bimodule_violations(ring: ColorLieRing, g: GroupElement) -> list[dict]:
    """Certificates of the three module laws at one group element g.

    The candidates are the bracket table's keys and their preimages under
    the shift by g; any other pair has every bracket in its laws empty.
    """
    spec, table = ring.spec, ring.table
    # the group is abelian, so g h = h g and one shift serves both sides
    ahead, behind = _Shift(ring, g), _Shift(ring, g.inverse())
    candidates = set(table)
    for a, b in table:
        candidates.add((behind[a], b))
        candidates.add((a, behind[b]))
    violations = []
    for s, t in sorted(candidates):
        i, j = ring.labels[s][0], ring.labels[t][0]
        plain = ring.bracket(s, t)
        # units times nonzero coefficients, on keys moved by the bijection ahead
        left = Combination._trusted(
            (), {ahead[u]: c * spec.char_value(ring.labels[u][0], g) for u, c in plain.items()}
        )
        right = Combination._trusted((), {ahead[u]: c for u, c in plain.items()})
        checks = (
            ("left", ring.bracket_combo(ahead[s], t).scale(spec.char_value(i, g)), left),
            ("balanced", ring.bracket_combo(ahead[s], t),
             ring.bracket_combo(s, ahead[t]).scale(spec.char_value(j, g))),
            ("right", ring.bracket_combo(s, ahead[t]), right),
        )
        for name, got, expected in checks:
            if got != expected:
                violations.append(
                    {
                        "axiom": f"bimodule-{name}",
                        "g": str(g),
                        "x": ring.label_str(s),
                        "y": ring.label_str(t),
                        "got": got.sum_str(ring.label_str),
                        "expected": expected.sum_str(ring.label_str),
                    }
                )
    return violations


def _swept_axioms(ring: ColorLieRing, certificates: list[dict]):
    """Antisymmetry, Jacobi, the module laws and the action compatibility
    law by the sweep, each failure appended to certificates."""
    eps = ring.epsilon
    table = ring.table
    degrees = ring.degrees

    antisymmetry = True
    for s, t in sorted(set(table) | {(t, s) for s, t in table}):
        got = ring.bracket_combo(s, t)
        expected = ring.bracket_combo(t, s).scale(-eps.eval(degrees[s], degrees[t]))
        if got != expected:
            antisymmetry = False
            certificates.append(
                {
                    "axiom": "antisymmetry",
                    "x": ring.label_str(s),
                    "y": ring.label_str(t),
                    "got": got.sum_str(ring.label_str),
                    "expected": expected.sum_str(ring.label_str),
                }
            )

    # the cyclic sum of (s, t, u) adds [x, [y, z]] eps(z, x) over its three
    # rotations (x, y, z); each nonzero term, from an inner bracket [y, z]
    # and an x with a table entry on a term of it, is computed once and
    # added to the three triples that have it as a rotation
    left_of: dict[int, set[int]] = {}
    for x, u in table:
        left_of.setdefault(u, set()).add(x)
    residues: dict[tuple[int, int, int], Combo] = {}
    for (y, z), inner in table.items():
        for x in set().union(*(left_of.get(u, ()) for u in inner)):
            term = _bracket_with_combo(ring, x, inner)
            if term.is_zero():
                continue
            term = term.scale(eps.eval(degrees[z], degrees[x]))
            for triple in ((x, y, z), (z, x, y), (y, z, x)):
                residue = residues.setdefault(triple, {})
                for v, c in term.terms.items():
                    accumulate(residue, v, c)
    jacobi = True
    for (s, t, u), residue in sorted(residues.items()):
        if residue:
            jacobi = False
            certificates.append(
                {
                    "axiom": "jacobi",
                    "x": ring.label_str(s),
                    "y": ring.label_str(t),
                    "z": ring.label_str(u),
                    "residue": Combination._trusted((), residue).sum_str(ring.label_str),
                }
            )

    if ring.mode != "from_spec":
        return antisymmetry, jacobi, None, None
    spec = ring.spec
    n = spec.n

    # the module laws on the generators decide them on G (see check_color_axioms)
    gens = [spec.group.generator(t) for t in range(spec.group.rank)]
    violations = []
    if any(_bimodule_violations(ring, g) for g in gens):
        for g in spec.group:
            violations.extend(_bimodule_violations(ring, g))
    bimodule = not violations
    certificates.extend(violations)

    # group letters pair to 1, so eps(g, e_i + h) = eps(g, e_i) for g, h in G
    one = Scalar.one(spec.ctx)
    letters = [ADegree.group_degree(n, g) for g in gens]
    if any(eps.eval(a, b) != one for a in letters for b in letters):
        raise InternalInconsistency("the spec's pairing must pair group generators to 1")
    yetter_drinfeld = True
    for g in spec.group:
        gdeg = ADegree.group_degree(n, g)
        found = {}
        for i in range(n):
            acted = spec.char_value(i, g)
            paired = eps.eval(gdeg, ADegree.generator_degree(n, i, spec.group))
            if acted != paired:
                found[i] = (str(acted), str(paired))
        if not found:
            continue
        for s, (i, _) in enumerate(ring.labels):
            if i in found:
                yetter_drinfeld = False
                certificates.append(
                    {
                        "axiom": "yetter-drinfeld",
                        "g": str(g),
                        "v": ring.label_str(s),
                        "action": found[i][0],
                        "pairing": found[i][1],
                    }
                )
    return antisymmetry, jacobi, bimodule, yetter_drinfeld


def check_color_axioms(ring: ColorLieRing, quotient: SubgroupN | None = None) -> ColorAxiomReport:
    """Antisymmetry, Jacobi, the module laws over kG, the action
    compatibility (Yetter-Drinfeld) law and the grading.

    The module and compatibility laws apply to rings built from a spec.
    The grading check runs against A for generic rings and against A/N
    when a quotient is supplied, in both cases by the sweep below.

    Every ring is swept; on the spec's own ring under the paper's
    hypotheses the outcome is known, and require_hypotheses has the
    proof.  Every identity is linear in each bracket it contains, so
    a tuple whose brackets are all empty satisfies it with both sides
    zero.  Skipping such tuples changes no verdict and no certificate,
    so each check visits only the tuples that a key of the bracket
    table reaches, and reports them in the order of the exhaustive
    sweep.

    The sweep decides the module identities on the generators of G.  Let
    lambda_g(v_i h) = chi_i(g) v_i (g h) and rho_g(v_i h) = v_i (h g);
    both are actions of G, as each chi_i is a character and G is
    abelian.  The laws are [lambda_g x, y] = lambda_g [x, y] (left),
    [rho_g x, y] = [x, lambda_g y] (balanced) and
    [x, rho_g y] = rho_g [x, y] (right), each linear in x and y.  If a
    law holds at g1 and at g2 on every basis pair, it holds at g1 g2:
    for instance [lambda_g1 lambda_g2 x, y] = lambda_g1 [lambda_g2 x, y]
    = lambda_g1 lambda_g2 [x, y], and [rho_g1 rho_g2 x, y] =
    [rho_g2 x, lambda_g1 y] = [x, lambda_g2 lambda_g1 y].  G is finite,
    so its generators generate it as a monoid, and the laws hold on G
    exactly when they hold on the generators.  This holds for any
    bracket table.  When a generator fails, the laws are checked at
    every element of G, so the certificates and their order are those
    of the sweep over G.
    """
    table = ring.table
    degrees = ring.degrees
    certificates: list[dict] = []
    antisymmetry, jacobi, bimodule, yetter_drinfeld = _swept_axioms(ring, certificates)

    grading: bool | None = None
    if quotient is not None or ring.mode == "generic":
        grading = True
        for (s, t), combo in sorted(table.items()):
            target = degrees[s] * degrees[t]
            for u in combo:
                if quotient is not None:
                    homogeneous = quotient.congruent(degrees[u], target)
                else:
                    homogeneous = degrees[u] == target
                if not homogeneous:
                    grading = False
                    certificates.append(
                        {
                            "axiom": "grading",
                            "x": ring.label_str(s),
                            "y": ring.label_str(t),
                            "term": ring.label_str(u),
                            "term_degree": str(degrees[u]),
                            "product_degree": str(target),
                        }
                    )

    return ColorAxiomReport(
        antisymmetry=antisymmetry,
        jacobi=jacobi,
        bimodule=bimodule,
        yetter_drinfeld=yetter_drinfeld,
        grading=grading,
        certificates=tuple(certificates),
    )


def build_N_and_quotient(spec: AlgebraSpec):
    """Subgroup N of A spanned by the correction degrees, and whether
    the pairing descends to A/N.

    Returns (subgroup, well_defined, certificates).  The pairing
    descends exactly when every generator of N pairs to 1 with every
    generator of A, on both sides.
    """
    n = spec.n
    generators = []
    for i, j in spec.kappa_support():
        for r, g, _ in spec.kappa_pairs(i, j):
            free = [0] * n
            free[i] += 1
            free[j] += 1
            free[r] -= 1
            generators.append(ADegree(tuple(free), g.inverse()))
    subgroup = SubgroupN(n, spec.group, generators)
    eps = Bicharacter.from_spec(spec)
    a_generators = [ADegree.generator_degree(n, i, spec.group) for i in range(n)] + [
        ADegree.group_degree(n, spec.group.generator(t))
        for t in range(spec.group.rank)
    ]
    one = Scalar.one(spec.ctx)
    certificates = []
    for nu in subgroup.generators:
        for x in a_generators:
            for side, value in (("left", eps.eval(nu, x)), ("right", eps.eval(x, nu))):
                if value != one:
                    certificates.append(
                        {"n": str(nu), "x": str(x), "side": side, "value": str(value)}
                    )
    return subgroup, not certificates, tuple(certificates)


@dataclass(frozen=True)
class GradedDecomposition:
    """Basis indices split by the sign of the self-pairing."""

    positive: tuple[int, ...]
    negative: tuple[int, ...]


def split_parts(ring: ColorLieRing) -> GradedDecomposition:
    one = Scalar.one(ring.epsilon.ctx)
    positive = []
    negative = []
    for s in range(ring.size):
        value = ring.epsilon.eval(ring.degrees[s], ring.degrees[s])
        if value == one:
            positive.append(s)
        elif value == -one:
            negative.append(s)
        else:
            raise ValueNotSign(
                f"self-pairing of {ring.label_str(s)} is {value}, not a sign"
            )
    return GradedDecomposition(tuple(positive), tuple(negative))


def check_braiding_compatibility(spec: AlgebraSpec) -> bool:
    """Pairing of each generator degree against each correction term.

    The pairing of |v_k| with a correction component must match the
    pairing with the two reordered generators combined.  This is the
    strong form of the character test, read from the pairing: for a term
    v_r g of kappa(v_i, v_j), eps(|v_k|, |v_r g|) = eps(e_k, e_r)
    eps(e_k, g) = q_kr chi_k(g)^-1 and eps(|v_k|, |v_i|) eps(|v_k|, |v_j|)
    = q_ki q_kj (``Bicharacter.from_spec``).  Since q_ik = q_ki^-1, the two
    agree exactly when chi_k(g) = q_ik q_jk q_kr, so the result is
    check_pbw's strong_vanishing, which `hopf` reports as
    braiding_compatible; the tests compare the two.
    """
    eps = Bicharacter.from_spec(spec)
    n = spec.n
    gen_degrees = [ADegree.generator_degree(n, k, spec.group) for k in range(n)]
    ok = True
    for i, j in spec.kappa_support():
        for r, g, _ in spec.kappa_pairs(i, j):
            component = gen_degrees[r] * ADegree.group_degree(n, g)
            for k in range(n):
                lhs = eps.eval(gen_degrees[k], component)
                rhs = eps.eval(gen_degrees[k], gen_degrees[i]) * eps.eval(
                    gen_degrees[k], gen_degrees[j]
                )
                if lhs != rhs:
                    ok = False
    return ok
