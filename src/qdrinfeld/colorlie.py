"""Color Lie rings: the bracket carried by a deformation, and user tables.

The grading group A is Z^n x G.  A deformation spec induces a pairing
epsilon on A from its q-matrix and characters, and a bracket on the
module spanned by the v_i g.  Alternatively an explicit basis with
degrees, pairing table and bracket table can be supplied, which covers
small hand-built examples such as gl(1|1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraSpec, LinearCombination, accumulate, extended_kappa
from .errors import HypothesisNotMet, InternalInconsistency, NonUnitEpsilon, SpecError, ValueNotSign
from .groups import ADegree, GroupElement, SubgroupN
from .pbw import check_pbw, check_vanishing
from .scalar import Scalar, ScalarContext
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
            value = Scalar.one(self.ctx)
            vb = b.as_int_vector()
            for s, xs in enumerate(a.as_int_vector()):
                if xs == 0:
                    continue
                for t, yt in enumerate(vb):
                    if yt and (s, t) in self._table:
                        value = value * self._table[(s, t)] ** (xs * yt)
            self._memo[(a, b)] = value
        return value


class ColorLieRing:
    """Finite-basis bracketed module graded by A.

    mode "from_spec" carries the basis v_i (x) g with the bracket read
    off the correction map; mode "generic" carries abstract labels with
    explicit data.  The bracket table is complete over ordered index
    pairs and every value is a combination of basis indices.
    """

    def __init__(
        self,
        mode: str,
        labels,
        degrees,
        table: dict[tuple[int, int], Combo],
        epsilon: Bicharacter,
        spec: AlgebraSpec | None = None,
        exploratory: bool = False,
    ) -> None:
        self.mode = mode
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        self.table = table
        self.epsilon = epsilon
        self.spec = spec
        self.exploratory = exploratory
        self._index = {label: s for s, label in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def bracket(self, s: int, t: int) -> Combo:
        return self.table.get((s, t), {})

    def bracket_combo(self, s: int, t: int) -> LinearCombination:
        return LinearCombination(self.bracket(s, t))

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


def build_color_lie_ring(spec: AlgebraSpec, force: bool = False) -> ColorLieRing:
    """Bracket table over the basis v_i (x) g from the correction map.

    Requires the PBW verdict and the vanishing condition; force=True
    builds anyway and marks the ring exploratory.
    """
    report = check_pbw(spec)
    hypothesis = report.verdict and report.vanishing
    if not hypothesis and not force:
        raise HypothesisNotMet(
            "bracket construction needs the PBW property and the vanishing "
            "condition; pass force=True to explore anyway"
        )
    n = spec.n
    labels = [(i, g) for i in range(n) for g in spec.group]
    index = {label: s for s, label in enumerate(labels)}
    degrees = [
        ADegree.generator_degree(n, i, spec.group) * ADegree.group_degree(n, g)
        for i, g in labels
    ]
    table: dict[tuple[int, int], Combo] = {}
    for s, (i, g) in enumerate(labels):
        for t, (j, h) in enumerate(labels):
            value = extended_kappa(spec, i, g, j, h)
            combo: Combo = {}
            for (word, letter), coeff in value.terms.items():
                if len(word) != 1:
                    raise SpecError("correction terms must be linear in the generators")
                combo[index[(word[0], letter)]] = coeff
            if combo:
                table[(s, t)] = combo
    return ColorLieRing(
        "from_spec",
        labels,
        degrees,
        table,
        Bicharacter.from_spec(spec),
        spec=spec,
        exploratory=not hypothesis,
    )


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
        derived = LinearCombination(table.get((a, b))).scale(factor)
        if not derived.is_zero():
            table[(b, a)] = derived.terms
    for (a, b) in data.brackets:
        if (b, a) not in data.brackets or (a, b) < (b, a):
            continue
        factor = -epsilon.eval(data.degrees[a], data.degrees[b])
        if LinearCombination(table.get((a, b))) != LinearCombination(table.get((b, a))).scale(factor):
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
        return {
            "antisymmetry": self.antisymmetry,
            "jacobi": self.jacobi,
            "bimodule": self.bimodule,
            "yetter_drinfeld": self.yetter_drinfeld,
            "grading": self.grading,
            "passed": self.passed,
            "certificates": list(self.certificates),
        }


def _bracket_with_combo(ring: ColorLieRing, s: int, combo: Combo) -> LinearCombination:
    out: Combo = {}
    for u, c in combo.items():
        for v, d in ring.bracket(s, u).items():
            accumulate(out, v, d * c)
    return LinearCombination(out)


def check_color_axioms(ring: ColorLieRing, quotient: SubgroupN | None = None) -> ColorAxiomReport:
    """Exhaustive axiom sweep over basis tuples.

    Antisymmetry and the Jacobi identity always run.  The module
    identities over the group algebra and the action compatibility law
    run for rings built from a spec.  The grading check runs against A
    for generic rings and against A/N when a quotient is supplied.
    """
    eps = ring.epsilon
    size = ring.size
    certificates: list[dict] = []
    pair = [[eps.eval(d1, d2) for d2 in ring.degrees] for d1 in ring.degrees]

    antisymmetry = True
    for s in range(size):
        for t in range(size):
            got = ring.bracket_combo(s, t)
            expected = ring.bracket_combo(t, s).scale(-pair[s][t])
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

    jacobi = True
    for s in range(size):
        for t in range(size):
            for u in range(size):
                total = LinearCombination()
                for x, y, z in ((s, t, u), (t, u, s), (u, s, t)):
                    inner = ring.bracket(y, z)
                    if not inner:
                        continue
                    total = total + _bracket_with_combo(ring, x, inner).scale(pair[z][x])
                if not total.is_zero():
                    jacobi = False
                    certificates.append(
                        {
                            "axiom": "jacobi",
                            "x": ring.label_str(s),
                            "y": ring.label_str(t),
                            "z": ring.label_str(u),
                            "residue": total.sum_str(ring.label_str),
                        }
                    )

    bimodule: bool | None = None
    yetter_drinfeld: bool | None = None
    if ring.mode == "from_spec":
        spec = ring.spec
        index = ring.index_of

        def left(g: GroupElement, combo: Combo) -> LinearCombination:
            out: Combo = {}
            for u, c in combo.items():
                i, h = ring.labels[u]
                accumulate(out, index((i, g * h)), c * spec.char_value(i, g))
            return LinearCombination(out)

        def right(combo: Combo, g: GroupElement) -> LinearCombination:
            out: Combo = {}
            for u, c in combo.items():
                i, h = ring.labels[u]
                accumulate(out, index((i, h * g)), c)
            return LinearCombination(out)

        bimodule = True
        for g in spec.group:
            for s in range(size):
                i, h = ring.labels[s]
                for t in range(size):
                    j, h2 = ring.labels[t]
                    plain = ring.bracket(s, t)
                    checks = (
                        ("left",
                         ring.bracket_combo(index((i, g * h)), t).scale(spec.char_value(i, g)),
                         left(g, plain)),
                        ("balanced", ring.bracket_combo(index((i, h * g)), t),
                         ring.bracket_combo(s, index((j, g * h2))).scale(spec.char_value(j, g))),
                        ("right", ring.bracket_combo(s, index((j, h2 * g))), right(plain, g)),
                    )
                    for name, got, expected in checks:
                        if got != expected:
                            bimodule = False
                            certificates.append(
                                {
                                    "axiom": f"bimodule-{name}",
                                    "g": str(g),
                                    "x": ring.label_str(s),
                                    "y": ring.label_str(t),
                                    "got": got.sum_str(ring.label_str),
                                    "expected": expected.sum_str(ring.label_str),
                                }
                            )

        yetter_drinfeld = True
        n = spec.n
        for g in spec.group:
            gdeg = ADegree.group_degree(n, g)
            for s in range(size):
                i, _ = ring.labels[s]
                acted = spec.char_value(i, g)
                paired = eps.eval(gdeg, ring.degrees[s])
                if acted != paired:
                    yetter_drinfeld = False
                    certificates.append(
                        {
                            "axiom": "yetter-drinfeld",
                            "g": str(g),
                            "v": ring.label_str(s),
                            "action": str(acted),
                            "pairing": str(paired),
                        }
                    )

    grading: bool | None = None
    if quotient is not None or ring.mode == "generic":
        grading = True
        for s in range(size):
            for t in range(size):
                target = ring.degrees[s] * ring.degrees[t]
                for u in ring.bracket(s, t):
                    if quotient is not None:
                        homogeneous = quotient.congruent(ring.degrees[u], target)
                    else:
                        homogeneous = ring.degrees[u] == target
                    if not homogeneous:
                        grading = False
                        certificates.append(
                            {
                                "axiom": "grading",
                                "x": ring.label_str(s),
                                "y": ring.label_str(t),
                                "term": ring.label_str(u),
                                "term_degree": str(ring.degrees[u]),
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
    pairing with the two reordered generators combined.  The outcome is
    asserted to coincide with the strong form of the character test.
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
    strong, _ = check_vanishing(spec, strong=True)
    if ok != strong:
        raise InternalInconsistency(
            "pairing compatibility must match the strong character identity"
        )
    return ok
