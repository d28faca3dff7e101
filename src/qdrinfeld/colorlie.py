"""Color Lie rings: the bracket carried by a deformation, and user tables.

The grading group A is Z^n x G.  A deformation spec induces a pairing
epsilon on A from its q-matrix and characters, and a bracket on the
module spanned by the v_i g.  Alternatively an explicit basis with
degrees, pairing table and bracket table can be supplied, which covers
small hand-built examples such as gl(1|1).
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, fields
from functools import reduce

from .algebra import AlgebraSpec, extended_kappa
from .errors import HypothesisNotMet, InternalInconsistency, NonUnitEpsilon, SpecError, ValueNotSign
from .groups import ADegree, GroupElement, SubgroupN
from .pbw import check_pbw, decided_vanishing
from .pbw import check_vanishing  # noqa: F401  (bench/tracing.py patches this binding)
from .scalar import LinearCombination, Scalar, ScalarContext, accumulate
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

    A built ring is never mutated in place, as build_color_lie_ring
    shares it; a variant is a new ring made from copies of the fields.
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
    builds without deciding them, for callers that already hold the PBW
    report or want to explore anyway.  While a caller holds the ring,
    every call returns that same object, the spec's own ring; the spec
    keeps it weakly, so both die without the cycle collector.
    """
    if not force:
        report = check_pbw(spec)
        if not (report.verdict and report.vanishing):
            raise HypothesisNotMet(
                "bracket construction needs the PBW property and the vanishing "
                "condition; pass force=True to explore anyway"
            )
    ring = spec._ring and spec._ring()
    if ring is not None:
        return ring
    n = spec.n
    labels = [(i, g) for i in range(n) for g in spec.group]
    index = {label: s for s, label in enumerate(labels)}
    degrees = [
        ADegree.generator_degree(n, i, spec.group) * ADegree.group_degree(n, g)
        for i, g in labels
    ]
    order = len(spec.group)
    table: dict[tuple[int, int], Combo] = {}
    for s, (i, g) in enumerate(labels):
        for j in range(n):
            if not spec.kappa_pairs(i, j):
                continue  # extended_kappa is empty on the whole block of v_j
            for t in range(j * order, (j + 1) * order):
                value = extended_kappa(spec, i, g, j, labels[t][1])
                if value.terms:
                    table[(s, t)] = {
                        index[(word[0], letter)]: coeff
                        for (word, letter), coeff in value.terms.items()
                    }
    ring = ColorLieRing(
        "from_spec",
        labels,
        degrees,
        table,
        Bicharacter.from_spec(spec),
        spec=spec,
    )
    spec._ring = weakref.ref(ring)
    return ring


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
        """Fields in declaration order with passed before certificates,
        which is the key order of `lie --json`."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        certificates = values.pop("certificates")
        return {**values, "passed": self.passed, "certificates": list(certificates)}


def _bracket_with_combo(ring: ColorLieRing, s: int, combo: Combo) -> LinearCombination:
    out: Combo = {}
    for u, c in combo.items():
        for v, d in ring.bracket(s, u).items():
            accumulate(out, v, d * c)
    return LinearCombination(out)


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
        left = LinearCombination(
            {ahead[u]: c * spec.char_value(ring.labels[u][0], g) for u, c in plain.items()}
        )
        right = LinearCombination({ahead[u]: c for u, c in plain.items()})
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


def check_color_axioms(ring: ColorLieRing, quotient: SubgroupN | None = None) -> ColorAxiomReport:
    """Axiom sweep over the basis tuples that a nonzero bracket reaches.

    Every identity is linear in each bracket it contains, so a tuple
    whose brackets are all empty satisfies it with both sides zero.
    Skipping such tuples changes no verdict and no certificate, so each
    check visits only the tuples that a key of the bracket table reaches,
    and reports them in the order of the exhaustive sweep.  Antisymmetry
    and the Jacobi identity always run.  The module identities over the
    group algebra and the action compatibility law run for rings built
    from a spec.  The grading check runs against A for generic rings and
    against A/N when a quotient is supplied.

    The module identities are decided on the generators of G.  Let
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
    eps = ring.epsilon
    table = ring.table
    degrees = ring.degrees
    certificates: list[dict] = []

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

    # The cyclic sum of (s, t, u) adds [x, [y, z]] eps(z, x) over its three
    # rotations (x, y, z); each nonzero term is computed once and added to
    # the three triples that have it as a rotation.
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
                    "residue": LinearCombination(residue).sum_str(ring.label_str),
                }
            )

    bimodule: bool | None = None
    yetter_drinfeld: bool | None = None
    if ring.mode == "from_spec":
        spec = ring.spec
        n = spec.n

        # the module laws on the generators decide them on G (see above)
        gens = [spec.group.generator(t) for t in range(spec.group.rank)]
        violations = []
        if any(_bimodule_violations(ring, g) for g in gens):
            for g in spec.group:
                violations.extend(_bimodule_violations(ring, g))
        bimodule = not violations
        certificates.extend(violations)

        # premise: group generators pair to 1, so eps(g, e_i + h) = eps(g, e_i) for every h
        one = Scalar.one(spec.ctx)
        letters = [ADegree.group_degree(n, h) for h in gens]
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
    strong, _ = decided_vanishing(spec, strong=True)
    if ok != strong:
        raise InternalInconsistency(
            "pairing compatibility must match the strong character identity"
        )
    return ok
