"""Filtered quotients of skew group algebras for diagonal abelian actions.

An :class:`AlgebraSpec` packages the raw data: a scalar context, a finite
abelian group acting diagonally through characters, a matrix of commutation
units q_ij, and a bilinear map kappa landing in V tensor kG.  Elements are
kept with all group letters pushed to the right, so a term is a triple
(word, group element, scalar) and multiplication only needs character
values.  :class:`NCElement` is a ``scalar.Combination`` on such
terms, and :func:`rewrite` is the one rewriting engine, a worklist loop
that takes the rule as a callback.  The normal form sorts words by
rewriting descending adjacent pairs through the defining relations;
enveloping algebras of generic rings plug their own rule into the same
loop.
"""

from __future__ import annotations

import itertools
import math

from .errors import SpecError
from .groups import AbelianGroup, Character, GroupElement, char_eval
from .scalar import Combination, Scalar, ScalarContext, accumulate

KappaTerm = tuple[int, GroupElement, Scalar]


class AlgebraSpec:
    """Immutable description of one algebra.

    q is given as a dict on ordered pairs; missing off-diagonal entries
    default to 1 and the transposes are derived as inverses.  kappa maps
    ordered pairs (i, j), i != j, to tuples of (r, g, coefficient); the
    spec keeps one table of the coefficients of the v_r g on both orders,
    the transposes derived through quantum antisymmetry.
    """

    def __init__(
        self,
        ctx: ScalarContext,
        group: AbelianGroup,
        chars,
        q: dict[tuple[int, int], Scalar],
        kappa: dict[tuple[int, int], tuple[KappaTerm, ...]],
        name: str = "",
    ) -> None:
        self.ctx = ctx
        self.group = group
        self.chars = tuple(chars)
        self.name = name
        n = len(self.chars)
        if n == 0:
            raise SpecError("at least one generator is required")
        for chi in self.chars:
            if not isinstance(chi, Character) or chi.group != group:
                raise SpecError("every generator needs a character of the acting group")
        if ctx.conductor % group.exponent != 0:
            raise SpecError(
                f"conductor {ctx.conductor} is not a multiple of the group exponent {group.exponent}"
            )
        self._q = self._build_q(n, q)
        self._kappa = self._build_kappa(n, kappa)
        self._char_cache: dict[tuple[int, tuple[int, ...]], Scalar] = {}
        self._word_char_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], Scalar] = {}
        # Delta of monomials (hopf.coproduct), the normal forms of bare
        # words (word_normal_form), the crossing twists of the braided
        # product (hopf.braided_product), the pairing
        # (colorlie.Bicharacter.from_spec) and the decided facts
        # (pbw.decided_vanishing, pbw.decided_confluence), each computed
        # once per spec, and a weak reference to the ring
        # (colorlie.build_color_lie_ring), which points back to the spec
        self._delta_cache: dict = {}
        self._nf_cache: dict = {}
        self._twist_cache: dict = {}
        self._pairing = None
        self._ring = None
        self._facts: dict = {}

    def _build_q(self, n: int, q_in) -> dict[tuple[int, int], Scalar]:
        one = Scalar.one(self.ctx)
        q = {}
        for (i, j), val in q_in.items():
            if not (0 <= i < n and 0 <= j < n):
                raise SpecError(f"q index out of range: ({i + 1}, {j + 1})")
            if val.ctx != self.ctx:
                raise SpecError("q entry from a different scalar context")
            if i == j:
                if val != one:
                    raise SpecError(f"q_{i + 1}{i + 1} must equal 1")
                continue
            if not val.is_unit():
                raise SpecError(f"q_{i + 1}{j + 1} = {val} is not a unit")
            q[(i, j)] = one if val == one else val
        for i in range(n):
            for j in range(n):
                if i == j:
                    q[(i, j)] = one
                elif (i, j) not in q:
                    back = q.get((j, i), one)
                    q[(i, j)] = one if back is one else back.inv()
        # scalars commute and q_ii = 1, so the pairs i < j suffice, and the
        # first of them to fail is the first failing pair in row-major order
        for i in range(n):
            for j in range(i + 1, n):
                if q[(i, j)] * q[(j, i)] != one:
                    raise SpecError(
                        f"q_{i + 1}{j + 1} and q_{j + 1}{i + 1} are not inverse"
                    )
        return q

    def _build_kappa(self, n: int, kappa_in) -> dict[tuple[int, int], dict]:
        """kappa on every ordered pair where it is nonzero, as a table from
        ((r,), g) to the coefficient of v_r g: terms on the same (r, g) are
        summed and zero sums dropped.  A row given for (j, i) is read as
        -q_ij * kappa(v_j, v_i).  A pair given both ways must agree per
        (r, g), and then the (i, j) row is kept.  Each transpose is
        multiplied by -q_ji once."""
        given: dict = {}
        for (i, j), terms in kappa_in.items():
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise SpecError(
                    f"kappa pairs need distinct indices in range, got ({i + 1}, {j + 1})"
                )
            row: dict = {}
            for r, g, coeff in terms:
                if not (0 <= r < n):
                    raise SpecError(f"kappa target v{r + 1} out of range")
                if not isinstance(g, GroupElement) or g.group != self.group:
                    raise SpecError("kappa group part is not in the acting group")
                if coeff.ctx != self.ctx:
                    raise SpecError("kappa coefficient from a different scalar context")
                accumulate(row, ((r,), g), coeff)
            key = (min(i, j), max(i, j))
            if i > j:
                factor = -self._q[key]
                row = {term: factor * c for term, c in row.items()}
            if key in given and given[key] != row:
                raise SpecError(
                    f"kappa({key[0] + 1},{key[1] + 1}) given twice with values "
                    "that violate quantum antisymmetry"
                )
            if i < j or key not in given:
                given[key] = row
        table = {}
        for (i, j), row in given.items():
            if row:
                factor = -self._q[(j, i)]
                table[(i, j)] = row
                table[(j, i)] = {term: factor * c for term, c in row.items()}
        return table

    @property
    def n(self) -> int:
        return len(self.chars)

    def q_scalar(self, i: int, j: int) -> Scalar:
        return self._q[(i, j)]

    def q_table(self) -> dict[tuple[int, int], Scalar]:
        """Every q_ij, transposes included: a spec built from it inverts none."""
        return dict(self._q)

    def kappa_pairs(self, i: int, j: int) -> tuple[KappaTerm, ...]:
        """kappa(v_i, v_j) for any pair, one (r, g, coefficient) per (r, g)."""
        return tuple((r, g, c) for ((r,), g), c in self._kappa.get((i, j), {}).items())

    def kappa_support(self):
        """Ordered pairs (i, j), i < j, on which kappa is nonzero."""
        return sorted(pair for pair in self._kappa if pair[0] < pair[1])

    def char_value(self, j: int, g: GroupElement) -> Scalar:
        key = (j, g.exps)
        val = self._char_cache.get(key)
        if val is None:
            val = char_eval(self.chars[j], g, self.ctx)
            self._char_cache[key] = val
        return val

    def word_char(self, word, g: GroupElement) -> Scalar:
        """Product of chi_j(g) over the letters j of the word, computed once."""
        key = (word, g.exps)
        val = self._word_char_cache.get(key)
        if val is None:
            val = Scalar.one(self.ctx)
            for j in word:
                val = val * self.char_value(j, g)
            self._word_char_cache[key] = val
        return val

    def __repr__(self) -> str:
        return f"AlgebraSpec(n={self.n}, group={self.group!r}, name={self.name!r})"


class NCElement(Combination):
    """A finite sum of terms coeff * v_word * g with the group on the right."""

    __slots__ = ("spec",)

    def __init__(self, spec: AlgebraSpec, terms) -> None:
        self.spec = spec
        super().__init__(terms)

    def _space(self) -> tuple:
        return (self.spec,)

    @classmethod
    def monomial(cls, spec, word, g=None, coeff=None) -> NCElement:
        word = tuple(word)
        for j in word:
            if not (0 <= j < spec.n):
                raise SpecError(f"generator index v{j + 1} out of range")
        if g is None:
            g = spec.group.identity()
        if coeff is None:
            return cls._trusted((spec,), {(word, g): Scalar.one(spec.ctx)})
        return cls(spec, {(word, g): coeff})

    @classmethod
    def group_unit(cls, spec, g: GroupElement) -> NCElement:
        return cls.monomial(spec, (), g)

    def __mul__(self, other: NCElement) -> NCElement:
        """Product in the free skew algebra: group letters hop over words."""
        self._check(other)
        spec = self.spec
        terms: dict[tuple[tuple[int, ...], GroupElement], Scalar] = {}
        for (u, g), cu in self.terms.items():
            for (w, h), cw in other.terms.items():
                accumulate(terms, (u + w, g * h), cu * cw * spec.word_char(w, g))
        return self._like(terms)

    def __str__(self) -> str:
        return self.signed_str(_nc_label, _nc_order)

    __repr__ = __str__


def _nc_order(key):
    word, g = key
    return (len(word), word, g.exps)


def _nc_label(key) -> str:
    word, g = key
    factors = [f"v{j + 1}" for j in word]
    if not g.is_identity():
        factors.append(str(g))
    return "*".join(factors)


def _descent_position(word, strategy: str):
    if strategy == "leftmost":
        indices = range(len(word) - 1)
    elif strategy == "rightmost":
        indices = range(len(word) - 2, -1, -1)
    else:
        raise SpecError(f"unknown rewrite strategy {strategy!r}")
    for p in indices:
        if word[p] > word[p + 1]:
            return p
    return None


def rewrite(terms: dict, rule) -> dict:
    """Reduce a sum of keys until no key is reducible.

    rule(key) is None for an irreducible key and otherwise the (key, factor)
    pairs that replace it, each scaled by the coefficient of the rewritten
    key.  The rule must strictly decrease a well-founded order on keys.
    """
    done: dict = {}
    work = list(terms.items())
    while work:
        key, coeff = work.pop()
        if coeff.is_zero():
            continue
        replacement = rule(key)
        if replacement is None:
            accumulate(done, key, coeff)
        else:
            work.extend((new_key, coeff * factor) for new_key, factor in replacement)
    return done


def normal_form(element: NCElement, strategy: str = "leftmost") -> NCElement:
    """Rewrite to the spanning set of nondecreasing words times group letters.

    Each step replaces one descending adjacent pair v_a v_b (a > b) by
    q_ab v_b v_a + kappa(v_a, v_b), pushing any group letter produced by
    kappa across the tail of the word.  The pair (word length, inversion
    count) drops strictly, so the loop terminates for any strategy.

    It commutes with right multiplication by a group letter x: a step
    picks its descent from the word alone, puts the kappa letter left of
    the trailing letter and scales by factors of the word and the kappa
    letter only, so it commutes with (word, k) -> (word, k x) on keys.
    """
    spec = element.spec

    def rule(key):
        word, g = key
        p = _descent_position(word, strategy)
        if p is None:
            return None
        a, b = word[p], word[p + 1]
        head, tail = word[:p], word[p + 2 :]
        out = [((head + (b, a) + tail, g), spec.q_scalar(a, b))]
        for ((r,), h), c in spec._kappa.get((a, b), {}).items():
            out.append(((head + (r,) + tail, h * g), c * spec.word_char(tail, h)))
        return out

    return element._like(rewrite(element.terms, rule))


def word_normal_form(spec: AlgebraSpec, word: tuple[int, ...]) -> dict:
    """Terms of the leftmost ``normal_form`` of v_word at the identity letter.

    Computed once per word and kept on the spec.  Since ``normal_form``
    commutes with right multiplication by a group letter, the normal form
    of c * v_word * g is these terms scaled by c with every letter
    multiplied by g.  The memo keeps terms dicts, not elements, so it holds
    no reference back to the spec; the dicts are shared and must not be
    mutated.
    """
    memo = spec._nf_cache
    terms = memo.get(word)
    if terms is None:
        terms = normal_form(NCElement.monomial(spec, word)).terms
        memo[word] = terms
    return terms


def defining_relation(spec: AlgebraSpec, j: int, i: int) -> NCElement:
    """v_j v_i - q_ji v_i v_j - kappa(v_j, v_i) for j > i, as a free element."""
    if not (0 <= i < j < spec.n):
        raise SpecError("defining relations are indexed by j > i")
    e = spec.group.identity()
    quadratic = {((j, i), e): Scalar.one(spec.ctx), ((i, j), e): -spec.q_scalar(j, i)}
    return NCElement._trusted((spec,), quadratic) - kappa_element(spec, j, i)


def kappa_element(spec: AlgebraSpec, i: int, j: int) -> NCElement:
    """kappa(v_i, v_j) as an element with length-one words."""
    return NCElement._trusted((spec,), spec._kappa.get((i, j), {}))


def pbw_words(n: int, max_degree: int):
    """All nondecreasing words in n letters of length <= max_degree."""
    for d in range(max_degree + 1):
        yield from itertools.combinations_with_replacement(range(n), d)


def all_words(n: int, max_degree: int):
    """All words in n letters of length <= max_degree."""
    for d in range(max_degree + 1):
        yield from itertools.product(range(n), repeat=d)


def pbw_monomial_count(spec: AlgebraSpec, max_degree: int) -> int:
    n = spec.n
    total = 0
    for d in range(max_degree + 1):
        total += math.comb(n + d - 1, d)
    return total * len(spec.group)


__all__ = [
    "AlgebraSpec",
    "NCElement",
    "rewrite",
    "normal_form",
    "defining_relation",
    "kappa_element",
    "pbw_words",
    "all_words",
    "pbw_monomial_count",
]
