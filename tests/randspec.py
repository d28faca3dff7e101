"""Randomized algebra inputs shared by several test modules.

Three generation styles: "zero" leaves the correction map empty,
"random" draws everything freely, and "guided" picks correction
targets so that the character identity for invariance holds, which
makes a useful fraction of the outputs genuinely PBW.

``corpus`` puts every correction term of one spec on a single group
letter.  ``multi_letter_corpus`` lets a pair carry one or two terms on
independent letters, so that second-layer corrections from different
source letters can land on the same product letter and cancel there;
the closed-form conditions collect their cyclic sums per product letter,
which keeps them exact on that shape too.  It draws the shape of the
benchmark's check-corpus: n = 2..4 and groups up to Z/3 x Z/3 and
Z/2 x Z/4.  ``parametric_corpus`` lifts it over the free parameters lam
and q, so that the coefficients are no longer constants.
"""

from __future__ import annotations

import itertools
import math
import random

from qdrinfeld.algebra import AlgebraSpec
from qdrinfeld.groups import AbelianGroup, Character
from qdrinfeld.scalar import Scalar, ScalarContext

GROUP_CHOICES = ((2,), (3,), (4,), (2, 2))

STYLES = ("zero", "random", "guided", "guided")

# Every (group, n, style) in turn, so that corpora from different seeds
# hold the same mix of shapes and differ only in the drawn values.
MULTI_LETTER_SHAPES = tuple(
    itertools.product(GROUP_CHOICES + ((3, 3), (2, 4)), (2, 3, 4), STYLES)
)


def _draw_field(rng: random.Random, group: AbelianGroup, n: int):
    """Scalar context, random characters and q-entries, and a root drawer."""
    conductor = math.lcm(group.exponent, 6)
    ctx = ScalarContext(conductor=conductor)
    chars = tuple(
        Character(group, tuple(rng.randrange(o) for o in group.orders)) for _ in range(n)
    )

    def root() -> Scalar:
        return Scalar.zeta(ctx, conductor, rng.randrange(conductor))

    if rng.random() < 0.35:
        q = {}
    else:
        q = {
            (i, j): root()
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.8
        }
    return ctx, chars, q, root


def random_spec(rng: random.Random, style: str = "random") -> AlgebraSpec:
    group = AbelianGroup(rng.choice(GROUP_CHOICES))
    n = rng.randint(2, 3)
    ctx, chars, q, root = _draw_field(rng, group, n)

    kappa: dict = {}
    if style != "zero":
        g = group.element(tuple(rng.randrange(o) for o in group.orders))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() > 0.6:
                    continue
                if style == "guided":
                    target = chars[i] * chars[j]
                    matches = [r for r in range(n) if chars[r] == target]
                    if not matches:
                        continue
                    r = rng.choice(matches)
                else:
                    r = rng.randrange(n)
                kappa[(i, j)] = ((r, g, root()),)

    return AlgebraSpec(ctx, group, chars, q, kappa, name=f"rand-{style}")


def corpus(count: int, seed: int = 20260814) -> list[AlgebraSpec]:
    rng = random.Random(seed)
    return [random_spec(rng, STYLES[t % len(STYLES)]) for t in range(count)]


def multi_letter_spec(rng: random.Random, index: int) -> AlgebraSpec:
    """The index-th shape of MULTI_LETTER_SHAPES with random values.

    A guided pair targets a generator whose character is the product of
    the pair's characters when one exists, otherwise any generator.
    """
    orders, n, style = MULTI_LETTER_SHAPES[index % len(MULTI_LETTER_SHAPES)]
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = [] if style == "zero" else [p for p in all_pairs if rng.random() < 0.4]
    group = AbelianGroup(orders)
    ctx, chars, q, root = _draw_field(rng, group, n)
    elements = list(group)
    kappa: dict = {}
    for i, j in pairs:
        choices = [r for r in range(n) if chars[r] == chars[i] * chars[j]]
        choices = choices if style == "guided" and choices else list(range(n))
        letters = rng.sample(elements, rng.choice((1, 2)))
        kappa[(i, j)] = tuple((rng.choice(choices), g, root()) for g in letters)
    return AlgebraSpec(ctx, group, chars, q, kappa, name=f"multi-{index}")


def multi_letter_corpus(count: int, seed: int) -> list[AlgebraSpec]:
    rng = random.Random(seed)
    return [multi_letter_spec(rng, index) for index in range(count)]


def parametric_corpus(count: int, seed: int) -> list[AlgebraSpec]:
    """multi_letter_corpus(count, seed) lifted into Q(zeta_m)(lam, q).

    Each kappa coefficient is multiplied by one of lam, lam - 1 and
    lam^2 + 1, and on every other spec q_12 is multiplied by q.
    """
    rng = random.Random(seed)
    out = []
    for index, spec in enumerate(multi_letter_corpus(count, seed)):
        ctx = ScalarContext(spec.ctx.conductor, ("lam", "q"))
        one, lam = Scalar.one(ctx), Scalar.param(ctx, "lam")
        factors = (lam, lam - one, lam * lam + one)
        q = {
            (i, j): spec.q_scalar(i, j).substitute({}, ctx)
            for i in range(spec.n)
            for j in range(i + 1, spec.n)
        }
        if index % 2 == 0:
            q[(0, 1)] = q[(0, 1)] * Scalar.param(ctx, "q")
        kappa = {
            pair: tuple(
                (r, g, c.substitute({}, ctx) * rng.choice(factors))
                for r, g, c in spec.kappa_pairs(*pair)
            )
            for pair in spec.kappa_support()
        }
        out.append(AlgebraSpec(ctx, spec.group, spec.chars, q, kappa, name=f"param-{index}"))
    return out
