"""Seeded spec generator for the check-corpus workload.

It draws every choice from the ``random.Random`` it is given, so one
seed always yields the same sequence of specs, and the benchmark hands
the package only the canonical texts ``format_spec`` renders from them.

Unlike ``tests/randspec.py``, a correction pair here may carry one or
two terms on independent group letters.  That is the shape on which the
closed-form PBW verdict and the overlap oracle are known to disagree
now and then (ROADMAP item 4); the generator keeps those specs.
"""

from __future__ import annotations

import itertools
import math
import random

from qdrinfeld.algebra import AlgebraSpec
from qdrinfeld.groups import AbelianGroup, Character
from qdrinfeld.scalar import Scalar, ScalarContext

CORPUS_GROUPS = ((2,), (3,), (4,), (2, 2), (3, 3), (2, 4))
CORPUS_STYLES = ("zero", "random", "guided", "guided")
# Every (group, n, style) in turn, so that corpora from different seeds
# hold the same mix of shapes and differ only in the drawn values.
CORPUS_SHAPES = tuple(itertools.product(CORPUS_GROUPS, (2, 3, 4), CORPUS_STYLES))


def _draw_spec(
    rng: random.Random,
    orders: tuple[int, ...],
    n: int,
    pairs: list[tuple[int, int]],
    guided: bool,
    name: str,
) -> AlgebraSpec:
    """Random characters and q-entries; corrections on the given pairs.

    A guided pair targets a generator whose character is the product of
    the pair's characters when one exists, which makes a useful share of
    the specs PBW; otherwise the target is any generator.
    """
    group = AbelianGroup(orders)
    conductor = math.lcm(group.exponent, 6)
    ctx = ScalarContext(conductor=conductor)
    elements = list(group)
    chars = tuple(
        Character(group, tuple(rng.randrange(o) for o in orders)) for _ in range(n)
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

    kappa: dict = {}
    for i, j in pairs:
        choices = [r for r in range(n) if chars[r] == chars[i] * chars[j]] if guided else []
        choices = choices or list(range(n))
        letters = rng.sample(elements, rng.choice((1, 2)))
        kappa[(i, j)] = tuple((rng.choice(choices), g, root()) for g in letters)

    return AlgebraSpec(ctx, group, chars, q, kappa, name=name)


def corpus_spec(rng: random.Random, index: int) -> AlgebraSpec:
    """One check-corpus spec: n = 2..4, groups up to Z/3 x Z/3 and Z/2 x Z/4."""
    orders, n, style = CORPUS_SHAPES[index % len(CORPUS_SHAPES)]
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = [] if style == "zero" else [p for p in all_pairs if rng.random() < 0.4]
    return _draw_spec(rng, orders, n, pairs, style == "guided", f"corpus-{index}")
