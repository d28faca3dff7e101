import random

import pytest

from qdrinfeld.colorlie import (
    Bicharacter,
    ColorLieRing,
    build_color_lie_ring,
    build_N_and_quotient,
    check_braiding_compatibility,
    check_color_axioms,
    generic_color_lie_ring,
    split_parts,
)
from qdrinfeld.errors import HypothesisNotMet, NonUnitEpsilon, SpecError, ValueNotSign
from qdrinfeld.groups import ADegree
from qdrinfeld.pbw import check_vanishing
from qdrinfeld.scalar import Scalar, ScalarContext, parse_scalar
from qdrinfeld.specfile import load_fixture, parse_spec_text

from randspec import corpus


def ring_for(name):
    loaded = load_fixture(name)
    if name == "gl11":
        return generic_color_lie_ring(loaded)
    return build_color_lie_ring(loaded)


def test_bracket_table_of_the_two_generator_deformation():
    spec = load_fixture("ex2")
    ring = build_color_lie_ring(spec)
    e = spec.group.identity()
    g = spec.group.generator(0)
    lam = parse_scalar("lam", spec.ctx)
    target = ring.index_of((2, g))
    assert ring.bracket(ring.index_of((0, e)), ring.index_of((1, e))) == {target: lam}
    assert ring.bracket(ring.index_of((0, g)), ring.index_of((1, g))) == {target: -lam}
    # v3 is central in the bracket: it pairs to zero with everything
    for s in range(ring.size):
        assert ring.bracket(ring.index_of((2, e)), s) == {}


def test_axioms_pass_on_all_fixture_rings():
    for name in ("ex1", "ex2", "ex3", "ex4"):
        report = check_color_axioms(ring_for(name))
        assert report.antisymmetry and report.jacobi
        assert report.bimodule and report.yetter_drinfeld
        assert report.passed, name


def test_axioms_pass_on_gl11():
    report = check_color_axioms(ring_for("gl11"))
    assert report.antisymmetry and report.jacobi
    assert report.bimodule is None and report.yetter_drinfeld is None
    assert report.passed


def test_gl11_bracket_follows_antisymmetry():
    ring = ring_for("gl11")
    one = Scalar.one(ring.epsilon.ctx)
    a, b = ring.index_of("E12"), ring.index_of("E21")
    # [E12, E21] = E11 + E22 and the transpose is NOT negated: both are
    # odd, so the sign from the pairing cancels the flip.
    assert ring.bracket(a, b) == {0: one, 1: one}
    assert ring.bracket(b, a) == {0: one, 1: one}


def test_perturbed_generic_bracket_is_certified():
    ring = ring_for("gl11")
    table = {key: dict(combo) for key, combo in ring.table.items()}
    one = Scalar.one(ring.epsilon.ctx)
    table[(0, 2)] = {2: one + one}  # [E11, E12] = 2 E12 on one side only
    broken = ColorLieRing("generic", ring.labels, ring.degrees, table, ring.epsilon)
    report = check_color_axioms(broken)
    assert not report.antisymmetry
    assert report.certificates
    assert not report.passed


def test_split_parts():
    gl11 = ring_for("gl11")
    parts = split_parts(gl11)
    assert parts.positive == (0, 1)
    assert parts.negative == (2, 3)
    for name in ("ex2", "ex3", "ex4"):
        assert split_parts(ring_for(name)).negative == ()


def test_split_parts_rejects_non_sign_pairings():
    # A validated table always has +-1 self-pairings, so rig one by hand.
    ring = ring_for("gl11")
    ctx = ScalarContext(4)
    rigged = Bicharacter(ctx, table={(0, 0): parse_scalar("zeta(4)", ctx)})
    bent = ColorLieRing("generic", ring.labels, ring.degrees, ring.table, rigged)
    with pytest.raises(ValueNotSign):
        split_parts(bent)


def test_bicharacter_is_antisymmetric_and_bimultiplicative():
    spec = load_fixture("ex1")
    eps = Bicharacter.from_spec(spec)
    rng = random.Random(17)
    one = Scalar.one(spec.ctx)
    letters = list(spec.group)

    def rand_degree():
        free = [rng.randint(-2, 2) for _ in range(spec.n)]
        return ADegree(tuple(free), rng.choice(letters))

    for _ in range(500):
        a, b, c = rand_degree(), rand_degree(), rand_degree()
        assert eps.eval(a, b) * eps.eval(b, a) == one
        assert eps.eval(a * b, c) == eps.eval(a, c) * eps.eval(b, c)
        assert eps.eval(a, b * c) == eps.eval(a, b) * eps.eval(a, c)


def test_ring_requires_the_hypotheses():
    spec = load_fixture("ex2")
    chars = list(spec.chars)
    chars[-1] = chars[0]
    from qdrinfeld.algebra import AlgebraSpec

    q = {(i, j): spec.q_scalar(i, j) for i in range(3) for j in range(i + 1, 3)}
    kappa = {pair: spec.kappa_pairs(*pair) for pair in spec.kappa_support()}
    broken = AlgebraSpec(spec.ctx, spec.group, chars, q, kappa)
    with pytest.raises(HypothesisNotMet):
        build_color_lie_ring(broken)
    ring = build_color_lie_ring(broken, force=True)
    assert ring.exploratory


def test_quotient_descent_on_ex2():
    spec = load_fixture("ex2")
    N, descends, certs = build_N_and_quotient(spec)
    assert descends and not certs
    ring = build_color_lie_ring(spec)
    report = check_color_axioms(ring, quotient=N)
    assert report.grading is True


def test_quotient_descent_fails_on_ex1():
    spec = load_fixture("ex1")
    N, descends, certs = build_N_and_quotient(spec)
    assert not descends
    values = {cert["value"] for cert in certs}
    assert "-1 - zeta(3)" in values


def test_quotient_descent_on_ex3():
    spec = load_fixture("ex3")
    N, descends, _ = build_N_and_quotient(spec)
    assert descends
    report = check_color_axioms(build_color_lie_ring(spec), quotient=N)
    assert report.grading is True


def test_braiding_compatibility_tracks_the_strong_identity():
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
        spec = load_fixture(name)
        assert check_braiding_compatibility(spec) == check_vanishing(spec, strong=True)[0]
    for spec in corpus(80):
        assert check_braiding_compatibility(spec) == check_vanishing(spec, strong=True)[0]


def test_generic_table_validation():
    base = """\
[field]
conductor = 2

[generic-lie]
free_rank = 0
orders = [2]
basis = x, y
degrees = [[1], [1]]
"""
    with pytest.raises(NonUnitEpsilon):
        generic_color_lie_ring(parse_spec_text(base + "epsilon 1 1 = 0\n"))
    with pytest.raises(SpecError):
        # zeta(4) does not square to 1 on the diagonal
        generic_color_lie_ring(
            parse_spec_text(base.replace("conductor = 2", "conductor = 4") + "epsilon 1 1 = zeta(4)\n")
        )
    ring = generic_color_lie_ring(parse_spec_text(base + "epsilon 1 1 = -1\n"))
    assert ring.epsilon.eval(ring.degrees[0], ring.degrees[1]) == -Scalar.one(ring.epsilon.ctx)
