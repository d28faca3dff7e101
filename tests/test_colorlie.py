import gc
import itertools
import json
import random
import weakref

import pytest

from qdrinfeld.algebra import AlgebraSpec
from qdrinfeld.colorlie import (
    Bicharacter,
    ColorAxiomReport,
    ColorLieRing,
    _own_ring,
    build_color_lie_ring,
    build_N_and_quotient,
    check_braiding_compatibility,
    check_color_axioms,
    generic_color_lie_ring,
    split_parts,
)
from qdrinfeld.errors import HypothesisNotMet, NonUnitEpsilon, SpecError, ValueNotSign
from qdrinfeld.groups import ADegree
from qdrinfeld.pbw import check_pbw, check_vanishing
from qdrinfeld.scalar import Combination, Scalar, ScalarContext, accumulate, parse_scalar
from qdrinfeld.specfile import format_spec, load_fixture, parse_spec_text
from qdrinfeld.uea import iso_check

from randspec import corpus, multi_letter_corpus, parametric_corpus
from test_cli import PBW_WITHOUT_WEAK_VANISHING, run


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


def test_the_bracket_collects_letters_on_the_right():
    spec = load_fixture("ex2")
    ring = build_color_lie_ring(spec)
    e = spec.group.identity()
    g = spec.group.generator(0)
    lam = parse_scalar("lam", spec.ctx)
    # chi_2(g) = -1, and the correction letter g joins the acting letter
    target = ring.index_of((2, g * g))
    assert ring.bracket(ring.index_of((0, g)), ring.index_of((1, e))) == {target: -lam}


def _reference_table(spec):
    """The bracket table entry by entry, in the builder's key order:
    [v_i g, v_j h] = chi_j(g) sum c v_r (w g h) over the terms c v_r w of
    kappa(v_i, v_j)."""
    labels = [(i, g) for i in range(spec.n) for g in spec.group]
    index = {label: s for s, label in enumerate(labels)}
    table = {}
    for s, (i, g) in enumerate(labels):
        for j in range(spec.n):
            terms = spec.kappa_pairs(i, j)
            for h in spec.group if terms else ():
                factor = spec.char_value(j, g)
                table[(s, index[(j, h)])] = {index[(r, w * g * h)]: factor * c for r, w, c in terms}
    return table


def test_the_bracket_table_is_kappa_shifted_by_the_group():
    specs = [load_fixture(name) for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa")]
    specs += corpus(200) + multi_letter_corpus(288, 1) + parametric_corpus(288, 1)
    for spec in specs:
        ring = _own_ring(spec)
        expected = _reference_table(spec)
        assert [(key, list(combo.items())) for key, combo in ring.table.items()] == [
            (key, list(combo.items())) for key, combo in expected.items()
        ], spec.name
        assert ring.degrees == tuple(
            ADegree.generator_degree(spec.n, i, spec.group) * ADegree.group_degree(spec.n, g)
            for i, g in ring.labels
        ), spec.name


def test_the_ring_build_scales_each_kappa_row_once(monkeypatch):
    spec = load_fixture("ex1")
    counts = {"multiply": 0, "degree": 0}
    multiply = Scalar.__mul__
    init = ADegree.__init__

    def counted_multiply(a, b):
        counts["multiply"] += 1
        return multiply(a, b)

    def counted_init(self, *args):
        counts["degree"] += 1
        init(self, *args)

    monkeypatch.setattr(Scalar, "__mul__", counted_multiply)
    monkeypatch.setattr(ADegree, "__init__", counted_init)
    ring = _own_ring(spec)
    # entry by entry the build made 162 products for 162 entries, and 81 degrees
    assert len(ring.table) == 162
    assert counts["multiply"] <= 162 // 9
    assert counts["degree"] <= ring.size == 27


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
    q = {(i, j): spec.q_scalar(i, j) for i in range(3) for j in range(i + 1, 3)}
    kappa = {pair: spec.kappa_pairs(*pair) for pair in spec.kappa_support()}
    broken = AlgebraSpec(spec.ctx, spec.group, chars, q, kappa, name="ex2-recharactered")
    with pytest.raises(HypothesisNotMet) as refused:
        build_color_lie_ring(broken)
    assert str(refused.value) == (
        "ex2-recharactered fails the PBW verdict, which the bracket ring needs"
    )
    ring = _own_ring(broken)
    # a ring built outside the hypotheses does not let a later call skip them
    with pytest.raises(HypothesisNotMet):
        build_color_lie_ring(broken)
    assert ring.spec is broken


def test_the_refusal_names_weak_vanishing_when_only_it_fails():
    spec = parse_spec_text(PBW_WITHOUT_WEAK_VANISHING, name="mixed-cancel")
    assert check_pbw(spec).verdict
    with pytest.raises(HypothesisNotMet) as refused:
        build_color_lie_ring(spec)
    assert str(refused.value) == "mixed-cancel fails weak vanishing, which the bracket ring needs"


def test_a_spec_and_its_ring_die_without_the_cycle_collector():
    # the ring points to its spec, and the spec keeps no reference to it
    spec = load_fixture("ex2")
    ring = build_color_lie_ring(spec)
    assert iso_check(spec, ring) == (True, [])
    refs = weakref.ref(spec), weakref.ref(ring)
    gc.disable()
    try:
        del spec, ring
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


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


def test_lie_reports_what_the_sweep_gives_under_the_hypotheses(tmp_path):
    # `lie` builds no ring on a deformation spec: the paper's theorems give
    # the axioms and N's construction the grading (require_hypotheses);
    # check_color_axioms on the own ring stays their reference
    keys = ("antisymmetry", "jacobi", "bimodule", "yetter_drinfeld", "grading", "passed", "certificates")
    specs = [(name, load_fixture(name)) for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa")]
    for index, spec in enumerate(corpus(200) + multi_letter_corpus(288, 1)):
        report = check_pbw(spec)
        if report.verdict and report.vanishing:
            path = tmp_path / f"{index}.qdo"
            path.write_text(format_spec(spec))
            specs.append((str(path), spec))
    for argument, spec in specs:
        reference = check_color_axioms(_own_ring(spec), quotient=build_N_and_quotient(spec)[0])
        _, out, _ = run(["lie", argument, "--quotient", "--json"])
        report = json.loads(out)
        assert report["grading"] is True and reference.grading is True, argument
        assert {key: report[key] for key in keys} == reference.as_dict(), argument
    assert len(specs) == 5 + 290


def test_braiding_compatibility_tracks_the_strong_identity():
    # the pairing form is the strong identity (check_braiding_compatibility's
    # docstring), so `hopf` reports the PBW report's strong vanishing as
    # braiding_compatible: on the fixtures, acceptance criterion 8's specs
    # and corpus(200), both sides of each kind occur
    specs = [load_fixture(name) for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa")]
    specs += corpus(200)
    kinds = set()
    for spec in specs:
        compatible = check_braiding_compatibility(spec)
        assert compatible == check_pbw(spec).strong_vanishing, spec.name
        assert compatible == check_vanishing(spec, strong=True)[0], spec.name
        kinds.add((compatible, check_pbw(spec).verdict))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


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


def _dense_axioms(ring, quotient=None):
    """Reference sweep over every basis pair and triple, as a report dict.

    It visits the tuples whose brackets are all empty too, so it checks
    that skipping them in check_color_axioms changes nothing.
    """
    eps, size, label = ring.epsilon, ring.size, ring.label_str
    certificates = []
    pair = [[eps.eval(d1, d2) for d2 in ring.degrees] for d1 in ring.degrees]

    def combo(s, t):
        return Combination(ring.bracket(s, t))

    def bracket_with(s, terms):
        out = {}
        for u, c in terms.items():
            for v, d in ring.bracket(s, u).items():
                accumulate(out, v, d * c)
        return Combination(out)

    verdicts = dict.fromkeys(("antisymmetry", "jacobi"), True)
    verdicts.update(dict.fromkeys(("bimodule", "yetter_drinfeld", "grading")))
    for s in range(size):
        for t in range(size):
            got, expected = combo(s, t), combo(t, s).scale(-pair[s][t])
            if got != expected:
                verdicts["antisymmetry"] = False
                certificates.append(
                    {"axiom": "antisymmetry", "x": label(s), "y": label(t),
                     "got": got.sum_str(label), "expected": expected.sum_str(label)}
                )
    for s, t, u in itertools.product(range(size), repeat=3):
        total = Combination()
        for x, y, z in ((s, t, u), (t, u, s), (u, s, t)):
            total = total + bracket_with(x, ring.bracket(y, z)).scale(pair[z][x])
        if not total.is_zero():
            verdicts["jacobi"] = False
            certificates.append(
                {"axiom": "jacobi", "x": label(s), "y": label(t), "z": label(u),
                 "residue": total.sum_str(label)}
            )
    if ring.mode == "from_spec":
        spec, index = ring.spec, ring.index_of
        verdicts["bimodule"] = verdicts["yetter_drinfeld"] = True
        for g in spec.group:
            for s in range(size):
                i, h = ring.labels[s]
                for t in range(size):
                    j, h2 = ring.labels[t]
                    left, right = {}, {}
                    for u, c in ring.bracket(s, t).items():
                        k, h3 = ring.labels[u]
                        accumulate(left, index((k, g * h3)), c * spec.char_value(k, g))
                        accumulate(right, index((k, h3 * g)), c)
                    checks = (
                        ("left", combo(index((i, g * h)), t).scale(spec.char_value(i, g)),
                         Combination(left)),
                        ("balanced", combo(index((i, h * g)), t),
                         combo(s, index((j, g * h2))).scale(spec.char_value(j, g))),
                        ("right", combo(s, index((j, h2 * g))), Combination(right)),
                    )
                    for name, got, expected in checks:
                        if got != expected:
                            verdicts["bimodule"] = False
                            certificates.append(
                                {"axiom": f"bimodule-{name}", "g": str(g), "x": label(s),
                                 "y": label(t), "got": got.sum_str(label),
                                 "expected": expected.sum_str(label)}
                            )
        for g in spec.group:
            gdeg = ADegree.group_degree(spec.n, g)
            for s in range(size):
                acted = spec.char_value(ring.labels[s][0], g)
                paired = eps.eval(gdeg, ring.degrees[s])
                if acted != paired:
                    verdicts["yetter_drinfeld"] = False
                    certificates.append(
                        {"axiom": "yetter-drinfeld", "g": str(g), "v": label(s),
                         "action": str(acted), "pairing": str(paired)}
                    )
    if quotient is not None or ring.mode == "generic":
        verdicts["grading"] = True
        for s, t in itertools.product(range(size), repeat=2):
            target = ring.degrees[s] * ring.degrees[t]
            for u in ring.bracket(s, t):
                if quotient is not None:
                    homogeneous = quotient.congruent(ring.degrees[u], target)
                else:
                    homogeneous = ring.degrees[u] == target
                if not homogeneous:
                    verdicts["grading"] = False
                    certificates.append(
                        {"axiom": "grading", "x": label(s), "y": label(t), "term": label(u),
                         "term_degree": str(ring.degrees[u]), "product_degree": str(target)}
                    )
    return ColorAxiomReport(certificates=tuple(certificates), **verdicts).as_dict()


def _perturbed(ring, rng, kind):
    """The ring with one key dropped, one value doubled, one stray term added
    or one pairing value of a group generator negated."""
    table = {key: dict(value) for key, value in ring.table.items()}
    keys = sorted(table)
    if kind == "pairing":
        values = dict(ring.epsilon._table)
        free = ring.spec.n if ring.spec else 0
        key = rng.choice([key for key in sorted(values) if key[0] >= free])
        values[key] = -values[key]
        epsilon = Bicharacter(ring.epsilon.ctx, values)
        return ColorLieRing(ring.mode, ring.labels, ring.degrees, table, epsilon, spec=ring.spec)
    if kind == "drop" and keys:
        del table[rng.choice(keys)]
    elif kind == "double" and keys:
        key = rng.choice(keys)
        table[key] = {u: c + c for u, c in table[key].items()}
    else:
        one = Scalar.one(ring.epsilon.ctx)
        key = (rng.randrange(ring.size), rng.randrange(ring.size))
        terms = table.setdefault(key, {})
        accumulate(terms, rng.randrange(ring.size), -one if rng.random() < 0.5 else one)
        if not terms:
            del table[key]
    return ColorLieRing(ring.mode, ring.labels, ring.degrees, table, ring.epsilon, spec=ring.spec)


def test_sparse_sweep_matches_the_dense_reference_on_perturbed_rings():
    # the unperturbed rings are pinned by the golden outputs
    failed = 0
    axioms = set()
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa", "gl11"):
        ring = ring_for(name)
        quotient = build_N_and_quotient(ring.spec)[0] if name in ("ex2", "ex3") else None
        for trial, kind in enumerate(("drop", "double", "stray", "pairing")):
            broken = _perturbed(ring, random.Random(f"{name}-{trial}"), kind)
            report = check_color_axioms(broken).as_dict()
            assert report == _dense_axioms(broken), (name, kind)
            failed += not report["passed"]
            axioms.update(cert["axiom"] for cert in report["certificates"])
            if quotient is not None:
                report = check_color_axioms(broken, quotient=quotient).as_dict()
                assert report == _dense_axioms(broken, quotient), (name, kind)
    # every perturbation breaks an axiom, so certificates are compared, not only verdicts
    assert failed == 24
    assert {"antisymmetry", "jacobi", "bimodule-left", "yetter-drinfeld", "grading"} <= axioms


def _own_rings():
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
        yield name, _own_ring(load_fixture(name))
    for spec in corpus(60):
        yield spec.name, _own_ring(spec)
    for spec in multi_letter_corpus(72, 2):
        if spec.n * len(spec.group) <= 12:
            yield spec.name, _own_ring(spec)


def test_own_rings_match_the_dense_reference_decided_from_the_spec_or_swept():
    compared = failed = invariant = swept = 0
    for label, ring in _own_rings():
        report = check_color_axioms(ring).as_dict()
        assert report == _dense_axioms(ring), label
        compared += 1
        failed += not report["bimodule"]
        if check_pbw(ring.spec).cond1:
            invariant += 1
            swept += not report["jacobi"]
    # the invariant rings include 7 that fail Jacobi, outside the paper's
    # hypotheses; where a module law fails on a generator, the certificates
    # of every element are compared
    assert (compared, failed, invariant, swept) == (105, 15, 90, 7)


def _with_kappa(spec, pair, terms):
    kappa = {key: spec.kappa_pairs(*key) for key in spec.kappa_support()}
    kappa[pair] = terms
    return AlgebraSpec(spec.ctx, spec.group, spec.chars, spec.q_table(), kappa, name=spec.name)


def test_planted_kappa_faults_on_ex4_match_the_dense_reference():
    spec = load_fixture("ex4")
    (r, g, c), = spec.kappa_pairs(0, 2)
    doubled = _with_kappa(spec, (0, 2), ((r, g, c + c),))
    # chi_3 chi_4 = chi_3, so [v3, v4] = v3 keeps kappa invariant
    planted = _with_kappa(spec, (2, 3), ((2, spec.group.identity(), Scalar.one(spec.ctx)),))
    jacobi = []
    for variant in (doubled, planted):
        assert check_pbw(variant).cond1
        ring = _own_ring(variant)
        report = check_color_axioms(ring).as_dict()
        assert report == _dense_axioms(ring)
        jacobi.append(report["jacobi"])
    # doubling lam1's coefficient keeps Jacobi; the planted term breaks it
    assert jacobi == [True, False]


def test_a_stray_bracket_term_takes_the_sweep_over_the_group():
    ring = ring_for("ex3")
    e, g = ring.spec.group.identity(), ring.spec.group.generator(0)
    table = {key: dict(value) for key, value in ring.table.items()}
    # [v3, v3 g] = v3 g^2 is no image of the module laws on the spec's bracket
    s, t, u = (ring.index_of(label) for label in ((2, e), (2, g), (2, g * g)))
    table[(s, t)] = {u: Scalar.one(ring.spec.ctx)}
    stray = ColorLieRing(ring.mode, ring.labels, ring.degrees, table, ring.epsilon, spec=ring.spec)
    report = check_color_axioms(stray).as_dict()
    assert report == _dense_axioms(stray)
    elements = [cert["g"] for cert in report["certificates"] if cert["axiom"].startswith("bimodule")]
    assert elements == sorted(elements) and set(elements) == {"g(1)", "g(2)"}


def test_module_law_work_on_ex1_is_a_quarter_of_the_sweep_over_the_group(monkeypatch):
    ring = build_color_lie_ring(load_fixture("ex1"))
    calls = []
    multiply = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: calls.append(1) or multiply(a, b))
    assert check_color_axioms(ring).passed
    # the sweep over all nine elements of Z/3 x Z/3 made 6,030
    assert len(calls) <= 6030 // 4
