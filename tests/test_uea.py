"""Enveloping-algebra presentations, the comparison map, and dimension counts."""

import pytest

from qdrinfeld import pbw, uea
from qdrinfeld.colorlie import (
    ColorLieRing,
    _own_ring,
    build_color_lie_ring,
    check_color_axioms,
    generic_color_lie_ring,
)
from qdrinfeld.errors import (
    AxiomsFailed,
    InternalInconsistency,
    NotPurelyPositive,
    SpecError,
    SymbolicParameter,
)
from qdrinfeld.pbw import check_pbw
from qdrinfeld.scalar import Scalar, parse_scalar
from qdrinfeld.specfile import format_spec, load_fixture, parse_spec_text
from qdrinfeld.uea import (
    build_uea,
    converse_construct,
    dimension_oracle,
    instantiate_spec,
    iso_check,
    j_generator_image,
    pbw_for_uea,
)
from qdrinfeld.algebra import (
    NCElement,
    all_words,
    defining_relation,
    normal_form,
    pbw_monomial_count,
)
from qdrinfeld.cyclotomic import CyclotomicNumber

from randspec import corpus, multi_letter_corpus, parametric_corpus
from test_cli import _two_generator_spec


def test_gl11_presentation_reduces_words():
    ring = generic_color_lie_ring(load_fixture("gl11"))
    pres = build_uea(ring)
    assert pres.base == "field"
    one = Scalar.one(ring.epsilon.ctx)
    m = ring.index_of("E21")
    # E21 is odd so E21^2 rewrites to [E21, E21]/2 = 0, but E21 itself
    # survives: the square is the only thing that dies.
    assert pres.reduce({(m, m): one}) == {}
    assert pres.reduce({(m,): one}) == {(m,): one}
    e11, e22, e12 = ring.index_of("E11"), ring.index_of("E22"), ring.index_of("E12")
    assert pres.reduce({(m, e12): one}) == {
        (e12, m): -one,
        (e11,): one,
        (e22,): one,
    }


def test_presentation_sorts_a_commuting_basis():
    text = """\
[field]
conductor = 2

[generic-lie]
free_rank = 0
orders = [2]
basis = x, y
degrees = [[0], [0]]
"""
    ring = generic_color_lie_ring(parse_spec_text(text))
    pres = build_uea(ring)
    one = Scalar.one(ring.epsilon.ctx)
    assert pres.reduce({(1, 0): one}) == {(0, 1): one}
    assert pres.square_rules == {}


def test_group_labelled_rings_use_the_skew_engine():
    spec = load_fixture("ex2")
    pres = build_uea(build_color_lie_ring(spec))
    assert pres.base == "group-algebra"
    assert pres.engine_spec is not None
    with pytest.raises(SpecError):
        pres.reduce({(0,): Scalar.one(spec.ctx)})


def test_iso_check_passes_on_fixture_rings():
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
        spec = load_fixture(name)
        ok, certificates = iso_check(spec, build_color_lie_ring(spec))
        assert ok and not certificates, name


def test_iso_check_residues_are_stable_under_reduction():
    spec = load_fixture("ex3")
    ring = build_color_lie_ring(spec)
    image = j_generator_image(spec, ring, 0, 1)
    reduced = normal_form(image)
    assert normal_form(reduced) == reduced


def perturbed_ring(spec, pair):
    """Scale the bracket of one pair of basis labels by 2, leaving the rest alone."""
    ring = build_color_lie_ring(spec)
    table = {key: dict(combo) for key, combo in ring.table.items()}
    s, t = (ring.index_of(label) for label in pair)
    two = Scalar.one(spec.ctx) + Scalar.one(spec.ctx)
    table[(s, t)] = {u: c * two for u, c in table[(s, t)].items()}
    table[(t, s)] = {u: c * two for u, c in table[(t, s)].items()}
    return ColorLieRing("from_spec", ring.labels, ring.degrees, table, ring.epsilon, spec=spec)


def identity_pair(spec):
    e = spec.group.identity()
    return ((0, e), (1, e))


def test_iso_check_flags_a_perturbed_ring():
    spec = load_fixture("ex2")
    ok, certificates = iso_check(spec, perturbed_ring(spec, identity_pair(spec)))
    assert not ok
    directions = {cert["direction"] for cert in certificates}
    assert "ring to deformation" in directions
    assert "deformation to enveloping algebra" in directions
    assert all(cert["residue"] != "0" for cert in certificates)


def test_perturbed_ring_fails_the_axioms_gate():
    spec = load_fixture("ex2")
    bent = perturbed_ring(spec, identity_pair(spec))
    with pytest.raises(AxiomsFailed):
        build_uea(bent)
    with pytest.raises(AxiomsFailed):
        pbw_for_uea(bent)


def _reference_iso(spec, ring):
    """Reference comparison map: reduce every ordered basis pair, then every relation.

    iso_check reduces the same data; this copy stays the reference for
    any shortcut it takes.
    """
    certificates = []
    engine = uea._spec_from_ring(ring)
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
            residue = normal_form(NCElement(engine, dict(relation.terms)))
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


def _forward(certificates):
    return [cert for cert in certificates if cert["direction"] == "ring to deformation"]


def off_identity_pairs(spec):
    """(v1 g, v2 e) and (v1 g, v2 g) for every g other than the identity."""
    e = spec.group.identity()
    for g in spec.group:
        if g != e:
            yield ((0, g), (1, e))
            yield ((0, g), (1, g))


def test_iso_check_flags_a_bracket_bent_off_the_identity():
    # every generator residue vanishes on these rings, so a forward
    # direction that looks at the generators alone would pass them
    compared = 0
    for name in ("ex2", "ex3"):
        spec = load_fixture(name)
        for pair in off_identity_pairs(spec):
            ring = perturbed_ring(spec, pair)
            ok, certificates = iso_check(spec, ring)
            assert not ok and len(_forward(certificates)) == 2, (name, pair)
            assert (ok, certificates) == _reference_iso(spec, ring), (name, pair)
            compared += 1
    assert compared == 6


def _rings_to_compare():
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
        spec = load_fixture(name)
        yield name, spec, _own_ring(spec)
        if spec.n > 1 and spec.kappa_pairs(0, 1):
            yield (name, "perturbed"), spec, perturbed_ring(spec, identity_pair(spec))
    for spec in corpus(60):
        yield spec.name, spec, _own_ring(spec)
    for order in (4, 6):
        spec = parse_spec_text(_two_generator_spec(order))
        yield order, spec, build_color_lie_ring(spec)


def test_iso_check_matches_the_reference():
    compared = 0
    for label, spec, ring in _rings_to_compare():
        assert iso_check(spec, ring) == _reference_iso(spec, ring), label
        compared += 1
    assert compared == 70


def _count_comparison_work(monkeypatch):
    """Patch the comparison map's steps and ring construction to log their calls."""
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    for name in ("j_generator_image", "normal_form", "_spec_from_ring"):
        monkeypatch.setattr(uea, name, counting(name, getattr(uea, name)))
    monkeypatch.setattr(
        ColorLieRing, "__init__", counting("ColorLieRing", ColorLieRing.__init__)
    )
    return calls


def test_a_ring_of_an_equal_spec_is_not_the_own_ring(monkeypatch):
    # equal labels, degrees and table, but another spec and pairing object
    spec = load_fixture("ex2")
    own = build_color_lie_ring(spec)
    twin = build_color_lie_ring(load_fixture("ex2"))
    assert twin is not own and twin.epsilon is not own.epsilon
    assert (twin.labels, twin.degrees, twin.table) == (own.labels, own.degrees, own.table)
    calls = _count_comparison_work(monkeypatch)
    assert iso_check(spec, twin) == (True, [])
    assert calls.count("j_generator_image") == twin.size ** 2
    # a bent ring is reduced pair by pair, and iso_check builds no ring
    spec = load_fixture("ex1")
    bent = perturbed_ring(spec, identity_pair(spec))
    calls.clear()
    assert not iso_check(spec, bent)[0]
    assert calls.count("j_generator_image") == bent.size ** 2 == 729
    assert "ColorLieRing" not in calls


def test_dimension_counts_match_on_fixtures():
    for name, d, expected in (("ex2", 3, 40), ("ex3", 3, 60), ("ex1", 2, 90)):
        spec = load_fixture(name)
        pbw_count, quotient_dim = dimension_oracle(spec, d)
        assert (pbw_count, quotient_dim) == (expected, expected), name


def _ex2_with_a_second_kappa_row():
    text = format_spec(load_fixture("ex2")).replace(
        "1 2 -> 3 (1) lam", "1 2 -> 3 (1) lam\n1 3 -> 3 (1) lam"
    )
    return parse_spec_text(text, name="broken")


def test_dimension_collapse_when_the_verdict_fails():
    broken = _ex2_with_a_second_kappa_row()
    assert not check_pbw(broken).verdict
    assert dimension_oracle(broken, 3) == (40, 32)


def test_instantiation_overrides():
    spec = load_fixture("ex2")
    five = parse_scalar("5", spec.ctx)
    assert dimension_oracle(spec, 3, {"lam": five}) == (40, 40)
    inst = instantiate_spec(spec, {"lam": five})
    assert not inst.ctx.params
    with pytest.raises(SpecError):
        instantiate_spec(spec, {"mu": five})
    with pytest.raises(SymbolicParameter):
        instantiate_spec(spec, {"lam": parse_scalar("q*lam", spec.ctx)})


def _dense_dimension_oracle(spec, d, instantiate=None):
    """Reference count: every row u*g1*rel*w*g2 eliminated over the columns (word, g).

    It does not split by the characters of G, so it checks the
    decomposition that dimension_oracle rests on.
    """
    inst = instantiate_spec(spec, instantiate)
    n = inst.n
    columns = {}
    for word in all_words(n, d):
        for g in inst.group:
            columns[(word, g)] = len(columns)
    relations = [defining_relation(inst, j, i) for i in range(n) for j in range(i + 1, n)]
    rows = []
    flank = d - 2
    for relation in relations:
        for u in all_words(n, flank):
            for w in all_words(n, flank - len(u)):
                for g1 in inst.group:
                    middle = NCElement.monomial(inst, u, g1) * relation
                    for g2 in inst.group:
                        product = middle * NCElement.monomial(inst, w, g2)
                        row = {
                            columns[key]: coeff.constant_value()
                            for key, coeff in product.terms.items()
                        }
                        if row:
                            rows.append(row)
    return pbw_monomial_count(inst, d), len(columns) - uea._rank(rows)


def _dimension_cases():
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
        for d in range(4):
            yield (name, d), load_fixture(name), d, None
    for spec in corpus(60):
        yield spec.name, spec, 3, None
    # every third shape: each group, n = 2..4 and every style
    for spec in multi_letter_corpus(72, 1)[::3]:
        yield spec.name, spec, 3, None
    yield "ex2 with a second kappa row", _ex2_with_a_second_kappa_row(), 3, None
    spec = load_fixture("ex2")
    yield "ex2 at lam = 5", spec, 3, {"lam": parse_scalar("5", spec.ctx)}


def test_dimension_oracle_matches_the_dense_reference():
    compared = differ = 0
    for label, spec, d, values in _dimension_cases():
        counts = dimension_oracle(spec, d, values)
        assert counts == _dense_dimension_oracle(spec, d, values), label
        compared += 1
        differ += counts[0] != counts[1]
    # the counts differ where PBW fails, so the corank is compared, not only full rank
    assert (compared, differ) == (106, 33)


def test_dimension_oracle_work_is_a_quarter_of_the_dense_elimination(monkeypatch):
    spec = load_fixture("ex1")
    calls = []
    multiply = CyclotomicNumber.__mul__
    monkeypatch.setattr(
        CyclotomicNumber, "__mul__", lambda a, b: calls.append(1) or multiply(a, b)
    )
    assert dimension_oracle(spec, 2) == (90, 90)
    # the dense elimination makes 1,728
    assert len(calls) <= 1728 // 4


def test_converse_recovers_the_fixture_specs():
    for name in ("ex1", "ex2", "ex3", "ex4", "zero-kappa"):
        spec = load_fixture(name)
        rebuilt = converse_construct(build_color_lie_ring(spec))
        assert format_spec(rebuilt) == format_spec(spec), name


def test_the_papers_theorems_hold_where_all_takes_them():
    # PBW with weak vanishing: the bracket ring is a color Lie ring and its
    # enveloping algebra is the deformation, so run_all takes lie and uea as
    # true; the deciders are its reference here, on shapes no fixture has
    gated = outside = 0
    for spec in corpus(200) + multi_letter_corpus(288, 1) + parametric_corpus(288, 1):
        report = check_pbw(spec)
        if not (report.verdict and report.vanishing):
            outside += 1
            continue
        gated += 1
        own = build_color_lie_ring(spec)
        assert check_color_axioms(own).passed, spec.name
        assert format_spec(converse_construct(own)) == format_spec(spec), spec.name
        if spec.n * len(spec.group) <= 12:
            assert iso_check(spec, own) == (True, []), spec.name
            for d in (2, 3):
                pbw_count, quotient_dim = dimension_oracle(spec, d)
                assert pbw_count == quotient_dim, (spec.name, d)
    assert (gated, outside) == (433, 343)


def test_converse_refuses_exactly_the_own_rings_that_break_its_conditions():
    # the rebuilt spec of an own ring is the spec itself, so the check of
    # invariance, weak vanishing and condition 3 raises exactly where the
    # spec fails one of them; elsewhere the spec round-trips
    refused = kept = 0
    for spec in corpus(60):
        report = check_pbw(spec)
        own = _own_ring(spec)
        if report.cond1 and report.vanishing and report.cond3:
            assert format_spec(converse_construct(own)) == format_spec(spec), spec.name
            kept += 1
        else:
            with pytest.raises(InternalInconsistency, match="inherit the compatibility"):
                converse_construct(own)
            refused += 1
    assert (refused, kept) == (19, 41)


def test_converse_requires_a_positive_basis():
    ring = generic_color_lie_ring(load_fixture("gl11"))
    with pytest.raises(NotPurelyPositive) as info:
        converse_construct(ring)
    assert "E12" in str(info.value) and "E21" in str(info.value)


def test_pbw_for_uea_on_fixture_rings():
    for name in ("ex1", "ex2", "ex3", "ex4"):
        spec = load_fixture(name)
        assert pbw_for_uea(build_color_lie_ring(spec)) is True, name


def test_pbw_for_uea_decides_weak_vanishing_once(monkeypatch):
    ring = build_color_lie_ring(load_fixture("ex2"))
    decided = []
    sweep = pbw._identity_failures
    monkeypatch.setattr(pbw, "_identity_failures", lambda spec: decided.append(spec) or sweep(spec))
    assert pbw_for_uea(ring)
    # the weak answer is filtered from the strong one, decided once
    assert len(decided) == 1
