import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qdrinfeld.algebra import AlgebraSpec
from qdrinfeld.cli import main
from qdrinfeld.errors import ParseError, SpecError
from qdrinfeld.specfile import (
    GenericLieData,
    fixture_names,
    fixture_path,
    format_spec,
    load_fixture,
    parse_nc_expression,
    parse_spec_file,
    parse_spec_text,
)

MINIMAL = """\
[field]
conductor = 2

[group]
orders = [2]

[action]
characters = [[1], [1]]

[q]
1 2 = -1
"""


def test_corpus_has_exactly_six_named_fixtures():
    corpus = {name: load_fixture(name) for name in fixture_names()}
    assert sorted(corpus) == sorted(fixture_names())
    assert len(corpus) == 6


def test_fixture_shapes():
    ex1 = load_fixture("ex1")
    assert ex1.n == 3 and len(ex1.group) == 9
    ex4 = load_fixture("ex4")
    assert ex4.n == 4 and tuple(ex4.group.orders) == (2, 2)
    gl11 = load_fixture("gl11")
    assert isinstance(gl11, GenericLieData)
    assert gl11.basis == ("E11", "E22", "E12", "E21")


def test_unknown_fixture_name():
    with pytest.raises(SpecError):
        fixture_path("ex9")


def test_minimal_spec_parses_with_empty_kappa():
    spec = parse_spec_text(MINIMAL)
    assert isinstance(spec, AlgebraSpec)
    assert spec.kappa_support() == []


def test_canonical_round_trip_on_every_fixture():
    for name in fixture_names():
        first = load_fixture(name)
        text = format_spec(first)
        second = parse_spec_text(text, name=name)
        assert format_spec(second) == text


def test_malformed_scalar_reports_its_line():
    bad = MINIMAL.replace("1 2 = -1", "1 2 = q^")
    with pytest.raises(ParseError) as info:
        parse_spec_text(bad)
    assert "q^" in str(info.value)


def test_a_missing_section_names_no_line():
    text = MINIMAL.replace("[group]\norders = [2]\n", "")
    with pytest.raises(ParseError) as info:
        parse_spec_text(text)
    assert info.value.line is None
    assert str(info.value) == "missing section [group]"


def test_a_boolean_in_an_integer_row_is_refused_on_its_line():
    # bool is an int subclass, so [true, 2] once parsed as Z/1 x Z/2
    rows = {
        "orders = [2]": "orders = [true, 2]",
        "characters = [[1], [1]]": "characters = [[1], [false]]",
    }
    for row, bad in rows.items():
        text = MINIMAL.replace(row, bad)
        with pytest.raises(ParseError) as info:
            parse_spec_text(text)
        assert info.value.line == text.splitlines().index(bad) + 1, bad
        assert "list of integers" in str(info.value)


def test_duplicate_q_entry_rejected():
    with pytest.raises(ParseError):
        parse_spec_text(MINIMAL + "1 2 = -1\n")


def test_inconsistent_q_transpose_rejected():
    with pytest.raises(SpecError):
        parse_spec_text(MINIMAL + "2 1 = 1\n")


def test_consistent_q_transpose_accepted():
    spec = parse_spec_text(MINIMAL + "2 1 = -1\n")
    assert spec.q_scalar(1, 0) == spec.q_scalar(0, 1)


def test_kappa_diagonal_rejected():
    bad = MINIMAL + "\n[kappa]\n1 1 -> 2 (0) 1\n"
    with pytest.raises((ParseError, SpecError)):
        parse_spec_text(bad)


def test_mixed_sections_rejected():
    bad = MINIMAL + "\n[generic-lie]\nfree_rank = 0\n"
    with pytest.raises(ParseError):
        parse_spec_text(bad)


def test_characters_row_count_must_match_generators():
    bad = MINIMAL.replace("[[1], [1]]", "[[1]]")
    with pytest.raises((ParseError, SpecError)):
        parse_spec_text(bad)


def test_generic_bracket_duplicate_rejected():
    text = format_spec(load_fixture("gl11"))
    bad = text + "bracket E11 E12 = E12\n"
    with pytest.raises((ParseError, SpecError)):
        parse_spec_text(bad)


def test_generic_lie_round_trip_preserves_tables():
    gl11 = load_fixture("gl11")
    again = parse_spec_text(format_spec(gl11), name="gl11")
    assert again.basis == gl11.basis
    assert again.epsilon_table == gl11.epsilon_table
    assert again.brackets == gl11.brackets


def test_unclosed_group_element_in_kappa_is_a_parse_error():
    bad = MINIMAL.replace("[[1], [1]]", "[[1], [1], [0]]") + "\n[kappa]\n1 2 -> 3 (1\n"
    with pytest.raises(ParseError) as info:
        parse_spec_text(bad)
    assert info.value.line == bad.splitlines().index("1 2 -> 3 (1") + 1


def test_bracket_row_errors_quote_the_row_and_its_line():
    text = format_spec(load_fixture("gl11")).replace(
        "bracket E12 E21 = E11 + E22", "bracket E12 E21 = E11 + 2*(F - E22)"
    )
    with pytest.raises(ParseError) as info:
        parse_spec_text(text)
    assert info.value.line == text.splitlines().index("bracket E12 E21 = E11 + 2*(F - E22)") + 1
    assert str(info.value) == (
        f"line {info.value.line}: unknown identifier 'F' in 'E11 + 2*(F - E22)'"
    )


def test_bracket_rows_read_labels_anywhere_in_the_grammar():
    gl11 = load_fixture("gl11")
    source = format_spec(gl11)
    for rhs in ("(E11 + E22)", "-(-E11) + E22", "(E11 + E22)*2*1/2", "E11 - 1 + 1 + E22"):
        again = parse_spec_text(source.replace("= E11 + E22", "= " + rhs))
        assert again.brackets == gl11.brackets, rhs
    for rhs in ("(E11 + 1)*E22", "E11^2", "(E11 + E22)^-1", "E11 + 1"):
        with pytest.raises(ParseError):
            parse_spec_text(source.replace("= E11 + E22", "= " + rhs))


def test_negative_powers_invert_scalar_values_only():
    ex2 = load_fixture("ex2")
    assert parse_nc_expression("(q)^-1*v1", ex2) == parse_nc_expression("q^-1*v1", ex2)
    assert str(parse_nc_expression("(q*lam)^-1*v1", ex2)) == "q^-1*lam^-1*v1"
    with pytest.raises(ParseError):
        parse_nc_expression("(q*v1)^-1", ex2)
    with pytest.raises(ParseError):
        parse_nc_expression("(1 + q)^-1*v1", ex2)


def test_a_negative_power_of_a_non_unit_is_refused_on_its_line():
    source = format_spec(load_fixture("ex2"))
    rows = {"1 2 -> 3 (1) lam": "1 2 -> 3 (1) (1+lam)^-1", "2 3 = -q": "2 3 = 0^-1"}
    for row, bad in rows.items():
        text = source.replace(row, bad)
        with pytest.raises(ParseError) as info:
            parse_spec_text(text)
        assert info.value.line == text.splitlines().index(bad) + 1, bad
        assert "not a unit" in str(info.value)
    for unit in ("2^-1", "(1/2)^-1", "(q*lam)^-1"):
        parse_spec_text(source.replace("1 2 -> 3 (1) lam", "1 2 -> 3 (1) " + unit))


# q_12 = i, so q_21 = -i and kappa(v2, v1) = -q_21 kappa(v1, v2) = i kappa(v1, v2)
TRANSPOSE_BASE = """\
[field]
conductor = 4
params = lam

[group]
orders = [2]

[action]
characters = [[1], [1], [0]]

[q]
1 2 = zeta(4)

[kappa]
"""
KAPPA_12 = "1 2 -> 3 (1) 2 ; 1 (0) lam\n"
KAPPA_21 = "2 1 -> 3 (1) 2*zeta(4) ; 1 (0) zeta(4)*lam\n"
ANTISYMMETRY_ERROR = r"kappa\(1,2\) given twice with values that violate quantum antisymmetry"


def _transpose_spec(rows: str):
    return parse_spec_text(TRANSPOSE_BASE + rows)


def test_transposed_kappa_row_gives_the_canonical_text_of_its_pair():
    assert format_spec(_transpose_spec(KAPPA_21)) == format_spec(_transpose_spec(KAPPA_12))


def test_kappa_pair_given_both_ways_consistently_is_accepted():
    for rows in (KAPPA_12 + KAPPA_21, KAPPA_21 + KAPPA_12):
        spec = _transpose_spec(rows)
        assert spec.kappa_support() == [(0, 1)]
        assert format_spec(spec) == format_spec(_transpose_spec(KAPPA_12))


def test_kappa_pair_given_both_ways_inconsistently_is_rejected():
    with pytest.raises(SpecError, match=ANTISYMMETRY_ERROR):
        _transpose_spec(KAPPA_12 + KAPPA_21.replace("2*zeta(4)", "2"))


def test_zero_kappa_row_then_nonzero_transpose_is_rejected():
    with pytest.raises(SpecError, match=ANTISYMMETRY_ERROR):
        _transpose_spec("1 2 -> 3 (1) 0\n" + KAPPA_21)


def test_all_zero_transposed_kappa_row_leaves_no_kappa_section():
    spec = _transpose_spec("2 1 -> 3 (1) 0 ; 1 (0) 0*lam\n")
    assert spec.kappa_support() == []
    assert "[kappa]" not in format_spec(spec)


def test_a_spec_file_is_read_as_utf8(tmp_path):
    # whatever the locale's encoding
    path = tmp_path / "plane.qdo"
    path.write_bytes(("# quantum plane, q = -1 (Größe 2)\n" + MINIMAL).encode("utf-8"))
    spec = parse_spec_file(path)
    assert spec.name == "plane" and format_spec(spec) == format_spec(parse_spec_text(MINIMAL))


def test_a_spec_file_may_start_with_a_byte_order_mark(tmp_path):
    # some editors write UTF-8 with a BOM; it is no content before a header
    path = tmp_path / "ex2.qdo"
    path.write_bytes(b"\xef\xbb\xbf" + fixture_path("ex2").read_bytes())
    assert format_spec(parse_spec_file(path)) == format_spec(load_fixture("ex2"))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["check", str(path)]) == 0


@pytest.mark.parametrize("data", [b"\xff\xfe\x00", MINIMAL.encode("utf-8") + b"# \xe9\n"])
def test_a_spec_file_that_is_not_utf8_is_a_parse_error(tmp_path, data):
    path = tmp_path / "bin.qdo"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=r"bin\.qdo is not UTF-8 text") as info:
        parse_spec_file(path)
    assert info.value.__cause__ is None and info.value.__suppress_context__
