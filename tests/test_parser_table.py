"""Every expression entry point against a recorded table of outcomes.

Each case is parsed through the public spec and expression readers and
recorded as the ``str`` of what it parses to, or as the class name of the
error it raises.  The table in tests/golden/parser_table.txt holds the
outcomes of a known-good revision; a change to the expression grammar must
leave every line unchanged.  When an outcome change is intended, regenerate
the table from the repository root with

    PYTHONPATH=src python tests/test_parser_table.py

and review the diff.
"""

from pathlib import Path

from qdrinfeld.specfile import format_spec, load_fixture, parse_nc_expression, parse_spec_text

TABLE = Path(__file__).resolve().parent / "golden" / "parser_table.txt"

SMALL = """\
[field]
conductor = 6
params = q, lam

[group]
orders = [2, 3]

[action]
characters = [[1, 0], [0, 1]]

[q]
1 2 = {q}
"""

# entry point -> inputs; the entry points are a [q] row and a [kappa] row of
# SMALL, the right-hand side of one bracket row of gl11, and normal-form
# expressions on ex2 and ex4
CASES = {
    "q": [
        "q", "q^-1", "-q^-1", "q^ - 2", "q^2*lam^-1", "2/3", "3/6", "1 + 1",
        "2*-3", "--q", "-(q)", "-(-q)", "-q^2", "-2^2^2", "(q*lam)^-2",
        "zeta(3)", "zeta(6)^5", "q*zeta(2)", "zeta(1)", "q # trailing comment",
        "1/2/3", "2/0", "2/-3", "q/2", "2^3^2", "q^-1^2", "q^", "q^(2)",
        "q^--1", "(q", "q)", "q q", "2 q", "mu", "v1", "g", "q,", "q;", "",
        "zeta(4)", "zeta(0)", "zeta(-1)", "zeta", "zeta(q)", "q + 1",
        "(1+q)^-1", "0^-1", "0",
    ],
    "kappa": [
        "1 (1,0) lam", "1 ( 1 , 0 ) lam", "2 (-1,0) q", "2 (+1,0) q",
        "1 (4,5) lam", "1 (1,0) lam ; 2 (0,1) 2/3", "1 (1,0) (1+q)^2",
        "1 (1,0) -lam*q^-1", "1 (1 ,0) zeta(3)", "1 (1,0) 0", "1 (1,0)(2)",
        "1 (1_0,0) lam",
        "1 (1) lam", "1 (1,0,0) lam", "1 () lam", "1 (1,0)", "1 (1,0 lam",
        "1 1,0) lam", "1 (a,0) lam", "1 (1.5,0) lam", "1 (1 0) lam",
        "1 (1,,0) lam", "1 (1,0,) lam", "3 (1,0) lam", "1 (1,0) lam ;",
        "1(1,0) lam", "x (1,0) lam", "1 x(1,0) lam", "1 (1,0) mu",
        "1 (1,0) zeta(4)",
    ],
    "bracket": [
        "E11 + E22", "E11+E22", "-E11", "--E11", "- -E11", "2*E11*3", "E11*2",
        "1/2*E11 - 2/3*E22", "2^-1*E11", "(1+2)*E11", "2^2*E11", "E11*-3",
        "E11*-2^2^2", "-2*E11 + -E22", "E11 - -E22", "0*E11", "0", "E11 + 0",
        "E11 + (1-1)", "E11 - E11", "zeta(2)*E11", "E12", "E11*E22",
        "E12^2", "E12*E12", "E11 + 1", "1", "", "E11 E22", "E11/2",
        "zeta(3)*E11", "F", "2*F", "2 3*E11", "2^3^2*E11",
        "E11)", "(E11", "E11*-E22",
        "E11^0", "2E11",
    ],
    "nc-ex2": [
        "v2*v1", "q*v2*v1*g(1)", "--v1", "-v1^2", "-(v1)", "v1^0", "v1^2*g(1)*v2",
        "(v1+v2)^2", "lam*(v2*v1 - v1*v2)", "2/3*v1", "q^-1*v1", "(q)^2",
        "zeta(4)*v3", "zeta(2)", "g(1)", "g(-1)", "g(3)", "g (1)", "0*v1", "0",
        "1/2/3", "2/0", "v1^-1", "v1^(2)", "v1^2^2", "v4", "v0", "v", "v1a",
        "g()", "g(1,0)", "g(1", "g", "x", "v1 v2", "v1*", "", "v1/2", "2/v1",
        "v1,", "v1;",
    ],
    "nc-ex4": [
        "v4*v3*v2*v1*g(1,1)", "g( 1 , 0 )", "g(-1,0)", "g(1,0)*v1", "v3*v1",
        "lam1*v1*v3 + lam2*v2*v4", "lam1^-1*v1", "(lam1+lam2)*v2", "g(1)",
        "g(1,0,0)", "v5", "E12", "lam", "2*E12*3",
    ],
}


def _outcome(parse) -> str:
    try:
        return str(parse())
    except Exception as exc:  # the error class is the recorded outcome
        return type(exc).__name__


def _q_value(text):
    return parse_spec_text(SMALL.format(q=text)).q_scalar(0, 1)


def _kappa_line(text):
    spec = parse_spec_text(SMALL.format(q="1") + "\n[kappa]\n1 2 -> " + text + "\n")
    rows = [line for line in format_spec(spec).splitlines() if "->" in line]
    return " | ".join(rows) or "(no kappa)"


def _bracket_line(text):
    gl11 = format_spec(load_fixture("gl11"))
    source = gl11.replace("bracket E12 E21 = E11 + E22", "bracket E12 E21 = " + text)
    rows = [
        line
        for line in format_spec(parse_spec_text(source)).splitlines()
        if line.startswith("bracket E12 E21")
    ]
    return " | ".join(rows) or "(no bracket)"


def table_lines() -> list[str]:
    specs = {"nc-ex2": load_fixture("ex2"), "nc-ex4": load_fixture("ex4")}
    readers = {"q": _q_value, "kappa": _kappa_line, "bracket": _bracket_line}
    for entry, spec in specs.items():
        readers[entry] = lambda text, spec=spec: parse_nc_expression(text, spec)
    lines = []
    for entry, inputs in CASES.items():
        for text in inputs:
            outcome = _outcome(lambda: readers[entry](text))
            lines.append(f"{entry}\t{text}\t{outcome}")
    return lines


def test_every_entry_point_matches_the_recorded_table():
    lines = table_lines()
    assert len(lines) == len(set(lines)) >= 80
    expected = TABLE.read_text().splitlines()
    for got, want in zip(lines, expected):
        assert got == want
    assert len(lines) == len(expected)


if __name__ == "__main__":
    TABLE.write_text("\n".join(table_lines()) + "\n")
