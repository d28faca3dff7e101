"""Property: any spec text is refused with an input error or formats to a fixed point.

The texts are built from section headers, rows, names, integers and
operators, some in a sensible skeleton and some shuffled.  parse_spec_text
must either raise ParseError or SpecError, or its canonical form f must
satisfy format_spec(parse_spec_text(f)) == f.  Any other exception fails.
Every algebra that parses must also get a PBW report: the closed form
and the overlap oracle agree on it, so check_pbw raises nothing.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qdrinfeld.algebra import AlgebraSpec  # noqa: E402
from qdrinfeld.errors import ParseError, SpecError  # noqa: E402
from qdrinfeld.pbw import check_pbw  # noqa: E402
from qdrinfeld.specfile import format_spec, parse_spec_text  # noqa: E402

HEADERS = ["[field]", "[group]", "[action]", "[q]", "[kappa]", "[generic-lie]", "[other]"]
NAMES = ["q", "lam", "A", "B", "zeta", "v1", "g", "x"]
OPERATORS = ["+", "-", "*", "/", "^", "(", ")", ",", ";", "->", "="]

small = st.integers(0, 6).map(str)
index = st.integers(0, 4).map(str)
soup = st.lists(st.one_of(small, st.sampled_from(NAMES + OPERATORS)), max_size=6).map(" ".join)


def expressions(atoms):
    """Well-formed expressions over the atoms and small integers."""
    return st.recursive(
        st.one_of(small, st.sampled_from(atoms)),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
            inner.map("({})".format),
            inner.map("-{}".format),
            st.tuples(inner, small).map(lambda pair: "({})^{}".format(*pair)),
        ),
        max_leaves=4,
    )


scalar = expressions(["q", "lam", "zeta(2)", "zeta(4)", "2/3", "q^-1", "lam^2"])
unit = st.one_of(st.sampled_from(["q", "-q^-1", "zeta(4)", "1/2", "q*lam"]), scalar)
combination = expressions(["A", "B", "-A", "2*B", "zeta(2)"])
anything = st.one_of(expressions(["q", "lam", "A", "B", "zeta(3)", "v1", "g(1)", "x"]), soup)
pair = st.sampled_from(["1 2", "1 3", "2 3", "2 1", "3 1"])
group_letter = st.lists(st.integers(-2, 3).map(str), min_size=0, max_size=3).map(
    lambda exps: "(" + ",".join(exps) + ")"
)

rows = st.one_of(
    st.builds("conductor = {}".format, st.sampled_from(["1", "2", "4", "6", "12", "0", "q"])),
    st.sampled_from(["params = q, lam", "params = q", "params = zeta", "params = q, q"]),
    st.sampled_from(["orders = [2]", "orders = [2, 3]", "orders = []", "orders = [0]"]),
    st.sampled_from(
        ["characters = [[1], [1], [0]]", "characters = [[1, 0], [0, 1]]", "characters = [[1]]"]
    ),
    st.sampled_from(["free_rank = 0", "free_rank = 1", "basis = A, B", "basis = A, A"]),
    st.sampled_from(["degrees = [[0], [1]]", "degrees = [[1, 0], [0, 1]]"]),
    st.builds("{} {} = {}".format, index, index, anything),
    st.builds("{} {} -> {} {} {}".format, index, index, index, group_letter, anything),
    st.builds("epsilon {} {} = {}".format, index, index, anything),
    st.builds("bracket {} {} = {}".format, st.sampled_from(["A", "B", "C"]), st.sampled_from(["A", "B"]), anything),
    soup,
)

ALGEBRA = ["[field]", "conductor = 4", "params = q, lam", "[group]", "orders = [2]",
           "[action]", "characters = [[1], [1], [0]]"]
GENERIC = ["[field]", "conductor = 2", "[generic-lie]", "orders = [2]", "basis = A, B",
           "degrees = [[0], [1]]"]

q_row = st.builds("{} = {}".format, pair, unit)
kappa_term = st.builds(
    "{} ({}) {}".format, st.integers(1, 3).map(str), st.integers(-1, 2).map(str), scalar
)
# one to three terms, which may repeat a (target, letter) and cancel there
kappa_row = st.builds(
    "{} -> {}".format, pair, st.lists(kappa_term, min_size=1, max_size=3).map(" ; ".join)
)
bracket_row = st.builds(
    "bracket {} {} = {}".format, st.sampled_from(["A", "B"]), st.sampled_from(["A", "B"]), combination
)


@st.composite
def algebra_texts(draw):
    lines = ALGEBRA + ["[q]"] + draw(st.lists(q_row, max_size=2))
    lines += ["[kappa]"] + draw(st.lists(kappa_row, max_size=2))
    return "\n".join(lines) + "\n"


@st.composite
def spec_texts(draw):
    shape = draw(st.sampled_from(["algebra", "generic", "shuffled"]))
    if shape == "algebra":
        return draw(algebra_texts())
    if shape == "generic":
        lines = GENERIC + draw(st.lists(st.sampled_from(["epsilon 1 1 = -1"]), max_size=1))
        lines += draw(st.lists(bracket_row, max_size=3))
    else:
        lines = []
        blocks = st.tuples(st.sampled_from(HEADERS + [""]), st.lists(rows, max_size=4))
        for header, body in draw(st.lists(blocks, max_size=4)):
            lines += ([header] if header else []) + body
    return "\n".join(lines) + "\n"


def _fixed_point(text):
    try:
        first = format_spec(parse_spec_text(text))
    except (ParseError, SpecError):
        return
    assert format_spec(parse_spec_text(first)) == first


@settings(
    max_examples=250,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec_texts())
def test_spec_text_is_refused_or_formats_to_a_fixed_point(text):
    _fixed_point(text)


# kappa = 0 given as two terms that cancel
CANCELLING = "\n".join(ALGEBRA + ["[kappa]", "1 2 -> 1 (0) 1 ; 1 (0) -1"]) + "\n"


@settings(
    max_examples=250,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(algebra_texts())
@example(CANCELLING)
def test_every_parsed_algebra_gets_a_pbw_report(text):
    try:
        spec = parse_spec_text(text)
    except (ParseError, SpecError):
        return
    assert isinstance(spec, AlgebraSpec)
    check_pbw(spec)


def test_the_generated_texts_reach_both_outcomes():
    # a generator that only ever produced refusals would show nothing
    outcomes = set()

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(spec_texts())
    def sample(text):
        try:
            parse_spec_text(text)
            outcomes.add("parsed")
        except (ParseError, SpecError):
            outcomes.add("refused")

    sample()
    assert outcomes == {"parsed", "refused"}
